import random

import pytest

from tlkit import laurent
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix


def d(mapping):
    return LaurentPoly.from_dict("d", mapping)


def test_normalization_drops_zeros():
    assert d({2: 0, 1: 3}).coeffs == ((1, 3),)
    assert d({}) == LaurentPoly.zero("d")
    assert d({0: 1}).is_one()


@pytest.mark.parametrize(
    "rows",
    [
        ((1,),),
        (("d",),),
        ((LaurentPoly.one("A"),),),
        ((LaurentPoly.one("d"), LaurentPoly.one("d")),),
        5,
        (5,),
    ],
)
def test_poly_matrix_rejects_bad_rows(rows):
    with pytest.raises(ValueError):
        PolyMatrix.from_rows("d", rows)


def test_poly_matrix_stores_rows_as_tuples():
    one, zero = LaurentPoly.one("d"), LaurentPoly.zero("d")
    m = PolyMatrix.from_rows("d", [[one, zero], [zero, one]])
    assert m.rows == ((one, zero), (zero, one))
    assert m == PolyMatrix.identity(2, "d")
    assert hash(m) == hash(PolyMatrix.identity(2, "d"))


class _One:
    """A dict key apart from 1 that reads as the integer 1."""

    def __index__(self):
        return 1


def test_invalid_storage_rejected():
    with pytest.raises(ValueError):
        LaurentPoly("d", ((1, 0),))
    with pytest.raises(ValueError):
        LaurentPoly("d", ((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        LaurentPoly("d", ((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        LaurentPoly("x", ((0, 1),))
    # two distinct keys that read as one exponent
    with pytest.raises(ValueError, match="distinct exponent"):
        d({_One(): 2, 1: 3})


@pytest.mark.parametrize(
    "coeffs",
    [
        ((0, 1.5),),
        ((0.5, 1),),
        ((0, [1]),),
        ((0, "1"),),
        ((0, 1, 2),),
        5,
    ],
)
def test_non_integer_storage_rejected(coeffs):
    with pytest.raises(ValueError):
        LaurentPoly("d", coeffs)


def test_constructor_stores_int_pairs_as_tuples():
    p = LaurentPoly("d", [[0, 1], [2, 3]])
    assert p.coeffs == ((0, 1), (2, 3))
    assert hash(p) == hash(d({0: 1, 2: 3}))


@pytest.mark.parametrize(
    "make",
    [
        lambda: LaurentPoly("d", ((0, 1), (2, 3))),
        lambda: LaurentPoly.from_dict("A", {2: -1, -2: -1}),
        lambda: LaurentPoly.monomial("A", 3),
        lambda: LaurentPoly.constant("d", 2),
        lambda: LaurentPoly.one("A"),
        lambda: LaurentPoly.zero("d"),
    ],
    ids=["constructor", "from_dict", "monomial", "constant", "one", "zero"],
)
def test_each_build_reads_its_pairs_once(make, monkeypatch):
    calls = []
    original = laurent._pairs

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(laurent, "_pairs", counted)
    make()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "operation",
    [
        lambda p: p * 2.5,
        lambda p: 2.5 * p,
        lambda p: p**1.5,
        lambda p: p + 0.5,
        lambda p: p - "1",
        lambda p: 0.5 - p,
        lambda p: p.shifted(0.5),
        lambda p: LaurentPoly.from_dict("d", {0: 1.5}),
        lambda p: LaurentPoly.monomial("d", 0.5),
    ],
)
def test_non_integer_operands_rejected(operation):
    with pytest.raises(ValueError):
        operation(d({1: 1, 0: 2}))


def test_arithmetic_results_pass_public_constructor():
    # Results are built without validation, so re-check their stored form.
    rng = random.Random(1)
    for _ in range(200):
        a = d({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(3)})
        b = d({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(3)})
        k = rng.randint(-2, 2)
        for r in (a + b, a - b, a * b, -a, a * k, a + k, k - a, a**2, a.shifted(k)):
            assert LaurentPoly(r.variable, r.coeffs) == r


@pytest.mark.parametrize(
    "mapping,text",
    [
        ({}, "0"),
        ({0: 1}, "1"),
        ({0: -1}, "-1"),
        ({2: 1, 1: -2, 0: 1}, "d^2-2*d+1"),
        ({1: 1, -1: 1}, "d+d^-1"),
        ({1: -1}, "-d"),
        ({-2: 3, 0: 1}, "1+3*d^-2"),
    ],
)
def test_text_form(mapping, text):
    assert str(d(mapping)) == text


def test_text_form_bracket_variable():
    loop = LaurentPoly.from_dict("A", {2: -1, -2: -1})
    assert str(loop) == "-A^2-A^-2"


def test_arithmetic():
    x = d({1: 1})
    assert x + x == d({1: 2})
    assert x - x == LaurentPoly.zero("d")
    assert x * x == d({2: 1})
    assert (x + 1) * (x - 1) == d({2: 1, 0: -1})
    assert -x == d({1: -1})
    assert 3 * x == d({1: 3})
    assert x**0 == LaurentPoly.one("d")
    assert (x + 1) ** 2 == d({2: 1, 1: 2, 0: 1})


def test_negative_exponents_multiply():
    x = d({1: 1})
    xinv = d({-1: 1})
    assert x * xinv == LaurentPoly.one("d")


def test_variable_mixing_rejected():
    with pytest.raises(ValueError):
        d({1: 1}) + LaurentPoly.monomial("A", 1)
    with pytest.raises(ValueError):
        d({1: 1}) * LaurentPoly.monomial("A", 1)


def test_substitute():
    loop = LaurentPoly.from_dict("A", {2: -1, -2: -1})
    square = LaurentPoly.monomial("d", 2).substitute(loop)
    assert square == LaurentPoly.from_dict("A", {4: 1, 0: 2, -4: 1})
    assert LaurentPoly.one("d").substitute(loop) == LaurentPoly.one("A")
    with pytest.raises(ValueError):
        d({-1: 1}).substitute(loop)
    with pytest.raises(ValueError, match="substitute_int"):
        LaurentPoly.monomial("d", 2).substitute(2)


def test_substitute_int():
    p = d({2: 1, 1: -2, 0: 1})
    assert p.substitute_int(3) == 4
    with pytest.raises(ValueError):
        d({-1: 1}).substitute_int(2)
    with pytest.raises(ValueError, match="integer"):
        p.substitute_int(2.5)


def test_integer_minus_polynomial():
    p = d({2: 1, 0: 1})
    assert 5 - p == d({2: -1, 0: 4})
    assert 5 - p == -(p - 5)
    assert 1 - d({0: 1}) == LaurentPoly.zero("d")


def test_ring_axioms_randomized():
    rng = random.Random(0)

    def rand_poly():
        return d(
            {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 5))}
        )

    one = LaurentPoly.one("d")
    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a * one == a
