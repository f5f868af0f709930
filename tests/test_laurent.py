import random

import pytest

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
        PolyMatrix("d", rows)


def test_poly_matrix_stores_rows_as_tuples():
    one, zero = LaurentPoly.one("d"), LaurentPoly.zero("d")
    m = PolyMatrix("d", [[one, zero], [zero, one]])
    assert m.rows == ((one, zero), (zero, one))
    assert m == PolyMatrix.identity(2, "d")
    assert hash(m) == hash(PolyMatrix.identity(2, "d"))


def test_invalid_storage_rejected():
    with pytest.raises(ValueError):
        LaurentPoly("d", ((1, 0),))
    with pytest.raises(ValueError):
        LaurentPoly("d", ((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        LaurentPoly("x", ((0, 1),))


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


def test_substitute_int():
    p = d({2: 1, 1: -2, 0: 1})
    assert p.substitute_int(3) == 4
    with pytest.raises(ValueError):
        d({-1: 1}).substitute_int(2)


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
