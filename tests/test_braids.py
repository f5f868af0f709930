import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlkit import _backend, braids, enumeration
from tlkit.braids import (
    BraidWord,
    _image_columns,
    _image_rows,
    _image_terms,
    _verify_artin,
    braid_image,
    braid_image_matrix,
    kauffman_loop_value,
    verify_artin,
)
from tlkit.elements import TLElement, multiply
from tlkit.enumeration import catalan, enumerate_diagrams, identity_diagram
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix

from oracles import (
    closure_bracket,
    dense_braid_image_matrix,
    element_matrix,
    reference_image_columns,
    reference_image_terms,
)


def walk(n):
    """The walk's basis of ``n`` strands, over which the matrix image is
    built."""
    return _backend.enumerate_pairings(n)


def identity_element(n):
    return TLElement.from_diagram(identity_diagram(n), LaurentPoly.one("A"))


class TestBraidWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(0, ())

    def test_text_round_trip(self):
        w = BraidWord.from_text(4, "1,-2,3,-2")
        assert w.letters == (1, -2, 3, -2)
        assert w.to_text() == "1,-2,3,-2"
        assert BraidWord.from_text(4, "").letters == ()
        assert BraidWord.from_text(4, " +1 , -2 ").letters == (1, -2)

    def test_inverse_reverses_and_negates(self):
        w = BraidWord(4, (1, -2, 3))
        assert w.inverse().letters == (-3, 2, -1)

    def test_concatenation(self):
        w = BraidWord(3, (1,)) * BraidWord(3, (-2,))
        assert w.letters == (1, -2)
        with pytest.raises(ValueError):
            BraidWord(3, (1,)) * BraidWord(4, (1,))

    def test_product_with_a_non_word_is_not_implemented(self):
        w = BraidWord(3, (1,))
        assert w.__mul__(5) is NotImplemented
        with pytest.raises(TypeError):
            w * 5
        with pytest.raises(TypeError):
            5 * w

    def test_stores_a_tuple_of_ints(self):
        w = BraidWord(3, [1, -2])
        assert w.letters == (1, -2) and type(w.letters) is tuple
        assert hash(w) == hash(BraidWord(3, (1, -2)))
        assert BraidWord(3, (True,)).letters == (1,)
        assert type(BraidWord(3, (True,)).letters[0]) is int

    @pytest.mark.parametrize(
        "strands,letters", [(3, (1.0,)), ("3", (1,)), (3.0, ()), (3, ("1",)), (3, 1)]
    )
    def test_rejects_non_integers(self, strands, letters):
        with pytest.raises(ValueError, match="must be integers"):
            BraidWord(strands, letters)

    @pytest.mark.parametrize(
        "text",
        [
            "1,,2",
            "1,x",
            "1.5",
            ",",
            # ``int`` reads both, as 11 and as 1,-2
            pytest.param("1_1", id="underscore"),
            pytest.param("\u0661,-\u0662", id="arabic-indic-digits"),
        ],
    )
    def test_from_text_quotes_a_bad_word(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            BraidWord.from_text(3, text)


@given(st.integers(1, 6), st.text())
def test_from_text_raises_only_value_error(strands, text):
    try:
        word = BraidWord.from_text(strands, text)
    except ValueError:
        return
    assert all(1 <= abs(x) < strands for x in word.letters)


@pytest.mark.parametrize(
    "call",
    [lambda: braid_image_matrix(BraidWord(13, ())), lambda: verify_artin(13)],
    ids=["braid_image_matrix", "verify_artin"],
)
def test_strand_ceiling_names_the_strand_count(call):
    # Neither function takes ``max_dimension``, so the message offers no
    # override a caller could not follow.
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == "strand count 13 exceeds the resource ceiling 12"


def test_kauffman_loop_value():
    assert str(kauffman_loop_value()) == "-A^2-A^-2"


def test_empty_word_maps_to_identity():
    assert braid_image(BraidWord.identity(3)) == identity_element(3)
    assert braid_image_matrix(BraidWord.identity(3)) == PolyMatrix.identity(
        catalan(3), "A"
    )


def test_element_image_keeps_tuples_above_the_byte_bound():
    # The element image walks no basis, so it runs on tuple partners at a
    # strand count whose basis rows, a partner to a byte, could not be
    # walked.
    image = braid_image(BraidWord(130, (1, -1)))
    assert image == identity_element(130)
    assert [type(d.pairing) for d, _ in image.terms] == [tuple]
    assert {type(p) for p, _ in _image_terms(BraidWord(130, (1, 2, -1)))} == {tuple}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_times_inverse_cancels(n):
    for i in range(1, n):
        w = BraidWord(n, (i, -i))
        assert braid_image(w) == identity_element(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matrix_inverse_cancellation(n):
    ident = PolyMatrix.identity(catalan(n), "A")
    for i in range(1, n):
        left = braid_image_matrix(BraidWord(n, (i,)))
        right = braid_image_matrix(BraidWord(n, (-i,)))
        assert left * right == ident


def test_braided_relation_elements_dim3():
    assert braid_image(BraidWord(3, (1, 2, 1))) == braid_image(BraidWord(3, (2, 1, 2)))


def test_braided_relation_matrices_dim4():
    m1 = braid_image_matrix(BraidWord(4, (1, 2, 1)))
    m2 = braid_image_matrix(BraidWord(4, (2, 1, 2)))
    assert m1.size == 14
    assert m1 == m2


def test_far_commutation_dim4():
    assert braid_image(BraidWord(4, (1, 3))) == braid_image(BraidWord(4, (3, 1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_homomorphism_on_random_words(n):
    rng = random.Random(n)
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for _ in range(12):
        w1 = BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))))
        w2 = BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))))
        assert braid_image(w1 * w2) == multiply(
            braid_image(w1), braid_image(w2), kauffman_loop_value()
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_law_on_random_words(n):
    rng = random.Random(10 + n)
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for _ in range(8):
        w = BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))))
        assert braid_image(w * w.inverse()) == identity_element(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_term_count_bounded_and_inside_basis(n):
    rng = random.Random(20 + n)
    basis = enumerate_diagrams(n)
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for _ in range(10):
        length = rng.randint(0, 6)
        w = BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))
        image = braid_image(w)
        assert len(image.terms) <= 2**length
        for diagram, _ in image.terms:
            assert diagram in basis


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_route_matches_element_route(n):
    rng = random.Random(30 + n)
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    for _ in range(6):
        w = BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))))
        assert element_matrix(braid_image(w)) == braid_image_matrix(w)


@st.composite
def braid_words(draw, min_strands=2, max_strands=5, max_len=6, min_len=0):
    n = draw(st.integers(min_strands, max_strands))
    letters = st.sampled_from([s * i for i in range(1, n) for s in (1, -1)])
    return BraidWord(n, tuple(draw(st.lists(letters, min_size=min_len, max_size=max_len))))


@given(braid_words())
def test_matrix_image_matches_dense_product(word):
    assert braid_image_matrix(word) == dense_braid_image_matrix(word)
    # Matrices are compared by their columns, so equal images need equal
    # columns: an entry that cancels to zero must not be stored.
    for column in _image_columns(word, walk(word.strands), lambda p: p):
        assert not any(p.is_zero() for p in column.values())


def test_matrix_image_builds_no_diagram_basis(monkeypatch):
    # ``braid_image_matrix`` reads the walk's pairings, as ``bracket
    # --matrix`` does, not the diagrams of a cached ``DiagramBasis``.
    rng = random.Random(42)
    words = [BraidWord(1, ())]
    for n in range(2, 6):
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for _ in range(4):
            words.append(BraidWord(n, tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))))
    expected = [dense_braid_image_matrix(w) for w in words]

    def refuse(dimension):
        raise AssertionError(f"a DiagramBasis of dimension {dimension} was built")

    monkeypatch.setattr(enumeration, "_basis", refuse)
    assert [braid_image_matrix(w) for w in words] == expected


@st.composite
def long_words(draw):
    """A word of 0 to 60 letters, its length drawn evenly, on 2 to 6
    strands; or half of one times its inverse, which cancels back to the
    identity."""
    length = draw(st.integers(0, 60))
    word = draw(braid_words(max_strands=6, min_len=length, max_len=length))
    if draw(st.booleans()):
        half = BraidWord(word.strands, word.letters[: length // 2])
        return half * half.inverse()
    return word


# The reference takes about 4 ms on a word of 30 letters, the mean here:
# 50 words keep the property near 0.3 s.
@settings(max_examples=50)
@example(BraidWord(2, ()))
@example(BraidWord(4, (1, -2, 3, -3, 2, -1)))
@given(long_words())
def test_image_rows_match_the_reference_loop(word):
    expected = reference_image_terms(word)
    assert _image_terms(word) == expected
    # Each letter moves every exponent by an odd amount: the rows rest on it.
    length = len(word.letters)
    assert all((e - length) % 2 == 0 for _, c in expected for e, _ in c.coeffs)
    # Every row is trimmed, so it starts and ends on a nonzero coefficient.
    assert all(cs[0] and cs[-1] for _, (_, cs) in _image_rows(word))


def assert_columns_match_the_reference(word):
    basis = walk(word.strands)
    reference = reference_image_columns(word, basis)
    assert list(_image_columns(word, basis, lambda p: p)) == reference
    texts = [{j: str(p) for j, p in column.items()} for column in reference]
    assert list(_image_columns(word, basis, str)) == texts


@given(braid_words(max_strands=7, max_len=10))
def test_image_columns_match_the_reference(word):
    assert_columns_match_the_reference(word)


# The reference applies one letter at a time to every column, about 0.25 s
# for an 80-letter word on 5 strands, so this property draws fewer words.
@settings(max_examples=20)
@given(braid_words(max_strands=5, min_len=40, max_len=80))
def test_image_columns_of_long_words_match_the_reference(word):
    # Long words carry wide coefficients in every entry.
    assert_columns_match_the_reference(word)


@pytest.mark.parametrize(
    "strands,letters,expected",
    [
        (2, (1, 1, 1), {5: -1, -3: -1, -7: 1}),
        (3, (1, -2, 1, -2), {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}),
        (3, (), {4: 1, 0: 2, -4: 1}),
    ],
    ids=["trefoil", "figure-eight", "three-component-unlink"],
)
def test_closure_bracket_known_values(strands, letters, expected):
    # Kauffman's values, which the mirrored substitution
    # sigma -> A^-1 + A.U would turn into their A -> A^-1 images.
    assert closure_bracket(BraidWord(strands, letters)) == LaurentPoly.from_dict("A", expected)


@given(braid_words(), st.sampled_from([1, -1]))
def test_stabilization_scales_the_closure_bracket(word, sign):
    # Markov II: w sigma_N^{+-1} on N+1 strands closes to the same link
    # with one more curl, worth -A^{+-3}.
    n = word.strands
    stabilized = BraidWord(n + 1, word.letters + (sign * n,))
    curl = -LaurentPoly.monomial("A", 3 * sign)
    assert closure_bracket(stabilized) == curl * closure_bracket(word)


@given(braid_words())
def test_conjugation_keeps_the_closure_bracket(word):
    # Markov I: moving the first letter to the end conjugates the braid.
    rotated = BraidWord(word.strands, word.letters[1:] + word.letters[:1])
    assert closure_bracket(rotated) == closure_bracket(word)


def assert_same_images(w1, w2):
    assert braid_image(w1) == braid_image(w2)
    basis = walk(w1.strands)
    columns = list(_image_columns(w1, basis, lambda p: p))
    assert columns == list(_image_columns(w2, basis, lambda p: p))


def spliced(word, at, letters):
    return BraidWord(word.strands, word.letters[:at] + letters + word.letters[at:])


@given(braid_words(min_strands=3, max_len=3), st.data())
def test_braided_relation_anywhere_in_a_word(word, data):
    at = data.draw(st.integers(0, len(word.letters)))
    j = data.draw(st.integers(1, word.strands - 2))
    s = data.draw(st.sampled_from([1, -1]))
    a, b = s * j, s * (j + 1)
    assert_same_images(spliced(word, at, (a, b, a)), spliced(word, at, (b, a, b)))


@given(braid_words(min_strands=4, max_len=4), st.data())
def test_far_commutation_anywhere_in_a_word(word, data):
    at = data.draw(st.integers(0, len(word.letters)))
    j = data.draw(st.integers(1, word.strands - 3))
    k = data.draw(st.integers(j + 2, word.strands - 1))
    a = data.draw(st.sampled_from([j, -j]))
    b = data.draw(st.sampled_from([k, -k]))
    assert_same_images(spliced(word, at, (a, b)), spliced(word, at, (b, a)))


@given(braid_words(max_len=3))
def test_word_times_inverse_is_identity(word):
    assert_same_images(word * word.inverse(), BraidWord.identity(word.strands))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_artin_passes(n):
    report = verify_artin(n, max_len=5)
    assert report.passed, report.lines()


@pytest.mark.parametrize("n", [3, 5])
def test_matrix_images_compare_across_lengths(n):
    # Matrix images of words of different lengths, whose entries span
    # different exponent ranges, compare equal exactly when their columns
    # hold equal polynomials.
    basis = walk(n)
    identity = BraidWord.identity(n)
    _, entries, witnesses = _verify_artin(n)
    assert all(ok for _, ok in entries) and witnesses == ()

    def columns(word):
        return list(_image_columns(word, basis, lambda p: p))

    for j in range(1, n):
        assert columns(BraidWord(n, (j, -j))) == columns(identity)
        assert columns(identity) == columns(BraidWord(n, (-j, j)))
    w = BraidWord(n, (1, -2, 1, 1, -(n - 1)))
    assert columns(w * w.inverse()) == columns(identity)
    assert columns(BraidWord(n, (1,))) != columns(identity)


@st.composite
def word_pairs(draw):
    """Two words on at most 6 strands: one with a braided relation, a far
    commutation or a letter and its inverse spliced into it on either
    side, one with a letter's sign flipped, or two unrelated words."""
    word = draw(braid_words(max_strands=6, max_len=5))
    n, letters = word.strands, word.letters
    kind = draw(st.sampled_from(["related", "flipped", "unrelated"]))
    if kind == "unrelated":
        return word, draw(braid_words(min_strands=n, max_strands=n, max_len=5))
    if kind == "flipped" and letters:
        at = draw(st.integers(0, len(letters) - 1))
        return word, BraidWord(n, letters[:at] + (-letters[at],) + letters[at + 1 :])
    at = draw(st.integers(0, len(letters)))
    j = draw(st.integers(1, n - 1))
    s = draw(st.sampled_from([1, -1]))
    if j + 1 < n and draw(st.booleans()):
        a, b = s * j, s * (j + 1)
        sides = (a, b, a), (b, a, b)
    elif j + 2 < n:
        k = draw(st.integers(j + 2, n - 1))
        sides = (s * j, k), (k, s * j)
    else:
        sides = (s * j, -s * j), ()
    return spliced(word, at, sides[0]), spliced(word, at, sides[1])


@given(word_pairs())
def test_element_images_decide_matrix_images(pair):
    # The matrix image of w is left multiplication by its element image:
    # the identity's column is w.1, the element image itself, and every
    # column is w.D_j = (w.1).D_j.  So the Artin check compares element
    # images alone; this holds the two verdicts equal.
    w1, w2 = pair
    basis = walk(w1.strands)
    # the walk's rows are bytes and the element image's pairings tuples
    index = {tuple(p): i for i, p in enumerate(basis)}
    root = index[_backend.identity_pairing(w1.strands)]
    images = [_image_terms(w) for w in pair]
    columns = [list(_image_columns(w, basis, lambda p: p)) for w in pair]
    assert (images[0] == images[1]) == (columns[0] == columns[1])
    for image, image_columns in zip(images, columns):
        assert image_columns[root] == {index[p]: c for p, c in image}


def test_verify_artin_names_a_differing_element_term(monkeypatch):
    original = braids._image_terms

    def skewed(word):
        terms = original(word)
        if word.letters == (1, -1):
            (pairing, coeff), *rest = terms
            return [(pairing, coeff + 1), *rest]
        return terms

    monkeypatch.setattr(braids, "_image_terms", skewed)
    report = verify_artin(3)
    assert [name for name, ok in report.entries if not ok] == ["sigma_1*sigma_1^-1 = 1"]
    assert dict(report.witnesses)["sigma_1*sigma_1^-1 = 1"] == (
        "first differing term TL 3 m=0 (1,4)(2,5)(3,6): expected 1, got 2"
    )


def test_verify_artin_reports_a_wrong_action(monkeypatch):
    # ``_image_terms`` applies each letter through ``_apply_generator``;
    # a U_1 that closes one loop too many breaks sigma_1 sigma_1^-1 = 1.
    original = braids._apply_generator

    def skewed(pairing, k, n):
        image, loops = original(pairing, k, n)
        return image, loops + (k == 1)

    monkeypatch.setattr(braids, "_apply_generator", skewed)
    assert not verify_artin(4).passed


def test_verify_artin_rejects_single_strand():
    with pytest.raises(ValueError):
        verify_artin(1)
