"""Property tests over random noncrossing diagrams.

Kernel output, composition products, generator-rule images, ``parse``
results and the identity and generator diagrams are built without
re-validation, so these tests re-check what those paths produce through
the validating public constructor.
"""

from contextlib import suppress

from hypothesis import given
from hypothesis import strategies as st

from tlkit import _backend
from tlkit.composition import compose, compose_scaled
from tlkit.diagrams import (
    PlanarDiagram,
    ScaledDiagram,
    is_noncrossing,
    parse,
    serialize,
)
from tlkit.enumeration import DiagramBasis, enumerate_diagrams, identity_diagram
from tlkit.representation import generator_diagram, generator_matrices, representation_basis

from oracles import node_position, reference_map


@st.composite
def diagrams_of(draw, n):
    """A random Dyck word of length 2N read along the boundary circle:
    each opening step is a node that waits on the stack, each closing
    step pairs its node with the node on top of the stack."""
    pairing = [0] * (2 * n)
    stack: list[int] = []
    opened = 0
    for p in range(1, 2 * n + 1):
        node = node_position(p, n)  # the circle map is its own inverse
        if opened < n and (not stack or draw(st.booleans())):
            stack.append(node)
            opened += 1
        else:
            other = stack.pop()
            pairing[node - 1] = other
            pairing[other - 1] = node
    return PlanarDiagram(n, tuple(pairing))


dimensions = st.integers(1, 12)
diagrams = dimensions.flatmap(diagrams_of)
diagram_pairs = dimensions.flatmap(lambda n: st.tuples(diagrams_of(n), diagrams_of(n)))


scaled_triples = dimensions.flatmap(
    lambda n: st.tuples(
        *(st.builds(ScaledDiagram, diagrams_of(n), st.integers(0, 5)) for _ in range(3))
    )
)


@given(scaled_triples)
def test_compose_scaled_is_associative(triple):
    a, b, c = triple
    left = compose_scaled(compose_scaled(a, b), c)
    right = compose_scaled(a, compose_scaled(b, c))
    assert left.diagram == right.diagram
    # the given exponents plus the loops closed by the two stackings of
    # either bracketing
    ab = compose(a.diagram, b.diagram)
    closed = ab.loop_exponent + compose(ab.diagram, c.diagram).loop_exponent
    given_loops = a.loop_exponent + b.loop_exponent + c.loop_exponent
    assert left.loop_exponent == right.loop_exponent == given_loops + closed


@given(dimensions.flatmap(lambda n: st.builds(ScaledDiagram, diagrams_of(n), st.integers(0, 5))))
def test_identity_is_a_two_sided_unit(scaled):
    unit = ScaledDiagram(identity_diagram(scaled.dimension), 0)
    assert compose_scaled(unit, scaled) == scaled
    assert compose_scaled(scaled, unit) == scaled


@given(diagram_pairs)
def test_compose_product_passes_public_constructor(pair):
    a, b = pair
    product = compose(a, b)
    n = product.dimension
    assert PlanarDiagram(n, product.diagram.pairing) == product.diagram
    assert is_noncrossing(product.diagram.pairing, n)


@given(diagram_pairs)
def test_compose_through_count_bounded_by_factors(pair):
    a, b = pair
    product = compose(a, b).diagram
    assert product.through_count() <= min(a.through_count(), b.through_count())


@given(st.integers(2, 12).flatmap(diagrams_of))
def test_generator_rule_matches_composition(diagram):
    n = diagram.dimension
    for k in range(1, n):
        pairing, loops = _backend._apply_generator(diagram.pairing, k, n)
        product = compose(diagram, generator_diagram(n, k))
        assert (pairing, loops) == (product.diagram.pairing, product.loop_exponent)
        assert PlanarDiagram(n, pairing).pairing == pairing


@given(st.integers(1, 8).flatmap(lambda n: st.permutations(enumerate_diagrams(n).diagrams)))
def test_maps_equal_the_rule_in_any_basis_order(diagrams):
    # Link-state ids are numbered by first appearance, so a caller's order
    # of the basis numbers the grid's states and picks its representatives.
    # Without the identity the maps are built on the basis in the ideal
    # blocks' order, which lacks the identity's top and bottom states.
    n = diagrams[0].dimension
    basis = DiagramBasis(n, tuple(diagrams))
    for include_identity in (True, False):
        matrices = generator_matrices(basis, include_identity)
        pairings = [d.pairing for d in representation_basis(basis, include_identity)]
        expected = [reference_map(pairings, k) for k in range(1, n)]
        assert [(m.targets, m.exponents) for m in matrices] == expected


@given(st.integers(1, 8).flatmap(lambda n: st.permutations(enumerate_diagrams(n).diagrams)))
def test_locate_finds_every_diagram_in_any_basis_order(diagrams):
    # The ids of a caller's order are its own, numbered by first appearance;
    # ``locate`` reads them off any basis diagram, one pair per position.
    n = diagrams[0].dimension
    basis = DiagramBasis(n, tuple(diagrams))
    top, bottom, _, _, locate = _backend.link_grid([d.pairing for d in basis])
    for d in diagrams:
        i = basis.index_of(d)
        assert locate(d.pairing) == (top[i], bottom[i])
    assert len(set(zip(top, bottom))) == len(basis)


@given(diagrams, st.integers(0, 10**6))
def test_parse_inverts_serialize(diagram, loops):
    scaled = ScaledDiagram(diagram, loops)
    assert parse(serialize(scaled)) == scaled


def test_kernel_pairings_pass_public_constructor():
    for n in range(1, 9):
        for pairing in _backend.enumerate_pairings(n):
            PlanarDiagram(n, pairing)


def test_identity_and_generators_pass_public_constructor():
    for n in range(1, 13):
        ident = identity_diagram(n)
        assert PlanarDiagram(n, ident.pairing) == ident
        for k in range(1, n):
            u = generator_diagram(n, k)
            assert PlanarDiagram(n, u.pairing) == u


@given(st.text())
def test_parse_arbitrary_text_raises_only_value_error(line):
    with suppress(ValueError):
        parse(line)


@st.composite
def mutated_lines(draw):
    """A valid diagram line with a few characters replaced, inserted or
    deleted, drawn from the alphabet of the format."""
    chars = list(serialize(ScaledDiagram(draw(diagrams), draw(st.integers(0, 3)))))
    alphabet = st.sampled_from("0123456789(),TLm= ")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(chars)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "insert" or i == len(chars):
            chars.insert(i, draw(alphabet))
        elif action == "replace":
            chars[i] = draw(alphabet)
        else:
            del chars[i]
    return "".join(chars)


@given(mutated_lines())
def test_parse_mutated_lines_raises_only_value_error(line):
    with suppress(ValueError):
        parse(line)
