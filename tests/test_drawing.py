import pytest

from tlkit.diagrams import ScaledDiagram, parse
from tlkit.drawing import emit_figure
from tlkit.enumeration import enumerate_diagrams, identity_diagram
from tlkit.representation import generator_diagram


def test_identity_is_four_straight_segments():
    tikz = emit_figure(identity_diagram(4), "tikz")
    assert tikz.count(" -- ") == 4
    assert ".. controls" not in tikz
    svg = emit_figure(identity_diagram(4), "svg")
    assert svg.count("<line") == 4
    assert "<path" not in svg


def test_cup_generator_structure():
    u1 = generator_diagram(4, 1)
    tikz = emit_figure(u1, "tikz")
    assert tikz.count("controls +(0,0.3) and +(0,0.3)") == 1  # bottom cup
    assert tikz.count("controls +(0,-0.3) and +(0,-0.3)") == 1  # top cap
    assert tikz.count(" -- ") == 2
    svg = emit_figure(u1, "svg")
    assert svg.count("<path") == 2
    assert svg.count("<line") == 2


def test_slanted_through_strand_is_curved():
    # 1-7 and 3-5 strands of this diagram are not vertical
    scaled = parse("TL 4 m=0 (1,7)(2,3)(4,8)(5,6)")
    tikz = emit_figure(scaled, "tikz")
    assert tikz.count("controls +(0,0.3) and +(0,-0.3)") == 1


def test_basis_emits_one_group_per_diagram():
    basis = tuple(enumerate_diagrams(4))
    tikz = emit_figure(basis, "tikz")
    assert tikz.count("\\begin{tikzpicture}") == 14
    svg = emit_figure(basis, "svg")
    assert svg.count("<g ") == 14
    assert svg.count("</g>") == 14


def test_svg_width_fits_the_widest_diagram():
    # the 3-strand frame spans x = 10..150, so the figure needs width 160
    header = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 160 240">'
    for pair in ([2, 3], [3, 2]):
        svg = emit_figure([identity_diagram(n) for n in pair], "svg")
        assert svg.splitlines()[0] == header


def test_loop_annotation():
    scaled = ScaledDiagram(identity_diagram(2), 2)
    tikz = emit_figure(scaled, "tikz")
    assert "circle" in tikz and "$d^{2}$" in tikz
    svg = emit_figure(scaled, "svg")
    assert "<circle" in svg and "d^2" in svg


def test_deterministic():
    basis = tuple(enumerate_diagrams(3))
    assert emit_figure(basis, "svg") == emit_figure(basis, "svg")
    assert emit_figure(basis, "tikz") == emit_figure(basis, "tikz")


def test_unsupported_format_rejected():
    with pytest.raises(ValueError):
        emit_figure(identity_diagram(2), "png")
    with pytest.raises(ValueError):
        emit_figure((), "svg")
