"""Vector-graphics export of diagrams (TikZ and SVG).

Output is structural and deterministic: nodes sit on two horizontals,
cups and caps are cubic curves, vertical strands are straight segments,
and a nonzero loop exponent is drawn as a circle annotated with d^m.
Pixel fidelity is a non-goal; the emitted text is meant to be asserted
on and pasted into documents.

Figures are drawn from (partner row, loop exponent) pairs, so
``tlkit draw`` runs on the kernel module alone; ``emit_figure`` reads
those pairs off its diagram arguments, and only it loads the diagram
module.  ``_figure`` sorts each pair of nodes once into one of four
strand kinds: a bottom cup, a top cap, a vertical strand (bottom node i
to top node i) or a slanted through strand, a curve like the cups and
caps.  The text of each format lives in its ``_Format`` table, ``_TIKZ``
or ``_SVG``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    from argparse import Namespace

    from .diagrams import PlanarDiagram, ScaledDiagram

#: A diagram to draw: its partner row (a tuple, or a ``bytes`` row of the
#: walk for ``--basis``) and loop exponent.
Figure = tuple[Sequence[int], int]


class _Format(NamedTuple):
    step: float  # x distance between neighbouring nodes
    coord: Callable[[float], str]
    box: Callable[[float, int], str]  # (figure width, figure index)
    cup: Callable[[str, str], str]  # each strand kind: (x texts of its ends)
    cap: Callable[[str, str], str]
    vertical: Callable[[str, str], str]
    slanted: Callable[[str, str], str]
    loop: Callable[[float, int], str]  # (figure width, loop exponent)
    end: str
    page: Callable[[list[str], float], str]  # (figure texts, widest width)


_TIKZ = _Format(
    step=0.5,
    coord=lambda x: f"{x:g}",
    box=lambda w, i: f"\\begin{{tikzpicture}}\n\\draw (0,0) rectangle ({w:g},1);",
    cup=lambda a, b: f"\\draw ({a},0) .. controls +(0,0.3) and +(0,0.3) .. ({b},0);",
    cap=lambda a, b: f"\\draw ({a},1) .. controls +(0,-0.3) and +(0,-0.3) .. ({b},1);",
    vertical=lambda a, b: f"\\draw ({a},0) -- ({a},1);",
    slanted=lambda a, b: f"\\draw ({a},0) .. controls +(0,0.3) and +(0,-0.3) .. ({b},1);",
    loop=lambda w, m: (
        f"\\draw ({w - 0.25:g},0.5) circle (0.12);\n"
        f"\\node[anchor=south] at ({w - 0.25:g},0.62) {{$d^{{{m}}}$}};"
    ),
    end="\\end{tikzpicture}",
    page=lambda figures, w: "\n\n".join(figures) + "\n",
)

# SVG coordinates are ints written with str, never in exponent form.
_SVG = _Format(
    step=40,
    coord=str,
    box=lambda w, i: (
        f'<g transform="translate(0,{120 * i})">\n'
        f'<rect x="10" y="20" width="{w - 20}" height="80" fill="none" stroke="black"/>'
    ),
    cup=lambda a, b: f'<path d="M {a} 100 C {a} 70 {b} 70 {b} 100" fill="none" stroke="black"/>',
    cap=lambda a, b: f'<path d="M {a} 20 C {a} 50 {b} 50 {b} 20" fill="none" stroke="black"/>',
    vertical=lambda a, b: f'<line x1="{a}" y1="100" x2="{a}" y2="20" stroke="black"/>',
    slanted=lambda a, b: f'<path d="M {a} 100 C {a} 60 {b} 60 {b} 20" fill="none" stroke="black"/>',
    loop=lambda w, m: (
        f'<circle cx="{w - 24}" cy="60" r="8" fill="none" stroke="black"/>\n'
        f'<text x="{w - 24}" y="44" text-anchor="middle" font-size="12">d^{m}</text>'
    ),
    end="</g>",
    # the widest diagram sets the width, so none is clipped
    page=lambda figures, w: (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {w} {120 * len(figures)}">\n' + "\n".join(figures) + "\n</svg>\n"
    ),
)

_FORMATS = {"tikz": _TIKZ, "svg": _SVG}


def _figure(fmt: _Format, figure: Figure, index: int) -> str:
    pairing, loop_exponent = figure
    n = len(pairing) // 2
    x = [fmt.coord(fmt.step * k) for k in range(n + 1)]
    width = fmt.step * (n + 1)
    lines = [fmt.box(width, index)]
    for a, b in [(a, b) for a, b in enumerate(pairing, start=1) if a < b]:
        if b <= n:
            lines.append(fmt.cup(x[a], x[b]))
        elif a > n:
            lines.append(fmt.cap(x[a - n], x[b - n]))
        elif b == a + n:
            lines.append(fmt.vertical(x[a], x[b - n]))
        else:
            lines.append(fmt.slanted(x[a], x[b - n]))
    if loop_exponent > 0:
        lines.append(fmt.loop(width, loop_exponent))
    lines.append(fmt.end)
    return "\n".join(lines)


def _page(fmt: str, figures: Sequence[Figure]) -> str:
    """The figures of ``figures`` in format ``fmt``, one page."""
    table = _FORMATS[fmt]
    texts = [_figure(table, figure, i) for i, figure in enumerate(figures)]
    return table.page(texts, table.step * (max(len(p) for p, _ in figures) // 2 + 1))


def emit_figure(
    target: PlanarDiagram | ScaledDiagram | Sequence[PlanarDiagram | ScaledDiagram],
    fmt: str,
) -> str:
    """Render one diagram or a sequence of diagrams as TikZ or SVG text."""
    from .diagrams import PlanarDiagram, ScaledDiagram

    if not isinstance(fmt, str) or fmt not in _FORMATS:
        raise ValueError(
            f"unsupported format {fmt!r}, expected one of {tuple(_FORMATS)}"
        )
    if isinstance(target, (PlanarDiagram, ScaledDiagram)):
        target = [target]
    try:
        items = iter(target)
    except TypeError:
        raise ValueError(f"cannot draw {target!r}: not a diagram or sequence") from None
    figures = []
    for item in items:
        if isinstance(item, ScaledDiagram):
            figures.append((item.diagram.pairing, item.loop_exponent))
        elif isinstance(item, PlanarDiagram):
            figures.append((item.pairing, 0))
        else:
            # Not through _values._require: this message names the item
            # mid-sentence, which _require could say only by formatting it
            # on every call.
            raise ValueError(f"cannot draw {item!r}: not a PlanarDiagram or ScaledDiagram")
    if not figures:
        raise ValueError("nothing to draw")
    return _page(fmt, figures)


def _run_draw(args: Namespace) -> tuple[bool, str]:
    """``tlkit draw`` on arguments ``tlkit.cli.run`` has checked: the
    basis, or one diagram argument, as a figure."""
    if args.basis and args.diagram is not None:
        raise ValueError("draw takes --basis or --diagram, not both")
    from ._backend import enumerate_pairings, read_diagram_arg

    if args.basis:
        return True, _page(args.format, [(p, 0) for p in enumerate_pairings(args.dim)])
    if args.diagram is None:
        raise ValueError("draw needs --basis or --diagram")
    return True, _page(args.format, [read_diagram_arg(args.diagram, args.dim)])
