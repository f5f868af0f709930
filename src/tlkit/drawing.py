"""Vector-graphics export of diagrams (TikZ and SVG).

Output is structural and deterministic: nodes sit on two horizontals,
cups and caps are cubic curves, vertical strands are straight segments,
and a nonzero loop exponent is drawn as a circle annotated with d^m.
Pixel fidelity is a non-goal; the emitted text is meant to be asserted
on and pasted into documents.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .diagrams import PlanarDiagram, ScaledDiagram

_FORMATS = ("tikz", "svg")


def _as_scaled(item: PlanarDiagram | ScaledDiagram) -> ScaledDiagram:
    if isinstance(item, PlanarDiagram):
        return ScaledDiagram(item, 0)
    return item


def _fmt(x: float) -> str:
    return f"{x:g}"


def _tikz_one(scaled: ScaledDiagram) -> list[str]:
    n = scaled.dimension
    x = lambda node: 0.5 * (node if node <= n else node - n)
    width = 0.5 * (n + 1)
    lines = ["\\begin{tikzpicture}"]
    lines.append(f"\\draw (0,0) rectangle ({_fmt(width)},1);")
    for a, b in scaled.diagram.pairs():
        xa, xb = _fmt(x(a)), _fmt(x(b))
        if b <= n:
            lines.append(
                f"\\draw ({xa},0) .. controls +(0,0.3) and +(0,0.3) .. ({xb},0);"
            )
        elif a > n:
            lines.append(
                f"\\draw ({xa},1) .. controls +(0,-0.3) and +(0,-0.3) .. ({xb},1);"
            )
        elif b == a + n:
            lines.append(f"\\draw ({xa},0) -- ({xa},1);")
        else:
            lines.append(
                f"\\draw ({xa},0) .. controls +(0,0.3) and +(0,-0.3) .. ({xb},1);"
            )
    if scaled.loop_exponent > 0:
        lines.append(f"\\draw ({_fmt(width - 0.25)},0.5) circle (0.12);")
        lines.append(
            f"\\node[anchor=south] at ({_fmt(width - 0.25)},0.62) "
            f"{{$d^{{{scaled.loop_exponent}}}$}};"
        )
    lines.append("\\end{tikzpicture}")
    return lines


def _svg_one(scaled: ScaledDiagram, offset_y: int) -> list[str]:
    n = scaled.dimension
    x = lambda node: 40 * (node if node <= n else node - n)
    width = 40 * (n + 1)
    top, bottom = 20, 100
    mid_up, mid_down = 70, 50
    lines = [f'<g transform="translate(0,{offset_y})">']
    lines.append(
        f'<rect x="10" y="{top}" width="{width - 20}" height="{bottom - top}" '
        'fill="none" stroke="black"/>'
    )
    for a, b in scaled.diagram.pairs():
        xa, xb = x(a), x(b)
        if b <= n:
            lines.append(
                f'<path d="M {xa} {bottom} C {xa} {mid_up} {xb} {mid_up} '
                f'{xb} {bottom}" fill="none" stroke="black"/>'
            )
        elif a > n:
            lines.append(
                f'<path d="M {xa} {top} C {xa} {mid_down} {xb} {mid_down} '
                f'{xb} {top}" fill="none" stroke="black"/>'
            )
        elif b == a + n:
            lines.append(
                f'<line x1="{xa}" y1="{bottom}" x2="{xa}" y2="{top}" stroke="black"/>'
            )
        else:
            lines.append(
                f'<path d="M {xa} {bottom} C {xa} 60 {xb} 60 {xb} {top}" '
                'fill="none" stroke="black"/>'
            )
    if scaled.loop_exponent > 0:
        cx = width - 24
        lines.append(f'<circle cx="{cx}" cy="60" r="8" fill="none" stroke="black"/>')
        lines.append(
            f'<text x="{cx}" y="44" text-anchor="middle" font-size="12">'
            f"d^{scaled.loop_exponent}</text>"
        )
    lines.append("</g>")
    return lines


def emit_figure(
    target: PlanarDiagram | ScaledDiagram | Sequence[PlanarDiagram | ScaledDiagram],
    fmt: str,
) -> str:
    """Render one diagram or a sequence of diagrams as TikZ or SVG text."""
    if fmt not in _FORMATS:
        raise ValueError(f"unsupported format {fmt!r}, expected one of {_FORMATS}")
    items: Iterable[PlanarDiagram | ScaledDiagram]
    if isinstance(target, (PlanarDiagram, ScaledDiagram)):
        items = [target]
    else:
        items = target
    scaled = [_as_scaled(item) for item in items]
    if not scaled:
        raise ValueError("nothing to draw")

    if fmt == "tikz":
        chunks = ["\n".join(_tikz_one(s)) for s in scaled]
        return "\n\n".join(chunks) + "\n"

    # the widest diagram sets the width, so none is clipped
    width = 40 * (max(s.dimension for s in scaled) + 1)
    height = 120 * len(scaled)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">'
    ]
    for i, s in enumerate(scaled):
        out.extend(_svg_one(s, 120 * i))
    out.append("</svg>")
    return "\n".join(out) + "\n"
