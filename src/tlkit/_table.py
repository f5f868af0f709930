"""The runner of ``tlkit compose``.

``--table`` prints the composition table of TL_N as CSV on the kernel
module alone: the positions and generator maps of a
``_backend.PairingBasis``, no diagram object.  Two diagram arguments
(``--lhs``, ``--rhs``) are composed through ``composition.compose_scaled``,
which loads the diagram modules but builds no basis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from argparse import Namespace


def _run_compose(args: Namespace) -> tuple[bool, str]:
    """``tlkit compose`` on arguments ``tlkit.cli.run`` has checked."""
    if args.table and (args.lhs is not None or args.rhs is not None):
        raise ValueError("compose takes --table or --lhs and --rhs, not both")
    if args.table:
        from ._backend import pairing_basis, table_rows

        n = args.dim
        basis = pairing_basis(n)
        maps, root, size = basis.maps(), basis.root, len(basis.pairings)
        del basis  # the table reads positions only
        # labels[m][r] is "row:loops" for d^m . D_r; stacking N-strand
        # diagrams closes at most N // 2 loops, one per two middle nodes
        labels = [
            [f"{r}:{m}" for r in range(1, size + 1)] for m in range(n // 2 + 1)
        ]
        # Each row ends in its own newline, so the table is joined once.
        lines = [f"lhs/rhs,{','.join(str(j) for j in range(1, size + 1))}\n"]
        for i, (rows, loops) in enumerate(table_rows(maps, root), start=1):
            cells = [labels[m][r] for r, m in zip(rows, loops)]
            lines.append(f"{i},{','.join(cells)}\n")
        return True, "".join(lines)
    if args.lhs is None or args.rhs is None:
        raise ValueError("compose needs --table or both --lhs and --rhs")
    from .composition import compose_scaled
    from .diagrams import _read_diagram_arg, serialize

    lhs = _read_diagram_arg(args.lhs, args.dim)
    rhs = _read_diagram_arg(args.rhs, args.dim)
    return True, serialize(compose_scaled(lhs, rhs)) + "\n"
