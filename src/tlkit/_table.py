"""The runner of ``tlkit compose``.

Every route runs on the kernel module alone, on partner rows and
positions, with no diagram object.  ``--table`` prints the composition
table of TL_N as CSV from the generator maps of the walk's ``bytes``
rows (``_backend.generator_maps``) and the identity's position in them,
found as the ``bytes`` of its tuple.  Two diagram arguments (``--lhs``,
``--rhs``) are read by ``_backend.read_diagram_arg`` as tuples,
composed by ``_backend.compose_pairings`` and printed by
``_backend.diagram_line``, with no basis built, so they run at any
dimension the ceiling allows.
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
        from ._backend import enumerate_pairings, generator_maps, identity_pairing, table_rows

        n = args.dim
        pairings, maps = generator_maps(enumerate_pairings(n), range(1, n))
        root, size = pairings.index(bytes(identity_pairing(n))), len(pairings)
        del pairings  # the table reads positions only
        # labels[m * size + r] is "row:loops" for d^m . D_r, the cell that
        # table_rows codes as that index
        labels = [f"{r}:{m}" for m in range(n // 2 + 1) for r in range(1, size + 1)]
        # Each row ends in its own newline, so the table is joined once.
        lines = [f"lhs/rhs,{','.join(str(j) for j in range(1, size + 1))}\n"]
        for i, codes in enumerate(table_rows(maps, root), start=1):
            lines.append(f"{i},{','.join(map(labels.__getitem__, codes))}\n")
        return True, "".join(lines)
    if args.lhs is None or args.rhs is None:
        raise ValueError("compose needs --table or both --lhs and --rhs")
    from ._backend import compose_pairings, diagram_line, read_diagram_arg

    lhs, lhs_loops = read_diagram_arg(args.lhs, args.dim)
    rhs, rhs_loops = read_diagram_arg(args.rhs, args.dim)
    pairing, loops = compose_pairings(lhs, rhs)
    return True, diagram_line(pairing, lhs_loops + rhs_loops + loops) + "\n"
