"""Sparse square matrices as CSV text, the form in which ``tlkit repr``
and ``tlkit bracket --matrix`` print them, and the runner of ``repr``:
the generator maps that ``_relations.ordered_maps`` builds on the
walk's ``bytes`` rows, put in the representation order first, with no
diagram made.  Both commands pass their matrices as sparse columns;
``sparse_csv`` is the one place where they become rows.  Only those
two routes compile this module; ``_relations``, which every ``verify``
job compiles, does not hold the runner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from argparse import Namespace


def sparse_csv(size: int, blocks: Iterable[tuple[str, Iterable[Mapping[int, str]]]]) -> str:
    """Square CSV blocks of ``size`` rows and columns, each after its
    header line, from sparse columns: ``columns[i][j]`` is the text in row
    j of column i, in any order of j, and every unlisted cell is 0.  The
    columns are read once, in order, into rows, so each row lists its
    cells in ascending column order.  The text is one join of the headers,
    the listed texts, separators and shared zero runs, so no cell list and
    no row string is made."""
    runs: dict[int, str] = {}  # "0," * k, made once per run length k
    ends: dict[int, str] = {}  # the k zeros that end a row
    last = size - 1
    out: list[str] = []
    for header, columns in blocks:
        out.append(header + "\n")
        rows: list[dict[int, str]] = [{} for _ in range(size)]
        for i, column in enumerate(columns):
            for j, text in column.items():
                rows[j][i] = text
        for row in rows:
            at = 0
            for i, text in row.items():
                if i > at:
                    k = i - at
                    out.append(runs.get(k) or runs.setdefault(k, "0," * k))
                out.append(text)
                out.append("," if i < last else "\n")
                at = i + 1
            if at < size:
                k = size - at
                out.append(ends.get(k) or ends.setdefault(k, "0," * (k - 1) + "0\n"))
    return "".join(out)


def _run_repr(args: Namespace) -> tuple[bool, str]:
    """``tlkit repr`` on arguments ``tlkit.cli.run`` has checked: the
    selected generator maps, in the representation order, as CSV blocks;
    the text of ``generator_matrices`` or ``generator_matrix`` over
    ``enumerate_diagrams(N)``."""
    from ._backend import _is_integer_text
    from ._relations import checked_generator, ordered_maps
    from .laurent import LaurentPoly

    n = args.dim
    # An index is read by a braid letter's rule: ASCII digits and spaces.
    if not (args.gen == "all" or _is_integer_text(args.gen)):
        raise ValueError(f"generator index must be an integer or 'all', got {args.gen!r}")
    indices = range(1, n) if args.gen == "all" else (checked_generator(n, int(args.gen)),)
    size, maps = ordered_maps(n, indices, args.include_identity)
    d = LaurentPoly.monomial("d", 1) if args.eval_d is None else args.eval_d
    identity = "included" if args.include_identity else "excluded"

    def block(k: int, targets: tuple[int, ...], exponents: tuple[int, ...]):
        header = f"# generator U_{k}, dimension {n}, basis size {size}, identity {identity}"
        # column i holds d^m, or eval_d^m, in row targets[i]
        texts = {m: str(d**m) for m in set(exponents)}
        return header, ({j: texts[m]} for j, m in zip(targets, exponents))

    return True, sparse_csv(size, (block(k, *m) for k, m in zip(indices, maps)))
