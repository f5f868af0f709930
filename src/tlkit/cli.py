"""Command-line surface.

Subcommands: enumerate, compose, repr, verify, bracket, draw.  Output is
deterministic for a fixed invocation, so every command is golden-file
testable.  Exit codes: 0 success, 1 validation or I/O failure, 2 usage error
(argparse), 3 relation-verification failure.

The enumeration ceiling defaults to dimension 12 and can be overridden
with the TLKIT_MAX_DIM environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__, kernel_backend
from .enumeration import DEFAULT_MAX_DIMENSION

if TYPE_CHECKING:
    from .diagrams import ScaledDiagram

# Each runner imports what it uses when it runs, so a process loads only
# the modules of its own subcommand.  A function-level import also reads
# the module attribute at call time, where a tracer such as
# perfbench/launcher.py may have wrapped it.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

_CACHE_VERSION = "v1"


def _ceiling_from_env() -> int:
    raw = os.environ.get("TLKIT_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"TLKIT_MAX_DIM must be an integer, got {raw!r}") from exc


def _check_dimension(args: argparse.Namespace) -> None:
    if args.dim < 1:
        raise ValueError("dimension must be at least 1")
    if args.dim > args.max_dim:
        raise ValueError(
            f"dimension {args.dim} exceeds the ceiling "
            f"{args.max_dim} (override with TLKIT_MAX_DIM)"
        )


def _read_diagram_arg(value: str, dimension: int) -> ScaledDiagram:
    """FILE_OR_INLINE: a path to a one-line diagram file, or the line itself."""
    from .diagrams import parse

    text = value
    candidate = Path(value)
    try:
        is_file = candidate.is_file()
    except OSError:
        # Text the file system refuses as a name (too long, say) is no
        # file name; parse it inline.
        is_file = False
    if is_file:
        text = candidate.read_text(encoding="utf-8").strip()
    scaled = parse(text)
    if scaled.dimension != dimension:
        raise ValueError(
            f"diagram has dimension {scaled.dimension}, expected {dimension}"
        )
    return scaled


def _basis_lines(dimension: int, max_dimension: int) -> str:
    from .diagrams import serialize_pairings
    from .enumeration import enumerate_diagrams

    basis = enumerate_diagrams(dimension, max_dimension=max_dimension)
    return serialize_pairings(dimension, [d.pairing for d in basis])


def _cached_basis_lines(dimension: int, max_dimension: int, cache_dir: Path) -> str:
    """Basis file cache keyed by dimension and format version; hits are
    validated by the Catalan count and a content hash."""
    import hashlib

    from .enumeration import catalan

    cache_dir.mkdir(parents=True, exist_ok=True)
    stem = cache_dir / f"basis_{_CACHE_VERSION}_dim{dimension}"
    data_path = stem.with_suffix(".tl")
    hash_path = stem.with_suffix(".sha256")
    if data_path.is_file() and hash_path.is_file():
        text = data_path.read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        count = sum(1 for line in text.splitlines() if line.strip())
        if digest == hash_path.read_text(encoding="utf-8").strip() and count == catalan(
            dimension
        ):
            return text
    text = _basis_lines(dimension, max_dimension)
    _write_replacing(data_path, text)
    _write_replacing(hash_path, hashlib.sha256(text.encode("utf-8")).hexdigest() + "\n")
    return text


def _write_replacing(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory and rename it
    over ``path``, so a killed run leaves the old file or none, never a
    partial one.  The file gets the permissions a plain write would create
    it with, not the owner-only ones of a temporary file."""
    import tempfile

    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _run_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    _check_dimension(args)
    if args.count_only:
        from .enumeration import count_diagrams

        return EXIT_OK, f"{count_diagrams(args.dim, max_dimension=args.max_dim)}\n"
    if args.cache is not None:
        return EXIT_OK, _cached_basis_lines(args.dim, args.max_dim, args.cache)
    return EXIT_OK, _basis_lines(args.dim, args.max_dim)


def _run_compose(args: argparse.Namespace) -> tuple[int, str]:
    _check_dimension(args)
    if args.table:
        from . import _backend
        from .diagrams import PlanarDiagram
        from .enumeration import enumerate_diagrams

        n = args.dim
        basis = enumerate_diagrams(n, max_dimension=args.max_dim)
        pairings = [d.pairing for d in basis]
        compose_pairings = _backend.compose_pairings
        # one "row:loops" label per distinct (product pairing, loops) result
        labels: dict[tuple[tuple[int, ...], int], str] = {}
        rows = ["lhs/rhs," + ",".join(str(j) for j in range(1, len(pairings) + 1))]
        for i, lhs in enumerate(pairings, start=1):
            cells = []
            for rhs in pairings:
                product = compose_pairings(lhs, rhs, n)
                label = labels.get(product)
                if label is None:
                    pairing, loops = product
                    row = basis.index_of(PlanarDiagram._trusted(n, pairing)) + 1
                    label = labels[product] = f"{row}:{loops}"
                cells.append(label)
            rows.append(f"{i}," + ",".join(cells))
        return EXIT_OK, "\n".join(rows) + "\n"
    if args.lhs is None or args.rhs is None:
        raise ValueError("compose needs --table or both --lhs and --rhs")
    from .composition import compose_scaled
    from .diagrams import serialize

    lhs = _read_diagram_arg(args.lhs, args.dim)
    rhs = _read_diagram_arg(args.rhs, args.dim)
    return EXIT_OK, serialize(compose_scaled(lhs, rhs)) + "\n"


def _csv_rows(columns: Sequence[Mapping[int, str]]) -> list[str]:
    """Rows of a square CSV with the text ``columns[i][j]`` in row j of
    column i and 0 in every unlisted cell."""
    rows = [["0"] * len(columns) for _ in columns]
    for i, column in enumerate(columns):
        for j, text in column.items():
            rows[j][i] = text
    return [",".join(row) for row in rows]


def _run_repr(args: argparse.Namespace) -> tuple[int, str]:
    _check_dimension(args)
    if args.dim < 2:
        raise ValueError("representations need dimension >= 2")
    from .enumeration import enumerate_diagrams
    from .laurent import LaurentPoly
    from .representation import generator_matrices, generator_matrix

    basis = enumerate_diagrams(args.dim, max_dimension=args.max_dim)
    if args.gen == "all":
        selected = generator_matrices(basis, args.include_identity)
    else:
        k = int(args.gen)
        selected = [generator_matrix(k, basis, args.include_identity)]
    d = LaurentPoly.monomial("d", 1) if args.eval_d is None else args.eval_d
    lines: list[str] = []
    for gm in selected:
        lines.append(
            f"# generator U_{gm.generator_index}, dimension {args.dim}, "
            f"basis size {gm.size}, identity "
            f"{'included' if gm.include_identity else 'excluded'}"
        )
        # column i holds d^m, or eval_d^m, in row targets[i]
        texts = {m: str(d**m) for m in set(gm.exponents)}
        columns = [{j: texts[m]} for j, m in zip(gm.targets, gm.exponents)]
        lines.extend(_csv_rows(columns))
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_verify(args: argparse.Namespace) -> tuple[int, str]:
    _check_dimension(args)
    if args.dim < 2:
        raise ValueError("relation verification needs dimension >= 2")
    from .enumeration import enumerate_diagrams
    from .representation import (
        generator_matrices,
        verify_tl_relations,
        verify_tl_relations_diagrams,
    )

    basis = enumerate_diagrams(args.dim, max_dimension=args.max_dim)
    reports = []
    if args.relations in ("tl", "all"):
        reports.append(verify_tl_relations(generator_matrices(basis)))
        reports.append(verify_tl_relations_diagrams(args.dim))
    if args.relations in ("artin", "all"):
        from .braids import verify_artin

        reports.append(verify_artin(args.dim))
    lines: list[str] = []
    for report in reports:
        lines.extend(report.lines())
        lines.append("")
    ok = all(report.passed for report in reports)
    return (EXIT_OK if ok else EXIT_VERIFICATION), "\n".join(lines)


def _run_bracket(args: argparse.Namespace) -> tuple[int, str]:
    if args.strands < 1:
        raise ValueError("strand count must be at least 1")
    if args.strands > args.max_dim:
        raise ValueError(
            f"strand count {args.strands} exceeds the ceiling {args.max_dim}"
        )
    from .braids import BraidWord, _image_columns, braid_image
    from .diagrams import ScaledDiagram, serialize

    word = BraidWord.from_text(args.strands, args.word)
    if args.matrix:
        columns = [
            {row: str(p) for row, p in column.items()}
            for column in _image_columns(word)
        ]
        header = (
            f"# bracket image of {word.to_text() or '(empty word)'} on "
            f"{args.strands} strands, {len(columns)}x{len(columns)}, entries in A"
        )
        return EXIT_OK, "\n".join([header] + _csv_rows(columns)) + "\n"
    element = braid_image(word)
    lines = [
        f"# bracket image of {word.to_text() or '(empty word)'} on "
        f"{args.strands} strands, d = -A^2-A^-2"
    ]
    for diagram, coeff in element.terms:
        lines.append(f"{coeff}\t{serialize(ScaledDiagram(diagram, 0))}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_draw(args: argparse.Namespace) -> tuple[int, str]:
    _check_dimension(args)
    from .drawing import emit_figure
    from .enumeration import enumerate_diagrams

    if args.basis:
        basis = enumerate_diagrams(args.dim, max_dimension=args.max_dim)
        return EXIT_OK, emit_figure(tuple(basis), args.fmt)
    if args.diagram is None:
        raise ValueError("draw needs --basis or --diagram")
    scaled = _read_diagram_arg(args.diagram, args.dim)
    return EXIT_OK, emit_figure(scaled, args.fmt)


_RUNNERS = {
    "enumerate": _run_enumerate,
    "compose": _run_compose,
    "repr": _run_repr,
    "verify": _run_verify,
    "bracket": _run_bracket,
    "draw": _run_draw,
}


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Dispatch parsed arguments, with ``max_dim`` set to the dimension
    ceiling; returns (exit code, output text)."""
    runner = _RUNNERS.get(args.subcommand)
    if runner is None:
        raise ValueError(f"unknown subcommand {args.subcommand!r}")
    return runner(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlkit",
        description="Temperley-Lieb planar diagrams: enumeration, composition, "
        "representations and braid-word bracket images.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"tlkit {__version__} ({kernel_backend()} kernels)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="list the diagram basis for a dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--output", type=Path)
    p.add_argument("--cache", type=Path, help="cache directory for basis files")

    p = sub.add_parser("compose", help="compose two diagrams or print the full table")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--lhs", help="diagram line or file; ends up at the bottom")
    p.add_argument("--rhs", help="diagram line or file; stacked on top")
    p.add_argument("--table", action="store_true", help="full composition table as CSV")
    p.add_argument("--output", type=Path)

    p = sub.add_parser("repr", help="generator matrices over the diagram basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gen", default="all", help="generator index or 'all'")
    p.add_argument("--include-identity", action="store_true")
    p.add_argument("--eval-d", type=int, help="evaluate entries at an integer d")
    p.add_argument("--output", type=Path)

    p = sub.add_parser("verify", help="check the defining relations")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--relations", choices=["tl", "artin", "all"], default="tl")
    p.add_argument("--output", type=Path)

    p = sub.add_parser("bracket", help="bracket image of a braid word")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", default="", help="comma-separated signed indices")
    p.add_argument("--matrix", action="store_true")
    p.add_argument("--output", type=Path)

    p = sub.add_parser("draw", help="TikZ or SVG figures")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--basis", action="store_true", help="draw the whole basis")
    p.add_argument("--diagram", help="diagram line or file")
    p.add_argument("--format", dest="fmt", choices=["tikz", "svg"], default="tikz")
    p.add_argument("--output", type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.max_dim = _ceiling_from_env()
        if args.output is not None and not args.output.parent.is_dir():
            raise ValueError(f"output directory {args.output.parent} does not exist")
        code, text = run(args)
        if args.output is not None:
            _write_replacing(args.output, text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.output is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
