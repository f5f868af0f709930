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
import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__, kernel_backend
from .braids import BraidWord, braid_image, braid_image_matrix, verify_artin
from .composition import compose, compose_scaled
from .diagrams import ScaledDiagram, parse, serialize
from .drawing import emit_figure
from .enumeration import (
    DEFAULT_MAX_DIMENSION,
    catalan,
    count_diagrams,
    enumerate_diagrams,
)
from .laurent import LaurentPoly
from .representation import (
    GeneratorMatrix,
    generator_matrices,
    generator_matrix,
    verify_tl_relations,
    verify_tl_relations_diagrams,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

_CACHE_VERSION = "v1"


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated invocation of one subcommand."""

    subcommand: str
    dimension: int = 0
    max_dimension: int = DEFAULT_MAX_DIMENSION
    count_only: bool = False
    output: Path | None = None
    cache_dir: Path | None = None
    table: bool = False
    lhs: str | None = None
    rhs: str | None = None
    include_identity: bool = False
    eval_d: int | None = None
    generator: str = "all"
    relations: str = "tl"
    strands: int = 0
    word: str = ""
    matrix: bool = False
    fmt: str = "text"
    draw_basis: bool = False
    diagram: str | None = None


def _ceiling_from_env() -> int:
    raw = os.environ.get("TLKIT_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"TLKIT_MAX_DIM must be an integer, got {raw!r}") from exc


def _check_dimension(config: RunConfig) -> None:
    if config.dimension < 1:
        raise ValueError("dimension must be at least 1")
    if config.dimension > config.max_dimension:
        raise ValueError(
            f"dimension {config.dimension} exceeds the ceiling "
            f"{config.max_dimension} (override with TLKIT_MAX_DIM)"
        )


def _read_diagram_arg(value: str, dimension: int) -> ScaledDiagram:
    """FILE_OR_INLINE: a path to a one-line diagram file, or the line itself."""
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
    basis = enumerate_diagrams(dimension, max_dimension=max_dimension)
    return "".join(serialize(ScaledDiagram(d, 0)) + "\n" for d in basis)


def _cached_basis_lines(dimension: int, max_dimension: int, cache_dir: Path) -> str:
    """Basis file cache keyed by dimension and format version; hits are
    validated by the Catalan count and a content hash."""
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
    partial one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _run_enumerate(config: RunConfig) -> tuple[int, str]:
    _check_dimension(config)
    if config.count_only:
        return EXIT_OK, f"{count_diagrams(config.dimension, max_dimension=config.max_dimension)}\n"
    if config.cache_dir is not None:
        return EXIT_OK, _cached_basis_lines(
            config.dimension, config.max_dimension, config.cache_dir
        )
    return EXIT_OK, _basis_lines(config.dimension, config.max_dimension)


def _run_compose(config: RunConfig) -> tuple[int, str]:
    _check_dimension(config)
    if config.table:
        basis = enumerate_diagrams(config.dimension, max_dimension=config.max_dimension)
        index = {d: i + 1 for i, d in enumerate(basis)}
        size = len(basis)
        header = "lhs/rhs," + ",".join(str(j) for j in range(1, size + 1))
        rows = [header]
        for i, lhs in enumerate(basis, start=1):
            cells = []
            for rhs in basis:
                product = compose(lhs, rhs)
                cells.append(f"{index[product.diagram]}:{product.loop_exponent}")
            rows.append(f"{i}," + ",".join(cells))
        return EXIT_OK, "\n".join(rows) + "\n"
    if config.lhs is None or config.rhs is None:
        raise ValueError("compose needs --table or both --lhs and --rhs")
    lhs = _read_diagram_arg(config.lhs, config.dimension)
    rhs = _read_diagram_arg(config.rhs, config.dimension)
    return EXIT_OK, serialize(compose_scaled(lhs, rhs)) + "\n"


def _generator_csv(gm: GeneratorMatrix, eval_d: int | None) -> list[str]:
    """CSV rows of a generator map: d^m (or eval_d^m) in row targets[i] of
    column i, 0 elsewhere."""
    texts: dict[int, str] = {}
    rows = [["0"] * gm.size for _ in range(gm.size)]
    for i, (j, m) in enumerate(zip(gm.targets, gm.exponents)):
        if m not in texts:
            texts[m] = str(
                LaurentPoly.monomial("d", m) if eval_d is None else eval_d**m
            )
        rows[j][i] = texts[m]
    return [",".join(row) for row in rows]


def _run_repr(config: RunConfig) -> tuple[int, str]:
    _check_dimension(config)
    if config.dimension < 2:
        raise ValueError("representations need dimension >= 2")
    basis = enumerate_diagrams(config.dimension, max_dimension=config.max_dimension)
    if config.generator == "all":
        selected = generator_matrices(basis, config.include_identity)
    else:
        k = int(config.generator)
        selected = [generator_matrix(k, basis, config.include_identity)]
    lines: list[str] = []
    for gm in selected:
        lines.append(
            f"# generator U_{gm.generator_index}, dimension {config.dimension}, "
            f"basis size {gm.size}, identity "
            f"{'included' if gm.include_identity else 'excluded'}"
        )
        lines.extend(_generator_csv(gm, config.eval_d))
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_verify(config: RunConfig) -> tuple[int, str]:
    _check_dimension(config)
    if config.dimension < 2:
        raise ValueError("relation verification needs dimension >= 2")
    basis = enumerate_diagrams(config.dimension, max_dimension=config.max_dimension)
    reports = []
    if config.relations in ("tl", "all"):
        reports.append(verify_tl_relations(generator_matrices(basis)))
        reports.append(verify_tl_relations_diagrams(config.dimension))
    if config.relations in ("artin", "all"):
        reports.append(verify_artin(config.dimension))
    lines: list[str] = []
    for report in reports:
        lines.extend(report.lines())
        lines.append("")
    ok = all(report.passed for report in reports)
    return (EXIT_OK if ok else EXIT_VERIFICATION), "\n".join(lines)


def _run_bracket(config: RunConfig) -> tuple[int, str]:
    if config.strands < 1:
        raise ValueError("strand count must be at least 1")
    if config.strands > config.max_dimension:
        raise ValueError(
            f"strand count {config.strands} exceeds the ceiling {config.max_dimension}"
        )
    word = BraidWord.from_text(config.strands, config.word)
    if config.matrix:
        matrix = braid_image_matrix(word)
        header = (
            f"# bracket image of {word.to_text() or '(empty word)'} on "
            f"{config.strands} strands, {matrix.size}x{matrix.size}, entries in A"
        )
        rows = [",".join(str(entry) for entry in row) for row in matrix.rows]
        return EXIT_OK, "\n".join([header] + rows) + "\n"
    element = braid_image(word)
    lines = [
        f"# bracket image of {word.to_text() or '(empty word)'} on "
        f"{config.strands} strands, d = -A^2-A^-2"
    ]
    for diagram, coeff in element.terms:
        lines.append(f"{coeff}\t{serialize(ScaledDiagram(diagram, 0))}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_draw(config: RunConfig) -> tuple[int, str]:
    _check_dimension(config)
    if config.draw_basis:
        basis = enumerate_diagrams(config.dimension, max_dimension=config.max_dimension)
        return EXIT_OK, emit_figure(tuple(basis), config.fmt)
    if config.diagram is None:
        raise ValueError("draw needs --basis or --diagram")
    scaled = _read_diagram_arg(config.diagram, config.dimension)
    return EXIT_OK, emit_figure(scaled, config.fmt)


_RUNNERS = {
    "enumerate": _run_enumerate,
    "compose": _run_compose,
    "repr": _run_repr,
    "verify": _run_verify,
    "bracket": _run_bracket,
    "draw": _run_draw,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a validated config; returns (exit code, output text)."""
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    return runner(config)


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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        dimension=getattr(args, "dim", 0),
        max_dimension=_ceiling_from_env(),
        count_only=getattr(args, "count_only", False),
        output=getattr(args, "output", None),
        cache_dir=getattr(args, "cache", None),
        table=getattr(args, "table", False),
        lhs=getattr(args, "lhs", None),
        rhs=getattr(args, "rhs", None),
        include_identity=getattr(args, "include_identity", False),
        eval_d=getattr(args, "eval_d", None),
        generator=getattr(args, "gen", "all"),
        relations=getattr(args, "relations", "tl"),
        strands=getattr(args, "strands", 0),
        word=getattr(args, "word", ""),
        matrix=getattr(args, "matrix", False),
        fmt=getattr(args, "fmt", "text"),
        draw_basis=getattr(args, "basis", False),
        diagram=getattr(args, "diagram", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if config.output is not None and not config.output.parent.is_dir():
            raise ValueError(f"output directory {config.output.parent} does not exist")
        code, text = run(config)
        if config.output is not None:
            config.output.write_text(text, encoding="utf-8")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if config.output is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
