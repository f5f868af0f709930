"""Command-line surface.

Subcommands: enumerate, compose, repr, verify, bracket, draw.  Output is
deterministic for a fixed invocation, so every command is golden-file
testable.  Exit codes: 0 success, 1 validation or I/O failure, 2 usage error
(argparse), 3 relation-verification failure, 130 interrupted (Ctrl-C).

The enumeration ceiling defaults to dimension 12 and can be overridden
with the TLKIT_MAX_DIM environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from . import __version__, kernel_backend

if TYPE_CHECKING:
    from mmap import mmap

    from .diagrams import ScaledDiagram
    from .representation import GeneratorMatrix

# Each runner imports what it uses when it runs, so a process loads only
# the modules of its own subcommand.  A function-level import also reads
# the module attribute at call time, where a tracer such as
# perfbench/launcher.py may have wrapped it.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_INTERRUPTED = 130

_CACHE_VERSION = "v1"

# Output, cache files and digests take the text this many characters at a
# time, so no encoded copy of the whole text is made.
_SLICE = 1 << 16

# The characters besides "\n" that ``str.splitlines`` or ``str.strip``
# treat as a line break or a blank.  A cache text free of them is counted
# by its "\n"s.
_LINE_CHARS = "\t\x0b\x0c\x1c\x1d\x1e\x1f"

# Where a size error says the ceiling is raised.
_OVERRIDE = "TLKIT_MAX_DIM"


def _ceiling_from_env() -> int:
    from ._backend import DEFAULT_MAX_DIMENSION

    raw = os.environ.get("TLKIT_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"TLKIT_MAX_DIM must be an integer, got {raw!r}") from exc


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
    """The basis as diagram lines, built by the search walk itself: no
    diagram, basis or partner tuple is made."""
    from ._backend import _checked_dimension, _line_prefix, _pair_texts, _walk_dimension
    from ._backend import pairing_lines

    # A walk too deep to run is refused before the pair texts, which grow
    # with the square of the dimension, are built.
    dimension = _walk_dimension(_checked_dimension(dimension, max_dimension))
    return pairing_lines(dimension, _line_prefix(dimension, 0), _pair_texts(dimension))


def _cached_basis_lines(dimension: int, max_dimension: int, cache_dir: Path) -> str:
    """Basis file cache keyed by dimension and format version; hits are
    validated by the Catalan count and a content hash."""
    import mmap

    from ._backend import catalan

    cache_dir.mkdir(parents=True, exist_ok=True)
    stem = cache_dir / f"basis_{_CACHE_VERSION}_dim{dimension}"
    data_path = stem.with_suffix(".tl")
    hash_path = stem.with_suffix(".sha256")
    if data_path.is_file() and hash_path.is_file():
        try:
            recorded = hash_path.read_text(encoding="utf-8").strip()
        except UnicodeDecodeError:
            # This cache writes only UTF-8: the file is damaged, a miss.
            pass
        else:
            with open(data_path, "rb") as fh:
                try:
                    # The file's pages are read in place, not copied.
                    data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except (ValueError, OSError):
                    data = fh.read()  # an empty file cannot be mapped
            text = _cache_hit(data, recorded, catalan(dimension))
            del data  # unmapped before a miss replaces the file
            if text is not None:
                return text
    text = _basis_lines(dimension, max_dimension)
    _write_replacing(data_path, text)
    _write_replacing(hash_path, _sha256(text) + "\n")
    return text


def _cache_hit(data: bytes | mmap, recorded: str, count: int) -> str | None:
    """The text of a cache file whose bytes are ``data``, if its SHA-256
    is ``recorded`` and it has ``count`` lines that are not blank; else
    None.

    The decision is that of a text read: "\r\n" and "\r" become "\n"
    before the digest, and lines are counted by ``_nonblank_lines``.  The
    bytes are decoded once.
    """
    import hashlib
    import threading

    # hashlib lets go of the GIL, so the bytes are hashed beside the
    # decode and the count.
    digest: list[str] = []
    hasher = threading.Thread(target=lambda: digest.append(hashlib.sha256(data).hexdigest()))
    hasher.start()
    try:
        text = str(data, "utf-8")
    except UnicodeDecodeError:
        # This cache writes only UTF-8: the file is damaged, a miss.
        text = None
    else:
        crlf = "\r" in text
        if crlf:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = _nonblank_lines(text)
    hasher.join()
    if text is None or lines != count:
        return None
    # The bytes are the text's UTF-8 unless a "\r" was replaced.
    if (_sha256(text) if crlf else digest[0]) != recorded:
        return None
    return text


def _nonblank_lines(text: str) -> int:
    """The lines of ``text``, as ``str.splitlines`` breaks them, that
    ``str.strip`` does not empty.

    An ASCII text that ends in "\n" and holds none of ``_LINE_CHARS``, no
    empty line and no line that starts with a space has one such line per
    "\n".  That is the only kind of text the cache writes, and it is
    counted with one pass per check instead of a string per line.
    """
    import re

    plain = (
        text.isascii()
        and text.endswith("\n")
        and not text.startswith(("\n", " "))
        and not any(char in text for char in _LINE_CHARS)
        # one pass for an empty line or one that starts with a space
        and re.search("\n[\n ]", text) is None
    )
    if plain:
        return text.count("\n")
    return sum(1 for line in text.splitlines() if line.strip())


def _slices(text: str) -> Iterator[str]:
    """``text`` in pieces of at most ``_SLICE`` characters."""
    return (text[i : i + _SLICE] for i in range(0, len(text), _SLICE))


def _sha256(text: str) -> str:
    """The hex SHA-256 of ``text`` in UTF-8, encoded a slice at a time."""
    import hashlib

    digest = hashlib.sha256()
    for piece in _slices(text):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def _write_replacing(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, through the link if ``path`` is a
    symlink.

    A regular file or a missing path is written through a temporary file
    in the same directory, renamed over it, so a killed run leaves the
    old file or none, never a partial one; the file gets the permissions
    a plain write would create it with.  Any other existing file (a FIFO,
    a device) is written in place, since a rename would replace it
    instead of feeding it.
    """
    import stat

    path = Path(os.path.realpath(path))
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8") as fh:
            for piece in _slices(text):
                fh.write(piece)
        return
    attempt = 0
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{attempt}.tmp")
        try:
            # Mode 0o666 under the process umask, as a plain write.
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            attempt += 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for piece in _slices(text):
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _run_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    # Every route runs on the kernel module alone: no diagram is made.
    from ._backend import _checked_dimension, _walk_dimension, count_pairings

    # Both limits are checked before a cache directory is made.
    dimension = _walk_dimension(_checked_dimension(args.dim, args.max_dim, override=_OVERRIDE))
    if args.count_only:
        return EXIT_OK, f"{count_pairings(dimension)}\n"
    if args.cache is not None:
        return EXIT_OK, _cached_basis_lines(dimension, args.max_dim, args.cache)
    return EXIT_OK, _basis_lines(dimension, args.max_dim)


def _run_compose(args: argparse.Namespace) -> tuple[int, str]:
    from ._backend import _checked_dimension

    _checked_dimension(args.dim, args.max_dim, override=_OVERRIDE)
    if args.table:
        # The table runs on the kernel module alone: positions and partner
        # tuples, no diagram or basis object.
        from ._backend import enumerate_pairings, generator_map, identity_pairing, table_rows

        n = args.dim
        pairings = enumerate_pairings(n)
        index = {p: i for i, p in enumerate(pairings)}
        maps = [generator_map(pairings, index, k, n) for k in range(1, n)]
        size = len(pairings)
        # labels[m][r] is "row:loops" for d^m . D_r; stacking N-strand
        # diagrams closes at most N // 2 loops, one per two middle nodes
        labels = [
            [f"{r}:{m}" for r in range(1, size + 1)] for m in range(n // 2 + 1)
        ]
        # Each row ends in its own newline, so the table is joined once.
        lines = [f"lhs/rhs,{','.join(str(j) for j in range(1, size + 1))}\n"]
        for i, (rows, loops) in enumerate(table_rows(maps, index[identity_pairing(n)]), start=1):
            cells = [labels[m][r] for r, m in zip(rows, loops)]
            lines.append(f"{i},{','.join(cells)}\n")
        return EXIT_OK, "".join(lines)
    if args.lhs is None or args.rhs is None:
        raise ValueError("compose needs --table or both --lhs and --rhs")
    from .composition import compose_scaled
    from .diagrams import serialize

    lhs = _read_diagram_arg(args.lhs, args.dim)
    rhs = _read_diagram_arg(args.rhs, args.dim)
    return EXIT_OK, serialize(compose_scaled(lhs, rhs)) + "\n"


def _sparse_csv(size: int, blocks: Iterable[tuple[str, Iterable[Mapping[int, str]]]]) -> str:
    """Square CSV blocks of ``size`` columns, each after its header line:
    a row has the text ``row[i]`` in column i, listed in ascending i, and
    0 in every other cell.  The text is one join of the headers, the
    listed texts, separators and shared zero runs, so no cell list and no
    row string is made."""
    runs: dict[int, str] = {}  # "0," * k, made once per run length k
    ends: dict[int, str] = {}  # the k zeros that end a row
    last = size - 1
    out: list[str] = []
    for header, rows in blocks:
        out.append(header + "\n")
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


def _run_repr(args: argparse.Namespace) -> tuple[int, str]:
    from ._backend import _checked_dimension
    from .enumeration import enumerate_diagrams
    from .laurent import LaurentPoly
    from .representation import generator_matrices, generator_matrix

    _checked_dimension(args.dim, args.max_dim, least=2, override=_OVERRIDE)
    basis = enumerate_diagrams(args.dim, max_dimension=args.max_dim)
    if args.gen == "all":
        selected = generator_matrices(basis, args.include_identity)
    else:
        try:
            k = int(args.gen)
        except ValueError:
            raise ValueError(
                f"generator index must be an integer or 'all', got {args.gen!r}"
            ) from None
        selected = [generator_matrix(k, basis, args.include_identity)]
    d = LaurentPoly.monomial("d", 1) if args.eval_d is None else args.eval_d

    def block(gm: GeneratorMatrix) -> tuple[str, list[dict[int, str]]]:
        header = (
            f"# generator U_{gm.generator_index}, dimension {args.dim}, "
            f"basis size {gm.size}, identity "
            f"{'included' if gm.include_identity else 'excluded'}"
        )
        # column i holds d^m, or eval_d^m, in row targets[i]
        texts = {m: str(d**m) for m in set(gm.exponents)}
        rows: list[dict[int, str]] = [{} for _ in range(gm.size)]
        for i, (j, m) in enumerate(zip(gm.targets, gm.exponents)):
            rows[j][i] = texts[m]
        return header, rows

    return EXIT_OK, _sparse_csv(selected[0].size, map(block, selected))


def _run_verify(args: argparse.Namespace) -> tuple[int, str]:
    from ._backend import _checked_dimension

    _checked_dimension(args.dim, args.max_dim, least=2, override=_OVERRIDE)
    ok, lines = True, []
    if args.relations in ("tl", "all"):
        # The TL relations run on partner tuples and positions alone.
        from ._relations import verify_tl

        ok, lines = verify_tl(args.dim)
    if args.relations in ("artin", "all"):
        from .braids import _verify_artin
        from .enumeration import enumerate_diagrams

        report = _verify_artin(enumerate_diagrams(args.dim, max_dimension=args.max_dim))
        ok = report.passed and ok
        lines += [*report.lines(), ""]
    return (EXIT_OK if ok else EXIT_VERIFICATION), "\n".join(lines)


def _run_bracket(args: argparse.Namespace) -> tuple[int, str]:
    from ._backend import _checked_dimension, _walk_dimension, diagram_line
    from .braids import BraidWord, _image_rows, _image_terms

    _checked_dimension(args.strands, args.max_dim, "strand count", override=_OVERRIDE)

    word = BraidWord.from_text(args.strands, args.word)
    if args.matrix:
        from .enumeration import enumerate_diagrams

        # The matrix is over the basis, which the walk lists.
        _walk_dimension(args.strands, "strand count")
        basis = enumerate_diagrams(args.strands, max_dimension=args.max_dim)
        header = (
            f"# bracket image of {word.to_text() or '(empty word)'} on "
            f"{args.strands} strands, {len(basis)}x{len(basis)}, entries in A"
        )
        return EXIT_OK, _sparse_csv(len(basis), [(header, _image_rows(word, basis))])
    # The element form runs on partner tuples: no diagram module is loaded.
    lines = [
        f"# bracket image of {word.to_text() or '(empty word)'} on "
        f"{args.strands} strands, d = -A^2-A^-2"
    ]
    for pairing, coeff in _image_terms(word):
        lines.append(f"{coeff}\t{diagram_line(args.strands, pairing, 0)}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_draw(args: argparse.Namespace) -> tuple[int, str]:
    from ._backend import _checked_dimension
    from .drawing import emit_figure
    from .enumeration import enumerate_diagrams

    _checked_dimension(args.dim, args.max_dim, override=_OVERRIDE)

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
    try:
        return _main(build_parser().parse_args(argv))
    except KeyboardInterrupt:
        # Ctrl-C: the shell's exit status for SIGINT, and no traceback.
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _main(args: argparse.Namespace) -> int:
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
        try:
            for piece in _slices(text):
                sys.stdout.write(piece)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone (``| head``).  What is still buffered goes
            # to the null device, so the flush at exit cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
