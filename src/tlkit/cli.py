"""Command-line surface.

Subcommands: enumerate, compose, repr, verify, bracket, draw.  Output is
deterministic for a fixed invocation, so every command is golden-file
testable.  Exit codes: 0 success, 1 validation or I/O failure, 2 usage error
(argparse), 3 relation-verification failure, 130 interrupted (Ctrl-C).

The enumeration ceiling defaults to dimension 12 and can be overridden
with the TLKIT_MAX_DIM environment variable, which ``run`` alone reads,
when it checks the size option; no later path checks the ceiling again.

One table, ``_COMMANDS``, lists every subcommand and its options, each
a row (flag, kind, default, help).  The attribute that holds an
option's value is named from its flag by argparse's rule (``_dest``),
and the size option, listed first, is the one required option.
``_parse`` reads an argv written in the exact forms from it without
importing argparse; anything else (help, ``--version``, an abbreviated
option, a bad or missing value) goes to the argparse parser that
``build_parser`` makes from the same table, which prints the help and
the usage errors.  Each subcommand but ``enumerate`` is run by a
function in the module whose code it drives, imported when it is
dispatched, so a job compiles no other subcommand's runner.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Sequence

from . import __version__, kernel_backend

if TYPE_CHECKING:
    import argparse
    from pathlib import Path

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

#: Dimension -> the hex SHA-256 of ``_basis_lines(dimension)``, the only
#: file ``--cache`` serves, for every dimension up to the default ceiling.
#: ``--cache`` caches these dimensions only.  A test recomputes each digest
#: from the walk.
_BASIS_SHA256 = {
    1: "57d9d6624817907f09f6a943c46dd85c49e761eb9573e37d501b45e74a43f736",
    2: "adfc268c20d9c3a93b77081452acb97fdd4838f0a606191122146a37e91c5021",
    3: "1c915614a3032417a2b90820a1f4a707b2c655b77722310428f7f8d65e61e957",
    4: "1d390e918d787897610afbaa2cbd952512129125d9f567f07d2b4f754f29d97a",
    5: "634257a7eb0e7589bb8b474e9233337eb89dda26676f53d9f2f3dc15b0459096",
    6: "de99d63ae404327d7c3a0be252d45cc2a73e52859bacad817092362ca6900344",
    7: "fc53341112408fc601e4d5c8fc1fc70fb354cbdca9efbe8e1aa8ee74e13ba797",
    8: "6129b94fb499ab2e64c3f999884aeeb4a87cfc18a484bd65d15f1640b2f26750",
    9: "b924b684a262dde814b0d4f118e38903bb38bda70d86aeb002410863334834cc",
    10: "5bcb8e8cae11f2fa4de3be6204c814758f341f25d761cd11190af809d5e7be67",
    11: "661f052f95e2b5e5b7e7163aba1c962dafe151da2e5be7251a284360efd630d2",
    12: "4be1d377c560413910742a7691d60b2a420a2161e320e7e35df96cd50a9ccab8",
}

#: Dimension -> the hex 32-byte BLAKE2b of the same text: the digest a hit
#: takes of the file, with the interpreter's own ``_blake2``, since
#: ``hashlib`` maps OpenSSL's libcrypto for a SHA-256.  A test recomputes
#: each from the walk.
_BASIS_BLAKE2B = {
    1: "f335b4f506c097da9eb092ba105816ef9a2f8ceb79bda5cb78f09a7ba1a308f8",
    2: "3826ea95406f310297adb3e39fecee664ca25584fa44bdffeae1a4ebc85ca5ae",
    3: "bcb8c862c35e969cdb987257ffcc78dc7b0e17d61b8a1628c6791c0b57d787e2",
    4: "f5527ba628e1a36362f4db30d641d0d982e77ba76231018a62c55101fc1f2502",
    5: "d3816d8917328a670c2e18957f5d10d25c786cea8c6c0cd93abf12240cae8755",
    6: "773946d0df87357020553384db959663f00dd5a4b5b9279171b8360689543b4e",
    7: "4602033f24de78809793be77a9c98484e971f78f680ebe80d91e898c40018e0f",
    8: "fdf1b3689b63b90820748f14fc48119a3101ce358874c0888f8a8fda213612e2",
    9: "61945c616507b2feb9f306c9bfea4346cb1094bfd1a2830923e15125fef042e5",
    10: "e756811786046b78a7be4ee4d81768f34c5bc89813dd29e014905fe47a20e82b",
    11: "d940bedf8466be088222a9ce5dc48c8efb31bb8df9690930fbb3a5c8b447e1bc",
    12: "854fd09307e50e31aa2fbc5445386a7c349089f3fc5a3d8402ee690871b28bee",
}

# Output and cache files are written this many characters of the text at
# a time, and a cache hit reads, hashes with BLAKE2b and decodes its file
# this many bytes at a time, so no route holds the whole text's bytes.
_SLICE = 1 << 16

# Where a size error says the ceiling is raised.
_OVERRIDE = "TLKIT_MAX_DIM"


def _integer_option(value: str) -> int:
    """The converter of the integer options, ``--dim``, ``--strands`` and
    ``--eval-d``, for argparse and ``_parse`` alike: ``value`` read by the
    one integer rule of tlkit's text, ``_backend._is_integer_text``, by
    which ``_ceiling_from_env`` reads TLKIT_MAX_DIM too.  ``int`` alone
    also reads underscores and the digits of every script."""
    from ._backend import _is_integer_text

    if not _is_integer_text(value):
        raise ValueError(f"invalid integer {value!r}")
    return int(value)


# argparse names the converter in a usage error: "invalid int value: 'x'".
_integer_option.__name__ = "int"


def _ceiling_from_env() -> int:
    from ._backend import DEFAULT_MAX_DIMENSION

    raw = os.environ.get("TLKIT_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    try:
        return _integer_option(raw)
    except ValueError:
        raise ValueError(f"TLKIT_MAX_DIM must be an integer, got {raw!r}") from None


def _basis_lines(dimension: int) -> str:
    """The basis as diagram lines, built by the search walk itself: no
    diagram, basis or partner tuple is made."""
    from ._backend import pairing_lines

    return pairing_lines(dimension)


def _cached_basis_lines(dimension: int, cache_dir: Path) -> str:
    """Basis file cache keyed by dimension and format version.

    ``dimension`` is one that ``_BASIS_SHA256`` holds: ``enumerate``
    caches no other, and for one outside the table it prints the walk's
    text and neither reads, makes nor writes ``cache_dir``.  A file is
    served, unchanged, only when it is the basis: the SHA-256 recorded
    beside it is ``_BASIS_SHA256[dimension]`` and the file's own 32-byte
    BLAKE2b is ``_BASIS_BLAKE2B[dimension]``.  Any other file is rebuilt.

    The recorded digest is read first, so a file it refuses is not read.
    The text is held once on every route.  A miss records the known
    SHA-256, which is the walk's (a test holds both tables to the walks),
    so it hashes nothing and peaks where the walk does.  A hit loads the
    interpreter's built-in ``_blake2``, which links no OpenSSL, once the
    recorded digest matches; no route loads ``hashlib``, and on a build
    without ``_blake2`` the lookup is a miss.  The hit reads the file in
    one pass of ``_SLICE`` bytes: each slice is hashed and decoded onto
    the text, which CPython extends in place, so neither the file's bytes
    nor an encoded copy of the text is ever held whole.  A slice that
    ends inside a multi-byte character fails to decode, but only the
    ASCII basis has the known digest, so such a file is rebuilt either
    way.  The directory is made when a file is first written, after the
    walk has passed its depth check, so a refused walk leaves none."""
    stem = cache_dir / f"basis_{_CACHE_VERSION}_dim{dimension}"
    data_path = stem.with_suffix(".tl")
    hash_path = stem.with_suffix(".sha256")
    known = _BASIS_SHA256[dimension]
    if (
        hash_path.is_file()
        and hash_path.read_bytes().strip() == known.encode()
        and data_path.is_file()
    ):
        text = ""
        try:
            from _blake2 import blake2b

            digest = blake2b(digest_size=32)
            with open(data_path, "rb") as fh:
                # A for loop: Python 3.11 appends in place only once its
                # backward jumps have warmed the code, and the jump back of
                # a ``while piece := ...`` condition warms nothing, so the
                # first run in a process would copy the text per slice.
                for piece in iter(lambda: fh.read(_SLICE), b""):
                    digest.update(piece)
                    text += str(piece, "utf-8")
        except ImportError:
            pass  # a build without the built-in BLAKE2b: served as a miss
        except UnicodeDecodeError:
            pass  # this cache writes only UTF-8: the file is damaged
        else:
            if digest.hexdigest() == _BASIS_BLAKE2B[dimension]:
                return text
        text = ""  # a refused file's text is not held during the rebuild
    text = _basis_lines(dimension)
    cache_dir.mkdir(parents=True, exist_ok=True)
    _write_replacing(data_path, text)
    _write_replacing(hash_path, known + "\n")
    return text


def _slices(text: str) -> Iterator[str]:
    """``text`` in pieces of at most ``_SLICE`` characters."""
    return (text[i : i + _SLICE] for i in range(0, len(text), _SLICE))


def _write_replacing(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, through the link if ``path`` is a
    symlink.

    A regular file or a missing path is written through a temporary file
    in the same directory, renamed over it, so a killed run leaves the
    old file or none, never a partial one; the file keeps the permission
    bits of the file it replaces, and its owner and group where the
    process may set them (the group alone, else neither), and a new file
    gets what a plain write would create it with.  Any other existing
    file (a FIFO, a device, a pipe such as ``/dev/stdout``) is written in
    place, through the name given, since a rename would replace it
    instead of feeding it: ``/proc`` links to a pipe resolve to no path.
    No newline is translated, so the bytes written are the text's UTF-8
    on every platform.
    """
    import stat

    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_slices(text))
        return
    path = os.path.realpath(path)
    attempt = 0
    while True:
        tmp = f"{path}.{os.getpid()}.{attempt}.tmp"
        try:
            # Mode 0o666 under the process umask, as a plain write.
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            attempt += 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_slices(text))
        if old is not None:
            # The owner and group, else the group alone, else neither
            # (Windows has no chown); then the mode, which a chown may
            # strip of its set-id bits.
            for uid in (old.st_uid, -1) if hasattr(os, "chown") else ():
                try:
                    os.chown(tmp, uid, old.st_gid)
                    break
                except PermissionError:
                    pass
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _path(value: str) -> Path:
    """The converter of the options that take a path: ``pathlib`` is
    loaded only by a command line that has one."""
    from pathlib import Path

    return Path(value)


#: Subcommand -> (help, the module that runs it as ``_run_<subcommand>``,
#: the least value of its size option, its options).  The size option
#: comes first, and is the one required option; ``_OUTPUT`` comes last.
#: An option is (flag, kind, default, help): ``kind`` is the callable that
#: converts its value, a tuple of the values it takes, or ``bool`` for a
#: switch that takes none.  Its value is read as ``_dest(flag)``.
_OUTPUT = ("--output", _path, None, None)
_COMMANDS = {
    "enumerate": (
        "list the diagram basis for a dimension",
        "cli",
        1,
        (
            ("--dim", _integer_option, None, None),
            ("--count-only", bool, False, None),
            _OUTPUT,
            ("--cache", _path, None, "cache directory for basis files"),
        ),
    ),
    "compose": (
        "compose two diagrams or print the full table",
        "_table",
        1,
        (
            ("--dim", _integer_option, None, None),
            ("--lhs", str, None, "diagram line or file; ends up at the bottom"),
            ("--rhs", str, None, "diagram line or file; stacked on top"),
            ("--table", bool, False, "full composition table as CSV"),
            _OUTPUT,
        ),
    ),
    "repr": (
        "generator matrices over the diagram basis",
        "_csv",
        2,
        (
            ("--dim", _integer_option, None, None),
            ("--gen", str, "all", "generator index or 'all'"),
            ("--include-identity", bool, False, None),
            ("--eval-d", _integer_option, None, "evaluate entries at an integer d"),
            _OUTPUT,
        ),
    ),
    "verify": (
        "check the defining relations",
        "_relations",
        2,
        (
            ("--dim", _integer_option, None, None),
            ("--relations", ("tl", "artin", "all"), "tl", None),
            _OUTPUT,
        ),
    ),
    "bracket": (
        "bracket image of a braid word",
        "braids",
        1,
        (
            ("--strands", _integer_option, None, None),
            ("--word", str, "", "comma-separated signed indices"),
            ("--matrix", bool, False, None),
            _OUTPUT,
        ),
    ),
    "draw": (
        "TikZ or SVG figures",
        "drawing",
        1,
        (
            ("--dim", _integer_option, None, None),
            ("--basis", bool, False, "draw the whole basis"),
            ("--diagram", str, None, "diagram line or file"),
            ("--format", ("tikz", "svg"), "tikz", None),
            _OUTPUT,
        ),
    ),
}

# What a size error calls each size option.
_SIZE_NAMES = {"dim": "dimension", "strands": "strand count"}


def _dest(flag: str) -> str:
    """The attribute that holds the value of option ``flag``, named by
    argparse's rule: the dashes stripped, inner ones turned into "_"."""
    return flag.lstrip("-").replace("-", "_")


def _run_enumerate(args: argparse.Namespace) -> tuple[bool, str]:
    # Every route runs on the kernel module alone: no diagram is made.
    from ._backend import count_pairings

    if args.count_only and args.cache is not None:
        raise ValueError("enumerate takes --count-only or --cache, not both")
    if args.count_only:
        return True, f"{count_pairings(args.dim)}\n"
    if args.cache is not None and args.dim in _BASIS_SHA256:
        return True, _cached_basis_lines(args.dim, args.cache)
    return True, _basis_lines(args.dim)


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Dispatch parsed arguments; returns (exit code, output text).

    The size option is checked here against the ceiling, which ``run``
    alone reads from TLKIT_MAX_DIM; the runner is imported only now, and
    returns whether its checks passed and its text."""
    command = _COMMANDS.get(args.subcommand)
    if command is None:
        raise ValueError(f"unknown subcommand {args.subcommand!r}")
    from ._backend import _checked_dimension

    _, module, least, options = command
    size = _dest(options[0][0])
    _checked_dimension(getattr(args, size), _ceiling_from_env(), _SIZE_NAMES[size], least, _OVERRIDE)
    if module == "cli":
        runner = _run_enumerate
    else:
        runner = getattr(importlib.import_module(f".{module}", __package__), f"_run_{args.subcommand}")
    passed, text = runner(args)
    return (EXIT_OK if passed else EXIT_VERIFICATION), text


def _is_dash_value(dest: str, value: str) -> bool:
    """Whether ``value``, which starts with "-", is read as the value of
    option ``dest``: a lone negative number, as argparse reads one ("-"
    and decimal digits, or "-", digits, "." and digits; ``isdecimal``
    matches its ``\\d``), or a braid word whose letters all pass
    ``BraidWord.from_text``'s rule, ``_backend._is_integer_text``."""
    whole, dot, fraction = value[1:].partition(".")
    if (whole + fraction).isdecimal() and (not dot or fraction != ""):
        return True
    if dest != "word":
        return False
    from ._backend import _is_integer_text

    return all(map(_is_integer_text, value.split(",")))


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """``argv`` parsed as ``build_parser()`` parses it, if it is written
    in the exact forms: the subcommand first, then whole option names,
    each value as ``--opt value`` (a value not starting with "-", or a
    lone negative number) or as ``--opt=value``, and bare switches.
    Values are converted and checked as argparse does.  None for anything
    else: help, ``--version``, an abbreviation, another value starting
    with "-", a bad or missing value, an unknown token.  argparse then
    parses ``argv`` and prints what it prints.

    One form is read here as ``--word=X``: ``--word X`` for a braid word
    X that starts with "-" (``-1,2``, ``-1,+2``, ``-1, 2``).  argparse
    reads it so only for a lone negative number (``--word -1``) or a
    token holding a space, and reads any other token starting with "-"
    as an option."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {flag: kind for flag, kind, _, _ in command[3]}
    values = {_dest(flag): default for flag, _, default, _ in command[3]}
    missing = {_dest(command[3][0][0])}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        kind = options.get(flag)
        if kind is None:
            return None
        dest = _dest(flag)
        if kind is bool:
            if equals:
                return None
            values[dest] = True
            continue
        if not equals:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _is_dash_value(dest, value):
                return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        values[dest] = value
        missing.discard(dest)
    if missing:
        return None
    return SimpleNamespace(subcommand=argv[0], **values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``, for help and usage errors."""
    import argparse

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
    for name, (text, _, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kind, default, text in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
                continue
            choices = kind if isinstance(kind, tuple) else None
            convert = None if choices or kind is str else kind
            p.add_argument(
                flag, type=convert, choices=choices, default=default, required=flag == options[0][0], help=text
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    With ``argv`` None, ``main`` is the process's program (the ``tlkit``
    script, ``python -m tlkit.cli``) and reads ``sys.argv[1:]``.  Then,
    on every way out, with the output written, it freezes the garbage
    collector's heap: the interpreter's finalization runs one full
    collection that ``gc.disable()`` does not stop, and it would free the
    whole start-up heap object by object only for the process to exit.
    atexit handlers and the flushes of the standard streams still run.
    A call with an explicit ``argv`` leaves the collector as it was."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return _main(args)
    except KeyboardInterrupt:
        # Ctrl-C: the shell's exit status for SIGINT, and no traceback.
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if argv is None:
            gc.freeze()


def _main(args: argparse.Namespace) -> int:
    try:
        if args.output is not None:
            if args.output.is_dir():
                raise ValueError(f"output {args.output} is a directory")
            if not args.output.parent.is_dir():
                raise ValueError(f"output directory {args.output.parent} does not exist")
        code, text = run(args)
        if args.output is not None:
            _write_replacing(args.output, text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        # An output too large to hold whole, such as repr --dim 11's CSV.
        print("error: out of memory", file=sys.stderr)
        return EXIT_VALIDATION
    if args.output is None:
        try:
            if sys.stdout is None:  # started with fd 1 closed (``>&-``)
                raise OSError("standard output is closed")
            sys.stdout.writelines(_slices(text))
            sys.stdout.flush()
        except OSError as exc:
            # A reader that has gone (``| head``) needs no message.  What is
            # still buffered goes to the null device, so the flush at exit
            # cannot raise again.
            if not isinstance(exc, BrokenPipeError):
                print(f"error: {exc}", file=sys.stderr)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
