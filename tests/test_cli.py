import contextlib
import errno
import functools
import gc
import hashlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlkit
from tlkit import _backend, _relations, cli, enumeration, representation
from tlkit._csv import sparse_csv
from tlkit.braids import BraidWord, braid_image_matrix, verify_artin
from tlkit.composition import compose
from tlkit.diagrams import (
    ConnectabilityMatrix,
    PlanarDiagram,
    ScaledDiagram,
    canonical_compare,
    connectability,
    is_noncrossing,
    parse,
    restrict_connectability,
    serialize,
)
from tlkit.drawing import emit_figure
from tlkit.elements import TLElement, multiply
from tlkit.enumeration import DiagramBasis, catalan, enumerate_diagrams, identity_diagram
from tlkit.laurent import LaurentPoly
from tlkit.matrices import PolyMatrix
from tlkit.representation import (
    Generator,
    GeneratorMatrix,
    IdealPartition,
    RelationReport,
    generator_diagram,
    generator_matrices,
)

GOLDEN = Path(__file__).parent / "golden"


def child_env():
    """This environment, with the tlkit under test first on the path of a
    child interpreter."""
    src = str(Path(tlkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_cli(args, env=None, monkeypatch=None):
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


class TestGolden:
    @pytest.mark.parametrize(
        "args,golden",
        [
            (["enumerate", "--dim", "4"], "enumerate_dim4.txt"),
            (["repr", "--dim", "4", "--gen", "all"], "repr_dim4_all.csv"),
            (["verify", "--dim", "4"], "verify_dim4.txt"),
            (["repr", "--dim", "3"], "repr_dim3_all.csv"),
            (
                ["repr", "--dim", "5", "--include-identity", "--eval-d", "2"],
                "repr_dim5_identity_d2.csv",
            ),
            (["compose", "--dim", "4", "--table"], "compose_dim4_table.csv"),
            (
                ["bracket", "--strands", "4", "--word=1,-2,3,-1", "--matrix"],
                "bracket_4_matrix.csv",
            ),
            (["verify", "--dim", "5", "--relations", "all"], "verify_dim5_all.txt"),
            (["bracket", "--strands", "1", "--matrix"], "bracket_1_matrix.csv"),
            (
                ["bracket", "--strands", "5", "--word=-1,2,-3,4,-2", "--matrix"],
                "bracket_5_matrix.csv",
            ),
            (["verify", "--dim", "6", "--relations", "artin"], "verify_dim6_artin.txt"),
            (
                ["bracket", "--strands", "5", "--word=-1,2,-3,4,-2"],
                "bracket_5_element.txt",
            ),
            (["compose", "--dim", "5", "--table"], "compose_dim5_table.csv"),
            # every strand kind: 5 vertical, 4 cups, 4 caps, 2 slanted
            (["draw", "--dim", "3", "--basis"], "draw_dim3_basis.tex"),
            (
                ["draw", "--dim", "3", "--basis", "--format", "svg"],
                "draw_dim3_basis.svg",
            ),
            # one strand of each kind and the loop mark
            (
                ["draw", "--dim", "4", "--diagram", "TL 4 m=2 (1,7)(2,3)(4,8)(5,6)"],
                "draw_dim4_m2.tex",
            ),
            (
                [
                    "draw", "--dim", "4", "--diagram",
                    "TL 4 m=2 (1,7)(2,3)(4,8)(5,6)", "--format", "svg",
                ],
                "draw_dim4_m2.svg",
            ),
            # rows with several entries, zero runs of many lengths and
            # rows that end in zeros
            (["repr", "--dim", "6", "--gen", "3"], "repr_dim6_gen3.csv"),
            (
                ["bracket", "--strands", "6", "--word=1,-2,3,-4,5,-3,2,-1", "--matrix"],
                "bracket_6_matrix.csv",
            ),
            # one-column maps: the identity-free basis of dimension 2
            (["verify", "--dim", "2"], "verify_dim2.txt"),
            # the wide coefficients of a long word: letter i is i mod 3 + 1,
            # negated for odd i, for i = 0..399
            (
                ["bracket", "--strands", "4", "--matrix", "--word=" + ",".join(
                    str((-1) ** i * (i % 3 + 1)) for i in range(400)
                )],
                "bracket_4_w400_matrix.csv",
            ),
        ],
    )
    def test_matches_golden_and_byte_stable(self, args, golden):
        code1, out1 = run_cli(args)
        code2, out2 = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "args,code,stream,golden",
        [
            (["--help"], 0, "out", "help_tlkit.txt"),
            *(
                ([name, "--help"], 0, "out", f"help_{name}.txt")
                for name in ("enumerate", "compose", "repr", "verify", "bracket", "draw")
            ),
            (["--version"], 0, "out", "version.txt"),
            (["enumerate"], 2, "err", "usage_enumerate_no_dim.txt"),
            (["enumerate", "--dim", "x"], 2, "err", "usage_enumerate_dim_x.txt"),
            (["verify", "--dim", "3", "--relations", "foo"], 2, "err", "usage_verify_relations_foo.txt"),
            (["bogus"], 2, "err", "usage_bogus.txt"),
            # a word that starts with an inverse letter, as argparse reads
            # "--word=-1"; the plain parser reads "--word -1" the same way
            (["bracket", "--strands", "3", "--word", "-1"], 0, "out", "bracket_3_dash_word.txt"),
            # an abbreviation of --dim and of --count-only
            (["enumerate", "--di", "3", "--count"], 0, "out", "enumerate_abbreviated.txt"),
            # argparse refuses "--word -1,2"; the plain parser reads it as
            # "--word=-1,2", whose output this is
            (["bracket", "--strands", "3", "--word", "-1,2"], 0, "out", "bracket_3_dash_word_list.txt"),
        ],
    )
    def test_front_end_matches_golden(self, args, code, stream, golden, monkeypatch, capsys):
        # Help and usage lines are wrapped to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")
        try:
            exit_code = cli.main(args)
        except SystemExit as exc:
            exit_code = exc.code
        out, err = capsys.readouterr()
        assert exit_code == code
        expected = (GOLDEN / golden).read_text(encoding="utf-8")
        assert (out, err) == ((expected, "") if stream == "out" else ("", expected))


class TestEnumerate:
    def test_count_only(self):
        code, out = run_cli(["enumerate", "--dim", "4", "--count-only"])
        assert (code, out) == (0, "14\n")
        assert run_cli(["enumerate", "--dim", "12", "--count-only"]) == (0, "208012\n")

    def test_dim_one(self):
        code, out = run_cli(["enumerate", "--dim", "1"])
        assert (code, out) == (0, "TL 1 m=0 (1,2)\n")

    def test_output_lines_reparse(self):
        _, out = run_cli(["enumerate", "--dim", "5"])
        lines = out.splitlines()
        assert len(lines) == 42
        for line in lines:
            scaled = parse(line)
            assert scaled.dimension == 5
            assert scaled.loop_exponent == 0

    def test_rejects_bad_dimension(self, capsys):
        assert cli.main(["enumerate", "--dim", "0"]) == cli.EXIT_VALIDATION

    def test_count_only_and_cache_exclude_each_other(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["enumerate", "--dim", "4", "--count-only", "--cache", str(cache)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: enumerate takes --count-only or --cache, not both\n")
        assert not cache.exists()

    def test_ceiling_and_env_override(self, monkeypatch):
        assert cli.main(["enumerate", "--dim", "13", "--count-only"]) == cli.EXIT_VALIDATION
        monkeypatch.setenv("TLKIT_MAX_DIM", "4")
        assert cli.main(["enumerate", "--dim", "5", "--count-only"]) == cli.EXIT_VALIDATION
        monkeypatch.setenv("TLKIT_MAX_DIM", "5")
        code, out = run_cli(["enumerate", "--dim", "5", "--count-only"])
        assert (code, out) == (0, "42\n")
        monkeypatch.setenv("TLKIT_MAX_DIM", "14")
        assert run_cli(["enumerate", "--dim", "14", "--count-only"]) == (0, "2674440\n")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_basis_text_builds_no_diagrams(self, monkeypatch):
        # The text comes from the search walk alone: no basis, diagram or
        # partner tuple is made on the way.
        from tlkit import _backend, enumeration
        from tlkit.diagrams import PlanarDiagram

        def refuse(*args, **kwargs):
            raise AssertionError("built a diagram object")

        monkeypatch.setattr(enumeration, "_basis", refuse)
        monkeypatch.setattr(_backend, "enumerate_pairings", refuse)
        monkeypatch.setattr(PlanarDiagram, "_trusted", refuse)
        monkeypatch.setattr(PlanarDiagram, "__init__", refuse)
        text = cli._basis_lines(4)
        assert text == (GOLDEN / "enumerate_dim4.txt").read_text(encoding="utf-8")

    def test_output_file(self, tmp_path):
        target = tmp_path / "basis.tl"
        code, out = run_cli(["enumerate", "--dim", "3", "--output", str(target)])
        assert code == 0 and out == ""
        assert len(target.read_text().splitlines()) == 5

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "cache"
        _, first = run_cli(["enumerate", "--dim", "4", "--cache", str(cache)])
        data = cache / "basis_v1_dim4.tl"
        digest = cache / "basis_v1_dim4.sha256"
        assert data.is_file() and digest.is_file()
        _, second = run_cli(["enumerate", "--dim", "4", "--cache", str(cache)])
        assert first == second == data.read_text(encoding="utf-8")

    def test_warm_cache_keeps_the_ceiling(self, tmp_path, monkeypatch, capsys):
        # A hit never builds the text, so only the up-front check guards it.
        cache = tmp_path / "cache"
        args = ["enumerate", "--dim", "5", "--cache", str(cache)]
        code, warm = run_cli(args)
        assert code == 0 and (cache / "basis_v1_dim5.tl").read_text(encoding="utf-8") == warm
        capsys.readouterr()
        monkeypatch.setenv("TLKIT_MAX_DIM", "4")
        assert cli.main(args) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == (
            "",
            "error: dimension 5 exceeds the resource ceiling 4 (override with TLKIT_MAX_DIM)\n",
        )

    def test_missing_output_directory_rejected_before_computing(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run", lambda config: calls.append(config))
        monkeypatch.chdir(tmp_path)
        # a missing parent, an existing directory, and "" which reads as "."
        for target, message in [
            (tmp_path / "missing" / "basis.tl", "does not exist"),
            (tmp_path, f"output {tmp_path} is a directory"),
            ("", "output . is a directory"),
        ]:
            code = cli.main(["enumerate", "--dim", "3", "--output", str(target)])
            assert code == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
        assert calls == []

    def test_unwritable_output_reported(self, tmp_path, capsys):
        code = cli.main(["enumerate", "--dim", "3", "--output", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    def test_unusable_cache_reported(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["enumerate", "--dim", "3", "--cache", str(blocker / "cache")])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("failure", ["encode", "rename"])
    def test_failed_output_write_keeps_old_file(self, tmp_path, monkeypatch, failure):
        target = tmp_path / "basis.tl"
        target.write_text("old\n", encoding="utf-8")
        # longer than two write slices
        text = "TL 1 m=0 (1,2)\n" * (2 * cli._SLICE // 15 + 1)
        if failure == "encode":
            # a lone surrogate has no UTF-8 form, so the write fails part
            # way, after whole slices have reached the temporary file
            text += "\ud800"
        else:
            def fail(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(os, "replace", fail)
        monkeypatch.setattr(cli, "run", lambda args: (cli.EXIT_OK, text))
        code = cli.main(["enumerate", "--dim", "1", "--output", str(target)])
        assert code == cli.EXIT_VALIDATION
        assert target.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["basis.tl"]

    def test_output_file_gets_default_permissions(self, tmp_path):
        target = tmp_path / "basis.tl"
        umask = os.umask(0o022)
        try:
            assert cli.main(["enumerate", "--dim", "2", "--output", str(target)]) == 0
        finally:
            os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o644

    @pytest.mark.parametrize(
        "mode, through_link", [(0o600, False), (0o640, True)], ids=["0600", "0640-symlink"]
    )
    def test_output_keeps_the_permissions_of_the_file_it_replaces(
        self, tmp_path, mode, through_link
    ):
        target = tmp_path / "basis.tl"
        target.write_text("old\n", encoding="utf-8")
        target.chmod(mode)
        named = target
        if through_link:
            named = tmp_path / "link.tl"
            named.symlink_to(target)
        umask = os.umask(0o022)
        try:
            assert cli.main(["enumerate", "--dim", "3", "--output", str(named)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_text(encoding="utf-8") == run_cli(["enumerate", "--dim", "3"])[1]

    def test_rebuilt_cache_file_keeps_its_permissions(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["enumerate", "--dim", "3", "--cache", str(cache)]
        assert run_cli(args)[0] == 0
        data = cache / "basis_v1_dim3.tl"
        data.write_text("damaged\n", encoding="utf-8")
        data.chmod(0o600)
        code, out = run_cli(args)
        assert code == 0 and data.read_text(encoding="utf-8") == out
        assert out == run_cli(["enumerate", "--dim", "3"])[1]
        assert stat.S_IMODE(data.stat().st_mode) == 0o600

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "basis.tl"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.tl"
        link.symlink_to(target)
        assert cli.main(["enumerate", "--dim", "2", "--output", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == run_cli(["enumerate", "--dim", "2"])[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["basis.tl", "link.tl"]

    def test_output_to_a_fifo_feeds_its_reader(self, tmp_path):
        fifo = tmp_path / "basis.fifo"
        os.mkfifo(fifo)
        received = []
        # Opening a FIFO for reading blocks until the CLI opens it to write;
        # dimension 9 writes more than a pipe holds.
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code = cli.main(["enumerate", "--dim", "9", "--output", str(fifo)])
        finally:
            if reader.is_alive() and stat.S_ISFIFO(fifo.lstat().st_mode):
                # Unblock a reader that no writer opened.  ENXIO means no
                # reader holds the FIFO open: one that has read to the end
                # may not have finished yet, and there is none to unblock.
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError as error:
                    if error.errno != errno.ENXIO:
                        raise
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0
        assert received == [run_cli(["enumerate", "--dim", "9"])[1].encode()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["basis.fifo"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_output_to_dev_stdout_feeds_a_pipe(self):
        # The link /dev/stdout names the pipe itself, which has no path.
        result = subprocess.run(
            [sys.executable, "-m", "tlkit.cli", "enumerate", "--dim", "4", "--output", "/dev/stdout"],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (GOLDEN / "enumerate_dim4.txt").read_text(encoding="utf-8")

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0, reason="needs root")
    def test_output_keeps_the_owner_and_group_of_the_file_it_replaces(self, tmp_path):
        target = tmp_path / "basis.tl"
        target.write_text("old\n", encoding="utf-8")
        os.chown(target, 65534, 65534)
        target.chmod(0o640)
        assert cli.main(["enumerate", "--dim", "2", "--output", str(target)]) == 0
        kept = target.stat()
        assert (kept.st_uid, kept.st_gid, stat.S_IMODE(kept.st_mode)) == (65534, 65534, 0o640)
        assert target.read_text(encoding="utf-8") == run_cli(["enumerate", "--dim", "2"])[1]

    def test_output_keeps_a_group_the_process_is_in(self, tmp_path):
        groups = set(os.getgroups()) - {os.getegid()} if hasattr(os, "getgroups") else set()
        if not groups or os.geteuid() == 0:
            pytest.skip("needs a user other than root with a second group")
        target = tmp_path / "basis.tl"
        target.write_text("old\n", encoding="utf-8")
        os.chown(target, -1, min(groups))
        assert cli.main(["enumerate", "--dim", "2", "--output", str(target)]) == 0
        assert (target.stat().st_uid, target.stat().st_gid) == (os.geteuid(), min(groups))

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run_enumerate", interrupted)
        assert cli.main(["enumerate", "--dim", "3"]) == cli.EXIT_INTERRUPTED == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")

    def test_failed_cache_write_leaves_no_entry(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        cache = tmp_path / "cache"
        code = cli.main(["enumerate", "--dim", "4", "--cache", str(cache)])
        assert code == cli.EXIT_VALIDATION
        assert list(cache.iterdir()) == []

    def test_cache_corruption_regenerates(self, tmp_path):
        cache = tmp_path / "cache"
        args = ["enumerate", "--dim", "4", "--cache", str(cache)]
        _, first = run_cli(args)
        intact = {p.name: p.read_bytes() for p in cache.iterdir()}
        damage = [
            ("basis_v1_dim4.tl", b"TL 4 m=0 (1,2)(3,4)(5,6)(7,8)\n"),
            ("basis_v1_dim4.tl", b"\xff\xfe garbage"),
            ("basis_v1_dim4.sha256", b"\xff\xfe garbage"),
        ]
        for name, data in damage:
            (cache / name).write_bytes(data)
            assert run_cli(args) == (0, first), name
            assert {p.name: p.read_bytes() for p in cache.iterdir()} == intact, name


def _dim4_lines():
    return (GOLDEN / "enumerate_dim4.txt").read_text(encoding="utf-8").splitlines(True)


def _edited(edit):
    """The dimension-4 basis text with ``edit`` applied to its lines."""
    lines = _dim4_lines()
    edit(lines)
    return "".join(lines)


def _set(index, value):
    def edit(lines):
        lines[index] = value

    return edit


def _swap_first_two(lines):
    lines[0:2] = lines[1::-1]


def _merge_first_two(separator):
    # The two lines stay two lines to a text reader.
    def edit(lines):
        lines[0:2] = [lines[0][:-1] + separator + lines[1]]

    return edit


#: (file text, the text its digest is of; None for the file's own text).
#: Only the basis is served: "intact" is a hit, and every other entry is
#: rebuilt, the last three although each keeps the line count and every
#: line's prefix under a digest of its own text.
_DIM4 = "".join(_dim4_lines())
CACHE_ENTRIES = {
    "intact": (_DIM4, None),
    "crlf": (_DIM4.replace("\n", "\r\n"), _DIM4),
    "lone-cr": (_DIM4.replace("\n", "\r"), _DIM4),
    "trailing-blank": (_DIM4 + "\n\n", None),
    "trailing-whitespace": (_DIM4 + "   \n\t\n \x0c \n", None),
    "leading-space": (" " + _DIM4, None),
    "leading-empty": ("\n" + _DIM4, None),
    "leading-blank": ("  \n" + _DIM4, None),
    "no-final-newline": (_DIM4[:-1], None),
    "text-after-the-last-line": (_DIM4 + "x", None),
    "non-ascii": (_edited(_set(-1, "TL 4 ünïcode\n")), None),
    "vt-separator": (_edited(_merge_first_two("\x0b")), None),
    "fs-separator": (_edited(_merge_first_two("\x1c")), None),
    "nel-separator": (_edited(_merge_first_two("\x85")), None),
    "missing-line": (_edited(_set(-1, "")), None),
    "extra-line": (_DIM4 + "TL 4 m=0 (1,2)\n", None),
    "blank-for-a-line": (_edited(_set(-1, "   \n")), None),
    "tab-for-a-line": (_edited(_set(-1, "\t\n")), None),
    "us-for-a-line": (_edited(_set(-1, "\x1f \n")), None),
    "separator-splits-a-line": (_edited(_set(-1, "TL 4\x1em=0\n")), None),
    "stale-digest": (_DIM4, _DIM4 + "\n"),
    "empty": ("", None),
    "swapped-lines": (_edited(_swap_first_two), None),
    "identity-for-a-line": (_edited(_set(2, str(identity_diagram(4)) + "\n")), None),
    "garbage-after-the-prefix": (_edited(_set(-1, "TL 4 m=0 (9,9)garbage\n")), None),
}


@pytest.mark.parametrize("name", CACHE_ENTRIES)
def test_cache_hit_decisions(name, tmp_path, monkeypatch):
    """Which cache files are served and which are rebuilt."""
    data, hashed = CACHE_ENTRIES[name]
    cache = tmp_path / "cache"
    args = ["enumerate", "--dim", "4", "--cache", str(cache)]
    run_cli(args)
    intact = {p.name: p.read_bytes() for p in cache.iterdir()}
    digest = hashlib.sha256((data if hashed is None else hashed).encode("utf-8"))
    (cache / "basis_v1_dim4.tl").write_bytes(data.encode("utf-8"))
    (cache / "basis_v1_dim4.sha256").write_text(digest.hexdigest() + "\n", encoding="utf-8")
    built = []
    basis_lines = cli._basis_lines
    monkeypatch.setattr(cli, "_basis_lines", lambda *args: built.append(args) or basis_lines(*args))
    assert run_cli(args) == (0, _DIM4)
    assert len(built) == (name != "intact")
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == intact


def test_known_digests_are_the_walks():
    from tlkit._backend import DEFAULT_MAX_DIMENSION

    texts = {n: cli._basis_lines(n).encode("utf-8") for n in range(1, DEFAULT_MAX_DIMENSION + 1)}
    assert cli._BASIS_SHA256 == {n: hashlib.sha256(text).hexdigest() for n, text in texts.items()}
    assert cli._BASIS_BLAKE2B == {
        n: hashlib.blake2b(text, digest_size=32).hexdigest() for n, text in texts.items()
    }


def test_a_hit_hashes_with_the_class_hashlib_names():
    # The hit imports BLAKE2b from the interpreter's own module, without
    # hashlib and the OpenSSL library it maps: it is the same class.
    import _blake2

    assert _blake2.blake2b is hashlib.blake2b


def test_cache_without_the_built_in_blake2b_is_a_miss(tmp_path, monkeypatch, capsys):
    """On a build without ``_blake2`` a warm lookup serves the walk's text
    and rewrites both files."""
    cache = tmp_path / "cache"
    args = ["enumerate", "--dim", "4", "--cache", str(cache)]
    run_cli(args)
    intact = {p.name: (p.read_bytes(), p.stat().st_ino) for p in cache.iterdir()}
    monkeypatch.setitem(sys.modules, "_blake2", None)  # its import raises ImportError
    built = []
    basis_lines = cli._basis_lines
    monkeypatch.setattr(cli, "_basis_lines", lambda *args: built.append(args) or basis_lines(*args))
    assert run_cli(args) == (0, _DIM4)
    assert built == [(4,)]
    rewritten = {p.name: (p.read_bytes(), p.stat().st_ino) for p in cache.iterdir()}
    assert rewritten.keys() == intact.keys()
    for name, (data, inode) in intact.items():
        # a rewrite renames a new file, with a new inode, over each
        assert rewritten[name][0] == data and rewritten[name][1] != inode
    assert capsys.readouterr().err == ""


def test_cache_of_a_dimension_without_a_known_digest_is_not_cached(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ["enumerate", "--dim", "4", "--cache", str(cache)]
    run_cli(args)
    intact = {p.name: (p.read_bytes(), p.stat().st_ino) for p in cache.iterdir()}
    known = {n: digest for n, digest in cli._BASIS_SHA256.items() if n != 4}
    monkeypatch.setattr(cli, "_BASIS_SHA256", known)
    built = []
    basis_lines = cli._basis_lines
    monkeypatch.setattr(cli, "_basis_lines", lambda *args: built.append(args) or basis_lines(*args))
    assert run_cli(args) == (0, _DIM4)
    assert built == [(4,)]
    # a rewrite would rename a new file, with a new inode, over each
    assert {p.name: (p.read_bytes(), p.stat().st_ino) for p in cache.iterdir()} == intact
    missing = tmp_path / "missing"
    assert run_cli(["enumerate", "--dim", "4", "--cache", str(missing)]) == (0, _DIM4)
    assert not missing.exists()


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff\xfe garbage\n",
        _DIM4.encode("utf-8") + b"\xc3\n",
        # every line has the shape of a basis line, so only the decode refuses it
        _DIM4.encode("utf-8")[:-1] + b"\xc3\n",
    ],
)
def test_cache_file_not_utf8_is_rebuilt(raw, tmp_path):
    cache = tmp_path / "cache"
    args = ["enumerate", "--dim", "4", "--cache", str(cache)]
    run_cli(args)
    intact = {p.name: p.read_bytes() for p in cache.iterdir()}
    (cache / "basis_v1_dim4.tl").write_bytes(raw)
    (cache / "basis_v1_dim4.sha256").write_text(hashlib.sha256(raw).hexdigest() + "\n")
    assert run_cli(args) == (0, _DIM4)
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == intact


class TestBasisTextSlices:
    """The basis text is held once and leaves in slices of ``_SLICE``
    characters: no route keeps a list of lines or an encoded copy."""

    def test_every_route_spans_several_slices(self, tmp_path, monkeypatch):
        text = cli._basis_lines(10)
        assert len(text) > 4 * cli._SLICE
        assert run_cli(["enumerate", "--dim", "10"]) == (0, text)
        target = tmp_path / "basis.tl"
        assert run_cli(["enumerate", "--dim", "10", "--output", str(target)]) == (0, "")
        assert target.read_bytes() == text.encode("utf-8")
        cache = tmp_path / "cache"
        args = ["enumerate", "--dim", "10", "--cache", str(cache)]
        assert run_cli(args) == (0, text)
        assert (cache / "basis_v1_dim10.tl").read_bytes() == text.encode("utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest() + "\n"
        assert (cache / "basis_v1_dim10.sha256").read_text(encoding="utf-8") == digest

        def refuse(*args):
            raise AssertionError("a warm cache rebuilt the text")

        monkeypatch.setattr(cli, "_basis_lines", refuse)
        assert run_cli(args) == (0, text)

    @staticmethod
    def peak_per_character(call, length):
        """The allocation peak of ``call()`` over ``length``."""
        call()  # imports and compiled patterns are not part of the peak
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / length
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("route", ["build", "stdout", "output", "miss", "hit"])
    def test_allocation_peak(self, route, tmp_path):
        # One copy of the text, plus the walk's memoized finishes and the
        # list of shared pieces it is joined from (about 1.47 here); a hit
        # holds the text it extends in place and one slice of bytes (1.09).
        # A second copy of the text while it is joined (about 2.17), a str
        # per line (about 3.1), an encoded copy on a miss (about 4.1), or
        # on a hit the file's bytes beside their decoded text or a copy of
        # the text per slice (2.0) fails.
        length = len(cli._basis_lines(10))
        fresh = iter(range(2))

        def main(*options):
            with open(os.devnull, "w", encoding="utf-8") as sink:
                with contextlib.redirect_stdout(sink):
                    assert cli.main(["enumerate", "--dim", "10", *options]) == 0

        calls = {
            "build": lambda: cli._basis_lines(10),
            "stdout": main,
            "output": lambda: main("--output", str(tmp_path / "basis.tl")),
            "miss": lambda: cli._cached_basis_lines(10, tmp_path / f"miss{next(fresh)}"),
            "hit": lambda: cli._cached_basis_lines(10, tmp_path / "warm"),
        }
        assert self.peak_per_character(calls[route], length) < 1.6

    def test_first_hit_of_a_process_extends_in_place(self, tmp_path):
        # Python 3.11 appends to a str in place only in code that its loops
        # have warmed, and this process has run the hit before, so the
        # first hit of a new interpreter is measured there: 1.13, against
        # 2.07 when a loop that warms nothing copied the text per slice.
        run_cli(["enumerate", "--dim", "10", "--cache", str(tmp_path)])
        probe = (
            "import sys, tracemalloc\n"
            "from pathlib import Path\n"
            "from tlkit import cli\n"
            "tracemalloc.start()\n"
            "text = cli._cached_basis_lines(10, Path(sys.argv[1]))\n"
            "print(tracemalloc.get_traced_memory()[1] / len(text))\n"
        )
        result = TestStartup.fresh_python(probe, str(tmp_path))
        assert float(result.stdout) < 1.6

    #: Damage to the dimension-10 file, which spans 19 slices, that the
    #: hit's one pass must refuse with the recorded digest left intact: a
    #: byte changed on either side of a slice boundary and at the end, a
    #: cut at a boundary, one more whole slice, a byte that is not UTF-8
    #: in a late slice, and a valid two-byte character split by a boundary.
    DAMAGE = {
        "byte-before-boundary": lambda raw, s: raw[: s - 1] + b"#" + raw[s:],
        "byte-after-boundary": lambda raw, s: raw[:s] + b"#" + raw[s + 1 :],
        "last-byte": lambda raw, s: raw[:-1] + b"#",
        "cut-at-boundary": lambda raw, s: raw[: len(raw) // s * s],
        "slice-appended": lambda raw, s: raw + raw[:s],
        "late-invalid-byte": lambda raw, s: raw[: 17 * s + 5] + b"\xff" + raw[17 * s + 6 :],
        "split-character": lambda raw, s: raw[: s - 1] + "é".encode("utf-8") + raw[s + 1 :],
    }

    @pytest.mark.parametrize("name", DAMAGE)
    def test_damage_at_slice_boundaries_is_rebuilt(self, name, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache"
        args = ["enumerate", "--dim", "10", "--cache", str(cache)]
        code, text = run_cli(args)
        data_path = cache / "basis_v1_dim10.tl"
        raw = data_path.read_bytes()
        assert code == 0 and -(-len(raw) // cli._SLICE) == 19
        damaged = self.DAMAGE[name](raw, cli._SLICE)
        assert damaged != raw
        data_path.write_bytes(damaged)
        built = []
        basis_lines = cli._basis_lines
        monkeypatch.setattr(cli, "_basis_lines", lambda *args: built.append(args) or basis_lines(*args))
        assert run_cli(args) == (0, text)
        assert built == [(10,)]
        assert data_path.read_bytes() == raw
        assert capsys.readouterr().err == ""


class TestStartup:
    def test_version_names_the_kernels(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "tlkit 0.1.0 (python kernels)\n"

    def test_import_leaves_numpy_unloaded(self):
        env = child_env()
        probe = "import sys, tlkit; print('numpy' in sys.modules, tlkit.kernel_backend())"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout == "False python\n"

    #: Standard modules that a valid invocation leaves unloaded: the
    #: dataclasses machinery, and the argparse parser with the gettext and
    #: locale modules its messages pull in.
    FRONT_END = {"dataclasses", "argparse", "gettext", "locale"}

    #: Standard modules that a route loads only where it needs them:
    #: ``pathlib`` for a path option, the built-in ``_blake2`` for a warm
    #: cache hit, and ``mmap``, ``threading`` and the OpenSSL-backed
    #: ``hashlib`` and ``_hashlib`` for none.
    STANDARD = ("pathlib", "mmap", "threading", "hashlib", "_hashlib", "_blake2")

    #: Runs ``main`` on the probe's arguments and prints to stderr two
    #: lines: the tlkit and ``FRONT_END`` modules loaded, and the
    #: ``STANDARD`` ones.
    LOADED = (
        "import sys\n"
        "from tlkit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(*(m for m in sys.modules if m.startswith('tlkit') or m in {sorted(FRONT_END)!r}), file=sys.stderr)\n"
        f"print(*(m for m in {STANDARD!r} if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    @pytest.fixture(scope="class")
    def started(self, tmp_path_factory):
        """Runs ``LOADED`` on a command line once for the whole class, under
        -S, since a host's ``site`` may import the modules it reports: one
        start serves every test that probes the same line.  ``{tmp}`` in an
        argument is a directory the class shares, and a cache directory
        named ``warm`` is filled first, so the probe reads a hit.  Returns
        the formatted arguments, the probe's output, the set of tlkit and
        ``FRONT_END`` modules it loaded and the list of ``STANDARD`` ones."""
        shared = tmp_path_factory.mktemp("startup")

        @functools.cache
        def start(*args):
            args = [arg.format(tmp=shared) for arg in args]
            if args[-1].endswith("warm"):
                run_cli(args)
            result = self.fresh_python(self.LOADED, *args, options=["-S"])
            loaded, standard = result.stderr.splitlines()[-2:]
            return SimpleNamespace(
                args=args, stdout=result.stdout, loaded=set(loaded.split()), standard=standard.split()
            )

        return start

    @staticmethod
    def fresh_python(probe, *args, options=(), check=True):
        """Run ``probe`` in a new interpreter, started with ``options``,
        that imports this tlkit."""
        env = child_env()
        return subprocess.run(
            [sys.executable, *options, "-c", probe, *args],
            env=env,
            capture_output=True,
            text=True,
            check=check,
        )

    #: Runs ``main`` as ``{entry}`` on the probe's arguments.  An atexit
    #: hook, which runs before finalization, prints last to stderr whether
    #: ``main`` froze more of the collector's heap (CPython 3.12 starts
    #: with a few hundred objects frozen).
    ENTRY = (
        "import atexit, gc, sys\n"
        "from tlkit.cli import main\n"
        "frozen = gc.get_freeze_count()\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > frozen, file=sys.stderr))\n"
        "sys.exit({entry})\n"
    )

    @pytest.mark.parametrize(
        "args,code",
        [
            (["enumerate", "--dim", "3"], cli.EXIT_OK),
            (["enumerate", "--dim", "0"], cli.EXIT_VALIDATION),
            (["enumerate"], cli.EXIT_USAGE),
            (["--help"], cli.EXIT_OK),
        ],
        ids=["ok", "validation", "usage", "help"],
    )
    def test_only_the_program_entry_freezes_the_heap(self, args, code):
        program, call = (
            self.fresh_python(self.ENTRY.format(entry=entry), *args, check=False)
            for entry in ("main()", "main(sys.argv[1:])")
        )
        assert program.returncode == call.returncode == code
        assert program.stdout == call.stdout
        assert program.stderr == call.stderr.removesuffix("False\n") + "True\n"
        # An in-process call leaves the collector as it found it.
        before = gc.get_freeze_count(), gc.isenabled()
        with contextlib.suppress(SystemExit):
            assert run_cli(args)[0] == code
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize(
        "args",
        [
            ["enumerate", "--dim", "3"],
            ["compose", "--dim", "3", "--table"],
            ["verify", "--dim", "4", "--relations", "tl"],
            ["enumerate", "--dim", "12", "--count-only"],
            ["enumerate", "--dim", "3", "--output", "{tmp}/basis.tl"],
            ["enumerate", "--dim", "3", "--cache", "{tmp}/cold"],
            ["enumerate", "--dim", "3", "--cache", "{tmp}/warm"],
            ["compose", "--dim", "2", "--lhs", "TL 2 m=0 (1,2)(3,4)", "--rhs", "TL 2 m=1 (1,3)(2,4)"],
            ["verify", "--dim", "4"],
            ["repr", "--dim", "4"],
            ["repr", "--dim", "3", "--eval-d", "-3"],
            ["verify", "--dim", "4", "--relations", "artin"],
            ["verify", "--dim", "4", "--relations", "all"],
            ["draw", "--dim", "3", "--basis"],
            ["draw", "--dim", "2", "--diagram", "TL 2 m=1 (1,3)(2,4)", "--format", "svg"],
        ],
    )
    def test_subcommand_loads_only_its_modules(self, args, started):
        result = started(*args)
        loaded = result.loaded
        kernel = {"tlkit", "tlkit.cli", "tlkit._backend"}
        if args[0] == "enumerate":
            # Every enumerate route runs on the kernel module alone, and
            # none maps OpenSSL: a warm cache hit hashes with _blake2.
            assert loaded == kernel
            assert not {"hashlib", "_hashlib"} & set(result.standard)
        elif args[0] == "compose":
            # So does every compose route, the table and two operands
            # alike, besides its runner's module.
            assert loaded == kernel | {"tlkit._table"}
        elif args[0] == "draw":
            # Figures are drawn from partner tuples: no diagram module.
            assert loaded == kernel | {"tlkit.drawing"}
        elif args[0] == "repr":
            # The generator maps are read off the walk's pairings and printed
            # with Laurent entries: no diagram module.
            assert loaded == kernel | {"tlkit._csv", "tlkit._relations", "tlkit._values", "tlkit.laurent"}
        elif args[0] == "verify" and args[-1] in ("artin", "all"):
            # So are the Artin relations, decided on the element images.
            assert loaded == kernel | {
                "tlkit._relations",
                "tlkit._values",
                "tlkit.braids",
                "tlkit.laurent",
            }
        else:
            # The TL relations run on the kernel and relation modules alone.
            assert loaded == kernel | {"tlkit._relations"}
        assert not loaded & self.FRONT_END
        assert result.stdout == run_cli(result.args)[1]

    @pytest.mark.parametrize("word", ["-1, 2", "-1,+2"], ids=["space", "plus"])
    def test_a_word_that_starts_with_a_dash_loads_no_front_end(self, word, started):
        # "--word X" reads as "--word=X" without argparse.
        result = started("bracket", "--strands", "3", "--word", word)
        assert not result.loaded & self.FRONT_END
        assert result.stdout == run_cli(["bracket", "--strands", "3", f"--word={word}"])[1]

    @pytest.mark.parametrize("matrix", [[], ["--matrix"]], ids=["element", "matrix"])
    def test_bracket_loads_neither_representation_nor_matrices(self, matrix, started):
        args = ["bracket", "--strands", "4", "--word=1,-2,3,-1", *matrix]
        result = started(*args)
        loaded = result.loaded
        assert "tlkit.braids" in loaded
        assert not loaded & {"tlkit.representation", "tlkit.matrices"}
        assert not loaded & self.FRONT_END
        # Both forms run on partner tuples: no diagram, enumeration or
        # composition module.  The matrix form composes the element image
        # on the walk's pairings, and adds only the CSV writer.
        element = {
            "tlkit",
            "tlkit.cli",
            "tlkit._backend",
            "tlkit._values",
            "tlkit.laurent",
            "tlkit.braids",
        }
        assert loaded == (element | {"tlkit._csv"} if matrix else element)
        assert result.stdout == run_cli(args)[1]

    @pytest.mark.parametrize(
        "args",
        [
            ["enumerate", "--dim", "4"],
            ["enumerate", "--dim", "12", "--count-only"],
            ["compose", "--dim", "4", "--table"],
            ["verify", "--dim", "4", "--relations", "tl"],
            ["bracket", "--strands", "4", "--word=1,-2,3,-1"],
            ["enumerate", "--dim", "4", "--output", "{tmp}/basis.tl"],
            ["enumerate", "--dim", "4", "--cache", "{tmp}/warm"],
            ["bracket", "--strands", "4", "--word=1,-2,3,-1", "--matrix"],
            ["repr", "--dim", "4"],
            ["verify", "--dim", "4", "--relations", "all"],
            ["compose", "--dim", "2", "--lhs", "TL 2 m=0 (1,2)(3,4)", "--rhs", "TL 2 m=1 (1,3)(2,4)"],
            ["draw", "--dim", "2", "--diagram", "TL 2 m=1 (1,3)(2,4)"],
        ],
    )
    def test_only_path_options_load_pathlib(self, args, started):
        # A warm cache hit reads the file's bytes on the main thread.
        result = started(*args)
        path_option = "--output" in args or "--cache" in args
        assert [m for m in result.standard if m in ("pathlib", "mmap", "threading")] == (
            ["pathlib"] if path_option else []
        )
        assert result.stdout == run_cli(result.args)[1]

    def test_only_a_cache_hit_loads_blake2(self, tmp_path, started):
        # A miss records the digest it already knows; only a hit hashes a
        # file, with the interpreter's built-in BLAKE2b, so neither maps
        # OpenSSL.  The warm probe is the warm row of the pathlib test.
        cold = started("enumerate", "--dim", "4", "--cache", str(tmp_path))
        warm = started("enumerate", "--dim", "4", "--cache", "{tmp}/warm")
        hashes = ("hashlib", "_hashlib", "_blake2")
        assert [m for m in cold.standard if m in hashes] == []
        assert [m for m in warm.standard if m in hashes] == ["_blake2"]
        assert cold.stdout == warm.stdout == run_cli(["enumerate", "--dim", "4"])[1]

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_load_no_diagram_module(self, flag):
        probe = (
            "import sys\n"
            "from tlkit.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(*(m for m in sys.modules if m.startswith('tlkit') or m == 'argparse'), file=sys.stderr)\n"
        )
        loaded = set(self.fresh_python(probe, flag).stderr.split())
        assert "tlkit.cli" in loaded
        assert not loaded & {"tlkit.enumeration", "tlkit.diagrams"}
        if flag == "--help":
            # Help is printed by the argparse parser.
            assert "argparse" in loaded

    def test_lazy_exports(self):
        probe = (
            "import sys, tlkit\n"
            "print([m for m in sys.modules if m.startswith('tlkit.')])\n"
            "print(set(tlkit.__all__) <= set(dir(tlkit)))\n"
        )
        result = self.fresh_python(probe)
        assert result.stdout == "[]\nTrue\n"
        namespace: dict = {}
        exec("from tlkit import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(tlkit.__all__)
        for name in tlkit.__all__:
            value = getattr(tlkit, name)
            assert namespace[name] is value
            assert getattr(sys.modules[value.__module__], name) is value
        assert set(tlkit.__all__) <= set(dir(tlkit))
        with pytest.raises(AttributeError, match="no_such_name"):
            tlkit.no_such_name


@pytest.mark.parametrize(
    "args,first",
    [
        (["enumerate", "--dim", "10"], b"TL 10 m=0 (1,2)(3,4)(5,6)(7,8)(9,10)"),
        (["repr", "--dim", "7"], b"# generator U_1, dimension 7, basis size 428"),
    ],
)
def test_a_reader_that_leaves_early_gets_no_traceback(args, first):
    # ``tlkit ... | head -1``: the output is far larger than a pipe holds,
    # so the writer is still writing when the reader closes its end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "tlkit.cli", *args],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert line.startswith(first)
    assert (proc.wait(), err) == (cli.EXIT_VALIDATION, b"")


@pytest.mark.parametrize(
    "stdout",
    [
        pytest.param(
            (os.POSIX_SPAWN_OPEN, 1, "/dev/full", os.O_WRONLY, 0),
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            id="full",
        ),
        pytest.param((os.POSIX_SPAWN_CLOSE, 1), id="closed"),
    ],
)
def test_a_failed_stdout_write_gets_one_error_line(stdout):
    # ``tlkit ... > /dev/full`` and ``tlkit ... >&-``: exit 1 with one
    # line, as a failed ``--output`` write, and no traceback.
    read, write = os.pipe()
    try:
        argv = [sys.executable, "-m", "tlkit.cli", "enumerate", "--dim", "3"]
        actions = [stdout, (os.POSIX_SPAWN_DUP2, write, 2)]
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    finally:
        os.close(write)
    with open(read, "rb") as pipe:
        err = pipe.read().decode()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_out_of_memory_gets_one_error_line(monkeypatch, capsys):
    # repr --dim 11 holds a CSV of about 69 GB whole and fails to allocate
    # it; the real command is never run here.
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "run", exhausted)
    assert cli.main(["repr", "--dim", "11"]) == cli.EXIT_VALIDATION == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


def _dense_csv(size, blocks):
    lines = []
    for header, columns in blocks:
        lines.append(header)
        columns = [*columns, *[{}] * (size - len(columns))]
        for j in range(size):
            lines.append(",".join(column.get(j, "0") for column in columns))
    return "\n".join(lines) + "\n"


@st.composite
def sparse_blocks(draw):
    size = draw(st.integers(1, 12))
    texts = st.sampled_from(["d", "1", "-A^2+A^-2", "7"])
    # a column lists its rows in any order; unlisted columns are zero
    column = st.dictionaries(st.integers(0, size - 1), texts)
    blocks = st.lists(st.tuples(st.just("# block"), st.lists(column, max_size=size)), min_size=1, max_size=3)
    return size, draw(blocks)


@given(sparse_blocks())
def test_sparse_csv_equals_the_dense_rows(case):
    size, blocks = case
    assert sparse_csv(size, blocks) == _dense_csv(size, blocks)


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    namespace: dict = {}
    exec(block.group(1), namespace)
    assert namespace["report"].passed


class TestCompose:
    def test_inline(self):
        code, out = run_cli(
            [
                "compose",
                "--dim",
                "2",
                "--lhs",
                "TL 2 m=0 (1,2)(3,4)",
                "--rhs",
                "TL 2 m=0 (1,2)(3,4)",
            ]
        )
        assert (code, out) == (0, "TL 2 m=1 (1,2)(3,4)\n")

    def test_loop_exponents_carried(self):
        code, out = run_cli(
            [
                "compose",
                "--dim",
                "2",
                "--lhs",
                "TL 2 m=2 (1,2)(3,4)",
                "--rhs",
                "TL 2 m=1 (1,3)(2,4)",
            ]
        )
        assert (code, out) == (0, "TL 2 m=3 (1,2)(3,4)\n")

    def test_file_argument(self, tmp_path):
        f = tmp_path / "lhs.tl"
        f.write_text("TL 2 m=0 (1,3)(2,4)\n")
        code, out = run_cli(
            ["compose", "--dim", "2", "--lhs", str(f), "--rhs", "TL 2 m=0 (1,2)(3,4)"]
        )
        assert (code, out) == (0, "TL 2 m=0 (1,2)(3,4)\n")

    def test_long_inline_lines_match_file_route(self, tmp_path, monkeypatch):
        # A dim-40 line is longer than a file name may be; probing it as a
        # path must not stop it from being parsed inline.
        monkeypatch.setenv("TLKIT_MAX_DIM", "40")
        lhs = str(identity_diagram(40))
        rhs = str(generator_diagram(40, 7))
        assert len(lhs) > 255
        lhs_file, rhs_file = tmp_path / "lhs.tl", tmp_path / "rhs.tl"
        lhs_file.write_text(lhs + "\n")
        rhs_file.write_text(rhs + "\n")
        inline = run_cli(["compose", "--dim", "40", "--lhs", lhs, "--rhs", rhs])
        via_files = run_cli(
            ["compose", "--dim", "40", "--lhs", str(lhs_file), "--rhs", str(rhs_file)]
        )
        assert inline == via_files == (0, rhs + "\n")

    def test_table_dim2(self):
        code, out = run_cli(["compose", "--dim", "2", "--table"])
        assert code == 0
        assert out == "lhs/rhs,1,2\n1,1:1,1:0\n2,1:0,2:0\n"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_cells_match_compose(self, n):
        basis = enumerate_diagrams(n)
        code, out = run_cli(["compose", "--dim", str(n), "--table"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["lhs/rhs"] + [str(j) for j in range(1, len(basis) + 1)]
        assert len(rows) == len(basis) + 1
        for i, lhs in enumerate(basis, start=1):
            products = [compose(lhs, rhs) for rhs in basis]
            assert rows[i] == [str(i)] + [
                f"{basis.index_of(p.diagram) + 1}:{p.loop_exponent}" for p in products
            ]

    def test_dimension_mismatch(self):
        assert (
            cli.main(
                ["compose", "--dim", "3", "--lhs", "TL 2 m=0 (1,2)(3,4)", "--rhs", "TL 2 m=0 (1,2)(3,4)"]
            )
            == cli.EXIT_VALIDATION
        )

    def test_requires_operands_or_table(self, capsys):
        for options, message in [
            ([], "compose needs --table or both --lhs and --rhs"),
            (["--table", "--lhs", "X", "--rhs", "Y"], "compose takes --table or --lhs and --rhs, not both"),
            (["--table", "--rhs", "Y"], "compose takes --table or --lhs and --rhs, not both"),
        ]:
            assert cli.main(["compose", "--dim", "3", *options]) == cli.EXIT_VALIDATION
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestRepr:
    def test_single_generator(self):
        code, out = run_cli(["repr", "--dim", "2", "--gen", "1", "--include-identity"])
        assert code == 0
        assert out == (
            "# generator U_1, dimension 2, basis size 2, identity included\n"
            "d,1\n0,0\n"
        )

    def test_eval_d(self):
        code, out = run_cli(
            ["repr", "--dim", "2", "--gen", "1", "--include-identity", "--eval-d", "2"]
        )
        assert code == 0
        assert out.splitlines()[1:] == ["2,1", "0,0"]

    def test_all_has_three_blocks(self):
        _, out = run_cli(["repr", "--dim", "4", "--gen", "all"])
        assert out.count("# generator") == 3

    def test_invalid_generator(self):
        assert cli.main(["repr", "--dim", "4", "--gen", "9"]) == cli.EXIT_VALIDATION


class TestVerify:
    def test_all_relations_pass(self):
        code, out = run_cli(["verify", "--dim", "3", "--relations", "all"])
        assert code == 0
        assert "FAIL" not in out

    def test_artin_keeps_a_raised_ceiling(self, monkeypatch):
        from tlkit import _backend

        monkeypatch.setattr(_backend, "DEFAULT_MAX_DIMENSION", 3)
        monkeypatch.setenv("TLKIT_MAX_DIM", "4")
        code, out = run_cli(["verify", "--dim", "4", "--relations", "artin"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Artin relations in the bracket image, 4 strands"
        assert lines[-1] == "overall: PASS"

    def test_artin_builds_no_basis(self, monkeypatch):
        # Each Artin relation is decided on the element images, so neither
        # the command nor the library call walks or builds a basis.
        def refuse(*args):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(_backend, "enumerate_pairings", refuse)
        monkeypatch.setattr(enumeration, "_basis", refuse)
        expected = (GOLDEN / "verify_dim6_artin.txt").read_text(encoding="utf-8")
        assert run_cli(["verify", "--dim", "6", "--relations", "artin"]) == (0, expected)
        assert "\n".join(verify_artin(6).lines()) + "\n" == expected

    def test_failure_exit_code(self, monkeypatch):
        broken = ("forced", (("forced check", False),), ())
        monkeypatch.setattr(_relations, "map_report", lambda maps: broken)
        code, out = run_cli(["verify", "--dim", "2"])
        assert code == cli.EXIT_VERIFICATION
        assert "forced check: FAIL" in out

    def test_failure_prints_witness(self, monkeypatch):
        original = _backend.generator_maps

        def corrupted(pairings, indices, include_identity):
            rows, out = original(pairings, indices, include_identity)
            targets, exponents = out[0]
            # column 0 maps to row 1 without a loop; send it to itself
            out[0] = ((0,) + targets[1:], exponents)
            return rows, out

        # ``ordered_maps`` reads the maps it verifies from the backend
        monkeypatch.setattr(_backend, "generator_maps", corrupted)
        code, out = run_cli(["verify", "--dim", "3"])
        assert code == cli.EXIT_VERIFICATION
        lines = out.splitlines()
        at = lines.index("U_1^2 = d*U_1: FAIL")
        assert lines[at + 1] == (
            "  first differing column 0: expected d in row 0, got 1 in row 0"
        )

    def test_diagram_failure_prints_both_sides(self, monkeypatch):
        original = _backend.compose_pairings

        def loopless(bottom, top):
            return original(bottom, top)[0], 0

        monkeypatch.setattr(_backend, "compose_pairings", loopless)
        code, out = run_cli(["verify", "--dim", "3"])
        assert code == cli.EXIT_VERIFICATION
        lines = out.splitlines()
        diagram = lines[lines.index("Temperley-Lieb relations, diagram level") :]
        # U_k^2 loses its loop; the braided relations close none
        assert diagram[1:] == [
            "U_1^2 = d*U_1: FAIL",
            "  expected TL 3 m=1 (1,2)(3,6)(4,5), got TL 3 m=0 (1,2)(3,6)(4,5)",
            "U_2^2 = d*U_2: FAIL",
            "  expected TL 3 m=1 (1,4)(2,3)(5,6), got TL 3 m=0 (1,4)(2,3)(5,6)",
            "U_1*U_2*U_1 = U_1: PASS",
            "U_2*U_1*U_2 = U_2: PASS",
            "overall: FAIL",
        ]
        # The map check reads no composition and still passes.
        assert "overall: PASS" in lines[: lines.index(diagram[0])]


class TestBracket:
    def test_empty_word(self):
        code, out = run_cli(["bracket", "--strands", "3"])
        assert code == 0
        assert out.splitlines()[1] == "1\tTL 3 m=0 (1,4)(2,5)(3,6)"

    def test_word_terms(self):
        code, out = run_cli(["bracket", "--strands", "2", "--word", "1"])
        assert code == 0
        assert out.splitlines()[1:] == [
            "A^-1\tTL 2 m=0 (1,2)(3,4)",
            "A\tTL 2 m=0 (1,3)(2,4)",
        ]

    def test_matrix_form(self):
        code, out = run_cli(["bracket", "--strands", "2", "--word", "1,-1", "--matrix"])
        assert code == 0
        assert out.splitlines()[1:] == ["1,0", "0,1"]

    def test_matrix_form_keeps_a_raised_ceiling(self, monkeypatch):
        from tlkit import _backend

        monkeypatch.setattr(_backend, "DEFAULT_MAX_DIMENSION", 3)
        monkeypatch.setenv("TLKIT_MAX_DIM", "4")
        code, out = run_cli(["bracket", "--strands", "4", "--word=1,-2,3,-1", "--matrix"])
        assert code == 0
        assert out == (GOLDEN / "bracket_4_matrix.csv").read_text(encoding="utf-8")

    def test_bad_letter(self):
        assert cli.main(["bracket", "--strands", "2", "--word", "5"]) == cli.EXIT_VALIDATION

    def test_empty_letter_is_named(self, capsys):
        code = cli.main(["bracket", "--strands", "3", "--word", "1,,2"])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: braid word '1,,2' must be comma-separated signed integers\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["bracket", "--strands", "12", "--word=1_1"],
            "braid word '1_1' must be comma-separated signed integers",
        ),
        (
            ["bracket", "--strands", "3", "--word=\u0661,-\u0662"],
            "braid word '\u0661,-\u0662' must be comma-separated signed integers",
        ),
        (
            ["compose", "--dim", "2", "--lhs", "TL \u0662 m=0 (1,2)(3,4)", "--rhs", "TL 2 m=0 (1,3)(2,4)"],
            "malformed diagram line: 'TL \u0662 m=0 (1,2)(3,4)'",
        ),
        # --gen takes what a braid letter takes.
        (
            ["repr", "--dim", "3", "--gen", "1_0"],
            "generator index must be an integer or 'all', got '1_0'",
        ),
        (
            ["repr", "--dim", "3", "--gen", "\u0661"],
            "generator index must be an integer or 'all', got '\u0661'",
        ),
    ],
    ids=[
        "bracket-underscore",
        "bracket-arabic-indic-digits",
        "compose-arabic-indic-digits",
        "repr-gen-underscore",
        "repr-gen-arabic-indic-digits",
    ],
)
def test_text_formats_read_ascii_digits_only(argv, message, capsys):
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "size, eval_d, ceiling",
    [("1_0", "2_0", "1_3"), ("\u0661\u0660", "\u0662", "\u0661\u0663")],
    ids=["underscore", "arabic-indic-digits"],
)
def test_integer_options_and_the_ceiling_read_ascii_digits_only(size, eval_d, ceiling, monkeypatch, capsys):
    # The integer options take what a braid letter takes: anything else is
    # argparse's usage error, as for any other value it cannot convert.
    for argv, value in (
        (["enumerate", "--dim", size, "--count-only"], size),
        (["bracket", f"--strands={size}"], size),
        (["repr", "--dim", "3", "--gen", "1", "--eval-d", eval_d], eval_d),
        (["repr", "--dim", "3", f"--eval-d=-{eval_d}"], "-" + eval_d),
    ):
        with pytest.raises(SystemExit) as exit:
            cli.main(argv)
        assert exit.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f": invalid int value: {value!r}\n")
    # TLKIT_MAX_DIM is read by the same rule, and refused with one line.
    monkeypatch.setenv("TLKIT_MAX_DIM", ceiling)
    assert cli.main(["enumerate", "--dim", "13", "--count-only"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: TLKIT_MAX_DIM must be an integer, got {ceiling!r}\n")


@pytest.mark.parametrize("gen", [" 1", "+1"])
def test_generator_index_reads_as_a_letter(gen):
    assert run_cli(["repr", "--dim", "3", "--gen", gen]) == run_cli(["repr", "--dim", "3", "--gen", "1"])


@pytest.mark.parametrize("space", ["\u2003", "\x85"], ids=["em-space", "next-line"])
@pytest.mark.parametrize(
    "where, text",
    [
        ("word", "{s}1,-2{s}"),
        ("word", "1,{s}2"),
        ("word", "{s}"),
        ("inline", "{s}TL 2 m=0 (1,2)(3,4){s}"),
        ("inline", "TL 2{s}m=0 (1,2)(3,4)"),
        ("file", "{s}TL 2 m=0 (1,2)(3,4){s}"),
        ("file", "TL 2 m=0{s}(1,2)(3,4)"),
    ],
    ids=["word-around", "word-inside", "word-alone", "line-around", "line-inside", "file-around", "file-inside"],
)
def test_text_formats_read_ascii_spaces_only(where, text, space, tmp_path, capsys):
    """Both text formats strip and split on the spaces of ``re.ASCII``'s
    ``\\s`` alone; any other Unicode space is refused, with the message
    of any other malformed text."""
    text = text.format(s=space)
    if where == "word":
        argv = ["bracket", "--strands", "3", f"--word={text}"]
        message = f"braid word {text!r} must be comma-separated signed integers"
    else:
        operand = text
        if where == "file":
            (tmp_path / "lhs.txt").write_text(text + "\n", encoding="utf-8")
            operand = str(tmp_path / "lhs.txt")
        argv = ["compose", "--dim", "2", "--lhs", operand, "--rhs", "TL 2 m=0 (1,3)(2,4)"]
        message = f"malformed diagram line: {text!r}"
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestDraw:
    def test_basis_svg(self):
        code, out = run_cli(["draw", "--dim", "4", "--basis", "--format", "svg"])
        assert code == 0
        assert out.count("<g ") == 14

    def test_single_diagram_tikz(self):
        code, out = run_cli(
            ["draw", "--dim", "2", "--diagram", "TL 2 m=0 (1,3)(2,4)"]
        )
        assert code == 0
        assert out.count(" -- ") == 2

    def test_needs_target(self, capsys):
        for options, message in [
            ([], "draw needs --basis or --diagram"),
            (["--basis", "--diagram", "garbage"], "draw takes --basis or --diagram, not both"),
        ]:
            assert cli.main(["draw", "--dim", "3", *options]) == cli.EXIT_VALIDATION
            assert capsys.readouterr() == ("", f"error: {message}\n")


# Each subcommand with its size option and the least size it takes.
SIZED = [
    (["enumerate"], "--dim", "dimension", 1),
    (["compose", "--table"], "--dim", "dimension", 1),
    (["repr"], "--dim", "dimension", 2),
    (["verify"], "--dim", "dimension", 2),
    (["bracket"], "--strands", "strand count", 1),
    (["draw", "--basis"], "--dim", "dimension", 1),
]


@pytest.mark.parametrize("args,option,name,least", SIZED, ids=[s[0][0] for s in SIZED])
def test_sizes_outside_the_rule_exit_one(args, option, name, least, tmp_path, monkeypatch, capsys):
    assert cli.main([*args, option, str(least - 1)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {name} must be at least {least}\n")
    monkeypatch.setenv("TLKIT_MAX_DIM", "3")
    assert cli.main([*args, option, "4"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == (
        "",
        f"error: {name} 4 exceeds the resource ceiling 3 (override with TLKIT_MAX_DIM)\n",
    )
    monkeypatch.setenv("TLKIT_MAX_DIM", "x")
    assert cli.main([*args, option, "2"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: TLKIT_MAX_DIM must be an integer, got 'x'\n")
    # ``run`` reads the ceiling, after ``main`` has checked the output directory.
    missing = tmp_path / "missing"
    assert cli.main([*args, option, "2", "--output", str(missing / "out")]) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: output directory {missing} does not exist\n")


@pytest.mark.parametrize(
    "args,name",
    [
        (["enumerate", "--dim", "1500"], "dimension"),
        (["enumerate", "--dim", "1500", "--count-only"], "dimension"),
        (["enumerate", "--dim", "1500", "--cache", "{tmp}/cache"], "dimension"),
        (["compose", "--dim", "1500", "--table"], "dimension"),
        (["bracket", "--strands", "1500", "--word=1", "--matrix"], "strand count"),
    ],
    ids=["enumerate", "count-only", "cache", "compose-table", "bracket-matrix"],
)
def test_walks_too_deep_to_run_exit_one(args, name, tmp_path, monkeypatch, capsys):
    # Above the ceiling a user may raise, the walks' recursion depth is the
    # limit: refused with one line before the walk starts, no traceback.
    monkeypatch.setenv("TLKIT_MAX_DIM", "3000")
    assert cli.main([arg.format(tmp=tmp_path) for arg in args]) == cli.EXIT_VALIDATION
    deepest = sys.getrecursionlimit() // 4
    assert capsys.readouterr() == (
        "",
        f"error: {name} 1500 exceeds the search depth limit {deepest}\n",
    )
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "args,name",
    [
        (["verify", "--dim", "130"], "dimension"),
        (["repr", "--dim", "130"], "dimension"),
        (["compose", "--dim", "130", "--table"], "dimension"),
        (["draw", "--dim", "130", "--basis"], "dimension"),
        (["bracket", "--strands", "130", "--word=1", "--matrix"], "strand count"),
    ],
    ids=["verify", "repr", "compose-table", "draw-basis", "bracket-matrix"],
)
def test_basis_walks_wider_than_a_byte_exit_one(args, name, monkeypatch, capsys):
    # Below the depth limit, the walk's rows hold each partner in a byte,
    # so a basis above dimension 127 is refused with one line before the
    # walk takes a step: a walk of dimension 130 has about 2^130 search
    # states and would never end.  The refusal names the option, as the
    # depth limit's does.
    def refuse(matched, n):
        raise AssertionError("the walk started")

    monkeypatch.setattr(_backend, "_partners", refuse)
    monkeypatch.setenv("TLKIT_MAX_DIM", "130")
    assert cli.main(args) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {name} 130 out of range 1..127\n")


def test_routes_with_no_basis_walk_run_above_the_byte_bound(monkeypatch):
    # The count reads Catalan(N) off the depth rule alone, and two diagram
    # arguments compose as tuples, at any dimension the ceiling allows.
    monkeypatch.setenv("TLKIT_MAX_DIM", "200")
    assert run_cli(["enumerate", "--dim", "200", "--count-only"]) == (0, f"{catalan(200)}\n")
    lhs, rhs = str(generator_diagram(150, 7)), str(generator_diagram(150, 149))
    product = compose(generator_diagram(150, 7), generator_diagram(150, 149))
    assert product.loop_exponent == 0
    assert run_cli(["compose", "--dim", "150", "--lhs", lhs, "--rhs", rhs]) == (0, f"{product}\n")


def run_parsed(argv):
    """``cli.run`` on parsed arguments, so its ValueError reaches the test."""
    return cli.run(cli.build_parser().parse_args(argv))


def rebuilt_u1(**changes):
    """The dimension-4 map of U_1 rebuilt through the public constructor,
    with ``changes`` to its fields."""
    u = generator_matrices(enumerate_diagrams(4))[0]
    fields = {name: getattr(u, name) for name in GeneratorMatrix._fields}
    return GeneratorMatrix(**{**fields, **changes})


def with_repeated_u1():
    """A second, different U_1 followed by the dimension-4 generator maps."""
    mats = generator_matrices(enumerate_diagrams(4))
    broken = GeneratorMatrix(1, mats[0].basis_order, (0,) * 13, mats[0].exponents)
    return [broken] + mats


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda d: TLElement(2, "d", ((d, 5),)), "is not a (PlanarDiagram, LaurentPoly) pair"),
        (lambda d: TLElement(2, "d", 5), "terms must be (diagram, coefficient) pairs"),
        (lambda d: TLElement.from_terms(2, "d", [(d, 5)]), "is not a (PlanarDiagram, LaurentPoly) pair"),
        (lambda d: DiagramBasis(2, 5), "diagrams must be a sequence of diagrams"),
        (lambda d: parse(5), "diagram line must be text, got 5"),
        (lambda d: PolyMatrix("x", ()), "unsupported variable 'x'"),
        (lambda d: TLElement(2, "x", ()), "unsupported variable 'x'"),
        (lambda d: TLElement("a", "d", ()), "dimension must be an integer, got 'a'"),
        (lambda d: TLElement.zero(-3, "d"), "dimension must be at least 1"),
        (
            lambda d: PolyMatrix("A", [{-1: LaurentPoly.one("A")}]),
            "column 0 has row -1 outside 0..0",
        ),
        (
            lambda d: PolyMatrix("A", [{5: LaurentPoly.one("A")}]),
            "column 0 has row 5 outside 0..0",
        ),
        (
            lambda d: PolyMatrix("A", [{"a": LaurentPoly.one("A")}]),
            "column 0 has row 'a' outside 0..0",
        ),
        (
            lambda d: PolyMatrix("A", [[5]]),
            "column 0 must be a map or distinct (row, entry) pairs, got [5]",
        ),
        (
            lambda d: PolyMatrix("A", [(), ((2, LaurentPoly.one("A")),)]),
            "column 1 has row 2 outside 0..1",
        ),
        (
            lambda d: PolyMatrix("A", [((0, LaurentPoly.one("A")), (0, LaurentPoly.one("A")))]),
            "column 0 must be a map or distinct (row, entry) pairs, got ((0, LaurentPoly(",
        ),
        (
            lambda d: PolyMatrix("A", [((0, LaurentPoly.one("d")),)]),
            "entries must be LaurentPoly in A, got LaurentPoly(variable='d'",
        ),
        (lambda d: PolyMatrix.from_rows("d", 5), "rows must be sequences of entries, got 5"),
        (
            lambda d: ScaledDiagram(d, 1).with_extra_loops("a"),
            "loop count must be an integer, got 'a'",
        ),
        (lambda d: emit_figure(5, "svg"), "cannot draw 5: not a diagram or sequence"),
        (
            lambda d: emit_figure(["x"], "svg"),
            "cannot draw 'x': not a PlanarDiagram or ScaledDiagram",
        ),
        (lambda d: connectability("a"), "dimension must be an integer, got 'a'"),
        (
            lambda d: is_noncrossing([2.0, 1.0], 1),
            "partners must be integers, given as a sequence",
        ),
        (
            lambda d: run_parsed(["repr", "--dim", "3", "--gen", "abc"]),
            "generator index must be an integer or 'all', got 'abc'",
        ),
        (lambda d: Generator("a", 5), "generator index must be an integer, got 'a'"),
        (lambda d: Generator(7, identity_diagram(3)), "generator index 7 out of range 1..2"),
        (
            lambda d: Generator(1, identity_diagram(3)),
            "expected the diagram of U_1, got PlanarDiagram(dimension=3, pairing=(4, 5, 6, 1, 2, 3))",
        ),
        (
            lambda d: Generator(2, generator_diagram(3, 1)),
            "expected the diagram of U_2, got PlanarDiagram(dimension=3, pairing=(2, 1, 6, 5, 4, 3))",
        ),
        (lambda d: ConnectabilityMatrix(1, 5), "entries must be 2 rows of 2 integers"),
        (lambda d: IdealPartition(2, 5), "blocks must be a sequence of sequences of diagrams"),
        (lambda d: RelationReport("t", 5), "entries must be (text, bool) pairs"),
        (lambda d: enumerate_diagrams(0), "dimension must be at least 1"),
        (lambda d: identity_diagram(-2), "dimension must be at least 1"),
        (lambda d: parse("TL 0 m=0 (1,2)"), "dimension must be at least 1"),
        (lambda d: connectability(0), "dimension must be at least 1"),
        (lambda d: is_noncrossing([], 0), "dimension must be at least 1"),
        (lambda d: PlanarDiagram(0, ()), "dimension must be at least 1"),
        (lambda d: DiagramBasis(0, ()), "dimension must be at least 1"),
        (lambda d: generator_diagram(0, 1), "dimension must be at least 1"),
        (lambda d: representation.generators(1), "dimension must be at least 2"),
        (lambda d: BraidWord(0, ()), "strand count must be at least 1"),
        (lambda d: verify_artin(1), "strand count must be at least 2"),
        (lambda d: verify_artin(13), "strand count 13 exceeds the resource ceiling 12"),
        (
            lambda d: braid_image_matrix(BraidWord(13, ())),
            "strand count 13 exceeds the resource ceiling 12",
        ),
        (
            lambda d: enumerate_diagrams(5, max_dimension=4),
            "dimension 5 exceeds the resource ceiling 4 (override with max_dimension)",
        ),
        (lambda d: d.partner(0), "node 0 out of range 1..4"),
        (lambda d: d.partner(5), "node 5 out of range 1..4"),
        (lambda d: d.partner("a"), "node must be an integer, got 'a'"),
        (lambda d: connectability(3).partners(0), "node 0 out of range 1..6"),
        (lambda d: connectability(3).value(0, 0), "node 0 out of range 1..6"),
        (lambda d: connectability(3).value(1, 7), "node 7 out of range 1..6"),
        (lambda d: connectability(2).zeroed(1, [0]), "node 0 out of range 1..4"),
        (
            lambda d: restrict_connectability({}, 0, connectability(2)),
            "node 0 out of range 1..4",
        ),
        (
            lambda d: restrict_connectability({"a": 2}, 1, connectability(2)),
            "restrict_connectability needs a map of nodes to partners",
        ),
        (
            lambda d: GeneratorMatrix("x", (), (), ()),
            "generator index must be an integer, got 'x'",
        ),
        (
            lambda d: representation.generator_matrix(1, enumerate_diagrams(3), None),
            "include_identity must be a bool, got None",
        ),
        (lambda d: rebuilt_u1(generator_index=-1), "generator index -1 out of range 1..3"),
        (lambda d: rebuilt_u1(generator_index=4), "generator index 4 out of range 1..3"),
        (
            lambda d: GeneratorMatrix(1, ("x", "y"), (0, 1), (0, 0)),
            "basis order must hold PlanarDiagrams, got 'x'",
        ),
        (
            lambda d: GeneratorMatrix(1, (d, identity_diagram(3)), (0, 1), (0, 0)),
            "basis order must hold diagrams of dimension 2, got PlanarDiagram(dimension=3",
        ),
        (
            lambda d: GeneratorMatrix(1, (), (), ()),
            "basis order must hold at least one diagram",
        ),
        (
            lambda d: representation.ideal_partition(enumerate_diagrams(3), "no"),
            "include_identity must be a bool, got 'no'",
        ),
        (
            lambda d: representation.representation_basis(enumerate_diagrams(3), 1),
            "include_identity must be a bool, got 1",
        ),
        (
            lambda d: enumerate_diagrams(5, max_dimension="a"),
            "max_dimension must be an integer, got 'a'",
        ),
        (lambda d: BraidWord.from_text(3, None), "braid word must be text, got None"),
        (
            lambda d: TLElement.from_diagram(None),
            "from_diagram needs a PlanarDiagram, got None",
        ),
        (
            lambda d: TLElement.from_diagram(d, 5),
            "the coefficient must be a LaurentPoly, got 5",
        ),
        (
            lambda d: TLElement.from_diagram(d, LaurentPoly.one("A"), variable="d"),
            "the coefficient is in 'A', not in variable 'd'",
        ),
        (
            lambda d: TLElement.from_diagram(d).scaled(None),
            "factor must be a LaurentPoly or an integer, got None",
        ),
        (lambda d: LaurentPoly.monomial("d", [5]), "exponent must be an integer, got [5]"),
        (
            lambda d: PolyMatrix("A", 5),
            "columns must be a sequence of columns, got 5",
        ),
        (
            lambda d: representation.verify_tl_relations(with_repeated_u1()),
            "generator index 1 is repeated",
        ),
        (
            lambda d: RelationReport("t", (("a", True),), (("a", "x"), ("b", "y"))),
            "witness 'a' names no failed entry",
        ),
        (lambda d: DiagramBasis(2, (d, d)), "basis contains duplicates"),
        (lambda d: PlanarDiagram(1, (3, 1)), "partner 3 of node 1 out of range 1..2"),
        (
            lambda d: restrict_connectability({}, 2, connectability(2)),
            "all nodes below 2 must be matched",
        ),
        (
            lambda d: TLElement(2, "d", ((d, LaurentPoly.zero("d")),)),
            "zero terms must not be stored",
        ),
        (
            lambda d: TLElement(
                2, "d", ((d, LaurentPoly.one("d")), (generator_diagram(2, 1), LaurentPoly.one("d")))
            ),
            "terms must be sorted by diagram and duplicate-free",
        ),
        (
            lambda d: TLElement.from_diagram(d) + TLElement.from_diagram(d, None, "A"),
            "coefficient variable mismatch",
        ),
        (
            lambda d: TLElement.from_diagram(d).scaled(LaurentPoly.one("A")),
            "coefficient variable mismatch",
        ),
        (lambda d: LaurentPoly.one("d") ** -1, "negative powers of a polynomial are not defined"),
        (
            lambda d: PolyMatrix.identity(1, "d") * PolyMatrix.identity(1, "A"),
            "matrix variable mismatch",
        ),
        (
            lambda d: PolyMatrix.identity(1, "d") * PolyMatrix.identity(2, "d"),
            "matrix size mismatch",
        ),
        (lambda d: PolyMatrix.identity(2, "d").entry(-1, -1), "row -1 out of range 0..1"),
        (lambda d: PolyMatrix.identity(2, "d").entry(0, 2), "column 2 out of range 0..1"),
        (lambda d: PolyMatrix.identity(2, "d").column("a"), "column must be an integer, got 'a'"),
        (lambda d: PolyMatrix.identity("x", "d"), "size must be an integer, got 'x'"),
        (lambda d: PolyMatrix.identity(2.5, "d"), "size must be an integer, got 2.5"),
        (lambda d: PolyMatrix.identity(-1, "d"), "size must be at least 0"),
        (lambda d: cli.run(SimpleNamespace(subcommand="bogus")), "unknown subcommand 'bogus'"),
        (
            lambda d: TLElement.from_diagram(d).coefficient(5),
            "coefficient needs a PlanarDiagram, got 5",
        ),
        (
            lambda d: TLElement.from_diagram(d).coefficient(identity_diagram(3)),
            "cannot read a diagram of dimension 3 from an element of dimension 2",
        ),
    ],
    ids=[
        "term", "terms", "from-terms", "basis", "parse", "matrix",
        "element-variable", "element-dimension", "zero-dimension",
        "columns-negative-row", "columns-row-past-end",
        "columns-text-row", "columns-non-mapping", "pairs-row-past-end",
        "pairs-repeated-row", "columns-entry-variable", "rows-non-sequence", "extra-loops-text",
        "draw-non-sequence", "draw-non-diagram",
        "connectability-dimension", "noncrossing-partners",
        "repr-gen", "generator", "generator-index-past-end", "generator-not-u1",
        "generator-not-u2", "connectability-matrix", "ideal-partition",
        "relation-report", "enumerate-size", "identity-size", "parse-size",
        "connectability-size", "noncrossing-size", "diagram-size", "basis-size",
        "generator-diagram-size", "generators-size", "braid-word-size",
        "verify-artin-size", "verify-artin-ceiling", "bracket-matrix-ceiling", "ceiling",
        "partner-zero", "partner-past-end", "partner-text", "partners-zero",
        "value-zero", "value-past-end", "zeroed-zero", "restrict-zero",
        "restrict-text-node", "generator-matrix-index", "generator-matrix-identity",
        "generator-matrix-negative-index", "generator-matrix-index-past-end",
        "generator-matrix-non-diagrams", "generator-matrix-mixed-dimensions",
        "generator-matrix-empty-basis",
        "partition-identity-flag", "basis-identity-flag",
        "ceiling-text", "braid-text", "from-diagram", "from-diagram-coefficient",
        "from-diagram-variable",
        "scaled-factor", "monomial-exponent", "columns-non-sequence",
        "relations-repeated-index", "report-stray-witness",
        "basis-duplicates", "partner-out-of-range", "restrict-unmatched-below",
        "element-zero-term", "element-unsorted-terms", "element-sum-variables",
        "element-scaled-variable", "negative-power", "matrix-product-variables",
        "matrix-product-sizes", "entry-negative", "entry-past-end", "column-text",
        "matrix-identity-text", "matrix-identity-float", "matrix-identity-negative",
        "run-unknown-subcommand", "coefficient-non-diagram", "coefficient-dimension",
    ],
)
def test_malformed_values_raise_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(identity_diagram(2))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda d, e, loop: compose(d, 5), "compose needs two PlanarDiagrams"),
        (lambda d, e, loop: compose(5, d), "compose needs two PlanarDiagrams"),
        (lambda d, e, loop: multiply(e, 5, loop), "expected a TLElement, got 5"),
        (lambda d, e, loop: multiply(5, e, loop), "expected a TLElement, got 5"),
        (lambda d, e, loop: multiply(e, e, 5), "loop value must be a LaurentPoly, got 5"),
        (lambda d, e, loop: serialize(5), "serialize needs a ScaledDiagram, got 5"),
        (lambda d, e, loop: serialize(d), "serialize needs a ScaledDiagram, got PlanarDiagram("),
        (
            lambda d, e, loop: enumerate_diagrams(2).index_of(5),
            "index_of needs a PlanarDiagram, got 5",
        ),
        (
            lambda d, e, loop: representation.ideal_partition(enumerate_diagrams(2)).block_of(5),
            "block_of needs a PlanarDiagram, got 5",
        ),
        (
            lambda d, e, loop: canonical_compare(d, 5),
            "canonical_compare needs PlanarDiagrams, got 5",
        ),
        (
            lambda d, e, loop: canonical_compare(5, d),
            "canonical_compare needs PlanarDiagrams, got 5",
        ),
        (lambda d, e, loop: e - None, "expected a TLElement, got None"),
        (lambda d, e, loop: e + None, "expected a TLElement, got None"),
        (
            lambda d, e, loop: PolyMatrix.identity(2, "d") * 5,
            "expected a PolyMatrix, got 5",
        ),
    ],
    ids=[
        "compose-right", "compose-left", "multiply-right", "multiply-left",
        "multiply-loop", "serialize", "serialize-unscaled", "index-of", "block-of",
        "compare-right", "compare-left", "element-minus", "element-plus",
        "matrix-product",
    ],
)
def test_non_diagram_arguments_raise_value_error(call, message):
    d = identity_diagram(2)
    element = TLElement.from_diagram(d)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(d, element, LaurentPoly.monomial("d", 1))


@functools.cache
def _sampled(*values):
    """``st.sampled_from(values)``, made once per tuple of values: hypothesis
    validates a new strategy on every draw."""
    return st.sampled_from(values)


@st.composite
def argv_lists(draw):
    """Command lines near the exact forms: exact, ``=`` and abbreviated
    options, repeated options, values of every sort, stray tokens, and
    required options left out."""
    name = draw(_sampled(*cli._COMMANDS, "bogus"))
    options = cli._COMMANDS.get(name, cli._COMMANDS["enumerate"])[3]
    argv = [name] if draw(st.integers(0, 19)) else []
    if draw(st.integers(0, 3)):
        argv += [options[0][0], draw(_sampled("2", "3", "4"))]
    for _ in range(draw(st.integers(0, 4))):
        flag, kind, _, _ = draw(_sampled(*options))
        form = draw(_sampled(*["exact"] * 6, *["equals"] * 3, "abbreviated", "stray"))
        # mostly a value of the option's kind, else any of VALUES
        if not draw(st.integers(0, 3)):
            fitting = TestParse.VALUES
        elif isinstance(kind, tuple):
            fitting = list(kind)
        else:
            fitting = {cli._integer_option: ["2", "5", "0"], cli._path: ["out.tl"]}.get(
                kind, ["1,-2", "-1,2", "all", ""]
            )
        value = draw(_sampled(*fitting))
        if form == "stray":
            argv.append(draw(_sampled(*TestParse.STRAYS)))
            continue
        if form == "abbreviated":
            flag = flag[: draw(st.integers(3, len(flag) - 1))]
        if form == "equals":
            argv.append(f"{flag}={value}")
            continue
        argv.append(flag)
        # a switch mostly goes alone, and an option mostly has a value
        usual = draw(st.integers(0, 7)) > 0
        if (kind is not bool) == usual:
            argv.append(value)
    return argv


class TestParse:
    """``cli._parse`` reads what argparse reads, or leaves it to argparse."""

    PARSER = cli.build_parser()

    #: Values and stray tokens that argparse takes, converts or refuses.
    VALUES = [
        "3", "0", "12", "-1", "-2", "", "x", " 4", "tl", "artin", "all", "svg",
        "tikz", "1,-2", "-1,2", "--dim", "a=b", "TL 2 m=0 (1,2)(3,4)", "out.tl",
        "-3", "-.5", "-\u0663", "-1,+2", "-1, 2", "1_0", "\u0661\u0660", "\u0662",
    ]
    STRAYS = ["extra", "-x", "--bogus", "--", "-", "--help", "-h", "--version", "=3", "--dim="]

    @classmethod
    def expected(cls, argv):
        """argparse's fields for ``argv``, or None where it exits."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return vars(cls.PARSER.parse_args(argv))
        except SystemExit:
            return None

    @staticmethod
    def reads_as_word(text):
        """Whether ``BraidWord.from_text`` reads ``text`` as letters; one
        out of range for its strands is still read."""
        try:
            BraidWord.from_text(2, text)
        except ValueError as error:
            return not str(error).startswith("braid word")
        return True

    @classmethod
    def words_joined(cls, argv):
        """``argv`` with each ``--word`` followed by a braid word that starts
        with "-" and that ``BraidWord.from_text`` reads (``-1,2``,
        ``-1,+2``, ``-1, 2``) written as one ``--word=...`` token: the form
        in which argparse reads what ``_parse`` reads from the pair."""
        out = []
        tokens = iter(argv)
        for token in tokens:
            out.append(token)
            if token == "--word":
                value = next(tokens, None)
                if value is not None and value.startswith("-") and cls.reads_as_word(value):
                    out[-1] = f"--word={value}"
                elif value is not None:
                    out.append(value)
        return out

    @settings(max_examples=300, deadline=None)
    @given(argv_lists())
    def test_agrees_with_argparse(self, argv):
        # Where argparse exits, _parse returns None, but for a pair such as
        # "--word -1,2", which _parse reads as argparse reads "--word=-1,2".
        parsed = cli._parse(argv)
        expected = self.expected(self.words_joined(argv))
        if expected is None:
            assert parsed is None
        elif parsed is not None:
            assert vars(parsed) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--dim", "10", "--output", "basis.tl"],
            ["enumerate", "--dim", "11", "--cache", "cache"],
            ["enumerate", "--dim=12", "--count-only"],
            ["compose", "--dim", "6", "--table"],
            ["compose", "--dim", "12", "--lhs", "lhs.txt", "--rhs", "rhs.txt"],
            ["repr", "--dim", "7", "--gen", "2", "--include-identity", "--eval-d=-3"],
            ["verify", "--dim", "6", "--relations", "tl"],
            ["bracket", "--strands", "6", "--word=-1,2,-3", "--matrix"],
            ["bracket", "--strands", "3", "--word", "1,-2", "--word="],
            ["draw", "--dim", "4", "--diagram", "TL 4 m=2 (1,7)(2,3)(4,8)(5,6)", "--format", "svg"],
            # argparse reads a lone negative number as an option's value.
            ["repr", "--dim", "3", "--eval-d", "-3"],
            # An integer option reads spaces and a sign as a braid letter does.
            ["repr", "--dim", "3", "--eval-d", " +2"],
            ["enumerate", "--dim", "-3"],
            ["bracket", "--strands", "3", "--word", "-1.5"],
            ["bracket", "--strands", "3", "--word", "-.5", "--matrix"],
        ],
    )
    def test_takes_the_exact_forms(self, argv):
        parsed = cli._parse(argv)
        assert parsed is not None
        assert vars(parsed) == self.expected(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["--version"],
            ["enumerate", "--help"],
            ["bogus", "--dim", "3"],
            ["enumerate"],
            ["enumerate", "--dim"],
            ["enumerate", "--dim", "x"],
            ["enumerate", "--dim="],
            ["enumerate", "--dim", "-3."],
            ["enumerate", "--di", "3", "--count"],
            ["enumerate", "--dim", "3", "--count-only=1"],
            ["enumerate", "--dim", "3", "extra"],
            ["enumerate", "--dim", "3", "--"],
            ["compose", "--dim", "3", "--table", "--dim"],
            ["verify", "--dim", "3", "--relations", "foo"],
            ["verify", "--dim", "3", "--relations=TL"],
            ["draw", "--dim", "3", "--format", "pdf"],
            ["bracket", "--strands", "3", "--word", "-1,x"],
            ["bracket", "--word=1", "--matrix"],
            ["bracket", "--strands", "3", "--word", "-1,"],
            ["repr", "--dim", "3", "--eval-d", "-.5"],
            ["bracket", "--strands", "3", "--word", "-\u0661,2"],
            ["repr", "--dim", "3", "--gen", "-1,2"],
            # An integer option takes what a braid letter takes.
            ["enumerate", "--dim", "1_0", "--count-only"],
            ["enumerate", "--dim", "\u0661\u0660", "--count-only"],
            ["enumerate", "--dim=1_0"],
            ["bracket", "--strands", "\u0663"],
            ["repr", "--dim", "3", "--gen", "1", "--eval-d", "\u0662"],
            ["repr", "--dim", "3", "--eval-d", "-\u0663"],
        ],
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._parse(argv) is None

    @pytest.mark.parametrize("word", ["-1", "-1,2", "-1,-2,3", "-0,1", "-1,+2", "-1, 2", "-1\t,2"])
    def test_takes_a_word_that_starts_with_a_dash(self, word):
        parsed = cli._parse(["bracket", "--strands", "3", "--word", word, "--matrix"])
        assert vars(parsed) == self.expected(["bracket", "--strands", "3", f"--word={word}", "--matrix"])


#: Values of each option kind for the CLI sweep: sizes that are negative,
#: zero, huge or not integers; empty and malformed words and diagram
#: lines; paths that are missing, directories given as files and files
#: given as directories.  ``{tmp}`` holds ``file``, a one-line diagram
#: file, ``binary``, a file that is not UTF-8, and ``dir``.
SWEEP_VALUES = {
    cli._integer_option: ["-1", "0", "1", "2", "3", "4", "7", "-7", "99999999999999999999", "2.5", "x", ""],
    str: [
        "", ",", "1", "-1", "0", "9", "x", "all", "1,-2,1", "1,,2", "1,x", "--dim",
        "TL 2 m=0 (1,2)(3,4)", "TL 2 m=1 (1,4)(2,3)", "TL 2 m=0 (1,3)(2,4)",
        "TL 2 m=-1 (1,2)(3,4)", "TL 2 m=0 (1,2)", "TL 3", "TL 2 m=0 (1,2)(1,2)",
        "{tmp}/file", "{tmp}/binary", "{tmp}/dir", "{tmp}/missing",
    ],
    cli._path: [
        "{tmp}/out.tl", "{tmp}/file", "{tmp}/dir", "{tmp}/missing/out.tl",
        "{tmp}/file/out.tl", "",
    ],
}

#: TLKIT_MAX_DIM values: every ceiling is 7 or below, so each run is small.
SWEEP_CEILINGS = ["7", "5", "3", "1", "0", "-2", "x", ""]


@st.composite
def cli_lines(draw):
    """A command line from the grammar of ``cli._COMMANDS``, with values
    from ``SWEEP_VALUES``, and a TLKIT_MAX_DIM value."""
    name = draw(_sampled(*cli._COMMANDS, "bogus"))
    options = cli._COMMANDS.get(name, cli._COMMANDS["enumerate"])[3]
    argv = [name]
    # The size option mostly comes first, so most lines get past the usage check.
    chosen = [options[0]] if draw(st.integers(0, 4)) else []
    for flag, kind, _, _ in chosen + draw(st.lists(_sampled(*options), max_size=3)):
        if kind is bool:
            argv.append(flag)
            continue
        values = list(kind) + ["", "TL"] if isinstance(kind, tuple) else SWEEP_VALUES[kind]
        value = draw(_sampled(*values))
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_sampled("--help", "extra", "-1")))
    return argv, draw(_sampled(*SWEEP_CEILINGS))


@settings(max_examples=150)
@given(cli_lines())
def test_cli_sweep(case):
    """No command line ends in a traceback or an unknown exit code, and a
    failure writes nothing to stdout."""
    argv, ceiling = case
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "file").write_text("TL 2 m=0 (1,2)(3,4)\n", encoding="utf-8")
        Path(tmp, "binary").write_bytes(b"\xff\xfe\n")
        Path(tmp, "dir").mkdir()
        argv = [arg.format(tmp=tmp) for arg in argv]
        # A relative path lands in the scratch directory.
        os.chdir(tmp)
        try:
            with mock.patch.dict(os.environ, TLKIT_MAX_DIM=ceiling):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # help, --version and usage errors
                        code = exc.code
        finally:
            os.chdir(cwd)
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if code in {1, 2}:
        assert out.getvalue() == ""
