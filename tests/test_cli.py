import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tlkit
from tlkit import cli, representation
from tlkit.composition import compose
from tlkit.diagrams import parse
from tlkit.enumeration import enumerate_diagrams, identity_diagram
from tlkit.representation import (
    GeneratorMatrix,
    RelationReport,
    generator_diagram,
    generator_matrices,
)

GOLDEN = Path(__file__).parent / "golden"


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
        ],
    )
    def test_matches_golden_and_byte_stable(self, args, golden):
        code1, out1 = run_cli(args)
        code2, out2 = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 == (GOLDEN / golden).read_text(encoding="utf-8")


class TestEnumerate:
    def test_count_only(self):
        code, out = run_cli(["enumerate", "--dim", "4", "--count-only"])
        assert (code, out) == (0, "14\n")

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

    def test_ceiling_and_env_override(self, monkeypatch):
        assert cli.main(["enumerate", "--dim", "13", "--count-only"]) == cli.EXIT_VALIDATION
        monkeypatch.setenv("TLKIT_MAX_DIM", "4")
        assert cli.main(["enumerate", "--dim", "5", "--count-only"]) == cli.EXIT_VALIDATION
        monkeypatch.setenv("TLKIT_MAX_DIM", "5")
        code, out = run_cli(["enumerate", "--dim", "5", "--count-only"])
        assert (code, out) == (0, "42\n")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate"])
        assert exc.value.code == cli.EXIT_USAGE

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

    def test_missing_output_directory_rejected_before_computing(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run", lambda config: calls.append(config))
        target = tmp_path / "missing" / "basis.tl"
        code = cli.main(["enumerate", "--dim", "3", "--output", str(target)])
        assert code == cli.EXIT_VALIDATION
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

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
        text = "TL 1 m=0 (1,2)\n" * 1000
        if failure == "encode":
            # a lone surrogate has no UTF-8 form, so the write fails part way
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
        _, first = run_cli(["enumerate", "--dim", "4", "--cache", str(cache)])
        (cache / "basis_v1_dim4.tl").write_text("TL 4 m=0 (1,2)(3,4)(5,6)(7,8)\n")
        _, repaired = run_cli(["enumerate", "--dim", "4", "--cache", str(cache)])
        assert repaired == first


class TestStartup:
    def test_version_names_the_kernels(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "tlkit 0.1.0 (python kernels)\n"

    def test_import_leaves_numpy_unloaded(self):
        src = str(Path(tlkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, tlkit; print('numpy' in sys.modules, tlkit.kernel_backend())"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout == "False python\n"

    @staticmethod
    def fresh_python(probe, *args):
        """Run ``probe`` in a new interpreter that imports this tlkit."""
        src = str(Path(tlkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
        )

    @pytest.mark.parametrize(
        "args", [["enumerate", "--dim", "3"], ["compose", "--dim", "3", "--table"]]
    )
    def test_subcommand_loads_only_its_modules(self, args):
        probe = (
            "import sys\n"
            "from tlkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(*(m for m in sys.modules if m.startswith('tlkit')), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        result = self.fresh_python(probe, *args)
        loaded = set(result.stderr.split())
        assert loaded >= {"tlkit.cli", "tlkit.enumeration"}
        unused = {"representation", "braids", "laurent", "matrices", "drawing"}
        assert not loaded & {f"tlkit.{name}" for name in unused}
        assert result.stdout == run_cli(args)[1]

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

    @pytest.mark.parametrize("n", range(1, 6))
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

    def test_requires_operands_or_table(self):
        assert cli.main(["compose", "--dim", "2"]) == cli.EXIT_VALIDATION


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

    def test_failure_exit_code(self, monkeypatch):
        broken = RelationReport("forced", (("forced check", False),))
        monkeypatch.setattr(representation, "verify_tl_relations", lambda m: broken)
        code, out = run_cli(["verify", "--dim", "2"])
        assert code == cli.EXIT_VERIFICATION
        assert "forced check: FAIL" in out

    def test_failure_prints_witness(self, monkeypatch):
        def corrupted(basis, include_identity=False):
            mats = generator_matrices(basis, include_identity)
            u = mats[0]
            # column 0 maps to row 1 without a loop; send it to itself
            targets = (0,) + u.targets[1:]
            mats[0] = GeneratorMatrix(1, False, u.basis_order, targets, u.exponents)
            return mats

        monkeypatch.setattr(representation, "generator_matrices", corrupted)
        code, out = run_cli(["verify", "--dim", "3"])
        assert code == cli.EXIT_VERIFICATION
        lines = out.splitlines()
        at = lines.index("U_1^2 = d*U_1: FAIL")
        assert lines[at + 1] == (
            "  first differing column 0: expected d in row 0, got 1 in row 0"
        )


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

    def test_bad_letter(self):
        assert cli.main(["bracket", "--strands", "2", "--word", "5"]) == cli.EXIT_VALIDATION

    def test_empty_letter_is_named(self, capsys):
        code = cli.main(["bracket", "--strands", "3", "--word", "1,,2"])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: braid word '1,,2' must be comma-separated signed integers\n"
        )


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

    def test_needs_target(self):
        assert cli.main(["draw", "--dim", "2"]) == cli.EXIT_VALIDATION
