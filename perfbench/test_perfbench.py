"""Self-tests of the benchmark: seeded job lists, reference checks, the
output checkers and the tracing launcher.

Run from the repository root with: python3 -m pytest perfbench
"""

from __future__ import annotations

import collections
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402


def test_plan_is_deterministic_for_a_seed_and_differs_across_seeds():
    for workload in jobs.WORKLOADS:
        assert jobs.plan(workload, 7) == jobs.plan(workload, 7)
        assert jobs.plan(workload, 7) != jobs.plan(workload, 8)


def test_job_class_counts_do_not_depend_on_the_seed():
    for workload in jobs.WORKLOADS:
        counts = [collections.Counter(job.cls for job in jobs.plan(workload, seed)) for seed in (1, 2, 3)]
        assert counts[0] == counts[1] == counts[2]
        doubled = collections.Counter(job.cls for job in jobs.plan(workload, 1, 2))
        assert doubled == counts[0] + counts[0]


def test_cache_jobs_start_cold():
    caches = collections.defaultdict(list)
    for job in jobs.plan("basis", 5):
        if job.check == "cache":
            caches[job.arg[2]].append(job.cls)
    assert caches and all(roles == ["cache11-cold"] + ["cache11-warm"] * 4 for roles in caches.values())


def test_reference_walk_and_basis_agree_with_tlkit():
    from tlkit import PlanarDiagram, compose, enumerate_diagrams

    rng = random.Random(0)
    for n in (1, 2, 3, 6, 12):
        for _ in range(200):
            a, b = checks.random_pairing(rng, n), checks.random_pairing(rng, n)
            product = compose(PlanarDiagram(n, a), PlanarDiagram(n, b))
            assert checks.compose_walk(a, b, n) == (product.diagram.pairing, product.loop_exponent)
    for n in range(1, 7):
        assert checks.noncrossing_pairings(n) == [d.pairing for d in enumerate_diagrams(n)]


def test_parse_poly_reads_the_cli_format():
    assert checks.parse_poly("0") == {}
    assert checks.parse_poly("-A^2-A^-2") == {2: -1, -2: -1}
    assert checks.parse_poly("3*A^5-2*A+7-A^-3") == {5: 3, 1: -2, 0: 7, -3: -1}
    for bad in ("A^", "2A", "A A", "1-", "*A"):
        try:
            checks.parse_poly(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad!r}")


def _pick(workload: str, prefixes: tuple[str, ...]) -> list[jobs.Job]:
    chosen = []
    for prefix in prefixes:
        chosen.append(next(j for j in jobs.plan(workload, 0) if j.cls.startswith(prefix)))
    return chosen


def _flip_cell(text: str, row: int, col: int) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = "0" if cells[col] != "0" else "1"
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def test_checkers_reject_corrupted_outputs(tmp_path):
    tmp_path = tmp_path / "run"
    element = _pick("algebra", ("bracket6-elem-4",))[0]
    matrix = next(j for j in jobs.plan("algebra", 0) if j.check == "matrix" and j.pair == element.pair)
    selected = _pick("basis", ("enum10",)) + _pick("compose", ("pair12",)) + _pick("algebra", ("repr7",))
    selected += [element, matrix]
    run.prepare(selected, tmp_path)
    results = [
        run.spawn((*run.CLI, *job.argv), tmp_path, tmp_path / f"job{k}.out", run.child_env())
        for k, job in enumerate(selected)
    ]
    assert run.grade(selected, results, tmp_path) == [[]] * len(selected)

    enum10, pair, repr7, element, matrix = selected
    basis_file = tmp_path / enum10.arg[2]
    lines = basis_file.read_text().splitlines(keepends=True)
    basis_file.write_text("".join(lines[:100] + lines[101:]))  # one dropped basis line
    out = results[1].stdout
    out.write_text(out.read_text().replace("m=", "m=1", 1))
    out = results[2].stdout
    out.write_text(_flip_cell(out.read_text(), 5, 7))  # one flipped matrix cell
    # A cell outside the identity column (column 1 is the first basis
    # diagram, not the identity), so only the full cross-check sees it.
    out = results[4].stdout
    out.write_text(_flip_cell(out.read_text(), 3, 0))

    problems = run.grade(selected, results, tmp_path)
    assert [bool(p) for p in problems] == [True, True, True, False, True]
    failed_ratio = sum(1 for p in problems if p) / len(problems)
    assert failed_ratio == 4 / 5


def test_launcher_keeps_stdout_and_records_layers(tmp_path):
    job = _pick("basis", ("cache11-cold",))[0]
    plain = run.spawn((*run.CLI, *job.argv), tmp_path, tmp_path / "plain.out", run.child_env())
    trace_file = tmp_path / "trace.json"
    traced = run.spawn(
        (str(HERE / "launcher.py"), str(trace_file), *job.argv), tmp_path, tmp_path / "traced.out", run.child_env()
    )
    assert plain.code == traced.code == 0
    # The plain run filled the cache, so the traced twin reads it back.
    assert plain.stdout.read_bytes() == traced.stdout.read_bytes()
    metrics = json.loads(trace_file.read_text())["metrics"]
    assert metrics["cli.cache.hit"] == 1 and metrics["cli.cache.miss"] == 0
    assert metrics["cli.output_bytes"] == len(plain.stdout.read_bytes())
    assert metrics["cli.main.calls"] == metrics["cli.run.calls"] == 1
