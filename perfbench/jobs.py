"""Seeded job lists for the three benchmark workloads.

Every job is one ``tlkit`` command line run as a fresh process.  A
workload's job list holds a fixed number of jobs of each job class (times
``scale``), so the work in a run does not depend on the seed.  The seed
picks the inputs inside each class (braid words, diagram pairs, file and
directory names) and the order of the whole list.

The class counts keep a workload's list near 20-25 s on a shared 2-vCPU
x86-64 host.  One job's time varies by 20-30% (interquartile range over
median) within a run there, so each workload has one class of 10-18
similar jobs that holds both the median job and the job with ten slower
ones after it, near the middle of the class: an order statistic taken
near a class boundary, or near the fast or slow end of a small class,
jumps from run to run.

Paths in job arguments are relative: every job of a run has the run
directory as its working directory, and input files are written there
before the first job starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checks

WORKLOADS = ("basis", "compose", "algebra")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and how to check what it printed.

    ``check`` names a checker in ``checks.CHECKERS``; ``arg`` is the data
    it needs.  ``files`` are (name, text) input files.  The element and
    matrix form of one braid word share a ``pair`` id.
    """

    cls: str
    argv: tuple[str, ...]
    check: str
    arg: object = None
    files: tuple[tuple[str, str], ...] = ()
    pair: str | None = None


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(32):08x}"


def _enumerate(rng: random.Random, dim: int) -> Job:
    name = f"basis-{_token(rng)}.tl"
    argv = ("enumerate", "--dim", str(dim), "--output", name)
    return Job(f"enum{dim}", argv, "basis_file", (f"enumerate-{dim}", dim, name))


def _basis(rng: random.Random, scale: int) -> list[Job]:
    # The median and the tail fall among the 18 dim-10 and counting jobs,
    # which cost about the same.
    jobs = [_enumerate(rng, 10) for _ in range(16 * scale)]
    jobs += [_enumerate(rng, 11) for _ in range(scale)]
    count = ("enumerate", "--dim", "12", "--count-only")
    jobs += [Job("count12", count, "digest", ("count-12", None))] * (2 * scale)
    for _ in range(2 * scale):
        cache = f"cache-{_token(rng)}"
        argv = ("enumerate", "--dim", "11", "--cache", cache)
        jobs += [Job("cache11", argv, "cache", ("enumerate-11", 11, cache))] * 5
    rng.shuffle(jobs)
    # The first job on a cache directory finds it empty (a miss that writes
    # the .tl and .sha256 files); the later ones read it back.
    seen = set()
    for k, job in enumerate(jobs):
        if job.check == "cache":
            role = "warm" if job.arg[2] in seen else "cold"
            seen.add(job.arg[2])
            jobs[k] = Job(f"cache11-{role}", job.argv, job.check, job.arg)
    return jobs


def _pair(rng: random.Random) -> Job:
    lhs, rhs = checks.random_pairing(rng, 12), checks.random_pairing(rng, 12)
    m_lhs, m_rhs = rng.randrange(3), rng.randrange(3)
    product, loops = checks.compose_walk(lhs, rhs, 12)
    expected = checks.diagram_line(product, m_lhs + m_rhs + loops) + "\n"
    tok = _token(rng)
    files = (
        (f"lhs-{tok}.txt", checks.diagram_line(lhs, m_lhs) + "\n"),
        (f"rhs-{tok}.txt", checks.diagram_line(rhs, m_rhs) + "\n"),
    )
    argv = ("compose", "--dim", "12", "--lhs", files[0][0], "--rhs", files[1][0])
    return Job("pair12", argv, "text", expected, files)


def _compose(rng: random.Random, scale: int) -> list[Job]:
    table = {dim: ("compose", "--dim", str(dim), "--table") for dim in (6, 7)}
    # The median and the tail fall among the 16 dim-6 tables.
    jobs = [Job("table7", table[7], "digest", ("table-7", None))] * scale
    jobs += [Job("table6", table[6], "digest", ("table-6", None))] * (16 * scale)
    jobs += [_pair(rng) for _ in range(8 * scale)]
    rng.shuffle(jobs)
    return jobs


def _word(rng: random.Random, strands: int, length: int) -> list[int]:
    letters = [s * i for i in range(1, strands) for s in (1, -1)]
    return [rng.choice(letters) for _ in range(length)]


def _text(letters: list[int]) -> str:
    return ",".join(str(x) for x in letters)


def _algebra(rng: random.Random, scale: int) -> list[Job]:
    # The median and the tail fall among the ten dim-6 TL verifications.
    jobs = [Job("verify6-tl", ("verify", "--dim", "6", "--relations", "tl"), "verify", "verify-6-tl")] * (10 * scale)
    jobs += [Job("verify5-artin", ("verify", "--dim", "5", "--relations", "artin"), "verify", "verify-5-artin")] * scale
    jobs += [Job("repr7", ("repr", "--dim", "7"), "digest", ("repr-7", None))] * scale
    # One 6-strand word of each length keeps the matrix work of a run the
    # same for every seed.  A word may start with a minus sign, so it is
    # passed as --word=W.
    for length in (4, 6, 8) * scale:
        word = _text(_word(rng, 6, length))
        pair = f"w6-{_token(rng)}"
        base = ("bracket", "--strands", "6", f"--word={word}")
        jobs.append(Job(f"bracket6-elem-{length}", base, "element", word, pair=pair))
        jobs.append(Job(f"bracket6-matrix-{length}", base + ("--matrix",), "matrix", word, pair=pair))
    for _ in range(5 * scale):
        w = _word(rng, 8, 6)
        word = _text(w + [-x for x in reversed(w)])
        expected = (
            f"# bracket image of {word} on 8 strands, d = -A^2-A^-2\n"
            f"1\t{checks.diagram_line(checks.identity_pairing(8), 0)}\n"
        )
        argv = ("bracket", "--strands", "8", f"--word={word}")
        jobs.append(Job("bracket8-inverse", argv, "text", expected))
    rng.shuffle(jobs)
    return jobs


_PLANNERS = {"basis": _basis, "compose": _compose, "algebra": _algebra}

#: Untimed job run once before measuring, so that bytecode compilation and
#: the first file-cache fill are not timed.
WARMUP = {
    "basis": ("enumerate", "--dim", "12", "--count-only"),
    "compose": ("compose", "--dim", "6", "--table"),
    "algebra": ("bracket", "--strands", "8", "--word=1,-1"),
}


def plan(workload: str, seed: int, scale: int = 1) -> list[Job]:
    """The seeded job list of a workload; ``scale`` multiplies every class
    count."""
    if workload not in _PLANNERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _PLANNERS[workload](random.Random(f"{workload}:{seed}"), scale)
