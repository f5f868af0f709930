"""Run one tlkit CLI invocation with per-module timing and counters.

Usage: python perfbench/launcher.py TRACE_FILE [CLI ARGUMENTS ...]

Wraps the public functions measured in each module of ``tlkit``, also
where another module imported a function by value (``compose`` in
``representation`` and ``elements``, ``enumerate_diagrams`` in ``cli`` and
so on), then calls ``tlkit.cli.main``.  ``drawing`` is not measured.  Stdout is left to the CLI; the
trace is kept in memory and written to TRACE_FILE as JSON at exit:

* ``metrics``: per timed function ``<name>.calls`` (``.count`` for
  constructors), ``<name>.self_s`` and ``<name>.total_s``, plus counters;
* ``spans``: ``[id, parent, name, start, end]`` for the timed functions
  that run a few times per job.  Functions called ~10^4 times or more per
  job are aggregated only.

Self time is a call's duration minus the time of the timed calls inside
it.  LaurentPoly operators are counted, not timed, so their time stays in
the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter


class Tracer:
    """Timings, counters and spans of one process, kept in memory."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [child seconds, span id] per timed call in progress
        self.stats: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.calls_key: dict[str, str] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[list] = []  # [id, parent id, name, start, end]

    def counter(self, name: str):
        """Register a counter (so that it is reported even when it stays 0)
        and return a function that adds to it."""
        counters = self.counters
        counters.setdefault(name, 0)

        def add(amount: int) -> None:
            counters[name] += amount

        return add

    def counted(self, name: str, fn):
        add = self.counter(name)

        def wrapper(*args, **kwargs):
            add(1)
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn, hot=False, after=None, calls_key="calls"):
        """Wrap fn to add its calls, total and self time to ``name``; a
        ``hot`` function records no span of its own."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.calls_key[name] = calls_key
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = parent if hot else len(spans)
            if not hot:
                spans.append([span, parent, name, 0.0, 0.0])
            frame = [0.0, span]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not hot:
                    spans[span][3:] = [start, end]
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def write(self, path: str) -> None:
        metrics = dict(self.counters)
        for name, (calls, total, self_time) in self.stats.items():
            metrics[f"{name}.{self.calls_key[name]}"] = calls
            metrics[f"{name}.total_s"] = total
            metrics[f"{name}.self_s"] = self_time
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    import tlkit.cli  # noqa: F401  (imports every module of the package)
    from tlkit import (
        _backend,
        braids,
        cli,
        composition,
        diagrams,
        elements,
        enumeration,
        laurent,
        matrices,
        representation,
    )

    modules = [m for name, m in list(sys.modules.items()) if name == "tlkit" or name.startswith("tlkit.")]

    def rebind(module, attr, wrap):
        """Replace ``module.attr`` everywhere tlkit holds it by value."""
        original = getattr(module, attr)
        wrapper = wrap(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    for fn in ("enumerate_pairings", "count_pairings"):
        rebind(_backend, fn, lambda f, fn=fn: tracer.timed(f"kernel.{fn}", f))
    rebind(_backend, "compose_pairings", lambda f: tracer.timed("kernel.compose_pairings", f, hot=True))

    rebind(enumeration, "enumerate_diagrams", lambda f: tracer.timed("enumeration.enumerate_diagrams", f))
    cached_basis = enumeration._basis
    add_diagrams = tracer.counter("enumeration.diagrams")

    def basis(dimension):
        misses = cached_basis.cache_info().misses
        result = cached_basis(dimension)
        if cached_basis.cache_info().misses != misses:
            add_diagrams(len(result))
        return result

    enumeration._basis = basis

    diagram_cls = diagrams.PlanarDiagram
    diagram_cls.__init__ = tracer.timed("diagrams.PlanarDiagram", diagram_cls.__init__, hot=True, calls_key="count")
    rebind(diagrams, "serialize", lambda f: tracer.timed("diagrams.serialize", f, hot=True))
    rebind(diagrams, "parse", lambda f: tracer.timed("diagrams.parse", f))

    add_loops = tracer.counter("composition.loops")
    rebind(
        composition,
        "compose",
        lambda f: tracer.timed("composition.compose", f, hot=True, after=lambda r, a: add_loops(r.loop_exponent)),
    )

    poly = laurent.LaurentPoly
    poly.__init__ = tracer.counted("laurent.LaurentPoly.count", poly.__init__)
    for op in ("__add__", "__radd__", "__neg__", "__sub__", "__mul__", "__rmul__", "__pow__", "shifted", "substitute"):
        setattr(poly, op, tracer.counted("laurent.ops", vars(poly)[op]))

    matrix = matrices.PolyMatrix
    add_cells = tracer.counter("matrices.PolyMatrix.mul.cells")
    matrix.__mul__ = tracer.timed("matrices.PolyMatrix.mul", matrix.__mul__, after=lambda r, a: add_cells(a[0].size ** 3))

    for fn in ("ideal_partition", "generator_matrix", "verify_tl_relations", "verify_tl_relations_diagrams"):
        rebind(representation, fn, lambda f, fn=fn: tracer.timed(f"representation.{fn}", f))
    add_terms = tracer.counter("elements.terms")
    rebind(elements, "multiply", lambda f: tracer.timed("elements.multiply", f, after=lambda r, a: add_terms(len(r.terms))))
    for fn in ("braid_image", "braid_image_matrix", "verify_artin"):
        rebind(braids, fn, lambda f, fn=fn: tracer.timed(f"braids.{fn}", f))

    rebind(cli, "main", lambda f: tracer.timed("cli.main", f))
    add_bytes = tracer.counter("cli.output_bytes")
    rebind(cli, "run", lambda f: tracer.timed("cli.run", f, after=lambda r, a: add_bytes(len(r[1].encode("utf-8")))))
    # A cache lookup that has to build the basis text is a miss.
    rebind(cli, "_basis_lines", lambda f: tracer.counted("cli.basis_lines", f))
    add_hit, add_miss = tracer.counter("cli.cache.hit"), tracer.counter("cli.cache.miss")

    def cache_wrap(f):
        def wrapper(*args, **kwargs):
            built = tracer.counters["cli.basis_lines"]
            result = f(*args, **kwargs)
            (add_miss if tracer.counters["cli.basis_lines"] > built else add_hit)(1)
            return result

        return wrapper

    rebind(cli, "_cached_basis_lines", cache_wrap)


def main() -> None:
    if len(sys.argv) < 2:
        sys.exit("usage: launcher.py TRACE_FILE [CLI ARGUMENTS ...]")
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from tlkit import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.write(trace_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
