#!/usr/bin/env python3
"""Compare two sets of benchmark records written by run.py.

Usage: python3 perfbench/compare.py BASE_RECORD... -- CHANGE_RECORD...

Records live in ``.perfbench/results/``.  For every workload and metric
found on both sides, prints each side's median and quartiles and how much
worse the change's median is, against the bound in BENCHMARK.json where
the metric has one.  Records made with different kernel backends measure
different programs, so they are refused (exit code 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, change = load(argv[:cut]), load(argv[cut + 1 :])
    if not base or not change:
        print("error: each side needs at least one record", file=sys.stderr)
        return 2
    backends = {r["kernel_backend"] for r in base + change}
    if len(backends) != 1:
        print(f"error: records use different kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    backend = backends.pop()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in change}):
        print(f"{workload} (kernel backend {backend})")
        sides = [[r for r in rs if r["workload"] == workload] for rs in (base, change)]
        names = sorted(set().union(*(r["metrics"] for r in sides[0])) & set().union(*(r["metrics"] for r in sides[1])))
        for name in names:
            values = [[r["metrics"][name]["value"] for r in side if name in r["metrics"]] for side in sides]
            (b1, bm, b3), (c1, cm, c3) = quartiles(values[0]), quartiles(values[1])
            line = f"  {name}: base {bm:.6g} [{b1:.6g}, {b3:.6g}] n={len(values[0])}  change {cm:.6g} [{c1:.6g}, {c3:.6g}] n={len(values[1])}"
            meta = declared.get(name)
            if meta and bm:
                worse = (cm - bm) / bm if meta["better"] == "lower" else (bm - cm) / bm
                line += f"  worse by {worse:+.2%}"
                if "bound" in meta:
                    line += f" (bound {meta['bound']:.0%}) " + ("REGRESSION" if worse > meta["bound"] else "within bound")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
