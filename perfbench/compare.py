#!/usr/bin/env python3
"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

A result file holds one JSON record per run, as `run.py --out FILE`
appends them.  With one file, each metric of each workload gets its
median, first and third quartile, and spread (quartile distance over the
median).  With two, each side gets its median and quartiles, and the
ratio NEW/OLD of the medians; an end-to-end metric whose ratio is worse
than its bound in BENCHMARK.json is flagged "worse", one better by more
than the bound "better".
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str):
    """{(workload, trace): {metric: (unit, [values])}} and the stamps."""
    runs = defaultdict(dict)
    stamps = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            stamps.add(f"python {rec['python']}, nproc {rec['nproc']}, {rec['platform']}")
            table = runs[(rec["workload"], rec["trace"])]
            for name, m in rec["metrics"].items():
                table.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return runs, stamps


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _bounds():
    if not BENCHMARK.is_file():
        return {}
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(name, ratio, bounds) -> str:
    if name not in bounds or ratio is None:
        return ""
    better, bound = bounds[name]
    worse = ratio - 1 if better == "lower" else 1 - ratio
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return ""


def fmt(x) -> str:
    return f"{x:.4g}"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    for path, (_, stamps) in zip(argv, sides):
        for s in sorted(stamps):
            print(f"# {path}: {s}")
    bounds = _bounds()
    keys = sorted(set().union(*(runs for runs, _ in sides)))
    for workload, trace in keys:
        print(f"\n{workload} (trace {trace})")
        tables = [runs.get((workload, trace), {}) for runs, _ in sides]
        names = list(dict.fromkeys(n for t in tables for n in t))
        for name in names:
            cells = [name]
            meds = []
            for t in tables:
                if name not in t:
                    cells.append("-")
                    meds.append(None)
                    continue
                unit, values = t[name]
                med, q1, q3 = summary(values)
                meds.append(med)
                cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] {unit} n={len(values)}")
            if len(tables) == 1:
                cells.append(f"spread {fmt((q3 - q1) / med) if med else '-'}")
            else:
                old, new = meds
                ratio = new / old if old and new is not None else None
                cells.append(f"ratio {fmt(ratio) if ratio is not None else '-'}")
                cells.append(verdict(name, ratio, bounds))
            print("  " + "  ".join(c for c in cells if c))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
