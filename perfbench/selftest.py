#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py twice, with --trace 0
and --trace 1, and asserts that the last line is the result object, that
every instance was right, and that the metrics are exactly the ones
BENCHMARK.json names, each with its unit.  Then it runs each workload with
--inject-fault and asserts that the wrong answer shows: a non-zero exit,
correct false, failed above 0 and ok_ratio below 1.  Last, a traced run
writes its spans with --spans, and the file must parse.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(cmd)} printed nothing; stderr:\n{proc.stderr}")
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, f"result keys {sorted(result)}"
    assert result["attempted"] >= 1
    return proc.returncode, result, proc.stdout


def check_metrics(result, spec, where: str):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (
        f"{where}: metrics differ: missing {set(want) - set(got)}, "
        f"extra {set(got) - set(want)}, "
        f"units {[(n, got[n], want[n]) for n in set(got) & set(want) if got[n] != want[n]]}"
    )
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def check_spans():
    path = ROOT / ".bench_results" / "selftest-spans.jsonl"
    path.parent.mkdir(exist_ok=True)
    try:
        code, _, _ = run("certify", 1, "--spans", str(path))
        assert code == 0, f"--spans: exit {code}"
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
    finally:
        path.unlink(missing_ok=True)
    assert spans, "--spans wrote no spans"
    for name, parent, _, start, end in spans:
        assert 0 <= name < len(header["names"]) and -1 <= parent < len(spans) and start <= end
    print("ok spans")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in bench["workloads"]:
        name = w["name"]
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, _ = run(name, trace)
            where = f"{name} --trace {trace}"
            assert code == 0, f"{where}: exit {code}"
            assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
            check_metrics(result, spec, where)
        code, result, out = run(name, 0, "--inject-fault")
        where = f"{name} --inject-fault"
        assert code != 0, f"{where}: exit 0"
        assert not result["correct"] and result["failed"] > 0, f"{where}: {result}"
        assert result["metrics"]["ok_ratio"]["value"] < 1, where
        line = next(l for l in out.splitlines() if l.startswith("failed_ratio"))
        assert float(line.split()[1]) > 0, where
        print(f"ok {name}")
    check_spans()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
