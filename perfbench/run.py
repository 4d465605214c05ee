#!/usr/bin/env python3
"""Benchmark for sfvs: one closed-loop caller drives the public API.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sfvs is imported from its src/ and from
nowhere else.  Each instance starts after the previous one returned, and
a pass runs every instance of the workload once.  Passes repeat until
--seconds have gone by (at least one pass).  Every time sample is scaled
to a nominal host speed by HostClock, because a shared VM's speed drifts.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
on untraced passes and half on traced ones and prints the per-layer
metrics; the difference of the two pass medians is trace.overhead_s.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Any wrong or raised instance
makes the exit code 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracer as tracing  # noqa: E402  (perfbench/ is sys.path[0])
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "instance_ms.p50": "ms",
    "instance_ms.p90": "ms",
    "ok_ratio": "ratio",
}
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# the reference routine's time on the nominal host, and the longest time
# between two reference measurements when instances are short
REFERENCE_S = 0.0008
REFERENCE_EVERY_S = 0.02
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import sfvs; print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def reference_s() -> float:
    """Time of a fixed pure-Python routine doing the dict, str and sort
    work that graph building does.  The collector is off, so the size of
    the heap the workload holds does not count."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        groups = {}
        for k in range(1500):
            s = str(k * 7919 % 10007)
            groups.setdefault(s[:2], []).append(s)
        sorted(groups)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostClock:
    """Scales measured times to the nominal host.

    A shared VM's speed can change twofold from one second to the next,
    for wall and CPU time alike.  Each sample is multiplied by REFERENCE_S
    over the mean of the reference times measured just before and just
    after it, so the result is the time the work would take on a host that
    runs the reference routine in REFERENCE_S.
    """

    def __init__(self):
        self.ref = reference_s()
        self.at = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.at >= REFERENCE_EVERY_S

    def scale(self, samples) -> list:
        """Scale the tuples of raw times taken since the last reference."""
        ref = reference_s()
        factor = 2 * REFERENCE_S / (self.ref + ref)
        self.ref, self.at = ref, time.perf_counter()
        return [tuple(v * factor for v in sample) for sample in samples]


def load_sfvs():
    if not (SRC / "sfvs" / "__init__.py").is_file():
        raise BenchError(f"no sfvs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sfvs

    if Path(sfvs.__file__).resolve().parent != SRC / "sfvs":
        raise BenchError(f"imported sfvs from {sfvs.__file__}, not from {SRC}")
    return sfvs


def cold_import_s(clock: HostClock) -> float:
    """Median time of `import sfvs` in fresh interpreters."""
    clock.scale([])
    samples = []
    for _ in range(IMPORT_REPEATS):
        try:
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"import probe failed: {exc}") from None
        samples.append((float(out.stdout.split()[-1]),))
    return statistics.median(t for t, in clock.scale(samples))


class Passes:
    """Timings, scaled by HostClock, and outcomes of the passes of one run;
    raw_walls are the unscaled pass times."""

    def __init__(self):
        self.walls, self.cpus, self.latencies, self.raw_walls = [], [], [], []
        self.attempted = self.failed = 0


def _perturb(value):
    return (not value) if isinstance(value, bool) else ("injected", value)


def run_instance(inst, inject: bool) -> bool:
    try:
        checks = inst.run()
    except Exception as exc:  # a raised instance counts as failed; keep measuring
        print(f"error: {inst.name} raised {exc!r}", file=sys.stderr)
        return False
    if inject:
        label, got, want = checks[0]
        checks[0] = (label, _perturb(got), want)
    bad = [(label, got, want) for label, got, want in checks if got != want]
    for label, got, want in bad:
        print(f"wrong: {inst.name}: {label} = {got!r}, want {want!r}", file=sys.stderr)
    return not bad


def run_passes(instances, seconds: float, clock: HostClock, inject=False, tracer=None) -> Passes:
    """Closed loop over the instances until seconds have elapsed.  With
    inject, the first instance of each pass reports a wrong answer."""
    out = Passes()
    clock.scale([])
    start = time.perf_counter()
    while not out.walls or time.perf_counter() - start < seconds:
        pending, scaled, raw_wall = [], [], 0.0
        for k, inst in enumerate(instances):
            if tracer is not None:
                tracer.instance += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            ok = run_instance(inst, inject and k == 0)
            pending.append((time.perf_counter() - wall0, time.process_time() - cpu0))
            raw_wall += pending[-1][0]
            out.attempted += 1
            out.failed += not ok
            if clock.due():
                scaled += clock.scale(pending)
                pending = []
        scaled += clock.scale(pending)
        out.latencies += [wall for wall, _ in scaled]
        out.walls.append(sum(wall for wall, _ in scaled))
        out.cpus.append(sum(cpu for _, cpu in scaled))
        out.raw_walls.append(raw_wall)
    return out


def percentiles(latencies):
    cuts = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return cuts[4], cuts[8]


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def measure(args):
    """One run; returns (passes, metrics, notes)."""
    workload = WORKLOADS[args.workload]
    api = load_sfvs()
    tiny = args.size == "tiny"
    notes = []
    clock = HostClock()
    if not args.trace:
        import_s = cold_import_s(clock)
        setups = []
        for _ in range(SETUP_REPEATS):
            instances = None
            gc.collect()
            clock.scale([])
            t0 = time.perf_counter()
            instances = workload.setup(api, tiny, args.seed)
            [(setup_s,)] = clock.scale([(time.perf_counter() - t0,)])
            setups.append(setup_s)
        done = run_passes(instances, args.seconds, clock, inject=args.inject_fault)
        latencies = done.latencies
        p50, p90 = percentiles(latencies)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(done.walls),
            "cpu_s": statistics.median(done.cpus),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": rss_kb / 1024,
            "instance_ms.p50": 1000 * p50,
            "instance_ms.p90": 1000 * p90,
            "ok_ratio": 1 - done.failed / done.attempted,
        }
        n = len(latencies)
        notes.append(
            f"passes={len(done.walls)} raw_wall_s={statistics.median(done.raw_walls):.4f} "
            f"instance_samples={n} "
            f"beyond_p90={n - sum(t <= p90 for t in latencies)} "
            f"import_s={import_s:.4f} workload_setup_s={statistics.median(setups):.4f}"
        )
        return done, metrics, notes

    instances = workload.setup(api, tiny, args.seed)
    untraced = run_passes(instances, args.seconds / 2, clock, inject=args.inject_fault)
    tracer = tracing.Tracer()
    restore = tracing.instrument(api, tracer)
    try:
        done = run_passes(
            instances, args.seconds / 2, clock, inject=args.inject_fault, tracer=tracer
        )
    finally:
        restore()
    done.attempted += untraced.attempted
    done.failed += untraced.failed
    self_s, calls = tracer.self_times()
    metrics = tracing.layer_metrics(tracer, len(done.walls), self_s, calls)
    metrics["trace.overhead_s"] = (
        statistics.median(done.walls) - statistics.median(untraced.walls)
    )
    probes = workload.probe(api, tiny) if workload.probe else {}
    for name in ("search_ms_per_node", "incumbent_s", "seed_minimalize_s"):
        # 0: not measured on this workload
        metrics[f"exact_fvs.{name}"] = probes.get(f"exact_fvs.{name}", 0.0)
    layers, top = tracing.layer_shares(self_s)
    notes.append(f"untraced_passes={len(untraced.walls)} traced_passes={len(done.walls)}")
    notes.append("layer self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in layers))
    notes.append("top spans by self time: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    if args.spans:
        tracer.write_spans(args.spans)
    return done, metrics, notes


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--size", args.size]
        if args.out:
            cmd += ["--out", args.out]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, for the self-test")
    parser.add_argument("--out", help="append this run's record to a JSON-lines file")
    parser.add_argument("--spans", help="with --trace 1, write the spans to this file")
    parser.add_argument("--inject-fault", action="store_true",
                        help="report one wrong answer per pass, to test the gate")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        done, metrics, notes = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = stamp(args)
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END
    print("# " + json.dumps(info, sort_keys=True))
    for note in notes:
        print("# " + note)
    print(f"failed_ratio {done.failed / done.attempted:.6f} ratio "
          f"({done.failed} of {done.attempted} instances)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": done.failed == 0,
        "attempted": done.attempted,
        "failed": done.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**info, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
