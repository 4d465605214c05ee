"""Verification suites and the command line front end.

Each suite builds graphs, runs the matching forest construction, checks
the forest certificate, compares sizes against the closed-form
prediction, and optionally confirms with the exact solver.  Suites are
addressed by fixed keys:

  counts      order and size of every family against the counting formulas
  thm2.4      feedback number of the base family equals p^(n-1)(p-2)
  cor2.7      same value on the apex variant (p=2 falls back to 1)
  cor2.8      the two-level sum on the expanded variant (p=2 falls back to 1)
  thm3.2      triangle family at p=3, deletion set size (3^n+1)/2
  thm4.1      triangle family forest is linear and matches the closed form
  conjecture  triangle family at p>=4: constructed forest vs exact optimum

A report row carries the prediction, the constructed value, the exact
value when a solve finished, and a status: "match" when everything
present agrees, "bound-only" when exactness was requested or implied but
not achieved, "mismatch" when something present disagrees.  Exit codes:
0 all rows clean, 1 at least one mismatch, 2 a construction failed its
certificate or the parameters were unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, replace
from typing import Callable

from .addressing import FAMILIES
from .exact_fvs import resolve_budget, tau_bnb, tau_bruteforce
from .generators import (
    expected_order,
    expected_size,
    sierpinski,
    sierpinski_plus,
    sierpinski_plusplus,
    triangle,
)
from .graph_core import GraphError, _forest_positions, export_dot, export_edgelist
from .pairable_forest import (
    forest_plus,
    forest_plusplus,
    forest_sierpinski,
)
from .triangle_forest import (
    conjecture_gap,
    forest_order_bound,
    forest_order_recurrence,
    forest_triangle,
    fvs_triangle3,
    structure_report,
)

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "VerificationError",
    "VerificationReport",
    "main",
    "render_json",
    "render_table",
    "run_suite",
]

SCHEMA_VERSION = 1
# no verb or suite builds more vertices; hat(9,5), the largest in use, has 265,725
MAX_ORDER = 1_000_000

_BUILDERS = {
    "s": sierpinski,
    "plus": sierpinski_plus,
    "pp": sierpinski_plusplus,
    "hat": triangle,
}
_GLYPH = {"match": "✓", "bound-only": "∙", "mismatch": "✗"}


class VerificationError(RuntimeError):
    """A construction failed its certificate; carries a witness cycle."""

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle else []

    def __reduce__(self):
        return (type(self), (self.args[0], self.cycle))


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    family: str
    p: int
    n: int
    check: str
    predicted: int | None
    constructed: int | None
    exact: int | None
    status: str
    runtime_ms: int


def _status(predicted, constructed, exact, want_exact: bool) -> str:
    if exact is not None and exact != predicted:
        return "mismatch"
    if constructed is not None and constructed != predicted:
        return "mismatch"
    if want_exact and exact is None:
        return "bound-only"
    return "match"


def _row(suite, family, p, n, check, predicted, constructed, exact, want_exact):
    return VerificationReport(
        suite,
        family,
        p,
        n,
        check,
        predicted,
        constructed,
        exact,
        _status(predicted, constructed, exact, want_exact),
        0,
    )


def _check_order(family, p, n):
    """Refuse, before any build, an instance above MAX_ORDER vertices, or
    at p = 1 (order at most 2, build still growing with n) above level 20.
    For p >= 2 every family has 2^n or more, so a large n needs no p**n."""
    levels = MAX_ORDER.bit_length()
    if p == 1 and n > levels:
        raise ValueError(f"{family} p={p} n={n} is above the level limit of {levels}")
    if p >= 2 and n >= 0:
        order = expected_order(family, p, n) if n <= levels else None
        if order is None or order > MAX_ORDER:
            shown = f"more than {MAX_ORDER:,}" if order is None else f"{order:,}"
            raise ValueError(f"{family} p={p} n={n} has {shown} vertices, the limit is {MAX_ORDER:,}")


def _forest(family, p, n, g):
    """The construction-backed induced forest of a family instance, as a
    set of labels of its graph g, checked once against g.  Raises
    ValueError where the instance has no construction, and GraphError on
    a cycle."""
    if family == "s":
        forest = forest_sierpinski(p, n)
    elif family == "plus":
        forest = forest_plus(p, n)
    elif family == "pp":
        return forest_plusplus(p, n, graph=g)  # checked against g too
    elif p == 2:
        forest = set(g.vertices())
    elif p == 3:
        forest = set(g.vertices()) - fvs_triangle3(n)
    else:
        return forest_triangle(p, n, graph=g)  # checked against g too
    _forest_positions(g, forest, expected_order(family, p, n))
    return forest


# Row functions share one signature: (suite, family, p, n, exact, budget).


def _counts_rows(suite, family, p, n, exact, budget):
    g = _BUILDERS[family](p, n)
    return [
        _row(suite, family, p, n, "order", expected_order(family, p, n), g.order, None, False),
        _row(suite, family, p, n, "size", expected_size(family, p, n), g.size, None, False),
    ]


def _tau_rows(suite, family, p, n, exact, budget):
    """Constructed tau is the order minus the certified forest; an exact
    solve starts from the forest's complement."""
    g = _BUILDERS[family](p, n)
    forest = _forest(family, p, n, g)
    exact_val = None
    if exact:
        cert = tau_bnb(g, budget=budget, seed=sorted(set(g.vertices()) - forest))
        exact_val = cert.tau if cert.optimal else None
    predicted = _SUITE_TABLE[suite].tau(p, n)
    return [_row(suite, family, p, n, "tau", predicted, g.order - len(forest), exact_val, exact)]


def _linear_forest_rows(suite, family, p, n, exact, budget):
    rep = structure_report(p, n, graph=triangle(p, n))
    if not rep.total:
        # the report of a construction that failed its checks holds only
        # that failure
        raise VerificationError(f"hat p={p} n={n}: {rep.problems[0]}")
    closed = forest_order_bound(p, n)
    recurrence = forest_order_recurrence(p, n)
    rows = [
        _row(suite, family, p, n, "order", closed, rep.total, None, False),
        _row(suite, family, p, n, "recurrence", closed, recurrence, None, False),
    ]
    expected_paths = sum(count for _, count in rep.expected_paths)
    actual_paths = sum(count for _, count in rep.actual_paths)
    status = "match" if rep.ok else "mismatch"
    rows.append(
        replace(
            _row(suite, family, p, n, "structure", expected_paths, actual_paths, None, False),
            status=status,
        )
    )
    return rows


def _conjecture_rows(suite, family, p, n, exact, budget):
    gap = conjecture_gap(p, n, solve=exact, budget=budget)
    exact_val = None
    if gap.tau_exact is not None:
        exact_val = gap.order - gap.tau_exact
    predicted = forest_order_bound(p, n) if n >= 3 else forest_order_recurrence(p, n)
    return [_row(suite, family, p, n, "forest", predicted, gap.forest_lower, exact_val, True)]


@dataclass(frozen=True)
class _Suite:
    """One suite: the families it covers, the (p, n) it is defined for
    with the error text outside them, the function that makes its rows
    for one instance, and its predicted feedback number where it has one."""

    families: tuple
    domain: tuple  # (valid(p, n) -> bool, error text)
    rows: Callable
    tau: Callable[[int, int], int] | None = None


_WORD_DOMAIN = (lambda p, n: p >= 2 and n >= 1, "needs p >= 2 and n >= 1")
_COR_DOMAIN = (
    lambda p, n: p >= 2 and n >= 1 and (p == 2 or n >= 2),
    "needs n >= 2 for p >= 3 (n >= 1 at p=2)",
)

_SUITE_TABLE = {
    "counts": _Suite(FAMILIES, _WORD_DOMAIN, _counts_rows),
    "thm2.4": _Suite(("s",), _WORD_DOMAIN, _tau_rows, lambda p, n: p ** (n - 1) * (p - 2)),
    "cor2.7": _Suite(
        ("plus",), _COR_DOMAIN, _tau_rows, lambda p, n: 1 if p == 2 else p ** (n - 1) * (p - 2)
    ),
    "cor2.8": _Suite(
        ("pp",),
        _COR_DOMAIN,
        _tau_rows,
        lambda p, n: 1 if p == 2 else p ** (n - 2) * (p - 2) * (p + 1),
    ),
    "thm3.2": _Suite(
        ("hat",),
        (lambda p, n: p == 3 and n >= 0, "is defined for p=3, n >= 0"),
        _tau_rows,
        lambda p, n: (3**n + 1) // 2,
    ),
    "thm4.1": _Suite(
        ("hat",), (lambda p, n: p >= 4 and n >= 3, "needs p >= 4 and n >= 3"), _linear_forest_rows
    ),
    "conjecture": _Suite(
        ("hat",), (lambda p, n: p >= 4 and n >= 2, "needs p >= 4 and n >= 2"), _conjecture_rows
    ),
}
SUITES = tuple(_SUITE_TABLE)


def _run_instance(task):
    start = time.perf_counter()
    rows = _SUITE_TABLE[task[0]].rows(*task)
    ms = int((time.perf_counter() - start) * 1000)
    return [replace(r, runtime_ms=ms) for r in rows]


def run_suite(suite, ps, ns, exact=False, budget=None, jobs=1):
    """Run one verification suite over the (p, n) grid.

    Rows come back sorted by (p, n, family); at most min(jobs, instances,
    CPUs) worker processes run.  Raises ValueError for unusable parameters
    before any build, GraphError when a construction's forest fails its
    check, and VerificationError when the thm4.1 structure report holds a
    failed check.
    """
    if suite not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {suite!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    spec = _SUITE_TABLE[suite]
    valid, domain = spec.domain
    instances = set()
    for p in ps:
        for n in ns:
            if not valid(p, n):
                raise ValueError(f"{suite} {domain}, got ({p},{n})")
            for family in spec.families:
                _check_order(family, p, n)
                instances.add((p, n, FAMILIES.index(family)))
    if exact:
        budget = resolve_budget(budget)
    tasks = [(suite, FAMILIES[f], p, n, exact, budget) for p, n, f in sorted(instances)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_instance, tasks))
    else:
        results = map(_run_instance, tasks)
    return [row for rows in results for row in rows]


def render_json(reports) -> str:
    payload = {"schema": SCHEMA_VERSION, "reports": [asdict(r) for r in reports]}
    return json.dumps(payload, indent=2) + "\n"


def render_table(reports) -> str:
    if not reports:
        return ""
    header = ("", "suite", "family", "p", "n", "check", "predicted", "constructed", "exact", "status", "ms")
    rows = [header]
    for r in reports:
        # the columns after the glyph are the report fields in order
        rows.append((_GLYPH[r.status], *("-" if v is None else str(v) for v in astuple(r))))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _parse_values(text: str):
    """Parse "3", "2,5", "4:6", or a mix into a sorted list of ints."""
    values = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry in {text!r}")
        if ":" in part:
            lo, _, hi = part.partition(":")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            if hi - lo >= MAX_ORDER:
                raise ValueError(f"range {part!r} has more than {MAX_ORDER:,} values")
            values.update(range(lo, hi + 1))
        else:
            values.add(int(part))
    return sorted(values)


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    g = _BUILDERS[args.family](args.p, args.n)
    text = export_dot(g) if args.format == "dot" else export_edgelist(g)
    _write_out(text, args.out)
    return 0


def _cmd_forest(args) -> int:
    family, p, n = args.family, args.p, args.n
    if args.structure:
        if family != "hat":
            raise ValueError("--structure only applies to the hat family")
        if p < 4 or n < 2:
            raise ValueError(f"--structure needs p >= 4 and n >= 2, got ({p},{n})")
        rep = structure_report(p, n)
        payload = {**asdict(rep), "ok": rep.ok}
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
        return 0 if rep.ok else 1
    g = _BUILDERS[family](p, n)
    forest = sorted(_forest(family, p, n, g))
    lines = list(forest)
    lines.append(f"size={len(forest)} complement={g.order - len(forest)} acyclic=true")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_tau(args) -> int:
    family, p, n = args.family, args.p, args.n
    budget = resolve_budget(args.budget) if args.method == "bnb" else None
    g = _BUILDERS[family](p, n)
    if args.method == "brute":
        cert = tau_bruteforce(g)
    else:
        seed = None
        if args.seed == "auto":
            try:
                seed = sorted(set(g.vertices()) - _forest(family, p, n, g))
            except GraphError:
                raise  # the construction failed its certificate
            except ValueError:
                pass  # no construction for this instance: search unseeded
        cert = tau_bnb(g, budget=budget, seed=seed)
    flag = "true" if cert.optimal else "false"
    _write_out(
        f"tau={cert.tau} optimal={flag} witness={','.join(cert.witness)}\n", args.out
    )
    return 0


def _emit(reports, args) -> int:
    """Write the reports in the requested format; the exit code is 1 when
    any row is a mismatch."""
    text = render_json(reports) if args.format == "json" else render_table(reports)
    _write_out(text, args.out)
    return 1 if any(r.status == "mismatch" for r in reports) else 0


def _cmd_verify(args) -> int:
    reports = run_suite(
        args.suite,
        _parse_values(args.p),
        _parse_values(args.n),
        exact=args.exact,
        budget=args.budget,
        jobs=args.jobs,
    )
    return _emit(reports, args)


def _well_formed(r: VerificationReport) -> bool:
    """Known keys, and ints (bool excluded) where the schema has them;
    predicted, constructed and exact may also be null."""
    return (
        all(isinstance(v, str) for v in (r.suite, r.family, r.check, r.status))
        and r.suite in SUITES
        and r.family in FAMILIES
        and r.status in _GLYPH
        and all(type(v) is int for v in (r.p, r.n, r.runtime_ms))
        and all(v is None or type(v) is int for v in (r.predicted, r.constructed, r.exact))
    )


def _load_reports(path: str):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: expected a schema {SCHEMA_VERSION} report file")
    try:
        reports = [VerificationReport(**entry) for entry in payload["reports"]]
    except (KeyError, TypeError):
        reports = None
    if reports is None or not all(map(_well_formed, reports)):
        raise ValueError(f"{path}: malformed report entries")
    return reports


def _cmd_report(args) -> int:
    return _emit(_load_reports(args.path), args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfvs",
        description="Generate self-similar graph families, build their "
        "maximum induced forests, and verify the size formulas.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def family_params(sp):
        sp.add_argument("--family", choices=FAMILIES, required=True)
        sp.add_argument("-p", type=int, required=True, help="number of symbols")
        sp.add_argument("-n", type=int, required=True, help="recursion level")

    gen = sub.add_parser("generate", help="emit a graph as an edge list or DOT")
    family_params(gen)
    gen.add_argument("--format", choices=("edges", "dot"), default="edges")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_generate)

    forest = sub.add_parser("forest", help="emit the induced-forest construction")
    family_params(forest)
    forest.add_argument(
        "--structure",
        action="store_true",
        help="emit the path decomposition report instead (hat family)",
    )
    forest.add_argument("--out")
    forest.set_defaults(func=_cmd_forest)

    tau = sub.add_parser("tau", help="solve for the exact feedback vertex number")
    family_params(tau)
    tau.add_argument("--method", choices=("bnb", "brute"), default="bnb")
    tau.add_argument("--budget", type=int, default=None, help="search node budget")
    tau.add_argument(
        "--seed",
        choices=("auto", "none"),
        default="auto",
        help="start from the construction-backed deletion set when available",
    )
    tau.add_argument("--out")
    tau.set_defaults(func=_cmd_tau)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=SUITES, required=True)
    verify.add_argument("-p", required=True, help="values like 4, 3:6, or 2,5")
    verify.add_argument("-n", required=True, help="values like 2, 1:5, or 1,3")
    verify.add_argument("--exact", action="store_true", help="confirm with the solver")
    verify.add_argument("--budget", type=int, default=None)
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--format", choices=("table", "json"), default="table")
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify)

    report = sub.add_parser("report", help="render a saved JSON report")
    report.add_argument("path")
    report.add_argument("--format", choices=("table", "json"), default="table")
    report.add_argument("--out")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "family" in args:  # generate, forest and tau build one instance
            _check_order(args.family, args.p, args.n)
        return args.func(args)
    except (VerificationError, ValueError, GraphError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
