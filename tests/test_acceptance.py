"""End-to-end acceptance checks.

Each test covers one headline claim about the four graph families,
exercises the real construction and solver code, and prints a single
pass/fail line with a short summary.  Time limits are generous
ceilings; the runs are far faster on typical hardware.
"""

import itertools
import random
import time

from sfvs.exact_fvs import tau_bnb, tau_bruteforce
from sfvs.generators import (
    expected_order,
    sierpinski,
    sierpinski_plus,
    sierpinski_plusplus,
    triangle,
)
from sfvs.graph_core import build_graph, find_cycle
from sfvs.pairable_forest import (
    closure,
    closure_split,
    forest_plus,
    forest_plusplus,
    forest_sierpinski,
    pairable_partition,
)
from sfvs.triangle_forest import fvs_triangle3
from sfvs.verify_cli import _BUILDERS, run_suite


def announce(capsys, number, problems, detail):
    status = "FAIL" if problems else "PASS"
    with capsys.disabled():
        print(f"\nacceptance {number:02d} {status}  {detail}")
    assert not problems, "; ".join(problems)


def test_criterion_01_base_family_feedback_numbers(capsys):
    grids = [(2, range(1, 6)), (3, range(1, 4)), (4, range(1, 3)), (5, range(1, 3))]
    problems = []
    rows = []
    for p, ns in grids:
        rows.extend(run_suite("thm2.4", [p], list(ns), exact=True))
    for r in rows:
        if r.status != "match" or r.exact != r.predicted:
            problems.append(f"({r.p},{r.n}) status={r.status} exact={r.exact}")
        if r.runtime_ms >= 60_000:
            problems.append(f"({r.p},{r.n}) took {r.runtime_ms} ms")
    slowest = max(r.runtime_ms for r in rows)
    announce(
        capsys,
        1,
        problems,
        f"solver confirms tau = p^(n-1)(p-2) on {len(rows)} instances, "
        f"slowest {slowest} ms",
    )


def test_criterion_02_pairable_forest_levels(capsys):
    start = time.perf_counter()
    problems = []
    checked_levels = 0
    for p in range(3, 9):
        for n in range(1, 6):
            y = forest_sierpinski(p, n)
            if len(y) != 2 * p ** (n - 1):
                problems.append(f"|Y_{n}| wrong for p={p}: {len(y)}")
            if find_cycle(sierpinski(p, n), y) is not None:
                problems.append(f"Y_{n} has a cycle for p={p}")
        part = pairable_partition(["1", "2"], p)
        for m in range(1, 5):
            one, two = closure_split(part, p)
            g = sierpinski(p, m + 1)
            crossing = sum(
                1 for u in one for v in g.neighbors(u) if v in two
            )
            if crossing:
                problems.append(f"p={p} level {m + 1}: {crossing} crossing edges")
            checked_levels += 1
            part = closure(part, p)
            if set(part.labels(p)) != one | two:
                problems.append(f"p={p} level {m + 1}: split does not cover closure")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    announce(
        capsys,
        2,
        problems,
        f"closure forests check out for p=3..8, n=1..5; "
        f"{checked_levels} level splits have no crossing edges ({elapsed:.1f}s)",
    )


def test_criterion_03_apex_and_extra_copy_formulas(capsys):
    problems = []
    rows = []
    for suite in ("cor2.7", "cor2.8"):
        rows.extend(run_suite(suite, [2, 3, 4, 5, 6], [2, 3, 4]))
    for r in rows:
        if r.status != "match":
            problems.append(f"{r.suite} ({r.p},{r.n}) status={r.status}")
    solved = 0
    for family, builder, forest_fn in (
        ("plus", sierpinski_plus, forest_plus),
        ("pp", sierpinski_plusplus, forest_plusplus),
    ):
        for p, n in itertools.product(range(2, 7), range(2, 5)):
            if expected_order(family, p, n) > 30:
                continue
            g = builder(p, n)
            forest = forest_fn(p, n)
            predicted = g.order - len(forest)
            if p >= 3:
                tau_s = lambda k: p ** (k - 1) * (p - 2)
                formula = tau_s(n) if family == "plus" else tau_s(n) + tau_s(n - 1)
                if predicted != formula:
                    problems.append(f"{family} ({p},{n}) complement {predicted} != {formula}")
            cert = tau_bnb(g, seed=sorted(set(g.vertices()) - forest))
            if not cert.optimal or cert.tau != predicted:
                problems.append(f"{family} ({p},{n}) solver got {cert.tau}")
            solved += 1
    announce(
        capsys,
        3,
        problems,
        f"apex and extra-copy feedback formulas hold on {len(rows)} grid rows; "
        f"solver confirmed all {solved} instances up to 30 vertices",
    )


def test_criterion_04_three_symbol_hitting_sets(capsys):
    problems = []
    for n in range(8):
        hit = fvs_triangle3(n)
        if len(hit) != (3**n + 1) // 2:
            problems.append(f"n={n}: size {len(hit)}")
        g = triangle(3, n)
        if find_cycle(g, set(g.vertices()) - hit) is not None:
            problems.append(f"n={n}: complement has a cycle")
    start = time.perf_counter()
    for n in range(4):
        g = triangle(3, n)
        cert = tau_bnb(g)
        if not cert.optimal or cert.tau != (3**n + 1) // 2:
            problems.append(f"solver disagrees at n={n}: {cert}")
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        problems.append(f"solver sweep took {elapsed:.0f}s, limit 600s")
    announce(
        capsys,
        4,
        problems,
        "three-symbol hitting set has size (3^n+1)/2 with acyclic complement "
        f"for n=0..7; solver confirms n=0..3 in {elapsed:.2f}s",
    )


def test_criterion_05_order_and_size_formulas(capsys):
    rows = run_suite("counts", list(range(2, 10)), list(range(1, 6)))
    problems = [
        f"{r.family} ({r.p},{r.n}) {r.check}: {r.constructed} != {r.predicted}"
        for r in rows
        if r.status != "match"
    ]
    if len(rows) != 8 * 5 * 4 * 2:
        problems.append(f"expected 320 rows, got {len(rows)}")
    announce(
        capsys,
        5,
        problems,
        f"order and size formulas match on all four families for p=2..9, "
        f"n=1..5 ({len(rows)} checks)",
    )


def test_criterion_06_linear_forest_structure(capsys):
    start = time.perf_counter()
    rows = run_suite("thm4.1", [4, 5, 6, 7], [3, 4])
    elapsed = time.perf_counter() - start
    problems = [
        f"({r.p},{r.n}) {r.check}: status={r.status}" for r in rows if r.status != "match"
    ]
    if elapsed >= 300:
        problems.append(f"took {elapsed:.0f}s, limit 300s")
    announce(
        capsys,
        6,
        problems,
        f"forest order, recurrence, and path decomposition agree for "
        f"p=4..7, n=3..4 ({elapsed:.1f}s)",
    )


def test_criterion_07_small_contracted_forest_numbers(capsys):
    problems = []
    start = time.perf_counter()
    found = []
    for p, n, want in ((4, 1, 6), (5, 1, 7), (4, 2, 18)):
        g = triangle(p, n)
        cert = tau_bnb(g)
        forest_order = g.order - cert.tau
        found.append(forest_order)
        if not cert.optimal or forest_order != want:
            problems.append(f"({p},{n}): forest order {forest_order}, wanted {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        problems.append(f"took {elapsed:.0f}s, limit 600s")
    announce(
        capsys,
        7,
        problems,
        f"largest induced forests of the small contracted graphs have "
        f"orders {found[0]}, {found[1]}, {found[2]} ({elapsed:.2f}s)",
    )


def test_criterion_08_contraction_equals_direct_construction(capsys, contracted_triangle):
    problems = []
    pairs = 0
    for p in (3, 4, 5):
        for n in range(4):
            if triangle(p, n) != contracted_triangle(p, n):
                problems.append(f"({p},{n}) graphs differ")
            pairs += 1
    announce(
        capsys,
        8,
        problems,
        f"direct construction reproduces the contraction on {pairs} instances "
        "(p=3..5, n=0..3)",
    )


def test_criterion_09_solver_cross_validation(capsys):
    problems = []
    rng = random.Random(20260822)
    for trial in range(200):
        order = rng.randint(1, 14)
        prob = rng.choice((0.1, 0.2, 0.35, 0.5, 0.7, 0.9))
        edges = [
            e for e in itertools.combinations(range(order), 2) if rng.random() < prob
        ]
        g = build_graph(range(order), edges)
        brute = tau_bruteforce(g)
        fast = tau_bnb(g)
        if not fast.optimal or fast.tau != brute.tau:
            problems.append(f"trial {trial}: brute {brute.tau}, search {fast.tau}")
    family_instances = 0
    for family, builder in _BUILDERS.items():
        for p in range(2, 10):
            for n in range(0 if family == "hat" else 1, 6):
                if expected_order(family, p, n) > 20:
                    continue
                g = builder(p, n)
                brute = tau_bruteforce(g)
                fast = tau_bnb(g)
                if not fast.optimal or fast.tau != brute.tau:
                    problems.append(
                        f"{family} ({p},{n}): brute {brute.tau}, search {fast.tau}"
                    )
                family_instances += 1
    announce(
        capsys,
        9,
        problems,
        f"branch and bound agrees with brute force on 200 random graphs "
        f"and {family_instances} family instances up to 20 vertices",
    )


def test_criterion_10_open_cases_stay_bounds(capsys):
    problems = []
    rows = run_suite("conjecture", [4, 5], [3])
    for r, want in zip(rows, (65, 124)):
        if r.status != "bound-only" or r.constructed != want or r.exact is not None:
            problems.append(f"({r.p},{r.n}) status={r.status} constructed={r.constructed}")
    (attempt,) = run_suite("conjecture", [4], [3], exact=True, budget=20_000)
    if attempt.exact is not None and attempt.exact < attempt.constructed:
        problems.append(
            f"exact forest {attempt.exact} is below the constructed {attempt.constructed}"
        )
    announce(
        capsys,
        10,
        problems,
        "open cases (4,3) and (5,3) report forests of 65 and 124 as bounds "
        f"only; a capped exact attempt ends with status {attempt.status!r}",
    )
