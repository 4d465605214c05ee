"""The three benchmark workloads and their correctness gates.

Each workload has a set-up step, which builds what the timed pass reads,
and a list of instances.  An instance is a callable that drives the public
sfvs API once and returns its checks as (label, got, want) triples; the
instance is wrong when any got differs from its want.  Expected values
come from the closed forms below, written out here rather than taken from
sfvs, so that the gate does not trust the code it measures.

Only the solve workload reads the seed: it draws the random G(n, q)
graphs.  sfvs receives the generated graphs, never the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

# node budget of the capped hat(4,3) search and of the search-cost probe
HAT43_BUDGET = 800


@dataclass(frozen=True)
class Instance:
    name: str
    run: Callable[[], list]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (api, tiny, seed) -> list[Instance]
    probe: Callable | None = None  # (api, tiny) -> {metric: value}


# ----------------------------------------------------------------------
# closed forms


def family_order(family: str, p: int, n: int) -> int:
    return {
        "s": p**n,
        "plus": p**n + 1,
        "pp": (p + 1) * p ** (n - 1),
        "hat": p * (p**n + 1) // 2,
    }[family]


def family_size(family: str, p: int, n: int) -> int:
    return {
        "s": p * (p**n - 1) // 2,
        "plus": p * (p**n + 1) // 2,
        "pp": (p + 1) * p**n // 2,
        "hat": (p - 1) * p ** (n + 1) // 2,
    }[family]


def hat_forest_order(p: int, n: int) -> int:
    """Order of the linear forest of the quotient family, p >= 4, n >= 3."""
    if p % 2 == 0:
        geo = p * (p ** (n - 2) - 1) // (p - 1)
        return (8 * p**n - p ** (n - 1) + geo + 5 * p) // 8
    return p**n - (p ** (n - 1) + p ** (n - 2) - 5 * p + 3) // 8


def hat_forest_paths(p: int, n: int) -> int:
    """Number of paths in that linear forest."""
    starts = p // 2
    odd = p % 2
    per_copy = math.comb(starts, 2) + odd * starts
    return starts + sum(p ** (n - k) * per_copy for k in range(3, n + 1)) + odd


# ----------------------------------------------------------------------
# build: the counts suite, one grid point per instance


def _build_setup(api, tiny: bool, seed: int):
    ps, ns = (range(2, 4), range(1, 3)) if tiny else (range(2, 7), range(1, 6))

    def instance(p, n):
        def run():
            rows = api.run_suite("counts", [p], [n])
            payload = json.loads(api.render_json(rows))
            checks = [("rows", len(payload["reports"]), 8)]
            for r in rows:
                want = (family_order if r.check == "order" else family_size)(r.family, p, n)
                checks.append((f"{r.family} {r.check}", r.constructed, want))
                checks.append((f"{r.family} {r.check} status", r.status, "match"))
            return checks

        return Instance(f"counts p={p} n={n}", run)

    return [instance(p, n) for p in ps for n in ns]


# ----------------------------------------------------------------------
# certify: every construction re-checked against prebuilt graphs


def _certify_setup(api, tiny: bool, seed: int):
    if tiny:
        s, plus, pp, n3, hat = (4, 3), (4, 3), (4, 3), 4, (4, 3)
    else:
        s, plus, pp, n3, hat = (9, 5), (8, 5), (6, 5), 8, (6, 5)
    g_s = api.sierpinski(*s)
    g_plus = api.sierpinski_plus(*plus)
    g_pp = api.sierpinski_plusplus(*pp)
    g_hat3 = api.triangle(3, n3)
    g_hat = api.triangle(*hat)

    def forest_s():
        p, n = s
        forest = api.forest_sierpinski(p, n)
        return [
            ("size", len(forest), 2 * p ** (n - 1)),
            ("acyclic", api.find_cycle(g_s, forest), None),
        ]

    def forest_plus():
        p, n = plus
        forest = api.forest_plus(p, n)
        return [
            ("size", len(forest), 2 * p ** (n - 1) + 1),
            ("acyclic", api.is_forest(g_plus, forest), True),
        ]

    def forest_pp():
        p, n = pp
        forest = api.forest_plusplus(p, n)
        return [
            ("size", len(forest), 2 * (p + 1) * p ** (n - 2)),
            ("acyclic", api.find_cycle(g_pp, forest), None),
        ]

    def fvs_hat3():
        cut = api.fvs_triangle3(n3)
        cert = api.FvsCertificate(len(cut), tuple(sorted(cut)), False)
        return [
            ("size", len(cut), (3**n3 + 1) // 2),
            ("certificate", api.verify_certificate(g_hat3, cert), True),
        ]

    def forest_hat():
        p, n = hat
        forest = api.forest_triangle(p, n, graph=g_hat)
        sub = g_hat.induced(forest)
        paths = sub.components()
        return [
            ("size", len(forest), hat_forest_order(p, n)),
            ("acyclic", api.is_forest(g_hat, forest), True),
            ("paths", len(paths), hat_forest_paths(p, n)),
            ("forest identity", sub.order - sub.size, len(paths)),
            ("max degree", max(len(sub.neighbors(v)) for v in sub.vertices()), 2),
        ]

    def structure_hat():
        p, n = hat
        rep = api.structure_report(p, n, graph=g_hat)
        return [
            ("problems", rep.problems, ()),
            ("total", rep.total, hat_forest_order(p, n)),
            ("paths", sum(c for _, c in rep.actual_paths), hat_forest_paths(p, n)),
        ]

    return [
        Instance(f"forest_sierpinski{s}", forest_s),
        Instance(f"forest_plus{plus}", forest_plus),
        Instance(f"forest_plusplus{pp}", forest_pp),
        Instance(f"fvs_triangle3({n3})", fvs_hat3),
        Instance(f"forest_triangle{hat}", forest_hat),
        Instance(f"structure_report{hat}", structure_hat),
    ]


# ----------------------------------------------------------------------
# solve: the exact solver on small graphs


def random_graphs(seed: int, count: int, order: int = 10, size: int = 16):
    """Edge lists of uniform random graphs with the given order and size.
    Fixing both keeps the feedback numbers, and so the brute-force cost,
    within a narrow band from one seed to the next."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(order), 2))
    return [(order, sorted(rng.sample(pairs, size))) for _ in range(count)]


def _hat_seed(api, p, n, g):
    return sorted(set(g.vertices()) - api.forest_triangle(p, n, graph=g))


def _solve_setup(api, tiny: bool, seed: int):
    graphs = random_graphs(seed, 10 if tiny else 300)
    budget = 50 if tiny else HAT43_BUDGET
    s_pn = (4, 3) if tiny else (6, 4)
    hat_n = 1 if tiny else 2

    def hat4_small():
        g = api.triangle(4, hat_n)
        cert = api.tau_bnb(g)
        # the order minus that of the largest induced forest: 6 at n = 1,
        # 18 at n = 2
        want = family_order("hat", 4, hat_n) - (6, 18)[hat_n - 1]
        return [("tau", cert.tau, want), ("optimal", cert.optimal, True)]

    def hat43():
        g = api.triangle(4, 3)
        cert = api.tau_bnb(g, budget=budget, seed=_hat_seed(api, 4, 3, g))
        # the open case: the construction's bound is 130 - 65
        return [
            ("tau within bound", cert.tau <= 65, True),
            ("certificate", api.verify_certificate(g, cert), True),
        ]

    def sierpinski_unseeded():
        p, n = s_pn
        g = api.sierpinski(p, n)
        cert = api.tau_bnb(g)
        return [("tau", cert.tau, p ** (n - 1) * (p - 2)), ("optimal", cert.optimal, True)]

    def cross_check(order, edges):
        def run():
            g = api.build_graph(range(order), edges)
            brute = api.tau_bruteforce(g)
            fast = api.tau_bnb(g)
            return [
                ("tau", fast.tau, brute.tau),
                ("optimal", fast.optimal, True),
                ("certificate", api.verify_certificate(g, fast), True),
            ]

        return run

    return [
        Instance(f"hat(4,{hat_n}) unseeded", hat4_small),
        Instance(f"hat(4,3) seeded, budget {budget}", hat43),
        Instance(f"s{s_pn} unseeded", sierpinski_unseeded),
        *(Instance(f"G({o},{len(e)}) #{i}", cross_check(o, e)) for i, (o, e) in enumerate(graphs)),
    ]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _solve_probe(api, tiny: bool):
    """The solver's costs taken apart by differencing tau_bnb calls that
    differ only in budget or seed."""
    budget = 50 if tiny else HAT43_BUDGET
    g = api.triangle(4, 3)
    seed = _hat_seed(api, 4, 3, g)
    minimalize = statistics.median(
        _timed(lambda: api.tau_bnb(g, budget=1, seed=seed)) for _ in range(3)
    )
    search = _timed(lambda: api.tau_bnb(g, budget=budget, seed=seed))
    s = api.sierpinski(*((4, 3) if tiny else (6, 4)))
    incumbent = _timed(lambda: api.tau_bnb(s, budget=1))
    return {
        "exact_fvs.search_ms_per_node": 1000 * (search - minimalize) / (budget - 1),
        "exact_fvs.incumbent_s": incumbent,
        "exact_fvs.seed_minimalize_s": minimalize,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("build", _build_setup),
        Workload("certify", _certify_setup),
        Workload("solve", _solve_setup, _solve_probe),
    )
}
