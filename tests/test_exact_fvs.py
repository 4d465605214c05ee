"""Tests for the exact feedback vertex number solvers."""

import gc
import itertools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sfvs import exact_fvs
from sfvs.exact_fvs import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    FvsCertificate,
    Multigraph,
    _branch_vertex,
    _degrees_within,
    _density_bound,
    _flood,
    _greedy_fvs,
    _grow_clique,
    _lower_bound,
    _mask,
    _minimalize,
    _pack_cliques,
    _reduce,
    resolve_budget,
    tau_bnb,
    tau_bruteforce,
    verify_certificate,
)
from sfvs.generators import (
    expected_order,
    sierpinski,
    sierpinski_plus,
    sierpinski_plusplus,
    triangle,
)
from sfvs.graph_core import (
    GraphError,
    _components,
    build_graph,
    find_cycle,
    is_forest,
)
from sfvs.triangle_forest import forest_triangle
from sfvs.verify_cli import _BUILDERS


def complete_graph(k):
    return build_graph(range(k), itertools.combinations(range(k), 2))


def cycle_graph(k):
    return build_graph(range(k), ((i, (i + 1) % k) for i in range(k)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(range(10), outer + inner + spokes)


def random_graph(rng, order, edge_prob):
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(order), 2)
        if rng.random() < edge_prob
    ]
    return build_graph(range(order), edges)


def random_triangle_free_graph(rng, order, edge_prob):
    # pairs in random order, each kept with edge_prob unless it closes a
    # triangle
    pairs = list(itertools.combinations(range(order), 2))
    rng.shuffle(pairs)
    nbrs = [set() for _ in range(order)]
    edges = []
    for u, v in pairs:
        if rng.random() < edge_prob and not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
            edges.append((u, v))
    return build_graph(range(order), edges)


# budget plumbing


def test_resolve_budget_default(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert resolve_budget() == DEFAULT_BUDGET


def test_resolve_budget_explicit_wins(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "123")
    assert resolve_budget(77) == 77


def test_resolve_budget_env(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "4567")
    assert resolve_budget() == 4567


@pytest.mark.parametrize("bad", ["nope", "1.5", "0", "\u0663", "\uff13", "1_0"])
def test_resolve_budget_env_garbage(monkeypatch, bad):
    monkeypatch.setenv(BUDGET_ENV_VAR, bad)
    with pytest.raises(ValueError):
        resolve_budget()


def test_resolve_budget_blank_env_means_unset(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "  ")
    assert resolve_budget() == DEFAULT_BUDGET


@pytest.mark.parametrize("bad", [0, -3])
def test_resolve_budget_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        resolve_budget(bad)


# brute force


@pytest.mark.parametrize(
    "g,tau",
    [
        (complete_graph(4), 2),
        (complete_graph(5), 3),
        (cycle_graph(5), 1),
        (petersen(), 3),
        (build_graph("abc", []), 0),
        (build_graph([], []), 0),
    ],
)
def test_bruteforce_classics(g, tau):
    cert = tau_bruteforce(g)
    assert cert.tau == tau
    assert cert.optimal
    assert verify_certificate(g, cert)


def test_bruteforce_cap():
    with pytest.raises(ValueError, match="brute-force cap"):
        tau_bruteforce(complete_graph(23))
    cert = tau_bruteforce(cycle_graph(23), cap=23)
    assert cert.tau == 1


def test_bruteforce_recurses_only_to_delete():
    # far above the default cap a cycle still needs one deletion, so the
    # search stays within the recursion limit that one call per vertex
    # would pass
    cert = tau_bruteforce(cycle_graph(3000), cap=3000)
    assert cert == FvsCertificate(1, ("0",), True)


def test_bruteforce_witness_is_sorted_labels():
    cert = tau_bruteforce(complete_graph(4))
    assert cert.witness == tuple(sorted(cert.witness))
    assert set(cert.witness) <= {"0", "1", "2", "3"}


def test_bruteforce_matches_reference_on_random_graphs(reference_bruteforce):
    rng = random.Random(2207)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 13), rng.uniform(0.1, 0.9))
        assert tau_bruteforce(g) == reference_bruteforce(g)


@pytest.mark.parametrize(
    "family,builder",
    [("s", sierpinski), ("plus", sierpinski_plus), ("pp", sierpinski_plusplus), ("hat", triangle)],
)
def test_bruteforce_matches_reference_on_families(reference_bruteforce, family, builder):
    # dense instances: 21,000 of the 31,000 or so keeps tried here end on
    # a cycle, and the edge count skips 7,500 deletions
    for p in range(2, 17):
        for n in range(0 if family in ("s", "hat") else 1, 5):
            if expected_order(family, p, n) <= 16:
                g = builder(p, n)
                assert tau_bruteforce(g) == reference_bruteforce(g), (p, n)


def test_bruteforce_closes_dense_graphs_at_its_cap():
    # the edge count skips k <= 10 at the root, and a third kept vertex
    # closes a triangle: about 5,800 calls settle K_22, where a scan of
    # deletion sets alone took most of a minute
    g = complete_graph(22)
    assert tau_bruteforce(g) == FvsCertificate(20, tuple(sorted(g.vertices())[:20]), True)
    g = sierpinski_plusplus(21, 1)
    cert = tau_bruteforce(g)
    assert cert.tau == 20 and verify_certificate(g, cert)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    # sampled, not st.integers, whose draws favour order 0
    st.sampled_from(range(21)),
    st.sampled_from((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    st.integers(0, 2**32 - 1),
)
def test_bruteforce_matches_the_two_sided_scan_on_random_graphs(
    reference_two_sided_bruteforce, order, prob, seed
):
    g = random_graph(random.Random(seed), order, prob)
    assert tau_bruteforce(g) == reference_two_sided_bruteforce(g)


def test_bruteforce_matches_the_two_sided_scan_on_families(reference_two_sided_bruteforce):
    # up to 20 vertices: the scan takes about a second on pp(4,2)
    instances = 0
    for family, builder in _BUILDERS.items():
        for p in range(2, 21):
            for n in range(0 if family in ("s", "hat") else 1, 5):
                if expected_order(family, p, n) <= 20:
                    g = builder(p, n)
                    assert tau_bruteforce(g) == reference_two_sided_bruteforce(g), (family, p, n)
                    instances += 1
    assert instances == 115


def test_bruteforce_meets_the_hat_closed_form_up_to_its_cap():
    # every vertex of S(p, n) keeps at most two of its p edges in an
    # induced forest of its line graph hat(p, n), and some forest meets
    # that; hat(p, 0) is K_p
    closed = []
    for p in range(2, 23):
        for n in range(5):
            if expected_order("hat", p, n) <= 22:
                want = -(-p**n * (p - 2) // 2) if n else p - 2
                assert tau_bruteforce(triangle(p, n)).tau == want, (p, n)
                closed.append((p, n))
    assert sorted(closed) == sorted(
        [(p, 0) for p in range(2, 23)]
        + [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]
    )


def test_bruteforce_leaves_no_reference_cycle():
    # K_9 (tau 7) recurses for k = 4..7, through a search that calls itself;
    # with the collector off, anything one call leaves in a cycle would
    # still be there for gc.collect to find
    g = complete_graph(9)
    gc.collect()
    gc.disable()
    try:
        assert tau_bruteforce(g).tau == 7
        assert gc.collect() == 0
    finally:
        gc.enable()


# certificates


def test_verify_certificate_rejects_tampering():
    g = complete_graph(4)
    good = tau_bruteforce(g)
    assert verify_certificate(g, good)
    short = FvsCertificate(tau=1, witness=good.witness[:1], optimal=True)
    assert not verify_certificate(g, short)
    wrong_len = FvsCertificate(tau=3, witness=good.witness, optimal=True)
    assert not verify_certificate(g, wrong_len)
    alien = FvsCertificate(tau=2, witness=("x", "y"), optimal=True)
    assert not verify_certificate(g, alien)
    doubled = FvsCertificate(tau=2, witness=(good.witness[0],) * 2, optimal=True)
    assert not verify_certificate(g, doubled)


def test_verify_certificate_matches_the_reference(reference_verify_certificate):
    # random certificates on random graphs: valid witnesses (a minimum one,
    # and one padded with more vertices), wrong tau, repeated labels,
    # unknown labels of str and other types, and random subsets
    rng = random.Random(11)
    kinds = Counter()
    for trial in range(300):
        n = rng.randint(0, 12)
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        g = build_graph(range(n), pairs)
        labels = g.vertices()
        best = tau_bruteforce(g).witness
        padded = tuple(sorted(set(best) | set(rng.sample(labels, n // 3))))
        witnesses = [best, padded, tuple(rng.sample(labels, rng.randint(0, n)))]
        if best:
            witnesses.append(best + best[:1])
            witnesses.append(best[:-1] + ("x",))
            witnesses.append(best[:-1] + (int(best[-1]),))
        for witness in witnesses:
            for tau in {len(witness), len(set(witness)), len(witness) + 1}:
                cert = FvsCertificate(tau, witness, False)
                want = reference_verify_certificate(g, cert)
                assert verify_certificate(g, cert) == want, (trial, cert)
                kinds[want] += 1
    assert kinds[True] > 300 and kinds[False] > 1000


# branch and bound


@pytest.mark.parametrize(
    "g,tau",
    [
        (complete_graph(4), 2),
        (cycle_graph(5), 1),
        (petersen(), 3),
        (sierpinski(3, 2), 3),
        (sierpinski(3, 3), 9),
        (triangle(3, 2), 5),
        (triangle(4, 1), 4),
        (sierpinski_plus(4, 2), 8),
        (sierpinski_plusplus(4, 2), 10),
        (build_graph("abc", [("a", "b")]), 0),
        (build_graph([], []), 0),
    ],
)
def test_bnb_classics(g, tau):
    cert = tau_bnb(g)
    assert cert.tau == tau
    assert cert.optimal
    assert verify_certificate(g, cert)


def test_bnb_complement_of_witness_is_forest():
    g = triangle(4, 1)
    cert = tau_bnb(g)
    assert find_cycle(g, set(g.vertices()) - set(cert.witness)) is None


def test_bnb_deterministic():
    g = sierpinski_plusplus(4, 2)
    assert tau_bnb(g) == tau_bnb(g)


def test_bnb_budget_exhaustion_keeps_incumbent():
    # hat(4,2) closes at the root; hat(5,2) still branches
    g = triangle(5, 2)
    cert = tau_bnb(g, budget=5)
    assert not cert.optimal
    assert cert.tau >= 38
    assert verify_certificate(g, cert)


def test_bnb_two_components_close_on_the_input_degrees():
    # the input's degrees prove the greedy's 2 optimal, so no budget is
    # spent; a search would split the root into its two components and
    # run out of nodes at budget 1 or 2
    edges = [
        (0, 1), (0, 7), (1, 5), (10, 2), (10, 3), (10, 5), (11, 6),
        (11, 8), (11, 9), (2, 7), (3, 7), (4, 8), (4, 9), (6, 9),
    ]
    g = build_graph(range(12), edges)
    assert len(g.components()) == 2
    assert tau_bruteforce(g).tau == 2
    for budget in (1, 2):
        assert tau_bnb(g, budget=budget) == FvsCertificate(2, ("10", "11"), True)


def test_bnb_seeded_incumbent_survives_budget():
    # the root bound on hat(4,3) is 64, one short of the seed
    g = triangle(4, 3)
    seed = sorted(set(g.vertices()) - forest_triangle(4, 3, graph=g))
    cert = tau_bnb(g, budget=5, seed=seed)
    assert not cert.optimal
    assert cert.tau == 65
    assert verify_certificate(g, cert)


@pytest.mark.parametrize("p,tau", [(4, 16), (5, 38), (6, 72), (7, 123)])
def test_bnb_seeded_quotient_closes_at_the_root(p, tau):
    # the clique cover meets the construction, so one node proves it optimal
    g = triangle(p, 2)
    seed = sorted(set(g.vertices()) - forest_triangle(p, 2, graph=g))
    cert = tau_bnb(g, budget=1, seed=seed)
    assert cert.optimal
    assert cert.tau == tau
    assert verify_certificate(g, cert)


@pytest.mark.parametrize("p,n", [(4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (8, 1), (8, 2)])
def test_bnb_unseeded_even_quotient_closes_at_the_root(p, n):
    # the forest grown in reverse index order meets the cover bound, so the
    # root needs no child even where the greedy starts above it
    g = triangle(p, n)
    cert = tau_bnb(g, budget=1)
    assert cert.optimal
    assert cert.tau == p**n * (p - 2) // 2
    assert verify_certificate(g, cert)


def count_spares(monkeypatch):
    """tau_bnb with _minimalize spied on, returning the certificate and
    how often the search computed its second incumbent: every search
    minimalizes its starting incumbent once, the greedy's or the seed's,
    and the second incumbent is the only other call."""
    calls = []
    real = exact_fvs._minimalize

    def spy(mg, chosen):
        calls.append(1)
        return real(mg, chosen)

    monkeypatch.setattr(exact_fvs, "_minimalize", spy)

    def run(g, **kwargs):
        calls.clear()
        cert = tau_bnb(g, **kwargs)
        return cert, len(calls) - 1

    return run


def test_spare_is_computed_only_where_the_root_would_branch(monkeypatch):
    run = count_spares(monkeypatch)
    assert run(triangle(4, 2)) == (tau_bnb(triangle(4, 2), budget=1), 1)
    # once, though hat(5,2) goes on to branch at the root and below it
    assert run(triangle(5, 2), budget=50)[1] == 1
    assert run(sierpinski(6, 4))[1] == 0
    # a seed is the only starting incumbent
    for p, n in [(4, 2), (4, 3), (5, 2)]:
        g = triangle(p, n)
        seed = sorted(set(g.vertices()) - forest_triangle(p, n, graph=g))
        assert run(g, budget=50, seed=seed)[1] == 0
    # random graphs as the solve benchmark draws them, G(10, 16)
    rng = random.Random(2808)
    pairs = list(itertools.combinations(range(10), 2))
    closed = computed = 0
    for _ in range(300):
        g = build_graph(range(10), rng.sample(pairs, 16))
        labels = g.vertices()
        greedy = [labels[v] for v in _greedy_fvs(g)]
        cert, spares = run(g)
        assert spares <= 1
        seeded, seeded_spares = run(g, seed=greedy)
        assert seeded_spares == 0 and seeded.tau == cert.tau
        # one node on the greedy alone: the root closes without the spare
        if tau_bnb(g, budget=1, seed=greedy).optimal:
            closed += 1
            assert spares == 0
        computed += spares
    assert closed > 150 and computed > 0


def test_bnb_builds_one_multigraph(monkeypatch):
    # the incumbents, the spare among them, read the input graph, so only
    # the search builds a Multigraph
    run = count_spares(monkeypatch)
    built = []
    real = Multigraph.from_labeled

    def spy(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(Multigraph, "from_labeled", spy)
    hat43 = triangle(4, 3)
    seed = sorted(set(hat43.vertices()) - forest_triangle(4, 3, graph=hat43))
    for g, kwargs, spares in [
        (triangle(4, 2), {}, 1),
        (sierpinski(6, 4), {}, 0),
        (hat43, {"budget": 800, "seed": seed}, 0),
    ]:
        built.clear()
        assert run(g, **kwargs)[1] == spares
        assert built == [g]


def input_bound(g):
    """The density bound on the input graph's own degrees."""
    return _density_bound(g.order, g.size, sorted(map(len, g._nbrs), reverse=True))


def test_bnb_builds_no_multigraph_where_the_input_degrees_settle(monkeypatch, reference_search):
    built = []
    real = Multigraph.from_labeled

    def spy(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(Multigraph, "from_labeled", spy)

    def builds(g):
        built.clear()
        return tau_bnb(g), len(built)

    tree = build_graph(range(7), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    for g in (tree, cycle_graph(8), complete_graph(4)):
        assert builds(g)[1] == 0
    # random graphs as the solve benchmark draws them, G(10, 16)
    rng = random.Random(2808)
    pairs = list(itertools.combinations(range(10), 2))
    settled = 0
    for _ in range(300):
        g = build_graph(range(10), rng.sample(pairs, 16))
        cert, count = builds(g)
        settles = input_bound(g) >= len(_greedy_fvs(g))
        assert count == (0 if settles else 1)
        settled += settles
        assert cert == reference_search(g, 300)
    # 175 settle on the input's degrees
    assert 150 < settled < 300


def test_bnb_seed_is_minimalized():
    g = cycle_graph(6)
    cert = tau_bnb(g, budget=1, seed=[0, 1, 2, 3])
    assert cert.tau == 1
    assert verify_certificate(g, cert)


def test_bnb_rejects_bad_seeds():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="unknown vertex"):
        tau_bnb(g, seed=[0, "zz"])
    with pytest.raises(ValueError, match="not a feedback vertex set"):
        tau_bnb(g, seed=[0])


def test_bnb_full_seed_allowed():
    g = complete_graph(5)
    cert = tau_bnb(g, seed=list(range(5)))
    assert cert.tau == 3
    assert cert.optimal


def test_bnb_seed_check_matches_is_forest(reference_search):
    # the minimalizing union-find rejects a seed exactly when its
    # complement holds a cycle, and a feasible seed keeps the node order
    rng = random.Random(2718)
    rejected = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 12), rng.choice([0.15, 0.3, 0.5, 0.8]))
        labels = g.vertices()
        seed = [v for v in labels if rng.random() < rng.random()]
        if not is_forest(g, set(labels) - set(seed)):
            rejected += 1
            with pytest.raises(ValueError, match="^seed is not a feedback vertex set$"):
                tau_bnb(g, budget=1, seed=seed)
            # an unknown label is still named first
            with pytest.raises(ValueError, match="^seed contains unknown vertex 'x'$"):
                tau_bnb(g, budget=1, seed=seed + ["x"])
        else:
            assert tau_bnb(g, budget=1, seed=seed) == reference_search(g, 1, seed)
    assert 0 < rejected < 300


# cross-checks


def test_bnb_matches_bruteforce_on_random_graphs():
    rng = random.Random(1729)
    for trial in range(60):
        order = rng.randint(0, 12)
        prob = rng.choice([0.15, 0.3, 0.5, 0.8])
        g = random_graph(rng, order, prob)
        brute = tau_bruteforce(g)
        fast = tau_bnb(g)
        assert fast.optimal, (trial, order, prob)
        assert fast.tau == brute.tau, (trial, order, prob)
        assert verify_certificate(g, fast)


def test_bnb_additive_over_disjoint_union():
    edges = []
    for u, v in complete_graph(4).edges():
        edges.append((f"a{u}", f"a{v}"))
    for u, v in cycle_graph(5).edges():
        edges.append((f"b{u}", f"b{v}"))
    for u, v in petersen().edges():
        edges.append((f"c{u}", f"c{v}"))
    verts = {u for e in edges for u in e}
    cert = tau_bnb(build_graph(verts, edges))
    assert cert.tau == 2 + 1 + 3
    assert cert.optimal


def test_bnb_dense_instance():
    cert = tau_bnb(complete_graph(30))
    assert cert.tau == 28
    assert cert.optimal


# the lower bound never exceeds tau, and on hat it counts every clique K_p


def assert_bound_below_tau(g):
    """The bound of g, and of g after the reductions plus the vertices
    they force, is at most tau(g)."""
    tau = tau_bruteforce(g).tau
    mg = Multigraph.from_labeled(g)
    live = mg.live_vertices()
    assert _lower_bound(mg, live, len(live) + 1) <= tau
    chosen = []
    live = _reduce(mg, live, frozenset(), chosen)
    assert len(chosen) + _lower_bound(mg, live, len(live) + 1) <= tau


def test_lower_bound_below_tau_on_random_graphs():
    rng = random.Random(577)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 14), rng.uniform(0.2, 0.9))
        assert_bound_below_tau(g)


@pytest.mark.parametrize(
    "family,builder",
    [("s", sierpinski), ("plus", sierpinski_plus), ("pp", sierpinski_plusplus), ("hat", triangle)],
)
def test_lower_bound_below_tau_on_families(family, builder):
    # up to the brute-force cap of 22 vertices, hat(6,1) and pp(4,2)
    # included
    for p in range(2, 23):
        for n in range(0 if family in ("s", "hat") else 1, 5):
            if expected_order(family, p, n) <= 22:
                assert_bound_below_tau(builder(p, n))


def assert_input_bound_settles_soundly(g):
    """The input's density bound is at most tau(g), and where it reaches
    the greedy's size one node proves that size optimal."""
    brute = tau_bruteforce(g)
    bound = input_bound(g)
    assert bound <= brute.tau
    if bound >= len(_greedy_fvs(g)):
        cert = tau_bnb(g, budget=1)
        assert cert.optimal and cert.tau == brute.tau
    return bound >= len(_greedy_fvs(g))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    # sampled, not st.integers, whose draws favour order 0
    st.sampled_from(range(15)),
    st.sampled_from((0.1, 0.2, 0.35, 0.5, 0.7, 0.9)),
    st.integers(0, 2**32 - 1),
)
def test_input_bound_below_tau_on_random_graphs(order, prob, seed):
    assert_input_bound_settles_soundly(random_graph(random.Random(seed), order, prob))


def test_input_bound_below_tau_on_families():
    # the family instances of the solver cross-check in the acceptance tests
    settled = instances = 0
    for family, builder in _BUILDERS.items():
        for p in range(2, 10):
            for n in range(0 if family == "hat" else 1, 6):
                if expected_order(family, p, n) <= 20:
                    settled += assert_input_bound_settles_soundly(builder(p, n))
                    instances += 1
    # 25 of the 54 settle
    assert 0 < settled < instances


@pytest.mark.parametrize("p,n", [(4, 1), (4, 2), (4, 3), (5, 2), (6, 2), (7, 2)])
def test_lower_bound_at_the_root_of_hat(p, n):
    # p^n cliques K_p, and every vertex lies in at most two of them
    mg = Multigraph.from_labeled(triangle(p, n))
    live = mg.live_vertices()
    assert _lower_bound(mg, live, len(live) + 1) == -(-p**n * (p - 2) // 2)


# the incumbent against the rescanning reference in conftest


def assert_incumbent_matches_reference(g, reference, rng):
    """_greedy_fvs and _minimalize (of every vertex and of a shuffled
    superset of the incumbent) return the reference lists, and each is a
    feedback vertex set none of whose vertices can be dropped."""
    mg = Multigraph.from_labeled(g)
    labels = g.vertices()
    incumbent = _greedy_fvs(g)
    assert incumbent == reference.greedy_fvs(mg)
    everything = list(range(len(labels)))
    superset = [v for v in everything if v in incumbent or rng.random() < 0.3]
    rng.shuffle(superset)
    results = [incumbent]
    for chosen in (everything, superset):
        results.append(_minimalize(g, chosen))
        assert results[-1] == reference.minimalize(mg, chosen)
    for fvs in results:
        forest = set(labels) - {labels[v] for v in fvs}
        assert is_forest(g, forest)
        for v in fvs:
            assert not is_forest(g, forest | {labels[v]}), labels[v]


def test_incumbent_matches_reference_on_random_graphs(reference_incumbent):
    rng = random.Random(2718)
    for _ in range(200):
        order = rng.randint(0, 40)
        prob = rng.uniform(0.05, 0.7)
        g = random_graph(rng, order, prob)
        assert_incumbent_matches_reference(g, reference_incumbent, rng)


@pytest.mark.parametrize(
    "family,builder",
    [("s", sierpinski), ("plus", sierpinski_plus), ("pp", sierpinski_plusplus), ("hat", triangle)],
)
def test_incumbent_matches_reference_on_families(reference_incumbent, family, builder):
    # every instance of order <= 300 with n >= 2 has p <= 17
    rng = random.Random(family)
    for p in range(2, 18):
        for n in range(0 if family in ("s", "hat") else 1, 9):
            if expected_order(family, p, n) <= 300:
                assert_incumbent_matches_reference(builder(p, n), reference_incumbent, rng)


# the search against the recounting reference in conftest: equal
# certificates at every budget pin the order of the nodes, not just tau


@pytest.mark.parametrize("budget", [1, 2, 10, 100, 800])
def test_search_matches_reference_on_seeded_open_case(reference_search, budget):
    g = triangle(4, 3)
    seed = sorted(set(g.vertices()) - forest_triangle(4, 3, graph=g))
    cert = tau_bnb(g, budget=budget, seed=seed)
    assert cert == reference_search(g, budget, seed)


@pytest.mark.parametrize(
    "builder,p,n", [(triangle, 4, 1), (triangle, 4, 2), (sierpinski, 6, 3)]
)
def test_search_matches_reference_to_optimality(reference_search, builder, p, n):
    g = builder(p, n)
    cert = tau_bnb(g)
    assert cert.optimal
    assert cert == reference_search(g, DEFAULT_BUDGET)


@pytest.mark.parametrize(
    "p,n,budget",
    [(3, 1, DEFAULT_BUDGET), (3, 2, DEFAULT_BUDGET), (3, 3, DEFAULT_BUDGET), (5, 2, 5), (5, 2, 300)],
)
def test_odd_quotients_match_the_reference(reference_search, p, n, budget):
    # at odd p the second incumbent, where the root computes it, is no
    # smaller than the greedy's
    g = triangle(p, n)
    assert tau_bnb(g, budget=budget) == reference_search(g, budget)


@pytest.mark.parametrize("p,n", [(4, 2), (4, 3), (6, 2)])
def test_even_quotients_take_the_reference_witness(reference_search, p, n):
    # the reference's bound has no clique cover, so past hat(4,2) it does
    # not close (its root bound on hat(6,2) is 58); its root offers the
    # same second incumbent, which nothing beats
    g = triangle(p, n)
    cert = tau_bnb(g)
    want = reference_search(g, 10)
    assert cert.optimal and not want.optimal
    assert (cert.tau, cert.witness) == (want.tau, want.witness)


def test_search_matches_reference_on_random_graphs(reference_search):
    # at 300 nodes 157 of these close and 43 stop on the budget
    rng = random.Random(1618)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 30), rng.uniform(0.05, 0.6))
        assert tau_bnb(g, budget=300) == reference_search(g, 300)
    # only 71 of the 2,952 branch nodes above are on one vertex; without a
    # triangle 3,220 of 3,669 are, and 37 of the 60 close
    for _ in range(60):
        g = random_triangle_free_graph(rng, rng.randint(12, 24), rng.uniform(0.4, 1.0))
        assert tau_bnb(g, budget=300) == reference_search(g, 300)


# the packs a search replays from its parent node's against packs from
# scratch, at every node of the instances the reference tests above search


def search_instances():
    """(graph, budget, seed) for the searches of the reference tests."""
    g = triangle(4, 3)
    seed = sorted(set(g.vertices()) - forest_triangle(4, 3, graph=g))
    for budget in (1, 2, 10, 100, 800):
        yield g, budget, seed
    for builder, p, n in [(triangle, 4, 1), (triangle, 4, 2), (sierpinski, 6, 3)]:
        yield builder(p, n), DEFAULT_BUDGET, None
    rng = random.Random(1618)
    for _ in range(200):
        yield random_graph(rng, rng.randint(0, 30), rng.uniform(0.05, 0.6)), 300, None
    for _ in range(60):
        yield random_triangle_free_graph(rng, rng.randint(12, 24), rng.uniform(0.4, 1.0)), 300, None


def pack_against_scratch(monkeypatch):
    """Make every _pack_cliques call pack again from scratch.  The
    returned Counter counts the calls, those given a parent's log, the
    cliques they replayed from it and the calls whose (total, full)
    differs from the pack from scratch."""
    real = exact_fvs._pack_cliques
    seen = Counter()

    def checked(mg, live, cap, prev=None, log=None):
        log = log or ([], [], {})
        got = real(mg, live, cap, prev, log)
        seen["calls"] += 1
        if prev is not None:
            seen["with a log"] += 1
            replayed = {id(clique) for clique in prev[0]}
            seen["replayed"] += sum(id(clique) in replayed for clique in log[0])
        seen["wrong"] += got != real(mg, live, cap)
        return got

    monkeypatch.setattr(exact_fvs, "_pack_cliques", checked)
    return seen


@pytest.mark.parametrize("builder,p,n", [(triangle, 4, 2), (sierpinski, 4, 3)])
@pytest.mark.parametrize("cap", [1, 2])
def test_root_pack_logs_every_mask(builder, p, n, cap):
    # a pack with no parent's log still logs each clique's mask, so its
    # children replay from the masks without recomputing them
    mg = Multigraph.from_labeled(builder(p, n))
    log = [], [], {}
    _pack_cliques(mg, mg.live_vertices(), cap, None, log)
    assert log[0] and log[1] == list(map(_mask, log[0]))


def test_replayed_packs_match_packs_from_scratch(monkeypatch):
    seen = pack_against_scratch(monkeypatch)
    for g, budget, seed in search_instances():
        tau_bnb(g, budget=budget, seed=seed)
        assert seen["wrong"] == 0, (g, budget)
    # most packs replay, and most of their cliques come from the parent
    assert seen["with a log"] > 0.8 * seen["calls"] > 1000
    assert seen["replayed"] > 10_000


def test_replay_needs_every_removal_marked_dirty(monkeypatch):
    # a removal that leaves dirty as it was lets a stale clique replay
    real = Multigraph.remove_vertex

    def unmarked(mg, v):
        dirty = mg.dirty
        real(mg, v)
        mg.dirty = dirty

    monkeypatch.setattr(Multigraph, "remove_vertex", unmarked)
    seen = pack_against_scratch(monkeypatch)
    for g, budget, seed in search_instances():
        tau_bnb(g, budget=budget, seed=seed)
        if seen["wrong"]:
            break
    assert seen["wrong"] > 0


def test_grow_clique_does_not_count_a_loop():
    # a loop at 3 would tie it with 1, and 3 comes first in adj[0]; the
    # multigraph refuses the loop and stays as it was
    mg = Multigraph(4)
    for u, v in [(0, 3), (0, 1), (0, 2), (1, 2), (1, 3)]:
        mg.add_edge(u, v)
    before = [dict(d) for d in mg.adj], list(mg.deg), sum(mg.deg) // 2
    with pytest.raises(GraphError, match="self-loop at 3"):
        mg.add_edge(3, 3)
    assert ([dict(d) for d in mg.adj], list(mg.deg), sum(mg.deg) // 2) == before
    assert _grow_clique(mg, 0) == [0, 1, 3]


def random_multigraph(rng, order, edge_prob):
    """A loop-free multigraph as the search meets one: a random simple
    graph, then parallel and new edges on distinct live pairs and
    removed vertices."""
    mg = Multigraph.from_labeled(random_graph(rng, order, edge_prob))
    for _ in range(rng.randint(0, 2 * order)):
        live = mg.live_vertices()
        if len(live) < 2:
            break
        u = rng.choice(live)
        if rng.random() < 0.15:
            mg.remove_vertex(u)
        elif mg.adj[u] and rng.random() < 0.5:
            v = rng.choice(list(mg.adj[u]))
            for _ in range(rng.randint(1, 2)):
                mg.add_edge(u, v)
        else:
            mg.add_edge(u, rng.choice([v for v in live if v != u]))
    return mg


def test_loop_free_helpers_match_the_loop_guards(reference_loop_guards):
    ref = reference_loop_guards
    rng = random.Random(4242)
    parallel = bounds_with_cliques = 0
    for _ in range(300):
        mg = random_multigraph(rng, rng.randint(0, 16), rng.uniform(0.1, 0.9))
        live = mg.live_vertices()
        parallel += any(m >= 2 for v in live for m in mg.adj[v].values())
        for target in range(len(live) + 2):
            assert _lower_bound(mg, live, target) == ref.lower_bound(mg, live, target)
        for cap in (1, 2):
            assert _pack_cliques(mg, live, cap) == ref.pack_cliques(mg, live, cap)
        bounds_with_cliques += ref.pack_cliques(mg, live, 1)[0] > 0
        for v in live:
            assert _grow_clique(mg, v) == ref.grow_clique(mg, v)
        if live:
            candidates = [v for v in live if rng.random() < 0.6] or live
            for pool in (live, candidates):
                assert _branch_vertex(mg, pool) == ref.branch_vertex(mg, pool)
    # the samples reach the parallel-pair and the clique cases
    assert parallel > 100
    assert bounds_with_cliques > 100


def test_search_never_adds_a_loop(monkeypatch):
    # the solver's graph starts simple and a bypass joins two distinct
    # neighbours, so the reductions need no self-loop rule
    added = []
    real = Multigraph.add_edge

    def spy(mg, u, v):
        added.append((u, v))
        return real(mg, u, v)

    monkeypatch.setattr(Multigraph, "add_edge", spy)
    rng = random.Random(31)
    for _ in range(200):
        tau_bnb(random_graph(rng, rng.randint(0, 24), rng.uniform(0.05, 0.6)), budget=100)
    builders = {"s": sierpinski, "plus": sierpinski_plus, "pp": sierpinski_plusplus, "hat": triangle}
    for family, builder in builders.items():
        for p in range(2, 21):
            for n in range(0 if family in ("s", "hat") else 1, 9):
                if expected_order(family, p, n) <= 400:
                    tau_bnb(builder(p, n), budget=100)
    assert added
    assert all(u != v for u, v in added)


# the search's cheaper node tests against the code they replace


def test_flood_matches_the_components():
    # multigraphs as the search meets them: parallel edges, some fused by
    # bypasses, dead vertices and restrictions to unions of components;
    # a flood reaches exactly the component it starts in, and from a dead
    # or restricted-away vertex nothing else
    rng = random.Random(2727)
    parallel = split = 0
    for trial in range(400):
        mg = random_multigraph(rng, rng.randint(1, 30), rng.uniform(0.05, 0.3))
        live = mg.live_vertices()
        if trial % 2:
            live = _reduce(mg, live, frozenset(), [])
        comps = [sorted(c) for c in _components(mg.adj, live, mg.alive)]
        parts = [(mg, live, comps)]
        if len(comps) > 1:
            union = sorted(v for comp in comps[::2] for v in comp)
            parts.append((mg.restrict(union), union, comps[::2]))
        for sub, part, sub_comps in parts:
            parallel += any(sub.deg[v] != len(sub.adj[v]) for v in part)
            split += len(sub_comps) > 1
            reach = {v: _mask(comp) for comp in sub_comps for v in comp}
            for v in range(len(sub.adj)):
                assert _flood(sub.bits, v) == reach.get(v, 1 << v)
            if part:
                connected = _flood(sub.bits, part[0]).bit_count() == len(part)
                assert connected == (len(sub_comps) == 1)
    assert parallel > 250
    assert split > 80


def test_search_splits_and_copies_only_where_needed(reference_search, monkeypatch):
    # the flood leaves the component search to the nodes that split, and
    # the last child of a node takes over its graph instead of a copy, its
    # packs replaying as a copy's would; before, this search made 559
    # component searches and 775 copies, and grew the same cliques
    g = triangle(4, 3)
    seed = sorted(set(g.vertices()) - forest_triangle(4, 3, graph=g))
    want = reference_search(g, 800, seed)
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(exact_fvs, "_components", counted("components", exact_fvs._components))
    monkeypatch.setattr(Multigraph, "copy", counted("copy", Multigraph.copy))
    monkeypatch.setattr(exact_fvs, "_grow_clique", counted("grow", exact_fvs._grow_clique))
    assert tau_bnb(g, budget=800, seed=seed) == want
    assert calls == {"components": 25, "copy": 657, "grow": 3482}


def scanned_degrees_within(mg, vertices):
    inside = set(vertices)
    return [sum(m for u, m in mg.adj[v].items() if u in inside) for v in vertices]


def test_simple_vertex_tests_match_the_multiplicity_scans(monkeypatch, reference_loop_guards):
    # the parallel-pair test of _branch_vertex (degree above the number
    # of neighbours) and the popcount degrees of _degrees_within against
    # the scans of the multiplicities they replace: on random multigraphs
    # and random vertex sets, and at every node of real searches
    scanned_branch_vertex = reference_loop_guards.branch_vertex
    rng = random.Random(2728)
    parallel = 0
    for _ in range(300):
        mg = random_multigraph(rng, rng.randint(0, 20), rng.uniform(0.1, 0.9))
        live = mg.live_vertices()
        for v in live:
            has_pair = any(m >= 2 for m in mg.adj[v].values())
            assert (mg.deg[v] != len(mg.adj[v])) == has_pair
            parallel += has_pair
        for part in (live, [v for v in live if rng.random() < 0.5]):
            assert _degrees_within(mg, part) == scanned_degrees_within(mg, part)
            if part:
                pool = sorted(rng.sample(part, rng.randint(1, len(part))))
                assert _branch_vertex(mg, pool) == scanned_branch_vertex(mg, pool)
    assert parallel > 1000

    seen = Counter()
    real_degrees, real_branch = exact_fvs._degrees_within, exact_fvs._branch_vertex

    def degrees(mg, vertices):
        got = real_degrees(mg, vertices)
        seen["degrees"] += 1
        seen["parallel"] += any(mg.deg[v] != len(mg.adj[v]) for v in vertices)
        assert got == scanned_degrees_within(mg, vertices)
        return got

    def branch(mg, candidates):
        got = real_branch(mg, candidates)
        seen["branch"] += 1
        assert got == scanned_branch_vertex(mg, candidates)
        return got

    monkeypatch.setattr(exact_fvs, "_degrees_within", degrees)
    monkeypatch.setattr(exact_fvs, "_branch_vertex", branch)
    g = triangle(4, 3)
    seed = sorted(set(g.vertices()) - forest_triangle(4, 3, graph=g))
    tau_bnb(g, budget=800, seed=seed)
    tau_bnb(triangle(4, 2))
    tau_bnb(triangle(5, 2), budget=100)
    for _ in range(60):
        tau_bnb(random_graph(rng, rng.randint(8, 24), rng.uniform(0.1, 0.5)), budget=300)
    assert seen["degrees"] > 1000 and seen["branch"] > 500 and seen["parallel"] > 100
