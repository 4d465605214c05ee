"""Shared fixtures."""

import itertools
import math
from collections import Counter, deque
from types import SimpleNamespace

import pytest

from sfvs.addressing import (
    APEX_LABEL,
    EMPTY_WORD_LABEL,
    FAMILIES,
    Contracted,
    Hat,
    Prefixed,
    copy_labels,
    format_vertex,
    format_word,
    hat_labels,
    parse_word,
    word_labels,
    word_separator,
)
from sfvs.exact_fvs import FvsCertificate, _Best, _BudgetExhausted, _Ticker
from sfvs.generators import (
    _hat_tables,
    expected_order,
    expected_size,
    nonclique_edges,
    sierpinski,
    sierpinski_plusplus,
    triangle,
)
from sfvs.graph_core import (
    GraphError,
    LabeledGraph,
    Multigraph,
    _from_rows,
    _label_index,
    build_graph,
    contract_edges,
    find_cycle,
    is_forest,
    relabel,
)
from sfvs.pairable_forest import PairablePartition
from sfvs.triangle_forest import StructureReport, forest_order_recurrence


def _contracted_triangle(p, n):
    """The quotient family by its definition: the level n+1 base graph with
    every non-clique edge contracted and the extremes i^(n+1) renamed to
    the corners "^i"."""
    matching = nonclique_edges(p, n + 1)
    names = {(u, v): name for u, v, name in matching}
    h = contract_edges(sierpinski(p, n + 1), names, lambda u, v: names[u, v])
    corners = {word_separator(p).join([str(i)] * (n + 1)): f"^{i}" for i in range(p)}
    return relabel(h, lambda v: corners.get(v, v))


@pytest.fixture
def contracted_triangle():
    """Reference construction of triangle(p, n), as a function of (p, n)."""
    return _contracted_triangle


# The solver's incumbent as a rescanning greedy: a fresh union-find per
# candidate vertex and a full degree rescan per peel round.


def _feasible(mg: Multigraph, removed) -> bool:
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    live = [v for v in mg.live_vertices() if v not in removed]
    for v in live:
        parent[v] = v
    for v in live:
        for u, mult in mg.adj[v].items():
            if u in removed:
                continue
            if u == v or mult >= 2:
                return False
            if u > v:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def _minimalize(mg: Multigraph, chosen) -> list:
    """Drop redundant vertices from a feasible deletion set, last in
    first reconsidered."""
    keep = list(chosen)
    for v in sorted(set(chosen), reverse=True):
        trial = [x for x in keep if x != v]
        if _feasible(mg, set(trial)):
            keep = trial
    return keep


def _greedy_fvs(mg: Multigraph) -> list:
    """Quick feasible solution: peel trivial structure, then repeatedly
    delete a maximum-degree vertex; minimalized before returning."""
    work = mg.copy()
    chosen = []
    while True:
        changed = True
        while changed:
            changed = False
            for v in work.live_vertices():
                if not work.alive[v]:
                    continue
                if v in work.adj[v]:
                    chosen.append(v)
                    work.remove_vertex(v)
                    changed = True
                elif work.degree(v) <= 1:
                    work.remove_vertex(v)
                    changed = True
        live = work.live_vertices()
        if not live or _feasible(work, ()):
            break
        v = max(live, key=lambda x: (work.degree(x), -x))
        chosen.append(v)
        work.remove_vertex(v)
    return _minimalize(mg, chosen)


@pytest.fixture
def reference_incumbent():
    """Reference versions of exact_fvs._greedy_fvs and _minimalize."""
    return SimpleNamespace(greedy_fvs=_greedy_fvs, minimalize=_minimalize)


# The search as it was before the solver graph kept its own counts: a
# multigraph that recounts degrees, the edge count and the live set on
# every call, and the search chain that calls them.


class _RecountingMultigraph:
    """The solver's multigraph recounting degree, edge count and live
    set from the adjacency dicts on every call."""

    __slots__ = ("adj", "alive")

    def __init__(self, n: int):
        self.adj = [dict() for _ in range(n)]
        self.alive = [True] * n

    @classmethod
    def from_labeled(cls, g: LabeledGraph):
        """Build a Multigraph plus the index -> label table, indices in
        label order."""
        labels = sorted(g.vertices())
        index = {v: i for i, v in enumerate(labels)}
        mg = cls(len(labels))
        for u, v in g.edges():
            mg.add_edge(index[u], index[v])
        return mg, labels

    def add_edge(self, u: int, v: int, mult: int = 1):
        if u == v:
            self.adj[u][u] = self.adj[u].get(u, 0) + mult
        else:
            self.adj[u][v] = self.adj[u].get(v, 0) + mult
            self.adj[v][u] = self.adj[v].get(u, 0) + mult

    def remove_vertex(self, v: int):
        for u in list(self.adj[v]):
            if u != v:
                del self.adj[u][v]
        self.adj[v].clear()
        self.alive[v] = False

    def degree(self, v: int) -> int:
        d = 0
        for u, mult in self.adj[v].items():
            d += 2 * mult if u == v else mult
        return d

    def live_vertices(self):
        return [v for v in range(len(self.alive)) if self.alive[v]]

    def copy(self) -> "_RecountingMultigraph":
        out = _RecountingMultigraph(0)
        out.adj = [dict(d) for d in self.adj]
        out.alive = list(self.alive)
        return out

    def edge_count(self) -> int:
        total = 0
        for v, nbrs in enumerate(self.adj):
            for u, mult in nbrs.items():
                if u == v:
                    total += 2 * mult
                else:
                    total += mult
        return total // 2


def _reduce(mg: _RecountingMultigraph, forbidden, chosen) -> bool:
    """Apply reductions until fixpoint, appending forced vertices to
    chosen.  False means the forbidden set blocks every solution."""
    changed = True
    while changed:
        changed = False
        for v in mg.live_vertices():
            if not mg.alive[v]:
                continue
            nbrs = mg.adj[v]
            if v in nbrs:
                if v in forbidden:
                    return False
                chosen.append(v)
                mg.remove_vertex(v)
                changed = True
                continue
            # a parallel pair is a 2-cycle: a barred endpoint forces the other
            forced = None
            for u, mult in nbrs.items():
                if mult >= 2:
                    if v in forbidden and u in forbidden:
                        return False
                    if u in forbidden:
                        forced = v
                        break
                    if v in forbidden:
                        forced = u
                        break
            if forced is not None:
                if forced in forbidden:
                    return False
                chosen.append(forced)
                mg.remove_vertex(forced)
                changed = True
                continue
            deg = mg.degree(v)
            if deg <= 1:
                mg.remove_vertex(v)
                changed = True
                continue
            if deg == 2:
                items = list(nbrs.items())
                if len(items) == 1:
                    # v's whole cycle structure passes through u
                    u = items[0][0]
                    pick = u if u not in forbidden else v
                    if pick in forbidden:
                        return False
                    chosen.append(pick)
                    mg.remove_vertex(pick)
                    changed = True
                    continue
                u, w = items[0][0], items[1][0]
                if v in forbidden or u not in forbidden or w not in forbidden:
                    # bypass v; skipped only when v alone is still eligible
                    mg.remove_vertex(v)
                    mg.add_edge(u, w)
                    changed = True
                    continue
    return True


def _density_bound(order: int, edge_count: int, degs_desc) -> int:
    """Least t for which deleting even the t busiest vertices could leave
    few enough edges for a forest."""
    t = 0
    prefix = 0
    while edge_count - prefix > max(order - t - 1, 0):
        if t >= order:
            return order
        prefix += degs_desc[t]
        t += 1
    return t


def _pack_cliques(mg: _RecountingMultigraph):
    """Greedy vertex-disjoint cliques of size >= 3; each contributes
    size - 2 to the bound."""
    used = set()
    bound = 0
    for v in mg.live_vertices():
        if v in used:
            continue
        clique = _grow_clique(mg, v, used)
        if len(clique) >= 3:
            bound += len(clique) - 2
            used.update(clique)
    return bound, used


def _lower_bound(mg: _RecountingMultigraph) -> int:
    live = mg.live_vertices()
    order = len(live)
    if order == 0:
        return 0
    edges = mg.edge_count()
    degs = sorted((mg.degree(v) for v in live), reverse=True)
    best = _density_bound(order, edges, degs)
    packed, used = _pack_cliques(mg)
    if packed:
        rest = [v for v in live if v not in used]
        if rest:
            rest_set = set(rest)
            rest_edges = 0
            rest_degs = []
            for v in rest:
                d = 0
                for u, mult in mg.adj[v].items():
                    if u in rest_set and u != v:
                        d += mult
                        if u > v:
                            rest_edges += mult
                rest_degs.append(d)
            rest_degs.sort(reverse=True)
            packed += _density_bound(len(rest), rest_edges, rest_degs)
        best = max(best, packed)
    return best


def _components(mg: _RecountingMultigraph):
    seen = set()
    comps = []
    for start in mg.live_vertices():
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for u in mg.adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def _restrict(mg: _RecountingMultigraph, comp) -> _RecountingMultigraph:
    keep = set(comp)
    out = _RecountingMultigraph(0)
    out.adj = [dict(mg.adj[v]) if v in keep else {} for v in range(len(mg.adj))]
    out.alive = [v in keep for v in range(len(mg.alive))]
    return out


def _branch_vertex(mg: _RecountingMultigraph, candidates):
    multi = [
        v
        for v in candidates
        if any(u != v and m >= 2 for u, m in mg.adj[v].items())
    ]
    pool = multi or candidates
    return max(pool, key=lambda v: (mg.degree(v), -v))


def _grow_clique(mg: _RecountingMultigraph, v, used=()) -> list:
    """Greedy maximal clique through v, preferring well-connected
    extensions and avoiding the vertices in used."""
    cand = [u for u in mg.adj[v] if u != v and u not in used]
    clique = [v]
    while cand:
        best_u = None
        best_score = -1
        for u in cand:
            score = sum(1 for x in cand if x != u and x in mg.adj[u])
            if score > best_score:
                best_u, best_score = u, score
        clique.append(best_u)
        cand = [u for u in cand if u != best_u and u in mg.adj[best_u]]
    return clique


def _exclusion_sets(locked, free):
    """All ways to leave at most two clique vertices out of the solution,
    every locked vertex staying out."""
    if len(locked) == 0:
        yield frozenset()
        for a in free:
            yield frozenset((a,))
        for i, a in enumerate(free):
            for b in free[i + 1 :]:
                yield frozenset((a, b))
    elif len(locked) == 1:
        yield frozenset(locked)
        for a in free:
            yield frozenset((locked[0], a))
    else:
        yield frozenset(locked)


def _solve_component(sub: _RecountingMultigraph, forbidden, cutoff: int, ticker):
    """Exact minimum for one component, or None when nothing beats the
    cutoff (including infeasibility under the forbidden set)."""
    best = _Best(cutoff, None)
    _search(sub, [], forbidden, best, ticker)
    return None if best.witness is None else list(best.witness)


def _search(mg: _RecountingMultigraph, chosen, forbidden, best, ticker):
    # the caller hands over ownership of mg and chosen
    ticker.tick()
    if not _reduce(mg, forbidden, chosen):
        return
    if len(chosen) >= best.tau:
        return
    live = mg.live_vertices()
    if not live:
        best.offer(chosen)
        return
    # reductions leave minimum degree 2, so every component has a cycle
    comps = _components(mg)
    if len(comps) > 1:
        comps.sort(key=lambda c: (len(c), c[0]))
        for comp in comps[:-1]:
            allowance = best.tau - len(chosen)
            solved = _solve_component(
                _restrict(mg, comp),
                forbidden,
                min(len(comp) + 1, allowance),
                ticker,
            )
            if solved is None:
                return
            chosen.extend(solved)
            if len(chosen) >= best.tau:
                return
        mg = _restrict(mg, comps[-1])
    bound = len(chosen) + _lower_bound(mg)
    if bound >= best.tau:
        return
    candidates = [v for v in mg.live_vertices() if v not in forbidden]
    if not candidates:
        return
    v = _branch_vertex(mg, candidates)
    clique = _grow_clique(mg, v)
    if len(clique) >= 3:
        # a clique can keep at most two vertices out of any solution
        locked = [u for u in clique if u in forbidden]
        if len(locked) > 2:
            return
        free = [u for u in clique if u not in forbidden]
        for excl in _exclusion_sets(locked, free):
            include = [u for u in clique if u not in excl]
            if len(chosen) + len(include) >= best.tau:
                continue
            child = mg.copy()
            for u in include:
                child.remove_vertex(u)
            _search(child, chosen + include, forbidden | excl, best, ticker)
            if bound >= best.tau:
                return
        return
    taken = mg.copy()
    taken.remove_vertex(v)
    _search(taken, chosen + [v], forbidden, best, ticker)
    if bound >= best.tau:
        return
    _search(mg, list(chosen), forbidden | {v}, best, ticker)


def _reference_tau(g, budget, seed=None) -> FvsCertificate:
    mg, labels = _RecountingMultigraph.from_labeled(g)
    if seed is None:
        incumbent = _greedy_fvs(mg)
    else:
        index = {v: i for i, v in enumerate(labels)}
        incumbent = _minimalize(mg, [index[v] for v in sorted(set(seed))])
    best = _Best(len(incumbent), tuple(sorted(incumbent)))
    optimal = True
    try:
        _search(mg.copy(), [], frozenset(), best, _Ticker(budget))
    except _BudgetExhausted:
        optimal = False
    witness = tuple(sorted(labels[i] for i in best.witness))
    return FvsCertificate(best.tau, witness, optimal)


@pytest.fixture
def reference_search():
    """Reference tau_bnb(g, budget, seed) over the recounting multigraph,
    with the rescanning incumbent above."""
    return _reference_tau


# The search's bound, clique and branch helpers as they were while
# Multigraph could hold a loop: each skips or discounts one.  On a
# loop-free multigraph they must agree with the solver's.


def _guarded_pack_cliques(mg: Multigraph, live, cap: int):
    """Greedy cliques of size >= 3 that use each vertex at most cap
    times, grown from each vertex in turn until it is used up; the second
    clique grown from a vertex leaves out the rest of its first.  Returns
    the sum of size - 2 over the cliques and the vertices used cap times."""
    full = set()
    home = {}  # vertex -> its first clique, while it has only one
    total = 0
    for v in live:
        while v not in full:
            clique = _guarded_grow_clique(mg, v, full, home.get(v, ()))
            if len(clique) < 3:
                break
            total += len(clique) - 2
            for u in clique:
                if cap == 1 or u in home:
                    full.add(u)
                else:
                    home[u] = clique
    return total, full


def _guarded_lower_bound(mg: Multigraph, live, target: int) -> int:
    """A lower bound on the deletions mg still needs.  Tries the density
    bound, then disjoint cliques plus the density of what they leave,
    then cliques that may share vertices, and stops at the first that
    reaches target."""
    order = len(live)
    if order == 0:
        return 0
    degs = sorted(map(mg.deg.__getitem__, live), reverse=True)
    best = _density_bound(order, mg.size, degs)
    if best >= target:
        return best
    packed, used = _guarded_pack_cliques(mg, live, 1)
    if not packed:
        # no triangle, so no clique for the cover either
        return best
    rest = [v for v in live if v not in used]
    if rest:
        rest_set = set(rest)
        rest_edges = 0
        rest_degs = []
        for v in rest:
            d = 0
            for u, mult in mg.adj[v].items():
                if u in rest_set and u != v:
                    d += mult
                    if u > v:
                        rest_edges += mult
            rest_degs.append(d)
        rest_degs.sort(reverse=True)
        packed += _density_bound(len(rest), rest_edges, rest_degs)
    best = max(best, packed)
    if best >= target:
        return best
    # any solution holds all but two vertices of each clique, and each of
    # its vertices lies in at most two cliques
    covered, _ = _guarded_pack_cliques(mg, live, 2)
    return max(best, (covered + 1) // 2)


def _guarded_branch_vertex(mg: Multigraph, candidates):
    multi = [
        v
        for v in candidates
        if any(u != v and m >= 2 for u, m in mg.adj[v].items())
    ]
    pool = multi or candidates
    # pool is in index order, so max keeps the lowest index on ties
    return max(pool, key=mg.deg.__getitem__)


def _guarded_grow_clique(mg: Multigraph, v, used=(), avoid=()) -> list:
    """Greedy maximal clique through v, preferring well-connected
    extensions and avoiding the vertices in used and in avoid."""
    adj = mg.adj
    cand = [u for u in adj[v] if u != v and u not in used and u not in avoid]
    clique = [v]
    while len(cand) >= 2:
        cand_set = set(cand)
        best_u = None
        best_score = -1
        for u in cand:
            score = len(cand_set & adj[u].keys()) - (u in adj[u])
            if score > best_score:
                best_u, best_score = u, score
        clique.append(best_u)
        cand = [u for u in cand if u != best_u and u in adj[best_u]]
    return clique + cand


@pytest.fixture
def reference_loop_guards():
    """The loop-guarding _lower_bound, _pack_cliques, _grow_clique and
    _branch_vertex, over the solver's Multigraph."""
    return SimpleNamespace(
        lower_bound=_guarded_lower_bound,
        pack_cliques=_guarded_pack_cliques,
        grow_clique=_guarded_grow_clique,
        branch_vertex=_guarded_branch_vertex,
    )


# The four family builders as they were before graph building worked on
# integer indices: every edge spelled as two label strings and built by
# a string-keyed build_graph.


def _string_adjacency(vertices, edges):
    """The string build's sorted adjacency map of label tuples and its
    edge count."""
    adj = {str(v): set() for v in vertices}
    for u, v in edges:
        u, v = str(u), str(v)
        if u == v:
            raise GraphError(f"self-loop at {u!r}")
        for x in (u, v):
            if x not in adj:
                raise GraphError(f"edge endpoint {x!r} is not a declared vertex")
        adj[u].add(v)
        adj[v].add(u)
    final = {u: tuple(sorted(nbrs)) for u, nbrs in sorted(adj.items())}
    size = sum(len(nbrs) for nbrs in final.values()) // 2
    return final, size


def _string_build_graph(vertices, edges) -> LabeledGraph:
    final, _ = _string_adjacency(vertices, edges)
    return build_graph(final, ((u, v) for u, nbrs in final.items() for v in nbrs if u < v))


def _check_params(p: int, n: int, n_min: int) -> None:
    if p < 1:
        raise ValueError(f"alphabet size must be positive, got {p}")
    if n < n_min:
        raise ValueError(f"level must be at least {n_min}, got {n}")


def _check_family(family: str, p: int, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _check_params(p, n, 1 if family in ("plus", "pp") else 0)
    if family == "hat" and p < 2:
        raise ValueError(f"the quotient family needs at least 2 symbols, got {p}")


def _word_labels(p: int, n: int):
    if n == 0:
        return [EMPTY_WORD_LABEL]
    sep = word_separator(p)
    sym = [str(k) for k in range(p)]
    return [sep.join(t) for t in itertools.product(sym, repeat=n)]


def _sierpinski_edges(p: int, n: int):
    sep = word_separator(p)
    sym = [str(k) for k in range(p)]
    for d in range(1, n + 1):
        for s in itertools.product(sym, repeat=n - d):
            base = list(s)
            for i in range(p):
                si = sym[i]
                for j in range(i + 1, p):
                    sj = sym[j]
                    yield (
                        sep.join(base + [si] + [sj] * (d - 1)),
                        sep.join(base + [sj] + [si] * (d - 1)),
                    )


def _string_sierpinski(p: int, n: int, build=_string_build_graph):
    _check_family("s", p, n)
    return build(_word_labels(p, n), _sierpinski_edges(p, n))


def _string_sierpinski_plus(p: int, n: int, build=_string_build_graph):
    _check_family("plus", p, n)
    sep = word_separator(p)
    extremes = [sep.join([str(i)] * n) for i in range(p)]
    edges = itertools.chain(
        _sierpinski_edges(p, n), ((APEX_LABEL, e) for e in extremes)
    )
    return build(_word_labels(p, n) + [APEX_LABEL], edges)


def _string_sierpinski_plusplus(p: int, n: int, build=_string_build_graph):
    _check_family("pp", p, n)
    sep = word_separator(p)
    copy = [f"{p}:{sep.join(t)}" for t in itertools.product([str(k) for k in range(p)], repeat=n - 1)]
    extremes = [
        (f"{p}:{sep.join([str(i)] * (n - 1))}", sep.join([str(i)] * n))
        for i in range(p)
    ]
    edges = itertools.chain(
        _sierpinski_edges(p, n),
        ((f"{p}:{u}", f"{p}:{v}") for u, v in _sierpinski_edges(p, n - 1)),
        extremes,
    )
    return build(_word_labels(p, n) + copy, edges)


def _string_triangle(p: int, n: int, build=_string_build_graph):
    _check_family("hat", p, n)
    rng = range(p)
    label = {k: format_vertex(Hat(k), p) for k in rng}
    for length in range(n):
        for s in itertools.product(rng, repeat=length):
            for i, j in itertools.combinations(rng, 2):
                label[s, i, j] = format_vertex(Contracted(s, (i, j)), p)

    def image(w):
        x, r = w[-1], len(w) - 1
        while r and w[r - 1] == x:
            r -= 1
        if r == 0:
            return label[x]
        k = w[r - 1]
        return label[w[: r - 1], min(k, x), max(k, x)]

    cliques = ([image(u + (x,)) for x in rng] for u in itertools.product(rng, repeat=n))
    edges = (e for clique in cliques for e in itertools.combinations(clique, 2))
    g = build(label.values(), edges)
    if g.size != expected_size("hat", p, n):
        raise GraphError(
            f"closed-form edges of the quotient number {g.size}, "
            f"expected {expected_size('hat', p, n)}"
        )
    return g


_STRING_BUILDERS = {
    "s": _string_sierpinski,
    "plus": _string_sierpinski_plus,
    "pp": _string_sierpinski_plusplus,
    "hat": _string_triangle,
}


@pytest.fixture
def reference_builders():
    """The string-based builders of each family, keyed like
    verify_cli._BUILDERS."""
    return dict(_STRING_BUILDERS)


# The arbitrary-edge build as it was before build_graph filled the rows
# itself: labels and (i, j) index pairs into them, each pair checked.


def _build_indexed(labels, pairs) -> LabeledGraph:
    """Construct a LabeledGraph from a sequence of distinct string labels
    and edges given as (i, j) index pairs into it.  Duplicate edges
    collapse; indices outside 0..len(labels)-1, loops and repeated labels
    are rejected."""
    names, rank, pos = _label_index(labels)
    n = len(names)
    nbrs = [[] for _ in range(n)]
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an index not in range({n})")
        if u == v:
            raise GraphError(f"self-loop at {labels[u]!r}")
        u, v = pos[u], pos[v]
        nbrs[u].append(v)
        nbrs[v].append(u)
    for found in nbrs:
        found[:] = set(found)
    return _from_rows(names, rank, nbrs)


@pytest.fixture
def reference_build_indexed():
    """Reference build_indexed(labels, pairs), the index-pair build."""
    return _build_indexed


# The solver's component split as it was before it shared the graph
# core's search: a set of seen vertices and a stack, each component
# sorted.


def _multigraph_components(mg: Multigraph, live):
    seen = set()
    comps = []
    for start in live:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for u in mg.adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


@pytest.fixture
def reference_multigraph_components():
    """Reference exact_fvs._components(mg, live): the sorted components
    of a solver multigraph over its live vertices."""
    return _multigraph_components


# The four family builders as they were before the generators composed
# neighbour rows: each level streamed as a flat list of index pairs and
# the top level checked and deduplicated edge by edge by _build_indexed.


def _one(p: int, m: int) -> int:
    return sum(p**k for k in range(m))


def _copies(flat, tables):
    return itertools.chain.from_iterable(map(table.__getitem__, flat) for table in tables)


def _base_level(p: int, m: int, flat):
    q, one = p ** (m - 1), _one(p, m - 1)
    bridges = (
        (i * q + j * one, j * q + i * one) for i, j in itertools.combinations(range(p), 2)
    )
    shifts = [range(i * q, (i + 1) * q) for i in range(p)]
    return itertools.chain(_copies(flat, shifts), itertools.chain.from_iterable(bridges))


def _hat_level(p: int, m: int, flat):
    return _copies(flat, _hat_tables(p, m))


def _levels(level, p: int, n: int, flat):
    for m in range(1, n):
        flat = list(level(p, m, flat))
    top = iter(level(p, n, flat) if n else flat)
    return flat, zip(top, top)


def _edge_sierpinski(p: int, n: int) -> LabeledGraph:
    _check_family("s", p, n)
    _, edges = _levels(_base_level, p, n, [])
    return _build_indexed(word_labels(p, n), edges)


def _edge_sierpinski_plus(p: int, n: int) -> LabeledGraph:
    _check_family("plus", p, n)
    _, edges = _levels(_base_level, p, n, [])
    apex, one = p**n, _one(p, n)
    edges = itertools.chain(edges, ((apex, i * one) for i in range(p)))
    return _build_indexed(word_labels(p, n) + [APEX_LABEL], edges)


def _edge_sierpinski_plusplus(p: int, n: int) -> LabeledGraph:
    _check_family("pp", p, n)
    below, top = _levels(_base_level, p, n, [])
    off, one, one_below = p**n, _one(p, n), _one(p, n - 1)
    copy = _copies(below, [range(off, off + p ** (n - 1))])
    extremes = ((off + i * one_below, i * one) for i in range(p))
    edges = itertools.chain(top, zip(copy, copy), extremes)
    return _build_indexed(word_labels(p, n) + copy_labels(p, n - 1), edges)


def _edge_triangle(p: int, n: int) -> LabeledGraph:
    _check_family("hat", p, n)
    k_p = list(itertools.chain.from_iterable(itertools.combinations(range(p), 2)))
    _, edges = _levels(_hat_level, p, n, k_p)
    g = _build_indexed(hat_labels(p, n), edges)
    if g.size != expected_size("hat", p, n):
        raise GraphError(
            f"closed-form edges of the quotient number {g.size}, "
            f"expected {expected_size('hat', p, n)}"
        )
    return g


@pytest.fixture
def reference_edge_builders():
    """The edge-stream builders of each family, keyed like
    verify_cli._BUILDERS."""
    return {
        "s": _edge_sierpinski,
        "plus": _edge_sierpinski_plus,
        "pp": _edge_sierpinski_plusplus,
        "hat": _edge_triangle,
    }


# The graph core as it was before LabeledGraph kept integer neighbour
# tuples: a sorted adjacency map of label tuples, the checks that hash
# labels, and the solver graph built from sorted labels and edges().


class _LabelKeyedGraph:
    """Immutable undirected simple graph over string vertex labels."""

    __slots__ = ("_adj", "_size")

    def __init__(self, adj, size):
        self._adj = adj
        self._size = size

    @property
    def order(self) -> int:
        return len(self._adj)

    @property
    def size(self) -> int:
        return self._size

    def vertices(self) -> list:
        """All labels in sorted order."""
        return list(self._adj)

    def neighbors(self, v: str):
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"no such vertex: {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def __contains__(self, v) -> bool:
        return v in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.neighbors(u)

    def edges(self):
        """All edges as sorted (u, v) pairs with u < v, in sorted order."""
        out = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def induced(self, subset) -> "_LabelKeyedGraph":
        keep = set(subset)
        missing = keep - self._adj.keys()
        if missing:
            raise GraphError(f"no such vertex: {min(missing)!r}")
        adj = {}
        size = 0
        for u in sorted(keep):
            nbrs = tuple(v for v in self._adj[u] if v in keep)
            adj[u] = nbrs
            size += len(nbrs)
        return _LabelKeyedGraph(adj, size // 2)

    def components(self):
        """Connected components as sorted lists of labels, sorted by their
        first label."""
        seen = set()
        out = []
        for start in self._adj:
            if start in seen:
                continue
            comp = []
            queue = deque([start])
            seen.add(start)
            while queue:
                u = queue.popleft()
                comp.append(u)
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
            out.append(sorted(comp))
        out.sort(key=lambda c: c[0])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, _LabelKeyedGraph):
            return NotImplemented
        return self._adj == other._adj

    __hash__ = None


def _label_keyed_graph(vertices, edges) -> _LabelKeyedGraph:
    return _LabelKeyedGraph(*_string_adjacency(vertices, edges))


def _subset_vertices(g: _LabelKeyedGraph, subset):
    if subset is None:
        return g._adj.keys()
    keep = set(subset)
    missing = keep - g._adj.keys()
    if missing:
        raise GraphError(f"no such vertex: {min(missing)!r}")
    return keep


def _is_forest(g: _LabelKeyedGraph, subset=None) -> bool:
    """True when the subgraph induced by subset (default: all of g) is
    acyclic.  Union-find, so near-linear."""
    keep = _subset_vertices(g, subset)
    parent = {v: v for v in keep}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u in keep:
        for v in g.neighbors(u):
            if u < v and v in keep:
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
    return True


def _find_cycle(g: _LabelKeyedGraph, subset=None):
    """A cycle in the induced subgraph as a closed vertex list
    [v0, v1, ..., v0], or None if the subgraph is a forest."""
    keep = _subset_vertices(g, subset)
    parent = {}
    for start in sorted(keep):
        if start in parent:
            continue
        parent[start] = start
        stack = [(start, start)]
        while stack:
            u, from_v = stack.pop()
            for v in g.neighbors(u):
                if v not in keep or v == from_v:
                    continue
                if v in parent:
                    # non-tree edge; join the two ancestries at their
                    # lowest common vertex
                    up_u = [u]
                    while parent[up_u[-1]] != up_u[-1]:
                        up_u.append(parent[up_u[-1]])
                    up_v = [v]
                    while parent[up_v[-1]] != up_v[-1]:
                        up_v.append(parent[up_v[-1]])
                    i, j = len(up_u) - 1, len(up_v) - 1
                    while i > 0 and j > 0 and up_u[i - 1] == up_v[j - 1]:
                        i -= 1
                        j -= 1
                    cycle = up_u[: i + 1] + up_v[:j][::-1] + [u]
                    assert len(cycle) >= 4
                    return cycle
                parent[v] = u
                stack.append((v, u))
    return None


def _from_labeled(g: _LabelKeyedGraph):
    """Build a Multigraph plus the index -> label table, indices in
    label order."""
    labels = sorted(g.vertices())
    index = {v: i for i, v in enumerate(labels)}
    mg = Multigraph(len(labels))
    for u, v in g.edges():
        mg.add_edge(index[u], index[v])
    return mg, labels


@pytest.fixture
def reference_graph_core():
    """The label-keyed graph core: build(vertices, edges) makes a graph
    with its methods, family(family, p, n) builds a family instance
    through the string builders, and is_forest, find_cycle and
    from_labeled are the checks and the solver-graph build over it."""
    return SimpleNamespace(
        build=_label_keyed_graph,
        family=lambda family, p, n: _STRING_BUILDERS[family](p, n, build=_label_keyed_graph),
        is_forest=_is_forest,
        find_cycle=_find_cycle,
        from_labeled=_from_labeled,
    )


def _bruteforce_by_size(g, cap: int = 22) -> FvsCertificate:
    """tau_bruteforce as it was: every deletion set in increasing size."""
    n = g.order
    if n > cap:
        raise ValueError(
            f"{n} vertices exceeds the brute-force cap of {cap}; use tau_bnb"
        )
    labels = sorted(g.vertices())
    index = {v: i for i, v in enumerate(labels)}
    edges = [(index[u], index[v]) for u, v in g.edges()]

    def acyclic_without(removed) -> bool:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            if u in removed or v in removed:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if acyclic_without(set(combo)):
                witness = tuple(labels[i] for i in combo)
                return FvsCertificate(k, witness, True)
    raise AssertionError("unreachable: removing every vertex leaves a forest")


@pytest.fixture
def reference_bruteforce():
    """Reference tau_bruteforce(g, cap) enumerating deletion sets only."""
    return _bruteforce_by_size


def _verify_certificate(g: LabeledGraph, cert: FvsCertificate) -> bool:
    witness = set(cert.witness)
    if len(cert.witness) != cert.tau or len(witness) != cert.tau:
        return False
    vertices = set(g.vertices())
    if not witness <= vertices:
        return False
    return is_forest(g, vertices - witness)


@pytest.fixture
def reference_verify_certificate():
    """Reference verify_certificate(g, cert) on label sets: the witness
    and the vertex set as Python sets, the forest as their difference."""
    return _verify_certificate


# The forest constructions as they were before they moved onto vertex
# indices: the closure on word tuples, the 3-symbol recursion on Hat /
# Contracted objects, and the linear forest grown with _prefix_triangle,
# each vertex formatted on its own.  The linear forest is checked and
# decomposed as it was before that ran in one pass over indices: through
# the induced subgraph, its degrees and its components.


def _closure_block_split(block, p: int):
    if p < 3:
        raise ValueError(f"the closure needs at least 3 symbols, got {p}")
    wa, wb = block
    s, a, b = wa[:-1], wa[-1], wb[-1]
    if wb[:-1] != s or a == b:
        raise ValueError(f"not a block: {block!r}")
    own = [
        ((*s, a, a), (*s, a, b)),
        ((*s, b, a), (*s, b, b)),
    ]
    other = [
        ((*s, k, (k - 1) % p), (*s, k, (k + 1) % p))
        for k in range(p)
        if k != a and k != b
    ]
    return own, other


def _closure_block(block, p: int) -> set:
    pair = tuple(sorted(w if isinstance(w, tuple) else parse_word(str(w), p) for w in block))
    if len(pair) != 2:
        raise ValueError(f"a block has exactly 2 words, got {len(pair)}")
    own, other = _closure_block_split(pair, p)
    return {format_word(w, p) for blk in own + other for w in blk}


def _closure(partition: PairablePartition, p: int) -> PairablePartition:
    blocks = []
    for block in partition.blocks:
        own, other = _closure_block_split(block, p)
        blocks.extend(own)
        blocks.extend(other)
    blocks.sort()
    heads = [b[0][:-1] for b in blocks]
    assert len(set(heads)) == len(heads)
    return PairablePartition(tuple(blocks))


def _closure_split(partition: PairablePartition, p: int):
    part1, part2 = set(), set()
    for block in partition.blocks:
        own, other = _closure_block_split(block, p)
        part1.update(format_word(w, p) for blk in own for w in blk)
        part2.update(format_word(w, p) for blk in other for w in blk)
    return frozenset(part1), frozenset(part2)


def _seed(a: int, b: int) -> PairablePartition:
    return PairablePartition((((a,), (b,)),))


def _closed(seed: PairablePartition, p: int, n: int) -> PairablePartition:
    part = seed
    for _ in range(n - 1):
        part = _closure(part, p)
    return part


def _forest_sierpinski(p: int, n: int) -> set:
    if p < 2:
        raise ValueError(f"need at least 2 symbols, got {p}")
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if p == 2:
        return set(word_labels(p, n))
    return set(_closed(_seed(1, 2), p, n).labels(p))


def _fvs_sierpinski(p: int, n: int) -> set:
    forest = _forest_sierpinski(p, n)
    return set(word_labels(p, n)) - forest


def _forest_plus(p: int, n: int) -> set:
    if p < 2:
        raise ValueError(f"need at least 2 symbols, got {p}")
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if p == 2:
        return _forest_sierpinski(2, n)
    if n == 1:
        raise ValueError("no level-1 construction: the apex graph is complete")
    forest = _forest_sierpinski(p, n)
    forest.remove(format_word((1,) * n, p))
    forest.add(format_word((1,) * (n - 1) + (0,), p))
    forest.add(APEX_LABEL)
    return forest


def _copy_seed(p: int) -> PairablePartition:
    if p >= 5:
        return _seed(3, 4)
    if p == 4:
        return _seed(0, 3)
    return _seed(0, 1)


def _forest_plusplus(p: int, n: int, graph: LabeledGraph | None = None) -> set:
    if p < 2:
        raise ValueError(f"need at least 2 symbols, got {p}")
    if n < 1:
        raise ValueError(f"level must be at least 1, got {n}")
    if p == 2:
        forest = set(word_labels(p, n)) | set(copy_labels(p, n - 1))
        forest.remove(format_word((0,) * n, p))
        return forest
    if n < 2:
        raise ValueError("no level-1 construction: the copy collapses to a point")
    host = _forest_sierpinski(p, n)
    copy_words = _closed(_copy_seed(p), p, n - 1).words()
    union = host | {format_vertex(Prefixed(w), p) for w in copy_words}
    g = sierpinski_plusplus(p, n) if graph is None else graph
    if g.order != expected_order("pp", p, n):
        raise GraphError(
            f"graph has order {g.order}, expected {expected_order('pp', p, n)}"
        )
    cycle = find_cycle(g, union)
    if cycle is not None:
        raise GraphError(f"construction induced a cycle: {cycle}")
    return union


def _prefix_triangle(i: int, v):
    """Embed a contracted-family vertex one level down into subtriangle i.

    The corner of subtriangle i that is also a global corner keeps its name;
    the other corners land on the contracted vertices shared with the
    neighbouring subtriangles:

        i * Hat(i) = Hat(i)
        i * Hat(j) = Contracted((), {i, j})   for j != i
        i * Contracted(s, q) = Contracted(i.s, q)
    """
    if i < 0:
        raise ValueError(f"symbol must be nonnegative, got {i}")
    if isinstance(v, Hat):
        if v.k == i:
            return v
        return Contracted((), tuple(sorted((i, v.k))))
    if isinstance(v, Contracted):
        return Contracted((i, *v.prefix), v.pair)
    raise TypeError(f"expected a corner or contracted vertex, got {v!r}")


_SIGMA = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def _permute(v, sigma):
    if isinstance(v, Hat):
        return Hat(sigma[v.k])
    prefix = tuple(sigma[x] for x in v.prefix)
    i, j = sigma[v.pair[0]], sigma[v.pair[1]]
    return Contracted(prefix, (min(i, j), max(i, j)))


def _embed3(j: int, v):
    return _prefix_triangle(j, _permute(v, _SIGMA[j]))


def _fvs_triangle3(n: int) -> set:
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    current = {Hat(0)}
    for _ in range(n):
        current = {_embed3(j, v) for j in range(3) for v in current}
    return {format_vertex(v, 3) for v in current}


def _wrap_pair(i: int, p: int):
    j = (i + 1) % p
    return (min(i, j), max(i, j))


def _corner_path_objects(s: int, p: int) -> set:
    out = {Hat(s), Hat(s + 1), Contracted((), (s, s + 1))}
    for i in range(p):
        if i == s:
            continue
        out.add(Contracted((s,), _wrap_pair(i, p)))
        out.add(Contracted((s + 1,), _wrap_pair(i, p)))
    return out


def _corner_path_base(s: int, p: int) -> set:
    if p < 4:
        raise ValueError(f"need at least 4 symbols, got {p}")
    if s % 2 or s + 1 >= p:
        raise ValueError(f"corner index must be even with s+1 < p, got {s}")
    return {format_vertex(v, p) for v in _corner_path_objects(s, p)}


def _tail_path_objects(p: int) -> set:
    out = {Hat(p - 1)}
    for i in range(p - 1):
        out.add(Contracted((p - 1,), (i, i + 1)))
    return out


def _tail_path_base(p: int) -> set:
    if p < 5 or p % 2 == 0:
        raise ValueError(f"only odd alphabets of size >= 5 have a tail path, got {p}")
    return {format_vertex(v, p) for v in _tail_path_objects(p)}


def _even_starts(p: int):
    return range(0, p - 1, 2)


def _b_star_objects(p: int, n: int) -> set:
    level = set()
    for s in _even_starts(p):
        level |= _corner_path_objects(s, p)
    if p % 2:
        level |= _tail_path_objects(p)
    removed = {
        Contracted((), (s1, s2))
        for s1, s2 in itertools.combinations(_even_starts(p), 2)
    }
    for _ in range(n - 2):
        level = {
            _prefix_triangle(j, v) for j in range(p) for v in level
        } - removed
    return level


def _checked_forest(p: int, n: int, graph: LabeledGraph | None):
    if p < 4:
        raise ValueError(f"need at least 4 symbols, got {p}")
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    labels = {format_vertex(v, p) for v in _b_star_objects(p, n)}
    g = triangle(p, n) if graph is None else graph
    if g.order != expected_order("hat", p, n):
        raise GraphError(
            f"graph has order {g.order}, expected {expected_order('hat', p, n)}"
        )
    cycle = find_cycle(g, labels)
    if cycle is not None:
        raise GraphError(f"construction induced a cycle: {cycle}")
    sub = g.induced(labels)
    for v in sub.vertices():
        if sub.degree(v) > 2:
            raise GraphError(f"construction is not a linear forest at {v!r}")
    return labels, sub


def _forest_triangle(p: int, n: int, graph: LabeledGraph | None = None) -> set:
    return _checked_forest(p, n, graph)[0]


def _expected_path_multiset(p: int, n: int) -> Counter:
    starts = len(_even_starts(p))
    expected = Counter()
    expected[2 ** (n - 1) * p + 1] += starts
    for k in range(3, n + 1):
        copies = p ** (n - k)
        expected[2**k * p - 1] += math.comb(starts, 2) * copies
        if p % 2:
            expected[2 ** (k - 2) * p + 2 * p - 1] += starts * copies
    if p % 2:
        expected[p] += 1
    return expected


def _structure_report(
    p: int, n: int, graph: LabeledGraph | None = None
) -> StructureReport:
    g = triangle(p, n) if graph is None else graph
    problems = []
    try:
        labels, sub = _checked_forest(p, n, g)
    except ValueError as exc:
        return StructureReport(p, n, 0, (), (), (str(exc),))
    actual = Counter()
    for comp in sub.components():
        degs = sorted(sub.degree(v) for v in comp)
        interior = [d for d in degs if d == 2]
        # a path has exactly its two ends below degree 2 (or is a point)
        if len(comp) > 1 and (degs[-1] > 2 or len(interior) != len(comp) - 2):
            problems.append(f"component holding {comp[0]!r} is not a path")
        actual[len(comp)] += 1
    expected = _expected_path_multiset(p, n)
    if actual != expected:
        only_exp = {k: v for k, v in (expected - actual).items()}
        only_act = {k: v for k, v in (actual - expected).items()}
        problems.append(
            f"path multiset differs: expected extra {only_exp}, actual extra {only_act}"
        )
    total = len(labels)
    if total != forest_order_recurrence(p, n):
        problems.append(
            f"size {total} != recurrence {forest_order_recurrence(p, n)}"
        )
    return StructureReport(
        p,
        n,
        total,
        tuple(sorted(expected.items())),
        tuple(sorted(actual.items())),
        tuple(problems),
    )


@pytest.fixture
def reference_forests():
    """The object-based forest constructions, keyed by the public names
    they stand for."""
    return SimpleNamespace(
        closure=_closure,
        closure_block=_closure_block,
        closure_split=_closure_split,
        forest_sierpinski=_forest_sierpinski,
        fvs_sierpinski=_fvs_sierpinski,
        forest_plus=_forest_plus,
        forest_plusplus=_forest_plusplus,
        fvs_triangle3=_fvs_triangle3,
        corner_path_base=_corner_path_base,
        tail_path_base=_tail_path_base,
        forest_triangle=_forest_triangle,
        structure_report=_structure_report,
        prefix_triangle=_prefix_triangle,
    )
