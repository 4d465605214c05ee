"""Exact feedback vertex number, two independent ways.

tau_bruteforce enumerates deletion sets and induced forests by
increasing size, whichever side has fewer subsets next, and is the
ground-truth oracle for small graphs.  tau_bnb is a branch-and-bound
search over a multigraph, parallel edges but never a loop, that supports
the classic reductions:

  * vertices of degree <= 1 are irrelevant and vanish
  * a degree-2 vertex is bypassed, its two edges fused into one, or,
    when the two are a parallel pair, its one neighbour is forced; the
    graph starts simple and a bypass joins two distinct neighbours, so
    no self-loop forms and no reduction, bound or branching rule
    handles one
  * a parallel pair with one endpoint barred from the solution forces the
    other endpoint

Each node branches on a greedy clique through a busiest vertex: any
solution leaves at most two of its vertices out, so the children are the
ways to keep at most two, each kept vertex barred from the solution by a
forbidden set that the reductions respect.  Without a triangle the
clique is the vertex alone, and the children are "take it" and "bar it".
Components split off and are solved independently (feedback numbers add
across components).  A node is pruned by the best of three lower bounds,
tried cheapest first until one reaches the incumbent: an edge-density
argument; greedy vertex-disjoint cliques, each needing all but two of its
vertices, plus the density of what they leave; and half of what a greedy
cover by cliques needs, a cover that uses each vertex at most twice.  On
the quotient family hat(p, n), whose p^n cliques K_p meet at most two at
a vertex, the cover gives ceil(p^n (p - 2) / 2) at the root.  A search
that runs out of budget still returns its incumbent, flagged
non-optimal.  A seed is checked by the union-find that minimalizes it,
and every certificate is re-verified against the input graph before
being returned.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .graph_core import LabeledGraph, Multigraph, _components, _cycle

__all__ = [
    "BUDGET_ENV_VAR",
    "DEFAULT_BUDGET",
    "FvsCertificate",
    "resolve_budget",
    "tau_bnb",
    "tau_bruteforce",
    "verify_certificate",
]

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "SFVS_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """The node budget to use: the explicit argument, else the
    environment override, else the default."""
    if budget is None:
        text = os.environ.get(BUDGET_ENV_VAR, "").strip()
        if not text:
            return DEFAULT_BUDGET
        try:
            budget = int(text)
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR} must be an integer, got {text!r}"
            ) from None
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget


@dataclass(frozen=True)
class FvsCertificate:
    """A feedback vertex set with its size and an optimality flag."""

    tau: int
    witness: tuple  # sorted labels
    optimal: bool


def verify_certificate(g: LabeledGraph, cert: FvsCertificate) -> bool:
    """Recheck a certificate from scratch: the witness matches tau, lies
    in the graph, and its removal leaves a forest."""
    if len(cert.witness) != cert.tau:
        return False
    positions = list(map(g._index.get, cert.witness))
    if None in positions:
        return False
    rest = bytearray(b"\x01") * g.order
    for i in positions:
        rest[i] = 0
    if rest.count(0) != cert.tau:  # a repeated label
        return False
    return _cycle(g, list(itertools.compress(range(g.order), rest)), rest) is None


def _root(parent, x):
    """The root of x in the union-find forest parent, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def tau_bruteforce(g: LabeledGraph, cap: int = 22) -> FvsCertificate:
    """Exact feedback number by subset enumeration from both sides.

    Each step tries whichever side has fewer subsets at its next size:
    the deletion sets of size lo in increasing lo, the first that leaves a
    forest being the answer, or the induced forests of size n - hi + 1 in
    decreasing hi, where finding none proves tau = hi.  Forests are
    searched by growing acyclic sets, so a set with a cycle is never
    extended.  The witness is the first deletion set of size tau in
    lexicographic order either way.

    Exponential; refuses graphs above cap vertices (use tau_bnb there).
    """
    n = g.order
    if n > cap:
        raise ValueError(
            f"{n} vertices exceeds the brute-force cap of {cap}; use tau_bnb"
        )
    labels = g.vertices()
    edges = [(u, v) for u, nbrs in enumerate(g._nbrs) for v in nbrs if u < v]
    everyone = frozenset(range(n))

    def acyclic_without(removed) -> bool:
        parent = list(range(n))
        for u, v in edges:
            if u in removed or v in removed:
                continue
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def forest_of(size, kept=(), start=0) -> bool:
        # some set of size vertices induces a forest: kept grows in index
        # order and is dropped as soon as it holds a cycle
        if len(kept) == size:
            return True
        return any(
            acyclic_without(everyone.difference(kept + (v,)))
            and forest_of(size, kept + (v,), v + 1)
            for v in range(start, n - size + len(kept) + 1)
        )

    # lo <= tau <= hi: every deletion set of size < lo leaves a cycle, and
    # a forest of n - hi vertices exists, as any two vertices are one
    lo, hi = 0, max(n - 2, 0)
    while True:
        size = n - hi + 1
        if lo == hi or math.comb(n, lo) <= math.comb(n, size):
            for combo in itertools.combinations(range(n), lo):
                if acyclic_without(set(combo)):
                    return FvsCertificate(lo, tuple(labels[i] for i in combo), True)
            lo += 1
        elif forest_of(size):
            hi -= 1
        else:
            lo = hi


class _BudgetExhausted(Exception):
    pass


class _Ticker:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise _BudgetExhausted


class _Best:
    """Incumbent solution; offer() keeps the smaller one."""

    __slots__ = ("tau", "witness")

    def __init__(self, tau: int, witness):
        self.tau = tau
        self.witness = witness

    def offer(self, chosen):
        if len(chosen) < self.tau:
            self.tau = len(chosen)
            self.witness = tuple(sorted(chosen))


def _reduce(mg: Multigraph, live, forbidden, chosen):
    """Apply reductions until fixpoint, appending forced vertices to
    chosen.  live must list every live vertex in index order (dead ones
    may be listed too).  Returns the live vertices in index order, or
    None when the forbidden set blocks every solution."""
    adj, alive, degs = mg.adj, mg.alive, mg.deg
    changed = True
    while changed:
        live = [v for v in live if alive[v]]
        changed = False
        for v in live:
            if not alive[v]:
                continue
            nbrs = adj[v]
            # a parallel pair is a 2-cycle: a barred endpoint forces the other
            forced = None
            for u, mult in nbrs.items():
                if mult >= 2:
                    if v in forbidden and u in forbidden:
                        return None
                    if u in forbidden:
                        forced = v
                        break
                    if v in forbidden:
                        forced = u
                        break
            if forced is not None:
                chosen.append(forced)
                mg.remove_vertex(forced)
                changed = True
                continue
            deg = degs[v]
            if deg <= 1:
                mg.remove_vertex(v)
                changed = True
                continue
            if deg == 2:
                items = list(nbrs.items())
                if len(items) == 1:
                    # v's whole cycle structure passes through u, and
                    # neither is barred, or the pair would have forced one
                    u = items[0][0]
                    chosen.append(u)
                    mg.remove_vertex(u)
                    changed = True
                    continue
                u, w = items[0][0], items[1][0]
                if v in forbidden or u not in forbidden or w not in forbidden:
                    # bypass v; skipped only when v alone is still eligible
                    mg.remove_vertex(v)
                    mg.add_edge(u, w)
                    changed = True
                    continue
    return live


def _minimalize(mg: Multigraph, chosen) -> list | None:
    """Drop redundant vertices from a deletion set, last in first
    reconsidered, or None when the set leaves a cycle.  mg must be simple
    (Multigraph.from_labeled): a vertex rejoins the forest, kept as one
    union-find, when its forest neighbours lie in pairwise distinct
    trees."""
    parent = list(range(len(mg.adj)))
    out = set(chosen)
    for v, nbrs in enumerate(mg.adj):
        if v not in out:
            for u in nbrs:
                if u < v and u not in out:
                    ru, rv = _root(parent, u), _root(parent, v)
                    if ru == rv:
                        return None
                    parent[ru] = rv
    for v in sorted(out, reverse=True):
        roots = [_root(parent, u) for u in mg.adj[v] if u not in out]
        if len(set(roots)) == len(roots):
            out.remove(v)
            for r in roots:
                parent[r] = v
    return [v for v in chosen if v in out]


def _greedy_fvs(mg: Multigraph) -> list:
    """Quick feasible solution: peel to the 2-core, delete a maximum-degree
    vertex (lowest index on ties), repeat; minimalized before returning.
    mg must be simple (Multigraph.from_labeled), so what is left is a
    forest exactly when its 2-core is empty.  The pick pops a max-heap of
    (-degree, vertex) entries, skipping those whose degree is stale."""
    deg = {v: len(mg.adj[v]) for v in mg.live_vertices()}
    stack = [v for v, d in deg.items() if d <= 1]
    heap = [(-d, v) for v, d in deg.items() if d >= 2]
    heapify(heap)
    chosen = []
    while True:
        while stack:
            v = stack.pop()
            del deg[v]
            for u in mg.adj[v]:
                if u in deg:
                    d = deg[u] = deg[u] - 1
                    if d == 1:
                        stack.append(u)
                    elif d >= 2:
                        heappush(heap, (-d, u))
        while heap:
            d, v = heappop(heap)
            if deg.get(v) == -d:
                break
        else:
            return _minimalize(mg, chosen)
        chosen.append(v)
        stack.append(v)


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


def _pack_cliques(mg: Multigraph, live, cap: int):
    """Greedy cliques of size >= 3 that use each vertex at most cap
    times, grown from each vertex in turn until it is used up; the second
    clique grown from a vertex leaves out the rest of its first.  Returns
    the sum of size - 2 over the cliques and the vertices used cap times."""
    full = set()
    home = {}  # vertex -> its first clique, while it has only one
    total = 0
    for v in live:
        while v not in full:
            clique = _grow_clique(mg, v, full, home.get(v, ()))
            if len(clique) < 3:
                break
            total += len(clique) - 2
            for u in clique:
                if cap == 1 or u in home:
                    full.add(u)
                else:
                    home[u] = clique
    return total, full


def _lower_bound(mg: Multigraph, live, target: int) -> int:
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
    packed, used = _pack_cliques(mg, live, 1)
    if not packed:
        # no triangle, so no clique for the cover either
        return best
    rest = [v for v in live if v not in used]
    if rest:
        rest_set = set(rest)
        rest_degs = [sum(m for u, m in mg.adj[v].items() if u in rest_set) for v in rest]
        packed += _density_bound(
            len(rest), sum(rest_degs) // 2, sorted(rest_degs, reverse=True)
        )
    best = max(best, packed)
    if best >= target:
        return best
    # any solution holds all but two vertices of each clique, and each of
    # its vertices lies in at most two cliques
    covered, _ = _pack_cliques(mg, live, 2)
    return max(best, (covered + 1) // 2)


def _restrict(mg: Multigraph, comp) -> Multigraph:
    """The subgraph on comp, a union of components of mg."""
    keep = set(comp)
    out = Multigraph(0)
    out.adj = [dict(mg.adj[v]) if v in keep else {} for v in range(len(mg.adj))]
    out.alive = [v in keep for v in range(len(mg.alive))]
    out.deg = [d if v in keep else 0 for v, d in enumerate(mg.deg)]
    out.size = sum(out.deg) // 2
    return out


def _branch_vertex(mg: Multigraph, candidates):
    multi = [v for v in candidates if any(m >= 2 for m in mg.adj[v].values())]
    pool = multi or candidates
    # pool is in index order, so max keeps the lowest index on ties
    return max(pool, key=mg.deg.__getitem__)


def _grow_clique(mg: Multigraph, v, used=(), avoid=()) -> list:
    """Greedy maximal clique through v, preferring well-connected
    extensions and avoiding the vertices in used and in avoid."""
    adj = mg.adj
    cand = [u for u in adj[v] if u not in used and u not in avoid]
    clique = [v]
    while len(cand) >= 2:
        cand_set = set(cand)
        best_u = None
        best_score = -1
        for u in cand:
            score = len(cand_set & adj[u].keys())
            if score > best_score:
                best_u, best_score = u, score
        clique.append(best_u)
        cand = [u for u in cand if u != best_u and u in adj[best_u]]
    return clique + cand


def _search(mg: Multigraph, live, chosen, forbidden, best, ticker):
    # the caller hands over ownership of mg and chosen; live as in _reduce
    ticker.tick()
    live = _reduce(mg, live, forbidden, chosen)
    if live is None:
        return
    if len(chosen) >= best.tau:
        return
    if not live:
        best.offer(chosen)
        return
    # reductions leave minimum degree 2, so every component has a cycle
    comps = [sorted(comp) for comp in _components(mg.adj, live, mg.alive)]
    if len(comps) > 1:
        comps.sort(key=lambda c: (len(c), c[0]))
        for comp in comps[:-1]:
            # solved on its own; no witness means none fits the allowance
            # or the forbidden set blocks every solution
            sub = _Best(min(len(comp) + 1, best.tau - len(chosen)), None)
            _search(_restrict(mg, comp), comp, [], forbidden, sub, ticker)
            if sub.witness is None:
                return
            chosen.extend(sub.witness)
            if len(chosen) >= best.tau:
                return
        live = comps[-1]
        mg = _restrict(mg, live)
    bound = len(chosen) + _lower_bound(mg, live, best.tau - len(chosen))
    if bound >= best.tau:
        return
    candidates = [v for v in live if v not in forbidden]
    if not candidates:
        return
    v = _branch_vertex(mg, candidates)
    clique = _grow_clique(mg, v)
    if len(clique) < 3:
        # one vertex is a clique too: take v, then bar v
        clique = [v]
    # a clique can keep at most two vertices out of any solution, and
    # every barred vertex of it stays out
    locked = tuple(u for u in clique if u in forbidden)
    free = [u for u in clique if u not in forbidden]
    for k in range(3 - len(locked)):
        for extra in itertools.combinations(free, k):
            excl = frozenset(locked + extra)
            include = [u for u in clique if u not in excl]
            if len(chosen) + len(include) >= best.tau:
                continue
            child = mg.copy()
            for u in include:
                child.remove_vertex(u)
            _search(child, live, chosen + include, forbidden | excl, best, ticker)
            if bound >= best.tau:
                return


def tau_bnb(
    g: LabeledGraph, budget: int | None = None, seed=None
) -> FvsCertificate:
    """Branch-and-bound feedback number.

    seed, when given, must be a valid feedback vertex set (by label); it
    becomes the starting incumbent.  The certificate is optimal unless
    the node budget ran out, in which case the incumbent is returned
    with optimal False.
    """
    budget = resolve_budget(budget)
    mg, labels = Multigraph.from_labeled(g)
    index = g._index
    if seed is not None:
        seed_labels = sorted({str(v) for v in seed})
        for v in seed_labels:
            if v not in index:
                raise ValueError(f"seed contains unknown vertex {v!r}")
        incumbent = _minimalize(mg, [index[v] for v in seed_labels])
        if incumbent is None:
            raise ValueError("seed is not a feedback vertex set")
    else:
        incumbent = _greedy_fvs(mg)
    best = _Best(len(incumbent), tuple(sorted(incumbent)))
    ticker = _Ticker(budget)
    optimal = True
    try:
        _search(mg, mg.live_vertices(), [], frozenset(), best, ticker)
    except _BudgetExhausted:
        optimal = False
    witness = tuple(sorted(labels[i] for i in best.witness))
    cert = FvsCertificate(best.tau, witness, optimal)
    if not verify_certificate(g, cert):
        raise RuntimeError("solver produced an invalid certificate")
    return cert
