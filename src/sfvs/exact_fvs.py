"""Exact feedback vertex number, two independent ways.

tau_bruteforce, the ground-truth oracle for small graphs, searches the
deletion sets of each size in turn depth first, keeping a union-find of
the kept vertices that it undoes on backtrack, and tries no deletion
after which the largest degrees could not remove enough edges for a
forest.  tau_bnb is a branch-and-bound search over a multigraph,
parallel edges but never a loop, that supports the classic reductions:

  * vertices of degree <= 1 are irrelevant and vanish
  * a degree-2 vertex is bypassed, its two edges fused into one, or,
    when the two are a parallel pair, its one neighbour is forced; the
    graph starts simple and a bypass joins two distinct neighbours, so
    no self-loop forms and no reduction, bound or branching rule
    handles one
  * a parallel pair with one endpoint barred from the solution forces the
    other endpoint

A vertex has a parallel pair exactly when its degree exceeds its number
of neighbours.  So the reductions skip a vertex of degree > 2 without
one before any other test, as no rule applies to it, and scan a vertex's
pairs only when it has one; the branch rule finds its parallel pairs by
that test alone; and a vertex without one counts its degree into a
vertex set as one popcount of its neighbour bitmask.  Each node branches
on a greedy clique through a busiest vertex: any solution leaves at most
two of its vertices out, so the children are the ways to keep at most
two, each kept vertex barred from the solution by a forbidden set that
the reductions respect.  Without a triangle the clique is the vertex
alone, and the children are "take it" and "bar it".  Each child works on
a copy of the node's graph but the last, which takes the graph over.
The grower scores a candidate by the popcount of its neighbour bitmask
and-ed with the candidates' bitmask.  Components split off and are
solved independently (feedback numbers add across components).  A node
floods the neighbour bitmasks from one live vertex and runs the
component search only when the flood misses a live vertex.  A node is
pruned by the best of three lower bounds, tried cheapest first until one
reaches the incumbent: an edge-density argument; greedy vertex-disjoint
cliques, each needing all but two of its vertices, plus the density of
what they leave; and half of what a greedy cover by cliques needs, a
cover that uses each vertex at most twice.
Both packings replay the parent node's: a vertex grows cliques only
when its closed neighbourhood changed (Multigraph.dirty) or the packing
state on it differs from the parent's, and otherwise takes the cliques
it grew there, which a pack from scratch would grow again.  On
the quotient family hat(p, n), whose p^n cliques K_p meet at most two at
a vertex, the cover gives ceil(p^n (p - 2) / 2) at the root.  Without
a seed the search starts from the greedy's set, and where its root
bound first falls short of that it tries a second incumbent once: the
complement of the maximal forest grown in reverse index order, which
meets the cover bound on every even-p hat(p, n) tried.  A density
bound on the input's degrees that reaches the starting incumbent proves
it optimal before any multigraph is built.  A search that runs out of
budget still returns its incumbent, flagged non-optimal.  A seed is
checked by the union-find that minimalizes it, and every certificate is
re-verified against the input graph before being returned, by the one
depth-first walk behind every forest check (graph_core._walk).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .addressing import _decimal
from .graph_core import GraphError, LabeledGraph, _components, _walk

__all__ = [
    "BUDGET_ENV_VAR",
    "DEFAULT_BUDGET",
    "FvsCertificate",
    "Multigraph",
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
            budget = _decimal(text)
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
    return _walk(g, list(itertools.compress(range(g.order), rest)), rest)[0] is None


def _root(parent, x):
    """The root of x in the union-find forest parent, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def tau_bruteforce(g: LabeledGraph, cap: int = 22) -> FvsCertificate:
    """Exact feedback number by a depth-first search over deletion sets.

    For k = 0, 1, ... the search decides the vertices in index order,
    deleting each before keeping it, so the first k-set it completes is
    the least in lexicographic order and is the witness.  The kept
    vertices form a union-find: keeping v links the roots of its earlier
    kept neighbours to v, and a branch ends where two of them share a
    root.  A deletion is not tried when the edges removed so far, plus
    the largest degrees, one per deletion still to make, fall short of
    m - max(n - k - 1, 0), m the edge count: the rest would keep more
    edges than a forest on n - k vertices can hold.

    Exponential; refuses graphs above cap vertices (use tau_bnb there).
    """
    n = g.order
    if n > cap:
        raise ValueError(
            f"{n} vertices exceeds the brute-force cap of {cap}; use tau_bnb"
        )
    nbrs = g._nbrs
    deg = list(map(len, nbrs))
    bits = list(map(_mask, nbrs))
    top = list(itertools.accumulate(sorted(deg, reverse=True), initial=0))
    # a link is undone on backtrack, so roots are found without halving
    parent = list(range(n))

    def search(v, left, removed, gone):
        # gone masks the deletions before v, removed counts the edges they
        # meet; only deletions recurse.  Returns a completed gone, or None
        linked = []
        for w in range(v, n):
            if left:
                cut = removed + deg[w] - (bits[w] & gone).bit_count()
                if cut + top[left - 1] >= need:
                    found = search(w + 1, left - 1, cut, gone | 1 << w)
                    if found is not None:
                        return found
            roots = []
            for u in nbrs[w]:
                if u > w:
                    break
                if not gone >> u & 1:
                    while parent[u] != u:
                        u = parent[u]
                    roots.append(u)
            if len(roots) > 1 and len(set(roots)) < len(roots):
                break
            for r in roots:
                parent[r] = w
            linked += roots
        else:
            return gone
        for r in linked:
            parent[r] = r
        return None

    try:
        # max(): n = 0 needs no edge removed; k = n - 2 always keeps a forest
        for k in range(n + 1):
            need = g.size - max(n - k - 1, 0)
            if top[k] >= need:
                gone = search(0, k, 0, 0)
                if gone is not None:
                    labels = g.vertices()
                    return FvsCertificate(k, tuple(labels[v] for v in range(n) if gone >> v & 1), True)
    finally:
        del search  # it refers to itself: break the cycle


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
    """Incumbent solution; offer() keeps the smaller one.  spare, when
    not None, computes a second candidate that the search offers once,
    where its bound first falls short of the incumbent."""

    __slots__ = ("tau", "witness", "spare")

    def __init__(self, tau: int, witness):
        self.tau = tau
        self.witness = witness
        self.spare = None

    def offer(self, chosen):
        if len(chosen) < self.tau:
            self.tau = len(chosen)
            self.witness = tuple(sorted(chosen))


class Multigraph:
    """Mutable int-indexed multigraph, the search's scratch graph.

    adj[v] maps neighbor -> multiplicity; the graph holds parallel edges
    but never a loop.  Vertices are never removed from the list, only
    marked dead in alive.  deg[v] is kept current by add_edge and
    remove_vertex, and so is bits[v], the int bitmask of v's neighbours
    (0 at a dead vertex), which lets the search count common neighbours
    with one and.  copy() duplicates all of them, and restrict(comp)
    keeps those of comp, a union of components, with every other vertex
    dead.

    dirty serves the pack replay alone: the int mask of the vertices
    whose closed neighbourhood, the keys of adj[v] in their order and
    the edges among them, may differ from the graph this one was copied
    from, on which the parent node's packs were logged.  copy() starts
    it at 0, restrict() keeps it and the search resets it where a last
    child takes over its node's graph.  remove_vertex(v) marks v and its
    neighbours, and an add_edge that joins two vertices not yet adjacent
    marks both and their common neighbours; a parallel edge marks none.
    """

    __slots__ = ("adj", "alive", "deg", "bits", "dirty")

    def __init__(self, n: int):
        self.adj = [dict() for _ in range(n)]
        self.alive = [True] * n
        self.deg = [0] * n
        self.bits = [0] * n
        self.dirty = 0

    @classmethod
    def from_labeled(cls, g: LabeledGraph):
        """The Multigraph of g, on g's indices."""
        mg = cls.__new__(cls)
        mg.adj = [dict.fromkeys(nbrs, 1) for nbrs in g._nbrs]
        mg.alive = [True] * g.order
        mg.deg = list(map(len, g._nbrs))
        mg.bits = list(map(_mask, g._nbrs))
        mg.dirty = 0
        return mg

    def add_edge(self, u: int, v: int):
        if u == v:
            raise GraphError(f"self-loop at {u}")
        adj_u, adj_v = self.adj[u], self.adj[v]
        if v in adj_u:
            adj_u[v] += 1
            adj_v[u] += 1
        else:
            adj_u[v] = adj_v[u] = 1
            bits = self.bits
            self.dirty |= bits[u] & bits[v] | 1 << u | 1 << v
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.deg[u] += 1
        self.deg[v] += 1

    def remove_vertex(self, v: int):
        adj, deg, bits = self.adj, self.deg, self.bits
        nbrs = adj[v]
        bit = 1 << v
        self.dirty |= bits[v] | bit
        for u, mult in nbrs.items():
            del adj[u][v]
            deg[u] -= mult
            bits[u] ^= bit
        nbrs.clear()
        deg[v] = 0
        bits[v] = 0
        self.alive[v] = False

    def degree(self, v: int) -> int:
        return self.deg[v]

    def live_vertices(self):
        return [v for v in range(len(self.alive)) if self.alive[v]]

    def copy(self) -> "Multigraph":
        # __new__, as in from_labeled: __init__ would build lists only for
        # them to be replaced
        out = Multigraph.__new__(Multigraph)
        out.adj = list(map(dict.copy, self.adj))
        out.alive = list(self.alive)
        out.deg = list(self.deg)
        out.bits = list(self.bits)
        out.dirty = 0
        return out

    def restrict(self, comp) -> "Multigraph":
        """The subgraph on comp, a union of components; every other
        vertex is dead in it."""
        n = len(self.adj)
        out = Multigraph(n)
        out.alive = [False] * n
        for v in comp:
            out.adj[v] = self.adj[v].copy()
            out.alive[v] = True
            out.deg[v] = self.deg[v]
            out.bits[v] = self.bits[v]
        out.dirty = self.dirty
        return out


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
            nbrs = adj[v]
            deg = degs[v]
            # no rule applies to a vertex of degree > 2 without a parallel
            # pair; a dead vertex has degree 0 and falls through
            if deg > 2 and deg == len(nbrs):
                continue
            if not alive[v]:
                continue
            # a parallel pair is a 2-cycle: a barred endpoint forces the
            # other; with every multiplicity 1 there is no pair to scan
            forced = None
            if deg != len(nbrs):
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


def _minimalize(g: LabeledGraph, chosen) -> list | None:
    """Drop redundant vertices from a deletion set of g's indices,
    reconsidered by descending index, or None when the set leaves a
    cycle.  A vertex rejoins the forest, kept as one union-find, when its
    forest neighbours lie in pairwise distinct trees."""
    parent = list(range(g.order))
    out = set(chosen)
    for v, nbrs in enumerate(g._nbrs):
        if v not in out:
            for u in nbrs:
                if u < v and u not in out:
                    ru, rv = _root(parent, u), _root(parent, v)
                    if ru == rv:
                        return None
                    parent[ru] = rv
    for v in sorted(out, reverse=True):
        roots = [_root(parent, u) for u in g._nbrs[v] if u not in out]
        if len(set(roots)) == len(roots):
            out.remove(v)
            for r in roots:
                parent[r] = v
    return [v for v in chosen if v in out]


def _greedy_fvs(g: LabeledGraph) -> list:
    """Quick feasible solution, as g's indices: peel to the 2-core, delete
    a maximum-degree vertex (lowest index on ties), repeat; minimalized
    before returning.  What is left is a forest exactly when its 2-core
    is empty.  The pick pops a max-heap of (-degree, vertex) entries,
    skipping those whose degree is stale."""
    nbrs = g._nbrs
    deg = list(map(len, nbrs))
    gone = bytearray(len(deg))
    stack = [v for v, d in enumerate(deg) if d <= 1]
    heap = [(-d, v) for v, d in enumerate(deg) if d >= 2]
    heapify(heap)
    chosen = []
    while True:
        while stack:
            v = stack.pop()
            gone[v] = 1
            for u in nbrs[v]:
                if not gone[u]:
                    d = deg[u] = deg[u] - 1
                    if d == 1:
                        stack.append(u)
                    elif d >= 2:
                        heappush(heap, (-d, u))
        while heap:
            d, v = heappop(heap)
            if not gone[v] and deg[v] == -d:
                break
        else:
            return _minimalize(g, chosen)
        chosen.append(v)
        stack.append(v)


def _density_bound(order: int, edge_count: int, degs_desc) -> int:
    """Least t for which deleting even the t busiest vertices could leave
    few enough edges for a forest (t <= order: degs_desc sums to 2 * edge_count)."""
    t = 0
    prefix = 0
    while edge_count - prefix > max(order - t - 1, 0):
        prefix += degs_desc[t]
        t += 1
    return t


def _mask(vertices) -> int:
    """The bitmask of a set of indices, the one way such a mask is built."""
    mask = 0
    for u in vertices:
        mask |= 1 << u
    return mask


def _pack_cliques(mg: Multigraph, live, cap: int, prev=None, log=None):
    """Greedy cliques of size >= 3 that use each vertex at most cap
    times, grown from each vertex in turn until it is used up; the second
    clique grown from a vertex leaves out the rest of its first.  Returns
    the sum of size - 2 over the cliques and the vertices used cap times.

    log, when given, is an empty list, list and dict.  They receive the
    cliques in the order they are grown, each starting with the vertex
    it was grown from; the cliques' masks; and each vertex's first
    clique, its home.  prev is that log of the same pack on the graph mg
    was copied from.  The grows from v read only adj[v], the masks of v's
    neighbours on N(v), which vertices of N[v] are full or have a home,
    and v's home.  When v is not in mg.dirty and all of these equal what
    prev had reached before its grows from v, those grows gave the
    cliques v would grow here, so they are replayed."""
    bits = mg.bits
    full = set()
    grown, masks, home = ([], [], {}) if log is None else log
    total = 0
    # masks of the full vertices and of those with a home (at cap 1 a
    # clique fills every vertex, as if each had one), here and in prev
    # before its grows from v
    full_bits = 0
    home_bits = -1 if cap == 1 else 0
    if prev is not None:
        dirty = mg.dirty
        was_grown, was_masks, was_home = prev
        # the vertex each clique of prev was grown from, then one past all
        sources = [clique[0] for clique in was_grown]
        sources.append(len(bits))
        was_full, was_homed = full_bits, home_bits
        j = 0
    for v in live:
        if v in full:
            continue
        k = None
        if prev is not None:
            while sources[j] < v:
                was_full |= was_masks[j] & was_homed
                was_homed |= was_masks[j]
                j += 1
            diff = (full_bits ^ was_full) | (home_bits ^ was_homed)
            if (
                not (dirty | was_full | diff) >> v & 1
                and not diff & bits[v]
                and (v not in home or home[v] == was_home[v])
            ):
                k = j
        while v not in full:
            if k is None:
                clique = _grow_clique(mg, v, full, home.get(v, ()))
                if len(clique) < 3:
                    break
            elif sources[k] == v:
                clique = was_grown[k]
                k += 1
            else:
                break
            grown.append(clique)
            total += len(clique) - 2
            if cap == 1:
                full.update(clique)
            else:
                for u in clique:
                    if u in home:
                        full.add(u)
                    else:
                        home[u] = clique
            mask = _mask(clique) if k is None else was_masks[k - 1]
            masks.append(mask)
            full_bits |= mask & home_bits
            home_bits |= mask
    return total, full


def _lower_bound(mg: Multigraph, live, target: int, prev=(None, None), logs=None) -> int:
    """A lower bound on the deletions mg still needs.  Tries the density
    bound, then disjoint cliques plus the density of what they leave,
    then cliques that may share vertices, and stops at the first that
    reaches target.  prev holds the logs of the two packs on the graph
    mg was copied from, None for one that did not run there; logs, a
    list of two, receives this call's."""
    order = len(live)
    if order == 0:
        return 0
    # live lists every live vertex, so its degrees count each edge twice
    degs = sorted(map(mg.deg.__getitem__, live), reverse=True)
    best = _density_bound(order, sum(degs) // 2, degs)
    if best >= target:
        return best
    if logs is None:
        logs = [None, None]
    logs[0] = [], [], {}
    packed, used = _pack_cliques(mg, live, 1, prev[0], logs[0])
    if not packed:
        # no triangle, so no clique for the cover either
        return best
    rest = [v for v in live if v not in used]
    if rest:
        rest_degs = _degrees_within(mg, rest)
        packed += _density_bound(
            len(rest), sum(rest_degs) // 2, sorted(rest_degs, reverse=True)
        )
    best = max(best, packed)
    if best >= target:
        return best
    # any solution holds all but two vertices of each clique, and each of
    # its vertices lies in at most two cliques
    logs[1] = [], [], {}
    covered, _ = _pack_cliques(mg, live, 2, prev[1], logs[1])
    return max(best, (covered + 1) // 2)


def _degrees_within(mg: Multigraph, vertices) -> list:
    """Each vertex's degree in the subgraph the vertices induce: the
    popcount of its neighbour mask and-ed with theirs, or, when it has a
    parallel pair, the sum of its multiplicities into them."""
    adj, deg, bits = mg.adj, mg.deg, mg.bits
    mask = _mask(vertices)
    return [
        (bits[v] & mask).bit_count()
        if deg[v] == len(adj[v])
        else sum(m for u, m in adj[v].items() if mask >> u & 1)
        for v in vertices
    ]


def _branch_vertex(mg: Multigraph, candidates):
    # a vertex has a parallel pair exactly when its degree exceeds its
    # number of neighbours
    adj, deg = mg.adj, mg.deg
    multi = [v for v in candidates if deg[v] != len(adj[v])]
    pool = multi or candidates
    # pool is in index order, so max keeps the lowest index on ties
    return max(pool, key=deg.__getitem__)


def _grow_clique(mg: Multigraph, v, used=(), avoid=()) -> list:
    """Greedy maximal clique through v, preferring well-connected
    extensions and avoiding the vertices in used and in avoid.  A
    candidate's score is the number of other candidates it is adjacent
    to, the popcount of its neighbour bitmask and the candidates' mask;
    the first candidate with the top score is taken."""
    adj, bits = mg.adj, mg.bits
    cand = [u for u in adj[v] if u not in used and u not in avoid]
    cand_mask = _mask(cand)
    clique = [v]
    while len(cand) >= 2:
        best_u = None
        best_score = -1
        for u in cand:
            score = (cand_mask & bits[u]).bit_count()
            if score > best_score:
                best_u, best_score = u, score
        clique.append(best_u)
        cand = [u for u in cand if u != best_u and u in adj[best_u]]
        cand_mask &= bits[best_u]
    return clique + cand


def _flood(bits, v) -> int:
    """The mask of the vertices reachable from v, bits[u] being the
    neighbour mask of u."""
    seen = frontier = 1 << v
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= bits[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen


def _search(mg: Multigraph, live, chosen, forbidden, best, ticker, prev=(None, None)):
    # the caller hands over ownership of mg and chosen; live as in _reduce;
    # prev holds the parent node's pack logs, which mg.dirty is relative to
    ticker.tick()
    live = _reduce(mg, live, forbidden, chosen)
    if live is None:
        return
    if len(chosen) >= best.tau:
        return
    if not live:
        best.offer(chosen)
        return
    # reductions leave minimum degree 2, so every component has a cycle;
    # most nodes are connected, which one flood of the masks shows
    if _flood(mg.bits, live[0]).bit_count() < len(live):
        comps = [sorted(comp) for comp in _components(mg.adj, live, mg.alive)]
        comps.sort(key=lambda c: (len(c), c[0]))
        for comp in comps[:-1]:
            # solved on its own, below what best still allows; no witness
            # means none fits or the forbidden set blocks every solution
            sub = _Best(min(len(comp) + 1, best.tau - len(chosen)), None)
            _search(mg.restrict(comp), comp, [], forbidden, sub, ticker, prev)
            if sub.witness is None:
                return
            chosen.extend(sub.witness)
        live = comps[-1]
        mg = mg.restrict(live)
    logs = [None, None]
    bound = len(chosen) + _lower_bound(mg, live, best.tau - len(chosen), prev, logs)
    if bound >= best.tau:
        return
    if best.spare is not None:
        # the bound fell short of the old incumbent, so it is the best of
        # all three and holds against the new one
        spare, best.spare = best.spare, None
        best.offer(spare())
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
    options = [
        frozenset(locked + extra)
        for k in range(3 - len(locked))
        for extra in itertools.combinations(free, k)
    ]
    last = len(options) - 1
    for i, excl in enumerate(options):
        include = [u for u in clique if u not in excl]
        if len(chosen) + len(include) >= best.tau:
            continue
        if i == last:
            # nothing here reads mg after its last child, which takes it
            # over as it would a copy
            child = mg
            child.dirty = 0
        else:
            child = mg.copy()
        for u in include:
            child.remove_vertex(u)
        _search(child, live, chosen + include, forbidden | excl, best, ticker, logs)
        if bound >= best.tau:
            return


def tau_bnb(
    g: LabeledGraph, budget: int | None = None, seed=None
) -> FvsCertificate:
    """Branch-and-bound feedback number.

    seed, when given, must be a valid feedback vertex set (by label); it
    becomes the starting incumbent.  Without one the greedy's set does,
    and every vertex minimalized, the complement of the maximal forest
    grown in reverse index order, is computed and offered once if the
    root's bound falls short of the greedy's.  These incumbents read g
    itself.  When the density bound on g's degrees reaches the starting
    incumbent, it is returned as optimal with no search; otherwise the
    search reduces the one Multigraph built from g.  The certificate is
    optimal unless the node budget ran out, in which case the incumbent
    is returned with optimal False.
    """
    budget = resolve_budget(budget)
    index = g._index
    if seed is not None:
        seed_labels = sorted({str(v) for v in seed})
        for v in seed_labels:
            if v not in index:
                raise ValueError(f"seed contains unknown vertex {v!r}")
        incumbent = _minimalize(g, [index[v] for v in seed_labels])
        if incumbent is None:
            raise ValueError("seed is not a feedback vertex set")
    else:
        incumbent = _greedy_fvs(g)
    best = _Best(len(incumbent), tuple(sorted(incumbent)))
    optimal = True
    # tau is at least the density bound, so an incumbent it reaches is optimal
    if _density_bound(g.order, g.size, sorted(map(len, g._nbrs), reverse=True)) < best.tau:
        if seed is None:
            best.spare = lambda: _minimalize(g, range(g.order))
        mg = Multigraph.from_labeled(g)
        try:
            _search(mg, mg.live_vertices(), [], frozenset(), best, _Ticker(budget))
        except _BudgetExhausted:
            optimal = False
    witness = tuple(sorted(map(g._labels.__getitem__, best.witness)))
    cert = FvsCertificate(best.tau, witness, optimal)
    if not verify_certificate(g, cert):
        raise RuntimeError("solver produced an invalid certificate")
    return cert
