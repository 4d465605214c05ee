"""Shared fixtures."""

from types import SimpleNamespace

import pytest

from sfvs.addressing import word_separator
from sfvs.generators import nonclique_edges, sierpinski
from sfvs.graph_core import Multigraph, contract_edges, relabel


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
