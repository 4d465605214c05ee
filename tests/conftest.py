"""Shared fixtures."""

import pytest

from sfvs.addressing import word_separator
from sfvs.generators import nonclique_edges, sierpinski
from sfvs.graph_core import contract_edges, relabel


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
