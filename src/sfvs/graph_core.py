"""Small immutable string-labeled graph type plus the handful of graph
algorithms the package needs: cycle extraction (a forest check is a
search for a cycle that finds none), edge contraction, relabeling, and a
flat-file edge list format.

LabeledGraph numbers its vertices in sorted label order and stores the
sorted labels, the label -> index map, one sorted tuple of neighbour
indices per vertex and the edge count; it is hashable-free but
equality-comparable.  Its methods speak labels and map indices to labels
on the way out, while is_forest, find_cycle, induced() and components()
run on the indices.  Two private cores over (ascending indices,
bytearray mark) serve callers holding indices: the component search,
over any neighbour table and mark, the solver's multigraph included; and
_walk, the one depth-first walk behind every acyclicity check, which in
one pass stops at the first non-tree edge and names its cycle, sizes
each component and finds the least vertex of marked degree above 2.
find_cycle, is_forest and the solver's certificate check read its cycle;
_forest_paths, the one check of a construction's forest, checks the
graph's order, raises on the cycle and returns the rest.  Every walk
over a mark tests mark[v] inline for each neighbour: most neighbour
lists are short, and a filter or map object per vertex costs more.  A
generator takes the label index of _label_index, whose positions come
off the label map itself when the labels come sorted.  build_graph ranks
its sorted labels and maps arbitrary label pairs into one deduplicated
list of neighbour indices per vertex, which _from_rows replaces by its
sorted tuple in place, so it peaks little above the graph it returns;
the generators compose the sorted tuples themselves.
"""

from __future__ import annotations

from itertools import accumulate, compress

__all__ = [
    "GraphError",
    "LabeledGraph",
    "build_graph",
    "contract_edges",
    "export_dot",
    "export_edgelist",
    "find_cycle",
    "import_edgelist",
    "is_forest",
    "relabel",
]


class GraphError(ValueError):
    pass


class LabeledGraph:
    """Immutable undirected simple graph over string vertex labels.

    Vertex k is the k-th label in sorted order; _index maps a label back
    to k, and _nbrs[k] is the sorted tuple of k's neighbour indices.
    """

    __slots__ = ("_labels", "_index", "_nbrs", "_size")

    def __init__(self, labels, index, nbrs, size):
        # internal: use build_graph, _from_rows or a family generator
        self._labels = labels
        self._index = index
        self._nbrs = nbrs
        self._size = size

    @property
    def order(self) -> int:
        return len(self._labels)

    @property
    def size(self) -> int:
        return self._size

    def _position(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"no such vertex: {v!r}") from None

    def vertices(self) -> list:
        """All labels in sorted order."""
        return list(self._labels)

    def neighbors(self, v: str):
        return tuple(map(self._labels.__getitem__, self._nbrs[self._position(v)]))

    def degree(self, v: str) -> int:
        return len(self._nbrs[self._position(v)])

    def __contains__(self, v) -> bool:
        return v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        nbrs = self._nbrs[self._position(u)]
        return self._index.get(v, -1) in nbrs

    def edges(self):
        """All edges as sorted (u, v) pairs with u < v, in sorted order."""
        labels = self._labels
        return [
            (labels[u], labels[v]) for u, nbrs in enumerate(self._nbrs) for v in nbrs if u < v
        ]

    def induced(self, subset) -> "LabeledGraph":
        """The subgraph induced by subset (an iterable of labels), with its
        vertices renumbered in sorted label order; a label not in the graph
        raises GraphError."""
        keep, mark = _subset_positions(self, subset)
        renumbered = list(accumulate(mark, initial=0))
        nbrs = []
        for old in keep:
            row = []
            for v in self._nbrs[old]:
                if mark[v]:
                    row.append(renumbered[v])
            nbrs.append(tuple(row))
        labels = list(map(self._labels.__getitem__, keep))
        index = dict(zip(labels, range(len(labels))))
        return LabeledGraph(labels, index, nbrs, sum(map(len, nbrs)) // 2)

    def components(self):
        """Connected components as sorted lists of labels, sorted by their
        first label."""
        n = len(self._labels)
        return [
            list(map(self._labels.__getitem__, sorted(comp)))
            for comp in _components(self._nbrs, range(n), bytearray(b"\x01") * n)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._labels == other._labels and self._nbrs == other._nbrs

    __hash__ = None

    def __repr__(self):
        return f"<LabeledGraph order={self.order} size={self.size}>"


def _label_index(labels):
    """Sorted labels, label -> index map, and each given label's index,
    read off the map without a lookup when the labels come sorted."""
    names = sorted(labels)
    rank = dict(zip(names, range(len(names))))
    if len(rank) < len(names):
        repeated = next(a for a, b in zip(names, names[1:]) if a == b)
        raise GraphError(f"repeated vertex label {repeated!r}")
    return names, rank, list(rank.values()) if names == labels else [rank[v] for v in labels]


def _from_rows(names, rank, rows) -> LabeledGraph:
    """The graph with neighbour indices rows[k] at k: loop-free, repeat-free
    and symmetric lists, each sorted and replaced by its tuple in place."""
    for k, row in enumerate(rows):
        row.sort()
        rows[k] = tuple(row)
    return LabeledGraph(names, rank, rows, sum(map(len, rows)) // 2)


def build_graph(vertices, edges) -> LabeledGraph:
    """Construct a LabeledGraph.  Labels are coerced with str() and
    duplicate vertices and edges collapse; loops and edges touching
    undeclared vertices are rejected."""
    names = sorted(set(map(str, vertices)))
    rank = dict(zip(names, range(len(names))))
    rows = [[] for _ in names]
    for u, v in edges:
        u, v = str(u), str(v)
        if u == v:
            raise GraphError(f"self-loop at {u!r}")
        try:
            u, v = rank[u], rank[v]
        except KeyError as exc:
            raise GraphError(f"edge endpoint {exc.args[0]!r} is not a declared vertex") from None
        rows[u].append(v)
        rows[v].append(u)
    for row in rows:
        row[:] = set(row)
    return _from_rows(names, rank, rows)


def _subset_positions(g: LabeledGraph, subset):
    """The indices of subset (default: every vertex) in ascending order,
    and a bytearray marking them.  A GraphError names the least missing
    vertex, or the one with the least repr when the missing values do not
    compare."""
    n = len(g._labels)
    if subset is None:
        return range(n), bytearray(b"\x01") * n
    keep = set(subset)
    positions = list(map(g._index.get, keep))
    if None in positions:
        missing = [v for v, i in zip(keep, positions) if i is None]
        try:
            first = min(missing)
        except TypeError:
            first = min(missing, key=repr)
        raise GraphError(f"no such vertex: {first!r}")
    mark = bytearray(n)
    for i in positions:
        mark[i] = 1
    return list(compress(range(n), mark)), mark


def _walk(g: LabeledGraph, keep, mark):
    """One depth-first walk over the marked vertices (keep ascending, mark
    a bytearray over g).  Returns the cycle closed by the first non-tree
    edge as labels [v0, ..., v0], or None; each component's order, by
    least index; and the least label with over two marked neighbours, or
    None.  The walk stops at a cycle, leaving the other two partial."""
    nbrs = g._nbrs
    parent = [-1] * len(nbrs)
    over = len(nbrs)
    orders = []
    for start in keep:
        if parent[start] >= 0:
            continue
        parent[start] = start
        stack = [start]
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            from_v = parent[u]
            degree = 0
            for v in nbrs[u]:
                if mark[v]:
                    degree += 1
                    if parent[v] < 0:
                        parent[v] = u
                        stack.append(v)
                    elif v != from_v:
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
                        return list(map(g._labels.__getitem__, cycle)), orders, None
            if degree > 2 and u < over:
                over = u
        orders.append(size)
    return None, orders, g._labels[over] if over < len(nbrs) else None


def _components(nbrs, keep, mark):
    """The components of the subgraph induced by the marked vertices, as
    index lists in breadth-first order.  nbrs[u] holds u's neighbour
    indices (any iterable of them, a multigraph's dict too) and mark is
    indexed by vertex; keep lists the marked vertices in ascending order,
    so each list starts at its least index and the lists come out in
    order of it."""
    unseen = bytearray(mark)
    out = []
    for start in keep:
        if not unseen[start]:
            continue
        unseen[start] = 0
        comp = [start]
        for u in comp:
            for v in nbrs[u]:
                if unseen[v]:
                    unseen[v] = 0
                    comp.append(v)
        out.append(comp)
    return out


def _forest_paths(g: LabeledGraph, subset, order: int):
    """The certificate check of a construction's forest: g has the
    construction's order and subset induces no cycle in it, or a
    GraphError names the order or the cycle.  Returns _walk's component
    orders and label of degree above 2 (None in a linear forest)."""
    if g.order != order:
        raise GraphError(f"graph has order {g.order}, expected {order}")
    cycle, orders, over = _walk(g, *_subset_positions(g, subset))
    if cycle is not None:
        raise GraphError(f"construction induced a cycle: {cycle}")
    return orders, over


def find_cycle(g: LabeledGraph, subset=None):
    """A cycle in the induced subgraph as a closed vertex list
    [v0, v1, ..., v0], or None if the subgraph is a forest.  One
    depth-first pass over the subset, stopping at the first non-tree
    edge."""
    return _walk(g, *_subset_positions(g, subset))[0]


def is_forest(g: LabeledGraph, subset=None) -> bool:
    """True when the subgraph induced by subset (default: all of g) is
    acyclic, i.e. find_cycle finds no cycle."""
    return find_cycle(g, subset) is None


def contract_edges(g: LabeledGraph, contraction, merged_name) -> LabeledGraph:
    """Contract a set of pairwise disjoint edges.

    contraction is an iterable of (u, v) pairs that must form a matching in
    g; merged_name(u, v) names the merged vertex.  Name collisions with
    surviving vertices or between merged vertices raise GraphError.
    """
    mapping = {}
    for u, v in contraction:
        u, v = str(u), str(v)
        if not g.has_edge(u, v):
            raise GraphError(f"cannot contract non-edge ({u!r}, {v!r})")
        if u in mapping or v in mapping:
            raise GraphError(f"contraction is not a matching at ({u!r}, {v!r})")
        name = str(merged_name(u, v))
        mapping[u] = name
        mapping[v] = name

    def image(x):
        return mapping.get(x, x)

    # every merged name must absorb exactly its own two endpoints
    counts = {}
    for x in g.vertices():
        counts[image(x)] = counts.get(image(x), 0) + 1
    merged = set(mapping.values())
    for name, cnt in counts.items():
        if cnt != (2 if name in merged else 1):
            raise GraphError(f"contracted name {name!r} collides")

    edges = set()
    for u, v in g.edges():
        iu, iv = image(u), image(v)
        if iu != iv:
            edges.add((min(iu, iv), max(iu, iv)))
    return build_graph(counts.keys(), edges)


def relabel(g: LabeledGraph, func) -> LabeledGraph:
    """Apply an injective renaming function to every vertex."""
    mapping = {v: str(func(v)) for v in g.vertices()}
    if len(set(mapping.values())) != len(mapping):
        raise GraphError("relabeling is not injective")
    return build_graph(
        mapping.values(),
        ((mapping[u], mapping[v]) for u, v in g.edges()),
    )


def export_edgelist(g: LabeledGraph) -> str:
    """Plain text form: one tab-separated edge per line, isolated vertices
    as bare single-field lines, everything sorted."""
    lines = [f"{u}\t{v}" for u, v in g.edges()]
    lines.extend(v for v in g.vertices() if g.degree(v) == 0)
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def import_edgelist(text: str) -> LabeledGraph:
    vertices = set()
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 1:
            vertices.add(parts[0])
        elif len(parts) == 2:
            vertices.update(parts)
            edges.append((parts[0], parts[1]))
        else:
            raise GraphError(f"line {lineno}: expected 1 or 2 fields, got {len(parts)}")
    return build_graph(vertices, edges)


def export_dot(g: LabeledGraph, name: str = "g") -> str:
    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"graph {q(name)} {{"]
    for v in g.vertices():
        if g.degree(v) == 0:
            lines.append(f"  {q(v)};")
    for u, v in g.edges():
        lines.append(f"  {q(u)} -- {q(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

