"""Mixed-graph data model, canonical families, and structural queries.

A mixed graph is a simple graph in which every edge is either a digon
(arcs in both directions, behaving like an undirected edge) or a single
one-directional arc.  Vertices are dense integers ``0..n-1`` and the arc
set is kept as a sorted tuple so that derived matrices are reproducible
across runs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidGraphError

FORWARD = "forward"
BACKWARD = "backward"
DIGON = "digon"


@dataclass(frozen=True)
class MixedGraph:
    """Immutable mixed graph on vertices ``0..n_vertices-1``.

    ``arcs`` holds ordered pairs ``(origin, terminus)``; a digon is present
    as both ``(u, v)`` and ``(v, u)``.  Construction rejects self-loops,
    out-of-range endpoints, and weakly disconnected graphs.
    """

    n_vertices: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise InvalidGraphError("graph needs at least one vertex")
        normalized = tuple(sorted({(int(o), int(t)) for o, t in self.arcs}))
        object.__setattr__(self, "arcs", normalized)
        for o, t in normalized:
            if o == t:
                raise InvalidGraphError(f"self-loop at vertex {o}")
            if not (0 <= o < self.n_vertices and 0 <= t < self.n_vertices):
                raise InvalidGraphError(f"arc ({o},{t}) out of range")
        # a connected graph has at least n - 1 edges; checked before the
        # adjacency lists, whose size grows with n however few edges there are
        if self.n_vertices > len(self.edges) + 1 or not self._weakly_connected():
            raise InvalidGraphError("underlying graph is not connected")

    def _weakly_connected(self) -> bool:
        seen = {0}
        queue = deque([0])
        while queue:
            for w in self.adjacency[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n_vertices

    @cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    def has_arc(self, o: int, t: int) -> bool:
        return (o, t) in self.arc_set

    def is_digon(self, u: int, v: int) -> bool:
        return (u, v) in self.arc_set and (v, u) in self.arc_set

    def edge_sign(self, o: int, t: int) -> int:
        """Orientation of the edge {o, t} read from o to t: 0 for a digon,
        +1 for a lone arc o -> t, -1 for a lone arc t -> o."""
        arcs = self.arc_set
        backward = (t, o) in arcs
        if (o, t) in arcs:
            return 0 if backward else 1
        if backward:
            return -1
        raise InvalidGraphError(f"no edge joins {o} and {t}")

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Underlying undirected edges as sorted pairs ``(u, v)`` with u < v."""
        return tuple(sorted({(min(o, t), max(o, t)) for o, t in self.arcs}))

    @cached_property
    def digons(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, v in self.edges if self.is_digon(u, v))

    @cached_property
    def one_directional(self) -> tuple[tuple[int, int], ...]:
        """Arcs whose reverse is absent, as stored (origin, terminus) pairs."""
        return tuple(a for a in self.arcs if (a[1], a[0]) not in self.arc_set)

    @cached_property
    def symmetric_arcs(self) -> tuple[tuple[int, int], ...]:
        """All arcs of the symmetrized graph, sorted lexicographically."""
        both = {(o, t) for o, t in self.arcs} | {(t, o) for o, t in self.arcs}
        return tuple(sorted(both))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbors of every vertex in the underlying graph."""
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def degree(self, x: int) -> int:
        """Degree of ``x`` in the underlying graph."""
        if not 0 <= x < self.n_vertices:
            raise InvalidGraphError(f"vertex {x} out of range")
        return self.degrees[x]

    def neighbors(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.n_vertices:
            raise InvalidGraphError(f"vertex {x} out of range")
        return self.adjacency[x]

    def underlying(self) -> "MixedGraph":
        """Symmetrize every arc into a digon."""
        return MixedGraph(self.n_vertices, self.symmetric_arcs)

    def girth(self) -> int | float:
        """Length of the shortest cycle of the underlying graph, ``inf`` for trees.

        BFS from every vertex; fine at desk scale.
        """
        adj = self.adjacency
        best: int | float = math.inf
        for root in range(self.n_vertices):
            dist = {root: 0}
            parent = {root: -1}
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif parent[u] != w:
                        best = min(best, dist[u] + dist[w] + 1)
        return best

    def is_path_graph(self) -> bool:
        """True when the underlying graph is a simple path on >= 2 vertices."""
        if self.n_vertices < 2:
            return False
        degs = sorted(self.degrees)
        return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])

    def is_cycle_graph(self) -> bool:
        """True when the underlying graph is a single cycle."""
        return self.n_vertices >= 3 and all(d == 2 for d in self.degrees)

    def cycle_order(self) -> tuple[int, ...]:
        """Vertices in traversal order around the cycle, starting at 0.

        The second vertex is the smaller neighbor of 0, which fixes the
        traversal direction deterministically.
        """
        if not self.is_cycle_graph():
            raise InvalidGraphError("underlying graph is not a cycle")
        order = [0, min(self.neighbors(0))]
        while len(order) < self.n_vertices:
            a, b = self.neighbors(order[-1])
            order.append(a if b == order[-2] else b)
        return tuple(order)

    def reversed_arcs(self) -> "MixedGraph":
        """Reverse every arc (digons are unchanged)."""
        return MixedGraph(self.n_vertices, tuple((t, o) for o, t in self.arcs))

    def relabeled(self, perm: Sequence[int]) -> "MixedGraph":
        """Apply the vertex permutation ``perm`` (old label -> new label)."""
        if sorted(perm) != list(range(self.n_vertices)):
            raise InvalidGraphError("relabeling is not a permutation")
        return MixedGraph(
            self.n_vertices, tuple((perm[o], perm[t]) for o, t in self.arcs)
        )


class ArcIndex:
    """Deterministic total order on the symmetric arc set of a mixed graph.

    Arcs are sorted lexicographically by (origin, terminus); the inverse of
    every indexed arc is itself indexed, so inversion acts as a fixed-point
    free involution on positions.  ``origin``, ``terminus`` and ``inverse``
    are integer arrays over positions, so operators on the arc space are
    built by scattering into them.
    """

    def __init__(self, graph: MixedGraph):
        self.arcs: tuple[tuple[int, int], ...] = graph.symmetric_arcs
        ends = np.array(self.arcs, dtype=np.intp).reshape(-1, 2)
        self.origin: np.ndarray = ends[:, 0]
        self.terminus: np.ndarray = ends[:, 1]
        self._n = graph.n_vertices
        # lexicographic order is ascending order of origin * n + terminus
        self._keys = self.origin * self._n + self.terminus
        self.inverse: np.ndarray = np.searchsorted(self._keys, self.terminus * self._n + self.origin)

    def __len__(self) -> int:
        return len(self.arcs)

    def index(self, arc: tuple[int, int]) -> int:
        i = int(np.searchsorted(self._keys, arc[0] * self._n + arc[1]))
        if i == len(self.arcs) or self.arcs[i] != tuple(arc):
            raise KeyError(arc)
        return i


#: Orientation symbol -> edge sign, in the convention of ``MixedGraph.edge_sign``.
EDGE_SIGN = {FORWARD: 1, BACKWARD: -1, DIGON: 0}
#: Random orientations draw 0, 1 or 2 per edge: forward, backward or digon.
_DRAWN_SIGN = (1, -1, 0)


def from_edge_signs(
    n: int, edges: Iterable[tuple[int, int]], signs: Iterable[int]
) -> MixedGraph:
    """Mixed graph with edge (u, v) realized as the arc u -> v for sign +1,
    the arc v -> u for -1, and a digon for 0."""
    arcs: list[tuple[int, int]] = []
    for (u, v), s in zip(edges, signs):
        if s >= 0:
            arcs.append((u, v))
        if s <= 0:
            arcs.append((v, u))
    return MixedGraph(n, tuple(arcs))


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def build_cycle(n: int, j: int) -> MixedGraph:
    """Mixed cycle of type ``j``: arcs (0,1)..(j-1,j) one-directional, rest digons."""
    if n < 3:
        raise InvalidGraphError(f"a cycle needs n >= 3, got {n}")
    if not 0 <= j <= n:
        raise InvalidGraphError(f"cycle type j={j} outside 0..{n}")
    return from_edge_signs(n, _cycle_edges(n), [1] * j + [0] * (n - j))


def build_path(n: int, orientation: Sequence[str]) -> MixedGraph:
    """Mixed path on ``n`` vertices; edge i..i+1 realized per orientation symbol."""
    if n < 2:
        raise InvalidGraphError(f"a path needs n >= 2, got {n}")
    if len(orientation) != n - 1:
        raise InvalidGraphError(
            f"orientation length {len(orientation)} != {n - 1}"
        )
    unknown = [symbol for symbol in orientation if symbol not in EDGE_SIGN]
    if unknown:
        raise InvalidGraphError(f"unknown orientation symbol {unknown[0]!r}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return from_edge_signs(n, edges, [EDGE_SIGN[symbol] for symbol in orientation])


JSON_FIELDS = ("n", "arcs", "edges")


def _is_vertex_id(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _json_pairs(data: dict, field: str) -> list[tuple[int, int]]:
    pairs = data.get(field, [])
    if not isinstance(pairs, list):
        raise InvalidGraphError(f"graph JSON field {field!r} must be a list of pairs")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_vertex_id, pair))):
            raise InvalidGraphError(
                f"graph JSON field {field!r} holds {pair!r}; want a pair of integer vertex ids"
            )
    return [(o, t) for o, t in pairs]


def from_json_dict(data: dict) -> MixedGraph:
    """Load the interchange format ``{"n":, "arcs": [[o,t],..], "edges": [[u,v],..]}``.

    ``edges`` is shorthand for digons; ``arcs`` and ``edges`` default to
    empty.  ``n`` and every vertex id must be JSON integers and every pair
    must have two entries; unknown fields, duplicates (after expanding
    edges) and self-loops are rejected.
    """
    if not isinstance(data, dict):
        raise InvalidGraphError("graph JSON must be an object with fields 'n', 'arcs', 'edges'")
    unknown = sorted(str(key) for key in data if key not in JSON_FIELDS)
    if unknown:
        raise InvalidGraphError(f"graph JSON has unknown fields {unknown}")
    if not _is_vertex_id(data.get("n")):
        raise InvalidGraphError("graph JSON needs an integer field 'n'")
    arcs = _json_pairs(data, "arcs")
    for u, v in _json_pairs(data, "edges"):
        if u == v:
            raise InvalidGraphError(f"self-loop edge [{u},{v}]")
        arcs.extend([(u, v), (v, u)])
    if len(set(arcs)) != len(arcs):
        raise InvalidGraphError("duplicate arcs in graph JSON")
    return MixedGraph(data["n"], tuple(arcs))


def to_json_dict(graph: MixedGraph) -> dict:
    """Emit the interchange format; digons go under ``edges``."""
    digons = set(graph.digons)
    return {
        "n": graph.n_vertices,
        "arcs": [list(a) for a in graph.one_directional],
        "edges": [list(e) for e in sorted(digons)],
    }


def _random_orientation(rng, count: int) -> list[str]:
    symbols = (FORWARD, BACKWARD, DIGON)
    return [symbols[k] for k in rng.integers(0, 3, size=count)]


def random_mixed_path(n: int, rng) -> MixedGraph:
    return build_path(n, _random_orientation(rng, n - 1))


def random_mixed_cycle(n: int, rng) -> MixedGraph:
    """Cycle on ``n`` vertices with each edge independently digon/forward/backward."""
    signs = [_DRAWN_SIGN[k] for k in rng.integers(0, 3, size=n)]
    return from_edge_signs(n, _cycle_edges(n), signs)


def _randomly_oriented(n: int, edges: list[tuple[int, int]], rng) -> MixedGraph:
    """Orient each edge by its own draw, in edge order."""
    return from_edge_signs(n, edges, [_DRAWN_SIGN[int(rng.integers(0, 3))] for _ in edges])


def random_mixed_tree(n: int, rng) -> MixedGraph:
    """Random attachment tree with random edge orientations."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return _randomly_oriented(n, edges, rng)


def random_unicyclic(n: int, rng) -> MixedGraph:
    """Connected graph with exactly one cycle, random orientations."""
    if n < 3:
        raise InvalidGraphError("unicyclic graphs need n >= 3")
    c = int(rng.integers(3, n + 1))
    edges = _cycle_edges(c)
    edges += [(int(rng.integers(0, i)), i) for i in range(c, n)]
    return _randomly_oriented(n, edges, rng)


def random_mixed_graph(n: int, rng, extra_edge_prob: float = 0.3) -> MixedGraph:
    """Random connected mixed graph: a tree plus random chords."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    present = {frozenset(e) for e in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if frozenset((u, v)) not in present and rng.random() < extra_edge_prob:
                edges.append((u, v))
                present.add(frozenset((u, v)))
    return _randomly_oriented(n, edges, rng)
