"""Mixed-graph data model, canonical families, and structural queries.

A mixed graph is a simple graph in which every edge is either a digon
(arcs in both directions, behaving like an undirected edge) or a single
one-directional arc.  Vertices are dense integers ``0..n-1``.  A graph is
held as ``edges``, its underlying edges as sorted rows ``(u, v)`` with
u < v, and ``signs``, one int8 per edge as ``MixedGraph.edge_sign`` reads
it from u to v.  Arcs, adjacency lists and degrees are derived from them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidGraphError, whole

FORWARD = "forward"
BACKWARD = "backward"
DIGON = "digon"


def _id_pairs(pairs) -> np.ndarray:
    """``pairs`` as a (k, 2) int64 array.  Ids must be Python or numpy
    integers; floats, bools and strings are rejected, never truncated."""
    pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
    try:  # TypeError: a pair is no sequence or an id no integer; OverflowError: past int64
        if set(map(len, pairs)) <= {2}:
            flat = list(itertools.chain.from_iterable(pairs))
            ends = np.fromiter(map(operator.index, flat), np.int64, len(flat)).reshape(-1, 2)
            # operator.index reads a bool as 0 or 1, so only those ids need a look
            if not any(type(flat[i]) is bool for i in np.flatnonzero(ends <= 1).tolist()):
                return ends
    except (TypeError, OverflowError):
        pass
    raise InvalidGraphError("vertex pairs must be pairs of integer ids within int64")


class MixedGraph:
    """Immutable mixed graph on vertices ``0..n_vertices-1``, built from
    ``arcs``, pairs ``(origin, terminus)`` with a digon as both directions
    (a repeated arc counts once), or from ``edges`` and ``signs``, the edge
    (u, v) realized as the arc u -> v for sign +1, the arc v -> u for -1 and
    a digon for 0 (an arc given twice is an error).
    Non-integer ids, self-loops, out-of-range endpoints and weakly
    disconnected graphs are rejected."""

    def __init__(self, n_vertices: int, arcs: Iterable[tuple[int, int]] = (), *, edges=None, signs=None):
        n = whole(n_vertices, "vertex count", 1, InvalidGraphError)
        ends = _id_pairs(arcs if edges is None else edges)
        # an arc (o, t) is the edge (o, t) with sign +1
        s = np.asarray(signs) if edges is not None else np.ones(len(ends), dtype=np.int8)
        # argmin and argmax: the cheapest extremes of a short array
        if s.shape != (len(ends),) or s.size and (s.dtype.kind not in "iu" or s[s.argmin()] < -1 or s[s.argmax()] > 1):
            raise InvalidGraphError("need one edge sign in {-1, 0, +1} per edge")
        lo, hi = ends.T  # views: the pairs as given, then sorted within each row
        direction = np.sign(hi - lo)
        if np.count_nonzero(direction) < len(ends):
            raise InvalidGraphError(f"self-loop at vertex {lo[direction == 0][0]}")
        s = (s * direction).astype(np.int8)  # each sign read from the smaller end
        ends.sort(axis=1)
        if n > len(ends) + 1:  # fewer than n - 1 edges; it also keeps the keys in int64
            raise InvalidGraphError("underlying graph is not connected")
        if len(ends) and (lo[lo.argmin()] < 0 or hi[hi.argmax()] >= n):
            raise InvalidGraphError(f"vertex id out of range for {n} vertices")
        keys = lo * n + hi
        order = keys.argsort()
        keys = keys[order]
        if np.count_nonzero(keys[1:] == keys[:-1]):
            # merge the entries of each edge as bit masks of their arcs (bit 0
            # for u -> v, bit 1 for v -> u); under edges= no bit may repeat
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            mask = (s[order] >= 0) + 2 * (s[order] <= 0)
            merged = np.bitwise_or.reduceat(mask, starts)
            if edges is not None and np.count_nonzero(np.add.reduceat(mask, starts) != merged):
                raise InvalidGraphError("an arc is given twice")
            keys, order, s = keys[starts], order[starts], ((merged & 1) - (merged >> 1)).astype(np.int8)
        else:
            s = s[order]
        self._set(n, ends[order], s, keys)
        if n > len(keys) + 1 or not self._weakly_connected():
            raise InvalidGraphError("underlying graph is not connected")

    def _set(self, n: int, edges: np.ndarray, signs: np.ndarray, keys: np.ndarray) -> None:
        edges.setflags(write=False)
        signs.setflags(write=False)
        # keys[i] = u * n + v for edges[i] = (u, v), ascending
        self.__dict__.update(n_vertices=n, edges=edges, signs=signs, _keys=keys)

    def _with_signs(self, signs: np.ndarray) -> "MixedGraph":
        """The same underlying graph, validated already, with other signs."""
        graph = object.__new__(MixedGraph)
        graph._set(self.n_vertices, self.edges, signs, self._keys)
        if "adjacency" in self.__dict__:  # it reads the edges only; arc_index holds signs
            graph.__dict__["adjacency"] = self.adjacency
        return graph

    def __setattr__(self, name, value):
        raise AttributeError(f"MixedGraph is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        same = self.n_vertices == other.n_vertices and np.array_equal(self.edges, other.edges)
        return same and np.array_equal(self.signs, other.signs)

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.edges.tobytes(), self.signs.tobytes()))

    def __repr__(self) -> str:
        return f"MixedGraph(n_vertices={self.n_vertices}, arcs={self.arcs!r})"

    def _weakly_connected(self) -> bool:
        adj, seen, stack = self.adjacency, bytearray(self.n_vertices), [0]
        seen[0] = 1
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
        return 0 not in seen

    def _arcs_signed_at_least(self, lowest: int) -> tuple[tuple[int, int], ...]:
        """Sorted arcs (o, t) with ``edge_sign(o, t) >= lowest`` (0: all, 1: lone)."""
        signed = zip(self.edges.tolist(), self.signs.tolist())
        return tuple(sorted(a for (u, v), s in signed for a, t in (((u, v), s), ((v, u), -s)) if t >= lowest))

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc as ``(origin, terminus)``, sorted lexicographically."""
        return self._arcs_signed_at_least(0)

    @cached_property
    def _sign_of_edge(self) -> dict[tuple[int, int], int]:
        return dict(zip(map(tuple, self.edges.tolist()), self.signs.tolist()))

    def edge_sign(self, o: int, t: int) -> int:
        """Orientation of the edge {o, t} read from o to t: 0 for a digon,
        +1 for a lone arc o -> t, -1 for a lone arc t -> o."""
        s = self._sign_of_edge.get((o, t) if o < t else (t, o))
        if s is None:
            raise InvalidGraphError(f"no edge joins {o} and {t}")
        return s if o < t else -s

    @cached_property
    def digons(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edges[self.signs == 0].tolist()))

    @cached_property
    def one_directional(self) -> tuple[tuple[int, int], ...]:
        """Arcs whose reverse is absent, as stored (origin, terminus) pairs."""
        return self._arcs_signed_at_least(1)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbors of every vertex in the underlying graph (the
        edges are sorted, so each list fills in ascending order)."""
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for u, v in zip(*self.edges.T.tolist()):
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def underlying(self) -> "MixedGraph":
        """Symmetrize every arc into a digon."""
        return self._with_signs(np.zeros_like(self.signs))

    def girth(self) -> int | float:
        """Length of the shortest cycle of the underlying graph, ``inf`` for trees.

        Vertices of degree at most 1 are peeled off; the connected 2-core
        left is empty for a tree, one cycle when all its degrees are 2, and
        else searched by a BFS from each vertex, cut off at half the best."""
        adj, degree = self.adjacency, list(self.degrees)
        peeled = [x for x, d in enumerate(degree) if d <= 1]
        for x in peeled:  # the list grows as it is read
            for w in adj[x]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        core = set(range(self.n_vertices)).difference(peeled)
        if all(degree[x] == 2 for x in core):
            return len(core) or math.inf
        best: int | float = math.inf
        for root in core:
            dist, parent, queue = {root: 0}, {root: -1}, deque([root])
            while queue and 2 * dist[queue[0]] < best:
                u = queue.popleft()
                for w in core.intersection(adj[u]):
                    if w not in dist:
                        dist[w], parent[w] = dist[u] + 1, u
                        queue.append(w)
                    elif parent[u] != w:
                        best = min(best, dist[u] + dist[w] + 1)
        return best

    def is_path_graph(self) -> bool:
        """True when the underlying graph is a simple path on >= 2 vertices."""
        degs = sorted(self.degrees)
        return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])

    def is_cycle_graph(self) -> bool:
        """True when the underlying graph is a single cycle."""
        return self.n_vertices >= 3 and all(d == 2 for d in self.degrees)

    def cycle_order(self) -> tuple[int, ...]:
        """Vertices in traversal order around the cycle, starting at 0; the
        second is the smaller neighbor of 0, which fixes the direction."""
        if not self.is_cycle_graph():
            raise InvalidGraphError("underlying graph is not a cycle")
        adj = self.adjacency
        order = [0, adj[0][0]]
        while len(order) < self.n_vertices:
            a, b = adj[order[-1]]
            order.append(a if b == order[-2] else b)
        return tuple(order)

    @cached_property
    def arc_index(self) -> "ArcIndex":
        """The graph's ``ArcIndex``, built on first read and shared by every
        walk on the graph; its arrays are read-only."""
        return ArcIndex(self)

    def relabeled(self, perm: Sequence[int]) -> "MixedGraph":
        """Apply the vertex permutation ``perm`` (old label -> new label)."""
        perm = [whole(x, "relabeling entry", error=InvalidGraphError) for x in perm]
        if sorted(perm) != list(range(self.n_vertices)):
            raise InvalidGraphError("relabeling is not a permutation")
        return MixedGraph(self.n_vertices, edges=np.asarray(perm)[self.edges].tolist(), signs=self.signs)


class ArcIndex:
    """Deterministic total order on the symmetric arc set of a mixed graph:
    one argsort of origin * n + terminus over both arcs of every edge.
    Inversion is a fixed-point free involution on positions.  ``origin``,
    ``terminus``, ``inverse`` and ``signs`` (``edge_sign`` along each arc)
    are integer arrays over positions, for building operators by scatter."""

    def __init__(self, graph: MixedGraph):
        n, (u, v) = graph.n_vertices, graph.edges.T
        keys = np.concatenate((graph._keys, v * n + u))  # edge i: u -> v at i, v -> u at E + i
        order = keys.argsort()
        self.origin, self.terminus = np.divmod(keys[order], n)
        self.signs = np.concatenate((graph.signs, -graph.signs))[order]
        # the reverse of the arc at doubled position j sits at j + E, mod 2E
        self.inverse = order.argsort()[(order + len(order) // 2) % max(len(order), 1)]
        for array in (self.origin, self.terminus, self.signs, self.inverse):
            array.setflags(write=False)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.origin.tolist(), self.terminus.tolist()))

    def __len__(self) -> int:
        return len(self.origin)


#: Orientation symbol -> edge sign, in the convention of ``MixedGraph.edge_sign``.
EDGE_SIGN = {FORWARD: 1, BACKWARD: -1, DIGON: 0}
#: Random orientations draw 0, 1 or 2 per edge: forward, backward or digon.
_DRAWN_SIGN = np.array((1, -1, 0), dtype=np.int8)


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


#: Canonical cycles ``build_cycle`` keeps, most recently used first.
CYCLE_MEMO_SIZE = 256


def cycle_shape(n: int, j: int) -> tuple[int, int]:
    """``(n, j)`` as ints, checked as the type-j cycle on n vertices:
    n >= 3 and 0 <= j <= n."""
    n = whole(n, "cycle size n", 3, InvalidGraphError)
    j = whole(j, "cycle type j", error=InvalidGraphError)
    if not 0 <= j <= n:
        raise InvalidGraphError(f"cycle type j={j} outside 0..{n}")
    return n, j


def build_cycle(n: int, j: int) -> MixedGraph:
    """Mixed cycle of type ``j``: arcs (0,1)..(j-1,j) one-directional, rest
    digons.  One graph per (n, j) is shared by every caller; it is immutable,
    and so are its cached ``arc_index`` and other derived structures."""
    # checked first, so that no float or bool reaches the memo
    return _canonical_cycle(*cycle_shape(n, j))


@lru_cache(maxsize=CYCLE_MEMO_SIZE)
def _canonical_cycle(n: int, j: int) -> MixedGraph:
    return MixedGraph(n, edges=_cycle_edges(n), signs=[1] * j + [0] * (n - j))


def build_path(n: int, orientation: Sequence[str]) -> MixedGraph:
    """Mixed path on ``n`` vertices; edge i..i+1 realized per orientation symbol."""
    n = whole(n, "path size n", 2, InvalidGraphError)
    if len(orientation) != n - 1:
        raise InvalidGraphError(f"orientation length {len(orientation)} != {n - 1}")
    unknown = [symbol for symbol in orientation if symbol not in EDGE_SIGN]
    if unknown:
        raise InvalidGraphError(f"unknown orientation symbol {unknown[0]!r}")
    return MixedGraph(n, edges=_path_edges(n), signs=[EDGE_SIGN[symbol] for symbol in orientation])


JSON_FIELDS = ("n", "arcs", "edges")


def from_json_dict(data: dict) -> MixedGraph:
    """Load the interchange format ``{"n":, "arcs": [[o,t],..], "edges": [[u,v],..]}``.

    ``edges`` is shorthand for digons; ``arcs`` and ``edges`` default to
    empty.  ``n`` and every vertex id must be integers and every pair must
    have two entries; unknown fields, duplicates (after expanding edges)
    and self-loops are rejected.
    """
    if not isinstance(data, dict):
        raise InvalidGraphError("graph JSON must be an object with fields 'n', 'arcs', 'edges'")
    unknown = sorted(str(key) for key in data if key not in JSON_FIELDS)
    if unknown:
        raise InvalidGraphError(f"graph JSON has unknown fields {unknown}")
    n, arcs, edges = data.get("n"), data.get("arcs", []), data.get("edges", [])
    if not (isinstance(arcs, list) and isinstance(edges, list)):
        raise InvalidGraphError("graph JSON fields 'arcs' and 'edges' must be lists of pairs")
    # an arc o -> t is the edge (o, t) with sign +1, an edge a digon
    return MixedGraph(n, edges=arcs + edges, signs=[1] * len(arcs) + [0] * len(edges))


def to_json_dict(graph: MixedGraph) -> dict:
    """Emit the interchange format; digons go under ``edges``."""
    return {
        "n": graph.n_vertices,
        "arcs": [list(a) for a in graph.one_directional],
        "edges": [list(e) for e in graph.digons],
    }


def _randomly_oriented(n: int, edges: list[tuple[int, int]], rng) -> MixedGraph:
    """Orient each edge by one draw of the whole vector, in edge order; it
    yields the same values, and leaves ``rng`` in the same state, as one
    scalar draw per edge."""
    return MixedGraph(n, edges=edges, signs=_DRAWN_SIGN[rng.integers(0, 3, size=len(edges))])


def random_mixed_path(n: int, rng) -> MixedGraph:
    n = whole(n, "path size n", 2, InvalidGraphError)
    return _randomly_oriented(n, _path_edges(n), rng)


def random_mixed_cycle(n: int, rng) -> MixedGraph:
    """Cycle on ``n`` vertices with each edge independently digon/forward/backward."""
    n = whole(n, "cycle size n", 3, InvalidGraphError)
    return _randomly_oriented(n, _cycle_edges(n), rng)


def random_mixed_tree(n: int, rng) -> MixedGraph:
    """Random attachment tree with random edge orientations."""
    n = whole(n, "tree size n", 1, InvalidGraphError)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return _randomly_oriented(n, edges, rng)


def random_unicyclic(n: int, rng) -> MixedGraph:
    """Connected graph with exactly one cycle, random orientations."""
    n = whole(n, "unicyclic graph size n", 3, InvalidGraphError)
    c = int(rng.integers(3, n + 1))
    edges = _cycle_edges(c) + [(int(rng.integers(0, i)), i) for i in range(c, n)]
    return _randomly_oriented(n, edges, rng)


def random_mixed_graph(n: int, rng, extra_edge_prob: float = 0.3) -> MixedGraph:
    """Random connected mixed graph: a tree plus random chords."""
    n = whole(n, "graph size n", 1, InvalidGraphError)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    present = set(edges)  # tree edges (parent, child) have parent < child
    pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
    edges += [e for e in pairs if e not in present and rng.random() < extra_edge_prob]
    return _randomly_oriented(n, edges, rng)
