"""The edge and sign arrays behind ``MixedGraph``, checked against routes that
never read them: arc lists, per-arc ``edge_sign`` lookups and per-edge loops
written out here."""

import cmath
import math

import numpy as np
import pytest

from mixedwalk.errors import InvalidGraphError
from mixedwalk.graphs import (
    ArcIndex,
    MixedGraph,
    build_cycle,
    from_json_dict,
    random_mixed_cycle,
    random_mixed_graph,
    random_mixed_path,
    random_mixed_tree,
    random_unicyclic,
    to_json_dict,
)
from mixedwalk.spectra import ETA_GRID, angle_radians, h_eta
from mixedwalk.walk import time_evolution


def families(seed):
    """Seeded random mixed graphs of every family, n = 1 to 60."""
    rng = np.random.default_rng(seed)
    yield MixedGraph(1, ())
    for n in range(2, 61):
        yield random_mixed_path(n, rng)
        yield random_mixed_tree(n, rng)
        if n >= 3:
            yield random_mixed_cycle(n, rng)
            yield random_unicyclic(n, rng)
        if n <= 30:
            yield random_mixed_graph(n, rng, 0.2)


def arc_list_signs(graph):
    """Per-edge signs read off the arc list alone: +1 for u -> v only, -1
    for v -> u only, 0 for both."""
    arcs = set(graph.arcs)
    edges = sorted({(min(a), max(a)) for a in arcs})
    return edges, [((u, v) in arcs) - ((v, u) in arcs) for u, v in edges]


def test_arrays_are_sorted_read_only_and_match_the_arc_list():
    for g in families(40):
        edges, signs = arc_list_signs(g)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.signs.tolist() == signs
        assert g.edges.dtype == np.int64 and g.signs.dtype == np.int8
        assert g.edges.shape == (len(edges), 2)
        assert not g.edges.flags.writeable and not g.signs.flags.writeable
    with pytest.raises(AttributeError):
        build_cycle(5, 2).edges = np.zeros((0, 2), dtype=np.int64)


def test_every_constructor_agrees_on_edges_signs_equality_and_hash():
    for g in families(41):
        built = [
            MixedGraph(g.n_vertices, g.arcs),
            MixedGraph(g.n_vertices, list(reversed(g.arcs))),
            MixedGraph(g.n_vertices, edges=g.edges.tolist(), signs=g.signs.tolist()),
            # every edge given from its larger end, with the sign read from there
            MixedGraph(g.n_vertices, edges=g.edges[:, ::-1].tolist(), signs=(-g.signs).tolist()),
            from_json_dict(to_json_dict(g)),
        ]
        for other in built:
            assert np.array_equal(other.edges, g.edges) and np.array_equal(other.signs, g.signs)
            assert other == g and hash(other) == hash(g)
        under = g.underlying()
        assert under == MixedGraph(g.n_vertices, [(u, v) for e in g.edges.tolist() for u, v in (e, e[::-1])])
        assert hash(under) == hash(MixedGraph(g.n_vertices, edges=g.edges.tolist(), signs=[0] * len(g.edges)))
        assert (under == g) == (not g.signs.any())


def test_underlying_shares_edges_without_validating_again(monkeypatch):
    g = build_cycle(7, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("underlying() ran the constructor")

    monkeypatch.setattr(MixedGraph, "__init__", refuse)
    under = g.underlying()
    assert under.edges is g.edges and not under.signs.any()
    assert under.degrees == g.degrees and under.girth() == 7


def test_h_eta_matches_a_per_edge_loop():
    for g in families(42):
        if g.n_vertices > 40:
            continue
        arcs = set(g.arcs)
        for eta in ETA_GRID:
            w = cmath.exp(1j * angle_radians(eta))
            want = np.zeros((g.n_vertices, g.n_vertices), dtype=complex)
            for o, t in arcs:
                if (t, o) in arcs:
                    want[o, t] = 1.0
                else:
                    want[o, t], want[t, o] = w, w.conjugate()
            assert np.max(np.abs(h_eta(g, eta) - want), initial=0.0) < 1e-15


def test_phases_match_edge_sign_per_arc():
    for g in families(43):
        for eta in (ETA_GRID[2], 0.7):
            ops = time_evolution(g, eta)
            signs = [g.edge_sign(o, t) for o, t in ops.arc_index.arcs]
            want = np.exp(1j * angle_radians(eta) * np.asarray(signs, dtype=float))
            assert np.array_equal(ops.phases, want)


def test_arc_index_matches_sorted_symmetric_arcs():
    for g in families(44):
        index = ArcIndex(g)
        symmetric = sorted(set(g.arcs) | {(t, o) for o, t in g.arcs})
        assert list(index.arcs) == symmetric
        assert list(zip(index.origin.tolist(), index.terminus.tolist())) == symmetric
        assert [symmetric[i] for i in index.inverse] == [(t, o) for o, t in symmetric]
        assert index.signs.tolist() == [g.edge_sign(o, t) for o, t in symmetric]
        assert [index.arcs.index(a) for a in symmetric] == list(range(len(symmetric)))


def test_edge_sign_reads_any_direction_and_refuses_non_edges():
    g = MixedGraph(4, edges=[(2, 0), (1, 2), (3, 2)], signs=[1, 0, -1])
    assert g.edges.tolist() == [[0, 2], [1, 2], [2, 3]] and g.signs.tolist() == [-1, 0, 1]
    pairs = [(2, 0), (0, 2), (1, 2), (2, 3), (3, 2), (np.int64(3), np.int8(2))]
    assert [g.edge_sign(o, t) for o, t in pairs] == [1, -1, 0, 1, -1, -1]
    for o, t in ((0, 1), (0, 0), (0, 4), (-1, 2), (2, 6)):
        with pytest.raises(InvalidGraphError):
            g.edge_sign(o, t)


def test_non_integer_vertex_ids_are_rejected():
    for arcs in (
        [(0, 1.7), (1, 2)],
        [(0, 1.0), (1, 2)],
        [(0, True), (1, 2)],
        [(False, True), (1, 2)],
        [("0", 1), (1, 2)],
        [(0, None), (1, 2)],
        [(0, 1, 2)],
        [(0,), (1, 2)],
        [0, 1],
        [(0, 10**30), (1, 2)],
    ):
        with pytest.raises(InvalidGraphError):
            MixedGraph(3, arcs)
    for n in (3.0, True, "3", 0):
        with pytest.raises(InvalidGraphError):
            MixedGraph(n, [(0, 1), (1, 2)])
    ints = [(np.int64(0), np.int32(1)), (np.uint8(1), 2)]
    assert MixedGraph(np.int64(3), ints) == MixedGraph(3, [(0, 1), (1, 2)])
    assert MixedGraph(3, np.array([[0, 1], [1, 2]])) == MixedGraph(3, [(0, 1), (1, 2)])


def test_edge_signs_are_checked():
    for signs in ([1, 2], [0, -2], [0.5, 0], [1], [[1], [0]]):
        with pytest.raises(InvalidGraphError):
            MixedGraph(3, edges=[(0, 1), (1, 2)], signs=signs)


def test_repeated_arcs_merge_from_arcs_and_are_refused_from_edges():
    assert MixedGraph(2, [(0, 1), (0, 1), (1, 0)]) == MixedGraph(2, edges=[(0, 1)], signs=[0])
    # the two arcs of a digon, given one at a time, are no repetition
    assert MixedGraph(2, edges=[(0, 1), (1, 0)], signs=[1, 1]) == MixedGraph(2, edges=[(0, 1)], signs=[0])
    for edges, signs in (([(0, 1), (0, 1)], [1, 1]), ([(0, 1), (1, 0)], [0, 1]), ([(0, 1), (0, 1)], [0, 0])):
        with pytest.raises(InvalidGraphError):
            MixedGraph(2, edges=edges, signs=signs)


def test_girth_on_large_cycles_and_cores():
    assert build_cycle(4096, 7).girth() == 4096
    # a 4,096-cycle with a pendant path: peeling leaves the cycle
    tail = [(4095 + i, 4096 + i) for i in range(50)]
    g = MixedGraph(4146, edges=[(i, (i + 1) % 4096) for i in range(4096)] + tail, signs=[0] * 4146)
    assert g.girth() == 4096
    # two cycles of 5 and 9 joined by a path: the core is no cycle
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(4, 5), (5, 6)]
    edges += [(6 + i, 6 + (i + 1) % 9) for i in range(9)]
    assert MixedGraph(15, edges=edges, signs=[1] * len(edges)).girth() == 5
    assert MixedGraph(60, edges=[(i, i + 1) for i in range(59)], signs=[0] * 59).girth() == math.inf
