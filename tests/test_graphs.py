import itertools
import math

import numpy as np
import pytest

from mixedwalk import graphs
from mixedwalk.errors import InvalidGraphError
from mixedwalk.graphs import (
    ArcIndex,
    MixedGraph,
    build_cycle,
    build_path,
    from_json_dict,
    random_mixed_cycle,
    random_mixed_graph,
    random_mixed_path,
    random_mixed_tree,
    random_unicyclic,
    to_json_dict,
)


def brute_force_girth(graph):
    """Independent oracle: try every vertex subset of every size as a cycle."""
    n = graph.n_vertices
    edges = set(map(tuple, graph.edges.tolist()))

    def adjacent(u, v):
        return (min(u, v), max(u, v)) in edges

    for k in range(3, n + 1):
        for subset in itertools.combinations(range(n), k):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                ring = (first,) + perm
                if all(adjacent(ring[i], ring[(i + 1) % k]) for i in range(k)):
                    return k
    return math.inf


def test_build_cycle_type_three():
    g = build_cycle(8, 3)
    assert g.one_directional == ((0, 1), (1, 2), (2, 3))
    assert len(g.digons) == 5
    assert g.degrees == (2,) * 8


def test_build_cycle_all_digons_is_undirected():
    g = build_cycle(6, 0)
    assert g.one_directional == ()
    assert len(g.digons) == 6
    assert g == g.underlying()


def test_build_cycle_fully_directed_counts():
    g = build_cycle(4, 4)
    assert len(g.one_directional) == 4
    assert g.digons == ()
    assert len(ArcIndex(g)) == 8


def test_build_cycle_rejects_bad_input():
    with pytest.raises(InvalidGraphError):
        build_cycle(2, 0)
    with pytest.raises(InvalidGraphError):
        build_cycle(5, 6)
    with pytest.raises(InvalidGraphError):
        build_cycle(5, -1)


def test_shared_cycles_keep_the_input_domain():
    # the memo is keyed after the checks, so a cached (5, 1) answers no float or bool
    assert build_cycle(5, 1) is build_cycle(np.int64(5), np.int8(1))
    for n, j in ((5.0, 1), (np.float64(5), 1), (5, 1.0), ("5", 1), (5, True), (True, 1), (2, 0), (5, 6), (5, -1)):
        with pytest.raises(InvalidGraphError):
            build_cycle(n, j)


def test_builders_and_vertex_counts_refuse_non_integers():
    rng = np.random.default_rng(0)
    for call in (
        lambda: build_path(2.0, ["digon"]),
        lambda: build_path(True, []),
        lambda: random_mixed_path(3.0, rng),
        lambda: random_unicyclic(True, rng),
        lambda: random_unicyclic(4.0, rng),
        lambda: MixedGraph(2.0, ((0, 1),)),
        lambda: MixedGraph(np.bool_(True), ()),
        lambda: from_json_dict({"n": 2.0, "edges": [[0, 1]]}),
        lambda: from_json_dict({"n": True, "edges": []}),
    ):
        with pytest.raises(InvalidGraphError):
            call()
    assert build_path(np.int64(3), ["digon"] * 2) == build_path(3, ["digon"] * 2)
    assert random_mixed_path(np.int8(4), rng).n_vertices == 4
    assert MixedGraph(np.uint16(2), ((0, 1),)).n_vertices == 2


def test_random_families_gate_their_size():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidGraphError, match="cycle size n must be >= 3"):
        random_mixed_cycle(2, rng)
    for family, least in ((random_mixed_cycle, 3), (random_mixed_tree, 1), (random_mixed_graph, 1)):
        for n in (5.0, np.float64(5), "5", True, least - 1):
            with pytest.raises(InvalidGraphError):
                family(n, rng)
        # a numpy integer draws the same graph as the int, from the same state
        assert family(np.int16(6), np.random.default_rng(3)) == family(6, np.random.default_rng(3))


def test_relabeling_reads_integer_entries_only():
    g = MixedGraph(4, ((0, 1), (1, 2), (2, 1), (2, 3)))
    for perm in ([True, False, 2, 3], [1.0, 0, 2, 3], [1, 0, 2, "3"]):
        with pytest.raises(InvalidGraphError):
            g.relabeled(perm)
    assert g.relabeled(np.array([1, 0, 2, 3])) == g.relabeled([1, 0, 2, 3])
    assert g.relabeled([1, 0, 2, 3]).arcs == ((0, 2), (1, 0), (2, 0), (2, 3))


def test_shared_cycles_are_bounded():
    for n in range(3, 40):
        for j in range(n + 1):
            build_cycle(n, j)
    assert graphs._canonical_cycle.cache_info().currsize == graphs.CYCLE_MEMO_SIZE


def test_shared_cycles_and_their_arc_index_are_read_only():
    g = build_cycle(6, 2)
    index = g.arc_index
    assert build_cycle(6, 2) is g and g.arc_index is index
    for array in (g.edges, g.signs, index.origin, index.terminus, index.signs, index.inverse):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(AttributeError):
        g.signs = np.zeros(6, dtype=np.int8)
    # a graph made from another builds its own index, with its own signs
    assert g.underlying().arc_index.signs.tolist() == [0] * 12
    assert np.array_equal(MixedGraph(6, edges=g.edges, signs=-g.signs).arc_index.signs, -index.signs)
    assert index.signs.tolist() == ArcIndex(g).signs.tolist() == [g.edge_sign(o, t) for o, t in index.arcs]


def test_build_path_variants():
    g = build_path(2, ["digon"])
    assert len(ArcIndex(g)) == 2

    g = build_path(3, ["forward", "backward"])
    assert g.arcs == ((0, 1), (2, 1))

    g = build_path(5, ["digon"] * 4)
    assert len(ArcIndex(g)) == 8
    with pytest.raises(InvalidGraphError):
        build_path(4, ["digon"])
    with pytest.raises(InvalidGraphError):
        build_path(1, [])


def test_edge_sign_reads_orientation_from_the_first_endpoint():
    g = build_path(4, ["forward", "backward", "digon"])
    assert (g.edge_sign(0, 1), g.edge_sign(1, 0)) == (1, -1)
    assert (g.edge_sign(1, 2), g.edge_sign(2, 1)) == (-1, 1)
    assert (g.edge_sign(2, 3), g.edge_sign(3, 2)) == (0, 0)
    with pytest.raises(InvalidGraphError):
        g.edge_sign(0, 2)


def test_underlying_symmetrizes_and_is_idempotent():
    g = build_cycle(8, 3)
    assert g.underlying() == build_cycle(8, 0)
    assert g.underlying().underlying() == g.underlying()
    mixed = build_path(3, ["forward", "backward"])
    assert mixed.underlying() == build_path(3, ["digon", "digon"])
    assert set(mixed.underlying().arcs) >= set(mixed.arcs)


def test_girth_cycle_and_tree():
    assert build_cycle(7, 2).girth() == 7
    assert build_path(6, ["forward"] * 5).girth() == math.inf


def test_girth_cycle_with_chord():
    arcs = list(build_cycle(5, 0).arcs) + [(0, 2), (2, 0)]
    g = MixedGraph(5, tuple(arcs))
    assert g.girth() == 3
    assert g.girth() == brute_force_girth(g)


def test_girth_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_mixed_graph(int(rng.integers(3, 8)), rng)
        assert g.girth() == brute_force_girth(g)


def test_degree_examples():
    cycle = build_cycle(6, 2)
    assert all(cycle.degrees[x] == 2 for x in range(6))
    path = build_path(5, ["digon"] * 4)
    assert path.degrees[0] == 1 and path.degrees[4] == 1
    assert path.degrees[2] == 2


def test_graph_validation():
    with pytest.raises(InvalidGraphError):
        MixedGraph(3, ((0, 0),))
    with pytest.raises(InvalidGraphError):
        MixedGraph(3, ((0, 3),))
    with pytest.raises(InvalidGraphError):
        MixedGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))  # disconnected


def test_too_few_edges_rejected_before_the_adjacency_lists(monkeypatch):
    def refuse(self):
        raise AssertionError("built adjacency lists for a graph with too few edges")

    monkeypatch.setattr(MixedGraph, "_weakly_connected", refuse)
    for n in (3, 4_000_000, 10**30):
        with pytest.raises(InvalidGraphError, match="not connected"):
            MixedGraph(n, ((0, 1), (1, 0)))


def test_arc_index_is_fixed_point_free_involution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_mixed_graph(int(rng.integers(2, 9)), rng)
        index = ArcIndex(g)
        assert len(index) == 2 * len(g.edges)
        for i in range(len(index)):
            assert index.inverse[i] != i
            assert index.inverse[index.inverse[i]] == i
            o, t = index.arcs[i]
            assert index.arcs[index.inverse[i]] == (t, o)
        assert list(index.arcs) == sorted(index.arcs)


def test_arc_index_ends_and_inverse_are_integer_arrays():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_mixed_graph(int(rng.integers(2, 9)), rng)
        index = ArcIndex(g)
        for field in (index.origin, index.terminus, index.inverse):
            assert field.dtype.kind == "i" and field.shape == (len(index),)
        assert np.array_equal(index.inverse[index.inverse], np.arange(len(index)))
        assert [(int(o), int(t)) for o, t in zip(index.origin, index.terminus)] == list(index.arcs)
        assert np.array_equal(index.origin[index.inverse], index.terminus)


def test_json_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_mixed_tree(int(rng.integers(2, 9)), rng)
        assert from_json_dict(to_json_dict(g)) == g
    g = build_cycle(5, 2)
    assert from_json_dict(to_json_dict(g)) == g


def test_json_loader_rejects_bad_input():
    with pytest.raises(InvalidGraphError):
        from_json_dict({"n": 2, "edges": [[0, 0]]})
    with pytest.raises(InvalidGraphError):
        from_json_dict({"n": 2, "arcs": [[0, 1]], "edges": [[0, 1]]})
    with pytest.raises(InvalidGraphError):
        from_json_dict({"n": 2, "arcs": [[0, 1], [0, 1]]})
    with pytest.raises(InvalidGraphError):
        from_json_dict({"arcs": [[0, 1]]})


def test_cycle_girth_is_length_for_every_type():
    for n in range(3, 9):
        for j in range(n + 1):
            assert build_cycle(n, j).girth() == n


def test_cycle_arc_and_digon_counts():
    for n in range(3, 9):
        for j in range(n + 1):
            g = build_cycle(n, j)
            assert len(g.one_directional) == j
            assert len(g.digons) == n - j


def test_random_cycle_is_cycle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_mixed_cycle(int(rng.integers(3, 10)), rng)
        assert g.is_cycle_graph()
        assert not g.is_path_graph()


def test_seeded_random_families_keep_their_arcs():
    # arcs recorded when each family drew its orientations one scalar per
    # edge; the vector draw must give the same graphs and leave the
    # generator in the same state
    rng = np.random.default_rng(2021)
    families = (random_mixed_path, random_mixed_cycle, random_mixed_tree, random_unicyclic, random_mixed_graph)
    got = [family(6, rng).arcs for family in families]
    assert got == [
        ((0, 1), (1, 0), (1, 2), (2, 1), (3, 2), (3, 4), (4, 3), (5, 4)),
        ((0, 5), (1, 0), (2, 1), (2, 3), (4, 3), (5, 4)),
        ((0, 2), (0, 3), (1, 0), (1, 4), (3, 5), (4, 1), (5, 3)),
        ((0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (3, 4), (5, 1)),
        ((0, 1), (1, 0), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 1), (4, 2), (5, 0), (5, 1)),
    ]
    assert int(rng.integers(0, 1000)) == 606
