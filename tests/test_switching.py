import hashlib
import json

import numpy as np
import pytest

from mixedwalk import linalg, switching
from mixedwalk.errors import DomainError, MoveNotApplicableError
from mixedwalk.graphs import (
    MixedGraph,
    build_cycle,
    build_path,
    random_mixed_cycle,
    random_mixed_graph,
    random_mixed_tree,
)
from mixedwalk.spectra import ETA_GRID, RationalAngle, cospectral, det_cycle_closed, h_eta
from mixedwalk.switching import (
    SW2,
    SW3,
    SW4,
    apply_switching,
    canonicalize_cycle,
    classify_cycle,
    named_move,
)


def figure_eight_cycle():
    """The worked 8-cycle: digons 0-1, 4-5, 6-7; arcs 1>2, 2>3, 3>4, 6>5, 7>0."""
    arcs = ((0, 1), (1, 0), (4, 5), (5, 4), (6, 7), (7, 6),
            (1, 2), (2, 3), (3, 4), (6, 5), (7, 0))
    return MixedGraph(8, arcs)


def reversed_arcs(graph):
    return MixedGraph(graph.n_vertices, edges=graph.edges, signs=-graph.signs)


def conjugated_and_relabeled(graph, result, eta):
    m = apply_switching(graph, eta, result.witness)
    n = graph.n_vertices
    perm = np.zeros((n, n))
    for old, new in enumerate(result.relabeling):
        perm[new, old] = 1.0
    return perm @ m @ perm.T


class TestApplySwitching:
    def test_a_tuple_gives_the_stack_of_each_angle_bit_for_bit(self):
        rng = np.random.default_rng(31)
        etas = ETA_GRID + (RationalAngle(5, 7), -2.0)
        graphs = [random_mixed_cycle(n, rng) for n in (3, 6, 11)] + [build_cycle(7, 0)]
        graphs += [random_mixed_graph(n, rng) for n in (5, 20)] + [random_mixed_tree(9, rng)]
        for g in graphs:
            n = g.n_vertices
            alpha = tuple(rng.integers(-3, 4, n).tolist())
            stack = apply_switching(g, etas, alpha)
            assert stack.shape == (len(etas), n, n)
            for eta, m in zip(etas, stack):
                assert m.tobytes() == apply_switching(g, eta, alpha).tobytes()
            assert apply_switching(g, (), alpha).shape == (0, n, n)

    def test_any_integer_sequence_gives_the_same_matrix(self):
        g = random_mixed_cycle(7, np.random.default_rng(5))
        exponents = (2, -1, 0, 3, 1, -2, 0)
        want = apply_switching(g, ETA_GRID, exponents).tobytes()
        for given in (list(exponents), np.array(exponents), np.array(exponents, dtype=np.int8)):
            assert apply_switching(g, ETA_GRID, given).tobytes() == want

    def test_identity_function_is_noop(self):
        g = build_cycle(5, 2)
        eta = RationalAngle(1, 3)
        alpha = (0,) * 5
        assert np.array_equal(apply_switching(g, eta, alpha), h_eta(g, eta))

    def test_similarity_preserves_charpoly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_mixed_cycle(int(rng.integers(3, 10)), rng)
            eta = ETA_GRID[int(rng.integers(0, len(ETA_GRID)))]
            exps = tuple(int(k) for k in rng.integers(-2, 3, size=g.n_vertices))
            conj = apply_switching(g, eta, exps)
            a = linalg.charpoly(conj)
            b = linalg.charpoly(h_eta(g, eta))
            assert np.max(np.abs(a - b)) < 1e-10

    def test_head_to_head_collapse_matrix(self):
        # both arcs one-directional into vertex 1 of a triangle; bumping the
        # phase there turns both into digons
        g = MixedGraph(3, ((0, 1), (2, 1), (0, 2), (2, 0)))
        eta = RationalAngle(1, 5)
        alpha = (0, 1, 0)
        switched = apply_switching(g, eta, alpha)
        expected = h_eta(MixedGraph(3, ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))), eta)
        assert np.max(np.abs(switched - expected)) < 1e-15


class TestNamedMoves:
    def test_figure_step_one_slides_arc_through_vertex(self):
        g = figure_eight_cycle()
        # vertex 5 sees the in-arc 6>5 and the digon 4-5, so the arc slides
        # through: 6>5 becomes a digon, the digon becomes 5>4
        out = named_move(g, SW4, 5)
        assert out.edge_sign(5, 4) == 1  # digon became out-arc
        assert out.edge_sign(5, 6) == 0  # in-arc became digon

    def test_figure_step_two_collapses_head_to_head(self):
        g = figure_eight_cycle()
        step1 = named_move(g, SW4, 5)
        # after the slide both arcs point into vertex 4
        step2 = named_move(step1, SW2, 4)
        assert step2.edge_sign(3, 4) == 0 and step2.edge_sign(4, 5) == 0

    def test_sw2_needs_two_inward_arcs(self):
        g = figure_eight_cycle()
        with pytest.raises(MoveNotApplicableError):
            named_move(g, SW2, 0)  # vertex 0 touches a digon

    def test_sw3_collapses_tail_to_tail(self):
        g = MixedGraph(3, ((1, 0), (1, 2), (0, 2), (2, 0)))
        out = named_move(g, SW3, 1)
        assert out.edge_sign(0, 1) == 0 and out.edge_sign(1, 2) == 0

    def test_moves_match_matrix_conjugation(self):
        # graph rewrite and diagonal conjugation must produce the same matrix
        eta = RationalAngle(2, 3)
        cases = [
            (figure_eight_cycle(), SW4, 5, 1),
            (MixedGraph(3, ((0, 1), (2, 1), (0, 2), (2, 0))), SW2, 1, 1),
            (MixedGraph(3, ((1, 0), (1, 2), (0, 2), (2, 0))), SW3, 1, -1),
        ]
        for g, move, x, delta in cases:
            rewritten = named_move(g, move, x)
            exponents = [0] * g.n_vertices
            exponents[x] = delta
            alpha = tuple(exponents)
            assert np.max(np.abs(apply_switching(g, eta, alpha) - h_eta(rewritten, eta))) < 1e-14

    def test_move_requires_cycle(self):
        with pytest.raises(DomainError):
            named_move(build_path(4, ["digon"] * 3), SW4, 1)


class TestClassify:
    def test_canonical_instances(self):
        for n in range(3, 9):
            for j in range(n + 1):
                assert classify_cycle(build_cycle(n, j)) == j

    def test_figure_cycle_is_type_three(self):
        assert classify_cycle(figure_eight_cycle()) == 3

    def test_arc_reversal_keeps_type(self):
        g = build_cycle(6, 4)
        assert classify_cycle(reversed_arcs(g)) == 4
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_mixed_cycle(int(rng.integers(3, 11)), rng)
            assert classify_cycle(g) == classify_cycle(reversed_arcs(g))

    def test_invariant_under_applicable_moves(self):
        rng = np.random.default_rng(3)
        tried = 0
        while tried < 40:
            g = random_mixed_cycle(int(rng.integers(3, 11)), rng)
            x = int(rng.integers(0, g.n_vertices))
            move = (SW2, SW3, SW4)[int(rng.integers(0, 3))]
            try:
                moved = named_move(g, move, x)
            except MoveNotApplicableError:
                continue
            assert classify_cycle(moved) == classify_cycle(g)
            tried += 1

    def test_non_cycle_rejected(self):
        with pytest.raises(DomainError):
            classify_cycle(build_path(4, ["digon"] * 3))


class TestCanonicalize:
    def test_output_on_seeded_cycles_and_their_relabelings_is_pinned(self):
        # recorded when the block's rotation was still searched for a second
        # time after stage two, instead of read off stage two's front arc
        rng = np.random.default_rng(24)
        digest = hashlib.sha256()
        for _ in range(1000):
            n = int(rng.integers(3, 41))
            g = random_mixed_cycle(n, rng)
            for h in (g, g.relabeled(rng.permutation(n).tolist())):
                r = canonicalize_cycle(h)
                record = [r.type_j, r.orientation_reversed, list(r.witness), list(r.relabeling), r.moves]
                digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == "7cd516925470152412e31a632398b2afb2534eff5c86825beb8de88450f44e64"

    def test_canonical_input_needs_no_moves(self):
        for n in (3, 5, 8):
            for j in range(n + 1):
                g = build_cycle(n, j)
                result = canonicalize_cycle(g)
                assert result.type_j == j
                assert result.moves == ()
                assert list(result.relabeling) == list(range(n))
                assert not result.orientation_reversed
                for eta in ETA_GRID:  # one canonicalization serves every angle
                    assert np.max(np.abs(conjugated_and_relabeled(g, result, eta) - h_eta(g, eta))) < 1e-12

    def test_figure_cycle_three_moves(self):
        eta = RationalAngle(1, 3)
        result = canonicalize_cycle(figure_eight_cycle())
        assert result.type_j == 3
        assert len(result.moves) == 3
        gap = np.max(np.abs(
            conjugated_and_relabeled(figure_eight_cycle(), result, eta)
            - h_eta(build_cycle(8, 3), eta)
        ))
        assert gap < 1e-10

    def test_random_cycles_satisfy_entrywise_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            g = random_mixed_cycle(n, rng)
            result = canonicalize_cycle(g)
            assert result.type_j == classify_cycle(g)
            assert len(result.moves) <= n * n
            for eta in ETA_GRID:
                gap = np.max(np.abs(
                    conjugated_and_relabeled(g, result, eta)
                    - h_eta(build_cycle(n, result.type_j), eta)
                ))
                assert gap < 1e-10

    def test_canonical_form_is_cospectral_and_det_matches(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            g = random_mixed_cycle(n, rng)
            j = classify_cycle(g)
            for eta in ETA_GRID:
                assert cospectral(g, build_cycle(n, j), eta)
                det = linalg.determinant(h_eta(g, eta))
                assert abs(det - det_cycle_closed(n, j, eta)) < 1e-9

    def test_exhaustive_small_cycles(self):
        # every sign pattern on 3..5 vertices canonicalizes cleanly
        eta = RationalAngle(2, 7)
        import itertools

        for n in (3, 4, 5):
            for pattern in itertools.product((-1, 0, 1), repeat=n):
                arcs = []
                for i, s in enumerate(pattern):
                    o, t = i, (i + 1) % n
                    if s == 1:
                        arcs.append((o, t))
                    elif s == -1:
                        arcs.append((t, o))
                    else:
                        arcs.extend([(o, t), (t, o)])
                g = MixedGraph(n, tuple(arcs))
                result = canonicalize_cycle(g)
                assert result.type_j == abs(sum(pattern))
                assert len(result.moves) <= n * n
                gap = np.max(np.abs(
                    conjugated_and_relabeled(g, result, eta)
                    - h_eta(build_cycle(n, result.type_j), eta)
                ))
                assert gap < 1e-12

    def test_figure_cycle_output_is_pinned(self):
        result = canonicalize_cycle(figure_eight_cycle())
        assert result.moves == ((SW4, 4), (SW2, 5), (SW4, 0))
        assert result.witness == (1, 0, 0, 0, 1, 1, 0, 0)
        assert result.relabeling == (0, 1, 2, 3, 4, 5, 6, 7)
        assert not result.orientation_reversed

    def test_replaying_the_moves_reaches_the_canonical_cycle(self):
        # canonicalization edits a sign array; named_move rewrites graphs
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(3, 25))
            g = random_mixed_cycle(n, rng)
            result = canonicalize_cycle(g)
            exponents = [0] * n
            for move, x in result.moves:
                g = named_move(g, move, x)
                exponents[x] += -1 if move == SW3 else 1
            assert g.relabeled(result.relabeling) == build_cycle(n, result.type_j)
            assert tuple(exponents) == result.witness

    def test_reads_the_cycle_once(self, monkeypatch):
        read = switching._signs_in_order
        calls = []

        def counted(graph, order):
            calls.append(1)
            return read(graph, order)

        monkeypatch.setattr(switching, "_signs_in_order", counted)
        rng = np.random.default_rng(69)
        for k in range(1, 41):
            g = random_mixed_cycle(int(rng.integers(3, 20)), rng)
            assert canonicalize_cycle(g).type_j == abs(sum(read(g, g.cycle_order())))
            assert len(calls) == k

    def test_reversed_canonical_reports_reflection(self):
        g = reversed_arcs(build_cycle(6, 2))
        result = canonicalize_cycle(g)
        assert result.type_j == 2
        assert result.orientation_reversed

    def test_non_cycle_rejected(self):
        with pytest.raises(DomainError):
            canonicalize_cycle(build_path(3, ["digon", "digon"]))
