import math

import numpy as np
import pytest

from mixedwalk import linalg, spectra
from mixedwalk.errors import DomainError
from mixedwalk.graphs import (
    MixedGraph,
    build_cycle,
    build_path,
    random_mixed_graph,
    random_mixed_tree,
    random_unicyclic,
)
from mixedwalk.spectra import (
    ETA_GRID,
    RationalAngle,
    angle_radians,
    coefficient_gaps_below_girth,
    cospectral,
    cycle_charpoly_closed,
    det_cycle_closed,
    det_path_closed,
    h_eta,
    normalized_h_eta,
)


def all_digon_path(n):
    if n == 1:
        return MixedGraph(1, ())
    return build_path(n, ["digon"] * (n - 1))


class TestRationalAngle:
    def test_reduction_and_normalization(self):
        assert RationalAngle(2, 4) == RationalAngle(1, 2)
        assert RationalAngle(5, 2) == RationalAngle(1, 2)  # 5/2 mod 2 = 1/2
        assert RationalAngle(4, 2) == RationalAngle(0, 1)
        assert RationalAngle(-1, 2) == RationalAngle(3, 2)

    def test_radians_in_range(self):
        for p, q in ((0, 1), (1, 5), (7, 4), (13, 7)):
            rad = RationalAngle(p, q).radians
            assert 0 <= rad < 2 * math.pi

    def test_rejects_zero_denominator(self):
        with pytest.raises(DomainError):
            RationalAngle(1, 0)

    def test_rejects_non_integers_instead_of_truncating(self):
        # never truncated: 1.7 is not 1, and 0.4 is no zero denominator
        for p, q in ((1.7, 3), (1, 3.9), ("1", 3), (1, 0.4), (True, 3), (1, True), (None, 2)):
            with pytest.raises(DomainError):
                RationalAngle(p, q)

    def test_numpy_integers_are_read_as_ints(self):
        for kind in (np.int8, np.int32, np.int64, np.uint16):
            angle = RationalAngle(kind(2), kind(4))
            assert angle == RationalAngle(1, 2)
            assert type(angle.p) is int and type(angle.q) is int
        assert RationalAngle(np.int64(3), -6) == RationalAngle(3, 2)

    def test_float_angles_normalize(self):
        assert angle_radians(-1.0) == pytest.approx(2 * math.pi - 1.0)
        assert angle_radians(7.0) == pytest.approx(7.0 - 2 * math.pi)


class TestHEta:
    def test_all_digon_graph_gives_ordinary_adjacency(self):
        g = build_cycle(5, 0)
        for eta in ETA_GRID:
            h = h_eta(g, eta)
            expected = np.zeros((5, 5))
            for u, v in g.edges:
                expected[u, v] = expected[v, u] = 1
            assert np.array_equal(h, expected.astype(complex))

    def test_single_arc_quarter_turn(self):
        g = MixedGraph(2, ((0, 1),))
        h = h_eta(g, RationalAngle(1, 2))
        assert h[0, 1] == pytest.approx(1j)
        assert h[1, 0] == pytest.approx(-1j)

    def test_cycle_type_two_structure(self):
        h = h_eta(build_cycle(4, 2), RationalAngle(1, 3))
        w = np.exp(1j * math.pi / 3)
        assert h[0, 1] == pytest.approx(w)
        assert h[1, 2] == pytest.approx(w)
        assert h[2, 3] == pytest.approx(1.0)
        assert h[3, 0] == pytest.approx(1.0)
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_exactly_hermitian_by_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_mixed_tree(int(rng.integers(2, 10)), rng)
            h = h_eta(g, 1.0)
            assert np.max(np.abs(h - h.conj().T)) == 0.0


class TestNormalized:
    def test_regular_cycle_is_scaled(self):
        g = build_cycle(6, 3)
        eta = RationalAngle(1, 5)
        assert np.max(np.abs(normalized_h_eta(g, eta) - h_eta(g, eta) / 2)) < 1e-15

    def test_single_digon_unchanged(self):
        g = build_path(2, ["digon"])
        assert np.array_equal(
            normalized_h_eta(g, 0.3), np.array([[0, 1], [1, 0]], dtype=complex)
        )

    def test_path_three_scaling(self):
        # degrees (1, 2, 1) so off-diagonal entries scale by 1/sqrt(2)
        g = build_path(3, ["digon", "digon"])
        hn = normalized_h_eta(g, 0.0)
        assert hn[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert hn[1, 2] == pytest.approx(1 / math.sqrt(2))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(DomainError):
            normalized_h_eta(MixedGraph(1, ()), 0.0)


class TestPathDeterminant:
    @pytest.mark.parametrize("n,expected", [(2, -1.0), (3, 0.0), (4, 1.0), (1, 0.0), (6, -1.0), (8, 1.0)])
    def test_closed_values(self, n, expected):
        assert det_path_closed(n) == expected

    def test_matches_lu_determinant(self):
        for n in range(1, 13):
            g = all_digon_path(n)
            for eta in ETA_GRID:
                num = linalg.determinant(h_eta(g, eta))
                assert abs(num - det_path_closed(n)) < 1e-9


class TestCycleDeterminant:
    def test_quarter_turn_table(self):
        eta = RationalAngle(1, 2)
        table = [det_cycle_closed(4, j, eta) for j in range(5)]
        assert table == pytest.approx([0.0, 2.0, 4.0, 2.0, 0.0])

    def test_matches_lu_determinant(self):
        for n in range(3, 11):
            for j in range(n + 1):
                g = build_cycle(n, j)
                for eta in ETA_GRID:
                    num = linalg.determinant(h_eta(g, eta))
                    assert abs(num - det_cycle_closed(n, j, eta)) < 1e-9

    def test_even_in_type_and_periodic_in_angle(self):
        eta = 0.7
        for n in (4, 7):
            for j in range(n + 1):
                plus = det_cycle_closed(n, j, eta)
                # cos parity: the formula only sees cos(j*eta)
                lead = 2.0 if n % 2 else -2.0
                tail = plus - lead * math.cos(j * eta)
                minus = lead * math.cos(-j * eta) + tail
                assert plus == pytest.approx(minus)
        # shifting eta by 2*pi/j leaves cos(j*eta) alone
        assert det_cycle_closed(5, 4, 0.3) == pytest.approx(
            det_cycle_closed(5, 4, 0.3 + math.pi / 2)
        )


class TestCycleCharpoly:
    def test_undirected_square(self):
        # eigenvalues of the undirected 4-cycle are {2, 0, 0, -2}
        coeffs = cycle_charpoly_closed(4, 0, 1.0)
        assert np.max(np.abs(coeffs - np.array([0, 0, -4, 0, 1]))) < 1e-12

    def test_undirected_triangle(self):
        # eigenvalues of the undirected 3-cycle are {2, -1, -1}
        coeffs = cycle_charpoly_closed(3, 0, RationalAngle(1, 2))
        assert np.max(np.abs(coeffs - np.array([-2, -3, 0, 1]))) < 1e-12

    def test_fully_directed_five_cycle_constant_term(self):
        eta = RationalAngle(1, 5)
        coeffs = cycle_charpoly_closed(5, 5, eta)
        assert coeffs[0].real == pytest.approx(2.0)  # -2*cos(pi) with odd-n tail 0
        numeric = linalg.charpoly(h_eta(build_cycle(5, 5), eta))
        assert np.max(np.abs(coeffs - numeric)) < 1e-8

    def test_matches_trace_recurrence_everywhere(self):
        for n in range(3, 11):
            for j in range(n + 1):
                g = build_cycle(n, j)
                for eta in ETA_GRID:
                    closed = cycle_charpoly_closed(n, j, eta)
                    numeric = linalg.charpoly(h_eta(g, eta))
                    assert np.max(np.abs(closed - numeric)) < 1e-8

    def test_constant_term_consistent_with_determinant(self):
        for n in (3, 4, 7, 10):
            for j in (0, 1, n):
                for eta in ETA_GRID:
                    coeffs = cycle_charpoly_closed(n, j, eta)
                    det = det_cycle_closed(n, j, eta)
                    assert abs(coeffs[0] - (-1) ** n * det) < 1e-12

    def test_constant_term_is_the_signed_determinant_exactly(self):
        for n in range(3, 65):
            for j in range(n + 1):
                for eta in ETA_GRID:
                    assert cycle_charpoly_closed(n, j, eta)[0] == (-1) ** n * det_cycle_closed(n, j, eta)


class TestCoefficientAgreement:
    def test_mixed_trees_agree_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_mixed_tree(int(rng.integers(2, 10)), rng)
            for eta in (RationalAngle(1, 3), 1.0):
                assert coefficient_gaps_below_girth(g, (eta,))[0] <= spectra.COSPECTRAL_TOL

    def test_cycle_agrees_below_girth(self):
        assert coefficient_gaps_below_girth(build_cycle(6, 2), (RationalAngle(1, 3),))[0] <= spectra.COSPECTRAL_TOL

    def test_fully_directed_square_breaks_at_girth(self):
        # at eta = pi/5 the determinants differ, so the last coefficient must
        # differ while everything below the girth still agrees
        eta = RationalAngle(1, 5)
        g = build_cycle(4, 4)
        assert coefficient_gaps_below_girth(g, (eta,))[0] <= spectra.COSPECTRAL_TOL  # checks l <= 3 only
        a = linalg.charpoly(h_eta(g, eta))
        b = linalg.charpoly(h_eta(g.underlying(), eta))
        # a and b run low to high, so a[4 - l] is the coefficient of lambda^(4-l)
        for l in (1, 2, 3):
            assert abs(a[4 - l] - b[4 - l]) < 1e-8
        assert abs(a[0] - b[0]) > 1.0


def gap_by_coefficient(graph, eta):
    """Reference: one angle, one matrix at a time, one coefficient at a time."""
    s = graph.girth()
    limit = graph.n_vertices if math.isinf(s) else int(s) - 1
    und = graph.underlying()
    worst = 0.0
    for build in (h_eta, normalized_h_eta):
        a = linalg.charpoly(build(graph, eta))
        b = linalg.charpoly(build(und, eta))
        for l in range(1, min(limit, graph.n_vertices) + 1):
            n = graph.n_vertices  # coefficient of lambda^(n-l), low to high
            worst = max(worst, abs(complex(a[n - l]) - complex(b[n - l])))
    return worst


def h_by_edge(graph, eta):
    """Reference: the matrix of one angle, filled one edge at a time."""
    w = complex(np.exp(1j * angle_radians(eta)))
    h = np.zeros((graph.n_vertices, graph.n_vertices), dtype=complex)
    for (u, v), s in zip(graph.edges.tolist(), graph.signs.tolist()):
        h[u, v] = (1.0, w, w.conjugate())[s]
        h[v, u] = h[u, v].conjugate()
    return h


def gaps_by_angle_loop(graph, etas):
    """Reference: ``coefficient_gaps_below_girth`` with its charpoly input
    built one angle and one graph at a time."""
    n, s = graph.n_vertices, graph.girth()
    limit = n if math.isinf(s) else int(s) - 1
    stack = []
    for g in (graph, graph.underlying()):
        for eta in etas:
            h = h_by_edge(g, eta)
            stack += [h, normalized_h_eta(g, eta, h)]
    coeffs = linalg.charpoly(np.array(stack, dtype=complex).reshape(2, 2 * len(etas), n, n))
    diff = coeffs[0, :, n - limit : n] - coeffs[1, :, n - limit : n]
    return np.hypot(diff.real, diff.imag).reshape(len(etas), 2 * limit).max(axis=1)


class TestStackedBuild:
    def test_each_slice_is_the_matrix_of_its_angle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = random_unicyclic(int(rng.integers(3, 12)), rng)
            etas = ETA_GRID + tuple(rng.uniform(-7.0, 7.0, 3).tolist())
            stack = h_eta(g, etas)
            assert stack.shape == (len(etas), g.n_vertices, g.n_vertices)
            for eta, h in zip(etas, stack):
                assert h.tobytes() == h_by_edge(g, eta).tobytes() == h_eta(g, eta).tobytes()
            for eta, h in zip(etas, normalized_h_eta(g, etas)):
                assert h.tobytes() == normalized_h_eta(g, eta).tobytes()

    def test_one_angle_stays_two_dimensional(self):
        g = build_cycle(5, 2)
        assert h_eta(g, 0.4).shape == (5, 5)
        assert h_eta(g, (0.4,)).shape == (1, 5, 5)
        assert h_eta(g, ()).shape == (0, 5, 5)

    def test_gaps_equal_the_angle_loop_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for trial in range(100):
            n = int(rng.integers(3, 11))
            g = random_mixed_tree(n, rng) if trial % 2 else random_unicyclic(n, rng)
            assert coefficient_gaps_below_girth(g, ETA_GRID).tobytes() == gaps_by_angle_loop(g, ETA_GRID).tobytes()


class TestSignPhases:
    def test_the_pair_of_one_exponential_bit_for_bit(self):
        # the table h_eta scatters: 1, e^{i eta} and its conjugate, as an
        # edge-by-edge build forms them from one complex exponential
        rng = np.random.default_rng(23)
        etas = ETA_GRID + tuple(rng.uniform(-20.0, 20.0, 500).tolist())
        etas += tuple(RationalAngle(p, q) for q in range(1, 13) for p in range(2 * q))
        for eta, row in zip(etas, spectra.sign_phases(etas)):
            w = complex(np.exp(1j * angle_radians(eta)))
            assert row.tobytes() == np.array([1.0, w, w.conjugate()]).tobytes()
            assert row.tobytes() == spectra.sign_phases(eta).tobytes()
        assert spectra.sign_phases(()).shape == (0, 3)

    def test_digons_stay_one_at_a_nan_angle(self):
        table = spectra.sign_phases(math.nan)
        assert table[0] == 1.0 and np.isnan(table[1:]).all()


class TestCoefficientGaps:
    def graphs(self):
        rng = np.random.default_rng(5)
        out = [build_cycle(n, j) for n in (3, 4, 7) for j in (0, 1, n)]
        out += [random_mixed_tree(int(rng.integers(2, 12)), rng) for _ in range(8)]
        out += [random_unicyclic(int(rng.integers(3, 12)), rng) for _ in range(8)]
        out += [random_mixed_graph(int(rng.integers(4, 10)), rng) for _ in range(4)]
        return out

    def test_equal_to_the_per_angle_loop(self):
        for g in self.graphs():
            gaps = coefficient_gaps_below_girth(g, ETA_GRID)
            assert gaps.shape == (len(ETA_GRID),)
            assert gaps.tolist() == [gap_by_coefficient(g, eta) for eta in ETA_GRID]

    def test_one_plain_build_per_graph_and_angle(self, monkeypatch):
        built = []
        plain = spectra.h_eta
        monkeypatch.setattr(spectra, "h_eta", lambda g, eta: built.append(eta) or plain(g, eta))
        g = random_unicyclic(9, np.random.default_rng(3))
        gaps = coefficient_gaps_below_girth(g, ETA_GRID)
        # one stack over every angle for the graph, then one one-angle stack
        # for its underlying graph, whose matrices do not depend on the
        # angle; the normalized matrices reuse them
        assert built == [ETA_GRID, (0.0,)]
        monkeypatch.undo()
        assert gaps.tolist() == [gap_by_coefficient(g, eta) for eta in ETA_GRID]
        for eta in ETA_GRID:
            assert np.array_equal(normalized_h_eta(g, eta, h_eta(g, eta)), normalized_h_eta(g, eta))

    def test_agreement_flips_where_tol_crosses_the_gap(self, monkeypatch):
        # the tolerance is read at call time, so patching it moves the gate
        flipped = 0
        for g in self.graphs():
            for eta, gap in zip(ETA_GRID, coefficient_gaps_below_girth(g, ETA_GRID)):
                monkeypatch.setattr(spectra, "COSPECTRAL_TOL", float(gap))
                assert coefficient_gaps_below_girth(g, (eta,))[0] <= spectra.COSPECTRAL_TOL
                if gap > 0:
                    monkeypatch.setattr(spectra, "COSPECTRAL_TOL", float(np.nextafter(gap, 0.0)))
                    assert not (coefficient_gaps_below_girth(g, (eta,))[0] <= spectra.COSPECTRAL_TOL)
                    flipped += 1
        assert flipped > 0

    def test_nan_gap_is_disagreement(self):
        # a NaN angle puts NaN phases on the directed arcs only; the
        # underlying graph, all digons, stays finite
        g = build_cycle(5, 1)
        gaps = coefficient_gaps_below_girth(g, (RationalAngle(1, 3), math.nan))
        assert gaps[0] < 1e-12 and math.isnan(gaps[1])
        assert not (coefficient_gaps_below_girth(g, (math.nan,))[0] <= spectra.COSPECTRAL_TOL)


class TestCospectral:
    def test_mixed_path_vs_underlying(self):
        g = build_path(5, ["forward", "digon", "backward", "forward"])
        for eta in ETA_GRID:
            assert cospectral(g, g.underlying(), eta)

    def test_types_one_and_three_match_at_quarter_turn(self):
        eta = RationalAngle(1, 2)
        assert cospectral(build_cycle(4, 1), build_cycle(4, 3), eta)

    def test_types_one_and_two_differ_at_quarter_turn(self):
        eta = RationalAngle(1, 2)
        assert not cospectral(build_cycle(4, 1), build_cycle(4, 2), eta)

    def test_a_tuple_gives_the_answer_of_each_angle(self):
        rng = np.random.default_rng(29)
        pairs = [(build_cycle(4, 1), build_cycle(4, 3)), (build_cycle(4, 1), build_cycle(4, 2))]
        graphs = (random_mixed_tree(9, rng), random_unicyclic(8, rng), random_mixed_graph(9, rng))
        pairs += [(g, g.underlying()) for g in graphs + (random_mixed_graph(20, rng, 0.3),)]
        pairs += [(all_digon_path(7), all_digon_path(7)), (build_cycle(6, 2), build_cycle(5, 2))]
        etas = ETA_GRID + (RationalAngle(3, 4), 2.5)
        answers = set()
        for g1, g2 in pairs:
            got = cospectral(g1, g2, etas)
            assert got == [cospectral(g1, g2, eta) for eta in etas]
            assert all(type(x) is bool for x in got)
            assert cospectral(g1, g2, ()) == []
            answers.update(got)
        assert answers == {True, False}

    def test_different_sizes_are_never_cospectral(self):
        assert not cospectral(build_cycle(4, 0), build_cycle(5, 0), 0.0)

    @pytest.mark.parametrize("n", [25, 40])
    def test_large_mixed_tree_vs_underlying(self, n):
        # charpoly coefficients of these trees reach ~1e7, far beyond what an
        # absolute 1e-8 comparison can resolve; the eigenvalues agree to ~1e-15
        eta = RationalAngle(1, 3)
        for seed in range(10):
            g = random_mixed_tree(n, np.random.default_rng(seed))
            assert cospectral(g, g.underlying(), eta), f"seed {seed}"
