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
    charpoly_tail_coefficient,
    coefficient_gaps_below_girth,
    coefficients_agree_up_to_girth,
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


class TestCoefficientAgreement:
    def test_mixed_trees_agree_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_mixed_tree(int(rng.integers(2, 10)), rng)
            for eta in (RationalAngle(1, 3), 1.0):
                assert coefficients_agree_up_to_girth(g, eta)

    def test_cycle_agrees_below_girth(self):
        assert coefficients_agree_up_to_girth(build_cycle(6, 2), RationalAngle(1, 3))

    def test_fully_directed_square_breaks_at_girth(self):
        # at eta = pi/5 the determinants differ, so the last coefficient must
        # differ while everything below the girth still agrees
        eta = RationalAngle(1, 5)
        g = build_cycle(4, 4)
        assert coefficients_agree_up_to_girth(g, eta)  # checks l <= 3 only
        a = linalg.charpoly(h_eta(g, eta))
        b = linalg.charpoly(h_eta(g.underlying(), eta))
        for l in (1, 2, 3):
            assert abs(charpoly_tail_coefficient(a, l) - charpoly_tail_coefficient(b, l)) < 1e-8
        assert abs(charpoly_tail_coefficient(a, 4) - charpoly_tail_coefficient(b, 4)) > 1.0


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
            worst = max(worst, abs(charpoly_tail_coefficient(a, l) - charpoly_tail_coefficient(b, l)))
    return worst


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

    def test_agreement_flips_where_tol_crosses_the_gap(self, monkeypatch):
        # the tolerance is read at call time, so patching it moves the gate
        flipped = 0
        for g in self.graphs():
            for eta, gap in zip(ETA_GRID, coefficient_gaps_below_girth(g, ETA_GRID)):
                monkeypatch.setattr(spectra, "COSPECTRAL_TOL", float(gap))
                assert coefficients_agree_up_to_girth(g, eta)
                if gap > 0:
                    monkeypatch.setattr(spectra, "COSPECTRAL_TOL", float(np.nextafter(gap, 0.0)))
                    assert not coefficients_agree_up_to_girth(g, eta)
                    flipped += 1
        assert flipped > 0

    def test_nan_gap_is_disagreement(self):
        # a NaN angle puts NaN phases on the directed arcs only; the
        # underlying graph, all digons, stays finite
        g = build_cycle(5, 1)
        gaps = coefficient_gaps_below_girth(g, (RationalAngle(1, 3), math.nan))
        assert gaps[0] < 1e-12 and math.isnan(gaps[1])
        assert not coefficients_agree_up_to_girth(g, math.nan)


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
