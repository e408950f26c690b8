import math
from dataclasses import astuple

import numpy as np
import pytest

from mixedwalk import linalg
from mixedwalk.errors import ContractViolationError, DomainError
from mixedwalk.graphs import (
    build_cycle,
    build_path,
    random_mixed_cycle,
    random_mixed_graph,
    random_mixed_path,
)
from mixedwalk.periodicity import (
    AGREE,
    DEFAULT_CAP,
    METHOD_BRUTE,
    NOT_RUN,
    PeriodReport,
    brute_force_period,
    cycle_period,
    detect_rational_angle,
    path_period,
    period_of,
)
from mixedwalk.spectra import ETA_GRID, RationalAngle, angle_radians
from mixedwalk.switching import classify_cycle
from mixedwalk.walk import STRUCTURED_STEP_MIN_ARCS, time_evolution


class TestBruteForce:
    def test_identity_has_period_one(self):
        rep = brute_force_period(np.eye(3, dtype=complex), cap=10)
        assert rep.periodic and rep.period == 1

    def test_digon_shift_has_period_two(self):
        ops = time_evolution(build_path(2, ["digon"]), RationalAngle(1, 3))
        rep = brute_force_period(ops.evolution, cap=10)
        assert rep.periodic and rep.period == 2

    def test_type_one_square_at_quarter_turn(self):
        ops = time_evolution(build_cycle(4, 1), RationalAngle(1, 2))
        rep = brute_force_period(ops.evolution, cap=32)
        assert rep.period == 16  # 2*2*4/gcd(1, 4)
        assert rep.residual < 1e-8

    def test_reported_period_is_minimal(self):
        eta = RationalAngle(1, 3)
        ops = time_evolution(build_cycle(5, 2), eta)
        rep = brute_force_period(ops.evolution, cap=2 * 3 * 5)
        acc = np.eye(ops.evolution.shape[0], dtype=complex)
        for t in range(1, rep.period):
            acc = acc @ ops.evolution
            assert linalg.distance_to_identity(acc) >= linalg.IDENTITY_TOL

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractViolationError):
            brute_force_period(np.array([[1, 1], [0, 1]], dtype=complex), cap=5)

    def test_rejects_bad_cap(self):
        with pytest.raises(DomainError):
            brute_force_period(np.eye(2, dtype=complex), cap=0)


class TestStructuredPowering:
    def test_step_keeps_the_period_above_the_crossover(self):
        rng = np.random.default_rng(21)
        walks = []
        while len(walks) < 12:  # decimal angles, as in brute-force queries
            g = random_mixed_graph(int(rng.integers(45, 60)), rng, 0.02)
            walks.append((g, float(rng.uniform(0.2, 3.0)), 64))
        cycles = ((48, 1, 2), (50, 1, 3), (53, 2, 3), (56, 1, 4), (60, 1, 1), (64, 0, 1), (49, 3, 4), (51, 1, 5))
        for n, p, q in cycles:  # rational angles, searched up to the guaranteed return 2qn
            walks.append((random_mixed_cycle(n, rng), RationalAngle(p, q), 2 * q * n))
        periodic = 0
        for g, eta, cap in walks:
            ops = time_evolution(g, eta)
            assert len(ops.arc_index) >= STRUCTURED_STEP_MIN_ARCS
            dense = brute_force_period(ops.evolution, cap)
            fast = brute_force_period(ops.evolution, cap, step=ops.power_step)
            assert (fast.periodic, fast.period, fast.cap_used) == (dense.periodic, dense.period, dense.cap_used)
            assert fast.residual == pytest.approx(dense.residual, rel=1e-10, abs=1e-10)
            periodic += fast.periodic
        assert periodic == 8

    def test_step_is_taken_once_per_power(self):
        ops = time_evolution(build_cycle(5, 2), RationalAngle(1, 3))
        calls = []

        def step(acc):
            calls.append(1)
            return acc @ ops.evolution

        assert brute_force_period(ops.evolution, 30, step=step) == brute_force_period(ops.evolution, 30)
        assert len(calls) == 15


def unscreened_period(u, cap, step=None):
    """The powering search with the full identity distance at every power."""
    step = step or (lambda acc: acc @ u)
    acc = np.eye(u.shape[0], dtype=complex)
    best = math.inf
    for tau in range(1, cap + 1):
        acc = step(acc)
        if tau % linalg.RENORMALIZE_EVERY == 0:
            acc = linalg.project_to_unitary(acc)
        dist = linalg.distance_to_identity(acc)
        best = min(best, dist)
        if dist < linalg.IDENTITY_TOL:
            return PeriodReport(True, tau, METHOD_BRUTE, cap, NOT_RUN, dist)
    return PeriodReport(False, None, METHOD_BRUTE, cap, NOT_RUN, float(best))


def assert_same_report(got, want):
    # repr tells apart floats that == does not (0.0 and -0.0) and spells out every bit
    assert [repr(v) for v in astuple(got)] == [repr(v) for v in astuple(want)]


class TestScreenedIdentityDistance:
    def test_irrational_square(self):
        ops = time_evolution(build_cycle(4, 1), 1.0)
        got = brute_force_period(ops.evolution, 10_000)
        assert not got.periodic
        assert_same_report(got, unscreened_period(ops.evolution, 10_000))

    def test_random_chorded_graphs_on_both_sides_of_the_crossover(self):
        rng = np.random.default_rng(31)
        sizes = {"below": 0, "above": 0}
        for n in (8, 10, 14, 16, 20, 30, 36, 40):
            g = random_mixed_graph(n, rng, 0.15)
            ops = time_evolution(g, float(rng.uniform(0.2, 3.0)))
            side = "above" if len(ops.arc_index) >= STRUCTURED_STEP_MIN_ARCS else "below"
            sizes[side] += 1
            got = brute_force_period(ops.evolution, 64, step=ops.power_step)
            assert_same_report(got, unscreened_period(ops.evolution, 64, step=ops.power_step))
        assert min(sizes.values()) >= 2, sizes

    def test_cycles_at_rational_angles(self):
        rng = np.random.default_rng(32)
        for n, p, q in ((5, 1, 3), (6, 2, 5), (12, 1, 4), (40, 3, 4), (45, 1, 2)):
            ops = time_evolution(random_mixed_cycle(n, rng), RationalAngle(p, q))
            cap = 2 * q * n
            got = brute_force_period(ops.evolution, cap, step=ops.power_step)
            assert got.periodic
            assert_same_report(got, unscreened_period(ops.evolution, cap, step=ops.power_step))

    def test_permutations_and_a_small_rotation(self):
        cycle = np.eye(5, dtype=complex)[[1, 2, 3, 4, 0]]
        # a small rotation: its diagonal stays near 1, the distance is off it
        c, s = math.cos(0.01), math.sin(0.01)
        rotation = np.eye(4, dtype=complex)
        rotation[:2, :2] = [[c, -s], [s, c]]
        rotation[2:, 2:] = [[0, 1], [1, 0]]
        for u, cap in ((cycle, 20), (rotation, 300)):
            assert_same_report(brute_force_period(u, cap), unscreened_period(u, cap))
        assert brute_force_period(cycle, 20).period == 5

    def test_empty_matrix(self):
        u = np.zeros((0, 0), dtype=complex)
        got = brute_force_period(u, 5)
        assert (got.periodic, got.period, got.residual) == (True, 1, 0.0)
        assert_same_report(got, unscreened_period(u, 5))


class TestClosedForms:
    @pytest.mark.parametrize("n,expected", [(2, 2), (5, 8), (9, 16)])
    def test_path_period_values(self, n, expected):
        assert path_period(n) == expected

    def test_cycle_period_values(self):
        assert cycle_period(4, 1, RationalAngle(1, 2)) == 16
        assert cycle_period(4, 0, RationalAngle(1, 2)) == 4  # gcd(0, m) = m
        assert cycle_period(3, 3, RationalAngle(2, 3)) == 3
        assert cycle_period(5, 2, RationalAngle(1, 3)) == 15

    def test_cycle_period_rejects_float_angle(self):
        with pytest.raises(DomainError):
            cycle_period(4, 1, 0.5)

    def test_path_period_rejects_small_n(self):
        with pytest.raises(DomainError):
            path_period(1)


class TestPeriodicityCriterion:
    def test_float_detection_is_heuristic_only(self):
        hit = detect_rational_angle(math.pi / 2)
        assert hit == RationalAngle(1, 2)
        assert detect_rational_angle(1.0) is None
        # detection close to but not at a rational multiple stays None
        assert detect_rational_angle(math.pi / 2 + 1e-9) is None


class TestPeriodOf:
    def test_mixed_path_any_angle(self):
        rng = np.random.default_rng(0)
        g = random_mixed_path(6, rng)
        rep = period_of(g, 1.0)
        assert rep.periodic and rep.period == 10
        assert rep.method == "closed_form_path"
        assert rep.cross_check == AGREE

    def test_cycle_closed_form_with_cross_check(self):
        rep = period_of(build_cycle(5, 2), RationalAngle(1, 3))
        assert rep.period == 15
        assert rep.method == "closed_form_cycle"
        assert rep.cross_check == AGREE

    def test_irrational_cycle_is_not_periodic(self):
        rep = period_of(build_cycle(4, 1), 1.0)
        assert not rep.periodic
        assert rep.period is None
        assert rep.cap_used == DEFAULT_CAP
        assert rep.method == "brute_force"

    def test_all_digon_cycle_ignores_the_angle(self):
        # the evolution of an all-digon cycle never sees the angle, so even a
        # float angle yields period n through powering
        rep = period_of(build_cycle(5, 0), 1.0)
        assert rep.periodic and rep.period == 5

    def test_periods_match_formula_on_grid(self):
        for n in range(3, 7):
            for j in range(n + 1):
                for p, q in ((0, 1), (1, 2), (2, 3)):
                    eta = RationalAngle(p, q)
                    rep = period_of(build_cycle(n, j), eta)
                    assert rep.period == cycle_period(n, j, eta)
                    assert rep.cross_check == AGREE

    def test_period_invariant_under_switching(self):
        rng = np.random.default_rng(1)
        eta = RationalAngle(1, 3)
        for _ in range(10):
            g = random_mixed_cycle(int(rng.integers(3, 9)), rng)
            canonical = build_cycle(g.n_vertices, classify_cycle(g))
            assert period_of(g, eta).period == period_of(canonical, eta).period


class TestReturnPhase:
    def test_cycle_returns_to_each_arc_with_type_phase(self):
        for n in (3, 5, 8):
            for j in (0, 1, n):
                for eta in ETA_GRID:
                    ops = time_evolution(build_cycle(n, j), eta)
                    u_n = np.linalg.matrix_power(ops.evolution, n)
                    rad = angle_radians(eta)
                    plus = np.exp(1j * j * rad)
                    for a in range(2 * n):
                        col = u_n[:, a].copy()
                        phase = col[a]
                        col[a] = 0.0
                        assert np.max(np.abs(col)) < 1e-9
                        assert min(abs(phase - plus), abs(phase - np.conj(plus))) < 1e-9
