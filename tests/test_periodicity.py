import math
from dataclasses import astuple

import numpy as np
import pytest

from mixedwalk import linalg, periodicity
from mixedwalk.errors import ContractViolationError, DimensionError, DomainError
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
    certify_period,
    cycle_period,
    cycle_period_by_powering,
    detect_rational_angle,
    path_period,
    period_of,
)
from mixedwalk.spectra import ETA_GRID, RationalAngle, angle_radians
from mixedwalk.switching import classify_cycle
from mixedwalk.verify import PERIOD_ANGLE_PAIRS
from mixedwalk.walk import STRUCTURED_STEP_MIN_ARCS, time_evolution

# PERIOD_ANGLE_PAIRS and the angles with q <= 7 of the benchmark's closed-form periods
CERTIFY_ANGLES = sorted(set(PERIOD_ANGLE_PAIRS) | {
    (1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (1, 6), (5, 6), (1, 7), (3, 7),
})


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

    def test_rejects_a_non_square_isometry(self):
        # M M* = I holds, so only the shape gate can refuse it
        isometry = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
        with pytest.raises(DimensionError):
            brute_force_period(isometry, cap=5)
        with pytest.raises(DimensionError):
            certify_period(isometry, 2)

    def test_rejects_nan(self):
        # a NaN unitarity defect compares false against the tolerance either way
        with pytest.raises(ContractViolationError):
            brute_force_period(np.full((2, 2), np.nan), 100)

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

        # a step makes the scan take one power at a time, as the walk's own step does
        assert brute_force_period(ops.evolution, 30, step=step) == brute_force_period(
            ops.evolution, 30, step=ops.power_step
        )
        assert len(calls) == 15

    def test_no_projection_at_the_cap(self, monkeypatch):
        ops = time_evolution(build_cycle(4, 1), 1.0)  # irrational angle: never periodic
        project = linalg.project_to_unitary
        calls = []

        def counted(m):
            calls.append(1)
            return project(m)

        monkeypatch.setattr(linalg, "project_to_unitary", counted)
        for step in (ops.power_step, None):  # one power at a time, and in blocks
            for cap, projections in ((64, 0), (65, 1), (128, 1)):
                calls.clear()
                assert not brute_force_period(ops.evolution, cap, step=step).periodic
                assert len(calls) == projections, (cap, step)


class TestBlockedScan:
    """Below ``STRUCTURED_STEP_MIN_ARCS`` arcs the scan forms its powers in
    blocks; it must answer as the per-step scan does."""

    def assert_matches_the_per_step_scan(self, u, cap):
        blocked = brute_force_period(u, cap)
        per_step = brute_force_period(u, cap, step=lambda acc: acc @ u)
        assert (blocked.periodic, blocked.period, blocked.cap_used) == (per_step.periodic, per_step.period, cap)
        assert (blocked.method, blocked.cross_check) == (METHOD_BRUTE, NOT_RUN)
        assert abs(blocked.residual - per_step.residual) < 1e-12, (blocked, per_step)
        return blocked

    def test_every_cycle_type_at_the_verify_angles(self):
        for n in range(3, 17):
            for j in range(n + 1):
                for p, q in PERIOD_ANGLE_PAIRS:
                    eta = RationalAngle(p, q)
                    rep = self.assert_matches_the_per_step_scan(
                        time_evolution(build_cycle(n, j), eta).evolution, 2 * q * n
                    )
                    assert rep.period == cycle_period(n, j, eta)

    def test_random_graphs_at_decimal_angles(self):
        rng = np.random.default_rng(41)
        arcs = []
        while len(arcs) < 20:
            g = random_mixed_graph(int(rng.integers(4, 16)), rng, 0.3)
            ops = time_evolution(g, float(rng.uniform(0.2, 3.0)))
            if 8 <= len(ops.arc_index) <= 70:
                arcs.append(len(ops.arc_index))
                self.assert_matches_the_per_step_scan(ops.evolution, 200)
        assert min(arcs) < 20 and max(arcs) > 50, arcs

    def test_identity_empty_matrix_and_permutations(self):
        assert astuple(self.assert_matches_the_per_step_scan(np.eye(3, dtype=complex), 10))[:2] == (True, 1)
        empty = brute_force_period(np.zeros((0, 0), dtype=complex), 5)
        assert (empty.periodic, empty.period, empty.residual) == (True, 1, 0.0)
        cycle = np.eye(5, dtype=complex)[[1, 2, 3, 4, 0]]
        assert self.assert_matches_the_per_step_scan(cycle, 20).period == 5
        c, s = math.cos(0.01), math.sin(0.01)
        rotation = np.eye(4, dtype=complex)
        rotation[:2, :2] = [[c, -s], [s, c]]
        rotation[2:, 2:] = [[0, 1], [1, 0]]
        assert not self.assert_matches_the_per_step_scan(rotation, 300).periodic

    def test_periods_on_block_edges(self):
        # the type-1 square has period 8q at pi/q: 64, 72 and 136
        for q in (8, 9, 17):
            u = time_evolution(build_cycle(4, 1), RationalAngle(1, q)).evolution
            for cap in (8 * q, 16 * q):
                assert self.assert_matches_the_per_step_scan(u, cap).period == 8 * q

    def test_caps_around_block_edges(self):
        u = time_evolution(build_cycle(4, 1), 1.0).evolution
        for cap in (1, 63, 64, 65, 129):
            assert not self.assert_matches_the_per_step_scan(u, cap).periodic
        # period 136 lies past every one of these caps
        u = time_evolution(build_cycle(4, 1), RationalAngle(1, 17)).evolution
        for cap in (1, 63, 64, 65, 129):
            assert not self.assert_matches_the_per_step_scan(u, cap).periodic

    def test_one_screen_per_block(self, monkeypatch):
        screen = linalg.distance_to_identity
        blocks = []

        def counted(m, floor=math.inf):
            blocks.append(len(m))  # every block, one power or many, is screened as a stack
            return screen(m, floor)

        monkeypatch.setattr(linalg, "distance_to_identity", counted)
        rng = np.random.default_rng(42)
        # B is the largest power of two at most 64, the cap and BLOCK_BYTES / 16m^2
        for m, cap, sizes in (
            (8, 10_000, [64] * 156 + [16]),
            (8, 65, [64, 1]),
            (8, 30, [16, 14]),
            (16, 200, [64, 64, 64, 8]),
            (60, 64, [4] * 16),
            (71, 64, [2] * 32),
            (200, 3, [1] * 3),
        ):
            u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            blocks.clear()
            assert not brute_force_period(u, cap).periodic
            assert blocks == sizes, (m, cap)
            assert all(size * 16 * m * m <= periodicity.BLOCK_BYTES for size in sizes if size > 1)

    def test_a_block_of_one_is_the_per_step_scan_bit_for_bit(self):
        rng = np.random.default_rng(43)
        # at 200 x 200 one power holds more than half of BLOCK_BYTES
        u, _ = np.linalg.qr(rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)))
        assert_same_report(brute_force_period(u, 70), brute_force_period(u, 70, step=lambda acc: acc @ u))

    def test_scans_from_the_crossover_on_are_unchanged(self):
        # literals recorded while every power was taken one step at a time
        g = random_mixed_graph(20, np.random.default_rng(5), 0.3)  # 128 arcs
        assert period_of(g, 0.9, 130).residual == 0.3543380460514647
        assert period_of(build_cycle(40, 3), 0.9, 200).residual == 0.8547597604676597
        ops = time_evolution(build_cycle(45, 1), RationalAngle(1, 2))
        rep = brute_force_period(ops.evolution, 180, step=ops.power_step)
        assert (rep.period, rep.residual) == (180, 2.4492935982947064e-16)


def block_size(u, cap):
    """The scan's block size: the largest power of two at most 64, the cap
    and ``BLOCK_BYTES`` over the bytes of one power."""
    fit = min(64, cap, periodicity.BLOCK_BYTES // max(16 * u.size, 1))
    return 1 << (max(fit, 1).bit_length() - 1)


def unscreened_powers(u, cap, step=None):
    """Every power the scan forms, in its order: one step at a time with a
    ``step`` or at block size 1, otherwise as acc @ u^1 .. u^B from the
    doubled stack, projecting every ``RENORMALIZE_EVERY`` steps but not at
    the cap."""
    size = 1 if step else block_size(u, cap)
    step = step or (lambda acc: acc @ u)
    powers = linalg.power_stack(u, size)
    acc = np.eye(u.shape[0], dtype=complex)
    for done in range(0, cap, size):
        count = min(size, cap - done)
        block = [step(acc)] if size == 1 else list(acc @ powers[:count] if done else powers[:count])
        if (done + count) % linalg.RENORMALIZE_EVERY == 0 and done + count < cap:
            block[-1] = linalg.project_to_unitary(block[-1])
        acc = block[-1]
        yield from block


def unscreened_period(u, cap, step=None):
    """The powering search with the full identity distance at every power."""
    best = math.inf
    for tau, power in enumerate(unscreened_powers(u, cap, step), 1):
        dist = linalg.distance_to_identity(power)
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
            for step in (ops.structured_step, ops.power_step):  # as period_of scans, and per step
                got = brute_force_period(ops.evolution, 64, step=step)
                assert_same_report(got, unscreened_period(ops.evolution, 64, step=step))
        assert min(sizes.values()) >= 2, sizes

    def test_cycles_at_rational_angles(self):
        rng = np.random.default_rng(32)
        for n, p, q in ((5, 1, 3), (6, 2, 5), (12, 1, 4), (40, 3, 4), (45, 1, 2)):
            ops = time_evolution(random_mixed_cycle(n, rng), RationalAngle(p, q))
            cap = 2 * q * n
            got = brute_force_period(ops.evolution, cap, step=ops.structured_step)
            assert got.periodic
            assert_same_report(got, unscreened_period(ops.evolution, cap, step=ops.structured_step))

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


def prime_divisors(t):
    return [r for r in range(2, t + 1) if t % r == 0 and all(r % s for s in range(2, r))]


class TestCertifyPeriod:
    def assert_matches_the_scan(self, u, tau, scan):
        agrees, residual = certify_period(u, tau)
        assert agrees == (scan.periodic and scan.period == tau)
        assert agrees, tau
        assert abs(residual - scan.residual) < 1e-12
        # wrong candidates: a proper divisor, a multiple, a neighbour
        for wrong in [tau // r for r in prime_divisors(tau)] + [2 * tau, tau + 1]:
            assert not certify_period(u, wrong)[0], (tau, wrong)

    def test_agrees_with_the_scan_on_every_path(self):
        rng = np.random.default_rng(13)
        for n in range(2, 17):
            g = random_mixed_path(n, rng)
            for p, q in CERTIFY_ANGLES:
                ops = time_evolution(g, RationalAngle(p, q))
                tau = path_period(n)
                self.assert_matches_the_scan(ops.evolution, tau, brute_force_period(ops.evolution, tau))

    def test_agrees_with_the_scan_on_every_cycle_type(self):
        for n in range(3, 17):
            for j in range(n + 1):
                for p, q in CERTIFY_ANGLES:
                    eta = RationalAngle(p, q)
                    tau, scan = cycle_period_by_powering(n, j, eta)
                    self.assert_matches_the_scan(time_evolution(build_cycle(n, j), eta).evolution, tau, scan)

    def test_period_one_and_the_identity(self):
        assert certify_period(np.eye(3, dtype=complex), 1) == (True, 0.0)
        assert not certify_period(np.eye(3, dtype=complex), 2)[0]
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        assert certify_period(swap, 2)[0] and not certify_period(swap, 1)[0]

    def test_rejects_non_unitary_and_bad_tau(self):
        with pytest.raises(ContractViolationError):
            certify_period(np.array([[1, 1], [0, 1]], dtype=complex), 2)
        with pytest.raises(ContractViolationError):
            certify_period(np.full((2, 2), np.nan), 4)
        with pytest.raises(DomainError):
            certify_period(np.eye(2, dtype=complex), 0)

    def test_closed_forms_are_certified_and_the_scan_stays_for_discovery(self, monkeypatch):
        scan = periodicity.brute_force_period
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(periodicity, "brute_force_period", counted)
        assert period_of(build_cycle(5, 2), RationalAngle(1, 3)).cross_check == AGREE
        assert period_of(build_path(6, ["forward"] * 5), 0.4).cross_check == AGREE
        assert calls == []
        tau, rep = cycle_period_by_powering(5, 2, RationalAngle(1, 3))
        assert (tau, rep.period, len(calls)) == (15, 15, 1)
        assert not period_of(build_cycle(4, 1), 1.0).periodic  # no closed form at a decimal angle
        assert len(calls) == 2


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

    def test_closed_forms_past_the_cross_check_build_no_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built the walk for a closed form that powering does not check")

        monkeypatch.setattr(periodicity, "time_evolution", refuse)
        eta = RationalAngle(1, 5)
        rep = period_of(build_cycle(300, 7), eta)
        assert (rep.period, rep.cross_check) == (cycle_period(300, 7, eta), NOT_RUN)
        rep = period_of(build_path(300, ["forward"] * 299), 0.4)
        assert (rep.period, rep.cross_check) == (598, NOT_RUN)
        # 16 arcs: the closed form is cross-checked, so the walk is built
        with pytest.raises(AssertionError, match="built the walk"):
            period_of(build_cycle(8, 3), eta)

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
