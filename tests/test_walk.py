import json
import math

import numpy as np
import pytest

from mixedwalk import linalg, walk
from mixedwalk.cli import main
from mixedwalk.errors import DomainError, InternalConsistencyError
from mixedwalk.graphs import (
    ArcIndex,
    MixedGraph,
    build_cycle,
    build_path,
    random_mixed_graph,
    random_mixed_path,
    random_mixed_tree,
)
from mixedwalk.periodicity import period_of
from mixedwalk.spectra import ETA_GRID, RationalAngle, angle_radians
from mixedwalk.walk import (
    STRUCTURED_STEP_MIN_ARCS,
    evolution_entrywise,
    spectral_map_check,
    time_evolution,
)


def graphs_around_the_crossover():
    """Paths, cycles (one all-digon), trees, the single edge and random
    graphs of maximum degree >= 3, with arc spaces on both sides of
    ``STRUCTURED_STEP_MIN_ARCS``."""
    rng = np.random.default_rng(12)
    graphs = [MixedGraph(2, ((0, 1),))]
    for n in (6, 60):
        graphs += [
            random_mixed_path(n, rng),
            build_cycle(n, n // 3),
            build_cycle(n, 0),
            random_mixed_tree(n, rng),
        ]
    for n, chords in ((9, 0.3), (9, 0.3), (45, 0.03), (45, 0.03)):
        g = random_mixed_graph(n, rng, chords)
        while max(g.degrees) < 3:
            g = random_mixed_graph(n, rng, chords)
        graphs.append(g)
    return graphs


def four_vertex_example():
    """Digon 0-1 plus the directed triangle 1>3>2>1."""
    return MixedGraph(4, ((0, 1), (1, 0), (1, 3), (3, 2), (2, 1)))


class TestEtaFunction:
    def test_antisymmetric_and_zero_on_digons(self):
        ops = time_evolution(four_vertex_example(), RationalAngle(1, 3))
        index = ops.arc_index
        theta = np.angle(ops.phases)
        for i in range(len(index)):
            assert theta[i] == pytest.approx(-theta[index.inverse[i]])
        assert theta[index.index((0, 1))] == 0.0
        assert theta[index.index((1, 3))] == pytest.approx(math.pi / 3)
        assert theta[index.index((3, 1))] == pytest.approx(-math.pi / 3)


class TestBoundary:
    def test_single_digon(self):
        g = build_path(2, ["digon"])
        k = time_evolution(g, 1.0).boundary
        assert np.array_equal(k, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_cycle_rows_have_two_entries(self):
        g = build_cycle(5, 2)
        k = time_evolution(g, 1.0).boundary
        for row in np.asarray(k):
            vals = sorted(abs(z) for z in row if abs(z) > 0)
            assert vals == pytest.approx([1 / math.sqrt(2)] * 2)

    def test_rows_are_orthonormal(self):
        g = build_cycle(5, 2)
        k = time_evolution(g, 1.0).boundary
        assert np.max(np.abs(k @ k.conj().T - np.eye(5))) < 1e-12


class TestCoin:
    def test_degree_one_block_is_scalar_one(self):
        g = build_path(2, ["digon"])
        assert np.max(np.abs(time_evolution(g, 1.0).coin - np.eye(2))) < 1e-15

    def test_degree_two_block_swaps(self):
        g = build_cycle(3, 0)
        c = time_evolution(g, 1.0).coin
        index = ArcIndex(g)
        # arcs into vertex 0 are (1,0) and (2,0); that block is the swap
        a, b = index.index((1, 0)), index.index((2, 0))
        assert c[a, a] == pytest.approx(0.0)
        assert c[a, b] == pytest.approx(1.0)

    def test_is_involution(self):
        c = time_evolution(build_cycle(6, 3), 1.0).coin
        assert np.max(np.abs(c @ c - np.eye(c.shape[0]))) < 1e-10
        assert np.max(np.abs(c - c.conj().T)) < 1e-12


class TestShift:
    def test_all_digon_graph_is_plain_reversal(self):
        g = build_cycle(4, 0)
        s = time_evolution(g, 1.0).shift
        index = ArcIndex(g)
        for b in range(len(index)):
            assert s[index.inverse[b], b] == pytest.approx(1.0)

    def test_one_directional_phases(self):
        g = MixedGraph(2, ((0, 1),))
        eta = RationalAngle(1, 3)
        s = time_evolution(g, eta).shift
        index = ArcIndex(g)
        w = np.exp(1j * math.pi / 3)
        assert s[index.index((1, 0)), index.index((0, 1))] == pytest.approx(w)
        assert s[index.index((0, 1)), index.index((1, 0))] == pytest.approx(w.conjugate())

    def test_is_involution(self):
        s = time_evolution(build_cycle(4, 4), RationalAngle(1, 3)).shift
        assert np.max(np.abs(s @ s - np.eye(s.shape[0]))) < 1e-10


class TestTimeEvolution:
    def test_single_digon_evolution_is_shift(self):
        g = build_path(2, ["digon"])
        ops = time_evolution(g, RationalAngle(1, 2))
        assert np.array_equal(ops.evolution, ops.shift)
        assert linalg.distance_to_identity(ops.evolution @ ops.evolution) < 1e-14

    def test_four_vertex_amplitudes(self):
        eta = 0.9
        g = four_vertex_example()
        ops = time_evolution(g, eta)
        index = ops.arc_index
        e = np.zeros(len(index), dtype=complex)
        e[index.index((2, 1))] = 1.0
        out = ops.evolution @ e
        expected = {
            (1, 0): 2 / 3,
            (1, 2): -(1 / 3) * np.exp(1j * eta),
            (1, 3): (2 / 3) * np.exp(-1j * eta),
        }
        for arc, val in expected.items():
            assert out[index.index(arc)] == pytest.approx(val)
        for i in range(len(index)):
            if index.arcs[i] not in expected:
                assert abs(out[i]) < 1e-14

    def test_endpoint_bounce_phase(self):
        # walking into a degree-one vertex reflects with the arc's own phase
        g = build_path(3, ["forward", "digon"])
        eta = RationalAngle(1, 5)
        ops = time_evolution(g, eta)
        index = ops.arc_index
        e = np.zeros(len(index), dtype=complex)
        e[index.index((1, 0))] = 1.0
        out = ops.evolution @ e
        theta = -angle_radians(eta)  # (1,0) opposes the one-directional (0,1)
        expected = np.exp(1j * theta)
        assert out[index.index((0, 1))] == pytest.approx(expected)
        assert sum(abs(z) > 1e-14 for z in out) == 1

    def test_cycle_columns_are_single_arc(self):
        ops = time_evolution(build_cycle(6, 2), RationalAngle(1, 3))
        u = np.asarray(ops.evolution)
        for col in u.T:
            assert sum(abs(z) > 1e-12 for z in col) == 1

    def test_operator_identities_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            g = random_mixed_graph(int(rng.integers(2, 11)), rng)
            eta = ETA_GRID[int(rng.integers(0, len(ETA_GRID)))]
            ops = time_evolution(g, eta)
            m = len(ops.arc_index)
            assert np.max(np.abs(ops.boundary @ ops.boundary.conj().T - np.eye(g.n_vertices))) < 1e-12
            assert np.max(np.abs(ops.coin @ ops.coin - np.eye(m))) < 1e-10
            assert np.max(np.abs(ops.coin - ops.coin.conj().T)) < 1e-10
            assert np.max(np.abs(ops.shift @ ops.shift - np.eye(m))) < 1e-10
            assert linalg.unitary_defect(ops.shift) < 1e-10
            assert linalg.unitary_defect(ops.evolution) < 1e-10

    def test_coin_and_evolution_match_dense_products(self):
        # the build gathers rows; the dense products are the reference
        for g in graphs_around_the_crossover():
            ops = time_evolution(g, RationalAngle(2, 7))
            k = ops.boundary
            m = len(ops.arc_index)
            assert np.max(np.abs(ops.coin - (2.0 * (k.conj().T @ k) - np.eye(m)))) < 1e-12
            assert np.max(np.abs(ops.evolution - ops.shift @ ops.coin)) < 1e-12

    def test_product_matches_entrywise_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = random_mixed_graph(int(rng.integers(2, 11)), rng)
            eta = ETA_GRID[int(rng.integers(0, len(ETA_GRID)))]
            ops = time_evolution(g, eta)
            check = evolution_entrywise(g, ops.arc_index, ops.phases)
            assert np.max(np.abs(ops.evolution - check)) < 1e-12


class TestSpectralMap:
    def test_undirected_cycle_spectrum_is_circulant(self):
        # normalized eigenvalues of the all-digon cycle are cos(2 pi k / n)
        for n in (3, 5, 8):
            rep = spectral_map_check(build_cycle(n, 0), RationalAngle(1, 2))
            expected = sorted(math.cos(2 * math.pi * k / n) for k in range(n))
            predicted_phases = sorted(
                {round(v.real, 6) for v, _ in rep.predicted.pairs}
            )
            mapped = sorted({round(math.cos(math.atan2(v.imag, v.real)), 6)
                             for v, _ in rep.predicted.pairs})
            assert set(mapped) == {round(x, 6) for x in expected}
            assert max(rep.trace_moment_residuals) < 1e-7
            assert predicted_phases[0] >= -1.0 - 1e-9

    def test_single_digon_predicts_shift_spectrum(self):
        rep = spectral_map_check(build_path(2, ["digon"]), RationalAngle(1, 3))
        assert rep.m_plus_1 == 0 and rep.m_minus_1 == 0
        values = sorted(v.real for v, _ in rep.predicted.pairs)
        assert values == pytest.approx([-1.0, 1.0])

    def test_total_multiplicity_fills_arc_space(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_mixed_path(int(rng.integers(2, 9)), rng)
            rep = spectral_map_check(g, 1.0)
            assert rep.predicted.total == len(ArcIndex(g))

    def test_residuals_small_on_cycles_and_paths(self):
        for n in range(3, 9):
            for j in (0, 1, n // 2, n):
                for eta in ETA_GRID:
                    rep = spectral_map_check(build_cycle(n, j), eta)
                    assert max(rep.trace_moment_residuals) < 1e-7


class TestPowerStep:
    def test_arc_array_step_matches_dense_product(self, monkeypatch):
        # every graph, down to the single edge, takes the arc-array step
        monkeypatch.setattr(walk, "STRUCTURED_STEP_MIN_ARCS", 0)
        rng = np.random.default_rng(13)
        for g in graphs_around_the_crossover():
            ops = time_evolution(g, 0.7)
            m = len(ops.arc_index)
            x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            assert np.max(np.abs(ops.power_step(x) - ops.evolution @ x)) < 1e-12

    def test_next_power_on_both_sides_of_the_crossover(self):
        sizes = []
        for g in graphs_around_the_crossover():
            ops = time_evolution(g, RationalAngle(1, 5))
            acc = np.linalg.matrix_power(ops.evolution, 3)
            assert np.max(np.abs(ops.power_step(acc) - ops.evolution @ acc)) < 1e-12
            sizes.append(len(ops.arc_index))
        assert min(sizes) == 2
        assert max(sizes) >= STRUCTURED_STEP_MIN_ARCS > min(sizes)


def corrupt_one_phase(monkeypatch):
    """Feed the entrywise route a phase turned by 0.1 rad on one arc."""
    entrywise = walk.evolution_entrywise

    def corrupted(graph, index, phases):
        phases = phases.copy()
        phases[int(np.flatnonzero(phases != 1.0)[0])] *= np.exp(0.1j)
        return entrywise(graph, index, phases)

    monkeypatch.setattr(walk, "evolution_entrywise", corrupted)


class TestDenseOnRead:
    def test_closed_form_period_never_builds_u(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the evolution matrix was built")

        monkeypatch.setattr(walk, "evolution_entrywise", refuse)
        assert period_of(build_cycle(2048, 7), RationalAngle(1, 5)).period == 20480
        # at desk scale the closed form is cross-checked, and that reads U
        with pytest.raises(AssertionError):
            period_of(build_cycle(6, 1), RationalAngle(1, 5))

    def test_wrong_phase_fails_the_gate_when_u_is_read(self, monkeypatch):
        corrupt_one_phase(monkeypatch)
        ops = time_evolution(four_vertex_example(), 0.9)
        with pytest.raises(InternalConsistencyError):
            ops.evolution

    def test_wrong_phase_fails_the_first_structured_step(self, monkeypatch):
        corrupt_one_phase(monkeypatch)
        ops = time_evolution(build_cycle(40, 3), 0.9)
        assert len(ops.arc_index) >= STRUCTURED_STEP_MIN_ARCS
        with pytest.raises(InternalConsistencyError):
            ops.power_step(np.eye(len(ops.arc_index), dtype=complex))

    def test_size_guard_refuses_every_dense_operator(self, monkeypatch, capsys):
        monkeypatch.setattr(walk, "MAX_DENSE_ARCS", 16)
        ops = time_evolution(build_cycle(9, 2), 0.5)  # 18 arcs
        for name in ("boundary", "coin", "shift", "evolution"):
            with pytest.raises(DomainError):
                getattr(ops, name)
        with pytest.raises(DomainError):
            evolution_entrywise(ops.graph, ops.arc_index, ops.phases)
        with pytest.raises(DomainError):
            spectral_map_check(ops.graph, 0.5)
        assert time_evolution(build_cycle(8, 2), 0.5).evolution.shape == (16, 16)
        for argv in (
            ["walk", "--graph", "cycle:n=9,j=2", "--eta", "0.5", "--operators", "K"],
            ["period", "--graph", "cycle:n=9,j=2", "--eta", "0.5"],
            ["sweep", "--n-min", "9", "--n-max", "9", "--angles", "1/2"],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "16 arcs" in captured.err
        # closed-form periods never read U, so the guard does not bound them
        assert main(["period", "--graph", "cycle:n=20,j=3", "--eta", "pi*1/5"]) == 0
        assert json.loads(capsys.readouterr().out)["period"] == 200
