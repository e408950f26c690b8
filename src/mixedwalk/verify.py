"""End-to-end verification suite.

Each check pits an independent pair of routes against each other at a
pinned tolerance: closed forms against LAPACK determinants, trace recurrences
against each other across switching, operator products against entrywise
formulas, gcd period formulas against matrix powering.  The CLI ``verify``
subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg, periodicity, spectra, switching, walk
from .graphs import (
    MixedGraph,
    build_cycle,
    random_mixed_cycle,
    random_mixed_graph,
    random_mixed_path,
    random_mixed_tree,
    random_unicyclic,
)
from .spectra import ETA_GRID, RationalAngle

PERIOD_ANGLE_PAIRS = ((0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (3, 4))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _all_digon_path(n: int) -> MixedGraph:
    return MixedGraph(n, edges=[(i, i + 1) for i in range(n - 1)], signs=[0] * (n - 1))


def check_quarter_turn_determinant_table(seed: int = 0) -> tuple[bool, str]:
    """det of the 4-cycle at a quarter turn runs (0, 2, 4, 2, 0) over the types."""
    eta = RationalAngle(1, 2)
    expected = (0.0, 2.0, 4.0, 2.0, 0.0)
    worst = 0.0
    for j, want in enumerate(expected):
        got = linalg.determinant(spectra.h_eta(build_cycle(4, j), eta))
        worst = max(worst, abs(got - want))
    return worst < 1e-9, f"max |det - table| = {worst:.3e}"


def check_cycle_determinant_closed_form(seed: int = 0) -> tuple[bool, str]:
    """Closed-form cycle determinant vs LAPACK, n in 3..10, all types, all grid angles."""
    worst, cells = 0.0, 0
    for n in range(3, 11):
        for j in range(n + 1):
            for eta, h in zip(ETA_GRID, spectra.h_eta(build_cycle(n, j), ETA_GRID)):
                num = linalg.determinant(h)
                closed = spectra.det_cycle_closed(n, j, eta)
                worst = max(worst, abs(num - closed))
                cells += 1
    return worst < 1e-9, f"max error {worst:.3e} over {cells} cells"


def check_path_determinant_closed_form(seed: int = 0) -> tuple[bool, str]:
    """Closed-form path determinant vs LAPACK, n in 1..12, all grid angles."""
    worst = 0.0
    for n in range(1, 13):
        for h in spectra.h_eta(_all_digon_path(n), ETA_GRID):
            num = linalg.determinant(h)
            worst = max(worst, abs(num - spectra.det_path_closed(n)))
    return worst < 1e-9, f"max error {worst:.3e}"


def check_tree_underlying_cospectral(seed: int = 0) -> tuple[bool, str]:
    """200 random mixed trees: same characteristic polynomial as the underlying
    tree, plain and normalized, coefficientwise to 1e-8."""
    rng = np.random.default_rng(seed)
    gaps = []
    for trial in range(200):
        n = int(rng.integers(2, 11))
        g = random_mixed_path(n, rng) if trial % 2 == 0 else random_mixed_tree(n, rng)
        # a tree's girth is infinite, so every coefficient is compared
        gaps.append(spectra.coefficient_gaps_below_girth(g, ETA_GRID))
    gaps = np.array(gaps)
    # a NaN gap is a failure
    failures = int(np.count_nonzero(~(gaps <= spectra.COSPECTRAL_TOL)))
    return failures == 0, f"max coefficient gap {float(np.max(gaps)):.3e} over 200 trees"


def check_coefficients_agree_below_girth(seed: int = 0) -> tuple[bool, str]:
    """Coefficient agreement with the underlying graph below the girth, on
    every canonical cycle n <= 10 and 50 random unicyclic graphs."""
    rng = np.random.default_rng(seed)
    graphs_to_try = [build_cycle(n, j) for n in range(3, 11) for j in range(n + 1)]
    graphs_to_try += [random_unicyclic(int(rng.integers(3, 11)), rng) for _ in range(50)]
    gaps = np.array([spectra.coefficient_gaps_below_girth(g, ETA_GRID) for g in graphs_to_try])
    # a NaN gap is a failure
    failures = int(np.count_nonzero(~(gaps <= spectra.COSPECTRAL_TOL)))
    return failures == 0, (
        f"{failures} failures over {len(graphs_to_try)} graphs x {len(ETA_GRID)} angles, "
        f"max gap {float(np.max(gaps)):.3e}"
    )


def check_cycle_canonicalization(seed: int = 0) -> tuple[bool, str]:
    """100 random mixed cycles, each canonicalized once: at every grid angle
    the witness-conjugated, relabeled matrix equals the canonical matrix
    entrywise, and the cycle is cospectral with its canonical form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        g = random_mixed_cycle(n, rng)
        c = switching.canonicalize_cycle(g)
        canonical = build_cycle(n, c.type_j)
        old = np.argsort(c.relabeling)  # the old label of each new one
        conj = switching.apply_switching(g, ETA_GRID, c.witness)[:, old[:, None], old]
        worst = max(worst, float(np.max(np.abs(conj - spectra.h_eta(canonical, ETA_GRID)))))
        same = spectra.cospectral(g, canonical, ETA_GRID)
        if not all(same):
            return False, f"cospectrality failed for n={n}, eta={ETA_GRID[same.index(False)]}"
    return worst < 1e-10, f"max entrywise gap {worst:.3e} over 100 cycles"


def check_path_period(seed: int = 0) -> tuple[bool, str]:
    """Powering confirms the closed-form period 2(n-1) on mixed paths for
    every grid angle."""
    rng = np.random.default_rng(seed)
    for n in range(2, 9):
        candidates = [_all_digon_path(n)] + [random_mixed_path(n, rng) for _ in range(2)]
        for g in candidates:
            for eta in ETA_GRID:
                rep = periodicity.period_of(g, eta)
                if rep.cross_check != periodicity.AGREE:
                    return False, f"n={n}, eta={eta}: cross-check {rep.cross_check}"
    return True, "period 2(n-1) confirmed for n in 2..8 on the full grid"


def check_cycle_period_formula(seed: int = 0) -> tuple[bool, str]:
    """Powering matches the gcd period formula on every cycle cell."""
    cells = 0
    for n, j, (p, q), tau, rep in periodicity.cycle_period_cells(range(3, 9), PERIOD_ANGLE_PAIRS):
        if not (rep.periodic and rep.period == tau):
            return False, f"n={n}, j={j}, eta={RationalAngle(p, q)}: formula {tau}, powering {rep.period}"
        cells += 1
    return True, f"formula = powering on all {cells} cells"


def check_irrational_angle_non_periodic(seed: int = 0) -> tuple[bool, str]:
    """The type-1 4-cycle at 1.0 rad never returns to the identity within 10^4 steps."""
    rep = periodicity.period_of(build_cycle(4, 1), 1.0)
    return (not rep.periodic), f"closest approach to identity {rep.residual:.3e}"


def check_spectral_map_trace_moments(seed: int = 0) -> tuple[bool, str]:
    """Predicted evolution spectra reproduce tr(U^k) for k <= 10 on cycles and
    paths with n <= 8, and the predicted multiplicities fill the arc space."""
    rng = np.random.default_rng(seed)
    targets = [build_cycle(n, j) for n in range(3, 9) for j in range(n + 1)]
    targets += [_all_digon_path(n) for n in range(2, 9)]
    targets += [random_mixed_path(int(rng.integers(2, 9)), rng) for _ in range(7)]
    worst = 0.0
    for g in targets:
        for rep in walk.spectral_map_check(g, ETA_GRID):
            if sum(m for _, m in rep.predicted) != len(g.arc_index):
                return False, f"multiplicity count off for n={g.n_vertices}"
            worst = max(worst, max(rep.trace_moment_residuals))
    return worst < 1e-7, f"max trace-moment residual {worst:.3e}"


def check_evolution_entrywise_formula(seed: int = 0) -> tuple[bool, str]:
    """Product-form evolution equals its entrywise formula on 100 random graphs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        g = random_mixed_graph(n, rng)
        eta = ETA_GRID[int(rng.integers(0, len(ETA_GRID)))]
        worst = max(worst, float(walk.time_evolution(g, eta).evolution_gap))
    return worst < 1e-12, f"max gap {worst:.3e} over 100 graphs"


def check_cycle_return_phase(seed: int = 0) -> tuple[bool, str]:
    """After n steps on a cycle, every basis arc returns to itself up to the
    phase e^{+-i j eta}."""
    worst = 0.0
    for n in range(3, 9):
        for j in range(n + 1):
            # every grid angle at once: the powers and the phases e^{+-i j eta} are stacks
            u_n = np.linalg.matrix_power(walk.time_evolution(build_cycle(n, j), ETA_GRID).evolution, n)
            plus = np.exp(1j * j * spectra.angle_radians(ETA_GRID))
            off = np.abs(u_n)
            off.reshape(len(ETA_GRID), -1)[:, :: len(off[0]) + 1] = 0.0  # the diagonals
            # hypot, as Python's abs(complex) computes it; np.abs may differ by an ulp
            d = u_n.diagonal(0, 1, 2)[..., None] - np.stack((plus, plus.conj()), axis=-1)
            phase_error = np.hypot(d.real, d.imag).min(axis=-1)
            worst = max(worst, float(off.max()), float(phase_error.max()))
    return bool(worst < 1e-9), f"max phase/support error {worst:.3e}"


CHECKS: tuple[tuple[str, Callable[[int], tuple[bool, str]]], ...] = (
    ("quarter-turn-determinant-table", check_quarter_turn_determinant_table),
    ("cycle-determinant-closed-form", check_cycle_determinant_closed_form),
    ("path-determinant-closed-form", check_path_determinant_closed_form),
    ("tree-underlying-cospectral", check_tree_underlying_cospectral),
    ("coefficients-agree-below-girth", check_coefficients_agree_below_girth),
    ("cycle-canonicalization", check_cycle_canonicalization),
    ("path-period", check_path_period),
    ("cycle-period-formula", check_cycle_period_formula),
    ("irrational-angle-non-periodic", check_irrational_angle_non_periodic),
    ("spectral-map-trace-moments", check_spectral_map_trace_moments),
    ("evolution-entrywise-formula", check_evolution_entrywise_formula),
    ("cycle-return-phase", check_cycle_return_phase),
)


def run_checks(seed: int = 0) -> list[CheckResult]:
    """Run every check in registry order."""
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        passed, detail = fn(seed)
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
