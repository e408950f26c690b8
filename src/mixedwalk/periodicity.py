"""Periodicity of the walk evolution: brute-force powering and closed forms.

A graph is periodic when some power of its evolution matrix is the
identity; the period is the least such power.  Paths are periodic for
every angle with period 2(n-1).  Cycles are periodic exactly when the
angle is a rational multiple of pi (an all-digon cycle is the one
degenerate case that is periodic regardless, since its evolution never
sees the angle), and the period follows from exact gcd arithmetic on the
reduced fraction.  Whenever a closed form fires at desk scale it is
cross-checked by powering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolationError, DomainError
from .graphs import MixedGraph, build_cycle
from .spectra import Angle, RationalAngle, angle_radians
from .switching import classify_cycle
from .walk import WalkOperators, time_evolution
from . import linalg

DEFAULT_CAP = 10_000
CROSS_CHECK_MAX_ARCS = 32
# ``detect_rational_angle`` tries denominators up to this bound and accepts
# a match to within this many radians.
RATIONAL_HINT_MAX_Q = 64
RATIONAL_HINT_TOL = 1e-12

METHOD_BRUTE = "brute_force"
METHOD_PATH = "closed_form_path"
METHOD_CYCLE = "closed_form_cycle"

AGREE = "agree"
DISAGREE = "disagree"
NOT_RUN = "not_run"


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of a periodicity query.

    ``residual`` is the identity distance at the reported period (None when
    no powering was run); ``cross_check`` records whether an independent
    second route confirmed the period.
    """

    periodic: bool
    period: Optional[int]
    method: str
    cap_used: int
    cross_check: str
    residual: Optional[float]


def brute_force_period(
    u,
    cap: int,
    *,
    step: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> PeriodReport:
    """Smallest power (up to ``cap``) bringing a unitary back to the identity.

    Every exponent is checked, so a reported period is minimal.  The
    accumulated product is projected back onto the unitary group every 64
    steps to keep long searches below the drift budget.  ``step`` maps
    each power of ``u`` to the next (``acc @ u`` by default); walks pass
    ``WalkOperators.power_step``.

    Each power's distance to the identity is screened by its diagonal
    against the closest approach so far.  The search returns as soon as a
    distance falls below ``linalg.IDENTITY_TOL``, so that approach is never
    below it while it runs, and a power whose diagonal alone is at least as
    far is neither the period nor a closer approach.
    """
    u = linalg.as_matrix(u)
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    defect = linalg.unitary_defect(u)
    if defect > linalg.UNITARY_TOL:
        raise ContractViolationError(
            f"matrix is not unitary (defect {defect:.3e})"
        )
    step = step or (lambda acc: acc @ u)
    acc = np.eye(u.shape[0], dtype=complex)
    best = math.inf
    for tau in range(1, cap + 1):
        acc = step(acc)
        if tau % linalg.RENORMALIZE_EVERY == 0:
            acc = linalg.project_to_unitary(acc)
        # the screen stays inside distance_to_identity, so every power still
        # makes exactly one call: traces count those calls as powering steps
        dist = linalg.distance_to_identity(acc, floor=best)
        best = min(best, dist)
        if dist < linalg.IDENTITY_TOL:
            return PeriodReport(True, tau, METHOD_BRUTE, cap, NOT_RUN, dist)
    return PeriodReport(False, None, METHOD_BRUTE, cap, NOT_RUN, float(best))


def path_period(n: int) -> int:
    """Period of any mixed path on n vertices, independent of the angle."""
    if n < 2:
        raise DomainError(f"paths need n >= 2, got {n}")
    return 2 * (n - 1)


def cycle_period(n: int, j: int, eta: RationalAngle) -> int:
    """Period of a type-j mixed cycle at angle p*pi/q, by exact gcd arithmetic.

    With the convention gcd(0, m) = m (so the all-digon type lands on
    period n for odd p), the period is 2qn/gcd(j, 2q) for odd p and
    qn/gcd(j, q) for even p.
    """
    if n < 3:
        raise DomainError(f"cycles need n >= 3, got {n}")
    if not 0 <= j <= n:
        raise DomainError(f"cycle type j={j} outside 0..{n}")
    if not isinstance(eta, RationalAngle):
        raise DomainError("the closed-form cycle period needs a rational angle")
    p, q = eta.p, eta.q
    if p % 2 == 1:
        return 2 * q * n // math.gcd(j, 2 * q)
    return q * n // math.gcd(j, q)


def cycle_period_by_powering(n: int, j: int, eta: RationalAngle) -> tuple[int, PeriodReport]:
    """The gcd-formula period of the type-j cycle, and the powering report
    of its evolution searched up to the guaranteed return exponent 2qn.

    The two routes share nothing; callers compare them."""
    tau = cycle_period(n, j, eta)
    ops = time_evolution(build_cycle(n, j), eta)
    return tau, brute_force_period(ops.evolution, 2 * eta.q * n, step=ops.power_step)


def detect_rational_angle(radians: float) -> Optional[RationalAngle]:
    """Best-effort match of a float angle to p*pi/q with q at most
    ``RATIONAL_HINT_MAX_Q``, to within ``RATIONAL_HINT_TOL`` radians."""
    x = angle_radians(radians) / math.pi
    for q in range(1, RATIONAL_HINT_MAX_Q + 1):
        p = round(x * q)
        if math.gcd(p, q) == 1 and abs(x - p / q) * math.pi <= RATIONAL_HINT_TOL:
            return RationalAngle(p, q)
    return None


def period_of(graph: MixedGraph, eta: Angle, cap: int = DEFAULT_CAP) -> PeriodReport:
    """Periodicity of a mixed graph's walk, preferring closed forms.

    Paths use the closed form for any angle; cycles use the gcd formula
    when the angle is rational and fall back to powering otherwise (a
    float angle can never certify rationality).  Unknown shapes go
    straight to powering.  Closed-form answers are cross-checked by
    powering whenever the arc space has at most 32 dimensions and the
    predicted period fits under the powering budget.
    """
    ops = time_evolution(graph, eta)

    if graph.is_path_graph():
        tau = path_period(graph.n_vertices)
        # The powering cap is the period itself; hitting it proves minimality.
        return _closed_form_report(ops, tau, METHOD_PATH, tau)

    if graph.is_cycle_graph() and isinstance(eta, RationalAngle):
        j = classify_cycle(graph)
        tau = cycle_period(graph.n_vertices, j, eta)
        # The powering cap is the guaranteed return exponent 2qn.
        guaranteed = 2 * eta.q * graph.n_vertices
        return _closed_form_report(ops, tau, METHOD_CYCLE, guaranteed)

    return brute_force_period(ops.evolution, cap, step=ops.power_step)


def _closed_form_report(ops: WalkOperators, tau: int, method: str, cap: int) -> PeriodReport:
    if len(ops.arc_index) > CROSS_CHECK_MAX_ARCS or tau > DEFAULT_CAP:
        return PeriodReport(True, tau, method, cap, NOT_RUN, None)
    brute = brute_force_period(ops.evolution, max(cap, tau), step=ops.power_step)
    agrees = brute.periodic and brute.period == tau
    return PeriodReport(
        periodic=True,
        period=tau,
        method=method,
        cap_used=brute.cap_used,
        cross_check=AGREE if agrees else DISAGREE,
        residual=brute.residual,
    )
