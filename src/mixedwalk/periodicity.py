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
from typing import Optional

import numpy as np

from .errors import ContractViolationError, DomainError
from .graphs import MixedGraph
from .spectra import Angle, RationalAngle, angle_radians, is_rational_angle
from .switching import classify_cycle
from .walk import time_evolution
from . import linalg

DEFAULT_CAP = 10_000
CROSS_CHECK_MAX_ARCS = 32

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
    u, cap: int, tol: float = linalg.IDENTITY_TOL
) -> PeriodReport:
    """Smallest power (up to ``cap``) bringing a unitary back to the identity.

    Every exponent is checked, so a reported period is minimal.  The
    accumulated product is projected back onto the unitary group every 64
    steps to keep long searches below the drift budget.
    """
    u = linalg.as_matrix(u)
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    defect = linalg.unitary_defect(u)
    if defect > linalg.UNITARY_TOL:
        raise ContractViolationError(
            f"matrix is not unitary (defect {defect:.3e})"
        )
    acc = np.eye(u.shape[0], dtype=complex)
    best = math.inf
    for tau in range(1, cap + 1):
        acc = acc @ u
        if tau % linalg.RENORMALIZE_EVERY == 0:
            acc = linalg.project_to_unitary(acc)
        dist = linalg.distance_to_identity(acc)
        best = min(best, dist)
        if dist < tol:
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


def detect_rational_angle(
    radians: float, max_q: int = 64, tol: float = 1e-12
) -> Optional[RationalAngle]:
    """Best-effort match of a float angle to p*pi/q with q <= max_q."""
    x = angle_radians(radians) / math.pi
    for q in range(1, max_q + 1):
        p = round(x * q)
        if math.gcd(p, q) == 1 and abs(x - p / q) * math.pi <= tol:
            return RationalAngle(p, q)
    return None


def period_of(
    graph: MixedGraph,
    eta: Angle,
    cap: int = DEFAULT_CAP,
    tol: float = linalg.IDENTITY_TOL,
) -> PeriodReport:
    """Periodicity of a mixed graph's walk, preferring closed forms.

    Paths use the closed form for any angle; cycles use the gcd formula
    when the angle is rational and fall back to powering otherwise (a
    float angle can never certify rationality).  Unknown shapes go
    straight to powering.  Closed-form answers are cross-checked by
    powering whenever the arc space has at most 32 dimensions and the
    predicted period fits under the powering budget.
    """
    ops = time_evolution(graph, eta)
    u = ops.evolution

    if graph.is_path_graph():
        tau = path_period(graph.n_vertices)
        # The powering cap is the period itself; hitting it proves minimality.
        return _closed_form_report(u, tau, METHOD_PATH, tau, tol)

    if graph.is_cycle_graph() and is_rational_angle(eta):
        j = classify_cycle(graph)
        tau = cycle_period(graph.n_vertices, j, eta)
        # The powering cap is the guaranteed return exponent 2qn.
        guaranteed = 2 * eta.q * graph.n_vertices
        return _closed_form_report(u, tau, METHOD_CYCLE, guaranteed, tol)

    return brute_force_period(u, cap, tol)


def _closed_form_report(
    u: np.ndarray, tau: int, method: str, cap: int, tol: float
) -> PeriodReport:
    if u.shape[0] > CROSS_CHECK_MAX_ARCS or tau > DEFAULT_CAP:
        return PeriodReport(True, tau, method, cap, NOT_RUN, None)
    brute = brute_force_period(u, max(cap, tau), tol)
    agrees = brute.periodic and brute.period == tau
    return PeriodReport(
        periodic=True,
        period=tau,
        method=method,
        cap_used=brute.cap_used,
        cross_check=AGREE if agrees else DISAGREE,
        residual=brute.residual,
    )
