"""Periodicity of the walk evolution: brute-force powering and closed forms.

A graph is periodic when some power of its evolution matrix is the
identity; the period is the least such power.  Paths are periodic for
every angle with period 2(n-1).  Cycles are periodic exactly when the
angle is a rational multiple of pi (an all-digon cycle is the one
degenerate case that is periodic regardless, since its evolution never
sees the angle), and the period follows from exact gcd arithmetic on the
reduced fraction.  Whenever a closed form fires at desk scale,
``certify_period`` confirms it by repeated squaring: U^tau = I and
U^(tau/r) != I for each prime r dividing tau.  The scan of every power,
``brute_force_period``, stays the route that discovers periods; on small
walks it forms up to 64 powers with each batched product.
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
from .walk import time_evolution
from . import linalg

DEFAULT_CAP = 10_000
CROSS_CHECK_MAX_ARCS = 32
# Bytes of one block of powers in ``brute_force_period``'s blocked scan:
# it bounds the block's memory and how far a scan runs past a short period.
BLOCK_BYTES = 1 << 18
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
    second route confirmed the period.  For a closed form, ``cap_used`` is
    the exponent at which a return is guaranteed (the period 2(n-1) for
    paths, 2qn for cycles), certified or not; ``certify_period`` itself
    forms no power above the period.
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

    Every exponent is checked, so a reported period is minimal.  Powers come
    in blocks of B, the largest power of two at most 64, ``cap`` and
    ``BLOCK_BYTES`` / 16m^2: u^1 .. u^B is formed once by doubling
    (``linalg.power_stack``), then each block is acc @ u^1 .. u^B, one
    batched product, with acc the power before it.  The power at each
    multiple of ``linalg.RENORMALIZE_EVERY`` (a multiple of B) is projected
    back onto the unitary group, except at ``cap``, where no later product
    reads it.  Block order moves distances only in their last digits; at
    B = 1 the scan is the per-step one, bit for bit.  A ``step`` maps each
    power of ``u`` to the next, one power a block (walks pass
    ``WalkOperators.structured_step``, None below
    ``walk.STRUCTURED_STEP_MIN_ARCS`` arcs); it may hold the powers in a
    fixed basis permutation P, as P u^tau P^T from I, on which neither
    distance nor projection depends.

    A block's distances are screened by their diagonals against the closest
    approach before it.  The search returns at the first distance below
    ``linalg.IDENTITY_TOL``, so that approach is never below it while it
    runs, and a power whose diagonal alone is at least as far is neither the
    period nor a closer approach.
    """
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    u = _unitary(u)
    size = 1 if step else max(1, min(64, cap, BLOCK_BYTES // max(16 * u.size, 1)))
    size = 1 << (size.bit_length() - 1)
    powers = None if step else linalg.power_stack(u, size)
    acc = np.eye(u.shape[0], dtype=complex)
    best = math.inf
    for done in range(0, cap, size):
        count = min(size, cap - done)
        if step:
            block = step(acc)[None]
        else:  # I @ u^k is u^k: the first block is the stack itself
            block = acc @ powers[:count] if done else powers[:count]
        if (done + count) % linalg.RENORMALIZE_EVERY == 0 and done + count < cap:
            # into a new array: neither the stack nor a step's result is written to
            block = np.concatenate((block[:-1], linalg.project_to_unitary(block[-1])[None]))
        acc = block[-1]
        for tau, dist in enumerate(linalg.distance_to_identity(block, floor=best).tolist(), done + 1):
            best = min(best, dist)
            if dist < linalg.IDENTITY_TOL:
                return PeriodReport(True, tau, METHOD_BRUTE, cap, NOT_RUN, dist)
    return PeriodReport(False, None, METHOD_BRUTE, cap, NOT_RUN, float(best))


def certify_period(u, tau: int) -> tuple[bool, float]:
    """Whether ``tau`` is exactly the period of a unitary, and the identity
    distance of u^tau.

    It is when u^tau lies below ``linalg.IDENTITY_TOL`` and u^(tau/r) at or
    above it for every prime r dividing tau: the exponents that return to
    I are the multiples of the period, and a proper divisor of tau divides
    some tau/r.  Each power comes from ``np.linalg.matrix_power`` (repeated
    squaring), and u^tau = (u^(tau/r))^r for the smallest such r, so at
    most about 2 log2(tau) products per prime and no projection.  A power
    that is not a multiple of a period p lies at least 2 sin(pi/p)/m from
    I on m arcs, so at desk scale the verdict is the full scan's.
    """
    if tau < 1:
        raise DomainError(f"tau must be >= 1, got {tau}")
    u = _unitary(u)
    primes = _prime_divisors(tau)
    roots = [np.linalg.matrix_power(u, tau // r) for r in primes]
    power = np.linalg.matrix_power(roots[0], primes[0]) if primes else u
    residual = linalg.distance_to_identity(power)
    agrees = residual < linalg.IDENTITY_TOL and all(
        linalg.distance_to_identity(root, floor=linalg.IDENTITY_TOL) >= linalg.IDENTITY_TOL for root in roots
    )
    return agrees, residual


def _unitary(u) -> np.ndarray:
    u = linalg._square_stack(u)
    defect = linalg.unitary_defect(u)  # which refuses a stack
    if not defect <= linalg.UNITARY_TOL:  # a NaN defect fails too
        raise ContractViolationError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _prime_divisors(t: int) -> list[int]:
    primes, r = [], 2
    while r * r <= t:
        if t % r == 0:
            primes.append(r)
            while t % r == 0:
                t //= r
        r += 1
    return primes + [t] * (t > 1)


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
    return tau, brute_force_period(ops.evolution, 2 * eta.q * n, step=ops.structured_step)


def cycle_period_cells(sizes, angle_pairs):
    """Each cell (n, j, (p, q)) of a cycle grid, n in ``sizes``, j in 0..n and
    the angle p*pi/q, in that order, with its ``cycle_period_by_powering``
    formula period and powering report."""
    for n in sizes:
        for j in range(n + 1):
            for p, q in angle_pairs:
                yield (n, j, (p, q), *cycle_period_by_powering(n, j, RationalAngle(p, q)))


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
    straight to powering.  Closed-form answers are certified by
    ``certify_period`` whenever the arc space has at most 32 dimensions and
    the predicted period fits under the powering budget.
    """
    if graph.is_path_graph():
        tau = path_period(graph.n_vertices)
        # The guaranteed return exponent is the period itself.
        return _closed_form_report(graph, eta, tau, METHOD_PATH, tau)

    if graph.is_cycle_graph() and isinstance(eta, RationalAngle):
        j = classify_cycle(graph)
        tau = cycle_period(graph.n_vertices, j, eta)
        # The guaranteed return exponent is 2qn.
        guaranteed = 2 * eta.q * graph.n_vertices
        return _closed_form_report(graph, eta, tau, METHOD_CYCLE, guaranteed)

    ops = time_evolution(graph, eta)
    return brute_force_period(ops.evolution, cap, step=ops.structured_step)


def _closed_form_report(graph: MixedGraph, eta: Angle, tau: int, method: str, cap: int) -> PeriodReport:
    if 2 * len(graph.edges) > CROSS_CHECK_MAX_ARCS or tau > DEFAULT_CAP:
        return PeriodReport(True, tau, method, cap, NOT_RUN, None)
    agrees, residual = certify_period(time_evolution(graph, eta).evolution, tau)
    return PeriodReport(True, tau, method, max(cap, tau), AGREE if agrees else DISAGREE, residual)
