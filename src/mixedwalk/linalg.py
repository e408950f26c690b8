"""Dense complex linear algebra kernels.

Everything here operates on square ``numpy`` arrays of ``complex128``.
Determinants, Hermitian eigenvalues and the inverse behind
re-unitarization come from ``numpy.linalg`` (LAPACK), which serves as the
independent numeric route that the closed forms are checked against.  The
characteristic polynomial keeps its own trace recurrence, because its
coefficients are what the paper's closed forms and its theorem on
coefficients below the girth speak about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError, InternalConsistencyError

HERMITICITY_TOL = 1e-10
UNITARY_TOL = 1e-10
EIGENVALUE_GROUP_TOL = 1e-7
IDENTITY_TOL = 1e-8
TRACE_SUM_TOL = 1e-9
RENORMALIZE_EVERY = 64


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    return a


def _require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def hermitian_defect(m) -> float:
    """Largest entrywise deviation of M from its conjugate transpose."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return math.inf
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T)))


def determinant(m) -> complex:
    """Determinant by LAPACK's LU factorization (``numpy.linalg.det``)."""
    m = as_matrix(m)
    _require_square(m)
    return complex(np.linalg.det(m))


def charpoly(m) -> np.ndarray:
    """Coefficients of det(lambda*I - M), stored low-to-high, monic.

    Uses the trace recurrence (one matrix product per degree), which is
    exact in exact arithmetic and adequate in double precision at this
    scale.
    """
    m = as_matrix(m)
    n = _require_square(m)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    eye = np.eye(n, dtype=complex)
    am = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        am = m @ (am + coeffs[n - k + 1] * eye)
        coeffs[n - k] = -np.trace(am) / k
    return coeffs


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset as (value, multiplicity) pairs, sorted by (re, im)."""

    pairs: tuple[tuple[complex, int], ...]

    @classmethod
    def from_values(cls, values, tol: float = EIGENVALUE_GROUP_TOL) -> "Spectrum":
        vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
        pairs: list[tuple[complex, int]] = []
        group: list[complex] = []
        for v in vals:
            if group and abs(v - group[-1]) > tol:
                pairs.append((sum(group) / len(group), len(group)))
                group = []
            group.append(v)
        if group:
            pairs.append((sum(group) / len(group), len(group)))
        return cls(tuple(pairs))

    @property
    def total(self) -> int:
        return sum(m for _, m in self.pairs)

    def expand(self) -> list[complex]:
        out: list[complex] = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return out

    def real_values(self) -> list[float]:
        return [v.real for v in self.expand()]


def hermitian_eigenvalues(m, group_tol: float = EIGENVALUE_GROUP_TOL) -> Spectrum:
    """Real eigenvalues of a Hermitian matrix (``numpy.linalg.eigvalsh``).

    The input must be Hermitian to ``HERMITICITY_TOL``.  Eigenvalues are
    grouped into multiplicities with ``group_tol`` and their sum is checked
    against the trace.
    """
    m = as_matrix(m)
    _require_square(m)
    defect = hermitian_defect(m)
    if defect > HERMITICITY_TOL:
        raise ContractViolationError(
            f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.0e})"
        )
    # symmetrizing kills the sub-tolerance defect exactly
    eigs = [float(x) for x in np.linalg.eigvalsh((m + m.conj().T) / 2.0)]
    if abs(sum(eigs) - np.trace(m).real) > TRACE_SUM_TOL:
        raise InternalConsistencyError(
            "eigenvalue sum drifted away from the trace"
        )
    return Spectrum.from_values(eigs, tol=group_tol)


def distance_to_identity(m) -> float:
    """Max entrywise |M - I|."""
    m = as_matrix(m)
    n = _require_square(m)
    if n == 0:
        return 0.0
    return float(np.max(np.abs(m - np.eye(n, dtype=complex))))


def unitary_defect(m) -> float:
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0], dtype=complex))))


def project_to_unitary(m) -> np.ndarray:
    """One Newton step toward the nearest unitary: X <- (X + (X*)^-1) / 2.

    Used to renormalize long power chains; a single step is plenty when the
    drift is small.
    """
    m = as_matrix(m)
    _require_square(m)
    return (m + np.linalg.inv(m.conj().T)) / 2.0
