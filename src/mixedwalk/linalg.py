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
    scale.  ``m`` may be a stack of shape ``(..., n, n)``; the result then
    has shape ``(..., n + 1)``, one Python loop serves the whole stack, and
    each slice is bit-identical to its own 2-D call.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    *batch, rows, n = m.shape
    if rows != n:
        raise DimensionError(f"expected square matrices, got shape {m.shape}")
    batch = tuple(batch)
    coeffs = np.zeros(batch + (n + 1,), dtype=complex)
    coeffs[..., n] = 1.0
    # Two contiguous buffers take turns as the product's input and output;
    # each slice's diagonal is a strided view of its buffer, so adding to it
    # and summing it stay per-slice operations with no index arrays.
    am = np.zeros(batch + (n, n), dtype=complex)
    product = np.empty_like(am)
    am_diagonal = am.reshape(batch + (n * n,))[..., :: n + 1]
    product_diagonal = product.reshape(batch + (n * n,))[..., :: n + 1]
    for k in range(1, n + 1):
        am_diagonal += coeffs[..., n - k + 1, None]
        np.matmul(m, am, out=product)
        coeffs[..., n - k] = -np.add.reduce(product_diagonal, axis=-1) / k
        am, product = product, am
        am_diagonal, product_diagonal = product_diagonal, am_diagonal
    return coeffs


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset as (value, multiplicity) pairs, sorted by (re, im)."""

    pairs: tuple[tuple[complex, int], ...]

    @classmethod
    def from_values(cls, values, tol: float = EIGENVALUE_GROUP_TOL) -> "Spectrum":
        """Group sorted values lying within ``tol`` of their group's first
        value, so that no group spans more than ``tol``."""
        vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
        pairs: list[tuple[complex, int]] = []
        group: list[complex] = []
        for v in vals:
            if group and abs(v - group[0]) > tol:
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


def hermitian_eigenvalues(m) -> Spectrum:
    """Real eigenvalues of a Hermitian matrix (``numpy.linalg.eigvalsh``).

    The input must be Hermitian to ``HERMITICITY_TOL``.  Eigenvalues are
    grouped into multiplicities with ``EIGENVALUE_GROUP_TOL`` and their sum
    is checked against the trace.
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
    return Spectrum.from_values(eigs, tol=EIGENVALUE_GROUP_TOL)


def distance_to_identity(m, floor: float = math.inf) -> float:
    """Max entrywise |M - I|, formed as |M| with its diagonal replaced by
    |diag M - 1| (the same values, without an identity or a difference).

    The diagonal is read first: when its largest gap g = max|diag M - 1|
    is at least ``floor``, g is returned as it is, a lower bound on the
    distance that is itself at least ``floor``.  Otherwise the exact
    distance is returned.  A search that only needs distances below a
    running minimum passes that minimum and skips the O(n^2) pass.
    """
    m = as_matrix(m)
    n = _require_square(m)
    if n == 0:
        return 0.0
    diagonal_gaps = np.abs(m.diagonal() - 1.0)
    g = float(diagonal_gaps.max())
    if g >= floor:
        return g
    gaps = np.abs(m)
    np.fill_diagonal(gaps, diagonal_gaps)
    return float(gaps.max())


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
