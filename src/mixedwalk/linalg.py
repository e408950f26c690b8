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

import numpy as np

from .errors import ContractViolationError, DimensionError, InternalConsistencyError

HERMITICITY_TOL = 1e-10
UNITARY_TOL = 1e-10
EIGENVALUE_GROUP_TOL = 1e-7
IDENTITY_TOL = 1e-8
TRACE_SUM_TOL = 1e-9
RENORMALIZE_EVERY = 64


def _square_stack(m) -> np.ndarray:
    """``m`` as a complex square matrix or stack of them, ``(..., n, n)``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def hermitian_defect(m):
    """Largest entrywise deviation of a square M from its conjugate
    transpose; on a stack ``(..., n, n)``, one per slice."""
    m = _square_stack(m)
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def determinant(m) -> complex:
    """Determinant by LAPACK's LU factorization (``numpy.linalg.det``)."""
    m = _square_stack(m)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    return complex(np.linalg.det(m))


def charpoly(m) -> np.ndarray:
    """Coefficients of det(lambda*I - M), stored low-to-high, monic.

    Uses the trace recurrence (one matrix product per degree), which is
    exact in exact arithmetic and adequate in double precision at this
    scale.  ``m`` may be a stack of shape ``(..., n, n)``; the result then
    has shape ``(..., n + 1)``, one Python loop serves the whole stack, and
    each slice is bit-identical to its own 2-D call.  On dense graphs of a
    few hundred vertices the products overflow; the coefficients then hold
    inf or NaN, without a warning, for the caller to refuse.
    """
    m = _square_stack(m)
    batch, n = m.shape[:-2], m.shape[-1]
    coeffs = np.zeros(batch + (n + 1,), dtype=complex)
    coeffs[..., n] = 1.0
    # Two contiguous buffers take turns as the product's input and output;
    # each slice's diagonal is a strided view of its buffer, so adding to it
    # and summing it stay per-slice operations with no index arrays.
    am = np.zeros(batch + (n, n), dtype=complex)
    product = np.empty_like(am)
    am_diagonal = am.reshape(batch + (n * n,))[..., :: n + 1]
    product_diagonal = product.reshape(batch + (n * n,))[..., :: n + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            am_diagonal += coeffs[..., n - k + 1, None]
            np.matmul(m, am, out=product)
            coeffs[..., n - k] = -np.add.reduce(product_diagonal, axis=-1) / k
            am, product = product, am
            am_diagonal, product_diagonal = product_diagonal, am_diagonal
    return coeffs


def group_values(values, tol: float) -> tuple[tuple[complex, int], ...]:
    """An eigenvalue multiset as (value, multiplicity) pairs, sorted by
    (re, im): sorted values lying within ``tol`` of their group's first
    value form one group, valued at its mean, so that no group spans more
    than ``tol``."""
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
    return tuple(pairs)


def hermitian_eigenvalues(m) -> tuple[tuple[complex, int], ...] | list[tuple]:
    """Real eigenvalues of a Hermitian matrix (``numpy.linalg.eigvalsh``).

    The input must be Hermitian to ``HERMITICITY_TOL``.  Eigenvalues are
    grouped into (value, multiplicity) pairs by ``group_values`` at
    ``EIGENVALUE_GROUP_TOL`` and their sum is checked against the trace.  A
    stack ``(..., n, n)`` takes one ``eigvalsh`` call and gives a list of
    pair tuples, one per slice in C order, each gated on its own and equal
    to its slice's own call.
    """
    m = _square_stack(m)
    defect = hermitian_defect(m)
    if np.any(defect > HERMITICITY_TOL):
        raise ContractViolationError(
            f"matrix is not Hermitian (defect {np.max(defect):.3e} > {HERMITICITY_TOL:.0e})"
        )
    # symmetrizing kills the sub-tolerance defect exactly
    eigs = np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0).reshape(-1, m.shape[-1]).tolist()
    traces = np.trace(m, axis1=-2, axis2=-1).real.reshape(-1).tolist()
    if any(abs(sum(e) - t) > TRACE_SUM_TOL for e, t in zip(eigs, traces)):
        raise InternalConsistencyError(
            "eigenvalue sum drifted away from the trace"
        )
    spectra = [group_values(e, EIGENVALUE_GROUP_TOL) for e in eigs]
    return spectra[0] if m.ndim == 2 else spectra


def distance_to_identity(m, floor: float = math.inf):
    """Max entrywise |M - I|, formed as |M| with its diagonal replaced by
    |diag M - 1| (the same values, without an identity or a difference).

    The diagonal is read first: when its largest gap g = max|diag M - 1|
    is at least ``floor``, g is returned as it is, a lower bound on the
    distance that is itself at least ``floor``.  Otherwise the exact
    distance is returned.  A search that only needs distances below a
    running minimum passes that minimum and skips the O(n^2) pass.  On a
    stack ``(..., n, n)`` the result has shape ``(...)``, each entry
    bit-identical to its slice's own call.
    """
    m = _square_stack(m)
    n = m.shape[-1]
    if n == 0:
        return np.zeros(m.shape[:-2]) if m.ndim > 2 else 0.0
    stack = m.reshape(-1, n, n)  # a matrix is a stack of one
    diagonal_gaps = np.abs(stack.diagonal(0, 1, 2) - 1.0)
    dist = diagonal_gaps.max(1)
    close = dist < floor
    if close.any():
        close = Ellipsis if close.all() else close  # no gathered copy when every slice is close
        gaps = np.abs(stack[close])
        gaps.reshape(-1, n * n)[:, :: n + 1] = diagonal_gaps[close]
        dist[close] = gaps.max((1, 2))
    return float(dist[0]) if m.ndim == 2 else dist.reshape(m.shape[:-2])


def unitary_defect(m):
    """Max entrywise |M M* - I|; on a stack ``(..., n, n)``, one per slice,
    each bit-identical to its slice's own call."""
    m = _square_stack(m)
    n = m.shape[-1]
    product = m @ m.conj().swapaxes(-1, -2)
    product.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] -= 1.0  # M M* - I, in place on the diagonals
    defect = np.abs(product).max(axis=(-2, -1), initial=0.0)
    return float(defect) if m.ndim == 2 else defect


def power_stack(u, count: int) -> np.ndarray:
    """U^1 .. U^count as a ``(count, n, n)`` stack, by doubling: U^(k+1) ..
    U^2k are U^k @ U^1 .. U^k, one batched product per doubling.  A stack
    ``(..., n, n)`` gives ``(..., count, n, n)``, each slice bit-identical to
    its own call."""
    u = _square_stack(u)
    powers = np.empty(u.shape[:-2] + (count,) + u.shape[-2:], dtype=complex)
    powers[..., 0, :, :] = u
    k = 1
    while k < count:
        c = min(k, count - k)
        np.matmul(powers[..., k - 1, None, :, :], powers[..., :c, :, :], out=powers[..., k : k + c, :, :])
        k *= 2
    return powers


def project_to_unitary(m) -> np.ndarray:
    """One Newton step toward the nearest unitary: X <- (X + (X*)^-1) / 2.

    Used to renormalize long power chains; a single step is plenty when the
    drift is small.
    """
    m = _square_stack(m)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    return (m + np.linalg.inv(m.conj().T)) / 2.0
