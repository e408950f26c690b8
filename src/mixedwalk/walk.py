"""Discrete-time quantum walk operators on the arc space of a mixed graph.

The state space is spanned by the symmetric arcs.  The evolution is the
product of an arc-reversing shift, which carries a phase of +-eta on
one-directional arcs, and the degree-weighted reflection coin.  Dense
operators are built on first read.  The evolution matrix is built twice, as
the operator product and from its entrywise formula, and the two must agree;
that agreement is the module's core correctness gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, DomainError, InternalConsistencyError
from .graphs import ArcIndex, MixedGraph
from .spectra import Angle, angle_radians, normalized_h_eta
from . import linalg

EVOLUTION_AGREEMENT_TOL = 1e-10
SPECTRAL_CLAMP_TOL = 1e-9
# Number of trace moments tr(U^k), k = 1.., that validate a predicted spectrum.
TRACE_MOMENTS = 10
# Arc count from which a powering step runs through the arc arrays rather
# than as a dense matmul; below it the matmul's lower per-call cost wins.
STRUCTURED_STEP_MIN_ARCS = 72
# Largest arc space whose dense operators are built; one complex m x m
# array takes 268 MB at this size.
MAX_DENSE_ARCS = 4096


def _check_dense_size(m: int) -> None:
    if m > MAX_DENSE_ARCS:
        raise DomainError(f"{m} arcs; dense walk operators are built up to {MAX_DENSE_ARCS} arcs")


@dataclass(frozen=True)
class WalkOperators:
    """The walk at one angle, held as its arc arrays.  The dense operators
    K, C, S and U are built on first read, none above ``MAX_DENSE_ARCS``
    arcs, and U only once it passes the agreement gate."""

    graph: MixedGraph
    arc_index: ArcIndex
    eta: Angle

    @cached_property
    def phases(self) -> np.ndarray:
        """e^{i theta(a)} per arc: theta is +eta on one-directional arcs, -eta
        on their reverses, 0 on digons, read from exact integer edge signs."""
        signs = [self.graph.edge_sign(o, t) for o, t in self.arc_index.arcs]
        return np.exp(1j * angle_radians(self.eta) * np.asarray(signs, dtype=float))

    @cached_property
    def boundary(self) -> np.ndarray:
        """Vertex-by-arc averaging operator: row x has 1/sqrt(deg x) on every
        arc terminating at x.  Satisfies K K* = I."""
        index = self.arc_index
        _check_dense_size(len(index))
        degrees = np.asarray(self.graph.degrees, dtype=float)
        k = np.zeros((self.graph.n_vertices, len(index)), dtype=complex)
        k[index.terminus, np.arange(len(index))] = 1.0 / np.sqrt(degrees[index.terminus])
        return k

    @cached_property
    def coin(self) -> np.ndarray:
        """Reflection coin 2 K* K - I; block diagonal over arcs grouped by terminus."""
        index, k = self.arc_index, self.boundary
        # K* has one nonzero per row, at column t(a), so row a of K* K is row
        # t(a) of K scaled by conj K[t(a), a]
        c = k[index.terminus]
        c *= 2.0 * k[index.terminus, np.arange(len(index))].conj()[:, None]
        c[np.diag_indices_from(c)] -= 1.0
        return c

    @cached_property
    def shift(self) -> np.ndarray:
        """Phased arc reversal: entry e^{i theta(b)} at position (b^-1, b)."""
        index = self.arc_index
        m = len(index)
        _check_dense_size(m)
        s = np.zeros((m, m), dtype=complex)
        s[index.inverse, np.arange(m)] = self.phases
        return s

    @cached_property
    def evolution(self) -> np.ndarray:
        """U = S C, checked against ``evolution_entrywise`` before it is
        first returned; a gap above ``EVOLUTION_AGREEMENT_TOL`` raises."""
        index = self.arc_index
        # S is monomial: row a of S C is row a^-1 of C times the phase S[a, a^-1]
        u = self.coin[index.inverse]
        u *= self.phases[index.inverse][:, None]
        gap = evolution_entrywise(self.graph, index, self.phases)
        gap -= u
        disagreement = float(np.max(np.abs(gap))) if len(index) else 0.0
        if disagreement > EVOLUTION_AGREEMENT_TOL:
            raise InternalConsistencyError(
                f"evolution product and entrywise formula disagree by {disagreement:.3e}"
            )
        return u

    def power_step(self, acc: np.ndarray) -> np.ndarray:
        """The next power of U after ``acc``, a power of U.

        From ``STRUCTURED_STEP_MIN_ARCS`` arcs on, U @ acc is applied
        through the arc arrays in O(m^2) instead of the O(m^3) matmul:
        (U x)[a] = e^{-i theta(a)} (2/deg o(a) * sum_{o(c)=o(a)} x[c^-1] - x[a^-1]).
        Below that it is the matmul acc @ U, equal to U @ acc for a power of U.
        """
        if len(self.arc_index) < STRUCTURED_STEP_MIN_ARCS:
            return acc @ self.evolution
        gather, runs, scale, phase, restore = self._slot_order
        y = acc[gather]
        sums = y[: runs[0][1]].copy()
        for first, count in runs[1:]:
            sums[:count] += y[first : first + count]
        sums *= scale
        for first, count in runs:
            y[first : first + count] -= sums[:count]
        y *= phase
        return y[restore]

    @cached_property
    def _slot_order(self):
        """The arcs in slot order, the row order of the structured step.

        Origin blocks are contiguous, since arcs are sorted by origin.  They
        are ranked by size, largest first, and slot k holds the k-th arc of
        every block with more than k arcs.  Those blocks are a prefix of the
        ranking, so each slot is one run of rows that lines up with the
        first rows of the block sums.  Returns, per slot row, the row of x
        it reads (its arc's inverse); the (first row, row count) of each
        slot; 2/deg per ranked block; -e^{-i theta(a)} per slot row, negated
        because the rows hold x - sums; and the slot row of each arc, in
        arc order.
        """
        # the step applies U without reading it, so U is built and gated first
        self.evolution
        index = self.arc_index
        _, starts, sizes = np.unique(index.origin, return_index=True, return_counts=True)
        ranked = np.argsort(-sizes, kind="stable")
        starts, sizes = starts[ranked], sizes[ranked]
        slots, runs, first = [], [], 0
        for k in range(int(sizes[0])):
            count = int(np.count_nonzero(sizes > k))
            slots.append(starts[:count] + k)
            runs.append((first, count))
            first += count
        arcs = np.concatenate(slots)
        gather = index.inverse[arcs]
        phase = -self.phases[gather]
        return gather, runs, (2.0 / sizes)[:, None], phase[:, None], np.argsort(arcs)


def evolution_entrywise(graph: MixedGraph, index: ArcIndex, phases: np.ndarray) -> np.ndarray:
    """Independent entrywise construction of the evolution matrix:
    U[a,b] = e^{-i theta(a)} (2/deg t(b) * [o(a) = t(b)] - [a = b^-1]),
    with ``phases`` holding e^{i theta(a)} per arc.

    Evaluated by broadcasting over all arc pairs; it never forms the shift,
    the coin or a matrix product, so it stays a second route to U."""
    m = len(index)
    _check_dense_size(m)
    degrees = np.asarray(graph.degrees, dtype=float)
    u = np.zeros((m, m), dtype=complex)
    np.multiply(
        index.origin[:, None] == index.terminus[None, :],
        2.0 / degrees[index.terminus],
        out=u,
    )
    u[index.inverse, np.arange(m)] -= 1.0
    u *= phases.conj()[:, None]
    return u


def time_evolution(graph: MixedGraph, eta: Angle) -> WalkOperators:
    """The walk on ``graph`` at angle ``eta``; no dense operator is built
    until one is read."""
    return WalkOperators(graph, ArcIndex(graph), eta)


@dataclass(frozen=True)
class SpectralMapReport:
    """Predicted evolution spectrum and how well the trace moments confirm it."""

    predicted: linalg.Spectrum
    m_plus_1: int
    m_minus_1: int
    trace_moment_residuals: tuple[float, ...]


def spectral_map_check(graph: MixedGraph, eta: Angle) -> SpectralMapReport:
    """Predict the evolution spectrum from the normalized adjacency spectrum.

    Each normalized eigenvalue lam maps to the conjugate pair
    e^{+-i arccos lam} (a single eigenvalue when lam = +-1), and the flat
    +-1 eigenspaces contribute |arcs|/2 - |V| + dim ker(Hn -+ I) extra
    copies each.  Rather than diagonalizing the evolution matrix, the
    prediction is validated through the residuals |tr(U^k) - sum mu^k| for
    k = 1..TRACE_MOMENTS.
    """
    ops = time_evolution(graph, eta)
    hn = normalized_h_eta(graph, eta)
    spec = linalg.hermitian_eigenvalues(hn)
    lams = spec.real_values()
    for lam in lams:
        if abs(lam) > 1.0 + SPECTRAL_CLAMP_TOL:
            raise ContractViolationError(
                f"normalized eigenvalue {lam} exceeds the unit interval"
            )
    n_arcs = len(ops.arc_index)
    n_vertices = graph.n_vertices
    group = linalg.EIGENVALUE_GROUP_TOL
    dim_ker_plus = sum(1 for lam in lams if abs(lam - 1.0) <= group)
    dim_ker_minus = sum(1 for lam in lams if abs(lam + 1.0) <= group)
    m_plus = n_arcs // 2 - n_vertices + dim_ker_plus
    m_minus = n_arcs // 2 - n_vertices + dim_ker_minus
    if m_plus < 0 or m_minus < 0:
        # would be silently absorbed by list repetition below
        raise InternalConsistencyError(
            f"flat eigenspace count went negative ({m_plus}, {m_minus})"
        )
    predicted: list[complex] = [1.0 + 0j] * m_plus + [-1.0 + 0j] * m_minus
    for lam in lams:
        if abs(lam - 1.0) <= group:
            predicted.append(1.0 + 0j)
        elif abs(lam + 1.0) <= group:
            predicted.append(-1.0 + 0j)
        else:
            phi = math.acos(min(1.0, max(-1.0, lam)))
            predicted.extend([complex(np.exp(1j * phi)), complex(np.exp(-1j * phi))])
    spectrum = linalg.Spectrum.from_values(predicted, tol=1e-9)

    residuals = []
    # reading U runs the size guard and the gate before the m x m accumulator
    acc = np.eye(len(ops.evolution), dtype=complex)
    for k in range(1, TRACE_MOMENTS + 1):
        acc = ops.power_step(acc)
        moment = sum(mult * value**k for value, mult in spectrum.pairs)
        residuals.append(float(abs(np.trace(acc) - moment)))
    return SpectralMapReport(
        predicted=spectrum,
        m_plus_1=m_plus,
        m_minus_1=m_minus,
        trace_moment_residuals=tuple(residuals),
    )
