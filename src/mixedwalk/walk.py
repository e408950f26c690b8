"""Discrete-time quantum walk operators on the arc space of a mixed graph.

The state space is spanned by the symmetric arcs.  The evolution is the
product of an arc-reversing shift, which carries a phase of +-eta on
one-directional arcs, and the degree-weighted reflection coin.  Dense
operators are built on first read.  The evolution matrix is built twice, as
the operator product and from its entrywise formula, and the two must agree;
that agreement is the module's core correctness gate.

Only the arc phases depend on the angle.  ``time_evolution`` and
``spectral_map_check`` also take a tuple of A angles: the boundary, the coin
and the real part of the entrywise formula are then built once, every
angle-dependent array gains a leading axis of length A, and each gate still
holds per angle.  A single angle takes the same code with no leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolationError, DomainError, InternalConsistencyError
from .graphs import ArcIndex, MixedGraph
from .spectra import Angle, normalized_h_eta, sign_phases
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
    """The walk at one angle, or at each of a tuple of A angles, held as its
    arc arrays.  The dense operators K, C, S and U are built on first read,
    none above ``MAX_DENSE_ARCS`` arcs, and U only once it passes the
    agreement gate.  For a tuple, the phases, S and U are ``(A, m)`` and
    ``(A, m, m)`` stacks, the powers that ``power_step`` takes and returns
    too, while K and C, which do not depend on the angle, are built once."""

    graph: MixedGraph
    eta: Angle | tuple[Angle, ...]

    @property
    def arc_index(self) -> ArcIndex:
        """The graph's own ``MixedGraph.arc_index``."""
        return self.graph.arc_index

    @cached_property
    def phases(self) -> np.ndarray:
        """e^{i theta(a)} per arc, theta = eta * s for the exact integer arc sign s:
        a gather from ``spectra.sign_phases``."""
        return sign_phases(self.eta).take(self.arc_index.signs, -1)

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
        c.reshape(-1)[:: len(index) + 1] -= 1.0  # the diagonal, as a strided view
        return c

    @cached_property
    def shift(self) -> np.ndarray:
        """Phased arc reversal: entry e^{i theta(b)} at position (b^-1, b)."""
        index = self.arc_index
        m = len(index)
        _check_dense_size(m)
        s = np.zeros(self.phases.shape[:-1] + (m, m), dtype=complex)
        s[..., index.inverse, np.arange(m)] = self.phases
        return s

    @property
    def evolution(self) -> np.ndarray:
        """U = S C, checked against ``evolution_entrywise`` before it is
        first returned; a gap above ``EVOLUTION_AGREEMENT_TOL`` at any angle
        raises."""
        return self._gated_evolution[0]

    @property
    def evolution_gap(self) -> np.ndarray:
        """max |entrywise - U| as the gate behind ``evolution`` measured it:
        0-d, or one per angle for a tuple.  Reading it runs the gate."""
        return self._gated_evolution[1]

    @cached_property
    def _gated_evolution(self) -> tuple[np.ndarray, np.ndarray]:
        index = self.arc_index
        # S is monomial: row a of S C is row a^-1 of C times the phase S[a, a^-1]
        u = self.coin[index.inverse] * self.phases[..., index.inverse, None]
        gap = evolution_entrywise(self.graph, self.phases)
        gap -= u
        disagreement = np.abs(gap).max(axis=(-2, -1), initial=0.0)  # one per angle
        failing = disagreement[disagreement > EVOLUTION_AGREEMENT_TOL]
        if failing.size:
            raise InternalConsistencyError(
                f"evolution product and entrywise formula disagree by {failing.max():.3e}"
            )
        return u, disagreement

    def power_step(self, acc: np.ndarray) -> np.ndarray:
        """The next power of U after ``acc``, a power of U, both held in
        ``step_order``: with P that order's permutation, it takes
        P U^tau P^T and returns P U^(tau+1) P^T.

        From ``STRUCTURED_STEP_MIN_ARCS`` arcs on, U @ acc is applied
        through the arc arrays in O(m^2) instead of the O(m^3) matmul:
        (U x)[a] = e^{-i theta(a)} (2/deg o(a) * sum_{o(c)=o(a)} x[c^-1] - x[a^-1]).
        The rows stay in slot order from one step to the next, and the
        columns only ride along, so I starts a chain as it is.  Below that
        size the order is arc order and the step is the matmul acc @ U,
        equal to U @ acc for a power of U.  No search takes that dense
        branch (it batches the matmuls instead); it stays as the plain
        per-step powering against which the tests check the blocked scan.
        """
        if self.structured_step is None:
            return acc @ self.evolution
        _, gather, runs, scale, phase = self._slot_order
        # rows first, (m, m) or (m, A, m), so that a run of slot rows is one
        # leading slice of a 2-D view and each angle's columns ride along
        rows = acc.swapaxes(0, -2).take(gather, 0)
        y = rows.reshape(len(rows), -1)
        sums = y[: runs[0][1]].copy()
        for first, count in runs[1:]:
            sums[:count] += y[first : first + count]
        sums *= scale
        for first, count in runs:
            y[first : first + count] -= sums[:count]
        rows *= phase
        return rows.swapaxes(0, -2)

    @property
    def structured_step(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """``power_step`` from ``STRUCTURED_STEP_MIN_ARCS`` arcs on, where it
        runs through the arc arrays; None below, where the step is the dense
        matmul that a caller can batch instead (``linalg.power_stack``)."""
        return self.power_step if len(self.arc_index) >= STRUCTURED_STEP_MIN_ARCS else None

    @cached_property
    def step_order(self) -> np.ndarray:
        """The arc of each row (and column) of the powers ``power_step``
        takes and returns: slot order from ``STRUCTURED_STEP_MIN_ARCS`` arcs
        on, arc order below.  Read-only."""
        if self.structured_step:
            return self._slot_order[0]
        order = np.arange(len(self.arc_index))
        order.flags.writeable = False
        return order

    @cached_property
    def _slot_order(self):
        """The arcs in slot order, the row order of the structured step.

        Origin blocks are contiguous, since arcs are sorted by origin.  They
        are ranked by size, largest first, and slot k holds the k-th arc of
        every block with more than k arcs.  Those blocks are a prefix of the
        ranking, so each slot is one run of rows that lines up with the
        first rows of the block sums.  Returns the arc of each slot row
        (read-only); per slot row, the slot row it reads (that of its arc's
        inverse); the (first row, row count) of each slot; 2/deg per ranked
        block; and -e^{-i theta(a)} per slot row, negated because the rows
        hold x - sums; for a tuple of angles, (m, A, 1).
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
        arcs.flags.writeable = False
        inverse = index.inverse[arcs]
        gather = np.argsort(arcs)[inverse]
        phase = -self.phases[..., inverse].T
        return arcs, gather, runs, (2.0 / sizes)[:, None], phase[..., None]


def evolution_entrywise(graph: MixedGraph, phases: np.ndarray) -> np.ndarray:
    """Independent entrywise construction of the evolution matrix:
    U[a,b] = e^{-i theta(a)} (2/deg t(b) * [o(a) = t(b)] - [a = b^-1]),
    with ``phases`` holding e^{i theta(a)} per arc of ``graph.arc_index``;
    phases ``(A, m)`` give the ``(A, m, m)`` stack, the real bracket built once.

    Evaluated by broadcasting over all arc pairs; it never forms the shift,
    the coin or a matrix product, so it stays a second route to U."""
    index = graph.arc_index
    m = len(index)
    _check_dense_size(m)
    degrees = np.asarray(graph.degrees, dtype=float)
    u = np.zeros((m, m))
    np.multiply(
        index.origin[:, None] == index.terminus[None, :],
        2.0 / degrees[index.terminus],
        out=u,
    )
    u[index.inverse, np.arange(m)] -= 1.0
    return u * phases.conj()[..., :, None]


def time_evolution(graph: MixedGraph, eta: Angle | tuple[Angle, ...]) -> WalkOperators:
    """The walk on ``graph`` at angle ``eta``, or at each angle of a tuple;
    no dense operator is built until one is read."""
    return WalkOperators(graph, eta)


@dataclass(frozen=True)
class SpectralMapReport:
    """Predicted evolution spectrum and how well the trace moments confirm it."""

    predicted: tuple[tuple[complex, int], ...]
    m_plus_1: int
    m_minus_1: int
    trace_moment_residuals: tuple[float, ...]


def spectral_map_check(
    graph: MixedGraph, eta: Angle | tuple[Angle, ...]
) -> SpectralMapReport | list[SpectralMapReport]:
    """Predict the evolution spectrum from the normalized adjacency spectrum.

    Each normalized eigenvalue lam maps to the conjugate pair
    e^{+-i arccos lam} (a single eigenvalue when lam = +-1), and the flat
    +-1 eigenspaces contribute |arcs|/2 - |V| + dim ker(Hn -+ I) extra
    copies each.  Rather than diagonalizing the evolution matrix, the
    prediction is validated through the residuals |tr(U^k) - sum mu^k| for
    k = 1..TRACE_MOMENTS.

    A tuple of A angles gives a list of A reports, one per angle, from one
    stacked ``eigvalsh`` (``linalg.hermitian_eigenvalues``), one stacked
    evolution and one power stack; each angle's prediction and residuals
    are its own.  A single angle is the one-angle stack.
    """
    etas = eta if isinstance(eta, tuple) else (eta,)
    ops = time_evolution(graph, etas)
    n_arcs = len(ops.arc_index)
    predictions = [
        _predicted_spectrum(spec, n_arcs, graph.n_vertices)
        for spec in linalg.hermitian_eigenvalues(normalized_h_eta(graph, etas))
    ]
    # reading U runs the size guard and the gate before any power is formed
    powers = linalg.power_stack(ops.evolution, TRACE_MOMENTS)
    # each trace sums one contiguous diagonal, in the same order at every stack size
    traces = np.ascontiguousarray(powers.diagonal(0, -2, -1)).sum(axis=-1)
    reports = []
    for (spectrum, m_plus, m_minus), row in zip(predictions, traces):
        values, mults = np.array(spectrum).T
        moments = (mults * values ** np.arange(1, TRACE_MOMENTS + 1)[:, None]).sum(axis=1)
        residuals = tuple(float(r) for r in np.abs(row - moments))
        reports.append(SpectralMapReport(spectrum, m_plus, m_minus, residuals))
    return reports if isinstance(eta, tuple) else reports[0]


def _predicted_spectrum(spec: tuple[tuple[complex, int], ...], n_arcs: int, n_vertices: int):
    """The predicted evolution spectrum for one normalized spectrum, both as
    (value, multiplicity) pairs, with its flat +1 and -1 multiplicities."""
    lams = [(v.real, m) for v, m in spec]
    for lam, _ in lams:
        if abs(lam) > 1.0 + SPECTRAL_CLAMP_TOL:
            raise ContractViolationError(
                f"normalized eigenvalue {lam} exceeds the unit interval"
            )
    group = linalg.EIGENVALUE_GROUP_TOL
    dim_ker_plus = sum(m for lam, m in lams if abs(lam - 1.0) <= group)
    dim_ker_minus = sum(m for lam, m in lams if abs(lam + 1.0) <= group)
    m_plus = n_arcs // 2 - n_vertices + dim_ker_plus
    m_minus = n_arcs // 2 - n_vertices + dim_ker_minus
    if m_plus < 0 or m_minus < 0:
        # would be silently absorbed by list repetition below
        raise InternalConsistencyError(
            f"flat eigenspace count went negative ({m_plus}, {m_minus})"
        )
    predicted: list[complex] = [1.0 + 0j] * m_plus + [-1.0 + 0j] * m_minus
    for lam, m in lams:
        if abs(lam - 1.0) <= group:
            predicted += [1.0 + 0j] * m
        elif abs(lam + 1.0) <= group:
            predicted += [-1.0 + 0j] * m
        else:
            phi = math.acos(min(1.0, max(-1.0, lam)))
            predicted += [complex(np.exp(1j * phi)), complex(np.exp(-1j * phi))] * m
    return linalg.group_values(predicted, 1e-9), m_plus, m_minus
