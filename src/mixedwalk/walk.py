"""Discrete-time quantum walk operators on the arc space of a mixed graph.

The state space is spanned by the symmetric arcs.  The evolution is the
product of an arc-reversing shift, which carries a phase of +-eta on
one-directional arcs, and the degree-weighted reflection coin.  The
evolution matrix is always built twice, as the operator product and from
its entrywise formula, and the two must agree; that agreement is the
module's core correctness gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InternalConsistencyError
from .graphs import ArcIndex, MixedGraph
from .spectra import Angle, angle_radians, normalized_h_eta
from . import linalg

EVOLUTION_AGREEMENT_TOL = 1e-10
SPECTRAL_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class EtaFunction:
    """Arc phase assignment: +eta on one-directional arcs, -eta on their
    reverses, 0 on digons.  Stored as integer signs so the antisymmetry
    theta(a^-1) = -theta(a) is exact."""

    signs: tuple[int, ...]
    eta: Angle

    @classmethod
    def from_graph(cls, graph: MixedGraph, index: ArcIndex, eta: Angle) -> "EtaFunction":
        return cls(tuple(graph.edge_sign(o, t) for o, t in index.arcs), eta)

    def theta(self, i: int) -> float:
        return self.signs[i] * angle_radians(self.eta)

    def phases(self) -> np.ndarray:
        """e^{i theta(a)} per arc position."""
        rad = angle_radians(self.eta)
        return np.exp(1j * rad * np.asarray(self.signs, dtype=float))


@dataclass(frozen=True)
class WalkOperators:
    """The four walk matrices plus the arc order they are written in."""

    boundary: np.ndarray
    coin: np.ndarray
    shift: np.ndarray
    evolution: np.ndarray
    arc_index: ArcIndex
    eta_function: EtaFunction


def boundary(graph: MixedGraph, index: ArcIndex | None = None) -> np.ndarray:
    """Vertex-by-arc averaging operator: row x has 1/sqrt(deg x) on every
    arc terminating at x.  Satisfies K K* = I."""
    index = index or ArcIndex(graph)
    k = np.zeros((graph.n_vertices, len(index)), dtype=complex)
    for i, (_, t) in enumerate(index.arcs):
        k[t, i] = 1.0 / math.sqrt(graph.degree(t))
    return k


def coin(graph: MixedGraph, index: ArcIndex | None = None) -> np.ndarray:
    """Reflection coin 2 K* K - I; block diagonal over arcs grouped by terminus."""
    k = boundary(graph, index)
    m = k.shape[1]
    return 2.0 * (k.conj().T @ k) - np.eye(m, dtype=complex)


def shift(graph: MixedGraph, eta: Angle, index: ArcIndex | None = None) -> np.ndarray:
    """Phased arc reversal: entry e^{i theta(b)} at position (b^-1, b)."""
    index = index or ArcIndex(graph)
    theta = EtaFunction.from_graph(graph, index, eta)
    phases = theta.phases()
    m = len(index)
    s = np.zeros((m, m), dtype=complex)
    for b in range(m):
        s[index.inverse(b), b] = phases[b]
    return s


def evolution_entrywise(
    graph: MixedGraph, index: ArcIndex, theta: EtaFunction
) -> np.ndarray:
    """Independent entrywise construction of the evolution matrix:
    U[a,b] = e^{-i theta(a)} (2/deg t(b) * [o(a) = t(b)] - [a = b^-1])."""
    m = len(index)
    u = np.zeros((m, m), dtype=complex)
    conj_phases = theta.phases().conj()
    for a in range(m):
        for b in range(m):
            val = 0.0
            if index.origin(a) == index.terminus(b):
                val += 2.0 / graph.degree(index.terminus(b))
            if a == index.inverse(b):
                val -= 1.0
            if val:
                u[a, b] = conj_phases[a] * val
    return u


def time_evolution(graph: MixedGraph, eta: Angle) -> WalkOperators:
    """Build all walk operators; the product form and the entrywise formula
    for the evolution must agree or construction aborts."""
    index = ArcIndex(graph)
    theta = EtaFunction.from_graph(graph, index, eta)
    k = boundary(graph, index)
    c = 2.0 * (k.conj().T @ k) - np.eye(len(index), dtype=complex)
    s = shift(graph, eta, index)
    u = s @ c
    u_check = evolution_entrywise(graph, index, theta)
    disagreement = float(np.max(np.abs(u - u_check))) if len(index) else 0.0
    if disagreement > EVOLUTION_AGREEMENT_TOL:
        raise InternalConsistencyError(
            f"evolution product and entrywise formula disagree by {disagreement:.3e}"
        )
    return WalkOperators(
        boundary=k, coin=c, shift=s, evolution=u, arc_index=index, eta_function=theta
    )


@dataclass(frozen=True)
class SpectralMapReport:
    """Predicted evolution spectrum and how well the trace moments confirm it."""

    predicted: linalg.Spectrum
    m_plus_1: int
    m_minus_1: int
    trace_moment_residuals: tuple[float, ...]


def spectral_map_check(graph: MixedGraph, eta: Angle, k_max: int = 10) -> SpectralMapReport:
    """Predict the evolution spectrum from the normalized adjacency spectrum.

    Each normalized eigenvalue lam maps to the conjugate pair
    e^{+-i arccos lam} (a single eigenvalue when lam = +-1), and the flat
    +-1 eigenspaces contribute |arcs|/2 - |V| + dim ker(Hn -+ I) extra
    copies each.  Rather than diagonalizing the evolution matrix, the
    prediction is validated through the residuals |tr(U^k) - sum mu^k| for
    k = 1..k_max.
    """
    if k_max < 1:
        raise ContractViolationError(f"k_max must be >= 1, got {k_max}")
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
    acc = np.eye(n_arcs, dtype=complex)
    for k in range(1, k_max + 1):
        acc = acc @ ops.evolution
        moment = sum(mult * value**k for value, mult in spectrum.pairs)
        residuals.append(float(abs(np.trace(acc) - moment)))
    return SpectralMapReport(
        predicted=spectrum,
        m_plus_1=m_plus,
        m_minus_1=m_minus,
        trace_moment_residuals=tuple(residuals),
    )
