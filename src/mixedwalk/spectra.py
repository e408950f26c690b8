"""Phased Hermitian adjacency matrices and their closed-form invariants.

A mixed graph together with an angle ``eta`` determines a Hermitian matrix
whose entries are 1 on digons and ``e^{+-i eta}`` on one-directional arcs.
This module builds those matrices (plain and degree-normalized), provides
the closed-form determinants and characteristic polynomials known for
paths and canonical mixed cycles, and tests cospectrality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, DomainError, whole
from .graphs import MixedGraph, cycle_shape
from . import linalg

COSPECTRAL_TOL = 1e-8

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RationalAngle:
    """The angle p*pi/q in lowest terms, normalized into [0, 2*pi).

    Keeping p and q as integers lets the period formulas run on exact gcd
    arithmetic instead of floats.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = whole(self.p, "rational angle p"), whole(self.q, "rational angle q")
        if q == 0:
            raise DomainError("rational angle needs q != 0")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)  # at least 1, since q != 0
        p //= g
        q //= g
        p %= 2 * q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def radians(self) -> float:
        return math.pi * self.p / self.q

    def __str__(self) -> str:
        return f"pi*{self.p}/{self.q}"


Angle = Union[RationalAngle, float]


def angle_radians(eta: Angle | tuple[Angle, ...]) -> float | np.ndarray:
    """Radians in [0, 2*pi) for either angle representation.  A tuple of A
    angles gives them as an ``(A, 1)`` column, which broadcasts a per-angle
    factor along a trailing axis."""
    if isinstance(eta, RationalAngle):
        return eta.radians
    if isinstance(eta, tuple):
        return np.array([angle_radians(e) for e in eta], dtype=float).reshape(-1, 1)
    x = math.fmod(float(eta), TWO_PI)
    if x < 0:
        x += TWO_PI
    return x


#: Angle grid used throughout the property and acceptance tests: rational
#: multiples of pi exercising both parities of p, plus one irrational angle.
ETA_GRID: tuple[Angle, ...] = (
    RationalAngle(0, 1),
    RationalAngle(1, 5),
    RationalAngle(1, 3),
    RationalAngle(1, 2),
    RationalAngle(2, 3),
    1.0,
)


#: i * s for the edge signs s = 0, +1, -1 (index -1), the exponents of ``sign_phases``.
_I_SIGNS = np.array([0.0, 1j, -1j])


def sign_phases(eta: Angle | tuple[Angle, ...]) -> np.ndarray:
    """e^{i s eta} for the edge signs s = 0, +1, -1 (index -1): shape ``(3,)``,
    or ``(A, 3)`` for a tuple of A angles.  The digon entry is 1 at every
    angle, a NaN one included."""
    table = np.exp(angle_radians(eta) * _I_SIGNS)
    table[..., 0] = 1.0
    return table


def h_eta(graph: MixedGraph, eta: Angle | tuple[Angle, ...]) -> np.ndarray:
    """Phased Hermitian adjacency matrix of a mixed graph.

    Entries: 1 on digons, ``e^{i eta}`` on an arc (x, y) with no reverse,
    the conjugate on the reverse position, 0 elsewhere.  Hermitian exactly,
    by construction in conjugate pairs.  A tuple of A angles gives the
    ``(A, n, n)`` stack of their matrices, from the same scatter.
    """
    z = sign_phases(eta).take(graph.signs, -1)
    h = np.zeros(z.shape[:-1] + (graph.n_vertices, graph.n_vertices), dtype=complex)
    u, v = graph.edges[:, 0], graph.edges[:, 1]  # two column views; unpacking .T costs more
    h[..., u, v] = z
    h[..., v, u] = z.conj()
    return h


def normalized_h_eta(
    graph: MixedGraph, eta: Angle | tuple[Angle, ...], h: np.ndarray | None = None
) -> np.ndarray:
    """Degree-normalized variant D^{-1/2} H D^{-1/2}; spectral radius <= 1.
    ``h``, when the caller built it already, is ``h_eta(graph, eta)``, or
    any stack of matrices of graphs with the same degrees."""
    degs = graph.degrees
    if any(d == 0 for d in degs):
        raise DomainError("normalization needs every degree >= 1")
    scale = 1.0 / np.sqrt(np.asarray(degs, dtype=float))
    return (h_eta(graph, eta) if h is None else h) * scale[:, None] * scale[None, :]


def det_path_closed(n: int) -> float:
    """Closed-form determinant of the matrix of the undirected path on n vertices.

    Zero for odd n, otherwise (-1)^(n/2 mod 2); independent of the angle.
    Parity is resolved in integer arithmetic.
    """
    n = whole(n, "path size n", 1)
    if n % 2 == 1:
        return 0.0
    return float((-1) ** ((n // 2) % 2))


def det_cycle_closed(n: int, j: int, eta: Angle) -> float:
    """Closed-form determinant for the type-j mixed cycle on n vertices."""
    n, j = cycle_shape(n, j)
    lead = 2.0 if n % 2 == 1 else -2.0  # (-1)^(n+1) * 2
    return lead * math.cos(j * angle_radians(eta)) + 2 * det_path_closed(n)


def _cycle_matching_count(n: int, k: int) -> int:
    """Number of k-matchings of the undirected n-cycle."""
    if k == 0:
        return 1
    return math.comb(n - k, k) + math.comb(n - k - 1, k - 1)


def cycle_charpoly_closed(n: int, j: int, eta: Angle) -> np.ndarray:
    """Characteristic polynomial of the type-j mixed cycle, low-to-high coefficients.

    The lambda^(n-2k) coefficients are the signed matching counts of the
    undirected cycle; only the constant term feels the angle, and it is
    c_0 = (-1)^n det, with det from ``det_cycle_closed``.
    """
    constant = (-1) ** n * det_cycle_closed(n, j, eta)  # it checks n and j before any array is built
    coeffs = np.zeros(n + 1, dtype=complex)
    for k in range((n - 1) // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * _cycle_matching_count(n, k)
    coeffs[0] = constant
    return coeffs


def coefficient_gaps_below_girth(
    graphs: MixedGraph | Sequence[MixedGraph], etas: Sequence[Angle]
) -> np.ndarray:
    """For each angle, the largest |difference| between a graph's and its
    underlying graph's coefficients of lambda^(n-l), over every l below the
    girth and over both the plain and the normalized matrix.

    Trees have infinite girth, so for them every coefficient is compared.
    The underlying graph's two matrices do not depend on the angle, so they
    are built once, at angle 0, and every angle is compared against them.
    The two graphs' matrices stay separate slices of one ``charpoly`` input,
    each angle's plain matrix beside its normalized one, the underlying
    graph's last.  Agreement is a gap at most ``COSPECTRAL_TOL``; a NaN
    coefficient gives a NaN gap, which is not.

    One graph gives A gaps, from an ``(A + 1, 2, n, n)`` stack.  A sequence
    of G graphs on n vertices each, of any girths, gives a ``(G, A)`` array
    from one ``charpoly`` call on their ``(G, A + 1, 2, n, n)`` stack, each
    row bit-identical to its graph's own call.
    """
    one = isinstance(graphs, MixedGraph)
    graphs, etas = (graphs,) if one else tuple(graphs), tuple(etas)
    n = graphs[0].n_vertices if graphs else 0
    if any(g.n_vertices != n for g in graphs):
        raise DimensionError("the graphs of one call must have the same number of vertices")
    a = len(etas)
    h = np.empty((len(graphs), a + 1, 2, n, n), dtype=complex)
    limits = np.empty(len(graphs), dtype=int)
    for i, g in enumerate(graphs):
        s = g.girth()
        limits[i] = n if math.isinf(s) else int(s) - 1
        h[i, :a, 0] = h_eta(g, etas)
        h[i, a:, 0] = h_eta(g.underlying(), (0.0,))
        # the underlying graph has the same degrees, so one scale serves both
        h[i, :, 1] = normalized_h_eta(g, etas, h[i, :, 0])
    coeffs = linalg.charpoly(h)[..., :n]
    diff = coeffs[:, :-1] - coeffs[:, -1:]
    # hypot, as Python's abs(complex) computes it; np.abs may differ by an ulp
    gaps = np.hypot(diff.real, diff.imag)
    # only the coefficients of lambda^(n-l) with l below the girth count; the
    # others read 0, at most any gap, and a NaN among the kept ones stays
    below = np.arange(n) >= n - limits[:, None, None, None]
    gaps = np.where(below, gaps, 0.0).max(axis=(2, 3), initial=0.0)
    return gaps[0] if one else gaps


def cospectral(g1: MixedGraph, g2: MixedGraph, eta: Angle | tuple[Angle, ...]) -> bool | list[bool]:
    """Equality of the sorted eigenvalues of the two phased matrices, to
    ``COSPECTRAL_TOL`` times the larger spectral radius (at least 1).  A
    tuple of A angles gives a list of A answers, from one stacked
    ``eigvalsh`` per graph.

    Hermitian eigenvalues are well conditioned, while characteristic-
    polynomial coefficients grow combinatorially with n, so comparing
    coefficients to an absolute tolerance fails on large trees.  Raw
    eigenvalues are compared, not ``linalg.group_values`` pairs, so the
    answer does not couple to the multiplicity-grouping tolerance.
    """
    if g1.n_vertices != g2.n_vertices:
        return [False] * len(eta) if isinstance(eta, tuple) else False
    a = np.linalg.eigvalsh(h_eta(g1, eta))
    b = np.linalg.eigvalsh(h_eta(g2, eta))
    scale = np.maximum(np.maximum(np.abs(a).max(-1), np.abs(b).max(-1)), 1.0)
    return (np.abs(a - b).max(-1) <= COSPECTRAL_TOL * scale).tolist()
