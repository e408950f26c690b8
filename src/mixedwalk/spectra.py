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

from .errors import DomainError
from .graphs import MixedGraph
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
        if self.q == 0:
            raise DomainError("rational angle needs q != 0")
        p, q = int(self.p), int(self.q)
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g:
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


def angle_radians(eta: Angle) -> float:
    """Radians in [0, 2*pi) for either angle representation."""
    if isinstance(eta, RationalAngle):
        return eta.radians
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


def h_eta(graph: MixedGraph, eta: Angle) -> np.ndarray:
    """Phased Hermitian adjacency matrix of a mixed graph.

    Entries: 1 on digons, ``e^{i eta}`` on an arc (x, y) with no reverse,
    the conjugate on the reverse position, 0 elsewhere.  Hermitian exactly,
    by construction in conjugate pairs.
    """
    w = complex(np.exp(1j * angle_radians(eta)))
    phase = {0: complex(1.0), 1: w, -1: w.conjugate()}
    h = np.zeros((graph.n_vertices, graph.n_vertices), dtype=complex)
    for u, v in graph.edges:
        z = phase[graph.edge_sign(u, v)]
        h[u, v] = z
        h[v, u] = z.conjugate()
    return h


def normalized_h_eta(graph: MixedGraph, eta: Angle) -> np.ndarray:
    """Degree-normalized variant D^{-1/2} H D^{-1/2}; spectral radius <= 1."""
    degs = graph.degrees
    if any(d == 0 for d in degs):
        raise DomainError("normalization needs every degree >= 1")
    scale = 1.0 / np.sqrt(np.asarray(degs, dtype=float))
    return h_eta(graph, eta) * scale[:, None] * scale[None, :]


def det_path_closed(n: int) -> float:
    """Closed-form determinant of the matrix of the undirected path on n vertices.

    Zero for odd n, otherwise (-1)^(n/2 mod 2); independent of the angle.
    Parity is resolved in integer arithmetic.
    """
    if n < 1:
        raise DomainError(f"path determinant needs n >= 1, got {n}")
    if n % 2 == 1:
        return 0.0
    return float((-1) ** ((n // 2) % 2))


def det_cycle_closed(n: int, j: int, eta: Angle) -> float:
    """Closed-form determinant for the type-j mixed cycle on n vertices."""
    if n < 3:
        raise DomainError(f"cycle determinant needs n >= 3, got {n}")
    if not 0 <= j <= n:
        raise DomainError(f"cycle type j={j} outside 0..{n}")
    lead = 2.0 if n % 2 == 1 else -2.0  # (-1)^(n+1) * 2
    tail = 0 if n % 2 == 1 else 2 * (-1) ** ((n // 2) % 2)
    return lead * math.cos(j * angle_radians(eta)) + tail


def _cycle_matching_count(n: int, k: int) -> int:
    """Number of k-matchings of the undirected n-cycle."""
    if k == 0:
        return 1
    return math.comb(n - k, k) + math.comb(n - k - 1, k - 1)


def cycle_charpoly_closed(n: int, j: int, eta: Angle) -> np.ndarray:
    """Characteristic polynomial of the type-j mixed cycle, low-to-high coefficients.

    The lambda^(n-2k) coefficients are the signed matching counts of the
    undirected cycle; only the constant term feels the angle, and it stays
    consistent with ``det_cycle_closed`` through c_0 = (-1)^n det.
    """
    if n < 3:
        raise DomainError(f"cycle charpoly needs n >= 3, got {n}")
    if not 0 <= j <= n:
        raise DomainError(f"cycle type j={j} outside 0..{n}")
    coeffs = np.zeros(n + 1, dtype=complex)
    for k in range((n - 1) // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * _cycle_matching_count(n, k)
    tail = 0 if n % 2 == 1 else 2 * (-1) ** ((n // 2) % 2)
    coeffs[0] += -2.0 * math.cos(j * angle_radians(eta)) + tail
    return coeffs


def charpoly_tail_coefficient(coeffs: np.ndarray, l: int) -> complex:
    """Coefficient of lambda^(n-l) in a degree-n low-to-high polynomial."""
    n = len(coeffs) - 1
    return complex(coeffs[n - l])


def coefficient_gaps_below_girth(graph: MixedGraph, etas: Sequence[Angle]) -> np.ndarray:
    """For each angle, the largest |difference| between the graph's and its
    underlying graph's coefficients of lambda^(n-l), over every l below the
    girth and over both the plain and the normalized matrix.

    Trees have infinite girth, so for them every coefficient is compared.
    The two graphs' matrices stay separate inputs to one ``charpoly`` call
    on a ``(2, 2 * len(etas), n, n)`` stack.  A NaN coefficient gives a NaN
    gap.
    """
    n = graph.n_vertices
    s = graph.girth()
    limit = n if math.isinf(s) else int(s) - 1
    stack = [
        [build(h, eta) for eta in etas for build in (h_eta, normalized_h_eta)]
        for h in (graph, graph.underlying())
    ]
    coeffs = linalg.charpoly(np.array(stack, dtype=complex).reshape(2, 2 * len(etas), n, n))
    diff = coeffs[0, :, n - limit : n] - coeffs[1, :, n - limit : n]
    # hypot, as Python's abs(complex) computes it; np.abs may differ by an ulp
    gaps = np.hypot(diff.real, diff.imag)
    return gaps.reshape(len(etas), 2 * limit).max(axis=1)


def coefficients_agree_up_to_girth(graph: MixedGraph, eta: Angle) -> bool:
    """Whether the characteristic polynomial of the graph matches its
    underlying graph's on every coefficient of lambda^(n-l) for l below the
    girth, for both the plain and the normalized matrix, to
    ``COSPECTRAL_TOL``.  A NaN gap is disagreement.

    Trees have infinite girth, so for them this is full cospectrality.
    """
    return bool(coefficient_gaps_below_girth(graph, (eta,))[0] <= COSPECTRAL_TOL)


def cospectral(g1: MixedGraph, g2: MixedGraph, eta: Angle) -> bool:
    """Equality of the sorted eigenvalues of the two phased matrices, to
    ``COSPECTRAL_TOL`` times the larger spectral radius (at least 1).

    Hermitian eigenvalues are well conditioned, while characteristic-
    polynomial coefficients grow combinatorially with n, so comparing
    coefficients to an absolute tolerance fails on large trees.  Raw
    eigenvalues are compared, not a grouped ``Spectrum``, so the answer does
    not couple to the multiplicity-grouping tolerance.
    """
    if g1.n_vertices != g2.n_vertices:
        return False
    a = np.linalg.eigvalsh(h_eta(g1, eta))
    b = np.linalg.eigvalsh(h_eta(g2, eta))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return bool(np.max(np.abs(a - b)) <= COSPECTRAL_TOL * scale)
