"""Switching moves on mixed cycles and canonicalization to type form.

Conjugating the phased adjacency matrix by a diagonal of unit phases
("switching") preserves the spectrum.  Three named local moves realize
graph-to-graph switchings on cycles:

* ``Sw2`` at x: both incident arcs one-directional and pointing into x;
  both become digons.
* ``Sw3`` at x: both incident arcs one-directional and pointing out of x;
  both become digons.  (Never needed by the canonicalizer, kept for
  completeness.)
* ``Sw4`` at x: one incident arc one-directional into x, the other edge a
  digon; the arc passes through x, so the in-arc becomes a digon and the
  digon becomes an out-arc.

Every mixed cycle reduces, through these moves plus a rotation or
reflection relabeling, to the canonical cycle whose ``j`` one-directional
arcs sit consecutively; ``j`` equals the absolute net gain around the
cycle and is computed independently of the moves as a cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InternalConsistencyError,
    MoveNotApplicableError,
    NotMixedGraphError,
)
from .graphs import MixedGraph, build_cycle
from .spectra import Angle, angle_radians, h_eta
from . import linalg

RECOGNIZE_TOL = 1e-9
DEGENERATE_PHASE_TOL = 1e-6

SW2 = "Sw2"
SW3 = "Sw3"
SW4 = "Sw4"


@dataclass(frozen=True)
class SwitchingFunction:
    """Per-vertex phases alpha(v) = e^{i k(v) eta}, stored as integer exponents.

    Integer exponents make |alpha(v)| = 1 exact and let composed moves
    accumulate without rounding.
    """

    exponents: tuple[int, ...]
    eta: Angle

    @classmethod
    def identity(cls, n: int, eta: Angle) -> "SwitchingFunction":
        return cls((0,) * n, eta)

    def bumped(self, vertex: int, delta: int) -> "SwitchingFunction":
        exps = list(self.exponents)
        exps[vertex] += delta
        return SwitchingFunction(tuple(exps), self.eta)

    def values(self) -> np.ndarray:
        rad = angle_radians(self.eta)
        return np.exp(1j * rad * np.asarray(self.exponents, dtype=float))


def apply_switching(
    graph: MixedGraph, eta: Angle, alpha: SwitchingFunction
) -> np.ndarray:
    """Conjugated matrix D(alpha) H D(alpha)*; same spectrum as H."""
    if len(alpha.exponents) != graph.n_vertices:
        raise DomainError("switching function size does not match the graph")
    d = alpha.values()
    return h_eta(graph, eta) * d[:, None] * d.conj()[None, :]


def recognize_mixed_graph(
    matrix, eta: Angle, tol: float = RECOGNIZE_TOL
) -> MixedGraph:
    """Decode a matrix back into the unique mixed graph it represents.

    Every entry must be 0, 1, or e^{+-i eta} to within ``tol``.  When
    e^{i eta} is within 1e-6 of 1 the arc direction is unobservable, so all
    nonzero entries are read as digons and a warning is emitted.
    """
    m = linalg.as_matrix(matrix)
    n = m.shape[0]
    if linalg.hermitian_defect(m) > linalg.HERMITICITY_TOL:
        raise NotMixedGraphError("matrix is not Hermitian")
    w = complex(np.exp(1j * angle_radians(eta)))
    degenerate = abs(w - 1.0) < DEGENERATE_PHASE_TOL
    if degenerate:
        warnings.warn(
            "phase is indistinguishable from 1; reading every entry as a digon",
            stacklevel=2,
        )
    arcs: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            z = m[u, v]
            if abs(z) <= tol:
                continue
            if degenerate or abs(z - 1.0) <= tol:
                arcs.extend([(u, v), (v, u)])
            elif abs(z - w) <= tol:
                arcs.append((u, v))
            elif abs(z - w.conjugate()) <= tol:
                arcs.append((v, u))
            else:
                raise NotMixedGraphError(
                    f"entry ({u},{v}) = {z:.6g} is not in {{0, 1, e^(+-i eta)}}"
                )
    return MixedGraph(n, tuple(arcs))


def classify_cycle(graph: MixedGraph) -> int:
    """Type of a mixed cycle: absolute net gain along a traversal.

    Independent of starting vertex and direction, and invariant under every
    switching move.
    """
    if not graph.is_cycle_graph():
        raise DomainError("classification needs a mixed cycle")
    return abs(sum(_signs_in_order(graph, graph.cycle_order())))


def named_move(graph: MixedGraph, eta: Angle, move: str, x: int) -> MixedGraph:
    """Apply one switching move at vertex x of a mixed cycle.

    The graph rewrite itself does not depend on the angle; the matrix-level
    identity D(alpha) H D(alpha)* = H' holds for every eta.
    """
    if not graph.is_cycle_graph():
        raise DomainError("switching moves are defined on mixed cycles")
    if not 0 <= x < graph.n_vertices:
        raise DomainError(f"vertex {x} out of range")
    v1, v2 = graph.neighbors(x)
    arcs = set(graph.arcs)

    def one_directional_into(v):
        return (v, x) in arcs and (x, v) not in arcs

    def one_directional_out_of(v):
        return (x, v) in arcs and (v, x) not in arcs

    if move == SW2:
        if not (one_directional_into(v1) and one_directional_into(v2)):
            raise MoveNotApplicableError(
                f"{SW2} at {x} needs both incident arcs one-directional into {x}"
            )
        arcs.update({(x, v1), (x, v2)})
    elif move == SW3:
        if not (one_directional_out_of(v1) and one_directional_out_of(v2)):
            raise MoveNotApplicableError(
                f"{SW3} at {x} needs both incident arcs one-directional out of {x}"
            )
        arcs.update({(v1, x), (v2, x)})
    elif move == SW4:
        if one_directional_into(v1) and graph.is_digon(x, v2):
            inward, digon = v1, v2
        elif one_directional_into(v2) and graph.is_digon(x, v1):
            inward, digon = v2, v1
        else:
            raise MoveNotApplicableError(
                f"{SW4} at {x} needs one arc one-directional into {x} and a digon on the other side"
            )
        arcs.discard((digon, x))
        arcs.add((x, inward))
    else:
        raise DomainError(f"unknown move {move!r}")
    return MixedGraph(graph.n_vertices, tuple(arcs))


@dataclass(frozen=True)
class CycleClassification:
    """Canonical form of a mixed cycle.

    Conjugating the input matrix by the witness and then relabeling the
    vertices yields the matrix of the canonical type-j cycle entrywise;
    ``orientation_reversed`` records whether the relabeling includes the
    reflection that maps the arc-reversed canonical cycle onto itself.
    """

    type_j: int
    orientation_reversed: bool
    witness: SwitchingFunction
    relabeling: tuple[int, ...]
    moves: tuple[tuple[str, int], ...]


def canonicalize_cycle(graph: MixedGraph, eta: Angle) -> CycleClassification:
    """Reduce a mixed cycle to its canonical type by local moves.

    Stage one cancels opposing arc pairs: an arc is slid along digons until
    it meets an opposing arc head-to-head, then both collapse to digons.
    Stage two slides the remaining aligned arcs into one consecutive block,
    leaving the widest digon gap untouched so the slide count stays small.
    The move count is capped at n^2, which stage bounds keep comfortably
    out of reach.
    """
    if not graph.is_cycle_graph():
        raise DomainError("canonicalization needs a mixed cycle")
    n = graph.n_vertices
    j_expected = classify_cycle(graph)
    order = graph.cycle_order()

    current = graph
    witness = SwitchingFunction.identity(n, eta)
    moves: list[tuple[str, int]] = []
    cap = n * n

    def push(move: str, vertex: int):
        nonlocal current, witness
        if len(moves) >= cap:
            raise InternalConsistencyError(
                f"canonicalization exceeded {cap} moves"
            )
        current = named_move(current, eta, move, vertex)
        witness = witness.bumped(vertex, -1 if move == SW3 else 1)
        moves.append((move, vertex))

    def signs_now() -> list[int]:
        return _signs_in_order(current, order)

    # Stage one: cancel +/- pairs.
    while True:
        signs = signs_now()
        if not (1 in signs and -1 in signs):
            break
        a = _first_opposing_pair_start(signs)
        cur = a
        while signs[(cur + 1) % n] == 0:
            push(SW4, order[(cur + 1) % n])
            signs[cur] = 0
            cur = (cur + 1) % n
            signs[cur] = 1
        push(SW2, order[(cur + 1) % n])

    # Stage two: compact the aligned arcs against the widest gap.
    signs = signs_now()
    positions = [i for i, s in enumerate(signs) if s != 0]
    j = len(positions)
    direction = 0 if j == 0 else signs[positions[0]]
    if 0 < j < n:
        front = _front_arc(positions, n, direction)
        target = front
        idx = positions.index(front)
        for step in range(1, j):
            if direction > 0:
                target = (target - 1) % n
                p = positions[(idx - step) % j]
                dist = (target - p) % n
                for k in range(dist):
                    push(SW4, order[(p + k + 1) % n])
            else:
                target = (target + 1) % n
                p = positions[(idx + step) % j]
                dist = (p - target) % n
                for k in range(dist):
                    push(SW4, order[(p - k) % n])

    # Relabel the block onto edges 0..j-1 of the canonical cycle.
    signs = signs_now()
    positions = [i for i, s in enumerate(signs) if s != 0]
    if j == 0 or j == n:  # no gap to respect, any rotation works
        t = 0
    elif direction > 0:
        t = (_front_arc(positions, n, 1) - j + 1) % n
    else:
        t = _front_arc(positions, n, -1)
    relabeling = [0] * n
    reversed_orientation = direction < 0
    for k in range(n):
        if reversed_orientation:
            relabeling[order[(t + j - k) % n]] = k
        else:
            relabeling[order[(t + k) % n]] = k

    if current.relabeled(relabeling) != build_cycle(n, j):
        raise InternalConsistencyError("canonical form does not match its type")
    if j != j_expected:
        raise InternalConsistencyError(
            f"moves produced type {j} but the net gain says {j_expected}"
        )
    return CycleClassification(
        type_j=j,
        orientation_reversed=reversed_orientation,
        witness=witness,
        relabeling=tuple(relabeling),
        moves=tuple(moves),
    )


def _signs_in_order(graph: MixedGraph, order: tuple[int, ...]) -> list[int]:
    """Per-edge signs along a traversal of a mixed cycle.

    Edge i joins order[i] and order[i+1]; sign +1 means the arc follows the
    traversal, -1 opposes it, 0 marks a digon.
    """
    n = len(order)
    return [graph.edge_sign(order[i], order[(i + 1) % n]) for i in range(n)]


def _first_opposing_pair_start(signs: list[int]) -> int:
    """Edge index of a forward arc whose next arc around the cycle opposes it."""
    n = len(signs)
    for i in range(n):
        if signs[i] != 1:
            continue
        k = (i + 1) % n
        while signs[k] == 0:
            k = (k + 1) % n
        if signs[k] == -1:
            return i
    raise InternalConsistencyError("no opposing pair despite mixed signs")


def _front_arc(positions: list[int], n: int, direction: int) -> int:
    """Arc position followed (in slide direction) by the widest digon gap."""
    j = len(positions)
    best_pos, best_gap = positions[0], -1
    for idx, p in enumerate(positions):
        if direction > 0:
            nxt = positions[(idx + 1) % j]
            gap = (nxt - p) % n
        else:
            prv = positions[(idx - 1) % j]
            gap = (p - prv) % n
        if gap > best_gap:
            best_pos, best_gap = p, gap
    return best_pos
