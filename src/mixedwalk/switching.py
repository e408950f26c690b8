"""Switching moves on mixed cycles and canonicalization to type form.

A switching is one integer exponent k(v) per vertex.  It is combinatorial:
the moves, the canonical form and its witness never read the angle.  Only
``apply_switching`` forms a matrix, conjugating H_eta by the diagonal of
unit phases e^{i k(v) eta}, which preserves the spectrum.  Three named
local moves realize graph-to-graph switchings on cycles:

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

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InternalConsistencyError, MoveNotApplicableError
from .graphs import MixedGraph, build_cycle
from .spectra import Angle, angle_radians, h_eta

SW2 = "Sw2"
SW3 = "Sw3"
SW4 = "Sw4"


class _Move(NamedTuple):
    """A move as a rewrite of the signs (in, out) of the two edges at the
    moved vertex, read along a traversal (``_signs_in_order``)."""

    signs: dict[tuple[int, int], tuple[int, int]]
    bump: int  # change of the vertex's switching exponent
    needs: str  # the local pattern, for the error message


MOVES = {
    SW2: _Move({(1, -1): (0, 0)}, 1, "both incident arcs one-directional into the vertex"),
    SW3: _Move({(-1, 1): (0, 0)}, -1, "both incident arcs one-directional out of the vertex"),
    SW4: _Move(
        {(1, 0): (0, 1), (0, -1): (-1, 0)},
        1,
        "one incident arc one-directional into the vertex and a digon on the other side",
    ),
}


def apply_switching(
    graph: MixedGraph, eta: Angle | tuple[Angle, ...], exponents: Sequence[int]
) -> np.ndarray:
    """Conjugated matrix D H_eta D* with D = diag(e^{i k(v) eta}), k(v) the
    integer ``exponents``, one per vertex; same spectrum as H_eta.  A tuple
    of A angles gives the ``(A, n, n)`` stack."""
    if len(exponents) != graph.n_vertices:
        raise DomainError("switching function size does not match the graph")
    d = np.exp(1j * angle_radians(eta) * np.asarray(exponents, dtype=float))
    return h_eta(graph, eta) * d[..., :, None] * d.conj()[..., None, :]


def classify_cycle(graph: MixedGraph) -> int:
    """Type of a mixed cycle: absolute net gain along a traversal.

    Independent of starting vertex and direction, and invariant under every
    switching move.
    """
    return abs(sum(_signs_in_order(graph, graph.cycle_order())))


def named_move(graph: MixedGraph, move: str, x: int) -> MixedGraph:
    """Apply one switching move at vertex x of a mixed cycle.

    The matrix-level identity D H_eta D* = H'_eta, with the move's exponent
    bump at x, holds for every eta.
    """
    if not 0 <= x < graph.n_vertices:
        raise DomainError(f"vertex {x} out of range")
    if move not in MOVES:
        raise DomainError(f"unknown move {move!r}")
    order = graph.cycle_order()
    signs = _signs_in_order(graph, order)
    _apply_move(signs, move, order.index(x), x)
    return _cycle_from_signs(order, signs)


def _apply_move(signs: list[int], move: str, i: int, x: int) -> None:
    """Rewrite in place the signs of edges i-1 and i, which meet at vertex x."""
    rule = MOVES[move]
    try:
        signs[i - 1], signs[i] = rule.signs[(signs[i - 1], signs[i])]
    except KeyError:
        raise MoveNotApplicableError(f"{move} at vertex {x} needs {rule.needs}") from None


def _cycle_from_signs(order: tuple[int, ...], signs: list[int]) -> MixedGraph:
    """Mixed cycle whose edge order[i] - order[i+1] carries signs[i]."""
    n = len(order)
    return MixedGraph(n, edges=[(order[i], order[(i + 1) % n]) for i in range(n)], signs=signs)


@dataclass(frozen=True)
class CycleClassification:
    """Canonical form of a mixed cycle, the same at every angle.

    At each eta, conjugating the input's H_eta by the witness, one integer
    exponent per vertex (``apply_switching``), and then relabeling the
    vertices yields H_eta of the canonical type-j cycle entrywise;
    ``orientation_reversed`` records whether the relabeling includes the
    reflection that maps the arc-reversed canonical cycle onto itself.
    """

    type_j: int
    orientation_reversed: bool
    witness: tuple[int, ...]
    relabeling: tuple[int, ...]
    moves: tuple[tuple[str, int], ...]


def canonicalize_cycle(graph: MixedGraph) -> CycleClassification:
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
    order = graph.cycle_order()
    signs = _signs_in_order(graph, order)
    j_expected = abs(sum(signs))  # classify_cycle's net gain, read before any move
    exponents = [0] * n
    moves: list[tuple[str, int]] = []
    cap = n * n

    def push(move: str, i: int):
        if len(moves) >= cap:
            raise InternalConsistencyError(
                f"canonicalization exceeded {cap} moves"
            )
        vertex = order[i]
        _apply_move(signs, move, i, vertex)
        exponents[vertex] += MOVES[move].bump
        moves.append((move, vertex))

    # Stage one: cancel +/- pairs.
    while 1 in signs and -1 in signs:
        cur = _first_opposing_pair_start(signs)
        while signs[(cur + 1) % n] == 0:
            cur = (cur + 1) % n
            push(SW4, cur)
        push(SW2, (cur + 1) % n)

    # Stage two: compact the aligned arcs against the widest gap, into one
    # block that ends at ``front`` when they point forward and starts there
    # when they point backward; ``t`` is the block's first edge.
    positions = [i for i, s in enumerate(signs) if s != 0]
    j = len(positions)
    direction = 0 if j == 0 else signs[positions[0]]
    t = 0  # j = 0 or n: no gap to respect, any rotation works
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
                    push(SW4, (p + k + 1) % n)
            else:
                target = (target + 1) % n
                p = positions[(idx + step) % j]
                dist = (p - target) % n
                for k in range(dist):
                    push(SW4, (p - k) % n)
        t = (front - j + 1) % n if direction > 0 else front

    # Relabel the block onto edges 0..j-1 of the canonical cycle.
    relabeling = [0] * n
    reversed_orientation = direction < 0
    for k in range(n):
        if reversed_orientation:
            relabeling[order[(t + j - k) % n]] = k
        else:
            relabeling[order[(t + k) % n]] = k

    relabeled_order = tuple(relabeling[v] for v in order)
    if _cycle_from_signs(relabeled_order, signs) != build_cycle(n, j):
        raise InternalConsistencyError("canonical form does not match its type")
    if j != j_expected:
        raise InternalConsistencyError(
            f"moves produced type {j} but the net gain says {j_expected}"
        )
    return CycleClassification(
        type_j=j,
        orientation_reversed=reversed_orientation,
        witness=tuple(exponents),
        relabeling=tuple(relabeling),
        moves=tuple(moves),
    )


def _signs_in_order(graph: MixedGraph, order: tuple[int, ...]) -> list[int]:
    """Per-edge signs along a traversal of a mixed cycle.

    Edge i joins order[i] and order[i+1]; sign +1 means the arc follows the
    traversal, -1 opposes it, 0 marks a digon.
    """
    return [graph.edge_sign(a, b) for a, b in zip(order, order[1:] + order[:1])]


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
