"""Seeded input sets of the four workloads.

The graphs come from the benchmark's own random families, so the program
under test receives nothing but JSON files and command lines.  Each
workload follows a fixed size schedule; the seed picks orientations,
vertex labels and angles.  Where an operation's cost depends on the cycle
type or the angle (the powering cross-check of small cycles), the schedule
fixes those too and the seed only rearranges the arcs, so that every seed
asks for the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPECTRUM_ANGLES = ((1, 3), (1, 4), (2, 5), (1, 5), (3, 7), (2, 3), (3, 4), (1, 6))
PERIOD_ANGLES = ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (1, 6), (5, 6), (1, 7), (3, 7))

# Trees of this size trip the absolute 1e-8 tolerance of the program's
# charpoly comparison (coefficient gaps of 4e-5 and 19 on these two);
# smaller seeded trees (n <= 16) stay below 3e-11.  They are generated from a fixed seed so
# that the operations that fail are the same on every run.
FAULT_TREE_SEED = 20210416
FAULT_TREE_SIZES = (32, 40)

POWERING_CAP = 64

# These verify checks never read their seed.  They run at three seeds and
# the others at two: with an equal count per check the median would fall
# exactly on the boundary between the sixth and seventh slowest checks, the
# mean of two extreme samples; with these counts the median and the 90th
# percentile fall inside a group of equal operations.
SEEDLESS_CHECKS = frozenset({
    "quarter-turn-determinant-table",
    "cycle-determinant-closed-form",
    "path-determinant-closed-form",
    "cycle-period-formula",
    "irrational-angle-non-periodic",
    "cycle-return-phase",
})


@dataclass
class Case:
    """One operation of a round: a CLI command line or one verify check."""

    kind: str  # "spectrum", "classify-cycle", "period" or "verify"
    label: str
    graph: dict | None = None
    eta: tuple[int, int] | str | None = None  # (p, q) for pi*p/q, or decimal radians
    cap: int | None = None
    check: str = ""
    check_seed: int = 0
    known_fault: bool = False
    path: str = ""

    def argv(self) -> list[str]:
        eta = f"pi*{self.eta[0]}/{self.eta[1]}" if isinstance(self.eta, tuple) else self.eta
        argv = [self.kind, "--graph", self.path, "--eta", eta]
        if self.cap is not None:
            argv += ["--cap", str(self.cap)]
        return argv


# Oriented edges are (u, v, s): s = +1 is the arc u->v alone, -1 the arc
# v->u alone, 0 a digon.


def graph_json(n: int, oriented) -> dict:
    return {
        "n": n,
        "arcs": [[u, v] if s > 0 else [v, u] for u, v, s in oriented if s],
        "edges": [[u, v] for u, v, s in oriented if not s],
    }


def _orient(rng, edges):
    signs = rng.integers(-1, 2, size=len(edges))
    return [(u, v, int(s)) for (u, v), s in zip(edges, signs)]


def _relabel(rng, n: int, oriented):
    perm = rng.permutation(n)
    return [(int(perm[u]), int(perm[v]), s) for u, v, s in oriented]


def _tree_edges(rng, n: int, start: int = 1):
    return [(int(rng.integers(0, i)), i) for i in range(start, n)]


def _cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def random_tree(rng, n: int) -> dict:
    return graph_json(n, _relabel(rng, n, _orient(rng, _tree_edges(rng, n))))


def random_unicyclic(rng, n: int) -> dict:
    c = int(rng.integers(3, n + 1))
    edges = _cycle_edges(c) + _tree_edges(rng, n, start=c)
    return graph_json(n, _relabel(rng, n, _orient(rng, edges)))


def random_cycle(rng, n: int) -> dict:
    return graph_json(n, _relabel(rng, n, _orient(rng, _cycle_edges(n))))


def cycle_with_gain(rng, n: int, j: int) -> dict:
    """Random mixed cycle whose net gain along the traversal is exactly j."""
    minus = int(rng.integers(0, (n - j) // 2 + 1))
    signs = [1] * (j + minus) + [-1] * minus + [0] * (n - j - 2 * minus)
    signs = [int(s) for s in rng.permutation(signs)]
    oriented = [(u, v, s) for (u, v), s in zip(_cycle_edges(n), signs)]
    return graph_json(n, _relabel(rng, n, oriented))


def random_path(rng, n: int) -> dict:
    edges = [(i, i + 1) for i in range(n - 1)]
    return graph_json(n, _relabel(rng, n, _orient(rng, edges)))


def random_chorded(rng, n: int, n_edges: int, min_max_degree: int = 0) -> dict:
    """Random tree plus uniformly drawn chords, exactly n_edges edges in all."""
    while True:
        edges = _tree_edges(rng, n)
        present = {frozenset(e) for e in edges}
        while len(edges) < n_edges:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v and frozenset((u, v)) not in present:
                present.add(frozenset((u, v)))
                edges.append((u, v))
        degree = np.bincount(np.array(edges).ravel(), minlength=n)
        if degree.max() >= min_max_degree:
            return graph_json(n, _relabel(rng, n, _orient(rng, edges)))


def _angle(rng, angles):
    return angles[int(rng.integers(0, len(angles)))]


def spread_cycle(rng, n: int, forward: int, backward: int) -> dict:
    """Mixed cycle with its one-directional arcs at jittered, evenly spaced
    edges.  Canonicalization slides each arc by about the same distance
    whatever the seed, so its cost depends on n and the arc counts only."""
    slots = forward + backward
    gap = n // slots
    signs = [0] * n
    for k, s in enumerate(rng.permutation([1] * forward + [-1] * backward)):
        signs[k * gap + int(rng.integers(0, max(1, gap // 2)))] = int(s)
    oriented = [(u, v, s) for (u, v), s in zip(_cycle_edges(n), signs)]
    return graph_json(n, _relabel(rng, n, oriented))


def spectrum_classify(seed: int, check_names=()) -> list[Case]:
    # Sizes are spaced so that the operations around the median and the
    # 90th percentile cost about the same: the Jacobi eigen-solver sets the
    # cost of spectrum, the number of switching moves that of classify-cycle.
    rng = np.random.default_rng([seed, 1])
    cases = [Case("spectrum", f"tree-n{n}", random_tree(rng, n), _angle(rng, SPECTRUM_ANGLES))
             for n in (8, 10, 12, 14, 16)]
    cases += [Case("classify-cycle", f"classify-n{n}", spread_cycle(rng, n, n // 8 + 2, 2), _angle(rng, SPECTRUM_ANGLES))
              for n in (16, 24, 32, 40, 48, 56, 64, 80, 96, 128)]
    cases += [Case("spectrum", f"unicyclic-n{n}", random_unicyclic(rng, n), _angle(rng, SPECTRUM_ANGLES))
              for n in (16, 20, 24, 28, 32, 56)]
    cases += [Case("spectrum", f"cycle-n{n}", random_cycle(rng, n), _angle(rng, SPECTRUM_ANGLES))
              for n in (20, 24, 28, 32, 40, 64)]
    cases += [Case("spectrum", f"chorded-n{n}", random_chorded(rng, n, n - 1 + n // 4), _angle(rng, SPECTRUM_ANGLES))
              for n in (24, 28, 32, 40, 48, 56, 64, 96)]
    fixed = np.random.default_rng(FAULT_TREE_SEED)
    cases += [Case("spectrum", f"fault-tree-n{n}", random_tree(fixed, n), (1, 3), known_fault=True)
              for n in FAULT_TREE_SIZES]
    return cases


def period_exact(seed: int, check_names=()) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    cases = [Case("period", f"path-n{n}", random_path(rng, n), _angle(rng, PERIOD_ANGLES))
             for n in range(3, 17)]
    # Cycles with at most 32 arcs are confirmed by powering up to the
    # period, so their type and angle are fixed by n.
    for n in range(3, 17):
        j = (n // 2) if n % 2 else (n // 3)
        p, q = PERIOD_ANGLES[n % len(PERIOD_ANGLES)]
        cases.append(Case("period", f"cycle-n{n}-j{j}", cycle_with_gain(rng, n, j), (p, q)))
    for n in (20, 40, 80, 120, 160, 200, 240, 300):
        cases.append(Case("period", f"path-n{n}", random_path(rng, n), _angle(rng, PERIOD_ANGLES)))
        cases.append(Case("period", f"cycle-n{n}", random_cycle(rng, n), _angle(rng, PERIOD_ANGLES)))
    return cases


def powering_dense(seed: int, check_names=()) -> list[Case]:
    rng = np.random.default_rng([seed, 3])
    cases = []
    for arcs in range(60, 301, 12):
        n_edges = arcs // 2
        n = max(8, round(n_edges / 1.6))
        eta = f"{rng.uniform(0.2, 3.0):.6f}"
        graph = random_chorded(rng, n, n_edges, min_max_degree=3)
        cases.append(Case("period", f"dense-m{arcs}", graph, eta, cap=POWERING_CAP))
    return cases


def verify_suite(seed: int, check_names=()) -> list[Case]:
    cases = []
    for k in range(3):
        for name in check_names:
            if k < (3 if name in SEEDLESS_CHECKS else 2):
                check_seed = 3 * seed + k
                cases.append(Case("verify", f"{name}@{check_seed}", check=name, check_seed=check_seed))
    return cases


WORKLOADS = {
    "spectrum-classify": spectrum_classify,
    "period-exact": period_exact,
    "powering-dense": powering_dense,
    "verify-suite": verify_suite,
}

