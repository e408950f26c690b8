"""Reference routes and output checks, kept apart from the program.

Nothing here imports mixedwalk.  Every expected answer is rebuilt from the
graph JSON that the benchmark generated: matrices are assembled here and
handed to numpy's LAPACK routines, and periods come from exact integer
arithmetic.  References are computed once per input, outside every timed
window; ``check`` then compares one operation's output with them and
returns the list of problems it found (empty when the output is right).
"""

from __future__ import annotations

import json
import math

import numpy as np

TREE_COSPECTRAL = "tree reported not cospectral with its underlying graph"

EIGENVALUE_TOL = 1e-6  # times max(1, spectral radius); the program groups at 1e-7
DET_BACKWARD_ERROR = 1e-10  # per unit of n * spectral radius
MATRIX_TOL = 1e-9
IDENTITY_TOL = 1e-8  # the program's default identity tolerance for powering
CROSS_CHECK_MAX_ARCS = 32
RATIONAL_HINT_MAX_Q = 64
RATIONAL_HINT_TOL = 1e-12


def oriented(graph: dict):
    """Vertex count and edges (u, v, s): s = 1 for the arc u->v alone, 0 for a digon."""
    edges = [(int(o), int(t), 1) for o, t in graph["arcs"]]
    edges += [(int(u), int(v), 0) for u, v in graph["edges"]]
    return int(graph["n"]), edges


def _signs_and_neighbours(graph: dict):
    n, edges = oriented(graph)
    sign, nbrs = {}, [[] for _ in range(n)]
    for u, v, s in edges:
        sign[(u, v)], sign[(v, u)] = s, -s
        nbrs[u].append(v)
        nbrs[v].append(u)
    return n, sign, nbrs


def eta_radians(eta) -> float:
    if isinstance(eta, tuple):
        return math.pi * eta[0] / eta[1]
    return float(eta)


def reduced(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return p % (2 * q), q


def hermitian(graph: dict, radians: float, underlying: bool = False) -> np.ndarray:
    n, edges = oriented(graph)
    w = np.exp(1j * radians)
    h = np.zeros((n, n), dtype=complex)
    for u, v, s in edges:
        z = w if s and not underlying else 1.0
        h[u, v], h[v, u] = z, np.conj(z)
    return h


def cycle_gain(graph: dict) -> int:
    """Absolute net gain of a mixed cycle along one traversal."""
    n, sign, nbrs = _signs_and_neighbours(graph)
    prev, cur = 0, nbrs[0][0]
    gain = sign[(0, cur)]
    while cur != 0:
        nxt = nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1]
        gain += sign[(cur, nxt)]
        prev, cur = cur, nxt
    return abs(gain)


def canonical_cycle(n: int, j: int) -> dict:
    """Type-j canonical cycle: arcs i->i+1 one-directional for i < j, the rest digons."""
    return {
        "n": n,
        "arcs": [[i, (i + 1) % n] for i in range(j)],
        "edges": [sorted((i, (i + 1) % n)) for i in range(j, n)],
    }


def _same_graph(a: dict, b: dict) -> bool:
    def key(g):
        return (int(g["n"]), {tuple(x) for x in g["arcs"]}, {tuple(sorted(x)) for x in g["edges"]})

    return key(a) == key(b)


def cycle_period_formula(n: int, j: int, p: int, q: int) -> int:
    """The paper's period of a type-j mixed cycle at p*pi/q (p/q reduced)."""
    if p % 2:
        return 2 * q * n // math.gcd(j, 2 * q)
    return q * n // math.gcd(j, q)


def monomial_orbit_period(graph: dict, p: int, q: int) -> int | None:
    """Period of the walk on a graph of maximum degree <= 2, from its orbits.

    There the evolution matrix is monomial: the arc (x, y) goes to the arc
    leaving y that is not (y, x), or to (y, x) when y is a leaf, times the
    phase e^{-i theta} of the arc it lands on.  On an orbit of length L whose
    signs sum to k, U^L is the scalar e^{-i pi p k / q}, so the orbit returns
    after L times that root of unity's order; the period is the lcm over
    orbits.
    """
    n, sign, nbrs = _signs_and_neighbours(graph)
    if max(len(x) for x in nbrs) > 2:
        return None
    seen, period = set(), 1
    for start in sign:
        if start in seen:
            continue
        arc, length, gain = start, 0, 0
        while True:
            seen.add(arc)
            x, y = arc
            arc = next(((y, z) for z in nbrs[y] if z != x), (y, x))
            gain += sign[arc]
            length += 1
            if arc == start:
                break
        order = 2 * q // math.gcd((p * gain) % (2 * q), 2 * q)
        period = math.lcm(period, length * order)
    return period


def walk_matrix(graph: dict, radians: float) -> np.ndarray:
    """U[a, b] = e^{-i theta(a)} (2/deg t(b) [o(a) = t(b)] - [a = b^-1])."""
    n, edges = oriented(graph)
    arcs, theta = [], []
    for u, v, s in edges:
        arcs += [(u, v), (v, u)]
        theta += [s * radians, -s * radians]
    origin = np.array([a[0] for a in arcs])
    terminus = np.array([a[1] for a in arcs])
    degree = np.bincount(origin, minlength=n)
    u = (origin[:, None] == terminus[None, :]) * (2.0 / degree[terminus])[None, :]
    b = np.arange(len(arcs))
    u[b ^ 1, b] -= 1.0  # arcs are stored in reverse pairs
    return np.exp(-1j * np.array(theta))[:, None] * u


def rational_hint(radians: float):
    """p*pi/q with q <= 64 within 1e-12 of the angle, as the CLI reports it."""
    x = math.fmod(radians, 2 * math.pi) / math.pi
    for q in range(1, RATIONAL_HINT_MAX_Q + 1):
        p = round(x * q)
        if math.gcd(p, q) == 1 and abs(x - p / q) * math.pi <= RATIONAL_HINT_TOL:
            p, q = reduced(p, q)
            return {"kind": "rational", "p": p, "q": q}
    return None


def _spectrum_reference(case) -> dict:
    graph = case.graph
    n, edges = oriented(graph)
    radians = eta_radians(case.eta)
    h = hermitian(graph, radians)
    lam = np.linalg.eigvalsh(h)
    rho = max(1.0, float(np.abs(lam).max()))
    # det(H + E) with |E| <= eps moves each eigenvalue by at most eps, so the
    # determinant moves by about eps * sum_i prod_{k != i} |lambda_k|.
    eps = DET_BACKWARD_ERROR * n * rho
    floor = np.maximum(np.abs(lam), eps)
    degree = np.bincount(np.array([e[:2] for e in edges]).ravel(), minlength=n)
    is_tree = len(edges) == n - 1
    ref = {
        "eigenvalues": lam,
        "rho": rho,
        "det": complex(np.linalg.det(h)),
        "det_tol": float(eps * np.prod(floor) * np.sum(1.0 / floor)),
        "n_edges": len(edges),
        "is_tree": is_tree,
        "has_closed_form": bool(np.all(degree == 2) or (is_tree and degree.max() <= 2)),
        "cospectral": True if is_tree else None,
    }
    if not is_tree:
        gap = float(np.max(np.abs(np.linalg.eigvalsh(hermitian(graph, radians, underlying=True)) - lam)))
        if gap > EIGENVALUE_TOL * rho:
            ref["cospectral"] = False
    return ref


def _check_spectrum(case, out, ref) -> list[str]:
    problems = []
    n = int(case.graph["n"])
    rho = ref["rho"]
    if out["n"] != n or not _same_graph(out["graph"], case.graph):
        problems.append("graph echoed back differs from the input")
    values = sorted(pair[0][0] for pair in out["eigenvalues"] for _ in range(pair[1]))
    if any(abs(pair[0][1]) > EIGENVALUE_TOL * rho for pair in out["eigenvalues"]):
        problems.append("non-real eigenvalue")
    if len(values) != n:
        problems.append(f"eigenvalue multiplicities add up to {len(values)}, not {n}")
    else:
        gap = float(np.max(np.abs(np.array(values) - ref["eigenvalues"])))
        if gap > EIGENVALUE_TOL * rho:
            problems.append(f"eigenvalues off by {gap:.3e}")
    det = complex(*out["determinant"])
    if abs(det - ref["det"]) > ref["det_tol"]:
        problems.append(f"determinant {det} vs reference {ref['det']}")
    closed = out.get("determinant_closed_form")
    if (closed is not None) != ref["has_closed_form"]:
        problems.append("closed-form determinant present on the wrong shape")
    elif closed is not None and abs(closed - ref["det"]) > ref["det_tol"]:
        problems.append(f"closed-form determinant {closed} vs reference {ref['det']}")
    coeffs = out["charpoly"]
    if len(coeffs) != n + 1 or abs(complex(*coeffs[n]) - 1) > MATRIX_TOL:
        problems.append("characteristic polynomial is not monic of degree n")
    elif abs(complex(*coeffs[n - 1])) > MATRIX_TOL * rho or (
        n >= 2 and abs(complex(*coeffs[n - 2]) + ref["n_edges"]) > MATRIX_TOL * ref["n_edges"]
    ):
        # lambda^(n-1) carries -trace(H) = 0 and lambda^(n-2) carries -|E|
        problems.append("characteristic polynomial's top coefficients are wrong")
    said = out["cospectral_with_underlying"]
    if ref["is_tree"] and said is not True:
        problems.append(TREE_COSPECTRAL)
    elif ref["cospectral"] is False and said is not False:
        problems.append("reported cospectral with the underlying graph, spectra differ")
    return problems


def _classify_reference(case) -> dict:
    return {"j": cycle_gain(case.graph)}


def _check_classify(case, out, ref) -> list[str]:
    n, j = int(case.graph["n"]), ref["j"]
    problems = []
    if out["n"] != n or out["j"] != j:
        problems.append(f"type {out['j']}, net gain says {j}")
    if not _same_graph(out["canonical_graph"], canonical_cycle(n, j)):
        problems.append("canonical graph is not the type-j cycle")
    relabeling = out["relabeling"]
    if sorted(relabeling) != list(range(n)) or len(out["witness_exponents"]) != n:
        return problems + ["relabeling or witness has the wrong shape"]
    radians = eta_radians(case.eta)
    d = np.exp(1j * radians * np.array(out["witness_exponents"], dtype=float))
    conjugated = d[:, None] * hermitian(case.graph, radians) * d.conj()[None, :]
    relabeled = np.zeros_like(conjugated)
    relabeled[np.ix_(relabeling, relabeling)] = conjugated
    gap = float(np.max(np.abs(relabeled - hermitian(canonical_cycle(n, j), radians))))
    if gap > MATRIX_TOL:
        problems.append(f"witness and relabeling miss the canonical matrix by {gap:.3e}")
    return problems


def _period_exact_reference(case) -> dict:
    p, q = reduced(*case.eta)
    graph = case.graph
    n = int(graph["n"])
    is_cycle = len(graph["arcs"]) + len(graph["edges"]) == n
    if is_cycle:
        period, method = cycle_period_formula(n, cycle_gain(graph), p, q), "closed_form_cycle"
    else:
        period, method = 2 * (n - 1), "closed_form_path"
    return {
        "period": period,
        "orbit_period": monomial_orbit_period(graph, p, q),
        "method": method,
        "arcs": 2 * (len(graph["arcs"]) + len(graph["edges"])),
    }


def _check_period_exact(case, out, ref) -> list[str]:
    problems = []
    if ref["orbit_period"] != ref["period"]:
        problems.append(f"reference routes disagree: formula {ref['period']}, orbits {ref['orbit_period']}")
    if out["periodic"] is not True or out["period"] != ref["period"] or out["method"] != ref["method"]:
        problems.append(f"period {out['period']} by {out['method']}, expected {ref['period']} by {ref['method']}")
    if ref["arcs"] <= CROSS_CHECK_MAX_ARCS:
        if out["cross_check"] != "agree" or not out["residual"] < IDENTITY_TOL:
            problems.append(f"cross-check {out['cross_check']} (residual {out['residual']}) on a small graph")
    elif out["cross_check"] not in ("agree", "not_run"):
        problems.append(f"cross-check {out['cross_check']}")
    return problems


def _powering_reference(case) -> dict:
    radians = eta_radians(case.eta)
    u = walk_matrix(case.graph, radians)
    lam = np.linalg.eigvals(u)
    taus = np.arange(1, case.cap + 1)
    # ||U^t - I||_2 = max_k |lambda_k^t - 1| for unitary U; the largest entry
    # of U^t - I lies between that norm / m and that norm.
    norms = np.abs(lam[None, :] ** taus[:, None] - 1.0).max(axis=1)
    periodic = None
    if norms.min() > 1e-6:
        periodic = False
    elif norms.min() < 1e-9:
        periodic = True
    return {
        "periodic": periodic,
        "period": int(taus[np.argmax(norms < 1e-9)]) if periodic else None,
        "closest": float(norms.min()),
        "arcs": u.shape[0],
        "hint": rational_hint(radians),
    }


def _check_powering(case, out, ref) -> list[str]:
    problems = []
    if out["method"] != "brute_force" or out["cap_used"] != case.cap:
        problems.append(f"method {out['method']} with cap {out['cap_used']}")
    if ref["periodic"] is not None and (out["periodic"], out["period"]) != (ref["periodic"], ref["period"]):
        problems.append(f"periodic={out['periodic']} period={out['period']}, eigenphases say {ref['period']}")
    if ref["periodic"] is False:
        low, high = ref["closest"] / ref["arcs"] - 1e-7, ref["closest"] + 1e-7
        if not low <= out["residual"] <= high:
            problems.append(f"closest approach {out['residual']} outside [{low:.3e}, {high:.3e}]")
    if out.get("rational_angle_hint") != ref["hint"]:
        problems.append(f"rational angle hint {out.get('rational_angle_hint')}, expected {ref['hint']}")
    return problems


def reference(case) -> dict | None:
    if case.kind == "spectrum":
        return _spectrum_reference(case)
    if case.kind == "classify-cycle":
        return _classify_reference(case)
    if case.kind == "period":
        return _period_exact_reference(case) if isinstance(case.eta, tuple) else _powering_reference(case)
    return None


def check(case, out, ref) -> list[str]:
    """Problems with one operation's output; ``out`` is (exit code, stdout,
    stderr) for a CLI command and (passed, detail) for a verify check."""
    if case.kind == "verify":
        passed, detail = out
        return [] if passed else [f"check failed: {detail}"]
    code, stdout, stderr = out
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"]
    try:
        payload = json.loads(stdout)  # Python's reader also takes the NaN the CLI prints
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        if case.kind == "spectrum":
            return _check_spectrum(case, payload, ref)
        if case.kind == "classify-cycle":
            return _check_classify(case, payload, ref)
        if isinstance(case.eta, tuple):
            return _check_period_exact(case, payload, ref)
        return _check_powering(case, payload, ref)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
