"""Command-line front end.

Subcommands: ``spectrum``, ``classify-cycle``, ``walk``, ``period``,
``sweep``, ``verify``.  Graphs come from a JSON file or from inline
builders like ``cycle:n=8,j=3`` and ``path:n=5,orient=fbd...``; angles are
``pi*p/q`` or decimal radians.  Exit codes: 0 success, 1 bad input, 2
internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import linalg, periodicity, spectra, switching, verify, walk
from .errors import DomainError, InternalConsistencyError, UsageError, whole
from .graphs import (
    BACKWARD,
    DIGON,
    FORWARD,
    MixedGraph,
    build_cycle,
    build_path,
    from_json_dict,
    to_json_dict,
)
from .spectra import Angle, RationalAngle

ORIENT_CHARS = {"f": FORWARD, "b": BACKWARD, "d": DIGON}
WALK_OPERATORS = {"U": "evolution", "K": "boundary", "C": "coin", "S": "shift"}
# Largest n a cycle:/path: spec may ask for; checked before any edge list
# is built.  The gcd-formula period at this size takes about a second.
MAX_BUILDER_VERTICES = 65_536
# Largest graph ``spectrum`` takes, checked before any n x n array is built.
# Its trace-recurrence charpoly is O(n^4): about 10 s on a path at this size.
MAX_SPECTRUM_VERTICES = 512
# Largest powering work a sweep may ask for: the sum over its cells of the
# 2qn steps that bound a type-j cycle's search, each on an m x m power of
# m = 2n arcs, so 2qn * (2n)^2.  The default grid asks for about 1.1e6.
MAX_SWEEP_WORK = 10**8


def parse_eta(text: str) -> Angle:
    """Parse ``pi*p/q`` (or ``pi*p``) into a rational angle, or decimal radians.

    Only the rational form ever routes to closed-form cycle periods; a
    decimal cannot certify rationality.
    """
    text = text.strip()
    if text.startswith("pi*"):
        body = text[3:]
        try:
            if "/" in body:
                p_str, q_str = body.split("/", 1)
                p, q = int(p_str), int(q_str)
            else:
                p, q = int(body), 1
        except ValueError as exc:
            raise UsageError(f"cannot parse angle {text!r}; want pi*p/q or radians") from exc
        if q == 0:
            raise UsageError("angle denominator must be nonzero")
        return RationalAngle(p, q)
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse angle {text!r}; want pi*p/q or radians") from exc
    if not math.isfinite(value):
        raise UsageError(f"angle must be finite, got {text!r}")
    return value


def parse_graph(text: str) -> MixedGraph:
    """Builder spec (``cycle:...`` / ``path:...``) or a JSON file path."""
    if text.startswith("cycle:") or text.startswith("path:"):
        kind, _, body = text.partition(":")
        fields = {}
        for item in body.split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if not value:
                raise UsageError(f"malformed graph field {item!r} in {text!r}")
            key = key.strip()
            if key in fields:  # ambiguous: no value may silently win
                raise UsageError(f"graph field {key!r} repeated in {text!r}")
            fields[key] = value.strip()
        try:
            n = int(fields.pop("n"))
        except (KeyError, ValueError) as exc:
            raise UsageError(f"graph spec {text!r} needs an integer n") from exc
        if n > MAX_BUILDER_VERTICES:
            raise UsageError(f"graph spec {text!r}: n above the builder limit {MAX_BUILDER_VERTICES}")
        try:
            if kind == "cycle":
                j = int(fields.pop("j", 0))
                if fields:
                    raise UsageError(f"unknown cycle fields {sorted(fields)}")
                return build_cycle(n, j)
            orient = fields.pop("orient", "d" * (n - 1))
            if fields:
                raise UsageError(f"unknown path fields {sorted(fields)}")
            try:
                symbols = [ORIENT_CHARS[ch] for ch in orient]
            except KeyError as exc:
                raise UsageError(f"orientation chars must be f/b/d, got {orient!r}") from exc
            return build_path(n, symbols)
        except (DomainError, ValueError) as exc:
            raise UsageError(str(exc)) from exc
    try:
        with open(text) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read graph file {text!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # besides bad syntax: undecodable bytes, integer literals past
        # Python's digit limit, and nesting past the recursion limit
        raise UsageError(f"graph file {text!r} is not valid JSON: {exc}") from exc
    return from_json_dict(data)


def _eta_json(eta: Angle):
    if isinstance(eta, RationalAngle):
        return {"kind": "rational", "p": eta.p, "q": eta.q}
    return {"kind": "radians", "value": float(eta)}


def _complex_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_json(m: np.ndarray) -> list:
    return np.stack((m.real, m.imag), -1).tolist()


def _emit(payload, fmt: str) -> None:
    try:  # NaN and Infinity are not JSON (RFC 8259)
        text = json.dumps(payload, indent=2 if fmt == "pretty" else None, allow_nan=False)
    except ValueError as exc:
        raise DomainError(
            "result is not finite in double precision; the graph is too large for this command"
        ) from exc
    print(text)


def cmd_spectrum(args) -> int:
    graph = parse_graph(args.graph)
    if graph.n_vertices > MAX_SPECTRUM_VERTICES:
        raise UsageError(f"{graph.n_vertices} vertices; spectrum takes up to {MAX_SPECTRUM_VERTICES}")
    eta = parse_eta(args.eta)
    h = spectra.h_eta(graph, eta)
    spec = linalg.hermitian_eigenvalues(h)
    det = linalg.determinant(h)
    payload = {
        "n": graph.n_vertices,
        "eta": _eta_json(eta),
        "graph": to_json_dict(graph),
        "charpoly": [_complex_json(c) for c in linalg.charpoly(h)],
        "determinant": _complex_json(det),
        "eigenvalues": [[_complex_json(v), m] for v, m in spec.pairs],
        "cospectral_with_underlying": spectra.cospectral(graph, graph.underlying(), eta),
    }
    if graph.is_cycle_graph():
        j = switching.classify_cycle(graph)
        payload["determinant_closed_form"] = spectra.det_cycle_closed(
            graph.n_vertices, j, eta
        )
    elif graph.is_path_graph():
        payload["determinant_closed_form"] = spectra.det_path_closed(graph.n_vertices)
    _emit(payload, args.format)
    return 0


def cmd_classify_cycle(args) -> int:
    graph = parse_graph(args.graph)
    parse_eta(args.eta)  # validated only: the canonical form does not depend on the angle
    result = switching.canonicalize_cycle(graph)
    canonical = build_cycle(graph.n_vertices, result.type_j)
    payload = {
        "n": graph.n_vertices,
        "j": result.type_j,
        "orientation_reversed": result.orientation_reversed,
        "moves": [[move, vertex] for move, vertex in result.moves],
        "witness_exponents": list(result.witness),
        "relabeling": list(result.relabeling),
        "canonical_graph": to_json_dict(canonical),
    }
    _emit(payload, args.format)
    return 0


def cmd_walk(args) -> int:
    graph = parse_graph(args.graph)
    eta = parse_eta(args.eta)
    wanted = [name.strip().upper() for name in args.operators.split(",") if name.strip()]
    bad = [name for name in wanted if name not in WALK_OPERATORS]
    if bad:
        raise UsageError(f"unknown operators {bad}; choose from U,K,C,S")
    ops = walk.time_evolution(graph, eta)
    payload = {
        "n": graph.n_vertices,
        "eta": _eta_json(eta),
        "arc_order": [list(a) for a in ops.arc_index.arcs],
    }
    for name in wanted:
        payload[name] = _matrix_json(getattr(ops, WALK_OPERATORS[name]))
    _emit(payload, args.format)
    return 0


def cmd_period(args) -> int:
    graph = parse_graph(args.graph)
    eta = parse_eta(args.eta)
    report = periodicity.period_of(graph, eta, cap=args.cap)
    payload = dict(vars(report))  # the report's fields, in declaration order
    if not isinstance(eta, RationalAngle):
        hint = periodicity.detect_rational_angle(float(eta))
        # Advisory only; a float match never upgrades to the closed form.
        payload["rational_angle_hint"] = None if hint is None else _eta_json(hint)
    _emit(payload, args.format)
    return 2 if report.cross_check == periodicity.DISAGREE else 0


def cmd_sweep(args) -> int:
    angles = []
    for token in args.angles.split(","):
        token = token.strip()
        try:
            p_str, q_str = token.split("/", 1)
            p, q = int(p_str), int(q_str)
        except ValueError as exc:
            raise UsageError(f"sweep angles must be p/q pairs, got {token!r}") from exc
        angle = RationalAngle(p, q)  # in lowest terms, as the grid computes and prints it
        angles.append((angle.p, angle.q))
    # below n = 0 a cycle has no types, so the grid has no cells there
    sizes = range(max(args.n_min, 0), args.n_max + 1)
    steps_per_n = 2 * sum(q for _, q in angles)
    work = 0
    for n in sizes:
        work += (n + 1) * steps_per_n * n * (2 * n) ** 2
        if work > MAX_SWEEP_WORK:
            raise UsageError(
                f"sweep grid too large: its powering work (2qn steps on 2n arcs, summed "
                f"over cells) exceeds {MAX_SWEEP_WORK:.0e}; narrow --n-max or --angles"
            )
    # every cell before the first line, so that a cell that fails prints nothing
    cells = list(periodicity.cycle_period_cells(sizes, angles))
    print("n,j,p,q,tau_formula,tau_brute,agree")
    all_agree = True
    for n, j, (p, q), tf, brute in cells:
        tb = brute.period if brute.periodic else -1
        agree = tf == tb
        all_agree &= agree
        print(f"{n},{j},{p},{q},{tf},{tb},{'true' if agree else 'false'}")
    if not all_agree:
        print("sweep: formula and powering disagree", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks(seed=args.seed)
    ok = True
    for r in results:
        ok &= r.passed
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:34s} {r.seconds:6.2f}s  {r.detail}")
    if not ok:
        print("verify: at least one check failed", file=sys.stderr)
        return 2
    return 0


def positive_int(text: str) -> int:
    return whole(int(text), "the flag's value", 1, UsageError)


def non_negative_int(text: str) -> int:
    return whole(int(text), "the flag's value", 0, UsageError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are usage errors, exit 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    ``main`` call in the process (argparse keeps no state between parses).
    Flag defaults such as ``DEFAULT_CAP`` are read once, at that first build."""
    parser = _Parser(prog="mixedwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--graph", required=True, help="JSON file or cycle:n=8,j=3 / path:n=5[,orient=fbd..]")
        p.add_argument("--eta", required=True, help="angle as pi*p/q or decimal radians")
        p.add_argument("--format", choices=("json", "pretty"), default="json")

    p = sub.add_parser("spectrum", help="matrix invariants of a mixed graph")
    add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("classify-cycle", help="canonical type and switching witness of a mixed cycle")
    add_common(p)
    p.set_defaults(fn=cmd_classify_cycle)

    p = sub.add_parser("walk", help="dump walk operators")
    add_common(p)
    p.add_argument("--operators", default="U", help="comma list from U,K,C,S")
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("period", help="periodicity report for a mixed graph")
    add_common(p)
    p.add_argument("--cap", type=positive_int, default=periodicity.DEFAULT_CAP, help="powering budget")
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("sweep", help="CSV table: period formula vs powering over a cycle grid")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--angles", default=",".join(f"{p}/{q}" for p, q in verify.PERIOD_ANGLE_PAIRS),
                   help="comma list of p/q")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
