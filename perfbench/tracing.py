"""Per-layer spans for the traced run, installed from outside the program.

``Tracer.install`` replaces each listed public function of mixedwalk by a
timing wrapper under every module attribute that refers to it, so calls
through names bound by ``from ... import`` are seen too.  Constructors and
methods are wrapped on the class itself.  A span's self time is its
duration minus the time covered by the spans it encloses.  Untraced runs
never call ``install``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public names; "Class" wraps construction, "Class.method" a method.
# build_cycle has no metric of its own; wrapping it keeps its time out of
# its callers' self time.
LAYERS = {
    "graphs": ("from_json_dict", "build_cycle", "MixedGraph", "MixedGraph.girth", "ArcIndex"),
    "linalg": ("hermitian_eigenvalues", "determinant", "charpoly", "project_to_unitary", "distance_to_identity"),
    "spectra": ("h_eta", "cospectral"),
    "switching": ("canonicalize_cycle", "classify_cycle", "named_move"),
    "walk": ("time_evolution", "evolution_entrywise", "spectral_map_check"),
    "periodicity": ("brute_force_period",),
    "cli": ("main",),
}

# Reported metric -> (span, field).  Units: self_s in s, the rest counts.
PER_LAYER = (
    ("graphs.from_json_dict.self_s", "s"),
    ("graphs.MixedGraph.calls", "count"),
    ("graphs.MixedGraph.self_s", "s"),
    ("graphs.girth.self_s", "s"),
    ("graphs.ArcIndex.self_s", "s"),
    ("linalg.hermitian_eigenvalues.self_s", "s"),
    ("linalg.hermitian_eigenvalues.calls", "count"),
    ("linalg.determinant.self_s", "s"),
    ("linalg.charpoly.self_s", "s"),
    ("linalg.project_to_unitary.self_s", "s"),
    ("linalg.project_to_unitary.calls", "count"),
    ("linalg.distance_to_identity.self_s", "s"),
    ("linalg.distance_to_identity.calls", "count"),
    ("spectra.h_eta.self_s", "s"),
    ("spectra.cospectral.self_s", "s"),
    ("switching.canonicalize_cycle.self_s", "s"),
    ("switching.classify_cycle.self_s", "s"),
    ("switching.named_move.calls", "count"),
    ("walk.time_evolution.self_s", "s"),
    ("walk.evolution_entrywise.self_s", "s"),
    ("walk.spectral_map_check.self_s", "s"),
    ("periodicity.brute_force_period.self_s", "s"),
    ("periodicity.matmul_flops", "computed_flop"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
)

PACKAGE = "mixedwalk"
POWERING_SPAN = "periodicity.brute_force_period"
STEP_SPAN = "linalg.distance_to_identity"  # called once per powering step


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, seconds]
        self.matmul_flops = 0.0
        self.output_bytes = 0
        self._stack: list[list] = []  # [span name, seconds covered by child spans]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            steps_before = calls[STEP_SPAN]
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
                if name == POWERING_SPAN:
                    m = len(args[0])
                    self.matmul_flops += (calls[STEP_SPAN] - steps_before) * 8.0 * m**3

        return traced

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for qualified in names:
                owner_name, _, method = qualified.partition(".")
                target = getattr(module, owner_name)
                if isinstance(target, type):
                    attr = method or "__init__"
                    span = f"{layer}.{method or owner_name}"
                    self._patch(target, attr, self._wrap(span, getattr(target, attr)))
                    continue
                wrapper = self._wrap(f"{layer}.{owner_name}", target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Running totals of every per-layer metric."""
        values = {}
        for metric, _ in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = float(self.calls[span])
            elif field == "self_s":
                values[metric] = self.self_s[span]
        values["periodicity.matmul_flops"] = self.matmul_flops
        values["cli.output_bytes"] = float(self.output_bytes)
        return values

    def call_tree(self) -> list[dict]:
        return [
            {"parent": parent, "span": span, "calls": calls, "seconds": seconds}
            for (parent, span), (calls, seconds) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]
