"""Checker self-test: every checker must reject a deliberately wrong answer.

The program runs once on a few small inputs; the checkers must accept those
real outputs and reject each mutated copy listed below.  The benchmark runs
this at the end of every run and reports ``correct: false`` if it fails.
Standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import inputs
import program as program_module
from inputs import Case


def _small_cases() -> dict[str, Case]:
    rng = np.random.default_rng(7)
    return {
        "tree": Case("spectrum", "tree-n9", inputs.random_tree(rng, 9), (1, 3)),
        "cycle": Case("spectrum", "cycle-n9", inputs.random_cycle(rng, 9), (2, 5)),
        "classify": Case("classify-cycle", "classify-n12", inputs.random_cycle(rng, 12), (1, 4)),
        "path": Case("period", "path-n7", inputs.random_path(rng, 7), (1, 3)),
        "small-cycle": Case("period", "cycle-n6", inputs.cycle_with_gain(rng, 6, 2), (1, 5)),
        "large-cycle": Case("period", "cycle-n24", inputs.random_cycle(rng, 24), (2, 3)),
        "dense": Case("period", "dense-m40", inputs.random_chorded(rng, 12, 20, 3), "0.913527", cap=64),
    }


def _shift_eigenvalue(o):
    o["eigenvalues"][-1][0][0] += 1e-3


def _extra_multiplicity(o):
    o["eigenvalues"][0][1] += 1


def _wrong_determinant(o):
    o["determinant"][0] += 1 + abs(o["determinant"][0])


def _wrong_closed_form(o):
    o["determinant_closed_form"] += 1 + abs(o["determinant_closed_form"])


def _not_cospectral(o):
    o["cospectral_with_underlying"] = False


def _wrong_charpoly(o):
    o["charpoly"][-3][0] += 1


def _wrong_type(o):
    o["j"] += 1


def _wrong_witness(o):
    o["witness_exponents"][0] += 1


def _swapped_relabeling(o):
    r = o["relabeling"]
    r[0], r[1] = r[1], r[0]


def _double_period(o):
    o["period"] *= 2


def _off_by_one_period(o):
    o["period"] += 1


def _cross_check_skipped(o):
    o["cross_check"] = "not_run"


def _claims_periodic(o):
    o["periodic"], o["period"] = True, 5


def _residual_zero(o):
    o["residual"] = 0.0


def _residual_large(o):
    o["residual"] = 10.0


MUTATIONS = (
    ("tree", _shift_eigenvalue),
    ("tree", _extra_multiplicity),
    ("tree", _wrong_determinant),
    ("tree", _not_cospectral),
    ("tree", _wrong_charpoly),
    ("cycle", _wrong_closed_form),
    ("cycle", _wrong_determinant),
    ("classify", _wrong_type),
    ("classify", _wrong_witness),
    ("classify", _swapped_relabeling),
    ("path", _off_by_one_period),
    ("small-cycle", _double_period),
    ("small-cycle", _cross_check_skipped),
    ("large-cycle", _off_by_one_period),
    ("dense", _claims_periodic),
    ("dense", _residual_zero),
    ("dense", _residual_large),
)


def run(program, workdir: Path) -> list[str]:
    """Names of the checks that accepted a wrong answer or rejected a right one."""
    cases = _small_cases()
    program_module.write_graphs(list(cases.values()), workdir)
    failures = []
    payloads = {}
    for key, case in cases.items():
        _, out = program.run(case)
        problems = checks.check(case, out, checks.reference(case))
        if problems:
            failures.append(f"{case.label}: right answer rejected: {problems}")
        payloads[key] = json.loads(out[1]) if out[0] == 0 else None
    for key, mutate in MUTATIONS:
        case = cases[key]
        if payloads[key] is None:
            continue
        wrong = copy.deepcopy(payloads[key])
        mutate(wrong)
        if not checks.check(case, (0, json.dumps(wrong), ""), checks.reference(case)):
            failures.append(f"{case.label}: {mutate.__name__.lstrip('_')} accepted")
    verify_case = Case("verify", "verify", check="any")
    if not checks.check(verify_case, (False, "deliberately failed"), None):
        failures.append("verify: failed check accepted")
    if not checks.check(cases["dense"], (2, "", "internal consistency error"), None):
        failures.append("dense: non-zero exit accepted")
    return failures


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    prog = program_module.load(root / "src")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        failures = run(prog, Path(workdir))
    for line in failures:
        print(f"FAIL {line}")
    print(f"selftest: {len(MUTATIONS) + 2} wrong answers fed, {len(failures)} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
