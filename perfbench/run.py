"""Benchmark of mixedwalk: one workload per process, timed from outside.

    python3 perfbench/run.py --workload spectrum-classify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run sets the program up eleven times (fresh import of mixedwalk, graph JSON
files written to a temporary directory in the checkout, one warm-up
operation per operation kind) and reports the median as ``setup_s``.  It
then computes the reference answers, and runs whole rounds of the
workload's operations until ``--seconds`` have passed and at least 120
operations were timed.  Every output is checked against the references.
With ``--trace 1`` the public functions of each layer are wrapped and the
per-layer metrics are reported instead of the end-to-end ones.  The last
line of stdout is the JSON result; a fuller record goes to
``perfbench/out/``.  ``--workload all`` runs every workload, untraced and
traced, each in its own process, and prints one table.
"""

import os

# One BLAS thread, so that a run uses one core and every run times the same
# single-threaded matmul.  This must happen before the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import program  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
MIN_SAMPLES = 120  # at least 12 operations beyond the 90th percentile
MAX_MEASURE_S = 120.0  # keeps a run on a slow machine under the 180 s limit

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def set_up(workload: str, seed: int, workdir: Path):
    start = time.perf_counter()
    prog = program.load(SRC)
    cases = inputs.WORKLOADS[workload](seed, prog.check_names)
    program.write_graphs(cases, workdir)
    first_of_kind = {}
    for case in cases:
        first_of_kind.setdefault(case.kind, case)
    for case in first_of_kind.values():
        prog.run(case)
    return time.perf_counter() - start, prog, cases


def outcome(case, problems) -> str:
    if not problems:
        return "ok"
    if case.known_fault and problems == [checks.TREE_COSPECTRAL]:
        return "known-fault"
    return "wrong"


def measure(prog, cases, refs, seconds: float, tracer):
    """Whole rounds over ``cases``; each output is checked outside its timing."""
    min_rounds = math.ceil(MIN_SAMPLES / len(cases))
    verdicts = {}  # case index -> (output, problems); outputs are deterministic
    rounds = []
    start = time.perf_counter()
    while True:
        before = tracer.snapshot() if tracer else None
        round_start = time.perf_counter()
        times, outcomes = [], []
        for i, case in enumerate(cases):
            seconds_taken, out = prog.run(case)
            times.append(seconds_taken)
            if tracer and case.kind != "verify":
                tracer.output_bytes += len(out[1].encode())
            cached = verdicts.get(i)
            if cached is None or cached[0] != out:
                cached = verdicts[i] = (out, checks.check(case, out, refs[i]))
            outcomes.append(outcome(case, cached[1]))
        wall = time.perf_counter() - round_start
        layers = None
        if tracer:
            after = tracer.snapshot()
            layers = {k: after[k] - before[k] for k in after}
        rounds.append({"times": times, "outcomes": outcomes, "wall_s": wall, "layers": layers})
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(rounds) >= min_rounds) or elapsed >= MAX_MEASURE_S:
            return rounds, verdicts


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = None
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            if workdir is not None:
                shutil.rmtree(workdir)
            workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
            setup_s, prog, cases = set_up(workload, seed, workdir)
            setups.append(setup_s)
        refs = [checks.reference(case) for case in cases]
        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            rounds, verdicts = measure(prog, cases, refs, seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        selftest_failures = selftest.run(prog, workdir)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    samples = [t for r in rounds for t in r["times"]]
    outcomes = [o for r in rounds for o in r["outcomes"]]
    p90 = statistics.quantiles(samples, n=10)[8]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "ops_per_round": len(cases),
        "samples": len(samples),
        "samples_beyond_p90": sum(t > p90 for t in samples),
        "round_wall_s": statistics.median(r["wall_s"] for r in rounds),
        "round_ops_per_s": [len(r["times"]) / sum(r["times"]) for r in rounds],
        "setup_runs_s": setups,
        "failures": {
            cases[i].label: problems for i, (_, problems) in sorted(verdicts.items()) if problems
        },
        "selftest_failures": selftest_failures,
        "correct": "wrong" not in outcomes and not selftest_failures,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
    }
    if trace:
        record["metrics"] = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in tracing.PER_LAYER
        }
        record["call_tree"] = tracer.call_tree()
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(record["round_ops_per_s"]),
            "op_p50_ms": 1000.0 * statistics.median(samples),
            "op_p90_ms": 1000.0 * p90,
            "peak_rss_mb": peak_rss_mb,
        }
        record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return record


def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in inputs.WORKLOADS:
        records = []
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, stdout=subprocess.DEVNULL)
            status = status or child.returncode
            if child.returncode == 0:
                records.append(json.loads(result_path(workload, seed, trace).read_text()))
        if len(records) != 2:
            print(f"{workload}: run failed")
            continue
        plain, traced = records
        print(f"== {workload}: {plain['samples']} operations in {plain['rounds']} rounds, "
              f"{plain['samples_beyond_p90']} beyond p90; attempted {plain['attempted']}, "
              f"failed {plain['failed']}, correct {plain['correct']}")
        for name, m in plain["metrics"].items():
            print(f"   {name:40s} {m['value']:14.6g} {m['unit']}")
        overhead = traced["round_wall_s"] / plain["round_wall_s"] - 1.0
        print(f"   tracing overhead: round wall {plain['round_wall_s']:.3f} s untraced, "
              f"{traced['round_wall_s']:.3f} s traced ({100 * overhead:+.1f}%)")
        for name, m in traced["metrics"].items():
            print(f"   {name:40s} {m['value']:14.6g} {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="mixedwalk benchmark")
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mixedwalk" / "__init__.py").is_file():
        print(f"error: no mixedwalk sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    result_path(args.workload, args.seed, args.trace).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {record['samples']} operations in {record['rounds']} rounds "
          f"({record['samples_beyond_p90']} beyond p90), round wall {record['round_wall_s']:.3f} s")
    for label, problems in record["failures"].items():
        print(f"failed: {label}: {'; '.join(problems)}")
    for line in record["selftest_failures"]:
        print(f"selftest: {line}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
