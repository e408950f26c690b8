"""Acceptance gate: every end-to-end check must pass at its pinned tolerance.

Each test prints its own PASS/FAIL line (run with ``pytest -s`` to see them
live); the ``mixedwalk verify`` subcommand runs the same checks.
"""

import time

import pytest

from mixedwalk import verify

SEED = 0


def run(name):
    fn = dict(verify.CHECKS)[name]
    start = time.perf_counter()
    passed, detail = fn(SEED)
    elapsed = time.perf_counter() - start
    print(f"[{'PASS' if passed else 'FAIL'}] {name} ({elapsed:.2f}s): {detail}")
    assert type(passed) is bool, f"{name} returned {type(passed).__name__}, not bool"
    return passed, detail, elapsed


def test_01_quarter_turn_determinant_table():
    passed, detail, elapsed = run("quarter-turn-determinant-table")
    assert passed, detail
    assert elapsed < 1.0


def test_02_cycle_determinant_closed_form():
    passed, detail, elapsed = run("cycle-determinant-closed-form")
    assert passed, detail
    assert elapsed < 5.0


def test_03_path_determinant_closed_form():
    passed, detail, _ = run("path-determinant-closed-form")
    assert passed, detail


def test_04_tree_underlying_cospectral():
    passed, detail, _ = run("tree-underlying-cospectral")
    assert passed, detail


def test_05_coefficients_agree_below_girth():
    passed, detail, _ = run("coefficients-agree-below-girth")
    assert passed, detail


def test_06_cycle_canonicalization():
    passed, detail, _ = run("cycle-canonicalization")
    assert passed, detail


def test_07_path_period():
    passed, detail, elapsed = run("path-period")
    assert passed, detail
    assert elapsed < 10.0


def test_08_cycle_period_formula():
    passed, detail, elapsed = run("cycle-period-formula")
    assert passed, detail
    assert elapsed < 60.0


def test_09_irrational_angle_non_periodic():
    passed, detail, _ = run("irrational-angle-non-periodic")
    assert passed, detail


def test_10_spectral_map_trace_moments():
    passed, detail, _ = run("spectral-map-trace-moments")
    assert passed, detail


def test_11_evolution_entrywise_formula():
    passed, detail, _ = run("evolution-entrywise-formula")
    assert passed, detail


def test_12_cycle_return_phase():
    passed, detail, _ = run("cycle-return-phase")
    assert passed, detail


def test_cli_verify_runs_green(capsys):
    from mixedwalk.cli import main

    assert main(["verify", "--seed", "1", "--jobs", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(verify.CHECKS)
