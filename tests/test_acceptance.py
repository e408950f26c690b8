"""Acceptance gate: every end-to-end check must pass at its pinned tolerance.

Each test prints its own PASS/FAIL line (run with ``pytest -s`` to see them
live); the ``mixedwalk verify`` subcommand runs the same checks.
"""

import time

import numpy as np
import pytest

from mixedwalk import spectra, verify

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


def test_04_fails_on_a_nan_gap(monkeypatch):
    gaps = spectra.coefficient_gaps_below_girth
    calls = []

    def one_nan(graph, etas):
        calls.append(1)
        out = gaps(graph, etas)
        if len(calls) == 7:
            out[0] = np.nan
        return out

    monkeypatch.setattr(spectra, "coefficient_gaps_below_girth", one_nan)
    passed, _ = verify.check_tree_underlying_cospectral(SEED)
    assert len(calls) == 200
    assert passed is False


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

    assert main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(verify.CHECKS)


# Every check's (passed, detail) at two check seeds, recorded before the
# angle loops were batched; seed 69 is the first one the benchmark's seed 23
# runs.  Any batching of a check must leave these strings byte-identical.
PINNED = {
    0: (
        ('quarter-turn-determinant-table', True, 'max |det - table| = 2.220e-16'),
        ('cycle-determinant-closed-form', True, 'max error 2.891e-15 over 360 cells'),
        ('path-determinant-closed-form', True, 'max error 0.000e+00'),
        ('tree-underlying-cospectral', True, 'max coefficient gap 1.934e-14 over 200 trees'),
        ('coefficients-agree-below-girth', True, '0 failures over 110 graphs x 6 angles, max gap 2.135e-14'),
        ('cycle-canonicalization', True, 'max entrywise gap 5.146e-16 over 100 cycles'),
        ('path-period', True, 'period 2(n-1) confirmed for n in 2..8 on the full grid'),
        ('cycle-period-formula', True, 'formula = powering on all 234 cells'),
        ('irrational-angle-non-periodic', True, 'closest approach to identity 6.029e-05'),
        ('spectral-map-trace-moments', True, 'max trace-moment residual 1.135e-13'),
        ('evolution-entrywise-formula', True, 'max gap 2.618e-16 over 100 graphs'),
        ('cycle-return-phase', True, 'max phase/support error 2.589e-15'),
    ),
    69: (
        ('quarter-turn-determinant-table', True, 'max |det - table| = 2.220e-16'),
        ('cycle-determinant-closed-form', True, 'max error 2.891e-15 over 360 cells'),
        ('path-determinant-closed-form', True, 'max error 0.000e+00'),
        ('tree-underlying-cospectral', True, 'max coefficient gap 6.603e-14 over 200 trees'),
        ('coefficients-agree-below-girth', True, '0 failures over 110 graphs x 6 angles, max gap 2.135e-14'),
        ('cycle-canonicalization', True, 'max entrywise gap 5.146e-16 over 100 cycles'),
        ('path-period', True, 'period 2(n-1) confirmed for n in 2..8 on the full grid'),
        ('cycle-period-formula', True, 'formula = powering on all 234 cells'),
        ('irrational-angle-non-periodic', True, 'closest approach to identity 6.029e-05'),
        ('spectral-map-trace-moments', True, 'max trace-moment residual 1.135e-13'),
        ('evolution-entrywise-formula', True, 'max gap 2.618e-16 over 100 graphs'),
        ('cycle-return-phase', True, 'max phase/support error 2.589e-15'),
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_every_check_output_is_pinned(seed):
    assert [(name, *fn(seed)) for name, fn in verify.CHECKS] == list(PINNED[seed])
