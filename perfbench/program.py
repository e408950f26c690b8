"""The program under test, reached only through its public entry points:
``mixedwalk.cli.main(argv)`` with its output captured, and the
``mixedwalk.verify.CHECKS`` registry behind ``mixedwalk verify``."""

from __future__ import annotations

import importlib
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PACKAGE = "mixedwalk"


class Program:
    def __init__(self, cli, verify):
        self.cli = cli
        self.check_names = [name for name, _ in verify.CHECKS]
        self._checks = dict(verify.CHECKS)

    def run(self, case):
        """Run one operation; returns (seconds, output).

        The output is (exit code, stdout, stderr) for a CLI command and
        (passed, detail) for a verify check.  An exception escaping the
        program becomes a failed output, so that one bad operation does not
        end the run.
        """
        if case.kind == "verify":
            start = time.perf_counter()
            try:
                out = self._checks[case.check](case.check_seed)
            except Exception:
                out = (False, traceback.format_exc())
            return time.perf_counter() - start, out
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(case.argv())
            except Exception:
                code = -1
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        return elapsed, (code, stdout.getvalue(), stderr.getvalue())


def load(src: Path) -> Program:
    """Import the program afresh from ``src``, dropping any earlier import."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    verify = importlib.import_module(f"{PACKAGE}.verify")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {src}")
    return Program(cli, verify)


def write_graphs(cases, workdir: Path) -> None:
    for i, case in enumerate(cases):
        if case.graph is not None:
            case.path = str(workdir / f"{i:03d}-{case.label}.json")
            with open(case.path, "w") as fh:
                json.dump(case.graph, fh)
