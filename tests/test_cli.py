import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixedwalk
from mixedwalk import cli, graphs, linalg
from mixedwalk.cli import main, parse_eta, parse_graph
from mixedwalk.errors import UsageError
from mixedwalk.graphs import (
    build_cycle,
    build_path,
    from_json_dict,
    random_mixed_graph,
    to_json_dict,
)
from mixedwalk.spectra import RationalAngle


class TestParseEta:
    def test_rational_forms(self):
        assert parse_eta("pi*1/2") == RationalAngle(1, 2)
        assert parse_eta("pi*5/2") == RationalAngle(1, 2)  # 5/2 mod 2 = 1/2
        assert parse_eta("pi*3") == RationalAngle(1, 1)  # 3 mod 2 = 1
        assert parse_eta("pi*0/7") == RationalAngle(0, 1)

    def test_decimal_radians(self):
        assert parse_eta("1.0") == 1.0
        assert parse_eta("0.25") == 0.25

    def test_malformed(self):
        for bad in ("pi*1/0", "pi*a/b", "one radian", "pi*"):
            with pytest.raises(UsageError):
                parse_eta(bad)


class TestParseGraph:
    def test_builders(self):
        assert parse_graph("cycle:n=8,j=3") == build_cycle(8, 3)
        assert parse_graph("path:n=5") == build_path(5, ["digon"] * 4)
        assert parse_graph("path:n=4,orient=fbd") == build_path(
            4, ["forward", "backward", "digon"]
        )

    def test_file_source(self, tmp_path):
        g = build_cycle(6, 2)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(to_json_dict(g)))
        assert parse_graph(str(path)) == g

    def test_errors(self, tmp_path):
        with pytest.raises(UsageError):
            parse_graph("cycle:j=3")
        with pytest.raises(UsageError):
            parse_graph("cycle:n=2,j=0")
        with pytest.raises(UsageError):
            parse_graph("path:n=4,orient=xyz")
        with pytest.raises(UsageError):
            parse_graph(str(tmp_path / "missing.json"))

    def test_builder_size_bound_is_checked_before_building(self, monkeypatch, capsys):
        assert cli.MAX_BUILDER_VERTICES >= 4096  # the orbit route's N = 4,096 cycle
        # patched down, so that a missing guard builds a small graph, not a huge one
        monkeypatch.setattr(cli, "MAX_BUILDER_VERTICES", 8)
        assert parse_graph("cycle:n=8,j=3") == build_cycle(8, 3)
        assert parse_graph("path:n=8") == build_path(8, ["digon"] * 7)

        def refuse(*args):
            raise AssertionError("a graph was built above the limit")

        monkeypatch.setattr(cli, "build_cycle", refuse)
        monkeypatch.setattr(cli, "build_path", refuse)
        monkeypatch.setattr(graphs.MixedGraph, "__init__", refuse)
        for spec in ("cycle:n=9,j=3", "cycle:n=9", "path:n=9", "path:n=9,orient=ffffffff"):
            with pytest.raises(UsageError, match="limit 8"):
                parse_graph(spec)
            assert main(["period", "--graph", spec, "--eta", "pi*1/5"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err


class TestCachedParser:
    SEQUENCE = [
        ["period", "--graph", "cycle:n=4,j=1", "--eta", "1.0", "--cap", "3"],
        ["period", "--graph", "cycle:n=4,j=1", "--eta", "1.0"],
        ["period", "--graph", "cycle:n=4,j=1", "--eta", "1.0", "--cap", "0"],
        ["period", "--graph", "path:n=3", "--eta", "pi*1/2", "--format", "pretty"],
        ["period", "--graph", "path:n=3", "--eta", "pi*1/2"],
        ["verify", "--seed", "1"],
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_calls_match_fresh_processes(self, monkeypatch, capsys):
        # argparse wraps its usage line to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(mixedwalk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)

        def timeless(text):  # verify prints each check's wall time
            return re.sub(r" +\d+\.\d\ds  ", " <t>s  ", text)

        for argv in self.SEQUENCE:
            code = main(argv)
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "mixedwalk", *argv], capture_output=True, text=True, env=env
            )
            assert (code, timeless(out), err) == (fresh.returncode, timeless(fresh.stdout), fresh.stderr), argv


class TestCommands:
    def test_period_cycle(self, capsys):
        code = main(["period", "--graph", "cycle:n=4,j=1", "--eta", "pi*1/2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["periodic"] is True
        assert payload["period"] == 16
        assert payload["cross_check"] == "agree"

    def test_period_output_below_the_crossover_is_pinned(self, capsys, tmp_path):
        # literals recorded before powering took the arc-array step
        graph = {
            "n": 8,
            "arcs": [[1, 0], [2, 1], [3, 2], [4, 3], [5, 7], [6, 3], [6, 5], [7, 6]],
            "edges": [[0, 2], [0, 6], [2, 5]],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        assert main(["period", "--graph", str(path), "--eta", "0.9", "--cap", "64"]) == 0
        assert capsys.readouterr().out == (
            '{"periodic": false, "period": null, "method": "brute_force", "cap_used": 64, '
            '"cross_check": "not_run", "residual": 0.6507114002339558, "rational_angle_hint": null}\n'
        )
        assert main(["period", "--graph", "cycle:n=5,j=2", "--eta", "pi*1/3"]) == 0
        assert capsys.readouterr().out == (
            '{"periodic": true, "period": 15, "method": "closed_form_cycle", "cap_used": 30, '
            '"cross_check": "agree", "residual": 3.6489874298927905e-15}\n'
        )
        # recorded while time_evolution still built every operator eagerly
        assert main(["walk", "--graph", "path:n=3,orient=fd", "--eta", "pi*1/3",
                     "--operators", "U,K,C,S"]) == 0
        assert capsys.readouterr().out == (
            '{"n": 3, "eta": {"kind": "rational", "p": 1, "q": 3}, "arc_order": [[0, 1], [1, 0], [1, 2], [2, 1]], '
            '"U": [[[0.0, 0.0], [0.5000000000000001, -0.8660254037844386], [0.0, 0.0], [0.0, 0.0]], '
            '[[-1.1102230246251568e-16, -1.9229626863835638e-16], [0.0, 0.0], [0.0, 0.0], [0.5, 0.8660254037844384]], '
            '[[0.9999999999999998, 0.0], [0.0, 0.0], [0.0, 0.0], [-2.220446049250313e-16, 0.0]], '
            '[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]], '
            '"K": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
            '[[0.7071067811865475, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865475, 0.0]], '
            '[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]], '
            '"C": [[[-2.220446049250313e-16, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9999999999999998, 0.0]], '
            '[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
            '[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], '
            '[[0.9999999999999998, 0.0], [0.0, 0.0], [0.0, 0.0], [-2.220446049250313e-16, 0.0]]], '
            '"S": [[[0.0, 0.0], [0.5000000000000001, -0.8660254037844386], [0.0, 0.0], [0.0, 0.0]], '
            '[[0.5000000000000001, 0.8660254037844386], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], '
            '[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], '
            '[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]}\n'
        )

    def test_period_irrational(self, capsys):
        code = main(["period", "--graph", "cycle:n=4,j=1", "--eta", "1.0", "--cap", "500"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["periodic"] is False
        assert payload["rational_angle_hint"] is None

    def test_spectrum_path_matches_underlying(self, capsys):
        main(["spectrum", "--graph", "path:n=4,orient=ffd", "--eta", "pi*1/3"])
        mixed = json.loads(capsys.readouterr().out)
        main(["spectrum", "--graph", "path:n=4", "--eta", "pi*1/3"])
        undirected = json.loads(capsys.readouterr().out)
        mixed_coeffs = np.array([complex(re, im) for re, im in mixed["charpoly"]])
        und_coeffs = np.array([complex(re, im) for re, im in undirected["charpoly"]])
        assert np.max(np.abs(mixed_coeffs - und_coeffs)) < 1e-8
        assert mixed["cospectral_with_underlying"] is True

    def test_classify_cycle_round_trip(self, capsys):
        code = main(["classify-cycle", "--graph", "cycle:n=5,j=2", "--eta", "pi*1/3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["j"] == 2
        assert payload["moves"] == []
        assert from_json_dict(payload["canonical_graph"]) == build_cycle(5, 2)

    def test_walk_dumps_unitary(self, capsys):
        code = main(["walk", "--graph", "cycle:n=3,j=1", "--eta", "pi*1/2",
                     "--operators", "U,S"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        u = np.array([[complex(re, im) for re, im in row] for row in payload["U"]])
        assert linalg.unitary_defect(u) < 1e-10
        assert "S" in payload and "K" not in payload
        assert len(payload["arc_order"]) == 6

    def test_sweep_rows_agree(self, capsys):
        code = main(["sweep", "--n-min", "3", "--n-max", "4", "--angles", "1/2,2/3"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "n,j,p,q,tau_formula,tau_brute,agree"
        rows = [line.split(",") for line in out[1:]]
        assert len(rows) == (4 + 5) * 2
        assert all(row[-1] == "true" for row in rows)

    def test_bad_inputs_exit_one(self, capsys):
        assert main(["period", "--graph", "cycle:n=4,j=9", "--eta", "pi*1/2"]) == 1
        assert main(["period", "--graph", "cycle:n=4,j=1", "--eta", "pi*1/0"]) == 1
        assert main(["classify-cycle", "--graph", "path:n=4", "--eta", "1.0"]) == 1
        assert main(["walk", "--graph", "cycle:n=3,j=0", "--eta", "1.0",
                     "--operators", "Z"]) == 1
        capsys.readouterr()

    def test_malformed_graph_json_exits_one_without_traceback(self, tmp_path, capsys):
        bad = [
            {"n": 3, "arcs": [[0, 1.7]], "edges": [[1, 2]]},  # float id
            {"n": 3, "arcs": [[0]], "edges": [[1, 2]]},  # short pair
            {"n": 3, "arcs": [["a", 1]], "edges": [[1, 2]]},  # string id
            {"n": 3, "arcs": [[0, 1]], "edges": [[1, 2]], "bogus": 1},  # unknown field
            {"n": 3, "arcs": [[0, True]], "edges": [[1, 2]]},  # bool id
            [[0, 1], [1, 2]],  # not an object
        ]
        for i, data in enumerate(bad):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(data))
            assert main(["spectrum", "--graph", str(path), "--eta", "0.5"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_unparseable_graph_file_exits_one_without_traceback(self, tmp_path, capsys):
        files = {
            "long-int.json": '{"n": ' + "9" * 5000 + ', "arcs": []}',  # past the digit limit
            "deep.json": "[" * 100_000 + "]" * 100_000,  # past the recursion limit
        }
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            assert main(["spectrum", "--graph", str(path), "--eta", "0.5"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
        path = tmp_path / "latin-1.json"
        path.write_bytes(b'{"n": 2, "edges": [[0, 1]], "\xe9": 0}')
        assert main(["spectrum", "--graph", str(path), "--eta", "0.5"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_negative_seed_exits_one(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err.splitlines()[-1]

    def test_bad_tol_and_cap_exit_one(self, capsys):
        # the identity tolerance is pinned in code: any --tol is an unknown flag
        assert main(["period", "--graph", "cycle:n=4,j=1", "--eta", "pi*1/2",
                     "--tol", "-1"]) == 1
        assert main(["period", "--graph", "path:n=5", "--eta", "pi*1/2",
                     "--cap", "0"]) == 1
        assert "--cap" in capsys.readouterr().err

    def test_loose_tol_is_bad_input_not_a_disagreement(self, capsys):
        # a tolerance above the distance of an earlier power to I made the
        # cross-check take that power as the period and exit 2
        assert main(["period", "--graph", "cycle:n=4,j=1", "--eta", "pi*1/5",
                     "--tol", "0.7"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and "--tol" in last
        assert "Traceback" not in err

    def test_period_without_cross_check_is_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code = main(["period", "--graph", "cycle:n=64,j=7", "--eta", "pi*1/5"])
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == 0
        assert payload["cross_check"] == "not_run"
        assert payload["residual"] is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_result_exits_one(self, tmp_path, capsys):
        # the trace-recurrence charpoly of this dense graph overflows to NaN
        g = random_mixed_graph(200, np.random.default_rng(0), 0.3)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(to_json_dict(g)))
        assert main(["spectrum", "--graph", str(path), "--eta", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: result is not finite")

    def test_graph_json_emitted_by_spectrum_reloads(self, capsys):
        main(["spectrum", "--graph", "cycle:n=6,j=4", "--eta", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert from_json_dict(payload["graph"]) == build_cycle(6, 4)

    def test_pretty_format(self, capsys):
        code = main(["period", "--graph", "path:n=3", "--eta", "pi*1/2",
                     "--format", "pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "\n  " in out  # indented
        assert json.loads(out)["period"] == 4
