import json

import numpy as np
import pytest

from mixedwalk import linalg
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


class TestCommands:
    def test_period_cycle(self, capsys):
        code = main(["period", "--graph", "cycle:n=4,j=1", "--eta", "pi*1/2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["periodic"] is True
        assert payload["period"] == 16
        assert payload["cross_check"] == "agree"

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

    def test_sweep_parallel_output_is_deterministic(self, capsys):
        main(["sweep", "--n-min", "3", "--n-max", "4"])
        serial = capsys.readouterr().out
        main(["sweep", "--n-min", "3", "--n-max", "4", "--jobs", "4"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_bad_inputs_exit_one(self, capsys):
        assert main(["period", "--graph", "cycle:n=4,j=9", "--eta", "pi*1/2"]) == 1
        assert main(["period", "--graph", "cycle:n=4,j=1", "--eta", "pi*1/0"]) == 1
        assert main(["classify-cycle", "--graph", "path:n=4", "--eta", "1.0"]) == 1
        assert main(["walk", "--graph", "cycle:n=3,j=0", "--eta", "1.0",
                     "--operators", "Z"]) == 1
        capsys.readouterr()

    def test_bad_tol_and_cap_exit_one(self, capsys):
        # a negative tolerance used to surface as a route disagreement (exit 2)
        assert main(["period", "--graph", "cycle:n=4,j=1", "--eta", "pi*1/2",
                     "--tol", "-1"]) == 1
        assert main(["period", "--graph", "path:n=5", "--eta", "pi*1/2",
                     "--cap", "0"]) == 1
        assert "--cap" in capsys.readouterr().err

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
