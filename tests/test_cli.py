import json

import pytest

from qflab.cli import main


CONTRIB = "citizen_id,good_id,amount\na,g,1\nb,g,4\n"

SCENARIO_QF = {
    "mechanism": {"variant": "QF"},
    "goods": ["g"],
    "citizens": [
        {"id": "a", "values": {"g": {"family": "SQRT", "params": {"a": 2}}}},
        {"id": "b", "values": {"g": {"family": "SQRT", "params": {"a": 4}}}},
    ],
}


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text if isinstance(text, str) else json.dumps(text))
    return str(p)


class TestFund:
    def test_qf_table(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv", CONTRIB)
        assert main(["fund", path, "--variant", "QF", "--n-citizens", "4"]) == 0
        out = capsys.readouterr().out
        assert "9" in out and "deficit" in out

    def test_pm_qf_with_signs(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv",
                     "citizen_id,good_id,amount,sign\na,g,9,+1\nb,g,1,-1\n")
        assert main(["fund", path, "--variant", "PM_QF", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["funding"]["g"] == 4.0

    def test_missing_column_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv", "citizen_id,good_id\na,g\n")
        assert main(["fund", path, "--variant", "QF"]) == 2
        assert "amount" in capsys.readouterr().err

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv",
                     "citizen_id,good_id,amount\na,g,1\nb,g,oops\n")
        assert main(["fund", path, "--variant", "QF"]) == 2
        assert "line 3" in capsys.readouterr().err


class TestEquilibrium:
    def test_qf_scenario(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", SCENARIO_QF)
        assert main(["equilibrium", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        good = payload["goods"][0]
        assert good["funding"] == pytest.approx(9.0, rel=1e-6)
        assert good["marginal_value"] == pytest.approx(1.0, abs=1e-6)
        assert payload["diagnostics"]["converged"] is True

    def test_private_homogeneous_marginal_is_population(self, tmp_path, capsys):
        n = 10
        scenario = {
            "mechanism": {"variant": "PRIVATE"},
            "goods": ["g"],
            "citizens": [
                {"id": f"c{i}",
                 "values": {"g": {"family": "SQRT", "params": {"a": 2}}}}
                for i in range(n)
            ],
        }
        path = write(tmp_path, "s.json", scenario)
        assert main(["equilibrium", path, "--format", "json",
                     "--damping", "0.1", "--tolerance", "1e-10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["goods"][0]["marginal_value"] == pytest.approx(n, rel=1e-6)

    def test_vote_scenario_flags_optimum(self, tmp_path, capsys):
        scenario = {
            "mechanism": {"variant": "ONE_P_ONE_V"},
            "goods": ["g"],
            "citizens": [
                {"id": f"c{i}",
                 "values": {"g": {"family": "SQRT", "params": {"a": a}}}}
                for i, a in enumerate([1, 2, 9])
            ],
        }
        path = write(tmp_path, "s.json", scenario)
        assert main(["equilibrium", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        good = payload["goods"][0]
        assert good["funding"] == pytest.approx(9.0, rel=1e-9)
        assert good["optimal"] == pytest.approx(36.0, rel=1e-9)

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        # a harmed citizen sends PM_QF to the iterative scalar engine
        scenario = {
            "mechanism": {"variant": "PM_QF"},
            "goods": ["g"],
            "citizens": [
                {"id": cid, "values": {"g": {"family": "SQRT", "params": {"a": a}}}}
                for cid, a in (("a", 6), ("b", 5), ("h", -3))
            ],
        }
        path = write(tmp_path, "s.json", scenario)
        code = main(["equilibrium", path, "--max-iters", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "converged=False" in out

    def test_round_trip_with_fund(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", SCENARIO_QF)
        contrib_out = str(tmp_path / "eq.csv")
        assert main(["equilibrium", path, "--format", "json",
                     "--contributions-out", contrib_out]) == 0
        eq = json.loads(capsys.readouterr().out)
        assert main(["fund", contrib_out, "--variant", "QF",
                     "--format", "json"]) == 0
        fund_payload = json.loads(capsys.readouterr().out)
        # identical at 12 significant digits
        assert (f"{fund_payload['funding']['g']:.12g}"
                == f"{eq['goods'][0]['funding']:.12g}")

    def test_csv_and_json_numbers_identical(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", SCENARIO_QF)
        assert main(["equilibrium", path, "--format", "json"]) == 0
        eq = json.loads(capsys.readouterr().out)
        assert main(["equilibrium", path, "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        lines = csv_text.splitlines()
        header = lines[lines.index("# goods") + 1].split(",")
        row = lines[lines.index("# goods") + 2].split(",")
        got = dict(zip(header, row))
        assert float(got["funding"]) == eq["goods"][0]["funding"]
        assert float(got["marginal_value"]) == eq["goods"][0]["marginal_value"]


class TestSweep:
    def test_alpha_sweep_marginal_tracks_inverse_alpha(self, tmp_path, capsys):
        n = 2000
        scenario = {
            "mechanism": {"variant": "CQF", "alpha": 0.5},
            "goods": ["g"],
            "citizens": [
                {"id": f"c{i}",
                 "values": {"g": {"family": "SQRT", "params": {"a": 2}}}}
                for i in range(n)
            ],
        }
        path = write(tmp_path, "s.json", scenario)
        assert main(["sweep", path, "--param", "alpha",
                     "--grid", "0.05,0.1,0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        vcol = header.index("marginal_value[g]")
        values = [float(line.split(",")[vcol]) for line in lines[1:]]
        for v, alpha in zip(values, (0.05, 0.1, 0.5)):
            assert v * alpha == pytest.approx(1.0, abs=0.02)

    def test_beta_sweep_direction(self, tmp_path, capsys):
        scenario = {
            "mechanism": {"variant": "BETA", "beta": 2},
            "goods": ["g"],
            "citizens": [
                {"id": "a", "values": {"g": {"family": "SQRT", "params": {"a": 1}}}},
                {"id": "b", "values": {"g": {"family": "SQRT", "params": {"a": 4}}}},
            ],
        }
        path = write(tmp_path, "s.json", scenario)
        assert main(["sweep", path, "--param", "beta", "--grid", "1.5,2,3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vcol = lines[0].split(",").index("marginal_value[g]")
        v15, v2, v3 = (float(line.split(",")[vcol]) for line in lines[1:])
        assert v15 > 1 + 1e-6
        assert v2 == pytest.approx(1.0, abs=1e-6)
        assert v3 < 1 - 1e-6

    def test_population_sweep_private(self, tmp_path, capsys):
        scenario = {
            "mechanism": {"variant": "PRIVATE"},
            "goods": ["g"],
            "citizens": [
                {"id": "a", "values": {"g": {"family": "SQRT", "params": {"a": 2}}}},
            ],
        }
        path = write(tmp_path, "s.json", scenario)
        assert main(["sweep", path, "--param", "N", "--grid", "2,10,100",
                     "--damping", "0.005", "--tolerance", "1e-10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vcol = lines[0].split(",").index("marginal_value[g]")
        for line, n in zip(lines[1:], (2, 10, 100)):
            assert float(line.split(",")[vcol]) == pytest.approx(n, rel=1e-6)

    def test_per_point_errors_recorded(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", SCENARIO_QF)
        assert main(["sweep", path, "--param", "alpha", "--grid", "0.5,7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[-1] != ""  # alpha=7 records an error

    def test_bad_grid_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", SCENARIO_QF)
        assert main(["sweep", path, "--param", "alpha", "--grid", "0.5"]) == 2


class TestAttack:
    def test_fraud_table(self, capsys):
        assert main(["attack", "--fraud", "--alpha", "0.1", "--k", "20",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["received"] == 40.0
        assert payload["profit"] == 20.0

    def test_fraud_breakeven(self, capsys):
        assert main(["attack", "--fraud", "--alpha", "0.1", "--k", "10",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profit"] == 0.0
        assert payload["breakeven_size"] == 10

    def test_cartel_gain(self, capsys):
        assert main(["attack", "--cartel", "--alpha", "0.1", "--n", "100",
                     "--c", "1000", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["defection_gain"] == 801.0

    def test_contradictory_flags_exit_2(self, capsys):
        assert main(["attack", "--fraud", "--alpha", "0.1", "--k", "5",
                     "--n", "10"]) == 2
        assert main(["attack", "--cartel", "--alpha", "0.1", "--n", "10",
                     "--c", "5", "--k", "3"]) == 2
        capsys.readouterr()


ROUND_SCENARIO = {
    "mechanism": {"variant": "QF"},
    "goods": ["g"],
    "citizens": [
        {"id": f"c{i}",
         "values": {"g": {"family": "SSHAPED",
                          "params": {"a": 20, "k": 0.5, "m": 30}}}}
        for i in range(5)
    ],
    "round": {
        "window_end": 10,
        "seed": 13,
        "delay": 0,
        "assurance": {"g": 30},
        "agents": {f"c{i}": {"policy": "threshold_pledger",
                             "shares": {"g": 1.6}} for i in range(5)},
    },
}


class TestRound:
    def test_funded_settlement(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", ROUND_SCENARIO)
        ledger_path = str(tmp_path / "ledger.csv")
        assert main(["round", path, "--out", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "FUNDED" in out
        text = (tmp_path / "ledger.csv").read_text()
        assert text.startswith("tick,citizen_id,good_id,kind,amount")
        assert "# settlement" in text

    def test_threshold_miss_refunds(self, tmp_path, capsys):
        data = json.loads(json.dumps(ROUND_SCENARIO))
        data["round"]["assurance"]["g"] = 100.0
        path = write(tmp_path, "s.json", data)
        assert main(["round", path]) == 0
        out = capsys.readouterr().out
        assert "REFUNDED" in out
        assert "8" in out  # refund total, 5 * 1.6

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        data = json.loads(json.dumps(ROUND_SCENARIO))
        del data["round"]["seed"]
        path = write(tmp_path, "s.json", data)
        assert main(["round", path]) == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_round_block_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", SCENARIO_QF)
        assert main(["round", path]) == 2
        capsys.readouterr()

    def test_replay_identical_bytes(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", ROUND_SCENARIO)
        out1 = str(tmp_path / "l1.csv")
        out2 = str(tmp_path / "l2.csv")
        assert main(["round", path, "--out", out1]) == 0
        assert main(["round", path, "--out", out2]) == 0
        capsys.readouterr()
        assert (tmp_path / "l1.csv").read_bytes() == (tmp_path / "l2.csv").read_bytes()
