import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qflab
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

    def test_csv_quotes_good_ids(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv", 'citizen_id,good_id,amount\na,"x,y",1\nb,"x,y",4\n')
        assert main(["fund", path, "--variant", "QF", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[1:3] == [["good_id", "funding", "contributed"], ["x,y", "9", "5"]]

    @pytest.mark.parametrize("flag", ["--damping", "--tolerance", "--max-iters"])
    def test_solver_flags_are_not_accepted(self, tmp_path, capsys, flag):
        # fund, attack and round solve nothing, so they take no solver flags
        path = write(tmp_path, "c.csv", CONTRIB)
        assert main(["fund", path, "--variant", "QF", flag, "1"]) == 2
        assert flag in capsys.readouterr().err
        assert main(["attack", "--fraud", "--alpha", "0.5", "--k", "3",
                     flag, "1"]) == 2
        round_path = write(tmp_path, "s.json", ROUND_SCENARIO)
        assert main(["round", round_path, flag, "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--damping", "--max-iters"])
    def test_removed_solver_flags_exit_2(self, tmp_path, capsys, flag):
        # nothing iterates, so the damped iteration's flags are gone
        path = write(tmp_path, "s.json", SCENARIO_QF)
        assert main(["equilibrium", path, flag, "1"]) == 2
        assert flag in capsys.readouterr().err
        assert main(["sweep", path, "--param", "alpha", "--grid", "0.5,1", flag, "1"]) == 2
        assert flag in capsys.readouterr().err

    def test_allow_negative_flag_exit_2(self, tmp_path, capsys):
        # the variant decides the sign rule: PM_QF alone takes negative signs
        path = write(tmp_path, "c.csv",
                     "citizen_id,good_id,amount,sign\na,g,9,+1\nb,g,1,-1\n")
        assert main(["fund", path, "--variant", "PM_QF", "--allow-negative"]) == 2
        assert "--allow-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("budget",), 100.0), (("mechanism", "allow_negative"), False)],
        ids=["budget", "allow_negative"])
    def test_removed_scenario_keys_exit_2(self, tmp_path, capsys, path, value):
        scenario = json.loads(json.dumps(SCENARIO_QF))
        target = scenario
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert main(["equilibrium", write(tmp_path, "s.json", scenario)]) == 2
        assert f"unknown keys ['{path[-1]}']" in capsys.readouterr().err

    def test_missing_column_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv", "citizen_id,good_id\na,g\n")
        assert main(["fund", path, "--variant", "QF"]) == 2
        assert "amount" in capsys.readouterr().err

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv",
                     "citizen_id,good_id,amount\na,g,1\nb,g,oops\n")
        assert main(["fund", path, "--variant", "QF"]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", [
        ["QF"], ["CQF", "--alpha", "0.5"], ["PRIVATE"], ["LINEAR_MATCH", "--scale", "2"],
        ["BETA", "--beta", "1.5"], ["PM_QF"],
    ])
    @pytest.mark.parametrize("amounts", [[1e308] * 2, [1e307] * 10])
    def test_overflowing_amounts_exit_2(self, tmp_path, capsys, rule, amounts):
        rows = "".join(f"c{i},g,{x!r}\n" for i, x in enumerate(amounts))
        path = write(tmp_path, "c.csv", "citizen_id,good_id,amount\n" + rows)
        code = main(["fund", path, "--variant", *rule])
        err = capsys.readouterr().err
        if rule == ["PRIVATE"] and len(amounts) == 10:
            assert code == 0  # 1e308 in total, inside the float range
        else:
            assert code == 2
            assert "float range" in err and "Traceback" not in err

    def test_overflowing_total_over_goods_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv", "citizen_id,good_id,amount\na,g,1e308\nb,h,1e308\n")
        assert main(["fund", path, "--variant", "PRIVATE"]) == 2
        assert "float range" in capsys.readouterr().err

    @pytest.mark.parametrize("utf8", ["1", "0"])
    def test_undecodable_row_exit_2(self, tmp_path, utf8):
        # The file is decoded as it streams. Where the locale's encoding
        # rejects the byte (UTF-8, or ASCII under the C locale with UTF-8
        # mode off), decoding fails mid-file with a ValueError; where it
        # takes it (a single-byte locale), the row's amount is not a number.
        # Either way the process exits 2 with a one-line error.
        path = tmp_path / "c.csv"
        path.write_bytes(b"citizen_id,good_id,amount\na,g,1\nb,g,\xff\n")
        src = str(Path(qflab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": utf8,
               "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "qflab.cli", "fund", str(path), "--variant", "QF"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("qflab: error: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_oversized_field_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.csv", CONTRIB + "x" * 140_000 + ",g,1\n")
        assert main(["fund", path, "--variant", "QF"]) == 2
        assert "line 4: field larger than field limit" in capsys.readouterr().err


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
                     "--tolerance", "1e-10"]) == 0
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

    def test_engines_name_each_goods_certificate(self, tmp_path, capsys):
        # a concave good's shares are certified to sum to 1 (vector), an
        # S-shaped good's members' best responses are checked (scalar)
        values = {"park": {"family": "SQRT", "params": {"a": 2}},
                  "bridge": {"family": "SSHAPED", "params": {"a": 20, "k": 0.5, "m": 30}}}
        scenario = {"mechanism": {"variant": "QF"}, "goods": ["park", "bridge"],
                    "citizens": [{"id": f"c{i}", "values": values} for i in range(5)]}
        assert main(["equilibrium", write(tmp_path, "s.json", scenario), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["engines"] == {"park": "vector", "bridge": "scalar"}
        scenario["mechanism"] = {"variant": "ONE_P_ONE_V"}
        assert main(["equilibrium", write(tmp_path, "v.json", scenario), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["engines"] == {"park": "vote", "bridge": "vote"}

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        # PM_QF with this harmed citizen has no pure equilibrium, so no
        # candidate is certified
        scenario = {
            "mechanism": {"variant": "PM_QF"},
            "goods": ["g"],
            "citizens": [
                {"id": cid, "values": {"g": {"family": "SQRT", "params": {"a": a}}}}
                for cid, a in (("s0", 1.0468), ("s1", 1.8106), ("s2", 1.4908),
                               ("s3", 1.0763), ("h", -3.8168))
            ],
        }
        path = write(tmp_path, "s.json", scenario)
        assert main(["equilibrium", path]) == 3
        assert "converged=False" in capsys.readouterr().out

    @pytest.mark.parametrize("params", [{"k": math.nan, "m": 30}, {"k": 0.5, "m": math.nan},
                                        {"k": math.inf, "m": 30}, {"k": 0.5, "m": math.inf}])
    def test_sshaped_param_not_finite_exit_2(self, tmp_path, capsys, params):
        # a NaN k or m once passed the k <= 0 / m <= 0 checks and the solve
        # raised IndexError
        scenario = json.loads(json.dumps(SCENARIO_QF))
        scenario["citizens"][0]["values"]["g"] = {
            "family": "SSHAPED", "params": {"a": 20, **params}}
        path = write(tmp_path, "s.json", scenario)
        assert main(["equilibrium", path]) == 2
        assert "SSHAPED requires finite k > 0 and m > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--tolerance", "nan"], ["--tolerance", "-1"],
                                       ["--tolerance", "0"], ["--tolerance", "inf"],
                                       ["--max-iters", "-5"], ["--max-iters", "0"]])
    def test_bad_solver_flags_exit_2(self, tmp_path, capsys, flags):
        # --max-iters is no longer an option, so any value of it is refused
        path = write(tmp_path, "s.json", SCENARIO_QF)
        assert main(["equilibrium", path, *flags]) == 2
        assert flags[0][2:] in capsys.readouterr().err

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


    def test_beta_scenario_with_an_sshaped_member_exits_0(self, tmp_path, capsys):
        # the scalar engine's BETA aggregates once went 1 ulp negative here
        # and the solve raised IndexError
        params = [("LOG", {"a": 4.777086633466709}),
                  ("ISOELASTIC", {"a": 4.768922512117597, "rho": 0.3870988712062913}),
                  ("LOG", {"a": 2.341396113661226}),
                  ("SSHAPED", {"a": 23.837827716870166, "k": 0.6305146505754227,
                               "m": 16.540610077468227}),
                  ("SQRT", {"a": 2.5407405026629317})]
        scenario = {
            "mechanism": {"variant": "BETA", "beta": 1.5},
            "goods": ["g"],
            "citizens": [{"id": f"c{i}", "values": {"g": {"family": f, "params": p}}}
                         for i, (f, p) in enumerate(params)],
        }
        path = write(tmp_path, "s.json", scenario)
        assert main(["equilibrium", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["converged"] is True

    def test_csv_quotes_good_ids(self, tmp_path, capsys):
        scenario = json.loads(json.dumps(SCENARIO_QF))
        scenario["goods"] = ["x,y"]
        for c in scenario["citizens"]:
            c["values"] = {"x,y": c["values"]["g"]}
        path = write(tmp_path, "s.json", scenario)
        assert main(["equilibrium", path, "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        header = rows.index(["good_id", "funding", "optimal", "marginal_value",
                             "net_welfare"])
        assert rows[header + 1][0] == "x,y"
        assert len(rows[header + 1]) == 5


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
                     "--tolerance", "1e-10"]) == 0
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

    def test_funding_headers_quote_good_ids(self, tmp_path, capsys):
        scenario = json.loads(json.dumps(SCENARIO_QF))
        scenario["goods"] = ["x,y"]
        for c in scenario["citizens"]:
            c["values"] = {"x,y": c["values"]["g"]}
        path = write(tmp_path, "s.json", scenario)
        assert main(["sweep", path, "--param", "alpha", "--grid", "0.5,1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["param", "value", "funding[x,y]", "marginal_value[x,y]",
                           "deficit", "welfare_total", "error"]
        assert all(len(r) == len(rows[0]) for r in rows)

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

    @pytest.mark.parametrize("x", ["nan", "inf", "0"])
    def test_fraud_amount_not_positive_finite_exit_2(self, capsys, x):
        assert main(["attack", "--fraud", "--alpha", "0.5", "--k", "3", "--x", x]) == 2
        assert "per_identity must be a positive finite real" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["nan", "inf", "-1"])
    def test_cartel_amount_not_positive_finite_exit_2(self, capsys, c):
        assert main(["attack", "--cartel", "--alpha", "0.5", "--n", "4", "--c", c]) == 2
        assert "contribution must be a positive finite real" in capsys.readouterr().err

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

    def test_null_delay_exit_2(self, tmp_path, capsys):
        data = json.loads(json.dumps(ROUND_SCENARIO))
        data["round"]["delay"] = None
        path = write(tmp_path, "s.json", data)
        assert main(["round", path]) == 2
        assert "delay" in capsys.readouterr().err

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

    def test_ledger_quotes_ids(self, tmp_path, capsys):
        data = json.loads(json.dumps(ROUND_SCENARIO))
        for c in data["citizens"]:
            c["id"] = c["id"] + ",x"
            c["values"] = {"g,1": c["values"]["g"]}
        data["goods"] = ["g,1"]
        data["round"]["assurance"] = {"g,1": 30}
        data["round"]["agents"] = {f"{cid},x": {"policy": "threshold_pledger",
                                                "shares": {"g,1": 1.6}}
                                   for cid in data["round"]["agents"]}
        path = write(tmp_path, "s.json", data)
        ledger_path = tmp_path / "ledger.csv"
        assert main(["round", path, "--out", str(ledger_path)]) == 0
        capsys.readouterr()
        rows = list(csv.reader(io.StringIO(ledger_path.read_text())))
        events = rows[1:rows.index(["# settlement"])]
        assert events and all(len(r) == 5 and r[1].endswith(",x") and r[2] == "g,1"
                              for r in events)
        assert rows[-1][0] == "g,1" and len(rows[-1]) == 4


def test_import_loads_no_scipy():
    # qflab's numeric core is numpy and Python floats only
    src = str(Path(qflab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, qflab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_sshaped_solve_loads_no_numpy_ma():
    # the scan's level grid avoids np.unique, whose first call imports
    # numpy.ma (numpy before 2.0 imports it with numpy itself)
    src = str(Path(qflab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, qflab.cli; from qflab import *; "
            "before = 'numpy.ma' in sys.modules; "
            "cits = [Citizen(f'c{i}', {'g': ValueFunction.sshaped(20.0, 0.5, 30.0)}) "
            "for i in range(3)]; "
            "r = solve_equilibrium(Scenario(cits, ['g'], MechanismConfig.qf())); "
            "assert r.converged and r.alternate is not None; "
            "print(before, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, after = out.split()
    assert after == before
