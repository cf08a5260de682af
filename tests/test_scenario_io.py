import json
import re
from pathlib import Path

import pytest

from qflab import (
    Contribution,
    ContributionProfile,
    DeficitMode,
    ScenarioFormatError,
    Variant,
    fund,
)
from qflab.scenario_io import (
    contributions_to_csv,
    parse_contributions_csv,
    parse_scenario,
)


def base_scenario():
    return {
        "mechanism": {"variant": "QF"},
        "goods": ["g"],
        "citizens": [
            {"id": "a", "values": {"g": {"family": "SQRT", "params": {"a": 2}}}},
            {"id": "b", "lambda": 0.1,
             "values": {"g": {"family": "LOG", "params": {"a": 3}}}},
        ],
    }


class TestScenarioParsing:
    def test_valid_scenario(self):
        sc, round_spec = parse_scenario(base_scenario())
        assert sc.mechanism.variant is Variant.QF
        assert [c.id for c in sc.citizens] == ["a", "b"]
        assert sc.citizens[1].lam == 0.1
        assert round_spec is None

    def test_unknown_top_level_key_rejected(self):
        data = base_scenario()
        data["extra"] = 1
        with pytest.raises(ScenarioFormatError, match="unknown keys.*extra"):
            parse_scenario(data)

    def test_unknown_mechanism_key_rejected(self):
        data = base_scenario()
        data["mechanism"]["gamma"] = 2
        with pytest.raises(ScenarioFormatError, match="gamma"):
            parse_scenario(data)

    @pytest.mark.parametrize("path, value", [
        (("mechanism", "include_private_channel"), False),
        (("mechanism", "allow_negative"), False),
        (("budget",), 100.0),
    ], ids=["include_private_channel", "allow_negative", "budget"])
    def test_include_private_channel_is_no_longer_a_key(self, path, value):
        data = base_scenario()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioFormatError, match=f"unknown keys.*{path[-1]}"):
            parse_scenario(data)

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        sc, round_spec = parse_scenario(example)
        assert sc.mechanism.variant is Variant.CQF and sc.goods == ["park"]
        assert round_spec.assurance == {"park": 30.0}

    def test_unknown_value_param_rejected(self):
        data = base_scenario()
        data["citizens"][0]["values"]["g"]["params"]["rho"] = 0.5
        with pytest.raises(ScenarioFormatError, match="rho"):
            parse_scenario(data)

    FAMILY_PARAMS = {
        "SQRT": {"a": 2.0},
        "LOG": {"a": 2.0},
        "ISOELASTIC": {"a": 2.0, "rho": 0.5},
        "SSHAPED": {"a": 2.0, "k": 1.0, "m": 5.0},
    }

    @pytest.mark.parametrize("family", FAMILY_PARAMS)
    def test_each_family_parses_its_params(self, family):
        data = base_scenario()
        data["citizens"][0]["values"]["g"] = {
            "family": family.lower(), "params": self.FAMILY_PARAMS[family]}
        vf = parse_scenario(data)[0].citizens[0].values["g"]
        assert vf.family.value == family
        assert {k: getattr(vf, k) for k in self.FAMILY_PARAMS[family]} == \
            self.FAMILY_PARAMS[family]

    @pytest.mark.parametrize("family, extra", [
        (f, k) for f, params in FAMILY_PARAMS.items() for k in ("rho", "k", "m", "b")
        if k not in params])
    def test_unknown_param_rejected_for_each_family(self, family, extra):
        params = {**self.FAMILY_PARAMS[family], extra: 0.5}
        data = base_scenario()
        data["citizens"][0]["values"]["g"] = {"family": family, "params": params}
        allowed = sorted(self.FAMILY_PARAMS[family])
        with pytest.raises(ScenarioFormatError) as e:
            parse_scenario(data)
        assert str(e.value) == (f"citizens[0].values.g.params: unknown keys "
                                f"[{extra!r}] (allowed: {allowed})")

    @pytest.mark.parametrize("family, missing", [
        (f, k) for f, params in FAMILY_PARAMS.items() for k in params])
    def test_missing_param_named_for_each_family(self, family, missing):
        params = {k: v for k, v in self.FAMILY_PARAMS[family].items() if k != missing}
        data = base_scenario()
        data["citizens"][0]["values"]["g"] = {"family": family, "params": params}
        with pytest.raises(ScenarioFormatError) as e:
            parse_scenario(data)
        assert str(e.value) == f"citizens[0].values.g: missing param {missing!r}"

    def test_unknown_good_reference_rejected(self):
        data = base_scenario()
        data["citizens"][0]["values"]["mystery"] = {
            "family": "SQRT", "params": {"a": 1}}
        with pytest.raises(ScenarioFormatError, match="mystery"):
            parse_scenario(data)

    def test_bad_family(self):
        data = base_scenario()
        data["citizens"][0]["values"]["g"]["family"] = "CUBIC"
        with pytest.raises(ScenarioFormatError, match="family"):
            parse_scenario(data)

    def test_negative_lambda_rejected(self):
        data = base_scenario()
        data["citizens"][0]["lambda"] = -1
        with pytest.raises(ScenarioFormatError):
            parse_scenario(data)

    def test_mechanism_parameters(self):
        data = base_scenario()
        data["mechanism"] = {"variant": "CQF", "alpha": 0.25,
                             "deficit_mode": "SHADOW_PRICES"}
        sc, _ = parse_scenario(data)
        assert sc.mechanism.alpha == 0.25
        assert sc.mechanism.deficit_mode is DeficitMode.SHADOW_PRICES

    def test_pm_qf_funds_signed_profiles(self):
        data = base_scenario()
        data["mechanism"] = {"variant": "PM_QF"}
        sc, _ = parse_scenario(data)
        signed = ContributionProfile.from_amounts("g", {"a": 9.0, "b": 4.0}, {"b": -1})
        assert fund(signed, sc.mechanism) == 1.0

    def test_json_string_and_file(self, tmp_path):
        text = json.dumps(base_scenario())
        sc, _ = parse_scenario(text)
        assert len(sc.citizens) == 2
        path = tmp_path / "scenario.json"
        path.write_text(text)
        sc2, _ = parse_scenario(path)
        assert [c.id for c in sc2.citizens] == [c.id for c in sc.citizens]

    def test_invalid_json(self):
        with pytest.raises(ScenarioFormatError, match="invalid JSON"):
            parse_scenario("{not json")


class TestRoundBlock:
    def round_block(self):
        data = base_scenario()
        data["round"] = {
            "window_end": 10,
            "seed": 42,
            "delay": 1,
            "assurance": {"g": 5.0},
            "agents": {
                "a": {"policy": "myopic_br"},
                "b": {"policy": "threshold_pledger", "shares": {"g": 2.0}},
            },
        }
        return data

    def test_valid_round(self):
        _, spec = parse_scenario(self.round_block())
        assert spec.window_end == 10
        assert spec.seed == 42
        assert spec.assurance == {"g": 5.0}
        assert spec.agents["b"].shares == {"g": 2.0}

    def test_seed_required(self):
        data = self.round_block()
        del data["round"]["seed"]
        with pytest.raises(ScenarioFormatError, match="seed"):
            parse_scenario(data)

    def test_unknown_agent_policy(self):
        data = self.round_block()
        data["round"]["agents"]["a"]["policy"] = "rambo"
        with pytest.raises(ScenarioFormatError, match="policy"):
            parse_scenario(data)

    def test_unknown_agent_citizen(self):
        data = self.round_block()
        data["round"]["agents"]["zz"] = {"policy": "myopic_br"}
        with pytest.raises(ScenarioFormatError, match="zz"):
            parse_scenario(data)

    @pytest.mark.parametrize("delay", [None, float("nan"), True, -1, "1"])
    def test_bad_delay_rejected(self, delay):
        data = self.round_block()
        data["round"]["delay"] = delay
        with pytest.raises(ScenarioFormatError, match="delay"):
            parse_scenario(data)

    @pytest.mark.parametrize("window_end", [True, False, 0, 2.5, "3", None])
    def test_bad_window_end_rejected(self, window_end):
        # true was once read as a 1-tick round
        data = self.round_block()
        data["round"]["window_end"] = window_end
        with pytest.raises(ScenarioFormatError, match="window_end"):
            parse_scenario(data)

    def test_infinite_delay_is_a_blind_round(self):
        data = self.round_block()
        data["round"]["delay"] = float("inf")
        _, spec = parse_scenario(json.dumps(data))
        assert spec.delay == float("inf")

    def test_assurance_on_unknown_good(self):
        data = self.round_block()
        data["round"]["assurance"]["nope"] = 1.0
        with pytest.raises(ScenarioFormatError, match="nope"):
            parse_scenario(data)


class TestContributionsCsv:
    def test_basic(self):
        profiles = parse_contributions_csv(
            "citizen_id,good_id,amount\na,g,1\nb,g,4\n")
        assert len(profiles) == 1
        assert profiles[0].total() == 5.0

    def test_sign_column(self):
        profiles = parse_contributions_csv(
            "citizen_id,good_id,amount,sign\na,g,9,+1\nb,g,1,-1\n")
        signs = {e.citizen_id: e.sign for e in profiles[0].entries}
        assert signs == {"a": 1, "b": -1}

    def test_missing_column_named(self):
        with pytest.raises(ScenarioFormatError, match="amount"):
            parse_contributions_csv("citizen_id,good_id\na,g\n")

    def test_bad_amount_line_numbered(self):
        with pytest.raises(ScenarioFormatError, match="line 3"):
            parse_contributions_csv(
                "citizen_id,good_id,amount\na,g,1\nb,g,zzz\n")

    def test_negative_amount_rejected(self):
        with pytest.raises(ScenarioFormatError, match="line 2"):
            parse_contributions_csv("citizen_id,good_id,amount\na,g,-1\n")

    def test_duplicate_citizen_rejected(self):
        with pytest.raises(ScenarioFormatError, match="duplicate"):
            parse_contributions_csv(
                "citizen_id,good_id,amount\na,g,1\na,g,2\n")

    def test_round_trip_through_writer(self):
        profiles = parse_contributions_csv(
            "citizen_id,good_id,amount,sign\na,g,1.25,+1\nb,g,4,-1\n")
        text = contributions_to_csv(profiles)
        again = parse_contributions_csv(text)
        assert again[0].total() == profiles[0].total()
        assert [e.sign for e in again[0].entries] == [1, -1]


H = "citizen_id,good_id,amount\n"
HS = "citizen_id,good_id,amount,sign\n"


def table(text, through, tmp_path):
    """The parser's argument for ``text``: the string itself, or the path of
    a file holding it, which the parser reads as a stream."""
    if through == "string":
        return text
    path = tmp_path / "c.csv"
    path.write_text(text)
    return path


class TestContributionsCsvErrors:
    """Rows are checked in file order; the first bad row is reported with
    its record number, and blank rows are skipped but still counted."""

    @pytest.mark.parametrize("text, message", [
        ("citizen_id,amount\n",
         "line 1: missing required column 'good_id' (header: ['citizen_id', 'amount'])"),
        (H + "a,g\n", "line 2: expected at least 3 fields, got 2"),
        (H + "a,,1\n", "line 2: empty citizen_id or good_id"),
        (H + " ,g,1\n", "line 2: empty citizen_id or good_id"),
        (H + "a,g,1\nb,g,zzz\n", "line 3: amount 'zzz' is not a number"),
        (H + "a,g,-1\n", "line 2: amount must be a finite nonnegative real, got -1.0"),
        (H + "a,g,nan\n", "line 2: amount must be a finite nonnegative real, got nan"),
        (H + "a,g,inf\n", "line 2: amount must be a finite nonnegative real, got inf"),
        (HS + "a,g,1, x \n", "line 2: sign must be one of +1/-1/+/-, got 'x'"),
        (HS + "a,g,-1,0\n", "line 2: sign must be one of +1/-1/+/-, got '0'"),
        # several bad rows: the first in file order wins, whatever its good
        (H + "a,g,1\nb,h,-3\nc,g,zz\nd\n",
         "line 3: amount must be a finite nonnegative real, got -3.0"),
        (H + "a,g,1\nb,h,x\nc,g,-1\n", "line 3: amount 'x' is not a number"),
        (HS + "a,g,1,+\nb,g,2,?\nc,g,-1,-\n", "line 3: sign must be one of +1/-1/+/-, got '?'"),
        # blank and whitespace-only rows are skipped but keep their numbers
        (H + "a,g,1\n\n   ,  ,\n \nb,g,zz\n", "line 6: amount 'zz' is not a number"),
        # a duplicate is reported only once every row has passed
        (H + "a,g,1\na,g,2\nb,h,-3\n",
         "line 4: amount must be a finite nonnegative real, got -3.0"),
        (H + "a,g,1\nb,h,1\nb,h,2\na,g,2\n",
         "good 'g': duplicate contribution by citizen 'a'"),
        # a field spanning two lines is one record
        (H + '"a\nb",g,1\nc,g,x\n', "line 3: amount 'x' is not a number"),
        # a row short of a later required column is a field-count error
        ("x,citizen_id,good_id,amount\n1,a,g\n", "line 2: expected at least 4 fields, got 3"),
    ])
    @pytest.mark.parametrize("through", ["file", "string"])
    def test_first_bad_row_reported(self, text, message, through, tmp_path):
        with pytest.raises(ScenarioFormatError) as err:
            parse_contributions_csv(table(text, through, tmp_path))
        assert str(err.value) == message

    def test_oversized_field_reports_its_record(self, tmp_path):
        # a field past csv's limit (131,072 characters) is a format error
        path = tmp_path / "c.csv"
        path.write_text(H + "a,g,1\n" + "x" * 140_000 + ",g,1\n")
        with pytest.raises(ScenarioFormatError,
                           match=r"^line 3: field larger than field limit \(131072\)$"):
            parse_contributions_csv(path)
        with pytest.raises(ScenarioFormatError, match="^line 1: field larger"):
            parse_contributions_csv("x" * 140_000 + "\n")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ScenarioFormatError, match="^contributions file is empty$"):
            parse_contributions_csv(path)

    def test_short_row_gets_sign_plus_one(self):
        profiles = parse_contributions_csv(HS + "a,g,1,-\nb,g,4\nc,g,9,\n")
        assert profiles[0].signs == (-1, 1, 1)

    @pytest.mark.parametrize("through", ["file", "string"])
    def test_goods_in_order_of_first_row(self, through, tmp_path):
        profiles = parse_contributions_csv(
            table(H + "a,h,1\nb,g,2\nc,h,3\n\n", through, tmp_path))
        assert [(p.good_id, p.citizen_ids, p.amounts) for p in profiles] == [
            ("h", ("a", "c"), (1.0, 3.0)), ("g", ("b",), (2.0,))]

    @pytest.mark.parametrize("through", ["file", "string"])
    def test_one_str_per_citizen_and_no_index_kept(self, through, tmp_path):
        # a citizen on several goods is one str object in every profile, and
        # no profile holds an id index until its first get()
        text = H + "alice,g,1\nbob,h,2\nbob,g,3\nalice,h,0\ncarol,h,4\n"
        g, h = parse_contributions_csv(table(text, through, tmp_path))
        assert g.citizen_ids == ("alice", "bob") and h.citizen_ids == ("bob", "alice", "carol")
        assert g.citizen_ids[0] is h.citizen_ids[1]
        assert g.citizen_ids[1] is h.citizen_ids[0]
        assert "_index" not in g.__dict__ and "_index" not in h.__dict__
        assert h.get("alice") == Contribution("alice", 0.0)
        assert h.get("carol") == Contribution("carol", 4.0)
        assert h.get("dave") is None
        assert "_index" in h.__dict__ and "_index" not in g.__dict__


class TestContributionsCsvRoundTrip:
    @pytest.mark.parametrize("cid, gid", [
        ("smith, j", "g"),
        ("a", "roads, north"),
        ('o"brien', 'the "park"'),
        ("line\nbreak", "g"),
    ])
    def test_ids_survive_the_writer(self, cid, gid, tmp_path):
        profiles = parse_contributions_csv(HS + "x,base,1,+1\n")
        profiles.append(type(profiles[0]).from_columns(gid, [cid, "y"], [4.0, 0.5], [1, -1]))
        path = tmp_path / "c.csv"
        path.write_text(contributions_to_csv(profiles))
        again = parse_contributions_csv(path)
        assert again == profiles

    @pytest.mark.parametrize("through", ["file", "string"])
    def test_carriage_returns_survive(self, through, tmp_path):
        profiles = [ContributionProfile.from_columns(
            "g\rh", ["a\rb", "c\r\nd", "e\n\rf", "x"], [1.0, 2.0, 3.0, 4.0], [1, 1, -1, 1])]
        text = contributions_to_csv(profiles)
        assert '"a\rb","g\rh",1,+1\n' in text
        assert parse_contributions_csv(table(text, through, tmp_path)) == profiles

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_any_line_ending_reads_alike(self, end, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes((HS + "a,g,1,+1\nb,g,4,-1\n").replace("\n", end).encode())
        assert parse_contributions_csv(path) == parse_contributions_csv(
            HS + "a,g,1,+1\nb,g,4,-1\n")

    def test_plain_ids_are_written_unquoted(self):
        profiles = parse_contributions_csv(HS + "a,g,1.25,+1\nb,g,4,-1\n")
        assert contributions_to_csv(profiles) == (
            "citizen_id,good_id,amount,sign\na,g,1.25,+1\nb,g,4,-1\n")


@pytest.mark.parametrize("path, value", [
    (("round", "assurance", "g"), float("nan")),
    (("round", "assurance", "g"), -1.0),
    (("round", "agents", "b", "shares", "g"), float("nan")),
    (("round", "agents", "b", "shares", "g"), float("inf")),
    (("citizens", 0, "values", "g"), {"family": "SSHAPED",
                                      "params": {"a": 20, "k": float("nan"), "m": 30}}),
], ids=["threshold-nan", "threshold-negative",
        "share-nan", "share-inf", "sshaped-k-nan"])
def test_nan_and_negative_numbers_rejected(path, value):
    data = TestRoundBlock().round_block()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    # through JSON text, where NaN is the token a file would hold
    with pytest.raises(ScenarioFormatError):
        parse_scenario(json.dumps(data))
