"""Scenario files (JSON) and contribution tables (CSV).

Validation is fail-closed: unknown keys anywhere in a scenario file are
rejected, so typos cannot silently change a run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ScenarioFormatError
from .mechanisms import (
    ContributionProfile,
    DeficitMode,
    MechanismConfig,
    Variant,
    _entry_error,
)
from .preferences import FAMILY_PARAMS, Citizen, Family, ValueFunction
from .equilibrium import Scenario

_TOP_KEYS = {"mechanism", "goods", "citizens", "round"}
_MECH_KEYS = {"variant", "alpha", "beta", "scale", "deficit_mode"}
_CITIZEN_KEYS = {"id", "lambda", "values"}
_VALUE_KEYS = {"family", "params"}
_ROUND_KEYS = {"window_end", "seed", "delay", "assurance", "agents"}
_AGENT_KEYS = {"policy", "shares"}


@dataclass(frozen=True)
class AgentSpec:
    policy: str
    shares: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RoundSpec:
    window_end: int
    seed: int
    delay: float = 0
    assurance: dict[str, float] = field(default_factory=dict)
    agents: dict[str, AgentSpec] = field(default_factory=dict)


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ScenarioFormatError(
            f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _number(obj, where: str) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ScenarioFormatError(f"{where}: expected a number, got {obj!r}")
    return float(obj)


def _parse_value_function(spec, where: str) -> ValueFunction:
    if not isinstance(spec, dict):
        raise ScenarioFormatError(f"{where}: expected an object, got {spec!r}")
    _reject_unknown(spec, _VALUE_KEYS, where)
    try:
        family = Family(str(spec.get("family", "")).upper())
    except ValueError:
        raise ScenarioFormatError(
            f"{where}: family must be one of {[f.value for f in Family]}, "
            f"got {spec.get('family')!r}") from None
    params = spec.get("params")
    if not isinstance(params, dict):
        raise ScenarioFormatError(f"{where}: params must be an object")
    names = FAMILY_PARAMS[family]
    _reject_unknown(params, names, f"{where}.params")
    kwargs = {k: _number(v, f"{where}.params.{k}") for k, v in params.items()}
    missing = [k for k in names if k not in kwargs]
    if missing:
        raise ScenarioFormatError(f"{where}: missing param {missing[0]!r}")
    try:
        return ValueFunction(family, **kwargs)
    except ValueError as e:
        raise ScenarioFormatError(f"{where}: {e}") from None


def _parse_mechanism(spec, where: str) -> MechanismConfig:
    if not isinstance(spec, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    _reject_unknown(spec, _MECH_KEYS, where)
    try:
        variant = Variant(str(spec.get("variant", "")).upper())
    except ValueError:
        raise ScenarioFormatError(
            f"{where}: variant must be one of {[v.value for v in Variant]}, "
            f"got {spec.get('variant')!r}") from None
    mode = spec.get("deficit_mode", "IGNORE")
    try:
        deficit_mode = DeficitMode(str(mode).upper())
    except ValueError:
        raise ScenarioFormatError(
            f"{where}: deficit_mode must be IGNORE or SHADOW_PRICES") from None
    kwargs = {}
    for key in ("alpha", "beta", "scale"):
        if key in spec:
            kwargs[key] = _number(spec[key], f"{where}.{key}")
    try:
        return MechanismConfig(variant=variant, deficit_mode=deficit_mode, **kwargs)
    except ValueError as e:
        raise ScenarioFormatError(f"{where}: {e}") from None


def _parse_round(spec, goods: list[str], citizen_ids: set[str]) -> RoundSpec:
    _reject_unknown(spec, _ROUND_KEYS, "round")
    window_end = spec.get("window_end")
    if not isinstance(window_end, int) or isinstance(window_end, bool) or window_end < 1:
        raise ScenarioFormatError("round.window_end: expected a positive integer")
    if "seed" not in spec or not isinstance(spec["seed"], int) \
            or isinstance(spec["seed"], bool):
        raise ScenarioFormatError(
            "round.seed: a seed is required (reproducibility contract)")
    delay = _number(spec.get("delay", 0), "round.delay")
    if not (delay >= 0):
        raise ScenarioFormatError(
            f"round.delay: expected a nonnegative number or Infinity, got {delay!r}")
    assurance = {}
    for g, t in (spec.get("assurance") or {}).items():
        if g not in goods:
            raise ScenarioFormatError(f"round.assurance: unknown good {g!r}")
        assurance[g] = _number(t, f"round.assurance.{g}")
        if not assurance[g] >= 0:
            raise ScenarioFormatError(
                f"round.assurance.{g}: expected a nonnegative number or Infinity, "
                f"got {assurance[g]!r}")
    agents = {}
    for cid, aspec in (spec.get("agents") or {}).items():
        if cid not in citizen_ids:
            raise ScenarioFormatError(f"round.agents: unknown citizen {cid!r}")
        if not isinstance(aspec, dict):
            raise ScenarioFormatError(f"round.agents.{cid}: expected an object")
        _reject_unknown(aspec, _AGENT_KEYS, f"round.agents.{cid}")
        policy = aspec.get("policy")
        if policy not in ("myopic_br", "threshold_pledger"):
            raise ScenarioFormatError(
                f"round.agents.{cid}: policy must be myopic_br or "
                f"threshold_pledger, got {policy!r}")
        shares = {g: _number(x, f"round.agents.{cid}.shares.{g}")
                  for g, x in (aspec.get("shares") or {}).items()}
        for g, x in shares.items():
            if g not in goods:
                raise ScenarioFormatError(
                    f"round.agents.{cid}.shares: unknown good {g!r}")
            if not 0 <= x < math.inf:
                raise ScenarioFormatError(
                    f"round.agents.{cid}.shares.{g}: expected a nonnegative finite number, "
                    f"got {x!r}")
        agents[cid] = AgentSpec(policy=policy, shares=shares)
    return RoundSpec(window_end=window_end, seed=spec["seed"],
                     delay=delay, assurance=assurance, agents=agents)


def parse_scenario(source) -> tuple[Scenario, RoundSpec | None]:
    """Parse a scenario from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        data = source
    else:
        text = Path(source).read_text() if not str(source).lstrip().startswith("{") \
            else str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ScenarioFormatError(f"invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "scenario")
    for key in ("mechanism", "goods", "citizens"):
        if key not in data:
            raise ScenarioFormatError(f"scenario: missing required key {key!r}")
    mechanism = _parse_mechanism(data["mechanism"], "mechanism")
    goods = data["goods"]
    if not isinstance(goods, list) or not goods \
            or not all(isinstance(g, str) for g in goods):
        raise ScenarioFormatError("goods: expected a nonempty list of ids")
    if len(set(goods)) != len(goods):
        raise ScenarioFormatError("goods: duplicate ids")
    citizens = []
    raw_citizens = data["citizens"]
    if not isinstance(raw_citizens, list) or not raw_citizens:
        raise ScenarioFormatError("citizens: expected a nonempty list")
    for i, c in enumerate(raw_citizens):
        where = f"citizens[{i}]"
        if not isinstance(c, dict):
            raise ScenarioFormatError(f"{where}: expected an object")
        _reject_unknown(c, _CITIZEN_KEYS, where)
        cid = c.get("id")
        if not isinstance(cid, str) or not cid:
            raise ScenarioFormatError(f"{where}: id must be a nonempty string")
        lam = _number(c.get("lambda", 0), f"{where}.lambda")
        values = {}
        for g, vspec in (c.get("values") or {}).items():
            if g not in goods:
                raise ScenarioFormatError(f"{where}.values: unknown good {g!r}")
            values[g] = _parse_value_function(vspec, f"{where}.values.{g}")
        try:
            citizens.append(Citizen(id=cid, values=values, lam=lam))
        except ValueError as e:
            raise ScenarioFormatError(f"{where}: {e}") from None
    try:
        scenario = Scenario(citizens=citizens, goods=list(goods), mechanism=mechanism)
    except ValueError as e:
        raise ScenarioFormatError(str(e)) from None
    round_spec = None
    if "round" in data and data["round"] is not None:
        if not isinstance(data["round"], dict):
            raise ScenarioFormatError("round: expected an object")
        round_spec = _parse_round(data["round"], list(goods), {c.id for c in citizens})
    return scenario, round_spec


_SIGNS = {"+1": 1, "1": 1, "+": 1, "": 1, "-1": -1, "-": -1}


def parse_contributions_csv(source) -> list[ContributionProfile]:
    """Read a contributions table (citizen_id, good_id, amount[, sign]).

    Ids may contain commas, quotes and newlines when quoted as in CSV.
    Errors carry the 1-based record number of the offending row (the line
    number when no field spans lines); blank rows are skipped but counted.
    Rows are checked as they stream in and the first bad row in file order
    is the one reported; a citizen listed twice on a good is reported after
    every row has passed. Each good's rows go into its profile's columns
    directly, without a ``Contribution`` per row.

    A path is read as a stream, record by record, never whole; a string
    holding a line break is the table itself. Each distinct citizen id is
    stored once, as one ``str`` shared by that citizen's profiles.
    """
    # newline="": records may end in \n, \r\n or \r, and a quoted \r or
    # \r\n inside an id is kept as written
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, newline="") as f:
            return _parse_contributions(csv.reader(f))
    return _parse_contributions(csv.reader(io.StringIO(str(source), newline="")))


def _parse_contributions(reader) -> list[ContributionProfile]:
    try:
        header = next(reader)
    except StopIteration:
        raise ScenarioFormatError("contributions file is empty") from None
    except csv.Error as e:
        raise ScenarioFormatError(f"line 1: {e}") from None
    header = [h.strip() for h in header]
    required = ["citizen_id", "good_id", "amount"]
    for col in required:
        if col not in header:
            raise ScenarioFormatError(
                f"line 1: missing required column {col!r} (header: {header})")
    idx = {col: header.index(col) for col in header}
    ci, gi, ai = idx["citizen_id"], idx["good_id"], idx["amount"]
    si = idx.get("sign", -1)
    min_fields = max(len(required), ci + 1, gi + 1, ai + 1)
    columns: dict[str, tuple[list, list, list]] = {}
    shared: dict[str, str] = {}  # each distinct id's first str, used by its rows
    inf = math.inf
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            # A blank row (every cell whitespace) is skipped. It is either short
            # or has an empty id, so it is looked for only on those two paths.
            if len(row) < min_fields:
                if not "".join(row).strip():
                    continue
                raise ScenarioFormatError(f"line {lineno}: expected at least "
                                          f"{min_fields} fields, got {len(row)}")
            cid = row[ci].strip()
            gid = row[gi].strip()
            if not cid or not gid:
                if not "".join(row).strip():
                    continue
                raise ScenarioFormatError(f"line {lineno}: empty citizen_id or good_id")
            try:
                amount = float(row[ai])
            except ValueError:
                raise ScenarioFormatError(
                    f"line {lineno}: amount {row[ai]!r} is not a number") from None
            sign = 1
            if len(row) > si >= 0:
                raw = row[si].strip()
                if raw not in _SIGNS:
                    raise ScenarioFormatError(
                        f"line {lineno}: sign must be one of +1/-1/+/-, got {raw!r}")
                sign = _SIGNS[raw]
            if not 0.0 <= amount < inf:
                raise ScenarioFormatError(f"line {lineno}: {_entry_error(amount, sign)}")
            good = columns.get(gid)
            if good is None:
                good = columns[gid] = ([], [], [])
            good[0].append(shared.setdefault(cid, cid))
            good[1].append(amount)
            good[2].append(sign)
    except csv.Error as e:
        # raised while reading the record after the last one numbered
        raise ScenarioFormatError(f"line {lineno + 1}: {e}") from None
    profiles = []
    for gid, (ids, amounts, signs) in columns.items():
        try:
            profiles.append(ContributionProfile.from_columns(gid, ids, amounts, signs))
        except ValueError as e:
            raise ScenarioFormatError(f"good {gid!r}: {e}") from None
    return profiles


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with quotes doubled, where it holds
    a comma, a double quote or a line break (``\\n`` or ``\\r``), bare
    otherwise."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def contributions_to_csv(profiles) -> str:
    """Write profiles as a contributions table at 12 significant digits, the
    CLI's CSV/JSON precision.

    Ids are quoted only where CSV needs it (``_csv_field``), so an id with a
    comma, double quote, ``\\n`` or ``\\r`` reads back unchanged through
    ``parse_contributions_csv``, from a string or from a file.
    """
    lines = ["citizen_id,good_id,amount,sign\n"]
    for p in profiles:
        gid = _csv_field(p.good_id)
        for cid, amount, sign in zip(p.citizen_ids, p.amounts, p.signs):
            lines.append(f"{_csv_field(cid)},{gid},{amount:.12g},"
                         f"{'+1' if sign > 0 else '-1'}\n")
    return "".join(lines)
