"""Independent checks of qflab's outputs.

Every expected value here is computed from the definitions, retyped: the
value families, the funding rules, each citizen's first-order condition, the
median vote, a brute-force best response, and a replay of a round's events.
No qflab function computes an expected value; qflab objects are read only
for the parameters the benchmark itself put into them. Each checker returns
a list of error strings, empty when the output passes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

REL = 1e-7          # contributions: the solver stops within 1e-8 of a best response
FOC_TOL = 1e-6      # aggregate and per-citizen marginal conditions
BISECTIONS = 80     # halvings of a bracket; far below the tolerances above


# ---------------------------------------------------------------------------
# value families, vectorised over the members of one good


def _sigmoid(x):
    x = np.clip(np.asarray(x, dtype=float), -700.0, 700.0)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def _value(fam, a, rho, k, m, F):
    if fam == "SQRT":
        return a * np.sqrt(F)
    if fam == "LOG":
        return a * np.log1p(F)
    if fam == "ISOELASTIC":
        return a * F ** rho
    if fam == "SSHAPED":
        return a * (_sigmoid(k * (F - m)) - _sigmoid(-k * m))
    return 0.0 * F


def _marginal(fam, a, rho, k, m, F):
    Fp = np.maximum(F, 1e-300)
    if fam == "SQRT":
        return a / (2.0 * np.sqrt(Fp))
    if fam == "LOG":
        return a / (1.0 + F)
    if fam == "ISOELASTIC":
        return a * rho * Fp ** (rho - 1.0)
    if fam == "SSHAPED":
        sig = _sigmoid(k * (F - m))
        return a * k * sig * (1.0 - sig)
    return 0.0 * F


class Members:
    """Parameter arrays of the citizens that value one good (a citizen with
    no value function for it has family NONE and values it at 0)."""

    def __init__(self, ids, vfs, lam=None):
        self.ids = list(ids)
        self.n = len(self.ids)
        self.fam = np.array([vf.family.value if vf is not None else "NONE" for vf in vfs])
        self.a = np.array([vf.a if vf is not None else 0.0 for vf in vfs], dtype=float)
        self.rho = np.array([getattr(vf, "rho", None) or 0.5 for vf in vfs], dtype=float)
        self.k = np.array([getattr(vf, "k", None) or 1.0 for vf in vfs], dtype=float)
        self.m = np.array([getattr(vf, "m", None) or 1.0 for vf in vfs], dtype=float)
        self.lam = np.zeros(self.n) if lam is None else np.asarray(lam, dtype=float)
        self._groups = [(fam, i, self.a[i], self.rho[i], self.k[i], self.m[i])
                        for fam in np.unique(self.fam) for i in [np.flatnonzero(self.fam == fam)]]

    def _per_family(self, fn, F):
        F = np.broadcast_to(np.asarray(F, dtype=float), (self.n,))
        out = np.zeros(self.n)
        for fam, i, a, rho, k, m in self._groups:
            out[i] = fn(fam, a, rho, k, m, F[i])
        return out

    def value(self, F):
        return self._per_family(_value, F)

    def marginal(self, F):
        return self._per_family(_marginal, F)

    def marginal_at_zero(self):
        inf = np.where(self.a > 0, np.inf, -np.inf)
        diverges = (self.fam == "SQRT") | (self.fam == "ISOELASTIC")
        return np.where(diverges, inf, self.marginal(0.0))

    def inverse_marginal(self, target):
        """Per-member F >= 0 with V'(F) = target on a concave family, 0 where
        even the marginal at 0 is below the target."""
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = (self.a / (2.0 * target)) ** 2
            lg = np.maximum(self.a / target - 1.0, 0.0)
            iso = (target / (self.a * self.rho)) ** (1.0 / (self.rho - 1.0))
        return np.select([self.fam == "SQRT", self.fam == "LOG"], [sq, lg], iso)


def members_of(scenario, good, outsiders=False):
    """Citizens valuing ``good``; with ``outsiders``, also the deficit-averse
    citizens who value it not at all but may pay to shrink its match."""
    ids, vfs, lam = [], [], []
    for c in scenario.citizens:
        vf = c.values.get(good)
        if vf is not None or (outsiders and c.lam > 0):
            ids.append(c.id)
            vfs.append(vf)
            lam.append(c.lam)
    return Members(ids, vfs, lam)


# ---------------------------------------------------------------------------
# funding rules, from a signed contribution vector


def funding(rule, c, sign=None):
    """Retyped funding of one good. ``rule`` is (variant, param)."""
    variant, p = rule
    c = [float(x) for x in c]
    sign = [1] * len(c) if sign is None else list(sign)
    live = [(x, s) for x, s in zip(c, sign) if x > 0]
    if not live:
        return 0.0
    if variant == "PRIVATE":
        return math.fsum(x for x, _ in live)
    if variant == "LINEAR_MATCH":
        return p * math.fsum(x for x, _ in live)
    if len(live) == 1 and variant in ("QF", "CQF", "PM_QF"):
        return live[0][0]
    root = math.fsum(s * math.sqrt(x) for x, s in live)
    if variant in ("QF", "PM_QF"):
        return root * root
    if variant == "CQF":
        return p * root * root + (1.0 - p) * math.fsum(x for x, _ in live)
    raise ValueError(f"no retyped rule for {variant}")


def rule_of(config):
    v = config.variant.value
    return (v, {"CQF": config.alpha, "LINEAR_MATCH": config.scale}.get(v))


def _amounts(profile, ids):
    got = {e.citizen_id: (e.amount, e.sign) for e in profile.entries}
    c = np.array([got.get(i, (0.0, 1))[0] for i in ids], dtype=float)
    s = np.array([got.get(i, (0.0, 1))[1] for i in ids], dtype=float)
    return c, s, got


def _close(x, y, rel, abs_=0.0):
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


# ---------------------------------------------------------------------------
# concave goods: first-order conditions, optimum, vote, welfare


def quadratic_best_responses(mem, rule, c):
    """Exact best responses under QF/CQF to the others' state, by bisection
    on the first-order condition in z = sqrt(c), where utility is concave."""
    variant, alpha = rule
    alpha = 1.0 if variant == "QF" else alpha
    z = np.sqrt(c)
    s = z.sum() - z
    A = c.sum() - c

    def rising(zz):
        T = s + zz
        F = alpha * T * T + (1.0 - alpha) * (A + zz * zz)
        return mem.marginal(F) * (alpha * T + (1.0 - alpha) * zz) - zz > 0.0

    lo = np.zeros(mem.n)
    hi = np.maximum(1.0, 2.0 * z)
    for _ in range(200):
        grow = rising(hi)
        if not grow.any():
            break
        hi = np.where(grow, 2.0 * hi, hi)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        up = rising(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return (0.5 * (lo + hi)) ** 2


def check_equilibrium(scenario, result):
    """Every contribution meets its rule's first-order condition."""
    errors = []
    rule = rule_of(scenario.mechanism)
    variant, p = rule
    n_all = len(scenario.citizens)
    for good in scenario.goods:
        mem = members_of(scenario, good)
        F = result.funding[good]
        if variant == "ONE_P_ONE_V":
            pref = np.where(mem.marginal_at_zero() > 1.0 / n_all,
                            mem.inverse_marginal(1.0 / n_all), 0.0)
            pref = sorted(list(pref) + [0.0] * (n_all - mem.n))
            want = pref[(n_all - 1) // 2]
            if not _close(F, want, 1e-12, 1e-12):
                errors.append(f"{good}: vote outcome {F!r}, lower median {want!r}")
            continue
        c, _, got = _amounts(result.contributions[good], mem.ids)
        if set(got) - set(mem.ids):
            errors.append(f"{good}: contributions from citizens without a stake")
        F_re = funding(rule, c)
        if not _close(F, F_re, 1e-9, 1e-12):
            errors.append(f"{good}: funding {F!r} but contributions fund {F_re!r}")
        if variant in ("QF", "CQF"):
            br = quadratic_best_responses(mem, rule, c)
        else:
            scale = 1.0 if variant == "PRIVATE" else p
            target_F = np.where(mem.marginal_at_zero() > 1.0 / scale,
                                mem.inverse_marginal(1.0 / scale), 0.0)
            br = np.maximum(0.0, target_F / scale - (c.sum() - c))
            top = scale * float(np.max(mem.marginal(F) if F > 0 else mem.marginal_at_zero()))
            if (F > 0 and abs(top - 1.0) > FOC_TOL) or (F == 0 and top > 1.0 + FOC_TOL):
                errors.append(f"{good}: scale*max V'(F) = {top!r}, not 1")
        bad = np.abs(c - br) > REL * (1.0 + br)
        if bad.any():
            j = int(np.argmax(np.abs(c - br)))
            errors.append(f"{good}: {int(bad.sum())} contributions off their first-order "
                          f"condition, e.g. {mem.ids[j]} pays {c[j]!r}, best response {br[j]!r}")
        if variant == "QF" and F > 0:
            agg = float(np.sum(mem.marginal(F)))
            if abs(agg - 1.0) > FOC_TOL:
                errors.append(f"{good}: QF aggregate marginal {agg!r}, not 1")
    return errors


def optimum(mem):
    """Welfare-optimal F for concave members: root of sum V'(F) = 1."""
    if np.sum(mem.marginal_at_zero()) <= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while np.sum(mem.marginal(hi)) > 1.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        if np.sum(mem.marginal(mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_optimal_funding(scenario, good, F_star, want=None):
    mem = members_of(scenario, good)
    want = optimum(mem) if want is None else want
    if want == 0.0:
        return [] if F_star == 0.0 else [f"{good}: optimum {F_star!r}, want 0"]
    agg = float(np.sum(mem.marginal(F_star)))
    if not _close(F_star, want, 1e-8) or abs(agg - 1.0) > 1e-9:
        return [f"{good}: optimum {F_star!r} (sum V' = {agg!r}), bisection gives {want!r}"]
    return []


def net_welfare(mem, F):
    return math.fsum(mem.value(F).tolist()) - F


def check_welfare(scenario, funding_levels, report, optima=None):
    """``optima``: the checker's own optimum per good, if already computed."""
    errors = []
    total, best = [], []
    for good in scenario.goods:
        mem = members_of(scenario, good)
        total.append(net_welfare(mem, funding_levels[good]))
        best.append(net_welfare(mem, optima[good] if optima else optimum(mem)))
        if not _close(report.per_good[good].net, total[-1], 1e-9, 1e-9):
            errors.append(f"{good}: net welfare {report.per_good[good].net!r}, "
                          f"recomputed {total[-1]!r}")
    want, want_opt = math.fsum(total), math.fsum(best)
    if not _close(report.total, want, 1e-9, 1e-9):
        errors.append(f"welfare total {report.total!r}, recomputed {want!r}")
    if not _close(report.optimum_total, want_opt, 1e-7, 1e-9):
        errors.append(f"welfare optimum {report.optimum_total!r}, recomputed {want_opt!r}")
    return errors


def deficit(scenario, result):
    rule = rule_of(scenario.mechanism)
    parts = []
    for good in scenario.goods:
        amounts = [e.amount for e in result.contributions[good].entries]
        parts.append(funding(rule, amounts) - math.fsum(amounts))
    return math.fsum(parts)


def check_calibration(scenario_at_alpha, alpha, budget, result, alpha_min):
    """The returned alpha's equilibrium (checked) has a deficit within budget."""
    errors = []
    if not (alpha_min <= alpha <= 1.0):
        errors.append(f"alpha {alpha!r} outside [{alpha_min}, 1]")
    errors += check_equilibrium(scenario_at_alpha, result)
    d = deficit(scenario_at_alpha, result)
    if d > budget + 1e-9 * max(1.0, budget):
        errors.append(f"deficit {d!r} at alpha {alpha!r} exceeds budget {budget!r}")
    return errors


# ---------------------------------------------------------------------------
# non-concave goods: brute-force best responses


def _golden_max(f, lo, hi, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 >= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = f(c2)
    return f(0.5 * (a + b))


def brute_best_utility(mem, j, rule, c, sign, shadow):
    """Own utility of citizen j and the best she can reach against the
    others' fixed state: a 20,000-point geometric grid on each sign branch,
    then golden-section refinement around the grid maximum."""
    variant, p = rule
    others = np.arange(mem.n) != j
    s_o = math.fsum((sign[others] * np.sqrt(c[others])).tolist())
    A_o = math.fsum(c[others].tolist())
    lam = mem.lam[j] if shadow else 0.0
    params = (mem.fam[j], mem.a[j], mem.rho[j], mem.k[j], mem.m[j])

    def utility(x, sg):
        x = np.asarray(x, dtype=float)
        T = s_o + sg * np.sqrt(x)
        F = T * T if variant in ("QF", "PM_QF") else p * T * T + (1.0 - p) * (A_o + x)
        return _value(*params, F) - x - lam * (F - (A_o + x))

    c_max = 4.0 * max(1.0, A_o, s_o * s_o, float(np.sum(np.abs(mem.a))) ** 2)
    grid = np.geomspace(1e-12, c_max, 20_000)
    best = float(utility(0.0, 1))
    for sg in ((1, -1) if variant == "PM_QF" else (1,)):
        u = utility(grid, sg)
        i = int(np.argmax(u))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        u_ref = _golden_max(lambda x: float(utility(x, sg)), float(lo), float(hi))
        best = max(best, float(u[i]), u_ref)
    return float(utility(c[j], sign[j])), best


def _state_check(scenario, good, profile, shadow):
    mem = members_of(scenario, good, outsiders=shadow)
    c, s, got = _amounts(profile, mem.ids)
    errors = []
    if set(got) - set(mem.ids):
        errors.append(f"{good}: contributions from citizens outside the game")
    rule = rule_of(scenario.mechanism)
    for j in range(mem.n):
        own, best = brute_best_utility(mem, j, rule, c, s, shadow)
        if best - own > 1e-7 * max(1.0, abs(best)):
            errors.append(f"{good}: {mem.ids[j]} gains {best - own:.3g} by deviating "
                          f"from {c[j] * s[j]!r}")
    F = funding(rule, c, s)
    return errors, mem, F


def check_nonconcave(scenario, result):
    """The reported state and its alternate are mutual best responses; the
    reported one has welfare at least that of the alternate."""
    shadow = scenario.mechanism.deficit_mode.value == "SHADOW_PRICES"
    errors = []
    for good in scenario.goods:
        errs, mem, F = _state_check(scenario, good, result.contributions[good], shadow)
        errors += errs
        if not _close(F, result.funding[good], 1e-9, 1e-12):
            errors.append(f"{good}: funding {result.funding[good]!r}, contributions fund {F!r}")
        if result.alternate is not None:
            errs, _, F_alt = _state_check(scenario, good,
                                          result.alternate.contributions[good], shadow)
            errors += [f"alternate {e}" for e in errs]
            w, w_alt = net_welfare(mem, F), net_welfare(mem, F_alt)
            if w < w_alt - 1e-9 * max(1.0, abs(w_alt)):
                errors.append(f"{good}: reported welfare {w!r} below the alternate's {w_alt!r}")
    return errors


# ---------------------------------------------------------------------------
# rounds: replay the exported ledger


def parse_ledger_csv(text):
    events, settlement = [], {}
    head, _, foot = text.partition("# settlement\n")
    for row in list(csv.reader(io.StringIO(head)))[1:]:
        events.append((int(row[0]), row[1], row[2], row[3], float(row[4])))
    for row in list(csv.reader(io.StringIO(foot)))[1:]:
        settlement[row[0]] = (row[1], float(row[2]), float(row[3]))
    return events, settlement


def replay(events, as_of):
    state = {}
    for t, cid, gid, kind, amt in events:
        if t <= as_of:
            key = (cid, gid)
            state[key] = state.get(key, 0.0) + (amt if kind == "CONTRIBUTE" else -amt)
    return state


def _funded(state, good, rule):
    return funding(rule, [amt for (cid, gid), amt in sorted(state.items())
                          if gid == good and amt > 0])


def check_round(rule, goods, delay, thresholds, csv_text, snapshots_json, window_end,
                refunds=None):
    """Replaying the exported events reproduces every snapshot at
    tick - delay; settlement funds exactly when F >= threshold and refunds
    each citizen's net commitment otherwise. ``refunds`` (good -> citizen ->
    amount), when the caller has them, are compared citizen by citizen."""
    errors = []
    events, settlement = parse_ledger_csv(csv_text)
    snaps = json.loads(snapshots_json)
    if [s["tick"] for s in snaps] != list(range(window_end)):
        errors.append("snapshots do not cover every tick once")
    for s in snaps:
        state = replay(events, s["tick"] - delay) if s["tick"] - delay >= 0 else {}
        for g in goods:
            want = _funded(state, g, rule)
            if not _close(s["funding"].get(g, math.nan), want, 1e-12, 1e-12):
                errors.append(f"tick {s['tick']}: snapshot {g}={s['funding'].get(g)!r}, "
                              f"replay gives {want!r}")
                break
    final = replay(events, math.inf)
    for g in goods:
        F = _funded(final, g, rule)
        threshold = thresholds.get(g, 0.0)
        status, fund_level, refund_total = settlement.get(g, ("missing", math.nan, math.nan))
        if F >= threshold:
            if status != "FUNDED" or not _close(fund_level, F, 1e-12, 1e-12) or refund_total != 0:
                errors.append(f"{g}: F={F!r} meets {threshold} but settles {status} at {fund_level!r}")
        else:
            held = {cid: a for (cid, gid), a in sorted(final.items()) if gid == g and a > 0}
            net = math.fsum(held.values())
            if status != "REFUNDED" or fund_level != 0.0 or not _close(refund_total, net, 1e-12):
                errors.append(f"{g}: F={F!r} misses {threshold} but settles {status}, "
                              f"refunds {refund_total!r} of {net!r} committed")
            if refunds is not None and refunds.get(g) != held:
                errors.append(f"{g}: per-citizen refunds differ from net commitments")
    return errors
