"""Self-interested play under three regimes: private, majority vote, QF.

One good, three citizens whose value functions are a*sqrt(F) with weights
1, 2 and 9. The welfare optimum funds at ((1+2+9)/2)^2 = 36.

Run: python3 demos/equilibrium_benchmarks.py
"""

from qflab import (
    Citizen,
    MechanismConfig,
    Scenario,
    ValueFunction,
    optimal_funding,
    solve_equilibrium,
    welfare,
)

weights = [1.0, 2.0, 9.0]
citizens = [Citizen(f"c{i}", {"g": ValueFunction.sqrt(a)})
            for i, a in enumerate(weights)]

configs = {
    "private": MechanismConfig.private(),
    "majority vote": MechanismConfig.one_p_one_v(),
    "quadratic": MechanismConfig.qf(),
    "capital-constrained 0.2": MechanismConfig.cqf(0.2),
}

print(f"{'regime':24s}  {'funding':>10s}  {'V_agg':>8s}  {'efficiency':>10s}")
for name, cfg in configs.items():
    sc = Scenario(citizens, ["g"], cfg)
    r = solve_equilibrium(sc)
    rep = welfare(sc, r.funding)
    print(f"{name:24s}  {r.funding['g']:10.4f}  {r.marginal_report['g']:8.4f}"
          f"  {rep.efficiency_ratio:10.4f}")

sc = Scenario(citizens, ["g"], MechanismConfig.qf())
print(f"\nwelfare optimum funds at {optimal_funding(sc, 'g'):g}")
print("the quadratic rule is the only regime whose equilibrium drives the")
print("aggregate marginal value to 1, i.e. hits that optimum")

# who pays what under QF
r = solve_equilibrium(sc)
print("\nQF equilibrium contributions and taxes:")
for e in r.contributions["g"].entries:
    print(f"  {e.citizen_id}: contributes {e.amount:8.4f},"
          f" tax share {r.taxes[e.citizen_id]:8.4f}")
print(f"  matching-pool deficit: {r.deficit:.4f}")
