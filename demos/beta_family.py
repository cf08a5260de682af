"""The power family (sum c**(1/beta))**beta between private money and QF.

beta=1 is the private rule, beta=2 the quadratic one. In between the rule
underfunds, beyond 2 it overfunds, and the bias is not even-handed: goods
backed by many small contributors suffer most below beta=2.

Run: python3 demos/beta_family.py
"""

from qflab import (
    Citizen,
    MechanismConfig,
    Scenario,
    ValueFunction,
    jensen_direction,
    solve_equilibrium,
)

weights = [1.0, 4.0]
citizens = [Citizen(f"c{i}", {"g": ValueFunction.sqrt(a)})
            for i, a in enumerate(weights)]

print(f"{'beta':>5s}  {'funding':>9s}  {'V_agg':>7s}  direction")
for beta in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0):
    sc = Scenario(citizens, ["g"], MechanismConfig.beta_rule(beta))
    r = solve_equilibrium(sc)
    print(f"{beta:5.2f}  {r.funding['g']:9.4f}  {r.marginal_report['g']:7.4f}"
          f"  {jensen_direction(beta).value}")
print("(V_agg above 1 means underfunded, below 1 overfunded)")

# two goods, same total intensity, different crowd structure
print("\n== beta=1.5 punishes the dispersed good ==")
cits = [Citizen(f"s{i}", {"many": ValueFunction.sqrt(0.5)}) for i in range(16)]
cits += [Citizen(f"b{i}", {"few": ValueFunction.sqrt(4.0)}) for i in range(2)]
sc = Scenario(cits, ["many", "few"], MechanismConfig.beta_rule(1.5))
r = solve_equilibrium(sc)
for g in sc.goods:
    print(f"  {g:5s}: funding {r.funding[g]:8.4f}, "
          f"aggregate marginal {r.marginal_report[g]:7.4f}")
print("the dispersed good ends further from the optimum (marginal 1)")
