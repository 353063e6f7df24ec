"""Walk the worked two-atom example from measure data to bond prices.

The model: a planar short rate driven by alpha = 1.5 stable jumps along
the coordinate axes (spherical atoms at e1 and e2, weight 1/2 each) with
volatility G(x) = x^(2/3) (1, 1) and drift -0.5 x + 0.1.  The script
checks the hypotheses of the reduction, extracts the one-factor stable-CIR
model, and prints its term structure.

Run from the repository root:  python3 demos/reduce_and_price.py
"""

import numpy as np

from levyreduce import (
    ReducedModel,
    SphericalMeasure,
    VolatilityFunction,
    bond_price,
    check_hypotheses,
    reduce_model,
    riccati_solve,
    stable_spec,
)

spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
spec = stable_spec(1.5, spherical)
G = VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0])
a, b, x0 = -0.5, 0.1, 1.0

print("== hypotheses of the reduction ==")
hypotheses = check_hypotheses(spec, G)
for it in hypotheses.items:
    print(f"  {it.name}: {it.status}")
print(f"  balance constant K = {hypotheses.item('balance_finite').value:.9f}")

print("\n== reduction ==")
model, report = reduce_model(spec, G, a=a, b=b)
print(f"  extracted model: dR = ({model.a} R + {model.b}) dt "
      f"+ {model.C:.6f} R^(1/{model.alpha:.4f}) dZ")
print(f"  affinity residual: {report.item('affinity_residual').value:.2e}")
print(f"  all checks pass: {report.overall_pass}")

print("\n== term structure of the reduced model ==")
ts = riccati_solve(model, 10.0, 400)
print(f"  {'tau':>5} {'A(tau)':>10} {'B(tau)':>10} {'price':>10} {'yield':>8}")
for tau in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
    price = bond_price(ts, x0, tau)
    a_val = float(np.interp(tau, ts.tau_grid, ts.A))
    b_val = float(np.interp(tau, ts.tau_grid, ts.B))
    print(f"  {tau:5.2f} {a_val:10.6f} {b_val:10.6f} {price:10.6f} "
          f"{-np.log(price) / tau:8.4f}")

# the long-maturity slope B settles at the fixed point of 1 = c_alpha B^alpha
limit = ReducedModel(0.0, 0.0, model.C, model.alpha)
print(f"\n  long-run B limit (a=0): "
      f"{riccati_solve(limit, 10.0, 200).B[-1]:.6f}")
