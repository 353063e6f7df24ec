"""Time the library calls behind the ROADMAP "Recent" baselines.

    PYTHONPATH=src python3 perfbench/roadmap_baselines.py

One in-process call each, on the worked example (and the cosine
fixtures), so the figures compare directly with the ROADMAP list:
reduce_model 0.15 s, simulate_original 5.7 s at 20k x 1000 with
eps = 3e-3, simulate_reduced 0.98 s, radial_balance on the cosine
fixture 1.9 s, density_reducibility_check 0.5 s, riccati_solve with
400 steps 0.013 s.  Prints one JSON object of seconds.
"""

from __future__ import annotations

import json
import time

import numpy as np

from child import cos_fixtures
from levyreduce import SphericalMeasure, VolatilityFunction, stable_spec
from levyreduce.conditions import density_reducibility_check, radial_balance
from levyreduce.pricing import riccati_solve
from levyreduce.reduction import reduce_model
from levyreduce.simulate import RngStream, simulate_original, simulate_reduced


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def main() -> None:
    spec = stable_spec(1.5, SphericalMeasure.from_atoms(np.eye(2), [0.5, 0.5]))
    vol = VolatilityFunction.power(1.0 / 1.5, [1.0, 1.0])
    cos_spec, cos_density = cos_fixtures()
    (model, _), t_reduce = _timed(reduce_model, spec, vol, -0.5, 0.1)
    _, t_original = _timed(
        simulate_original, vol, spec, -0.5, 0.1, 1.0, 3e-3, 2.0, 1000, 20_000, RngStream(10)
    )
    _, t_reduced = _timed(simulate_reduced, model, 1.0, 2.0, 1000, 20_000, RngStream(10))
    _, t_balance = _timed(radial_balance, cos_spec)
    _, t_density = _timed(density_reducibility_check, cos_density)
    _, t_riccati = _timed(riccati_solve, model, 2.0, 400)
    print(json.dumps({
        "reduce_model": t_reduce,
        "simulate_original_20k_x_1000": t_original,
        "simulate_reduced_20k_x_1000": t_reduced,
        "radial_balance_cos": t_balance,
        "density_reducibility_check_cos": t_density,
        "riccati_solve_400": t_riccati,
    }))


if __name__ == "__main__":
    main()
