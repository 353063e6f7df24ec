"""Workload definitions: configs generated from the workload seed.

Every config a run uses is derived from ``--seed`` here; the program
under test only ever sees the generated JSON files.  Each workload is a
user session of five CLI pipeline invocations on one family of atoms:

* ``check``, ``reduce``, ``price`` and ``compare`` run the power-law
  model, which the reduction accepts;
* ``simulate`` runs the tempered twin of the same atoms (radial density
  r^-2.5 e^-r tabulated on [1e-4, 50], no quadrature hints).  The
  reduction refuses that model, so simulation is the only pipeline a
  user has for it, and it keeps power-law-only shortcuts (closed-form
  radii, exact stable increments) out of the simulate timing.

The traced run adds two probes that no CLI config can express as a
passing run: the tempered model's ``reduce`` refusal and the library
checks on the cosine fixtures (see ``PROBES``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHA = 1.5
G_EXPONENT = 1.0 / ALPHA
TEMPERED_GRID = (1e-4, 50.0, 400)
# two full many-atoms sessions fit in one 60 s run on a 2-vCPU machine
N_ATOMS = 16
SIMULATE_SIZE = (2000, 500)  # (paths, steps) of the tempered simulate run

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "worked": (
        "paper's worked example (2 axis atoms, alpha 1.5, compare 20k x 1000 "
        "at eps 3e-3): compare cost is jump-radius draws, quadrature is light"
    ),
    "many-atoms": (
        "16 seeded atoms in d=3: reduce/price cost is scalar laplace_radial "
        "quadrature and compare cost is the per-direction sampling loop"
    ),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI pipeline run: which config it reads and what it must return."""

    pipeline: str
    config: str
    expected_rc: int


def _power_model(directions, weights) -> dict:
    d = len(directions[0])
    return {
        "d": d,
        "Q": [[0.0] * d for _ in range(d)],
        "spherical": {
            "atoms": {
                "directions": [[float(v) for v in xi] for xi in directions],
                "weights": [float(w) for w in weights],
            }
        },
        "radial": {"kind": "power", "alpha": ALPHA},
    }


def _tempered_radial() -> dict:
    lo, hi, n = TEMPERED_GRID
    r = np.geomspace(lo, hi, n)
    dens = r ** -(1.0 + ALPHA) * np.exp(-r)
    return {
        "kind": "custom",
        "points": [[float(x), float(v)] for x, v in zip(r, dens)],
    }


def _doc(model, d, simulation, tau_grid) -> dict:
    return {
        "model": model,
        "G": {"kind": "power", "exponent": G_EXPONENT, "direction": [1.0] * d},
        "drift": {"a": -0.5, "b": 0.1},
        "simulation": simulation,
        "pricing": {"tau_grid": list(tau_grid)},
    }


def _atoms(name: str, rng: np.random.Generator):
    if name == "worked":
        # the shipped demos/configs/example1.json model
        return np.eye(2), np.array([0.5, 0.5])
    # N_ATOMS directions on the positive octant of S^2, weights summing to
    # one, so the total jump intensity above eps is the same for every seed
    dirs = np.abs(rng.standard_normal((N_ATOMS, 3)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    weights = rng.uniform(0.5, 1.5, N_ATOMS)
    return dirs, weights / weights.sum()


def _sim_sizes(name: str):
    """(horizon, dt, n_paths, eps, tau_grid) of the compare run."""
    if name == "worked":
        return 2.0, 0.002, 20_000, 0.003, (0.5, 1.0, 2.0)
    return 1.0, 0.002, 10_000, 0.01, (0.25, 0.5, 1.0)


def build(name: str, seed: int) -> tuple[dict, dict]:
    """Return ({config name: document}, expectations) for one workload.

    expectations holds the closed-form reduced constants the gates
    compare against, alpha and C = (sum_i w_i <1, xi_i>^alpha)^(1/alpha),
    and the number of maturities.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    rng = np.random.default_rng(seed)
    dirs, weights = _atoms(name, rng)
    compare_seed, simulate_seed = (int(s) for s in rng.integers(1, 2**31 - 1, 2))
    d = dirs.shape[1]
    horizon, dt, n_paths, eps, taus = _sim_sizes(name)

    power = _doc(
        _power_model(dirs, weights), d,
        {"x0": 1.0, "horizon": horizon, "dt": dt, "n_paths": n_paths,
         "eps": eps, "seed": compare_seed},
        taus,
    )
    tempered_model = _power_model(dirs, weights)
    tempered_model["radial"] = _tempered_radial()
    paths, steps = SIMULATE_SIZE
    tempered = _doc(
        tempered_model, d,
        {"x0": 1.0, "horizon": 1.0, "dt": 1.0 / steps, "n_paths": paths,
         "eps": eps, "seed": simulate_seed},
        taus,
    )
    refusal_model = _power_model(np.eye(2), [0.5, 0.5])
    refusal_model["radial"] = _tempered_radial()
    refusal = _doc(refusal_model, 2, tempered["simulation"], taus)
    closed_c = float(weights @ dirs.sum(axis=1) ** ALPHA) ** (1.0 / ALPHA)
    expect = {"alpha": ALPHA, "C": closed_c, "n_taus": len(taus)}
    return {"power": power, "tempered": tempered, "refusal": refusal}, expect


SESSION = (
    Invocation("check", "power", 0),
    Invocation("reduce", "power", 0),
    Invocation("price", "power", 0),
    Invocation("simulate", "tempered", 0),
    Invocation("compare", "power", 0),
)

# Traced-run probes: no end-to-end metric, but their layers and gates.
PROBES = (
    # the tempered axis-atom model is not affine, so reduce must refuse
    # with exit 1; the axis atoms keep the refusal short on every workload
    Invocation("reduce", "refusal", 1),
    # library calls of _cmd_check on the cosine fixtures (id() caches miss)
    Invocation("cos-fixtures", "", 0),
)
