"""Shared fixtures: the worked two-atom stable example, the cosine
angular fixture, and small helpers used across the suite."""

import json

import numpy as np
import pytest

from levyreduce import (
    LevySpec,
    SphericalMeasure,
    VolatilityFunction,
    density_spec,
    power_radial,
    stable_spec,
)

ALPHA = 1.5
# Gamma(2 - alpha) / (alpha (alpha - 1)) frozen for the suite's alphas
C_11 = 9.71480638290289
C_12 = 4.850957140522097
C_15 = 2.363271801207355
C_17 = 2.513923519065202
C_19 = 5.5634547945431137


@pytest.fixture(scope="session")
def two_atom_spherical():
    """Half-weight atoms at e1 and e2 in the plane."""
    return SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])


@pytest.fixture(scope="session")
def example_spec(two_atom_spherical):
    """The worked reducible fixture: alpha = 1.5 stable jumps on the
    half-weight axis atoms, no Wiener part."""
    return stable_spec(ALPHA, two_atom_spherical)


@pytest.fixture(scope="session")
def example_vol():
    """G(x) = x^(2/3) (1, 1), the volatility paired with example_spec."""
    return VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0])


@pytest.fixture(scope="session")
def cos_spec():
    """Uniform angular part with direction-proportional radial scales
    (1 + cos(theta)/2) r^(-2.5) dr, the K = 3 balance fixture."""
    spherical = SphericalMeasure.from_angular(2, lambda ang: np.ones(ang.shape[0]))

    def family(xi):
        return power_radial(ALPHA, scale=1.0 + 0.5 * float(xi[0]))

    return LevySpec(2, np.zeros((2, 2)), spherical, family)


@pytest.fixture(scope="session")
def cos_density_spec():
    """Plane density (1 + cos(theta)/2) |x|^(-3.5), the fixture passing
    every reducibility criterion."""

    def g(points):
        r = np.linalg.norm(points, axis=1)
        r = np.maximum(r, 1e-300)
        cos_t = points[:, 0] / r
        return (1.0 + 0.5 * cos_t) * r**-3.5

    return density_spec(g, 2)


@pytest.fixture
def write_config(tmp_path):
    """Dump a config document into the test's scratch directory."""

    def _write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return str(path)

    return _write


def base_config(**overrides):
    """The worked example as a CLI config; overrides patch top-level keys."""
    doc = {
        "model": {
            "d": 2,
            "Q": [[0.0, 0.0], [0.0, 0.0]],
            "spherical": {
                "atoms": {
                    "directions": [[1.0, 0.0], [0.0, 1.0]],
                    "weights": [0.5, 0.5],
                }
            },
            "radial": {"kind": "power", "alpha": 1.5, "scale": 1.0},
        },
        "G": {"kind": "power", "exponent": 2.0 / 3.0, "direction": [1.0, 1.0]},
        "drift": {"a": -0.5, "b": 0.1},
        "simulation": {
            "x0": 1.0,
            "horizon": 1.0,
            "dt": 0.01,
            "n_paths": 2000,
            "eps": 0.01,
            "seed": 10,
        },
        "pricing": {"tau_grid": [0.25, 0.5]},
    }
    doc.update(overrides)
    return doc
