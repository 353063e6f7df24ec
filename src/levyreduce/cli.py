"""Command-line pipelines over a JSON model configuration.

Subcommands: check (hypothesis suite), reduce (emit the one-factor
model), simulate (paths of the multivariate equation), price (term
structure of the reduced model), compare (Monte Carlo vs Riccati).
Every run writes a deterministic report.json plus CSV tables; exit
codes: 0 pass, 1 condition or verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .conditions import check_structure, wiener_cir_check
from .exceptions import LevyReduceError
from .measures import (
    LevySpec,
    RadialMeasure,
    SphericalMeasure,
    VolatilityFunction,
    power_radial,
    tabulated_radial,
)
from .pricing import SimConfig, bond_price, compare_term_structures, riccati_solve
from .reduction import check_hypotheses, reduce_model
from .report import CheckReport
from .simulate import RngStream, simulate_original

OUTDIR_ENV = "LEVYREDUCE_OUTDIR"
_USAGE = (
    "levyreduce {check,reduce,simulate,price,compare} config.json "
    "[outdir] [--seed N] [--quiet]"
)
# the keys of the top level (None) and of each flat section; any other
# key is refused, so a misspelt one cannot fall back to a default
_KEYS = {
    None: {"model", "G", "drift", "simulation", "pricing"},
    "model": {"d", "Q", "spherical", "radial"},
    "drift": {"a", "b"},
    "simulation": {"x0", "horizon", "dt", "n_paths", "eps", "seed"},
    "pricing": {"tau_grid"},
}


# the keys each kind of a nested section takes besides "kind"
_KIND_KEYS = {
    "model.radial": {"power": {"alpha", "scale"}, "custom": {"points"}},
    "model.spherical.angular": {"uniform": {"scale"}, "tabulated": {"points"}},
    "G": {"power": {"exponent", "direction"}, "tabulated": {"points"}},
}


# the config values that count, so a fraction must not be cut to an int
_INTEGRAL = {"model.d", "simulation.n_paths", "simulation.seed"}


def _check_numbers(node, name=None) -> None:
    """Refuse a config value outside a kind key that is not a finite
    JSON number (float() takes "NaN" and true; json takes NaN and 1e999
    as nan and inf), and a fraction among the _INTEGRAL values."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "kind":
                _check_numbers(value, f"{name}.{key}" if name else key)
    elif isinstance(node, list):
        for value in node:
            _check_numbers(value, name)
    elif isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValueError(f"{name} must be a JSON number, not {json.dumps(node)}")
    elif not math.isfinite(node):
        raise ValueError(f"{name} must be finite, not {node!r}")
    elif name in _INTEGRAL and node != int(node):
        raise ValueError(f"{name} must be an integer, not {node!r}")


def _check_keys(section, allowed, name=None) -> None:
    """Refuse a section that is not a JSON object or holds a key outside
    allowed; name None stands for the top level."""
    if not isinstance(section, dict):
        raise ValueError(f"{name or 'the configuration'} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        where = f"keys in {name}" if name else "sections"
        raise ValueError(f"unknown {where}: {', '.join(unknown)}")


def _kind(section, name, default=None) -> str:
    """The kind of a nested section, whose other keys must be the ones
    that kind takes."""
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a JSON object")
    kind = section.get("kind", default)
    if kind not in _KIND_KEYS[name]:
        raise ValueError(f"unknown {name} kind {kind!r}")
    _check_keys(section, {"kind"} | _KIND_KEYS[name][kind], name)
    return kind


def _tabulated(points) -> RadialMeasure:
    """Linear-interpolation density from (x, value) pairs in any order."""
    pts = sorted((float(x), float(v)) for x, v in points)
    return tabulated_radial([p[0] for p in pts], [p[1] for p in pts])


def _parse_radial(section) -> RadialMeasure:
    if _kind(section, "model.radial") == "power":
        return power_radial(float(section["alpha"]), float(section.get("scale", 1.0)))
    return _tabulated(section["points"])


def _parse_spherical(section, d: int) -> SphericalMeasure:
    _check_keys(section, {"atoms", "angular"}, "model.spherical")
    if len(section) != 1:
        raise ValueError("model.spherical needs exactly one of 'atoms' and 'angular'")
    if "atoms" in section:
        atoms = section["atoms"]
        _check_keys(atoms, {"directions", "weights"}, "model.spherical.atoms")
        return SphericalMeasure.from_atoms(atoms["directions"], atoms["weights"])
    ang = section["angular"]
    if _kind(ang, "model.spherical.angular", "uniform") == "uniform":
        scale = float(ang.get("scale", 1.0))
        return SphericalMeasure.from_angular(
            d, lambda angles, _s=scale: np.full(np.asarray(angles).shape[0], _s)
        )
    if d != 2:
        raise ValueError("tabulated angular densities are supported in d=2")
    dens = _tabulated(ang["points"]).density
    return SphericalMeasure.from_angular(
        d, lambda angles, _f=dens: _f(np.asarray(angles)[:, 0])
    )


def _parse_volatility(section) -> VolatilityFunction:
    if _kind(section, "G") == "power":
        return VolatilityFunction.power(
            float(section["exponent"]), np.asarray(section["direction"], dtype=float)
        )
    pts = section["points"]
    xs = [float(p[0]) for p in pts]
    vals = [[float(v) for v in p[1]] for p in pts]
    return VolatilityFunction.tabulated(xs, vals)


class RunConfig:
    """Validated artifacts built from one JSON configuration."""

    def __init__(self, doc: dict):
        for name, allowed in _KEYS.items():
            _check_keys(doc if name is None else doc.get(name, {}), allowed, name)
        _check_numbers(doc)
        model = doc["model"]
        d = int(model["d"])
        q = np.asarray(model.get("Q", np.zeros((d, d))), dtype=float)
        if q.shape != (d, d):
            raise ValueError("Q must be d x d")
        spherical = _parse_spherical(model["spherical"], d)
        if spherical.dimension != d:
            raise ValueError("spherical dimension disagrees with d")
        radial = _parse_radial(model["radial"])
        self.spec = LevySpec(d, q, spherical, lambda xi, _r=radial: _r)
        structure = check_structure(self.spec)
        if not structure.overall_pass:
            names = ", ".join(it.name for it in structure.failing())
            raise ValueError(f"model fails structural checks: {names}")
        self.volatility = _parse_volatility(doc["G"]) if "G" in doc else None
        if self.volatility is not None and self.volatility.dimension != d:
            raise ValueError("G dimension disagrees with d")
        drift = doc.get("drift", {})
        self.a = float(drift.get("a", 0.0))
        self.b = float(drift.get("b", 0.0))
        sim = doc.get("simulation", {})
        self.x0 = float(sim.get("x0", 1.0))
        self.horizon = float(sim.get("horizon", 1.0))
        self.dt = float(sim.get("dt", 1e-3))
        self.n_paths = int(sim.get("n_paths", 10_000))
        self.eps = float(sim.get("eps", 1e-3))
        self.seed = int(sim.get("seed", 0))
        pricing = doc.get("pricing", {})
        self.tau_grid = [float(t) for t in pricing.get("tau_grid", [1.0])]
        for name in ("horizon", "dt", "eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"simulation {name} must be positive")
        if self.n_paths < 1:
            raise ValueError("simulation n_paths must be at least 1")
        if any(t < 0.0 for t in self.tau_grid):
            raise ValueError("pricing tau_grid holds a negative maturity")
        if not any(t > 0.0 for t in self.tau_grid):
            raise ValueError("pricing tau_grid needs a positive maturity")
        # simulate steps to horizon, compare to the longest maturity
        for name, span in (("horizon", self.horizon), ("max(tau_grid)", max(self.tau_grid))):
            if not np.isfinite(span / self.dt):
                raise ValueError(f"simulation {name} / dt is not a finite step count")

    def require_volatility(self) -> VolatilityFunction:
        if self.volatility is None:
            raise ValueError("this pipeline needs a G section in the config")
        return self.volatility

    def reduce(self):
        """The reduction of this model: (ReducedModel, CheckReport).
        Refusals raise; run() turns them into a failing report.json."""
        return reduce_model(self.spec, self.require_volatility(), self.a, self.b)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows, fmt: str) -> None:
    """Write the header, then each row of floats through one template
    of the %-format fmt per cell."""
    template = ",".join([fmt] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % tuple(row) for row in rows)


def _report_payload(command: str, report: CheckReport, outputs, **extra) -> dict:
    payload = {
        "command": command,
        "overall_pass": bool(report.overall_pass),
        "items": [it.to_dict() for it in report.items],
        "outputs": sorted(outputs),
    }
    payload.update(extra)
    return payload


def _cmd_check(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    report = check_hypotheses(cfg.spec, cfg.volatility)
    if cfg.volatility is not None:
        report = report.merged(wiener_cir_check(cfg.spec.wiener_cov, cfg.volatility)[2])
    _write_json(outdir / "report.json", _report_payload("check", report, []))
    if not quiet:
        for it in report.items:
            print(f"{it.name}: {it.status}")
    return 0 if report.overall_pass else 1


def _model_dict(model) -> dict:
    return {
        "a": model.a,
        "b": model.b,
        "C": model.C,
        "alpha": model.alpha,
    }


def _cmd_reduce(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    model, report = cfg.reduce()
    _write_json(outdir / "reduced.json", _model_dict(model))
    payload = _report_payload(
        "reduce", report, ["reduced.json"], model=_model_dict(model)
    )
    _write_json(outdir / "report.json", payload)
    if not quiet:
        print(f"alpha={model.alpha:.6f} C={model.C:.6f}")
    return 0 if report.overall_pass else 1


def _cmd_simulate(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    ens = simulate_original(
        cfg.require_volatility(), cfg.spec, cfg.a, cfg.b, cfg.x0, cfg.eps,
        cfg.horizon, max(int(round(cfg.horizon / cfg.dt)), 1), cfg.n_paths,
        RngStream(cfg.seed),
    )
    # 9 significant digits round-trip every float32 state
    header = [f"t_{k}" for k in range(ens.values.shape[1])]
    rows = (row.tolist() for row in ens.values)
    _write_csv(outdir / "paths.csv", header, rows, "%.9g")
    report = CheckReport(())
    payload = _report_payload(
        "simulate",
        report,
        ["paths.csv"],
        summary={
            "n_paths": ens.n_paths,
            "n_steps": ens.n_steps,
            "dt": ens.dt,
            **ens.scheme_summary(),
            "terminal_mean": float(ens.values[:, -1].mean(dtype=np.float64)),
        },
    )
    _write_json(outdir / "report.json", payload)
    if not quiet:
        print(f"simulated {ens.n_paths} paths x {ens.n_steps} steps")
    return 0


def _cmd_price(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    model, report = cfg.reduce()
    tau_max = max(cfg.tau_grid)
    ts = riccati_solve(model, tau_max, 400)
    rows = [
        [
            tau,
            float(np.interp(tau, ts.tau_grid, ts.A)),
            float(np.interp(tau, ts.tau_grid, ts.B)),
            bond_price(ts, cfg.x0, tau),
        ]
        for tau in cfg.tau_grid
    ]
    _write_csv(outdir / "term_structure.csv", ["tau", "A", "B", "price"], rows, "%.12g")
    payload = _report_payload(
        "price", report, ["term_structure.csv"], model=_model_dict(model)
    )
    _write_json(outdir / "report.json", payload)
    if not quiet:
        for row in rows:
            print(f"tau={row[0]:.12g} price={row[3]:.12g}")
    return 0 if report.overall_pass else 1


def _cmd_compare(cfg: RunConfig, outdir: Path, quiet: bool) -> int:
    sim_cfg = SimConfig(dt=cfg.dt, n_paths=cfg.n_paths, eps=cfg.eps, seed=cfg.seed)
    # compare reduces once its Monte Carlo workers are stepping; the
    # reduction's report is kept here
    reduction = []

    def reduce():
        reduction.extend(cfg.reduce())
        return reduction[0]

    result = compare_term_structures(
        (cfg.require_volatility(), cfg.spec, cfg.a, cfg.b),
        reduce, cfg.x0, cfg.tau_grid, sim_cfg,
    )
    model, report = reduction
    header = ["tau", "A", "B", "price_riccati", "price_mc", "se"]
    rows = ([r[name] for name in header] for r in result.rows)
    _write_csv(outdir / "comparison.csv", header, rows, "%.12g")
    merged = report.merged(result.report)
    payload = _report_payload(
        "compare", merged, ["comparison.csv"], model=_model_dict(model),
        summary=result.summary,
    )
    _write_json(outdir / "report.json", payload)
    if not quiet:
        for r in result.rows:
            print(
                f"tau={r['tau']:g}: mc={r['price_mc']:.6f} ode={r['price_riccati']:.6f}"
            )
    return 0 if merged.overall_pass else 1


_COMMANDS = {
    "check": _cmd_check,
    "reduce": _cmd_reduce,
    "simulate": _cmd_simulate,
    "price": _cmd_price,
    "compare": _cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyreduce", usage=_USAGE, add_help=True
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("config")
    parser.add_argument("outdir", nargs="?", default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the simulation seed")
    parser.add_argument("--quiet", action="store_true")
    return parser


# glibc's mallopt parameters and the values run() gives them: arrays
# under 4 MiB come from the heap, and up to 32 MiB of freed heap stays
# mapped.  The temporaries of an Euler step then reuse the same pages
# each step; at the dynamic defaults, freed heap near the 128 KiB mmap
# threshold is trimmed and faulted back in every step
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_THRESHOLDS = ((_M_MMAP_THRESHOLD, 4 << 20), (_M_TRIM_THRESHOLD, 32 << 20))


def _hold_freed_heap() -> None:
    """Set _HEAP_THRESHOLDS for this process, and its forked workers;
    a no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _HEAP_THRESHOLDS:
        mallopt(param, value)


def run(argv) -> int:
    """Execute one pipeline; returns the process exit code."""
    _hold_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    outdir = args.outdir or os.environ.get(OUTDIR_ENV)
    if outdir is None:
        print("no output directory given and none in the environment", file=sys.stderr)
        print(f"usage: {_USAGE}", file=sys.stderr)
        return 2

    try:
        doc = json.loads(Path(args.config).read_text())
        cfg = RunConfig(doc)
        if args.seed is not None:
            cfg.seed = args.seed
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        print(f"usage: {_USAGE}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.subcommand](cfg, out, args.quiet)
    except LevyReduceError as exc:
        # every refusal leaves a report.json naming its cause
        report = getattr(exc, "report", None) or CheckReport(())
        payload = _report_payload(args.subcommand, report, [], error=str(exc))
        payload["overall_pass"] = False
        _write_json(out / "report.json", payload)
        print(f"{args.subcommand} refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
