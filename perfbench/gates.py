"""Correctness gates: what each pipeline invocation must have produced.

``check(inv, outdir, result, expect, schema)`` returns a list of
failure messages (empty when the invocation passed) plus the
figures later metrics need (standard errors and bands of ``compare``).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema

from workloads import SIMULATE_SIZE

ALPHA_TOL = 1e-2
C_REL_TOL = 1e-2
K_COS = 3.0
K_TOL = 1e-6


def _rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _model_ok(model: dict, expect: dict, where: str, fails: list) -> None:
    if abs(model["alpha"] - expect["alpha"]) > ALPHA_TOL:
        fails.append(f"{where}: alpha {model['alpha']:.6g} not within {ALPHA_TOL} of {expect['alpha']}")
    if abs(model["C"] - expect["C"]) > C_REL_TOL * expect["C"]:
        fails.append(f"{where}: C {model['C']:.6g} not within {C_REL_TOL:.0%} of {expect['C']:.6g}")


def _cos_fixtures(probe: dict, fails: list) -> None:
    if abs(probe["K"] - K_COS) > K_TOL:
        fails.append(f"cos-fixtures: K {probe['K']!r} not within {K_TOL} of {K_COS}")
    if not probe["check_pass"]:
        fails.append("cos-fixtures: martingale, variation or balance check failed")
    if not probe["density_pass"]:
        fails.append("cos-fixtures: density_reducibility_check failed")


def check(inv, outdir: Path, result: dict, expect: dict, schema: dict):
    """Gate one invocation; returns (failures, compare figures or None)."""
    fails: list[str] = []
    if result["rc"] != inv.expected_rc:
        fails.append(f"exit code {result['rc']}, expected {inv.expected_rc}")
    if inv.pipeline == "cos-fixtures":
        _cos_fixtures(result["probe"], fails)
        return fails, None

    report_path = outdir / "report.json"
    report = None
    if report_path.exists():
        report = json.loads(report_path.read_text())
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            fails.append(f"report.json violates the schema: {exc.message}")
    elif inv.expected_rc == 0:
        fails.append("no report.json written")
    # A refusal raised as an exception exits 1 without report.json at the
    # seed (see README.md, known defects); the exit code is its gate then.

    if inv.expected_rc != 0 or fails:
        return fails, None
    if not report["overall_pass"]:
        fails.append(f"{inv.pipeline}: report.json overall_pass is false")

    figures = None
    if inv.pipeline == "reduce":
        _model_ok(json.loads((outdir / "reduced.json").read_text()), expect, "reduced.json", fails)
    elif inv.pipeline == "price":
        _model_ok(report["model"], expect, "price model", fails)
        rows = _rows(outdir / "term_structure.csv")
        if rows[0] != ["tau", "A", "B", "price"] or len(rows) != 1 + expect["n_taus"]:
            fails.append("term_structure.csv has the wrong layout")
        elif not all(0.0 < float(r[3]) <= 1.0 for r in rows[1:]):
            fails.append("term_structure.csv has a price outside (0, 1]")
    elif inv.pipeline == "simulate":
        rows = _rows(outdir / "paths.csv")
        n_paths, n_steps = SIMULATE_SIZE
        if len(rows) != 1 + n_paths or any(len(r) != n_steps + 1 for r in rows):
            fails.append("paths.csv has the wrong shape")
        elif not all(0.0 <= float(v) < math.inf for r in rows[1:] for v in r):
            fails.append("paths.csv holds a negative or non-finite rate")
    elif inv.pipeline == "compare":
        _model_ok(report["model"], expect, "compare model", fails)
        rows = _rows(outdir / "comparison.csv")
        bands = [it["tolerance"] for it in report["items"] if it["name"].startswith("price_match_tau_")]
        if len(rows) != 1 + expect["n_taus"] or len(bands) != expect["n_taus"]:
            fails.append("comparison.csv or the price_match items have the wrong length")
        else:
            ses = [float(r[5]) for r in rows[1:]]
            figures = {"max_se": max(ses), "band_max": max(bands)}
    return fails, figures
