"""Drive every command-line pipeline on the shipped example config.

Runs check, reduce, simulate, price, and compare in sequence against
demos/configs/example1.json, writing all artifacts under demos/out/.
The compare stage prices the two-dimensional equation by multilevel
Monte Carlo with exact per-atom stable increments: its 1000 steps of
0.002 round up to 1008, and the path-step budget of 20k paths x 1000
steps is spread over levels at dt 2/63 (about 0.0317) down to 2/1008,
whose path blocks step on one forked worker per usable CPU while the
model is reduced.  It verifies the Monte Carlo bond
prices against the Riccati prices of the reduced model; the whole run
takes about one and a half seconds on two vCPUs.

Run from the repository root:  python3 demos/compare_pipelines.py
"""

import json
import sys
from pathlib import Path

from levyreduce.cli import run

root = Path(__file__).resolve().parent
config = root / "configs" / "example1.json"
outdir = root / "out"

# a lighter copy for the path dump so paths.csv stays small
small = json.loads(config.read_text())
small["simulation"].update({"n_paths": 200, "dt": 0.01, "horizon": 1.0, "eps": 0.01})
small_config = outdir / "example1_small.json"
outdir.mkdir(exist_ok=True)
small_config.write_text(json.dumps(small, indent=2) + "\n")

stages = [
    ("check", config, "condition suite"),
    ("reduce", config, "one-factor model extraction"),
    ("simulate", small_config, "path dump (200 paths)"),
    ("price", config, "Riccati term structure"),
    ("compare", config, "Monte Carlo vs Riccati"),
]

for command, cfg, blurb in stages:
    stage_out = outdir / command
    print(f"\n=== {command}: {blurb} -> {stage_out}/ ===")
    code = run([command, str(cfg), str(stage_out)])
    report = json.loads((stage_out / "report.json").read_text())
    print(f"exit code {code}, overall_pass={report['overall_pass']}, "
          f"outputs={report['outputs']}")
    if code != 0:
        sys.exit(code)

model = json.loads((outdir / "reduce" / "reduced.json").read_text())
print(f"\nreduced model: {model}")
print(f"comparison table: {outdir / 'compare' / 'comparison.csv'}")
print((outdir / "compare" / "comparison.csv").read_text())
