"""levyreduce benchmark: the five CLI pipelines as a user runs them.

    python3 perfbench/run.py --workload worked --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Every pipeline invocation is a fresh
child interpreter (``child.py``) started one at a time, with BLAS
threads pinned to 1, importing levyreduce from ``src/`` of this
checkout.  Configs come from ``workloads.build(workload, seed)``;
outputs go to a temporary directory under ``.perfbench_out/`` that is
removed at the end.

``--trace 0`` runs the session (check, reduce, price, simulate,
compare) once, then keeps starting the least-sampled invocation that
still fits before ``--seconds`` run out, and reports medians of the
end-to-end metrics.  ``--trace 1`` runs the session once untraced and
once traced, plus the two probes (tempered refusal, cosine fixtures),
and reports the per-layer metrics; it does a fixed amount of work.

Every invocation passes through ``gates.check``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import gates
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "levyreduce" / "schemas" / "report.schema.json"
WORKDIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150.0
SE_TARGET = 1e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "session_s": "s", "compare_s": "s", "compare_s_at_se_1e-3": "s",
    "compare_band_max": "price", "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source table, key in that table)
PER_LAYER = {
    "quadrature.calls": ("count", "calls", "quadrature.calls"),
    "quadrature.panel_integral.calls": ("count", "calls", "quadrature.panel_integral"),
    "quadrature.extension_blocks": ("count", "counts", "quadrature.extension_blocks"),
    "quadrature.inconclusive": ("count", "counts", "quadrature.inconclusive"),
    "quadrature.self_s": ("s", "self_s", "quadrature"),
    "measures.radial_integral.calls": ("count", "calls", "measures.radial_integral"),
    "measures.self_s": ("s", "self_s", "measures"),
    "laplace.laplace_radial.calls": ("count", "calls", "laplace.laplace_radial"),
    "laplace.laplace_jump.calls": ("count", "calls", "laplace.laplace_jump"),
    "laplace.self_s": ("s", "self_s", "laplace"),
    "spherical.integrate_over_directions.calls":
        ("count", "calls", "spherical.integrate_over_directions"),
    "spherical.directions_evaluated": ("count", "counts", "spherical.directions_evaluated"),
    "spherical.self_s": ("s", "self_s", "spherical"),
    "conditions.radial_balance.s": ("s", "inclusive_s", "conditions.radial_balance"),
    "conditions.density_reducibility_check.s":
        ("s", "inclusive_s", "conditions.density_reducibility_check"),
    "conditions.self_s": ("s", "self_s", "conditions"),
    "reduction.extract_affine_exponents.s":
        ("s", "inclusive_s", "reduction.extract_affine_exponents"),
    "reduction.self_s": ("s", "self_s", "reduction"),
    "simulate.truncated_jump_sampler.s":
        ("s", "inclusive_s", "simulate.truncated_jump_sampler"),
    "simulate.sample_increment.s":
        ("s", "inclusive_s", "simulate.JumpSampler.sample_increment"),
    "simulate.sample_increment.calls":
        ("count", "calls", "simulate.JumpSampler.sample_increment"),
    "simulate.self_s": ("s", "self_s", "simulate"),
    "simulate.path_steps_per_s": ("1/s", None, None),
    "simulate.jumps_per_path_step": ("jumps/step", None, None),
    "simulate.dropped_variance": ("var", "maxima", "simulate.dropped_variance"),
    "simulate.clamp_frequency": ("ratio", "maxima", "simulate.clamp_frequency"),
    "simulate.path_matrix_mb": ("MB", "maxima", "simulate.path_matrix_mb"),
    "pricing.riccati_solve.calls": ("count", "calls", "pricing.riccati_solve"),
    "pricing.riccati_solve.s": ("s", "inclusive_s", "pricing.riccati_solve"),
    "pricing.mc_bond_price.s": ("s", "inclusive_s", "pricing.mc_bond_price"),
    "pricing.self_s": ("s", "self_s", "pricing"),
    "cli.self_s": ("s", "self_s", "cli"),
    "cli.output_bytes": ("bytes", None, None),
    "trace.overhead_s": ("s", None, None),
}
# wall time of each pipeline in the traced run's untraced session
PIPELINE_TIMES = ("check", "reduce", "price", "simulate", "compare")
for _p in PIPELINE_TIMES:
    PER_LAYER[f"cli.{_p}.s"] = ("s", None, None)


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: "1" for var in THREAD_VARS},
    }


class Session:
    """Starts child invocations one at a time and gates each result."""

    def __init__(self, workdir: Path, configs: dict, expect: dict):
        self.workdir = workdir
        self.expect = expect
        self.schema = json.loads(SCHEMA.read_text())
        self.config_paths = {}
        for name, doc in configs.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.config_paths[name] = str(path)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
        self.records: list[dict] = []

    def _spawn(self, job: dict, job_path: Path) -> tuple[dict | None, str, float]:
        job_path.write_text(json.dumps(job))
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s", start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        result_path = Path(job["result"])
        if proc.returncode != 0 or not result_path.exists():
            return None, f"child exited {proc.returncode}: {err.strip()[-500:]}", start
        return json.loads(result_path.read_text()), err, start

    def invoke(self, inv, trace: bool = False) -> dict:
        outdir = Path(tempfile.mkdtemp(prefix=f"{inv.pipeline}-", dir=self.workdir))
        job = {
            "src": str(SRC), "pipeline": inv.pipeline, "trace": trace,
            "config": self.config_paths.get(inv.config, ""),
            "outdir": str(outdir / "out"), "result": str(outdir / "result.json"),
        }
        result, err, start = self._spawn(job, outdir / "job.json")
        wall = time.monotonic() - start
        record = {"inv": inv, "wall_s": wall, "trace": None, "figures": None}
        if result is None:
            record["fails"] = [err]
        else:
            out = outdir / "out"
            fails, figures = gates.check(inv, out, result, self.expect, self.schema)
            record.update(
                fails=fails, figures=figures, trace=result["trace"],
                setup_s=result["ready"] - start, run_s=result["end"] - result["ready"],
                rss_mb=result["maxrss_kb"] / 1024.0,
                output_bytes=sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                if out.exists() else 0,
            )
        shutil.rmtree(outdir, ignore_errors=True)
        if "run_s" in record:
            print(f"{inv.pipeline}/{inv.config}: setup {record['setup_s']:.3f} s, "
                  f"run {record['run_s']:.3f} s", file=sys.stderr)
        for msg in record["fails"]:
            print(f"GATE FAILED {inv.pipeline}/{inv.config}: {msg}", file=sys.stderr)
        self.records.append(record)
        return record


def _end_to_end(records: list[dict]) -> dict:
    ok = [r for r in records if "run_s" in r and not r["fails"]]
    by_pipeline = {
        p: [r["run_s"] for r in ok if r["inv"].pipeline == p] for p in PIPELINE_TIMES
    }
    compares = [r for r in ok if r["inv"].pipeline == "compare" and r["figures"]]
    samples = {
        "setup_s": [r["setup_s"] for r in ok],
        "compare_s": by_pipeline["compare"],
        "compare_s_at_se_1e-3": [
            r["run_s"] * (r["figures"]["max_se"] / SE_TARGET) ** 2 for r in compares
        ],
        "compare_band_max": [r["figures"]["band_max"] for r in compares],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    if all(by_pipeline.values()):
        metrics["session_s"] = sum(statistics.median(v) for v in by_pipeline.values())
    if ok:
        metrics["peak_rss_mb"] = max(r["rss_mb"] for r in ok)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in sorted(metrics.items())}


def _per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    tables = {"calls": {}, "inclusive_s": {}, "self_s": {}, "counts": {}, "maxima": {}}
    for r in traced:
        for table, values in r["trace"].items():
            merged = tables[table]
            for key, v in values.items():
                merged[key] = (max(merged.get(key, v), v) if table == "maxima"
                               else merged.get(key, 0) + v)
    counts, incl = tables["counts"], tables["inclusive_s"]
    path_steps = counts.get("simulate.path_steps", 0)
    derived = {
        "simulate.path_steps_per_s": path_steps / incl["simulate.simulate_original"],
        "simulate.jumps_per_path_step":
            counts.get("simulate.jumps", 0) / max(counts.get("simulate.increment_paths", 0), 1),
        "cli.output_bytes": sum(r.get("output_bytes", 0) for r in traced),
        "trace.overhead_s": sum(r["run_s"] for r in traced[:len(untraced)])
        - sum(r["run_s"] for r in untraced),
    }
    for r in untraced:
        derived[f"cli.{r['inv'].pipeline}.s"] = r["run_s"]
    metrics = {}
    for name, (unit, table, key) in PER_LAYER.items():
        value = derived[name] if table is None else tables[table].get(key, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _run(args, workdir: Path) -> dict:
    configs, expect = workloads.build(args.workload, args.seed)
    session = Session(workdir, configs, expect)
    # warm-up: byte-compile levyreduce and fill the page cache before timing
    subprocess.run(
        [sys.executable, "-c", "import levyreduce.cli"], env=session.env, cwd=ROOT,
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    if args.trace:
        untraced = [session.invoke(inv) for inv in workloads.SESSION]
        traced = [session.invoke(inv, trace=True)
                  for inv in workloads.SESSION + workloads.PROBES]
        failed = [r for r in session.records if r["fails"]]
        metrics = {} if failed else _per_layer(traced, untraced)
    else:
        deadline = time.monotonic() + args.seconds
        estimate = {inv: session.invoke(inv)["wall_s"] for inv in workloads.SESSION}
        while True:
            remaining = deadline - time.monotonic()
            fits = [inv for inv in workloads.SESSION if estimate[inv] <= remaining]
            if not fits:
                break
            # least-sampled first; among those the longest, so the
            # expensive pipelines get their second sample
            inv = min(fits, key=lambda i: (
                sum(r["inv"] is i for r in session.records), -estimate[i]))
            estimate[inv] = session.invoke(inv)["wall_s"]
        failed = [r for r in session.records if r["fails"]]
        metrics = _end_to_end(session.records)
    return {
        "correct": not failed,
        "attempted": len(session.records),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child (see Session._spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "levyreduce" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"no levyreduce sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WHY:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WHY)}",
              file=sys.stderr)
        return 2

    print(json.dumps({"workload": args.workload, "why": workloads.WHY[args.workload],
                      "seed": args.seed, "machine": _machine()}))
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORKDIR))
    try:
        result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
