"""One pipeline invocation in a fresh interpreter: ``child.py JOB.json``.

The parent stamps the monotonic clock before it starts this process.
Here the child imports levyreduce and parses its config (the set-up a
user pays on every CLI call), stamps ``ready``, runs the pipeline
through ``levyreduce.cli.run`` (or the cosine-fixture library calls),
and writes its stamps, exit code, peak RSS and, when traced, its spans
summary to the result file named in the job.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def cos_fixtures():
    """The cosine fixtures of the test suite: the angular spec with
    direction-proportional radial scales (1 + cos(theta)/2) r^-2.5 and
    the plane density (1 + cos(theta)/2) |x|^-3.5."""
    import numpy as np
    from levyreduce import LevySpec, SphericalMeasure, density_spec, power_radial

    spherical = SphericalMeasure.from_angular(2, lambda ang: np.ones(ang.shape[0]))

    def family(xi):
        return power_radial(1.5, scale=1.0 + 0.5 * float(xi[0]))

    def g(points):
        r = np.maximum(np.linalg.norm(points, axis=1), 1e-300)
        return (1.0 + 0.5 * points[:, 0] / r) * r**-3.5

    spec = LevySpec(2, np.zeros((2, 2)), spherical, family)
    return spec, density_spec(g, 2, hints=(3.5, 3.5))


def _run_cos_fixtures(spec, dspec) -> dict:
    """The calls _cmd_check makes for a spec without G, then the density check."""
    from levyreduce import conditions

    reports = [conditions.check_martingale(spec), conditions.check_variation(spec)]
    k_hat, balance = conditions.radial_balance(spec)
    reports.append(balance)
    density = conditions.density_reducibility_check(dspec)
    return {
        "K": float(k_hat),
        "check_pass": all(r.overall_pass for r in reports),
        "density_pass": bool(density.overall_pass),
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    import levyreduce
    import levyreduce.cli as cli

    if src not in Path(levyreduce.__file__).resolve().parents:
        print(f"levyreduce imported from {levyreduce.__file__}, not {src}", file=sys.stderr)
        return 3
    recorder = None
    if job["trace"]:
        import tracer

        recorder = tracer.Recorder()
        tracer.instrument(recorder)
    if job["pipeline"] == "cos-fixtures":
        fixtures = cos_fixtures()
    else:
        cli.RunConfig(json.loads(Path(job["config"]).read_text()))
    ready = time.monotonic()
    if job["pipeline"] == "cos-fixtures":
        probe = _run_cos_fixtures(*fixtures)
        rc = 0
    else:
        probe = None
        rc = cli.run([job["pipeline"], job["config"], job["outdir"], "--quiet"])
    end = time.monotonic()
    result = {
        "ready": ready,
        "end": end,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe": probe,
        "trace": tracer.summarize(recorder) if recorder is not None else None,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
