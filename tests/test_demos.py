"""The demo scripts run against the public API as shipped."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reduce_and_price_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "reduce_and_price.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "term structure of the reduced model" in done.stdout


def test_compare_pipelines_reproduces_the_committed_outputs(tmp_path):
    # a copy of demos/ without its outputs writes them afresh; every file
    # must equal the committed demos/out/ byte for byte, so a change that
    # moves an output must regenerate them
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demos / "compare_pipelines.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr

    def tree(top):
        return {p.relative_to(top): p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}

    fresh, committed = tree(demos / "out"), tree(ROOT / "demos" / "out")
    assert sorted(fresh) == sorted(committed)
    assert [name for name in committed if fresh[name] != committed[name]] == []
