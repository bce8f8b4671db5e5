"""Smoke runs of the scripts in ``scripts/``, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_simplification_survey():
    lines = run_script("simplification_survey.py", "--count", "3", "--max-n", "20")
    names = [line.split("  ")[0].strip() for line in lines]
    assert names == ["mis", "collapse", "collapse-modified", "outward (trees)"]
    assert all("instances    3" in line and "shift max" in line for line in lines)


def test_find_chordal_counterexample():
    lines = run_script("find_chordal_counterexample.py", "--max-n", "6")
    assert lines[0] == "n=4, |shell|=1: 8 edge subsets"
    assert lines[-1] == "no hit; raise --max-n"
