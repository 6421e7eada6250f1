"""Smoke test: the experiment script runs end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_split_method_benchmark():
    out = run_script(
        "split_method_benchmark.py",
        "--n", "600", "--m", "4", "--depth", "2", "--Q", "8",
        "--hist-trees", "2", "--tr-trees", "5", "--seeds", "2", "--epsilons", "1.0",
    )
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        ("hist", "1.0", "2"), ("pr", "1.0", "2"), ("tr", "1.0", "5")
    ]
    assert all(0.0 <= float(row[4]) <= 1.0 for row in rows)

