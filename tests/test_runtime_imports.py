"""scipy is a test-only dependency: no run-time path of the library imports it.

Each check runs in a fresh interpreter, so modules the test suite itself has
imported (scipy among them) cannot hide an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LIBRARY_RUN = """
import json, sys
import dpgbdt as d
from dpgbdt.federation import ONE_RECORD_PER_CLIENT, partition
from dpgbdt.harness import rank_table, run_grid

pair = d.train_test_split(d.synthesize(300, 3, 0.3, 0.5, seed=0), 0.7, seed=0)
pop = partition(pair.train, None, ONE_RECORD_PER_CLIENT)
cfg = d.TrainConfig(T=4, d=2, Q=4, B=2, budget=d.PrivacyBudget(1.0, 1e-3), seed=0)
probs = d.predict(d.train(cfg, pop).ensemble, pair.test.features)
d.auc_roc(pair.test.labels, probs)
configs = {name: d.baseline_preset(name, T=3, d=2, Q=4) for name in ("DP-TR-Newton", "DP-RF")}
spec = {"kind": "synthetic", "n": 120, "m": 2, "seed": 0}
rank_table(run_grid(configs, spec, [1.0], [0], 1, sys.argv[1]))
print(json.dumps(sorted(name for name in sys.modules if "scipy" in name)))
"""


def _run(args, tmp_path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )


def test_library_runs_without_scipy(tmp_path):
    done = _run(["-c", LIBRARY_RUN, str(tmp_path / "grid.csv")], tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_account_command_runs_without_scipy(tmp_path):
    # -X importtime lists every module the command imports on stderr
    command = ["-X", "importtime", "-m", "dpgbdt.cli", "account", "--preset", "DP-TR-Newton"]
    flags = ["--m", "10", "--T", "100", "--epsilon", "1", "--delta", "1e-5"]
    done = _run([*command, *flags], tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["sigma"] > 0
    assert "import time:" in done.stderr
    assert "scipy" not in done.stderr
