"""Benchmark of the dpgbdt simulator: train, predict and set-up time per workload.

Run from the repository root:

    python3 bench/run.py --workload tr-small --seed 0 --seconds 30 --trace 0

One single-threaded process. It builds the workload's data from ``--seed``
(set-up, repeated and timed), then runs passes until ``--seconds`` would be
exceeded. A pass trains every preset of the workload and predicts on the
held-out rows; each preset run is one operation and is checked (ledger and
comm counters against their formulas, predictions in [0, 1], test AUC above
the preset's floor, the same output digest on every pass). A timing is the
sum over presets of each preset's median across the passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes that have every layer boundary wrapped (see
``spans.py``), and prints the per-layer metrics, including the tracing
overhead on ``train_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "dpgbdt" / "__init__.py").is_file():
    sys.exit(f"bench: dpgbdt sources not found under {SRC}")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dpgbdt.accounting as accounting  # noqa: E402
import dpgbdt.boosting as boosting  # noqa: E402
import dpgbdt.data as dp_data  # noqa: E402
import dpgbdt.federation as federation  # noqa: E402
from dpgbdt.config import FeatureMode  # noqa: E402
from dpgbdt.harness import auc_roc, baseline_preset, budget_for  # noqa: E402
from dpgbdt.trees import SplitMethod  # noqa: E402
from spans import Tracer  # noqa: E402

EPSILON = 1.0
TRAIN_FRACTION = 0.7
# predict takes 0.01-0.2 s per preset; repeating it per pass (untraced) and
# keeping the median steadies predict_s at little cost to the window.
PREDICT_REPS = 3


@dataclass(frozen=True)
class Preset:
    label: str
    base: str  # harness.baseline_preset name
    T: int
    auc_floor: float
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    n: int
    m: int
    shards: int | None  # None: one record per client
    setup_reps: int
    presets: tuple[Preset, ...]


# Why each workload exists is in README.md next to this file. "large" is run
# by hand only: BENCHMARK.json leaves it out (see README.md).
WORKLOADS = {
    "tr-small": Workload(20_000, 10, None, 25, (
        Preset("DP-TR-Newton", "DP-TR-Newton", 300, 0.78),
        Preset("DP-TR-Newton-IH-EBM", "DP-TR-Newton-IH-EBM", 300, 0.80),
        Preset("DP-TR-Batch-Newton-IH-EBM(p=0.25)", "DP-TR-Batch-Newton-IH-EBM(p=0.25)", 300, 0.84),
        Preset("LDP", "LDP", 300, 0.50),
    )),
    "hist-sharded": Workload(20_000, 10, 100, 25, (
        Preset("FEVERLESS", "FEVERLESS", 30, 0.62),
        Preset("DP-GBM", "DP-GBM", 30, 0.42),
        Preset("pr", "FEVERLESS", 100, 0.70, {"split_method": SplitMethod.PARTIALLY_RANDOM}),
        Preset("hist-k1", "FEVERLESS", 300, 0.75, {"k": 1, "feature_mode": FeatureMode.CYCLICAL}),
    )),
    "large": Workload(300_000, 20, None, 3, (
        Preset("FEVERLESS", "FEVERLESS", 3, 0.49),
        Preset("DP-TR-Newton", "DP-TR-Newton", 50, 0.78),
    )),
}


def setup(workload: Workload, seed: int):
    """synthesize + train_test_split + partition; returns (population, test set)."""
    data = dp_data.synthesize(workload.n, workload.m, 0.3, 0.3, seed=seed)
    pair = dp_data.train_test_split(data, TRAIN_FRACTION, seed=seed)
    if workload.shards is None:
        pop = federation.partition(pair.train, None, federation.ONE_RECORD_PER_CLIENT)
    else:
        pop = federation.partition(pair.train, workload.shards, federation.EQUAL_SHARDS, seed=seed)
    return pop, pair.test


def timed_setup(workload: Workload, seed: int):
    times = []
    for _ in range(workload.setup_reps):
        pop = test = None  # free the previous copy so peak memory holds one
        start = time.perf_counter()
        pop, test = setup(workload, seed)
        times.append(time.perf_counter() - start)
    return pop, test, statistics.median(times)


def configs(workload: Workload, seed: int, n_train: int):
    train_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    budget = budget_for(EPSILON, n_train)
    return [
        baseline_preset(p.base, T=p.T, seed=train_seed).replace(
            budget=budget, name=p.label, **p.overrides
        )
        for p in workload.presets
    ]


def digest(result) -> str:
    """Hash of the model JSON plus ledger, sigma and comm counters."""
    payload = {
        "model": result.ensemble.to_json_dict(),
        "ledger": list(result.queries.as_tuple()),
        "sigma": result.sigma,
        "comm": [result.comm_rounds, result.comm_uplink_values],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def check(preset: Preset, result, probs, test, traced_comm) -> tuple[list[str], float]:
    """Problems with one preset run (empty when correct), and its test AUC."""
    problems = []
    expected = accounting.count_queries(result.config)
    if result.queries.as_tuple() != expected.as_tuple():
        problems.append(f"ledger {result.queries.as_tuple()} != count_queries {expected.as_tuple()}")
    comm = federation.comm_accounting(result.config)
    observed = (result.comm_rounds, result.comm_uplink_values)
    if observed != (comm.rounds, comm.uplink_values):
        problems.append(f"comm {observed} != comm_accounting {(comm.rounds, comm.uplink_values)}")
    if traced_comm is not None and traced_comm != observed:
        problems.append(f"traced rounds/uplink {traced_comm} != TrainResult {observed}")
    auc = float("nan")
    if probs.shape != (test.n,) or not np.all(np.isfinite(probs)):
        problems.append("predictions are not one finite value per test row")
    elif probs.min() < 0.0 or probs.max() > 1.0:
        problems.append(f"predictions outside [0, 1]: [{probs.min()}, {probs.max()}]")
    else:
        auc = auc_roc(test.labels, probs)
        if not auc > preset.auc_floor:
            problems.append(f"test AUC {auc:.4f} not above floor {preset.auc_floor}")
    return problems, auc


class Pass(NamedTuple):
    train_s: dict[str, float]  # preset label -> seconds, successful runs only
    predict_s: dict[str, float]
    comm: tuple[int, int]  # summed TrainResult (comm_rounds, comm_uplink_values)
    tracer: Tracer | None


class Runner:
    """Runs passes over a workload's presets and keeps the tallies."""

    def __init__(self, name: str, workload: Workload, pop, test, cfgs):
        self.name, self.workload, self.pop, self.test, self.cfgs = name, workload, pop, test, cfgs
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        """Train and predict every preset once."""
        train_s: dict[str, float] = {}
        predict_s: dict[str, float] = {}
        rounds = uplink = 0
        for preset, cfg in zip(self.workload.presets, self.cfgs):
            self.attempted += 1
            try:
                before = tracer.comm() if tracer else None
                start = time.perf_counter()
                result = boosting.train(cfg, self.pop)
                train_time = time.perf_counter() - start
                predict_times, outputs = [], []
                for _ in range(1 if tracer else PREDICT_REPS):
                    start = time.perf_counter()
                    outputs.append(boosting.predict(result.ensemble, self.test.features))
                    predict_times.append(time.perf_counter() - start)
                probs = outputs[0]
                traced = None
                if tracer:
                    after = tracer.comm()
                    traced = (after[0] - before[0], after[1] - before[1])
                problems, auc = check(preset, result, probs, self.test, traced)
                if any(not np.array_equal(again, probs) for again in outputs[1:]):
                    problems.append("repeated predict calls disagree")
                rounds += result.comm_rounds
                uplink += result.comm_uplink_values
                dig = digest(result)
                first = self.digests.get(preset.label)
                if first is not None and dig != first:
                    problems.append(f"digest {dig} differs from first pass {first}")
                if first is None:
                    self.digests[preset.label] = dig
                    print(
                        f"{self.name} {preset.label}: auc={auc:.4f} digest={dig} "
                        f"ledger={result.queries.as_tuple()} sigma={result.sigma!r} "
                        f"comm_rounds={result.comm_rounds} uplink={result.comm_uplink_values} "
                        f"train_s={train_time:.3f} predict_s={statistics.median(predict_times):.3f}",
                        flush=True,
                    )
            except Exception:  # a crashing preset is a failed operation, not a crashed benchmark
                traceback.print_exc()
                self.failed += 1
                continue
            if problems:
                print(f"{self.name} {preset.label}: FAILED: {'; '.join(problems)}", file=sys.stderr)
                self.failed += 1
            else:
                train_s[preset.label] = train_time
                predict_s[preset.label] = statistics.median(predict_times)
        return Pass(train_s, predict_s, (rounds, uplink), tracer)

    def passes(self, until: float, alternate_traced: bool = False) -> list[Pass]:
        """Run passes until the next would end after ``until`` (perf_counter time).

        Runs at least one pass. With ``alternate_traced`` every second pass is
        traced (at least one of each), so slow drift in the host's speed hits
        traced and untraced passes alike.
        """
        out = []
        while True:
            start = time.perf_counter()
            if alternate_traced and len(out) % 2:
                with Tracer() as tracer:
                    out.append(self.run_pass(tracer))
            else:
                out.append(self.run_pass())
            end = time.perf_counter()
            print(
                f"pass {len(out)}: train_s={sum(out[-1].train_s.values()):.4f} "
                f"predict_s={sum(out[-1].predict_s.values()):.4f}",
                flush=True,
            )
            if len(out) >= 1 + alternate_traced and end + (end - start) > until:
                return out


def layer_metrics(done: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (absent spans read zero)."""
    sp = done.tracer.spans
    out: dict[str, tuple[float, str]] = {}

    def calls_self(name):
        out[f"{name}.calls"] = (sp[name].calls, "count")
        out[f"{name}.self_s"] = (sp[name].self_s, "s")

    def per_million(name, base):
        count = sp[name].counts[base]
        out[f"{name}.s_per_1e6_{base}"] = (sp[name].self_s * 1e6 / count if count else 0.0, "s/1e6")

    hist = "federation.histogram_round"
    calls_self(hist)
    out[f"{hist}.cells"] = (sp[hist].counts["cells"], "count")
    out[f"{hist}.record_scans"] = (sp[hist].counts["record_scans"], "count")
    per_million(hist, "record_scans")
    calls_self("candidates.bin_index")
    pair = "federation.split_pair_round"
    calls_self(pair)
    out[f"{pair}.cells"] = (sp[pair].counts["cells"], "count")
    calls_self("federation.apply_splits")
    for name in (
        "trees.grow_tree_histogram",
        "trees.grow_tree_partially_random",
        "trees.grow_tree_single_feature",
        "trees.grow_tree_totally_random",
    ):
        out[f"{name}.self_s"] = (sp[name].self_s, "s")
    leaf = "federation.leaf_round"
    calls_self(leaf)
    out[f"{leaf}.cells"] = (sp[leaf].counts["cells"], "count")
    out[f"{leaf}.trees"] = (sp[leaf].counts["trees"], "count")
    per_million(leaf, "record_scans")
    for name in (
        "federation.recompute_gradients",
        "gradients.mode_gradients",
        "federation.apply_score_update",
    ):
        out[f"{name}.self_s"] = (sp[name].self_s, "s")
    route = "trees.Tree.route"
    out[f"{route}.calls"] = (sp[route].calls, "count")
    out[f"{route}.rows"] = (sp[route].counts["rows"], "count")
    out[f"{route}.in_train_s"] = (sp[route].self_by_root["boosting.train"], "s")
    out[f"{route}.in_predict_s"] = (sp[route].self_by_root["boosting.predict"], "s")
    per_million(route, "rows")
    out["boosting.train.self_s"] = (sp["boosting.train"].self_s, "s")
    out["boosting.predict.self_s"] = (sp["boosting.predict"].self_s, "s")
    calls_self("candidates.iterative_hessian_refine")
    out["accounting.count_queries.self_s"] = (sp["accounting.count_queries"].self_s, "s")
    out["accounting.calibrate_sigma.self_s"] = (sp["accounting.calibrate_sigma"].self_s, "s")
    out["federation.comm_rounds"] = (done.comm[0], "count")
    out["federation.uplink_scalars"] = (done.comm[1], "count")
    return out


def setup_metrics(tracer: Tracer, reps: int) -> dict[str, tuple[float, str]]:
    return {
        f"{name}.self_s": (tracer.spans[name].self_s / reps, "s")
        for name in ("data.synthesize", "data.train_test_split", "federation.partition")
    }


def summed_median(passes: list[Pass], attr: str) -> float:
    """Sum over presets of each preset's median time across passes.

    Per-preset medians drop a slow outlier that hits one preset in one pass.
    """
    per_preset: dict[str, list[float]] = {}
    for p in passes:
        for label, seconds in getattr(p, attr).items():
            per_preset.setdefault(label, []).append(seconds)
    return sum(statistics.median(times) for times in per_preset.values())


def median_metrics(per_pass: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    return {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    begin = time.perf_counter()
    if args.trace:
        with Tracer() as setup_tracer:
            pop, test, _ = timed_setup(workload, args.seed)
    else:
        pop, test, setup_s = timed_setup(workload, args.seed)
    runner = Runner(args.workload, workload, pop, test, configs(workload, args.seed, pop.n))

    start = time.perf_counter()
    if args.trace:
        done = runner.passes(until=start + args.seconds, alternate_traced=True)
        plain = [p for p in done if p.tracer is None]
        traced = [p for p in done if p.tracer is not None]
        absent = traced[0].tracer.absent
        if absent:
            print(f"absent spans (reported as zero): {', '.join(absent)}")
        metrics = median_metrics([layer_metrics(p) for p in traced])
        metrics.update(setup_metrics(setup_tracer, workload.setup_reps))
        untraced_train = summed_median(plain, "train_s")
        traced_train = summed_median(traced, "train_s")
        metrics["tracing.untraced_train_s"] = (untraced_train, "s")
        metrics["tracing.traced_train_s"] = (traced_train, "s")
        metrics["tracing.overhead_s"] = (traced_train - untraced_train, "s")
        n_passes = len(plain) + len(traced)
    else:
        done = runner.passes(until=start + args.seconds)
        metrics = {
            "train_s": (summed_median(done, "train_s"), "s"),
            "predict_s": (summed_median(done, "predict_s"), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        n_passes = len(done)
    print(
        f"{args.workload} seed={args.seed}: {n_passes} passes, "
        f"{time.perf_counter() - begin:.1f} s wall",
        flush=True,
    )
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
