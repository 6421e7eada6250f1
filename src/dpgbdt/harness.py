"""Experiment harness: baseline presets, AUC evaluation, grid runs, rankings.

Baselines are expressed as configurations of the same trainer so their query
ledgers and noise calibration are directly comparable:

  DP-EBM                  tr splits, gradient updates, cyclical single-feature trees
  DP-EBM-Newton           as DP-EBM with newton updates
  DP-GBM                  hist splits, gradient updates, all features
  DP-RF                   tr splits, averaging updates, one batch (B = T)
  FEVERLESS               hist splits, newton updates, uniform candidates
  LDP                     tr + newton with per-client (local) noise
  DP-TR-Newton            tr splits, newton updates, uniform candidates
  DP-TR-Newton-IH         adds iterative-Hessian candidate refinement
  DP-TR-Newton-IH-EBM     adds cyclical single-feature trees
  DP-TR-Batch-Newton-IH-EBM(p)  adds batched updates with B = round(p * T)

A preset fixes only these choices: any TrainConfig field passed to
``baseline_preset`` overrides them, and the rest keep their TrainConfig
defaults. DP-EBM here trains T trees cycling one feature per tree; a run
equivalent to T_outer full feature cycles uses T = T_outer * m.

``run_single`` is the one train-and-evaluate step (budget, one record per
client, train, AUCs); the CLI, the grid and the split-method script all call
it. A grid cell's outcome is an ``ExperimentResult``, whose fields are the
results-CSV columns in order; ``read_results`` is the one reader of that
file, for resuming, the summary and the rank table alike.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .accounting import InvalidParameterError, PrivacyBudget, count_queries
from .boosting import TrainResult, predict, train
from .config import CandidateMethod, NoisePlacement, TrainConfig, field_types, parse_value
from .data import Dataset, load_csv, synthesize, train_test_split
from .federation import ONE_RECORD_PER_CLIENT, partition
from .gradients import UpdateMode
from .trees import SplitMethod

__all__ = [
    "UndefinedAucError",
    "UnknownPresetError",
    "MissingCellError",
    "auc_roc",
    "budget_for",
    "PRESET_NAMES",
    "baseline_preset",
    "list_presets",
    "ExperimentResult",
    "read_results",
    "parse_dataset",
    "run_single",
    "run_grid",
    "rank_table",
    "RESULT_COLUMNS",
]


class UndefinedAucError(ValueError):
    """AUC is undefined when only one class is present."""


class UnknownPresetError(KeyError):
    pass


class MissingCellError(ValueError):
    """Ranking requires every method to cover every (dataset, epsilon) cell."""


def auc_roc(labels, scores) -> float:
    """Probability that a random positive outranks a random negative.

    Mann-Whitney form via average ranks; tied scores count one half.
    """
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape or y.ndim != 1:
        raise InvalidParameterError("labels and scores must be aligned vectors")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError("both classes must be present to compute AUC")
    ranks = rankdata(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def budget_for(epsilon: float, n: int) -> PrivacyBudget:
    """Budget with the conventional delta = 1/n."""
    return PrivacyBudget(epsilon, 1.0 / n)


_BATCH_PRESET = re.compile(r"^DP-TR-Batch-Newton-IH-EBM\(p=([0-9.]+)\)$")

# What each preset fixes. Every field a preset leaves out keeps its
# TrainConfig default: tr splits, newton updates, uniform candidates,
# cyclical features, k = m, central noise and B = 1.
_PRESET_CHOICES = {
    "DP-EBM": dict(update_mode=UpdateMode.GRADIENT, k=1),
    "DP-EBM-Newton": dict(k=1),
    "DP-GBM": dict(split_method=SplitMethod.HIST, update_mode=UpdateMode.GRADIENT),
    "DP-RF": dict(update_mode=UpdateMode.AVERAGING),
    "FEVERLESS": dict(split_method=SplitMethod.HIST),
    "LDP": dict(noise_placement=NoisePlacement.LOCAL),
    "DP-TR-Newton": dict(),
    "DP-TR-Newton-IH": dict(candidate_method=CandidateMethod.ITERATIVE_HESSIAN),
    "DP-TR-Newton-IH-EBM": dict(candidate_method=CandidateMethod.ITERATIVE_HESSIAN, k=1),
}

PRESET_NAMES: tuple[str, ...] = (*_PRESET_CHOICES, "DP-TR-Batch-Newton-IH-EBM(p=0.25)")


def baseline_preset(preset: str, /, **fields) -> TrainConfig:
    """Build the configuration of a named baseline.

    Any TrainConfig field given in ``fields`` overrides the preset's choice;
    a field left out keeps its TrainConfig default, and ``name`` defaults to
    the preset name. DP-RF and the batched preset, which takes its fraction
    inline (``DP-TR-Batch-Newton-IH-EBM(p=0.25)``), derive B from the final T
    (B = T and round(p * T)) unless B is given.
    """
    match = _BATCH_PRESET.match(preset)
    choice = _PRESET_CHOICES.get("DP-TR-Newton-IH-EBM" if match else preset)
    if choice is None:
        raise UnknownPresetError(f"unknown preset {preset!r}; known: {', '.join(PRESET_NAMES)}")
    fraction = float(match.group(1)) if match else (1.0 if preset == "DP-RF" else None)
    if fraction is not None and not 0.0 < fraction <= 1.0:
        raise UnknownPresetError(f"batch fraction must be in (0, 1], got {fraction}")
    config = TrainConfig(**{"name": preset, **choice, **fields})
    if fraction is not None and "B" not in fields:
        config = config.replace(B=max(1, min(config.T, round(fraction * config.T))))
    return config


def list_presets(T: int = 100, m: int = 10, d: int = 4) -> list[dict]:
    """Name, component summary, and query-count formula of every preset."""
    rows = []
    for name in PRESET_NAMES:
        cfg = baseline_preset(name, T=T, d=d, m=m)
        kappa = count_queries(cfg)
        rows.append(
            {
                "name": name,
                "split_method": cfg.split_method.value,
                "update_mode": cfg.update_mode.value,
                "candidate_method": cfg.candidate_method.value,
                "feature_mode": cfg.feature_mode.value,
                "k": cfg.resolved_k(),
                "noise_placement": cfg.noise_placement.value,
                "B": cfg.B,
                "kappa": kappa.as_tuple(),
                "total_queries": kappa.total,
            }
        )
    return rows


@dataclass
class ExperimentResult:
    """One grid cell's outcome, one field per results-CSV column in column
    order; failed runs carry an error string instead of metrics."""

    config_id: str
    dataset: str
    epsilon: float | None
    split_seed: int
    repeat: int
    status: str = "ok"
    test_auc: float | None = None
    train_auc: float | None = None
    sigma: float | None = None
    kappa_c: int | None = None
    kappa_s: int | None = None
    kappa_w: int | None = None
    comm_rounds: int | None = None
    comm_uplink_values: int | None = None
    nonprivate_candidates: bool | None = None
    wall_time: float = 0.0
    error: str | None = None

    def to_row(self) -> dict:
        """The CSV row: "" for None, every other value through its column's format."""
        return {
            name: "" if value is None else format(value, _COLUMN_FORMATS.get(name, ""))
            for name, value in vars(self).items()
        }


_COLUMN_FORMATS = {"test_auc": ".6f", "train_auc": ".6f", "sigma": ".6g", "wall_time": ".3f"}

RESULT_COLUMNS = [field.name for field in fields(ExperimentResult)]

_COLUMN_TYPES = field_types(ExperimentResult)


def read_results(path) -> list[ExperimentResult]:
    """The rows of a results CSV, the inverse of ``ExperimentResult.to_row``:
    a blank cell reads as None and every other cell goes through its field's
    type. A file whose header is not ``RESULT_COLUMNS`` raises
    InvalidParameterError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            raise InvalidParameterError(f"{path}: columns {reader.fieldnames} != {RESULT_COLUMNS}")
        return [
            ExperimentResult(
                **{
                    name: None if cell == "" else parse_value(_COLUMN_TYPES[name], cell)
                    for name, cell in row.items()
                }
            )
            for row in reader
        ]


def _derive_seed(split_seed: int, repeat: int) -> int:
    return int(np.random.SeedSequence([split_seed, repeat]).generate_state(1)[0])


def run_single(
    config: TrainConfig,
    train_set: Dataset,
    test_set: Dataset | None = None,
    epsilon: float | None = None,
    delta: float | None = None,
) -> tuple[float | None, float, TrainResult]:
    """Train one configuration with one record per client and evaluate it.

    With ``epsilon`` the run gets that budget, delta defaulting to 1/n_train
    (``budget_for``); without it the config's own budget stands, and a
    ``delta`` raises InvalidParameterError. Returns (test AUC, or None
    without a test set, train AUC, TrainResult).
    """
    if epsilon is None and delta is not None:
        raise InvalidParameterError("delta given without epsilon")
    if epsilon is not None:
        budget = (
            budget_for(epsilon, train_set.n) if delta is None else PrivacyBudget(epsilon, delta)
        )
        config = config.replace(budget=budget)
    result = train(config, partition(train_set, None, ONE_RECORD_PER_CLIENT, seed=config.seed))
    test_auc = None
    if test_set is not None:
        test_auc = auc_roc(test_set.labels, predict(result.ensemble, test_set.features))
    train_auc = auc_roc(train_set.labels, predict(result.ensemble, train_set.features))
    return test_auc, train_auc, result


# The keys of a dataset spec besides its ``kind``, with their types, and the
# synthetic kind's defaults; ``bounds`` is the JSON list that ``train --bounds`` takes.
_DATASET_FIELDS = dict(
    name=str, n=int, m=int, seed=int, skewed_fraction=float, class_balance=float,
    path=str, label_column=str, bounds=json.loads,
)
_SYNTHETIC_DEFAULTS = dict(n=20000, m=10, skewed_fraction=0.0, class_balance=0.5, seed=0)


def parse_dataset(values: dict) -> dict:
    """Pop a grid spec's dataset keys from ``values``, its ``key = value``
    strings, into the typed dataset spec ``run_grid`` takes. ``dataset``
    gives the kind: synthetic (the default) or csv."""
    spec = {"kind": values.pop("dataset", "synthetic")}
    for key, parse in _DATASET_FIELDS.items():
        if key in values:
            spec[key] = parse(values.pop(key))
    return spec


def _materialise_dataset(spec: dict) -> tuple[str, Dataset]:
    kind = spec.get("kind", "synthetic")
    if kind == "synthetic":
        args = {key: spec.get(key, default) for key, default in _SYNTHETIC_DEFAULTS.items()}
        return spec.get("name", "synthetic"), synthesize(**args)
    if kind == "csv":
        path = spec["path"]
        name = spec.get("name", Path(path).stem)
        return name, load_csv(path, spec["label_column"], spec.get("bounds"))
    raise InvalidParameterError(f"unknown dataset kind: {kind!r}")


def run_grid(
    configs: dict[str, TrainConfig],
    dataset_spec: dict,
    epsilons,
    split_seeds,
    repeats: int,
    out_path,
    test_fraction: float = 0.3,
) -> list[ExperimentResult]:
    """Run configs x epsilons x split seeds x repeats, appending rows as they finish.

    An epsilon of None runs without noise. Individual failures are recorded
    in their row and the grid continues. A mean/std summary per (config,
    epsilon) cell is written alongside, and the dataset spec, the test
    fraction and the flattened configs go to a JSON sidecar.

    An existing output is resumed: rows already present are skipped, so an
    interrupted grid resumes to the same final table, and new split seeds,
    epsilons and config ids extend it. Resuming a different experiment raises
    InvalidParameterError before anything is written: a missing sidecar, a
    different dataset spec or test fraction, a config id whose flattened
    config differs, or a CSV header other than ``RESULT_COLUMNS``.
    """
    out_path = Path(out_path)
    epsilons = [None if eps is None else float(eps) for eps in epsilons]
    sidecar_path = out_path.with_suffix(".configs.json")
    # through JSON, so it compares equal to a sidecar read back
    record = json.loads(json.dumps({
        "dataset": dataset_spec,
        "test_fraction": test_fraction,
        "configs": {cid: cfg.to_flat_dict() for cid, cfg in configs.items()},
    }))
    resuming = out_path.exists()
    done: set[tuple] = set()
    if resuming:
        recorded = _recorded_experiment(out_path, sidecar_path, record)
        done = {(r.config_id, r.epsilon, r.split_seed, r.repeat) for r in read_results(out_path)}
        record["configs"] = {**recorded["configs"], **record["configs"]}
    dataset_name, dataset = _materialise_dataset(dataset_spec)
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    results: list[ExperimentResult] = []
    with open(out_path, "a" if resuming else "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        if not resuming:
            writer.writeheader()
        cells = itertools.product(configs, epsilons, split_seeds, range(repeats))
        for cid, eps, split_seed, rep in cells:
            if (cid, eps, split_seed, rep) in done:
                continue
            res = _run_cell(
                cid, configs[cid], dataset_name, dataset, eps, split_seed, rep, test_fraction
            )
            results.append(res)
            writer.writerow(res.to_row())
            fh.flush()

    _write_summary(out_path)
    return results


def _recorded_experiment(out_path: Path, sidecar_path: Path, record: dict) -> dict:
    """The sidecar of an existing results file, once ``record`` is shown to
    continue its experiment; raises InvalidParameterError otherwise."""
    if not sidecar_path.exists():
        raise InvalidParameterError(f"cannot resume {out_path}: {sidecar_path} is missing")
    with open(sidecar_path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    differ = [key for key in ("dataset", "test_fraction") if recorded.get(key) != record[key]]
    differ += [
        f"config {cid!r}"
        for cid, flat in record["configs"].items()
        if recorded["configs"].get(cid, flat) != flat
    ]
    if differ:
        raise InvalidParameterError(
            f"cannot resume {out_path}: {', '.join(differ)} differ from {sidecar_path}"
        )
    return recorded


def _run_cell(cid, cfg, dataset_name, dataset, epsilon, split_seed, rep, test_fraction):
    start = time.perf_counter()
    cell = dict(
        config_id=cid, dataset=dataset_name, epsilon=epsilon, split_seed=split_seed, repeat=rep
    )
    try:
        pair = train_test_split(dataset, 1.0 - test_fraction, seed=split_seed)
        run_cfg = cfg.replace(seed=_derive_seed(split_seed, rep), budget=None)
        test_auc, train_auc, outcome = run_single(run_cfg, pair.train, pair.test, epsilon)
        kappa_c, kappa_s, kappa_w = outcome.queries.as_tuple()
        return ExperimentResult(
            **cell,
            test_auc=test_auc,
            train_auc=train_auc,
            sigma=outcome.sigma,
            kappa_c=kappa_c,
            kappa_s=kappa_s,
            kappa_w=kappa_w,
            comm_rounds=outcome.comm_rounds,
            comm_uplink_values=outcome.comm_uplink_values,
            nonprivate_candidates=outcome.nonprivate_candidates,
            wall_time=time.perf_counter() - start,
        )
    except Exception as exc:  # isolate the cell; the grid continues
        return ExperimentResult(
            **cell,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - start,
        )


def _write_summary(out_path: Path) -> None:
    cells: dict[tuple, list[float]] = {}
    for row in read_results(out_path):
        if row.status == "ok" and row.test_auc is not None:
            cells.setdefault((row.config_id, row.epsilon), []).append(row.test_auc)
    summary_path = out_path.with_suffix(".summary.csv")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_id", "epsilon", "runs", "mean_test_auc", "std_test_auc"])
        # per config, the noise-free cell (epsilon None, written blank) first
        order = sorted(cells, key=lambda cell: (cell[0], -np.inf if cell[1] is None else cell[1]))
        for cid, eps in order:
            arr = np.asarray(cells[cid, eps])
            writer.writerow(
                [cid, eps, arr.size, f"{arr.mean():.6f}", f"{arr.std(ddof=0):.6f}"]
            )


def rank_table(results) -> dict[float | None, dict[str, float]]:
    """Average rank of each method across datasets, one table column per epsilon.

    ``results`` is an iterable of ExperimentResult. Every row names a method
    and a (dataset, epsilon) cell, but only rows that finished ok with a test
    AUC are ranked. Methods are ranked 1 = best by mean test AUC inside every
    cell; ranks then average over datasets. Raises MissingCellError when a
    method lacks a ranked result for some cell, as a method whose every run
    failed does.
    """
    by_cell: dict[tuple, dict[str, list[float]]] = {}
    methods: set[str] = set()
    for res in results:
        methods.add(res.config_id)
        cell = by_cell.setdefault((res.dataset, res.epsilon), {})
        if res.status == "ok" and res.test_auc is not None:
            cell.setdefault(res.config_id, []).append(res.test_auc)

    missing = [
        (dataset, eps, method)
        for (dataset, eps), cell in sorted(by_cell.items(), key=str)
        for method in sorted(methods)
        if method not in cell
    ]
    if missing:
        raise MissingCellError(f"missing results for cells: {missing}")

    per_eps: dict[float | None, dict[str, list[float]]] = {}
    for (dataset, eps), cell in by_cell.items():
        names = sorted(cell)
        # rank 1 = highest mean AUC; ties share the mean of the ranks they cover
        ranks = rankdata([-float(np.mean(cell[name])) for name in names])
        bucket = per_eps.setdefault(eps, {})
        for name, rank in zip(names, ranks):
            bucket.setdefault(name, []).append(float(rank))
    return {
        eps: {method: float(np.mean(ranks)) for method, ranks in sorted(bucket.items())}
        for eps, bucket in per_eps.items()
    }
