"""Command-line interface.

Subcommands:
  train    one configuration -> model JSON, and on stdout the run record
           of the executed rounds plus the AUCs
  grid     grid spec file -> incremental results CSV (+ summary and sidecar),
           then the average rank of every preset per epsilon
  presets  the run record of every built-in baseline, one JSON line each
  account  the run record of a configuration's plan, no training

A run record (``boosting.run_record``) is the flat config with its budget,
the query ledger, sigma, the noise std and the communication costs.

Configuration files and grid specs are plain ``key = value`` lines (#
comments allowed); every TrainConfig field can be set there or by a flag of
the same name, which wins over the file, and an unknown key fails. Exit code
0 on success; failures print one JSON error line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .accounting import InvalidParameterError, PrivacyBudget, plan
from .boosting import run_record
from .config import FLAT_FIELDS, TrainConfig, parse_fields
from .data import load_csv, train_test_split
from .harness import (
    PRESET_NAMES,
    MissingCellError,
    baseline_preset,
    parse_dataset,
    rank_table,
    read_results,
    run_grid,
    run_single,
)


# Every TrainConfig field but the budget, whose epsilon and delta are keys of their own.
_CONFIG_KEYS = (*FLAT_FIELDS, "epsilon", "delta")


def _parse_kv_file(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _config_from(args, file_values: dict) -> tuple[TrainConfig, float | None, float | None]:
    """Build a config from file + flags; the (epsilon, delta) pair is returned
    separately so callers can default delta to 1/n once n is known.

    Flags win over file values key by key. With --preset, the named baseline
    supplies the defaults and any explicit key overrides it field by field.
    """
    flags = {key: getattr(args, key, None) for key in _CONFIG_KEYS}
    values = {**file_values, **{key: flag for key, flag in flags.items() if flag is not None}}
    budget = [values.pop(key, None) for key in ("epsilon", "delta")]
    epsilon, delta = (None if value is None else float(value) for value in budget)
    fields = parse_fields(values)
    preset = getattr(args, "preset", None)
    return (baseline_preset(preset, **fields) if preset else TrainConfig(**fields)), epsilon, delta


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--preset", help="baseline preset name, e.g. DP-TR-Newton")
    for key in _CONFIG_KEYS:
        # raw strings here, parsed with the file values by config.parse_fields
        parser.add_argument(f"--{key}", type=str, default=None)


def _cmd_train(args) -> int:
    file_values = _parse_kv_file(args.config) if args.config else {}
    cfg, epsilon, delta = _config_from(args, file_values)
    bounds = json.loads(args.bounds) if args.bounds else None
    dataset = load_csv(args.data, args.label_column, bounds)
    if args.test_fraction > 0:
        pair = train_test_split(dataset, 1.0 - args.test_fraction, seed=args.split_seed)
        train_set, test_set = pair.train, pair.test
    else:
        train_set, test_set = dataset, None
    test_auc, train_auc, result = run_single(cfg, train_set, test_set, epsilon, delta)
    if args.out:
        result.ensemble.save(args.out)
    record = run_record(result.config, result.rounds)
    record["train_auc"] = train_auc
    if test_auc is not None:
        record["test_auc"] = test_auc
    print(json.dumps(record, indent=2))
    return 0


def _parse_list(text: str, cast):
    return [cast(part.strip()) for part in text.split(",") if part.strip()]


def _cmd_grid(args) -> int:
    spec = _parse_kv_file(args.spec)
    dataset_spec = parse_dataset(spec)
    preset_names = _parse_list(spec.pop("presets"), str)
    epsilons = [None if e in ("none", "None") else float(e) for e in _parse_list(spec.pop("epsilons"), str)]
    split_seeds = _parse_list(spec.pop("split_seeds", "0"), int)
    repeats = int(spec.pop("repeats", "1"))
    test_fraction = float(spec.pop("test_fraction", "0.3"))
    fields = parse_fields(spec)
    configs = {name: baseline_preset(name, **fields) for name in preset_names}
    results = run_grid(
        configs, dataset_spec, epsilons, split_seeds, repeats, args.out, test_fraction
    )
    failures = sum(1 for r in results if r.status != "ok")
    print(f"wrote {len(results)} new rows to {args.out} ({failures} failures)")
    # ranks over every row of the file, earlier runs' included
    try:
        ranks = rank_table(read_results(args.out))
    except MissingCellError as exc:
        print(exc)
        return 0
    for eps in sorted(ranks, key=lambda eps: -math.inf if eps is None else eps):
        print(f"\naverage rank at epsilon={eps} (1 = best):")
        for name, rank in sorted(ranks[eps].items(), key=lambda item: item[1]):
            print(f"  {rank:5.2f}  {name}")
    return 0


def _cmd_presets(_args) -> int:
    for name in PRESET_NAMES:
        # default T and d, over m = 10 features
        cfg = baseline_preset(name, m=10)
        print(json.dumps(run_record(cfg, plan(cfg))))
    return 0


def _cmd_account(args) -> int:
    file_values = _parse_kv_file(args.config) if args.config else {}
    cfg, epsilon, delta = _config_from(args, file_values)
    if epsilon is not None:
        if delta is None:
            raise ValueError("account needs --delta alongside --epsilon (no dataset to infer 1/n)")
        cfg = cfg.replace(budget=PrivacyBudget(epsilon, delta))
    elif delta is not None:
        raise InvalidParameterError("delta given without epsilon")
    if cfg.m is None:
        raise ValueError("account needs --m (number of features)")
    print(json.dumps(run_record(cfg, plan(cfg)), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpgbdt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one configuration on a CSV dataset")
    p_train.add_argument("--data", required=True, help="CSV with header row")
    p_train.add_argument("--label-column", required=True)
    p_train.add_argument("--bounds", help="JSON list of [low, high] per feature column")
    p_train.add_argument("--out", help="path for the model JSON")
    p_train.add_argument("--test-fraction", type=float, default=0.3)
    p_train.add_argument("--split-seed", type=int, default=0)
    _add_config_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_grid = sub.add_parser("grid", help="run an experiment grid from a spec file")
    p_grid.add_argument("--spec", required=True)
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(func=_cmd_grid)

    p_presets = sub.add_parser("presets", help="the run record of every baseline preset")
    p_presets.set_defaults(func=_cmd_presets)

    p_account = sub.add_parser(
        "account", help="the run record of a config's plan: queries, sigma, comm costs"
    )
    _add_config_flags(p_account)
    p_account.set_defaults(func=_cmd_account)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
