"""Golden-behaviour fixture: four output digests per preset and population.

Each row holds one digest per component of a seeded training run: the model
JSON, the query ledger, the calibrated sigma and the comm counters, each
hashed the way ``bench/run.py`` hashes its payload. A refactor that claims
unchanged behaviour must leave every digest here unchanged; a change that
alters outputs on purpose updates the table and says so in the changelog.

Regenerate the table with ``python tests/test_golden.py``; list, per row,
the components that differ from the table with ``python tests/test_golden.py --diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

import dpgbdt as d
from dpgbdt.boosting import train
from dpgbdt.config import CandidateMethod, FeatureMode
from dpgbdt.federation import EQUAL_SHARDS, ONE_RECORD_PER_CLIENT, partition
from dpgbdt.harness import PRESET_NAMES, baseline_preset, budget_for

N, M, T, DEPTH, Q, IH_ROUNDS, SEED, EPSILON = 600, 5, 12, 3, 8, 3, 1, 1.0

# (label, baseline preset, overrides): every named preset plus the variants
# that reach the pair rounds, the single-feature builder (hist and pr) and the
# candidate refinement of hist trees, none of which a named preset covers.
VARIANTS = tuple((name, name, {}) for name in PRESET_NAMES) + (
    ("pr", "FEVERLESS", {"split_method": d.SplitMethod.PARTIALLY_RANDOM}),
    ("hist-k1", "FEVERLESS", {"k": 1, "feature_mode": FeatureMode.CYCLICAL}),
    ("hist-IH", "FEVERLESS", {"candidate_method": CandidateMethod.ITERATIVE_HESSIAN}),
    ("pr-k1", "FEVERLESS", {
        "split_method": d.SplitMethod.PARTIALLY_RANDOM,
        "k": 1,
        "feature_mode": FeatureMode.CYCLICAL,
    }),
)
POPULATIONS = ("one-record", "7-shards")
COMPONENTS = ("model", "ledger", "sigma", "comm")

# (population, label) -> digests in COMPONENTS order
GOLDEN = {
    ("one-record", "DP-EBM"):
        ("057b103b8ba4022c", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("one-record", "DP-EBM-Newton"):
        ("067f8014eded1ef8", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("one-record", "DP-GBM"):
        ("cc1e98bc8ada70ab", "01409473f044f688", "689fd4ded951eb5e", "dbb377dd35d3ce89"),
    ("one-record", "DP-RF"):
        ("607f58fd718bc8ef", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "66b2d1fb1a5230f0"),
    ("one-record", "FEVERLESS"):
        ("4561147ff1f8be96", "01409473f044f688", "689fd4ded951eb5e", "dbb377dd35d3ce89"),
    ("one-record", "LDP"):
        ("65fad1ce8af9c69a", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("one-record", "DP-TR-Newton"):
        ("9cc702a3e32d572f", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("one-record", "DP-TR-Newton-IH"):
        ("96a3b06924f84ee9", "08f57baf33f75932", "71ca1e91a08afc67", "93043210dba9eae7"),
    ("one-record", "DP-TR-Newton-IH-EBM"):
        ("00ce74d27b316619", "08f57baf33f75932", "71ca1e91a08afc67", "93043210dba9eae7"),
    ("one-record", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"):
        ("a7cd17e42d93aa53", "08f57baf33f75932", "71ca1e91a08afc67", "adc731cba167994b"),
    ("one-record", "pr"):
        ("d1f8567777adff0e", "01409473f044f688", "689fd4ded951eb5e", "c7f60e2daa23b0b7"),
    ("one-record", "hist-k1"):
        ("871c104de26fb62e", "d2153fea7cfabfbb", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("one-record", "hist-IH"):
        ("3b941c970edda1f2", "01409473f044f688", "689fd4ded951eb5e", "dbb377dd35d3ce89"),
    ("one-record", "pr-k1"):
        ("9663642aa4bb6a71", "d2153fea7cfabfbb", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("7-shards", "DP-EBM"):
        ("cca29ac6ed30d541", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("7-shards", "DP-EBM-Newton"):
        ("a744562255a05245", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("7-shards", "DP-GBM"):
        ("6cfcb45045d3d100", "01409473f044f688", "689fd4ded951eb5e", "dbb377dd35d3ce89"),
    ("7-shards", "DP-RF"):
        ("607f58fd718bc8ef", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "66b2d1fb1a5230f0"),
    ("7-shards", "FEVERLESS"):
        ("850f396e2285cefb", "01409473f044f688", "689fd4ded951eb5e", "dbb377dd35d3ce89"),
    ("7-shards", "LDP"):
        ("2bd5dfb8f7578a1d", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("7-shards", "DP-TR-Newton"):
        ("281e6b99e3c7ef5f", "cbf73e1f7d25de22", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("7-shards", "DP-TR-Newton-IH"):
        ("d03ebffb805d84c9", "08f57baf33f75932", "71ca1e91a08afc67", "93043210dba9eae7"),
    ("7-shards", "DP-TR-Newton-IH-EBM"):
        ("08e2cc12ac5bdfa0", "08f57baf33f75932", "71ca1e91a08afc67", "93043210dba9eae7"),
    ("7-shards", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"):
        ("858726886389bfb2", "08f57baf33f75932", "71ca1e91a08afc67", "adc731cba167994b"),
    ("7-shards", "pr"):
        ("ef7d58e3fac62cd7", "01409473f044f688", "689fd4ded951eb5e", "c7f60e2daa23b0b7"),
    ("7-shards", "hist-k1"):
        ("050c2940e153fe3b", "d2153fea7cfabfbb", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
    ("7-shards", "hist-IH"):
        ("41c12ada181a6ac9", "01409473f044f688", "689fd4ded951eb5e", "dbb377dd35d3ce89"),
    ("7-shards", "pr-k1"):
        ("7ce0a9685da72233", "d2153fea7cfabfbb", "1bdc9f7e2b3bd331", "22a6c7dc0192265e"),
}


def _population(kind: str):
    ds = d.synthesize(N, M, 0.3, 0.3, seed=0)
    if kind == "one-record":
        return partition(ds, None, ONE_RECORD_PER_CLIENT)
    return partition(ds, 7, EQUAL_SHARDS, seed=0)


def digests(result) -> dict[str, str]:
    """Component name -> 16-hex digest of that component alone."""
    payload = {
        "model": result.ensemble.to_json_dict(),
        "ledger": list(result.queries.as_tuple()),
        "sigma": result.sigma,
        "comm": [result.comm_rounds, result.comm_uplink_values],
    }
    return {
        name: hashlib.sha256(json.dumps(payload[name], sort_keys=True).encode()).hexdigest()[:16]
        for name in COMPONENTS
    }


def run_digests(population: str, label: str) -> dict[str, str]:
    _, base, overrides = next(v for v in VARIANTS if v[0] == label)
    cfg = baseline_preset(base, T=T, d=DEPTH, Q=Q, ih_rounds=IH_ROUNDS, m=M, seed=SEED)
    cfg = cfg.replace(budget=budget_for(EPSILON, N), **overrides)
    return digests(train(cfg, _population(population)))


@pytest.mark.parametrize("population", POPULATIONS)
@pytest.mark.parametrize("label", [v[0] for v in VARIANTS])
def test_digest_unchanged(population, label):
    assert run_digests(population, label) == dict(zip(COMPONENTS, GOLDEN[(population, label)]))


if __name__ == "__main__":
    diff = sys.argv[1:] == ["--diff"]
    for population in POPULATIONS:
        for label, _, _ in VARIANTS:
            got = run_digests(population, label)
            if diff:
                expected = dict(zip(COMPONENTS, GOLDEN[(population, label)]))
                moved = [name for name in COMPONENTS if got[name] != expected[name]]
                print(f"{population} {label}: {' '.join(moved) or '-'}")
            else:
                print(f'    ("{population}", "{label}"):')
                print(f"        ({', '.join(json.dumps(got[name]) for name in COMPONENTS)}),")
