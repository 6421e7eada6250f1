"""Golden-behaviour fixture: one output digest per preset and population.

A digest hashes the model JSON, the query ledger, the calibrated sigma and
the comm counters of one seeded training run, the same way ``bench/run.py``
does. A refactor that claims unchanged behaviour must leave every digest
here unchanged; a change that alters outputs on purpose updates the table
and says so in the changelog.

Regenerate the table with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import dpgbdt as d
from dpgbdt.boosting import train
from dpgbdt.config import CandidateMethod, FeatureMode
from dpgbdt.federation import EQUAL_SHARDS, ONE_RECORD_PER_CLIENT, partition
from dpgbdt.harness import PRESET_NAMES, baseline_preset, budget_for

N, M, T, DEPTH, Q, IH_ROUNDS, SEED, EPSILON = 600, 5, 12, 3, 8, 3, 1, 1.0

# (label, baseline preset, overrides): every named preset plus the variants
# that reach the pair rounds, the single-feature builder and the candidate
# refinement of hist trees, none of which a named preset covers.
VARIANTS = tuple((name, name, {}) for name in PRESET_NAMES) + (
    ("pr", "FEVERLESS", {"split_method": d.SplitMethod.PARTIALLY_RANDOM}),
    ("hist-k1", "FEVERLESS", {"k": 1, "feature_mode": FeatureMode.CYCLICAL}),
    ("hist-IH", "FEVERLESS", {"candidate_method": CandidateMethod.ITERATIVE_HESSIAN}),
)
POPULATIONS = ("one-record", "7-shards")

GOLDEN = {
    ("one-record", "DP-EBM"): "f17ca33886e11a69",
    ("one-record", "DP-EBM-Newton"): "b77000df078b75e9",
    ("one-record", "DP-GBM"): "27a33434a99ce2a2",
    ("one-record", "DP-RF"): "5084fda32ca2378a",
    ("one-record", "FEVERLESS"): "18d3fee235b90da3",
    ("one-record", "LDP"): "197624d7770152c0",
    ("one-record", "DP-TR-Newton"): "9d7dd488ea2223e1",
    ("one-record", "DP-TR-Newton-IH"): "53012c6ee68edb53",
    ("one-record", "DP-TR-Newton-IH-EBM"): "80a7cf9fab3e5b03",
    ("one-record", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"): "5a03e0efba2c39cc",
    ("one-record", "pr"): "7324ff274b627208",
    ("one-record", "hist-k1"): "062e044aaf357d50",
    ("one-record", "hist-IH"): "f3b72a012b21c2af",
    ("7-shards", "DP-EBM"): "373b8ea5a65b0a9a",
    ("7-shards", "DP-EBM-Newton"): "8729dd331bd6b032",
    ("7-shards", "DP-GBM"): "660d3a2cdb3680a5",
    ("7-shards", "DP-RF"): "5084fda32ca2378a",
    ("7-shards", "FEVERLESS"): "79c70f0f50da5788",
    ("7-shards", "LDP"): "617c433f922d7218",
    ("7-shards", "DP-TR-Newton"): "aa0075b283f56b40",
    ("7-shards", "DP-TR-Newton-IH"): "bbc72c17b4e64ab1",
    ("7-shards", "DP-TR-Newton-IH-EBM"): "33f576c55647c050",
    ("7-shards", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"): "58558933e3995d1b",
    ("7-shards", "pr"): "bbcbf84b78799a37",
    ("7-shards", "hist-k1"): "5adf720a251d968d",
    ("7-shards", "hist-IH"): "2e2813caab08fded",
}


def _population(kind: str):
    ds = d.synthesize(N, M, 0.3, 0.3, seed=0)
    if kind == "one-record":
        return partition(ds, None, ONE_RECORD_PER_CLIENT)
    return partition(ds, 7, EQUAL_SHARDS, seed=0)


def digest(result) -> str:
    payload = {
        "model": result.ensemble.to_json_dict(),
        "ledger": list(result.queries.as_tuple()),
        "sigma": result.sigma,
        "comm": [result.comm_rounds, result.comm_uplink_values],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def run_digest(population: str, label: str) -> str:
    _, base, overrides = next(v for v in VARIANTS if v[0] == label)
    cfg = baseline_preset(base, T=T, d=DEPTH, Q=Q, ih_rounds=IH_ROUNDS, m=M, seed=SEED)
    cfg = cfg.replace(budget=budget_for(EPSILON, N), **overrides)
    return digest(train(cfg, _population(population)))


@pytest.mark.parametrize("population", POPULATIONS)
@pytest.mark.parametrize("label", [v[0] for v in VARIANTS])
def test_digest_unchanged(population, label):
    assert run_digest(population, label) == GOLDEN[(population, label)]


if __name__ == "__main__":
    for population in POPULATIONS:
        for label, _, _ in VARIANTS:
            print(f'    ("{population}", "{label}"): "{run_digest(population, label)}",')
