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

GOLDEN = {
    ("one-record", "DP-EBM"): "ec030a6a7148d086",
    ("one-record", "DP-EBM-Newton"): "082da4fb9a68fe46",
    ("one-record", "DP-GBM"): "04f6eeb8a49d00e9",
    ("one-record", "DP-RF"): "0e2596baeb5a430e",
    ("one-record", "FEVERLESS"): "2b14e16d7632b838",
    ("one-record", "LDP"): "dcce22ada38568df",
    ("one-record", "DP-TR-Newton"): "a40b2664c2918f33",
    ("one-record", "DP-TR-Newton-IH"): "1f5bc1cfd6bda7fb",
    ("one-record", "DP-TR-Newton-IH-EBM"): "0e345c5dfb7ded0e",
    ("one-record", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"): "8a6f1a903fdd47cb",
    ("one-record", "pr"): "4bd9a067b5513108",
    ("one-record", "hist-k1"): "ace92312e79acf5d",
    ("one-record", "hist-IH"): "ce6f845f74c0c797",
    ("one-record", "pr-k1"): "cfd666f7dee81188",
    ("7-shards", "DP-EBM"): "78ff1728d1311aaf",
    ("7-shards", "DP-EBM-Newton"): "ad84f0936e653279",
    ("7-shards", "DP-GBM"): "b93552661259cb77",
    ("7-shards", "DP-RF"): "0e2596baeb5a430e",
    ("7-shards", "FEVERLESS"): "8ffeac0e808e68b7",
    ("7-shards", "LDP"): "f91b768e5380423c",
    ("7-shards", "DP-TR-Newton"): "dc8308c50b684f15",
    ("7-shards", "DP-TR-Newton-IH"): "80c954172abbad9c",
    ("7-shards", "DP-TR-Newton-IH-EBM"): "d7bbe88cf4f0b218",
    ("7-shards", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"): "382bcfdfb2a6b782",
    ("7-shards", "pr"): "099ea13e59171d63",
    ("7-shards", "hist-k1"): "4747e252cf1d6838",
    ("7-shards", "hist-IH"): "40b71eecd8b117fe",
    ("7-shards", "pr-k1"): "ad828a747eb08eac",
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
