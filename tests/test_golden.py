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
    ("one-record", "DP-EBM"): "f984cd254beae596",
    ("one-record", "DP-EBM-Newton"): "c9dfbb0e0c73b3aa",
    ("one-record", "DP-GBM"): "ea50fb4a9502d0e9",
    ("one-record", "DP-RF"): "bac75db534b8a7aa",
    ("one-record", "FEVERLESS"): "2b21a9160b75c372",
    ("one-record", "LDP"): "b6f075c7152c8482",
    ("one-record", "DP-TR-Newton"): "f5164ce2ac58f8b2",
    ("one-record", "DP-TR-Newton-IH"): "65b8a2573c66336a",
    ("one-record", "DP-TR-Newton-IH-EBM"): "b080de245276a6e0",
    ("one-record", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"): "4a253f7ccc5f7e7b",
    ("one-record", "pr"): "1feab70fdfaf92c4",
    ("one-record", "hist-k1"): "eb3e0ee316b291fc",
    ("one-record", "hist-IH"): "a1fb275143894ba6",
    ("one-record", "pr-k1"): "c3fc71350815238c",
    ("7-shards", "DP-EBM"): "98858f2e45afef0a",
    ("7-shards", "DP-EBM-Newton"): "02d96adfb970f8ec",
    ("7-shards", "DP-GBM"): "14d7405b67b8b34f",
    ("7-shards", "DP-RF"): "bac75db534b8a7aa",
    ("7-shards", "FEVERLESS"): "8e41dd016b8c28c9",
    ("7-shards", "LDP"): "dec9d11a677c63b5",
    ("7-shards", "DP-TR-Newton"): "d41878bb7b43aa90",
    ("7-shards", "DP-TR-Newton-IH"): "1d052cf255670d82",
    ("7-shards", "DP-TR-Newton-IH-EBM"): "351c00896773761f",
    ("7-shards", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"): "1b179d2a5549732c",
    ("7-shards", "pr"): "8a81e8f598347eb2",
    ("7-shards", "hist-k1"): "f5db287e5d4dd65e",
    ("7-shards", "hist-IH"): "dca7bcc7389e44ff",
    ("7-shards", "pr-k1"): "0de4a9eb5f438dc9",
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
