"""Golden-behaviour fixture: four output digests per preset and population.

Each row holds one digest per component of a seeded training run: the model
JSON, the query ledger, the calibrated sigma and the comm counters, each
hashed the way ``bench/run.py`` hashes its payload. A refactor that claims
unchanged behaviour must leave every digest here unchanged; a change that
alters outputs on purpose updates the table and says so in the changelog.

Regenerate the table with ``python tests/test_golden.py``; list, per row,
the components that differ from the table with ``python tests/test_golden.py --diff``,
which exits 1 when any row's component moved and 0 otherwise.
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
        ("6c265ab9d233e239", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("one-record", "DP-EBM-Newton"):
        ("6c18b91ebb44ed91", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("one-record", "DP-GBM"):
        ("b8edfc78617a51bb", "01409473f044f688", "0d1b4c40380546b5", "dbb377dd35d3ce89"),
    ("one-record", "DP-RF"):
        ("07bdb897b6b1e24e", "cbf73e1f7d25de22", "67890684d7242c10", "66b2d1fb1a5230f0"),
    ("one-record", "FEVERLESS"):
        ("28defd317d360d5f", "01409473f044f688", "0d1b4c40380546b5", "dbb377dd35d3ce89"),
    ("one-record", "LDP"):
        ("0db6749245bcb345", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("one-record", "DP-TR-Newton"):
        ("eff13111bf313a40", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("one-record", "DP-TR-Newton-IH"):
        ("6f668b992a952c3e", "08f57baf33f75932", "f88b02f1a0fdd374", "93043210dba9eae7"),
    ("one-record", "DP-TR-Newton-IH-EBM"):
        ("a7a34e93aadf556d", "08f57baf33f75932", "f88b02f1a0fdd374", "93043210dba9eae7"),
    ("one-record", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"):
        ("c7d29497d6b40067", "08f57baf33f75932", "f88b02f1a0fdd374", "adc731cba167994b"),
    ("one-record", "pr"):
        ("27b0cb4a0a7c850c", "01409473f044f688", "0d1b4c40380546b5", "c7f60e2daa23b0b7"),
    ("one-record", "hist-k1"):
        ("c1eb8fb1dc4a150f", "d2153fea7cfabfbb", "67890684d7242c10", "22a6c7dc0192265e"),
    ("one-record", "hist-IH"):
        ("7b1f7ea38051867b", "01409473f044f688", "0d1b4c40380546b5", "dbb377dd35d3ce89"),
    ("one-record", "pr-k1"):
        ("10c0a9da0783133a", "d2153fea7cfabfbb", "67890684d7242c10", "22a6c7dc0192265e"),
    ("7-shards", "DP-EBM"):
        ("6c5fbf222a5387ee", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("7-shards", "DP-EBM-Newton"):
        ("938e540340aeb1ad", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("7-shards", "DP-GBM"):
        ("6a3792054c8affb3", "01409473f044f688", "0d1b4c40380546b5", "dbb377dd35d3ce89"),
    ("7-shards", "DP-RF"):
        ("07bdb897b6b1e24e", "cbf73e1f7d25de22", "67890684d7242c10", "66b2d1fb1a5230f0"),
    ("7-shards", "FEVERLESS"):
        ("9ff4768fbdf2001f", "01409473f044f688", "0d1b4c40380546b5", "dbb377dd35d3ce89"),
    ("7-shards", "LDP"):
        ("b56c9e91c4103af5", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("7-shards", "DP-TR-Newton"):
        ("29dc6e67bc4003eb", "cbf73e1f7d25de22", "67890684d7242c10", "22a6c7dc0192265e"),
    ("7-shards", "DP-TR-Newton-IH"):
        ("1d3a2c68e95d4c29", "08f57baf33f75932", "f88b02f1a0fdd374", "93043210dba9eae7"),
    ("7-shards", "DP-TR-Newton-IH-EBM"):
        ("e5e45363c2e8b344", "08f57baf33f75932", "f88b02f1a0fdd374", "93043210dba9eae7"),
    ("7-shards", "DP-TR-Batch-Newton-IH-EBM(p=0.25)"):
        ("5913398856a25cd1", "08f57baf33f75932", "f88b02f1a0fdd374", "adc731cba167994b"),
    ("7-shards", "pr"):
        ("cb34fcb84932bf89", "01409473f044f688", "0d1b4c40380546b5", "c7f60e2daa23b0b7"),
    ("7-shards", "hist-k1"):
        ("d438832bf5ea76a4", "d2153fea7cfabfbb", "67890684d7242c10", "22a6c7dc0192265e"),
    ("7-shards", "hist-IH"):
        ("321219f06ddbf0b3", "01409473f044f688", "0d1b4c40380546b5", "dbb377dd35d3ce89"),
    ("7-shards", "pr-k1"):
        ("f3d198f16e96991c", "d2153fea7cfabfbb", "67890684d7242c10", "22a6c7dc0192265e"),
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
    any_moved = False
    for population in POPULATIONS:
        for label, _, _ in VARIANTS:
            got = run_digests(population, label)
            if diff:
                expected = dict(zip(COMPONENTS, GOLDEN[(population, label)]))
                moved = [name for name in COMPONENTS if got[name] != expected[name]]
                any_moved = any_moved or bool(moved)
                print(f"{population} {label}: {' '.join(moved) or '-'}")
            else:
                print(f'    ("{population}", "{label}"):')
                print(f"        ({', '.join(json.dumps(got[name]) for name in COMPONENTS)}),")
    sys.exit(1 if any_moved else 0)
