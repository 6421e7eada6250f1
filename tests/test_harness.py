import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError
from dpgbdt.harness import (
    PRESET_NAMES,
    RESULT_COLUMNS,
    ExperimentResult,
    MissingCellError,
    UndefinedAucError,
    UnknownPresetError,
    rank_table,
    read_results,
    run_grid,
    run_single,
)

from oracles import pairwise_auc


class TestAuc:
    def test_perfect_ranking(self):
        assert d.auc_roc([0, 1], [0.1, 0.9]) == 1.0

    def test_all_ties(self):
        assert d.auc_roc([0, 1], [0.5, 0.5]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(10, 1000))
            y = rng.integers(0, 2, n)
            if y.sum() in (0, n):
                continue
            s = np.round(rng.random(n), 2)  # coarse scores force ties
            assert d.auc_roc(y, s) == pytest.approx(pairwise_auc(y, s), abs=1e-12)

    def test_single_class_error(self):
        with pytest.raises(UndefinedAucError):
            d.auc_roc([1, 1], [0.2, 0.4])

    @given(
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=50)
    def test_invariant_under_monotone_transform(self, scale, shift):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 200)
        y[0], y[1] = 0, 1
        s = rng.normal(0, 1, 200)
        base = d.auc_roc(y, s)
        assert d.auc_roc(y, scale * s + shift) == pytest.approx(base, abs=1e-12)
        assert d.auc_roc(y, np.exp(s)) == pytest.approx(base, abs=1e-12)


class TestPresets:
    def test_feverless_ledger(self):
        cfg = d.baseline_preset("FEVERLESS", T=25, d=4, m=10)
        assert d.count_queries(cfg).as_tuple() == (0, 1000, 0)

    def test_dp_rf_ledger(self):
        cfg = d.baseline_preset("DP-RF", T=50, m=6)
        assert d.count_queries(cfg).as_tuple() == (0, 0, 50)
        assert cfg.B == cfg.T

    def test_batched_ebm_ledger(self):
        cfg = d.baseline_preset("DP-TR-Batch-Newton-IH-EBM(p=0.25)", T=100, m=10, ih_rounds=5)
        counter = d.count_queries(cfg)
        assert counter.as_tuple() == (50, 0, 100)
        assert cfg.B == 25

    def test_fields_override_preset_and_keep_derived_batch(self):
        cfg = d.baseline_preset(
            "DP-TR-Batch-Newton-IH-EBM(p=0.25)", T=40, split_method=d.SplitMethod.HIST
        )
        assert (cfg.split_method, cfg.B, cfg.name) == (
            d.SplitMethod.HIST, 10, "DP-TR-Batch-Newton-IH-EBM(p=0.25)"
        )
        assert d.baseline_preset("DP-RF", T=20, B=5).B == 5
        assert d.baseline_preset("DP-RF", T=20, name="rf").name == "rf"
        assert d.baseline_preset("FEVERLESS", eta=0.1).replace(eta=0.3) == d.baseline_preset(
            "FEVERLESS"
        )

    def test_dp_ebm_trains_single_feature_trees(self):
        cfg = d.baseline_preset("DP-EBM", T=30, m=10)
        assert cfg.k == 1
        assert cfg.feature_mode is d.FeatureMode.CYCLICAL
        assert cfg.update_mode is d.UpdateMode.GRADIENT
        assert d.count_queries(cfg).as_tuple() == (0, 0, 30)

    def test_ldp_preset_uses_local_noise(self):
        cfg = d.baseline_preset("LDP", T=10, m=4)
        assert cfg.noise_placement is d.NoisePlacement.LOCAL
        assert d.count_queries(cfg).total == 10

    def test_unknown_name(self):
        with pytest.raises(UnknownPresetError):
            d.baseline_preset("DP-MAGIC")

    def test_every_preset_formula_over_random_tuples(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            T = int(rng.integers(1, 40))
            m = int(rng.integers(1, 12))
            dd = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            for name in PRESET_NAMES:
                cfg = d.baseline_preset(name, T=T, d=dd, m=m, ih_rounds=s)
                counter = d.count_queries(cfg)
                if name in ("DP-GBM", "FEVERLESS"):
                    expected = T * m * dd if m > 1 else T
                    assert counter.as_tuple() == (0, expected, 0), name
                elif "IH" in name:
                    assert counter.as_tuple() == (min(s, T) * m, 0, T), name
                else:
                    assert counter.as_tuple() == (0, 0, T), name

    def test_list_presets_covers_all(self):
        rows = d.list_presets()
        assert {r["name"] for r in rows} == set(PRESET_NAMES)

    # README's preset table: split, update, candidates, feature mode, k (m = 10),
    # noise placement and B at T = 40. Most presets take these from TrainConfig
    # defaults, so a changed default shows up here.
    COMPONENTS = {
        "DP-EBM": ("tr", "gradient", "uniform", "cyclical", 1, "central", 1),
        "DP-EBM-Newton": ("tr", "newton", "uniform", "cyclical", 1, "central", 1),
        "DP-GBM": ("hist", "gradient", "uniform", "cyclical", 10, "central", 1),
        "DP-RF": ("tr", "averaging", "uniform", "cyclical", 10, "central", 40),
        "FEVERLESS": ("hist", "newton", "uniform", "cyclical", 10, "central", 1),
        "LDP": ("tr", "newton", "uniform", "cyclical", 10, "local", 1),
        "DP-TR-Newton": ("tr", "newton", "uniform", "cyclical", 10, "central", 1),
        "DP-TR-Newton-IH": ("tr", "newton", "ih", "cyclical", 10, "central", 1),
        "DP-TR-Newton-IH-EBM": ("tr", "newton", "ih", "cyclical", 1, "central", 1),
        "DP-TR-Batch-Newton-IH-EBM(p=0.25)": ("tr", "newton", "ih", "cyclical", 1, "central", 10),
    }

    def test_components_match_table(self):
        keys = (
            "split_method", "update_mode", "candidate_method", "feature_mode", "k",
            "noise_placement", "B",
        )
        rows = {row["name"]: tuple(row[key] for key in keys) for row in d.list_presets(T=40)}
        assert rows == self.COMPONENTS


class TestRunGrid:
    def test_grid_shape_and_determinism(self, tmp_path):
        configs = {
            "tr": d.baseline_preset("DP-TR-Newton", T=4, d=2, Q=4),
            "rf": d.baseline_preset("DP-RF", T=4, d=2, Q=4),
        }
        spec = {"kind": "synthetic", "n": 200, "m": 3, "seed": 1, "name": "synth"}
        out = tmp_path / "results.csv"
        rows = run_grid(configs, spec, epsilons=[1.0, 0.5], split_seeds=[0, 1, 2],
                        repeats=1, out_path=out)
        assert len(rows) == 2 * 2 * 3
        assert all(r.status == "ok" for r in rows)

        out2 = tmp_path / "again.csv"
        rows2 = run_grid(configs, spec, epsilons=[1.0, 0.5], split_seeds=[0, 1, 2],
                         repeats=1, out_path=out2)
        assert [r.test_auc for r in rows] == [r.test_auc for r in rows2]

    def test_resume_skips_done_rows(self, tmp_path):
        configs = {"tr": d.baseline_preset("DP-TR-Newton", T=3, d=2, Q=4)}
        spec = {"kind": "synthetic", "n": 120, "m": 2, "seed": 0}
        out = tmp_path / "res.csv"
        first = run_grid(configs, spec, [None], [0], 1, out)
        assert len(first) == 1
        second = run_grid(configs, spec, [None], [0, 1], 1, out)
        assert len(second) == 1  # only the new split seed ran
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_rows_say_when_candidates_read_raw_data(self, tmp_path):
        tr = d.baseline_preset("DP-TR-Newton", T=3, d=2, Q=4)
        configs = {"uniform": tr, "quantile": tr.replace(candidate_method=d.CandidateMethod.QUANTILE)}
        spec = {"kind": "synthetic", "n": 120, "m": 2, "seed": 0}
        rows = run_grid(configs, spec, [1.0], [0], 1, tmp_path / "res.csv")
        assert {r.config_id: r.nonprivate_candidates for r in rows} == {
            "uniform": False, "quantile": True
        }
        assert [r.nonprivate_candidates for r in read_results(tmp_path / "res.csv")] == [
            False, True
        ]

    def test_failing_cell_is_isolated(self, tmp_path):
        configs = {
            "bad": d.baseline_preset("DP-TR-Newton", T=4, d=2, Q=4).replace(m=99),
            "good": d.baseline_preset("DP-TR-Newton", T=4, d=2, Q=4),
        }
        spec = {"kind": "synthetic", "n": 150, "m": 3, "seed": 2}
        out = tmp_path / "res.csv"
        rows = run_grid(configs, spec, [None], [0], 1, out)
        by_id = {r.config_id: r for r in rows}
        assert by_id["bad"].status == "error"
        assert by_id["bad"].error
        assert by_id["good"].status == "ok"

    def test_sidecar_and_summary_written(self, tmp_path):
        configs = {"tr": d.baseline_preset("DP-TR-Newton", T=3, d=2, Q=4)}
        spec = {"kind": "synthetic", "n": 120, "m": 2, "seed": 0}
        out = tmp_path / "res.csv"
        run_grid(configs, spec, [None], [0, 1], 1, out)
        sidecar = json.loads((tmp_path / "res.configs.json").read_text())
        assert sidecar["configs"]["tr"]["T"] == 3
        with open(tmp_path / "res.summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert summary[0]["runs"] == "2"


class TestResume:
    """A resumed grid extends its own experiment and refuses any other."""

    SPEC = {"kind": "synthetic", "n": 120, "m": 2, "seed": 0}

    @staticmethod
    def config(**fields):
        return d.baseline_preset("DP-TR-Newton", **{"T": 2, "d": 2, "Q": 4, **fields})

    @pytest.fixture()
    def first(self, tmp_path):
        out = tmp_path / "res.csv"
        run_grid({"tr": self.config()}, self.SPEC, [None], [0], 1, out)
        return out

    @staticmethod
    def files(out):
        return [path.read_bytes() for path in (out, out.with_suffix(".configs.json"))]

    def test_new_seed_epsilon_and_config_extend_the_grid(self, first):
        configs = {"tr": self.config(), "rf": d.baseline_preset("DP-RF", T=2, d=2, Q=4)}
        rows = run_grid(configs, self.SPEC, [None, 1.0], [0, 1], 1, first)
        assert len(rows) == 2 * 2 * 2 - 1  # all but the first run's row
        keys = [(r.config_id, r.epsilon, r.split_seed) for r in read_results(first)]
        assert len(keys) == len(set(keys)) == 8
        sidecar = json.loads(first.with_suffix(".configs.json").read_text())
        assert list(sidecar["configs"]) == ["tr", "rf"]
        assert sidecar["test_fraction"] == 0.3
        # an earlier config id stays recorded when a later call leaves it out
        run_grid({"rf": configs["rf"]}, self.SPEC, [None], [2], 1, first)
        sidecar = json.loads(first.with_suffix(".configs.json").read_text())
        assert sidecar["configs"]["tr"]["T"] == 2 and list(sidecar["configs"]) == ["tr", "rf"]
        with open(first.with_suffix(".summary.csv")) as fh:
            runs = {(row["config_id"], row["epsilon"]): row["runs"] for row in csv.DictReader(fh)}
        assert runs == {("rf", ""): "3", ("rf", "1.0"): "2", ("tr", ""): "2", ("tr", "1.0"): "2"}

    @pytest.mark.parametrize(
        "change",
        ["config", "dataset", "test_fraction", "sidecar missing", "header"],
    )
    def test_a_different_experiment_is_refused(self, first, change):
        configs, spec, test_fraction = {"tr": self.config()}, self.SPEC, 0.3
        if change == "config":
            configs = {"tr": self.config(T=9)}
        elif change == "dataset":
            spec = {**self.SPEC, "n": 121}
        elif change == "test_fraction":
            test_fraction = 0.25
        elif change == "sidecar missing":
            first.with_suffix(".configs.json").unlink()
        else:  # a results file from before nonprivate_candidates was a column
            drop = RESULT_COLUMNS.index("nonprivate_candidates")
            with open(first, newline="") as fh:
                table = [row[:drop] + row[drop + 1 :] for row in csv.reader(fh)]
            with open(first, "w", newline="") as fh:
                csv.writer(fh).writerows(table)
        before = first.read_bytes()
        sidecar = first.with_suffix(".configs.json")
        recorded = sidecar.read_bytes() if sidecar.exists() else None
        with pytest.raises(InvalidParameterError):
            run_grid(configs, spec, [None], [0, 1], 1, first, test_fraction)
        assert first.read_bytes() == before
        assert (sidecar.read_bytes() if sidecar.exists() else None) == recorded


class TestRunSingle:
    @pytest.fixture()
    def pair(self):
        return d.train_test_split(d.synthesize(200, 3, 0.3, 0.4, seed=2), 0.7, seed=0)

    def test_epsilon_sets_budget_with_delta_one_over_n(self, pair):
        cfg = d.baseline_preset("DP-TR-Newton", T=3, d=2, Q=4)
        test_auc, train_auc, result = run_single(cfg, pair.train, epsilon=1.0)
        assert test_auc is None and 0.0 <= train_auc <= 1.0
        assert result.config.budget == d.PrivacyBudget(1.0, 1.0 / pair.train.n)
        _, _, result = run_single(cfg, pair.train, pair.test, 1.0, 1e-3)
        assert result.config.budget == d.PrivacyBudget(1.0, 1e-3)

    def test_three_positional_arguments_keep_the_config_budget(self, pair):
        budget = d.PrivacyBudget(2.0, 1e-4)
        cfg = d.baseline_preset("DP-TR-Newton", T=3, d=2, Q=4, budget=budget)
        test_auc, _, result = run_single(cfg, pair.train, pair.test)
        assert result.config.budget == budget and result.sigma > 0
        assert test_auc == d.auc_roc(pair.test.labels, d.predict(result.ensemble, pair.test.features))

    def test_delta_without_epsilon_fails(self, pair):
        cfg = d.baseline_preset("DP-TR-Newton", T=3, d=2, Q=4)
        with pytest.raises(InvalidParameterError, match="delta"):
            run_single(cfg, pair.train, None, None, 1e-5)


class TestResultRecord:
    def test_fields_are_the_csv_columns(self):
        assert RESULT_COLUMNS == [
            "config_id", "dataset", "epsilon", "split_seed", "repeat", "status",
            "test_auc", "train_auc", "sigma", "kappa_c", "kappa_s", "kappa_w",
            "comm_rounds", "comm_uplink_values", "nonprivate_candidates", "wall_time", "error",
        ]

    def test_row_formats(self):
        ok = ExperimentResult(
            "A", "ds", 1.0, 0, 2, test_auc=0.5, train_auc=2 / 3, sigma=12.3456789,
            kappa_c=0, kappa_s=1, kappa_w=2, comm_rounds=3, comm_uplink_values=4,
            nonprivate_candidates=False, wall_time=1.23456,
        )
        assert ok.to_row() == {
            "config_id": "A", "dataset": "ds", "epsilon": "1.0", "split_seed": "0",
            "repeat": "2", "status": "ok", "test_auc": "0.500000", "train_auc": "0.666667",
            "sigma": "12.3457", "kappa_c": "0", "kappa_s": "1", "kappa_w": "2",
            "comm_rounds": "3", "comm_uplink_values": "4", "nonprivate_candidates": "False",
            "wall_time": "1.235", "error": "",
        }
        failed = ExperimentResult("A", "ds", None, 0, 0, status="error", error="E: x").to_row()
        blank = {"epsilon", "test_auc", "train_auc", "sigma", "kappa_c", "kappa_s", "kappa_w",
                 "comm_rounds", "comm_uplink_values", "nonprivate_candidates"}
        assert {key for key, value in failed.items() if value == ""} == blank
        assert failed["error"] == "E: x"

    def test_read_results_inverts_to_row(self, tmp_path):
        rows = [
            ExperimentResult(
                "A", "ds", 0.5, 3, 1, test_auc=0.25, train_auc=0.75, sigma=12.5, kappa_c=0,
                kappa_s=1, kappa_w=2, comm_rounds=3, comm_uplink_values=4,
                nonprivate_candidates=True, wall_time=1.5,
            ),
            ExperimentResult("B", "ds", None, 0, 0, nonprivate_candidates=False),
            ExperimentResult("C", "ds", 1.0, 0, 0, status="error", error="E: x", wall_time=0.25),
        ]
        out = tmp_path / "res.csv"
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
            writer.writeheader()
            writer.writerows(row.to_row() for row in rows)
        back = read_results(out)
        assert back == rows
        assert [type(row.split_seed) for row in back] == [int] * 3

    def test_read_results_refuses_other_columns(self, tmp_path):
        out = tmp_path / "res.csv"
        out.write_text(",".join(c for c in RESULT_COLUMNS if c != "nonprivate_candidates") + "\n")
        with pytest.raises(InvalidParameterError, match="columns"):
            read_results(out)


def _result(dataset, eps, method, auc):
    return ExperimentResult(
        config_id=method, dataset=dataset, epsilon=eps, split_seed=0, repeat=0,
        test_auc=auc,
    )


class TestRankTable:
    def test_simple_ordering(self):
        rows = [_result("ds1", 1.0, "A", 0.9), _result("ds1", 1.0, "B", 0.8)]
        assert rank_table(rows) == {1.0: {"A": 1.0, "B": 2.0}}

    def test_reversed_orders_average(self):
        rows = [
            _result("ds1", 1.0, "A", 0.9),
            _result("ds1", 1.0, "B", 0.8),
            _result("ds2", 1.0, "A", 0.7),
            _result("ds2", 1.0, "B", 0.8),
        ]
        assert rank_table(rows) == {1.0: {"A": 1.5, "B": 1.5}}

    def test_tie_within_cell(self):
        rows = [_result("ds1", 0.5, "A", 0.8), _result("ds1", 0.5, "B", 0.8)]
        assert rank_table(rows) == {0.5: {"A": 1.5, "B": 1.5}}

    def test_missing_cell_raises(self):
        rows = [
            _result("ds1", 1.0, "A", 0.9),
            _result("ds1", 1.0, "B", 0.8),
            _result("ds2", 1.0, "A", 0.7),
        ]
        with pytest.raises(MissingCellError):
            rank_table(rows)

    def test_mean_auc_inside_cells(self):
        rows = [
            _result("ds1", 1.0, "A", 0.6),
            _result("ds1", 1.0, "A", 1.0),  # mean 0.8
            _result("ds1", 1.0, "B", 0.75),
        ]
        assert rank_table(rows)[1.0] == {"A": 1.0, "B": 2.0}

    def test_method_whose_runs_all_failed_is_missing(self, tmp_path):
        good = d.baseline_preset("DP-TR-Newton", T=3, d=2, Q=4)
        configs = {"bad": good.replace(m=99), "good": good}
        out = tmp_path / "res.csv"
        run_grid(configs, {"kind": "synthetic", "n": 120, "m": 3, "seed": 2}, [1.0], [0], 1, out)
        with pytest.raises(MissingCellError, match="'bad'"):
            rank_table(read_results(out))

    def test_grid_whose_every_row_failed_is_missing(self):
        rows = [
            ExperimentResult(
                config_id=method, dataset="ds1", epsilon=1.0, split_seed=0, repeat=0,
                status="error", error="ValueError: boom",
            )
            for method in ("A", "B")
        ]
        with pytest.raises(MissingCellError, match="'A'.*'B'"):
            rank_table(rows)
