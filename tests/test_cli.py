import csv
import dataclasses
import json
import math

import pytest

import dpgbdt as d
from dpgbdt.cli import _config_from, build_parser, main
from dpgbdt.harness import PRESET_NAMES, rank_table, read_results

from helpers import save_csv
from oracles import gdp_delta_by_integration


@pytest.fixture()
def csv_dataset(tmp_path):
    ds = d.synthesize(300, 3, 0.3, 0.4, seed=5)
    path = tmp_path / "demo.csv"
    save_csv(ds, path, label_column="y")
    bounds = json.dumps([list(b) for b in ds.bounds])
    return path, bounds


class TestTrainCommand:
    def test_trains_and_writes_model(self, csv_dataset, tmp_path, capsys):
        path, bounds = csv_dataset
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train",
                "--data", str(path),
                "--label-column", "y",
                "--bounds", bounds,
                "--T", "5",
                "--d", "2",
                "--Q", "4",
                "--epsilon", "1",
                "--out", str(model_path),
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert (metrics["kappa_c"], metrics["kappa_s"], metrics["kappa_w"]) == (0, 0, 5)
        assert metrics["sigma"] > 0
        assert "test_auc" in metrics
        ens = d.Ensemble.load(model_path)
        assert len(ens.trees) == 5

    def test_config_file_with_flag_override(self, csv_dataset, tmp_path, capsys):
        path, bounds = csv_dataset
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("T = 4\nd = 2\nQ = 4\nsplit_method = hist  # greedy\n")
        code = main(
            [
                "train",
                "--data", str(path),
                "--label-column", "y",
                "--bounds", bounds,
                "--config", str(cfg_file),
                "--T", "6",
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        # hist from file, T overridden by the flag: kappa_s = T*m*d = 6*3*2
        assert (metrics["kappa_c"], metrics["kappa_s"], metrics["kappa_w"]) == (0, 36, 0)
        assert (metrics["split_method"], metrics["T"]) == ("hist", 6)

    def test_unknown_config_key_fails_with_json_error(self, csv_dataset, tmp_path, capsys):
        path, bounds = csv_dataset
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("T = 4\nsplit_methd = hist\n")
        argv = ["train", "--data", str(path), "--label-column", "y", "--bounds", bounds]
        assert main([*argv, "--config", str(cfg_file)]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParameterError" and "split_methd" in err["message"]

    def test_non_number_bounds_fail(self, csv_dataset, capsys):
        path, _ = csv_dataset
        bounds = json.dumps([["0", True], [0, 1], [0, 1]])
        argv = ["train", "--data", str(path), "--label-column", "y", "--bounds", bounds]
        assert main([*argv, "--T", "2"]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TypeError" and "bound must be a number" in err["message"]

    def test_delta_without_epsilon_fails_with_json_error(self, csv_dataset, capsys):
        path, bounds = csv_dataset
        argv = ["train", "--data", str(path), "--label-column", "y", "--bounds", bounds]
        assert main([*argv, "--T", "2", "--delta", "1e-5"]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParameterError" and "delta" in err["message"]

    def test_missing_file_fails_with_json_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"), "--label-column", "y"])
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CsvParseError"


class TestAccountCommand:
    def test_reports_ledger_and_sigma(self, capsys):
        code = main(
            [
                "account",
                "--preset", "DP-TR-Newton-IH",
                "--m", "10",
                "--T", "100",
                "--epsilon", "1",
                "--delta", "1e-5",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["kappa_c"], out["kappa_s"], out["kappa_w"]) == (50, 0, 100)
        assert out["comm_rounds"] == 105
        assert out["sigma"] > 0

    def test_epsilon_needs_delta(self, capsys):
        assert main(["account", "--m", "5", "--epsilon", "1"]) != 0
        assert "--delta" in json.loads(capsys.readouterr().err)["message"]

    def test_delta_without_epsilon_fails_with_json_error(self, capsys):
        assert main(["account", "--m", "5", "--delta", "1e-5"]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParameterError" and "delta" in err["message"]

    def test_requires_m(self, capsys):
        assert main(["account", "--preset", "DP-TR-Newton"]) != 0

    def test_preset_fields_overridable(self, capsys):
        code = main(
            ["account", "--preset", "DP-TR-Newton", "--m", "4", "--T", "30", "--B", "10"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kappa_w"] == 30
        # preset default is B = 1 (30 leaf rounds); the explicit flag wins
        assert out["comm_rounds"] == 3 and out["B"] == 10


    def test_quantile_candidates_are_flagged_nonprivate(self, capsys):
        argv = ["account", "--m", "3", "--candidate_method", "quantile", "--epsilon", "1"]
        assert main([*argv, "--delta", "1e-5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nonprivate_candidates"] is True and out["sigma"] > 0


class TestPresetsCommand:
    def test_prints_the_record_of_every_preset(self, capsys):
        assert main(["presets"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == list(PRESET_NAMES)
        for r in records:
            cfg = d.baseline_preset(r["name"], m=10)
            assert r == d.run_record(cfg, d.plan(cfg))
            assert (r["T"], r["d"], r["m"], r["sigma"], r["noise_std"]) == (100, 4, 10, 0.0, None)


def test_train_prints_the_record_account_derives(csv_dataset, capsys):
    """``train`` and ``account`` print one record for one private config,
    ``account`` given the m and delta = 1/n_train ``train`` reads off the data."""
    path, bounds = csv_dataset
    n_train = d.train_test_split(d.load_csv(path, "y"), 0.7, seed=0).train.n
    config = ["--preset", "DP-TR-Batch-Newton-IH-EBM(p=0.25)", "--T", "8", "--d", "2", "--Q", "4"]
    argv = ["train", "--data", str(path), "--label-column", "y", "--bounds", bounds]
    assert main([*argv, *config, "--epsilon", "1"]) == 0
    trained = json.loads(capsys.readouterr().out)
    argv = ["account", *config, "--m", "3", "--epsilon", "1", "--delta", repr(1 / n_train)]
    assert main(argv) == 0
    accounted = json.loads(capsys.readouterr().out)
    assert trained.pop("train_auc") > 0.5 and "test_auc" in trained
    del trained["test_auc"]
    assert trained == accounted
    # 5 refinement rounds over all 3 features, then one leaf query per tree
    assert (accounted["delta"], accounted["kappa_c"], accounted["kappa_w"]) == (1 / n_train, 15, 8)


def printed_ranks(out: str) -> dict:
    """The rank block ``grid`` prints: {epsilon: {preset: average rank}}."""
    ranks: dict = {}
    for line in out.splitlines():
        if line.startswith("average rank at epsilon="):
            text = line.removeprefix("average rank at epsilon=").split()[0]
            block = ranks.setdefault(None if text == "None" else float(text), {})
        elif line.startswith("  "):
            rank, name = line.split()
            block[name] = float(rank)
    return ranks


class TestGridCommand:
    def test_runs_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "grid.cfg"
        spec.write_text(
            "dataset = synthetic\n"
            "n = 200\n"
            "m = 3\n"
            "presets = DP-TR-Newton, DP-RF\n"
            "epsilons = 1.0, none\n"
            "split_seeds = 0\n"
            "repeats = 1\n"
            "T = 4\n"
            "d = 2\n"
            "Q = 4\n"
        )
        out = tmp_path / "results.csv"
        code = main(["grid", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "results.summary.csv").exists()
        assert "4 new rows" in capsys.readouterr().out

    def test_every_preset_runs_and_is_ranked(self, tmp_path, capsys):
        spec = tmp_path / "grid.cfg"
        spec.write_text(
            f"n = 300\nm = 3\npresets = {', '.join(PRESET_NAMES)}\nepsilons = 1.0\n"
            "T = 3\nd = 2\nQ = 4\n"
        )
        out = tmp_path / "results.csv"
        assert main(["grid", "--spec", str(spec), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert f"wrote {len(PRESET_NAMES)} new rows to {out} (0 failures)" in text
        ranks = printed_ranks(text)
        assert list(ranks) == [1.0] and sorted(ranks[1.0]) == sorted(PRESET_NAMES)
        assert all(row.status == "ok" and 0.0 <= row.test_auc <= 1.0 for row in read_results(out))

    def test_resume_ranks_every_row_of_the_file(self, tmp_path, capsys):
        spec = tmp_path / "grid.cfg"
        layout = "n = 200\nm = 3\npresets = DP-TR-Newton, DP-RF\nepsilons = 1.0, none\nT = 3\n"
        argv = ["grid", "--spec", str(spec), "--out", str(tmp_path / "results.csv")]
        spec.write_text(layout + "split_seeds = 0\n")
        assert main(argv) == 0
        capsys.readouterr()
        spec.write_text(layout + "split_seeds = 0, 1\n")
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "wrote 4 new rows" in text
        rows = read_results(tmp_path / "results.csv")
        assert sorted({row.split_seed for row in rows}) == [0, 1] and len(rows) == 8
        assert printed_ranks(text) == rank_table(rows)

    def test_missing_cells_are_printed_instead_of_ranks(self, tmp_path, capsys):
        spec = tmp_path / "grid.cfg"
        argv = ["grid", "--spec", str(spec), "--out", str(tmp_path / "results.csv")]
        spec.write_text("n = 200\nm = 3\npresets = DP-TR-Newton\nepsilons = 1.0\nT = 3\n")
        assert main(argv) == 0
        capsys.readouterr()
        spec.write_text("n = 200\nm = 3\npresets = DP-RF\nepsilons = 0.5\nT = 3\n")
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "missing results for cells" in text and "'DP-RF'" in text
        assert "average rank" not in text

    def test_presets_whose_private_runs_all_failed_are_printed_as_missing(
        self, csv_dataset, tmp_path, capsys
    ):
        # no declared bounds: the epsilon = 1 rows fail, the noise-free rows run
        path, _ = csv_dataset
        spec = tmp_path / "grid.cfg"
        spec.write_text(
            f"dataset = csv\npath = {path}\nlabel_column = y\n"
            "presets = DP-TR-Newton, DP-RF\nepsilons = none, 1.0\nT = 2\n"
        )
        assert main(["grid", "--spec", str(spec), "--out", str(tmp_path / "results.csv")]) == 0
        text = capsys.readouterr().out
        assert "(2 failures)" in text
        assert "('demo', 1.0, 'DP-RF')" in text and "('demo', 1.0, 'DP-TR-Newton')" in text
        assert "average rank" not in text

    def test_resuming_a_different_experiment_fails_and_appends_nothing(self, tmp_path, capsys):
        spec = tmp_path / "grid.cfg"
        out = tmp_path / "results.csv"
        argv = ["grid", "--spec", str(spec), "--out", str(out)]
        spec.write_text("n = 200\nm = 3\npresets = DP-TR-Newton\nepsilons = none\nT = 2\n")
        assert main(argv) == 0
        before = out.read_bytes()
        capsys.readouterr()
        spec.write_text("n = 200\nm = 3\npresets = DP-TR-Newton\nepsilons = none\nT = 9\n")
        assert main(argv) != 0
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "InvalidParameterError" and "DP-TR-Newton" in err["message"]
        assert out.read_bytes() == before

    def test_every_config_field_applies(self, tmp_path, capsys):
        spec = tmp_path / "grid.cfg"
        spec.write_text(
            "n = 200\nm = 3\npresets = DP-TR-Newton\nepsilons = none\n"
            "T = 4\nd = 2\nQ = 4\nsplit_method = hist\nB = 2\n"
        )
        out = tmp_path / "results.csv"
        assert main(["grid", "--spec", str(spec), "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "results.configs.json").read_text())
        config = sidecar["configs"]["DP-TR-Newton"]
        assert (config["split_method"], config["B"], config["T"]) == ("hist", 2, 4)
        # m and seed describe the dataset, not the configs
        assert sidecar["dataset"]["m"] == 3 and config["m"] is None

    def test_csv_grid_with_bounds_runs_private_cells(self, csv_dataset, tmp_path, capsys):
        path, bounds = csv_dataset
        spec = tmp_path / "grid.cfg"
        spec.write_text(
            f"dataset = csv\npath = {path}\nlabel_column = y\nbounds = {bounds}\n"
            "presets = DP-TR-Newton\nepsilons = 1.0\nT = 3\nd = 2\nQ = 4\n"
        )
        out = tmp_path / "results.csv"
        assert main(["grid", "--spec", str(spec), "--out", str(out)]) == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "ok", row["error"]
        assert float(row["sigma"]) > 0
        sidecar = json.loads((tmp_path / "results.configs.json").read_text())
        assert sidecar["dataset"]["bounds"] == json.loads(bounds)

    def test_csv_grid_with_non_number_bounds_fails(self, csv_dataset, tmp_path, capsys):
        path, _ = csv_dataset
        spec = tmp_path / "grid.cfg"
        bounds = json.dumps([["0", "1"], [0, 1], [0, 1]])
        spec.write_text(
            f"dataset = csv\npath = {path}\nlabel_column = y\nbounds = {bounds}\n"
            "presets = DP-TR-Newton\nepsilons = 1.0\nT = 3\nd = 2\nQ = 4\n"
        )
        out = tmp_path / "results.csv"
        assert main(["grid", "--spec", str(spec), "--out", str(out)]) != 0
        assert "bound must be a number" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_unknown_key_fails(self, tmp_path, capsys):
        spec = tmp_path / "grid.cfg"
        spec.write_text("n = 200\nm = 3\npresets = DP-TR-Newton\nepsilons = none\nTt = 7\n")
        out = tmp_path / "results.csv"
        assert main(["grid", "--spec", str(spec), "--out", str(out)]) != 0
        assert "Tt" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "dataset, named",
        [
            ("n = 300\npath = {path}\nlabel_column = y\n", "path"),  # no dataset = csv
            ("dataset = csv\npath = {path}\nlabel_column = y\nn = 300\nseed = 1\n", "seed"),
            ("dataset = csv\nlabel_column = y\n", "path"),
            ("dataset = csv\npath = {path}\n", "label_column"),
        ],
        ids=["synthetic-with-csv-keys", "csv-with-synthetic-keys", "csv-no-path", "csv-no-label"],
    )
    def test_dataset_spec_reads_exactly_its_kinds_keys(
        self, csv_dataset, tmp_path, capsys, dataset, named
    ):
        path, _ = csv_dataset
        spec = tmp_path / "grid.cfg"
        spec.write_text(
            dataset.format(path=path) + "presets = DP-TR-Newton\nepsilons = none\nT = 2\n"
        )
        out = tmp_path / "results.csv"
        assert main(["grid", "--spec", str(spec), "--out", str(out)]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParameterError" and named in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv", "grid.cfg"]
        assert not out.exists()


# `dpgbdt account --preset <name> --m 10 --T 100 --epsilon 1 --delta 1e-5`:
# (kappa_c, kappa_s, kappa_w), sigma, noise_std and (comm_rounds,
# per_round_payload, comm_uplink_values) of the run record it prints.
SIGMA_100, SIGMA_150, SIGMA_4000 = 37.30631634815949, 45.690719617920415, 235.9458615419175
ACCOUNT_JSON = {
    "DP-EBM": ((0, 0, 100), SIGMA_100, 52.75909854174827, (100, 32, 3200)),
    "DP-EBM-Newton": ((0, 0, 100), SIGMA_100, 38.45447070154212, (100, 32, 3200)),
    "DP-GBM": ((0, 4000, 0), SIGMA_4000, 333.67783737838425, (400, 640, 256000)),
    "DP-RF": ((0, 0, 100), SIGMA_100, 52.75909854174827, (1, 3200, 3200)),
    "FEVERLESS": ((0, 4000, 0), SIGMA_4000, 243.20742726617144, (400, 640, 256000)),
    "LDP": ((0, 0, 100), SIGMA_100, 38.45447070154212, (100, 32, 3200)),
    "DP-TR-Newton": ((0, 0, 100), SIGMA_100, 38.45447070154212, (100, 32, 3200)),
    "DP-TR-Newton-IH": ((50, 0, 100), SIGMA_150, 47.096915773791714, (105, 32, 6400)),
    "DP-TR-Newton-IH-EBM": ((50, 0, 100), SIGMA_150, 47.096915773791714, (105, 32, 6400)),
    "DP-TR-Batch-Newton-IH-EBM(p=0.25)": (
        (50, 0, 100), SIGMA_150, 47.096915773791714, (9, 800, 6400)
    ),
}


@pytest.mark.parametrize("total, sigma", [(100, SIGMA_100), (150, SIGMA_150), (4000, SIGMA_4000)])
def test_pinned_sigma_meets_the_budget_on_the_integrated_curve(total, sigma):
    # delta(1; sqrt(K) / sigma) = 1e-5, so the pins are the calibration's answer
    delta = gdp_delta_by_integration(math.sqrt(total) / sigma, 1.0)
    assert delta == pytest.approx(1e-5, rel=1e-9)


@pytest.mark.parametrize("name", sorted(ACCOUNT_JSON))
def test_account_json_pinned_for_every_preset(name, capsys):
    argv = ["account", "--preset", name, "--m", "10", "--T", "100", "--epsilon", "1", "--delta", "1e-5"]
    assert main(argv) == 0
    (c, s, w), sigma, noise_std, (rounds, payload, uplink) = ACCOUNT_JSON[name]
    flat = d.baseline_preset(name, m=10, T=100, budget=d.PrivacyBudget(1.0, 1e-5)).to_flat_dict()
    assert json.loads(capsys.readouterr().out) == {
        **json.loads(json.dumps(flat)),
        "nonprivate_candidates": False,
        "kappa_c": c,
        "kappa_s": s,
        "kappa_w": w,
        "sigma": sigma,
        "noise_std": noise_std,
        "comm_rounds": rounds,
        "per_round_payload": payload,
        "comm_uplink_values": uplink,
    }


def test_every_config_field_round_trips_and_has_a_flag():
    cfg = d.TrainConfig(
        T=7,
        d=2,
        Q=5,
        split_method=d.SplitMethod.HIST,
        update_mode=d.UpdateMode.GRADIENT,
        candidate_method=d.CandidateMethod.LOG,
        ih_rounds=2,
        feature_mode=d.FeatureMode.RANDOM,
        k=2,
        B=3,
        eta=0.5,
        beta=1.5,
        lam=2.0,
        gamma=0.25,
        budget=d.PrivacyBudget(1.0, 1e-5),
        seed=9,
        m=4,
        noise_placement=d.NoisePlacement.LOCAL,
        name="x",
    )
    fields = [f.name for f in dataclasses.fields(d.TrainConfig)]
    default = d.TrainConfig()
    assert all(getattr(cfg, f) != getattr(default, f) for f in fields)
    flat = cfg.to_flat_dict()
    assert set(flat) == set(fields) - {"budget"} | {"epsilon", "delta"}
    # a config file holding the flat dict reads back to the same config
    args = build_parser().parse_args(["account"])
    back, epsilon, delta = _config_from(args, {key: str(value) for key, value in flat.items()})
    assert back.replace(budget=d.PrivacyBudget(epsilon, delta)) == cfg
    for field in set(fields) - {"budget"}:
        args = build_parser().parse_args(["account", f"--{field}", str(flat[field])])
        assert getattr(_config_from(args, {})[0], field) == getattr(cfg, field), field
