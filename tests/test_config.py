import pytest

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError
from dpgbdt.config import parse_fields, parse_value


class TestValidation:
    def test_batch_bounds(self):
        with pytest.raises(InvalidParameterError):
            d.TrainConfig(T=5, B=6)
        with pytest.raises(InvalidParameterError):
            d.TrainConfig(T=5, B=0)

    def test_counts(self):
        with pytest.raises(InvalidParameterError):
            d.TrainConfig(T=0)
        with pytest.raises(InvalidParameterError):
            d.TrainConfig(Q=1)

    def test_k_range(self):
        with pytest.raises(InvalidParameterError):
            d.TrainConfig(k=5, m=3)
        d.TrainConfig(k=3, m=3)  # boundary is fine

    def test_private_needs_positive_lambda(self):
        with pytest.raises(InvalidParameterError):
            d.TrainConfig(lam=0.0, budget=d.PrivacyBudget(1.0, 1e-5))
        d.TrainConfig(lam=0.0)  # non-private zero lambda is allowed

    @pytest.mark.parametrize("field", ["eta", "beta", "lam", "gamma"])
    def test_non_finite_rejected(self, field):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError, match=field):
                d.TrainConfig(**{field: value})

    def test_resolved_k(self):
        assert d.TrainConfig(m=7).resolved_k() == 7
        assert d.TrainConfig(m=7, k=2).resolved_k() == 2
        with pytest.raises(InvalidParameterError):
            d.TrainConfig().resolved_k()

    def test_averaging_batches_as_one(self):
        cfg = d.TrainConfig(T=9, B=1, update_mode=d.UpdateMode.AVERAGING)
        assert cfg.batches == ((0, 9),)
        assert d.TrainConfig(T=9, B=3).batches == ((0, 3), (3, 6), (6, 9))
        assert d.TrainConfig(T=7, B=3).batches == ((0, 3), (3, 6), (6, 7))

    def test_replace_rederives_the_averaging_batch(self):
        averaging = d.TrainConfig(T=5, update_mode=d.UpdateMode.AVERAGING)
        assert averaging.B == 5
        # leaving averaging, B is what a fresh config of that mode has
        newton = averaging.replace(update_mode=d.UpdateMode.NEWTON)
        assert newton.B == d.TrainConfig(T=5, update_mode=d.UpdateMode.NEWTON).B == 1
        assert newton.batches == tuple((t, t + 1) for t in range(5))
        assert averaging.replace(update_mode=d.UpdateMode.NEWTON, B=2).B == 2
        # within averaging B follows T
        assert averaging.replace(T=8).B == 8
        # a config that does not average keeps its B
        batched = d.baseline_preset("DP-TR-Batch-Newton-IH-EBM(p=0.25)")
        assert batched.B == 25
        assert batched.replace(seed=3).B == batched.replace(T=100).B == 25


class TestFlatDict:
    def test_round_trip(self):
        cfg = d.TrainConfig(
            T=12,
            d=3,
            split_method=d.SplitMethod.HIST,
            update_mode=d.UpdateMode.GRADIENT,
            candidate_method=d.CandidateMethod.LOG,
            feature_mode=d.FeatureMode.RANDOM,
            k=2,
            m=5,
            B=4,
            budget=d.PrivacyBudget(0.7, 1e-4),
            name="probe",
        )
        flat = cfg.to_flat_dict()
        budget = d.PrivacyBudget(flat.pop("epsilon"), flat.pop("delta"))
        assert d.TrainConfig(budget=budget, **parse_fields(flat)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            parse_fields({"Tt": 3})


class TestParseFields:
    def test_strings_and_typed_values(self):
        fields = parse_fields(
            {"T": "7", "eta": "0.5", "split_method": "hist", "k": None, "name": "x",
             "update_mode": d.UpdateMode.GRADIENT, "d": 3}
        )
        assert fields == {
            "T": 7, "eta": 0.5, "split_method": d.SplitMethod.HIST, "name": "x",
            "update_mode": d.UpdateMode.GRADIENT, "d": 3,
        }

    @pytest.mark.parametrize("text, value", [("1", True), ("TRUE", True), ("yes", True),
                                             ("0", False), ("False", False), ("NO", False)])
    def test_booleans(self, text, value):
        # the results CSV's boolean column reads through this rule
        assert parse_value(bool, text) is value

    def test_misspelled_boolean_rejected(self):
        with pytest.raises(KeyError):
            parse_value(bool, "ture")

    @pytest.mark.parametrize(
        "values", [{"centered_batch": "true"}, {"T": "abc"}, {"split_method": "hst"}, {"Tt": "7"}]
    )
    def test_bad_key_or_value_rejected(self, values):
        with pytest.raises(InvalidParameterError, match=next(iter(values))):
            parse_fields(values)
