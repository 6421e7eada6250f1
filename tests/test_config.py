import pytest

import dpgbdt as d
from dpgbdt.accounting import InvalidParameterError


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
        assert cfg.effective_batch_size == 9
        assert d.TrainConfig(T=9, B=3).effective_batch_size == 3


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
        back = d.TrainConfig.from_flat_dict(cfg.to_flat_dict())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            d.TrainConfig.from_flat_dict({"Tt": 3})

    def test_epsilon_needs_delta(self):
        with pytest.raises(InvalidParameterError):
            d.TrainConfig.from_flat_dict({"epsilon": 1.0})
