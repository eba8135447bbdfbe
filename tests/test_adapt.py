"""Tests for the adaptability measurement stack: distributions, entropy
normalization, the adaptability vector, game value, and balance-gap
records."""

import math

import numpy as np
import pytest

from dfqgame.adapt import (
    LogitsPair,
    adaptability_vector,
    agreement_distribution,
    balance_gap,
    disagreement_distribution,
    game_value,
    info_entropy,
    normalize_entropy,
    NORM_EPS,
)
from dfqgame.engine import Tensor, seeded_rng


def random_pair(seed, batch=8, classes=10) -> LogitsPair:
    rng = seeded_rng(seed)
    return LogitsPair(rng.standard_normal((batch, classes)) * 3,
                      rng.standard_normal((batch, classes)) * 3)


def entropy_stack(lp: LogitsPair):
    """disagreement distribution -> entropy -> H' -> H_C as plain arrays:
    (p_ds, h_norm, h, h_c)."""
    p_ds = disagreement_distribution(lp)
    h_norm, _ = normalize_entropy(info_entropy(p_ds), lp.class_count)
    h = 1.0 - h_norm
    return p_ds.data, h_norm.data, h.data, adaptability_vector(p_ds, h).data


class TestLogitsPair:
    def test_coerces_arrays(self):
        lp = LogitsPair(np.zeros((2, 3)), np.zeros((2, 3)))
        assert isinstance(lp.z_p, Tensor)
        assert lp.class_count == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogitsPair(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            LogitsPair(bad, np.zeros((2, 3)))


class TestDistributions:
    def test_disagreement_is_softmax_of_difference(self):
        lp = random_pair(0)
        expect = np.exp(lp.z_p.data - lp.z_q.data)
        expect /= expect.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(disagreement_distribution(lp).data, expect,
                                   atol=1e-12)

    def test_agreement_is_softmax_of_sum(self):
        lp = random_pair(1)
        expect = np.exp(lp.z_p.data + lp.z_q.data)
        expect /= expect.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(agreement_distribution(lp).data, expect,
                                   atol=1e-12)

    def test_identical_logits_give_uniform_disagreement(self):
        z = seeded_rng(2).standard_normal((4, 6))
        p = disagreement_distribution(LogitsPair(z, z.copy())).data
        np.testing.assert_allclose(p, np.full((4, 6), 1 / 6), atol=1e-12)


class TestEntropy:
    def test_uniform_distribution_has_max_entropy(self):
        p = Tensor(np.full((1, 8), 1 / 8))
        assert info_entropy(p).data[0] == pytest.approx(math.log(8), abs=1e-12)

    def test_onehot_distribution_has_zero_entropy(self):
        p = np.zeros((1, 5))
        p[0, 0] = 1.0
        assert info_entropy(Tensor(p)).data[0] == pytest.approx(0.0, abs=1e-12)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            info_entropy(Tensor(np.full((1, 4), 0.5)))
        with pytest.raises(ValueError):
            info_entropy(Tensor([[1.5, -0.5]]))

    def test_matches_scalar_recomputation(self):
        lp = random_pair(3)
        p = disagreement_distribution(lp).data
        h = info_entropy(Tensor(p)).data
        for i in range(p.shape[0]):
            expect = -sum(v * math.log(v) for v in p[i] if v > 0)
            assert h[i] == pytest.approx(expect, rel=1e-12)


class TestNormalizedEntropy:
    def test_batch_min_maps_to_zero(self):
        h = Tensor(np.array([0.5, 1.0, 2.0]))
        h_norm, batch_min = normalize_entropy(h, class_count=10)
        assert batch_min == 0.5
        assert h_norm.data[0] == pytest.approx(0.0, abs=1e-12)

    def test_range_is_unit_interval(self):
        lp = random_pair(4, batch=32)
        p = disagreement_distribution(lp)
        h_norm, _ = normalize_entropy(info_entropy(p, validate=False), 10)
        assert np.all(h_norm.data >= 0.0)
        assert np.all(h_norm.data <= 1.0)

    def test_denominator_formula(self):
        h = Tensor(np.array([0.3, 1.1]))
        h_norm, _ = normalize_entropy(h, class_count=7)
        denom = math.log(7) - 0.3 + NORM_EPS
        assert h_norm.data[1] == pytest.approx((1.1 - 0.3) / denom, rel=1e-12)

    def test_pinned_batch_min_is_respected(self):
        h = Tensor(np.array([0.5, 1.0]))
        h_norm, batch_min = normalize_entropy(h, 10, batch_min=0.25)
        assert batch_min == 0.25
        assert h_norm.data[0] > 0.0

    def test_aligned_batch_guarded_by_epsilon(self):
        # every sample at maximal entropy: denominator would vanish bar eps
        h = Tensor(np.full(4, math.log(10)))
        h_norm, _ = normalize_entropy(h, 10)
        np.testing.assert_allclose(h_norm.data, np.zeros(4), atol=1e-12)


class TestAdaptabilityVector:
    def test_rows_have_norm_h(self):
        _, _, h, h_c = entropy_stack(random_pair(5))
        norms = np.linalg.norm(h_c, axis=1)
        np.testing.assert_allclose(norms, np.abs(h), rtol=1e-10)

    def test_direction_matches_distribution(self):
        p_ds, _, h, h_c = entropy_stack(random_pair(6))
        for i in range(p_ds.shape[0]):
            unit = p_ds[i] / np.linalg.norm(p_ds[i])
            np.testing.assert_allclose(h_c[i], unit * h[i], rtol=1e-10)

    def test_standalone_helper(self):
        p = Tensor(np.array([[0.6, 0.4]]))
        h = Tensor(np.array([0.5]))
        out = adaptability_vector(p, h).data
        unit = np.array([0.6, 0.4]) / np.hypot(0.6, 0.4)
        np.testing.assert_allclose(out[0], unit * 0.5, rtol=1e-12)


class TestGameValue:
    def test_mean_of_one_minus_h_norm(self):
        lp = random_pair(7)
        _, h_norm, h, _ = entropy_stack(lp)
        assert game_value(lp).item() == pytest.approx(
            float((1.0 - h_norm).mean()), rel=1e-12)
        assert game_value(lp).item() == pytest.approx(float(h.mean()), rel=1e-12)

    def test_value_in_unit_interval(self):
        for seed in range(10):
            v = game_value(random_pair(seed, batch=16))
            assert 0.0 <= v.item() <= 1.0


class TestBalanceGap:
    def test_identity_holds_exactly(self):
        rng = seeded_rng(9)
        for _ in range(100):
            r1, r2, r3 = rng.uniform(0, 1, 3)
            rec = balance_gap(r1, r2, r3)
            assert rec.bg == rec.delta_g - rec.delta_q  # exact float identity
            assert rec.delta_g == r2 - r1
            assert rec.delta_q == r2 - r3

    def test_stationary_iteration_gives_zero(self):
        rec = balance_gap(0.4, 0.4, 0.4)
        assert rec.bg == 0.0 and rec.delta_g == 0.0 and rec.delta_q == 0.0
