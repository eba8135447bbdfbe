"""Tests for the symmetric linear quantizer and the straight-through
fake-quantization wrapper."""

import tracemalloc

import numpy as np
import pytest

from dfqgame import quant
from dfqgame.engine import BLOCK, Tensor, seeded_rng
from dfqgame.quant import (
    QuantConfig,
    fake_quantize,
    fake_quantize_array,
    dequantize,
    quantize,
)
from helpers import sum_


class TestQuantConfig:
    @pytest.mark.parametrize("bits", [1, 0, 9, 16, -3, 3.5])
    def test_bits_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError):
            QuantConfig(bits=bits)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_valid_bits_accepted(self, bits):
        assert QuantConfig(bits=bits).bits == bits


class TestQuantize:
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_code_range(self, bits):
        theta = seeded_rng(bits).standard_normal(257) * 10
        q = quantize(theta, bits)
        assert q.codes.min() >= -(2 ** (bits - 1))
        assert q.codes.max() <= 2 ** (bits - 1) - 1

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_endpoints_exact(self, bits):
        theta = np.array([-1.0, 0.3, 1.0])
        q = quantize(theta, bits)
        assert q.codes[0] == -(2 ** (bits - 1))
        assert q.codes[2] == 2 ** (bits - 1) - 1
        d = dequantize(q)
        assert d[0] == pytest.approx(-1.0, abs=1e-15)
        assert d[2] == pytest.approx(1.0, abs=1e-15)

    def test_three_bit_reference_values(self):
        # range [-1, 1], n=3: step 2/7, codes -4..3
        q = quantize(np.array([-1.0, 0.0, 1.0]), 3)
        assert list(q.codes) == [-4, -1, 3]

    def test_monotone_in_input(self):
        theta = np.sort(seeded_rng(0).standard_normal(1000))
        codes = quantize(theta, 4).codes
        assert np.all(np.diff(codes) >= 0)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_round_trip_error_bounded(self, bits):
        theta = seeded_rng(100 + bits).uniform(-5, 5, 4096)
        q = quantize(theta, bits)
        step = (q.theta_max - q.theta_min) / (2 ** bits - 1)
        err = np.abs(dequantize(q) - theta)
        assert err.max() <= step / 2 + 1e-12

    def test_constant_tensor_round_trips(self):
        q = quantize(np.full((3, 3), 2.5), 4)
        assert np.all(q.codes == 0)
        np.testing.assert_array_equal(dequantize(q), np.full((3, 3), 2.5))

    def test_grid_values_are_fixed_points(self):
        # values already on the 8-bit grid pass through unchanged
        grid = np.linspace(-1.0, 1.0, 256)
        np.testing.assert_allclose(fake_quantize_array(grid, 8), grid,
                                   atol=1e-12)

    def test_ties_round_half_away_from_zero(self):
        # range [0, 15] at 4 bits gives unit step: value v scales to v - 8,
        # so 0.5 offsets land exactly between codes and round away from zero
        theta = np.array([0.0, 0.5, 1.5, 15.0])
        codes = quantize(theta, 4).codes
        assert list(codes) == [-8, -8, -7, 7]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.array([]), 4)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(4), 1)

    def test_shape_preserved(self):
        theta = seeded_rng(1).standard_normal((3, 5, 2))
        assert dequantize(quantize(theta, 3)).shape == (3, 5, 2)


class TestFakeQuantize:
    def test_forward_matches_array_version(self):
        x = seeded_rng(2).standard_normal((4, 4))
        out = fake_quantize(Tensor(x), 3)
        np.testing.assert_array_equal(out.data, fake_quantize_array(x, 3))

    def test_straight_through_gradient(self):
        x = Tensor(seeded_rng(3).standard_normal(6), requires_grad=True)
        w = seeded_rng(4).standard_normal(6)
        sum_(fake_quantize(x, 2) * Tensor(w)).backward()
        # the rounding is treated as identity: grad passes through untouched
        np.testing.assert_array_equal(x.grad, w)

    def test_no_graph_without_requires_grad(self):
        out = fake_quantize(Tensor(np.zeros(3)), 4)
        assert not out.requires_grad

    def test_quantization_coarsens_with_fewer_bits(self):
        x = seeded_rng(5).standard_normal(512)
        err2 = np.abs(fake_quantize_array(x, 2) - x).mean()
        err8 = np.abs(fake_quantize_array(x, 8) - x).mean()
        assert err8 < err2


def _reference(theta, bits):
    return dequantize(quantize(theta, bits))


def _same_bits(a, b):
    """Equal shape, dtype and bytes: signed zeros and NaNs count."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlockedFakeQuantize:
    """fake_quantize_array runs the reference round trip block by block;
    its result must be the reference's, bit for bit."""

    @pytest.mark.parametrize("bits", range(2, 9))
    @pytest.mark.parametrize("shape", [(512, 512), (300, 512), (16, 64), (1,),
                                       (BLOCK,), (BLOCK - 1,), (BLOCK + 1,)])
    def test_random_arrays_match_the_reference(self, bits, shape):
        rng = seeded_rng(100 * bits + len(shape))
        for theta in (rng.standard_normal(shape),
                      rng.uniform(-1e-3, 5e-3, shape),
                      np.round(rng.standard_normal(shape) * 4) / 8):
            assert _same_bits(fake_quantize_array(theta, bits),
                              _reference(theta, bits))

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_exact_ties_match_the_reference(self, bits):
        # range [0, 2^bits - 1] gives unit steps: every half-integer scales
        # to an exact .5 tie, on both sides of code 0
        theta = np.arange(2 * (2 ** bits - 1) + 1) / 2.0
        out = fake_quantize_array(theta, bits)
        assert _same_bits(out, _reference(theta, bits))
        assert out[1] == 0.0 and out[-2] == 2 ** bits - 1  # away from zero

    @pytest.mark.parametrize("theta", [
        np.full((3, 3), 2.5), np.full((512, 512), -1.0), np.array([-0.0, 0.0]),
        np.array([-0.0, 0.0, 1.0, -1.0]), np.array([0.0, -0.0, 3.0]),
        np.array([7.0])], ids=lambda t: f"{t.size}:{t.flat[0]!r}")
    @pytest.mark.parametrize("bits", [2, 3, 8])
    def test_constants_and_signed_zeros_match_the_reference(self, theta, bits):
        assert _same_bits(fake_quantize_array(theta, bits),
                          _reference(theta, bits))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN to int64
    @pytest.mark.parametrize("values", [
        [1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [-np.inf, 0.0, 1.0],
        [np.inf, np.inf], [-np.inf, np.inf], [np.nan], [-1e308, 1e308]])
    def test_non_finite_ranges_take_the_reference_path(self, values,
                                                       monkeypatch):
        calls = []

        def spy(theta, bits):
            calls.append(bits)
            return quantize(theta, bits)

        monkeypatch.setattr(quant, "quantize", spy)
        big = seeded_rng(9).standard_normal((512, 512))
        big.reshape(-1)[::100_003][:len(values)] = values
        for theta in (np.array(values), big):
            assert _same_bits(fake_quantize_array(theta, 3),
                              _reference(theta, 3))
        assert calls == [3, 3]

    def test_an_overflowing_scale_is_clipped_into_the_range(self):
        """At a range of 2e306, (theta - t_min) * (2^bits - 1) overflows to
        inf above the bottom; the clip to the top code keeps every output
        inside [t_min, t_max]."""
        theta = np.array([-1e306, 0.0, 1e306])
        with np.errstate(over="ignore"):
            out = fake_quantize_array(theta, 8)
        assert np.all((out >= theta[0]) & (out <= theta[-1]))

    def test_finite_ranges_skip_the_reference_path(self, monkeypatch):
        monkeypatch.setattr(quant, "quantize", None)  # any call would raise
        fake_quantize_array(seeded_rng(10).standard_normal((300, 512)), 3)

    def test_non_contiguous_and_integer_inputs(self):
        theta = seeded_rng(11).standard_normal((200, 300))
        for view in (theta.T, theta[::3, 1::2]):
            assert _same_bits(fake_quantize_array(view, 4), _reference(view, 4))
        codes = np.arange(-50, 50)
        assert _same_bits(fake_quantize_array(codes, 5), _reference(codes, 5))

    def test_empty_and_bad_bits_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fake_quantize_array(np.array([]), 4)
        with pytest.raises(ValueError, match="bits"):
            fake_quantize_array(np.zeros(4), 9)

    def test_wide_weight_allocates_one_result(self):
        theta = seeded_rng(12).standard_normal((512, 512))
        tracemalloc.start()
        try:
            out = fake_quantize_array(theta, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * theta.nbytes  # the 2 MB result and a block
        assert _same_bits(out, _reference(theta, 3))
