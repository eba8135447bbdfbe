"""Tests for the symmetric linear quantizer and the straight-through
fake-quantization wrapper."""

import numpy as np
import pytest

from dfqgame.engine import Tensor, seeded_rng
from dfqgame.quant import (
    QuantConfig,
    fake_quantize,
    fake_quantize_array,
    dequantize,
    quantize,
)


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
        (fake_quantize(x, 2) * Tensor(w)).sum().backward()
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
