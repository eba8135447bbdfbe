"""Symmetric linear quantizer with min/max range, plus straight-through
fake quantization for training.

Codes live in [-2^(n-1), 2^(n-1)-1]. The range endpoints map exactly:
the tensor minimum to the lowest code and the maximum to the highest.
Ties round half away from zero so results are platform-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor


@dataclass(frozen=True)
class QuantConfig:
    """Quantization settings shared by weights and activations."""

    bits: int

    def __post_init__(self):
        if not (isinstance(self.bits, int) and 2 <= self.bits <= 8):
            raise ValueError(f"bits must be an integer in [2, 8], got {self.bits}")


@dataclass
class QuantizedTensor:
    codes: np.ndarray  # int64
    theta_min: float
    theta_max: float
    bits: int


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(theta: np.ndarray, bits: int) -> QuantizedTensor:
    """Map values to integer codes over the tensor's own min/max range.

    A constant tensor (degenerate range) maps to all-zero codes and
    dequantizes back to that constant.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size == 0:
        raise ValueError("quantize: empty tensor")
    if not 2 <= bits <= 8:
        raise ValueError(f"quantize: bits must be in [2, 8], got {bits}")
    t_min = float(theta.min())
    t_max = float(theta.max())
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    if t_max == t_min:
        codes = np.zeros(theta.shape, dtype=np.int64)
    else:
        scaled = (2 ** bits - 1) * (theta - t_min) / (t_max - t_min) + lo
        codes = _round_half_away(scaled)
        np.clip(codes, lo, hi, out=codes)
        codes = codes.astype(np.int64)
    return QuantizedTensor(codes=codes, theta_min=t_min, theta_max=t_max, bits=bits)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct floats from codes; endpoints are recovered exactly."""
    lo = -(2 ** (q.bits - 1))
    if q.theta_max == q.theta_min:
        return np.full(q.codes.shape, q.theta_min)
    step = (q.theta_max - q.theta_min) / (2 ** q.bits - 1)
    return q.theta_min + (q.codes.astype(np.float64) - lo) * step


def fake_quantize_array(theta: np.ndarray, bits: int) -> np.ndarray:
    """Forward of the quantize -> dequantize round trip on raw arrays."""
    return dequantize(quantize(theta, bits))


def fake_quantize(theta: Tensor, bits: int) -> Tensor:
    """Differentiable quantize -> dequantize with a straight-through
    estimator: the backward pass treats the whole round trip as identity.
    """
    # by hand: perfbench/tracer.py counts this node in its fake_quantize hook
    out = Tensor(fake_quantize_array(theta.data, bits))
    if theta.requires_grad:
        out.requires_grad = True
        out._parents = (theta,)

        def backward(node):
            theta._accumulate(node.grad)

        out._backward = backward
    return out
