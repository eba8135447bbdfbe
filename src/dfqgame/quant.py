"""Symmetric linear quantizer with min/max range, plus straight-through
fake quantization for training.

Codes live in [-2^(n-1), 2^(n-1)-1]. The range endpoints map exactly:
the tensor minimum to the lowest code and the maximum to the highest.
Ties round half away from zero so results are platform-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BLOCK, Tensor


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


def _checked_range(theta, bits: int):
    """theta as float64, with its min and max."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size == 0:
        raise ValueError("quantize: empty tensor")
    if not 2 <= bits <= 8:
        raise ValueError(f"quantize: bits must be in [2, 8], got {bits}")
    return theta, float(theta.min()), float(theta.max())


def quantize(theta: np.ndarray, bits: int) -> QuantizedTensor:
    """Map values to integer codes over the tensor's own min/max range.

    A constant tensor (degenerate range) maps to all-zero codes and
    dequantizes back to that constant.
    """
    theta, t_min, t_max = _checked_range(theta, bits)
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
    """Forward of the quantize -> dequantize round trip on raw arrays.

    Runs `quantize`'s and `dequantize`'s operations, in their order, into
    the one result array, BLOCK elements at a time through a block-sized
    scratch for the sign: for a C-contiguous float64 theta it allocates
    no other array of theta's size. The int64 codes are skipped: a float
    code in [lo, hi] is an integer, so the round trip through int64 was
    exact. A non-finite or zero range takes `dequantize(quantize(theta))`,
    which fixes how NaN and inf pass.
    """
    theta, t_min, t_max = _checked_range(theta, bits)
    span = t_max - t_min
    if not 0.0 < span < math.inf:
        return dequantize(quantize(theta, bits))
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    step = span / (2 ** bits - 1)
    src, out = theta.ravel(), np.empty(theta.shape)
    flat, sign = out.reshape(-1), np.empty(min(BLOCK, theta.size))
    for b in range(0, theta.size, BLOCK):
        x = flat[b:b + BLOCK]
        s = sign[:x.size]
        np.subtract(src[b:b + BLOCK], t_min, out=x)   # quantize: scaled
        np.multiply(x, 2 ** bits - 1, out=x)
        np.divide(x, span, out=x)
        np.add(x, lo, out=x)
        np.sign(x, out=s)                             # round half away
        np.abs(x, out=x)
        np.add(x, 0.5, out=x)
        np.floor(x, out=x)
        np.multiply(s, x, out=x)
        np.clip(x, lo, hi, out=x)
        np.subtract(x, lo, out=x)                     # dequantize
        np.multiply(x, step, out=x)
        np.add(x, t_min, out=x)
    return out


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
