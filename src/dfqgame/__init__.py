"""Data-free quantization as a zero-sum game between a label-conditioned
generator and a quantized network, with entropy-based sample-adaptability
measurement and balance-gap diagnostics."""

__version__ = "0.1.0"
