"""Sample-adaptability measurement stack.

Disagreement/agreement distributions over the class axis, batch-normalized
entropy, the vector-valued adaptability measure H_C, the game value, and
the balance gap of one game iteration with its maximization/minimization
decomposition.

Graph-valued functions take and return engine Tensors so losses stay
differentiable; the balance-gap record holds plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Tensor, softmax

# guards ln(p) at p -> 0 while keeping 0 * ln(1/0) == 0 exactly
_ENTROPY_FLOOR = 1e-300
# guards the normalization denominator when a whole batch is aligned
NORM_EPS = 1e-8
SIMPLEX_TOL = 1e-9


@dataclass
class LogitsPair:
    """Logits of P and Q on the same generated batch."""

    z_p: Tensor
    z_q: Tensor

    def __post_init__(self):
        if not isinstance(self.z_p, Tensor):
            self.z_p = Tensor(self.z_p)
        if not isinstance(self.z_q, Tensor):
            self.z_q = Tensor(self.z_q)
        if self.z_p.shape != self.z_q.shape:
            raise ValueError(
                f"logits shapes differ: {self.z_p.shape} vs {self.z_q.shape}")
        if not (np.all(np.isfinite(self.z_p.data))
                and np.all(np.isfinite(self.z_q.data))):
            raise ValueError("logits must be finite")

    @property
    def class_count(self) -> int:
        return self.z_p.shape[-1]


@dataclass
class BalanceGapRecord:
    """Game-value snapshots across one maximization+minimization iteration,
    all evaluated on the same fixed probe batch."""

    r_before: float  # R(theta_g^1, theta_q^1)
    r_mid: float     # R(theta_g^2, theta_q^1)
    r_after: float   # R(theta_g^2, theta_q^2)
    bg: float
    delta_g: float
    delta_q: float


def disagreement_distribution(lp: LogitsPair) -> Tensor:
    """softmax(z_p - z_q) row-wise."""
    return softmax(lp.z_p - lp.z_q, axis=-1)


def agreement_distribution(lp: LogitsPair) -> Tensor:
    """softmax(z_p + z_q) row-wise."""
    return softmax(lp.z_p + lp.z_q, axis=-1)


def info_entropy(p, validate: bool = True) -> Tensor:
    """Row-wise Shannon entropy in nats, with 0 * ln(1/0) taken as 0. One
    tape node."""
    if not isinstance(p, Tensor):
        p = Tensor(p)
    if validate:
        rows = p.data
        if np.any(rows < -SIMPLEX_TOL) or np.any(
                np.abs(rows.sum(axis=-1) - 1.0) > SIMPLEX_TOL):
            raise ValueError("info_entropy: rows must lie on the simplex")
    mask = p.data > _ENTROPY_FLOOR
    c = np.where(mask, p.data, _ENTROPY_FLOOR)
    log_c = np.log(c)

    # by hand: the product and the floor send two paths into p
    def backward(out):
        if p.requires_grad:
            g = np.expand_dims(-out.grad, -1)
            # two paths, two accumulations: the product's, then the floor's
            p._accumulate(g * log_c)
            p._accumulate(g * p.data / c * mask)

    return Tensor._result(-(p.data * log_c).sum(axis=-1), (p,), backward)


def normalize_entropy(h_info: Tensor, class_count: int,
                      batch_min: float | None = None) -> tuple[Tensor, float]:
    """H' = (h - min_batch) / (ln C - min_batch + eps), with the batch
    minimum and ln C treated as stop-gradient constants.

    `batch_min` can be pinned externally (the finite-difference oracle
    freezes it at the unperturbed value).
    """
    if batch_min is None:
        batch_min = float(h_info.data.min())
    denom = math.log(class_count) - batch_min + NORM_EPS
    return (h_info - batch_min) * (1.0 / denom), batch_min


def adaptability_vector(p_ds: Tensor, h: Tensor) -> Tensor:
    """H_C = (p_ds / ||p_ds||_2) * H per row."""
    norm = (p_ds * p_ds).sum(axis=-1, keepdims=True).sqrt()
    return (p_ds / norm) * h.reshape(-1, 1)


def game_value(lp: LogitsPair, tau: float = 1.0,
               batch_min: float | None = None) -> Tensor:
    """Monte-Carlo game value: mean over the batch of 1 - H', with the
    disagreement distribution softened by temperature `tau`. At the
    configured tau this is Q's calibration loss."""
    p_ds = softmax(lp.z_p - lp.z_q, axis=-1, temperature=tau)
    h_info = info_entropy(p_ds, validate=False)
    h_norm, _ = normalize_entropy(h_info, lp.class_count, batch_min)
    return 1.0 - h_norm.mean()


def balance_gap(r_before: float, r_mid: float, r_after: float) -> BalanceGapRecord:
    """Assemble the record from the three probe evaluations of one
    iteration; bg = delta_g - delta_q holds by construction."""
    delta_g = r_mid - r_before
    delta_q = r_mid - r_after
    return BalanceGapRecord(
        r_before=r_before, r_mid=r_mid, r_after=r_after,
        bg=r_after - r_before, delta_g=delta_g, delta_q=delta_q,
    )
