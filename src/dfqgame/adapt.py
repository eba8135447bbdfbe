"""Sample-adaptability measurement stack.

Disagreement/agreement distributions over the class axis, batch-normalized
entropy, the vector-valued adaptability measure, the balance gap of one
game iteration and its maximization/minimization decomposition, a
first-order (Lipschitz-style) bound diagnostic, and the pairwise-l1
similarity matrix.

Graph-valued functions take and return engine Tensors so losses stay
differentiable; report builders and diagnostics work on plain floats.
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
class AdaptabilityReport:
    """Everything the entropy stack produces for one batch (plain arrays)."""

    p_ds: np.ndarray        # (B, C) disagreement distribution
    p_as: np.ndarray        # (B, C) agreement distribution
    h_info: np.ndarray      # (B,) raw entropy of p_ds
    h_norm: np.ndarray      # (B,) H' in [0, 1]
    h: np.ndarray           # (B,) H = 1 - H'
    h_c: np.ndarray         # (B, C) vector measure
    batch_min: float
    max_const: float        # ln C


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


@dataclass
class LipschitzDiagnostic:
    grad_norm: float        # ||[grad_g R; grad_q R]||_2 at the pre-step point
    param_step_norm: float  # ||[theta_g^2; theta_q^2] - [theta_g^1; theta_q^1]||_2
    bound_product: float
    observed_bg: float      # |BG|


def disagreement_distribution(lp: LogitsPair) -> Tensor:
    """softmax(z_p - z_q) row-wise."""
    return softmax(lp.z_p - lp.z_q, axis=-1)


def agreement_distribution(lp: LogitsPair) -> Tensor:
    """softmax(z_p + z_q) row-wise."""
    return softmax(lp.z_p + lp.z_q, axis=-1)


def info_entropy(p, validate: bool = True) -> Tensor:
    """Row-wise Shannon entropy in nats, with 0 * ln(1/0) taken as 0."""
    if not isinstance(p, Tensor):
        p = Tensor(p)
    if validate:
        rows = p.data
        if np.any(rows < -SIMPLEX_TOL) or np.any(
                np.abs(rows.sum(axis=-1) - 1.0) > SIMPLEX_TOL):
            raise ValueError("info_entropy: rows must lie on the simplex")
    return -(p * p.clip_min(_ENTROPY_FLOOR).log()).sum(axis=-1)


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


def compute_report(lp: LogitsPair) -> AdaptabilityReport:
    p_ds = disagreement_distribution(lp)
    p_as = agreement_distribution(lp)
    h_info = info_entropy(p_ds, validate=False)
    h_norm, batch_min = normalize_entropy(h_info, lp.class_count)
    h = 1.0 - h_norm
    h_c = adaptability_vector(p_ds, h)
    return AdaptabilityReport(
        p_ds=p_ds.data.copy(),
        p_as=p_as.data.copy(),
        h_info=h_info.data.copy(),
        h_norm=h_norm.data.copy(),
        h=h.data.copy(),
        h_c=h_c.data.copy(),
        batch_min=batch_min,
        max_const=math.log(lp.class_count),
    )


def balance_gap(r_before: float, r_mid: float, r_after: float) -> BalanceGapRecord:
    """Assemble the record from the three probe evaluations of one
    iteration; bg = delta_g - delta_q holds by construction."""
    delta_g = r_mid - r_before
    delta_q = r_mid - r_after
    return BalanceGapRecord(
        r_before=r_before, r_mid=r_mid, r_after=r_after,
        bg=r_after - r_before, delta_g=delta_g, delta_q=delta_q,
    )


def lipschitz_diagnostic(record: BalanceGapRecord,
                         grads: list[np.ndarray],
                         steps: list[np.ndarray]) -> LipschitzDiagnostic:
    """First-order bound check: |BG| <= ||grad R|| * ||param step|| up to
    second-order terms. `grads` are the stacked G and Q gradients of the
    game value at the pre-step parameters; `steps` the parameter deltas."""
    grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    step_norm = math.sqrt(sum(float((s * s).sum()) for s in steps))
    return LipschitzDiagnostic(
        grad_norm=grad_norm,
        param_step_norm=step_norm,
        bound_product=grad_norm * step_norm,
        observed_bg=abs(record.bg),
    )


def similarity_matrix(p_ds: np.ndarray) -> np.ndarray:
    """Pairwise l1 distances between disagreement distributions."""
    p_ds = np.asarray(p_ds, dtype=np.float64)
    if p_ds.ndim != 2 or p_ds.shape[0] < 2:
        raise ValueError("similarity_matrix: need a (batch >= 2, C) array")
    diff = np.abs(p_ds[:, None, :] - p_ds[None, :, :]).sum(axis=-1)
    np.fill_diagonal(diff, 0.0)
    return diff
