"""Losses and the alternating maximization/minimization loop.

One iteration = one Adam step on the generator against its composite loss,
then one Nesterov-SGD step on the quantized network against the
calibration loss. The game value is probed on a fixed batch before, between
and after the two steps to produce a balance-gap record per iteration.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import AdamState, SgdNesterovState, Tensor, frozen, gaussian
from .adapt import (
    BalanceGapRecord,
    LogitsPair,
    agreement_distribution,
    balance_gap,
    disagreement_distribution,
    game_value,
    info_entropy,
    normalize_entropy,
)
from .nets import (
    BNStatsRecord,
    Generator,
    MLP,
    Memo,
    NumericalError,
    QuantizedMLP,
    accuracy,
    check_counts,
    label_cross_entropy,
    one_hot,
)

PROBE_BATCH = 64

LOSS_NAMES = ("L_ds", "L_as", "L_b", "L_BNS")


@dataclass
class HyperParams:
    alpha: float = 0.1
    beta: float = 1.0
    gamma: float = 1.0
    lambda_l: float = 0.3
    lambda_u: float = 0.8
    tau: float = 1.0
    lr_g: float = 1e-3
    lr_q: float = 1e-4
    batch_size: int = 16
    epochs: int = 100
    iters_per_epoch: int = 50
    lr_decay_factor: float = 0.1
    lr_decay_period: int = 50  # epochs between Q learning-rate decays
    bns_stat: str = "variance"  # or "std"
    disable: tuple = ()  # the LOSS_NAMES the generator loss leaves out

    def __post_init__(self):
        check_counts(self)
        if isinstance(self.disable, str):  # it would be read letter by letter
            raise ValueError(f"disable must be a tuple of loss names, not {self.disable!r}")
        if not 0.0 <= self.lambda_l < self.lambda_u <= 1.0:
            raise ValueError(
                f"need 0 <= lambda_l < lambda_u <= 1, got "
                f"({self.lambda_l}, {self.lambda_u})")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if not all(math.isfinite(lr) and lr >= 0.0 for lr in (self.lr_g, self.lr_q)):
            raise ValueError(f"learning rates must be finite and >= 0, got "
                             f"lr_g={self.lr_g}, lr_q={self.lr_q}")
        if not (math.isfinite(self.lr_decay_factor) and self.lr_decay_factor >= 0.0):
            raise ValueError(f"lr_decay_factor must be finite and >= 0, got "
                             f"{self.lr_decay_factor}")
        if min(self.epochs, self.iters_per_epoch, self.lr_decay_period) < 0:
            raise ValueError(
                f"loop counts must be >= 0, got epochs={self.epochs}, iters_per_epoch="
                f"{self.iters_per_epoch}, lr_decay_period={self.lr_decay_period}")
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 (batch norm), got {self.batch_size}")
        if not all(math.isfinite(w) and w >= 0.0
                   for w in (self.alpha, self.beta, self.gamma)):
            raise ValueError(f"loss weights must be finite and >= 0, got alpha="
                             f"{self.alpha}, beta={self.beta}, gamma={self.gamma}")
        if self.bns_stat not in ("variance", "std"):
            raise ValueError(f"bns_stat must be variance|std, got {self.bns_stat}")
        unknown = set(self.disable) - set(LOSS_NAMES)
        if unknown:
            raise ValueError(f"unknown loss names: {sorted(unknown)}")
        self.disable = tuple(t for t in LOSS_NAMES if t in self.disable)


@dataclass
class IterationLog:
    epoch: int
    iteration: int
    l_ds: float
    l_as: float
    l_b: float
    l_bns: float
    l_g: float
    l_q: float
    bg: BalanceGapRecord
    mean_h_norm: float
    q_accuracy: float | None = None


@dataclass
class ProbeMemo:
    """The probe's two memos: G's and P's forwards (x, z_p), keyed by G's
    parameters, the probe batch and P's arrays (parameters and BN running
    statistics); and R, keyed by x, z_p and Q's arrays. Q's bit width is
    not a key: it is fixed when Q is built."""

    xz: Memo = field(default_factory=Memo)
    r: Memo = field(default_factory=Memo)


@dataclass
class GameState:
    p: MLP
    q: QuantizedMLP
    g: Generator
    hp: HyperParams
    opt_g: AdamState
    opt_q: SgdNesterovState
    probe_z: Tensor
    probe_y: Tensor
    logs: list[IterationLog] = field(default_factory=list)
    probe_memo: ProbeMemo = field(default_factory=ProbeMemo)


# -- losses -------------------------------------------------------------------


# L_ds and L_as: the label cross-entropy of the disagreement and of the
# agreement distribution, pushing each toward the conditioning label.
loss_ds = loss_as = label_cross_entropy
# Q's calibration loss is the game value at temperature tau.
calibration_loss = game_value


def _logits_pair(z_p: Tensor, z_q: Tensor) -> LogitsPair:
    """LogitsPair of P's and Q's forwards; non-finite logits mean that a
    player diverged, which is a NumericalError."""
    try:
        return LogitsPair(z_p, z_q)
    except ValueError as e:
        raise NumericalError(f"{e}: a player diverged") from None


def loss_bound(h_norm: Tensor, lambda_l: float, lambda_u: float) -> Tensor:
    """Two-sided hinge keeping the normalized entropy inside
    [lambda_l, lambda_u]."""
    low = (lambda_l - h_norm).relu()
    high = (h_norm - lambda_u).relu()
    return (low + high).mean()


def loss_bns(record: BNStatsRecord, stat: str = "variance") -> Tensor:
    """Squared-l2 mismatch between generated-batch BN statistics and the
    statistics stored in P, summed over BN layers. `stat` selects whether
    the spread term compares variances (BN storage convention) or stds."""
    total = None
    for mu_g, var_g, mu_s, var_s in zip(record.mean_generated,
                                        record.var_generated,
                                        record.mean_stored,
                                        record.var_stored):
        d_mu = mu_g - Tensor(mu_s)
        if stat == "variance":
            d_sig = var_g - Tensor(var_s)
        else:
            d_sig = var_g.sqrt() - Tensor(np.sqrt(var_s))
        term = (d_mu * d_mu).sum() + (d_sig * d_sig).sum()
        total = term if total is None else total + term
    return total


def generator_loss(g: Generator, p: MLP, q: QuantizedMLP, z: Tensor, y: Tensor,
                   hp: HyperParams, batch_min: float | None = None):
    """Composite maximization objective; returns (loss, components dict).

    The gradient path reaches only the generator: P's weights are fixed
    and Q's are held out of the graph by the caller during this step.
    """
    x = g.forward(z, y, mode="train")
    z_p, record = p.forward(x, mode="eval", collect_bns=True)
    lp = _logits_pair(z_p, q.forward(x, mode="eval"))
    p_ds = disagreement_distribution(lp)
    p_as = agreement_distribution(lp)
    h_info = info_entropy(p_ds, validate=False)
    h_norm, _ = normalize_entropy(h_info, lp.class_count, batch_min)

    l_ds = loss_ds(p_ds, y)
    l_as = loss_as(p_as, y)
    l_b = loss_bound(h_norm, hp.lambda_l, hp.lambda_u)
    l_bns = loss_bns(record, hp.bns_stat)

    # x * 1.0 and 0.0 + x are exact, so a disabled term only zeroes its own
    # contribution and leaves the others' bits as they are
    on = {t: 0.0 if t in hp.disable else 1.0 for t in LOSS_NAMES}
    l_g = (hp.alpha * (on["L_ds"] * l_ds + on["L_as"] * l_as)
           + hp.beta * on["L_b"] * l_b + hp.gamma * on["L_BNS"] * l_bns)

    components = {
        "l_ds": l_ds.item(), "l_as": l_as.item(),
        "l_b": l_b.item(), "l_bns": l_bns.item(),
        "mean_h_norm": float(h_norm.data.mean()),
    }
    if not math.isfinite(l_g.item()):
        raise NumericalError(f"non-finite generator loss: {components}")
    return l_g, components


# -- probe --------------------------------------------------------------------


def probe_game_value(g: Generator, p: MLP, q: QuantizedMLP,
                     probe_z: Tensor, probe_y: Tensor,
                     memo: ProbeMemo | None = None) -> float:
    """R on the fixed probe batch as a pure function of (theta_g, theta_q):
    G uses batch statistics without touching its running buffers, P and Q
    run in eval mode. Nothing is differentiated, so no graph is built.

    `memo` skips each forward whose inputs hold the values it saw last
    (see ProbeMemo); without a memo every forward runs.
    """
    memo = ProbeMemo() if memo is None else memo

    def xz():
        x = g.forward(probe_z, probe_y, mode="batch")
        return x, p.forward(x, mode="eval")

    with frozen(g.parameters() + p.parameters() + q.parameters()):
        x, z_p = memo.xz.get(
            [t.data for t in g.parameters()] + [probe_z.data, probe_y.data]
            + [a for _, a in p.named_arrays()], xz)
        return memo.r.get(
            [x.data, z_p.data] + [a for _, a in q.named_arrays()],
            lambda: game_value(_logits_pair(z_p, q.forward(x, mode="eval"))).item())


# -- steps ------------------------------------------------------------------


def draw_batch(rng, batch_size: int, noise_dim: int, class_count: int):
    z = gaussian(rng, (batch_size, noise_dim))
    labels = rng.integers(0, class_count, size=batch_size)
    return z, one_hot(labels, class_count)


def maximization_step(state: GameState, z: Tensor, y: Tensor) -> dict:
    """One Adam step on the generator; Q is held bit-identical."""
    with frozen(state.q.parameters()):
        l_g, components = generator_loss(state.g, state.p, state.q, z, y, state.hp)
        l_g.backward()
        state.opt_g.step()
    components["l_g"] = l_g.item()
    return components


def minimization_step(state: GameState, z: Tensor, y: Tensor) -> float:
    """One Nesterov-SGD step on Q against the calibration loss, on a fresh
    batch from the just-updated generator; G is held bit-identical."""
    with frozen(state.g.parameters() + state.p.parameters()):
        x = state.g.forward(z, y, mode="batch")
        z_p = state.p.forward(x, mode="eval")
    z_q = state.q.forward(x, mode="eval")
    l_q = game_value(_logits_pair(z_p, z_q), state.hp.tau)
    if not math.isfinite(l_q.item()):
        raise NumericalError(f"non-finite calibration loss: {l_q.item()}")
    l_q.backward()
    state.opt_q.step()
    return l_q.item()


def init_game(p: MLP, q: QuantizedMLP, g: Generator, hp: HyperParams,
              rng) -> GameState:
    """Freeze P, build optimizers, draw the fixed probe batch."""
    for t in p.parameters():
        t.requires_grad = False
    probe_z, probe_y = draw_batch(rng, PROBE_BATCH, g.spec.noise_dim,
                                  g.spec.class_count)
    return GameState(
        p=p, q=q, g=g, hp=hp,
        opt_g=AdamState(g.parameters(), lr=hp.lr_g),
        opt_q=SgdNesterovState(q.parameters(), lr=hp.lr_q,
                               momentum=0.9, weight_decay=1e-4),
        probe_z=probe_z, probe_y=probe_y,
    )


def play_iteration(state: GameState, max_batch, min_batch,
                   epoch: int = 0, iteration: int = 0) -> IterationLog:
    """One maximization step on `max_batch`, then one minimization step on
    `min_batch`, with the game value probed before, between and after."""
    probe = (state.g, state.p, state.q, state.probe_z, state.probe_y,
             state.probe_memo)
    r_before = probe_game_value(*probe)
    components = maximization_step(state, *max_batch)
    r_mid = probe_game_value(*probe)
    l_q = minimization_step(state, *min_batch)
    r_after = probe_game_value(*probe)
    return IterationLog(epoch=epoch, iteration=iteration, l_q=l_q,
                        bg=balance_gap(r_before, r_mid, r_after), **components)


def run_game(p: MLP, q: QuantizedMLP, g: Generator, hp: HyperParams, rng,
             eval_data=None, eval_period: int = 10) -> GameState:
    """The full alternating loop.

    eval_data: optional (x, labels) held-out arrays; Q accuracy is logged
    every `eval_period` epochs (and on the final iteration). A
    NumericalError names the epoch and iteration it was raised in.
    """
    state = init_game(p, q, g, hp, rng)

    def draw():
        return draw_batch(rng, hp.batch_size, g.spec.noise_dim, g.spec.class_count)

    for epoch in range(hp.epochs):
        if epoch > 0 and hp.lr_decay_period > 0 and epoch % hp.lr_decay_period == 0:
            state.opt_q.lr *= hp.lr_decay_factor
        for it in range(hp.iters_per_epoch):
            try:
                log = play_iteration(state, draw(), draw(), epoch, it)
            except NumericalError as e:
                raise NumericalError(f"epoch {epoch}, iteration {it}: {e}") from None
            last_iter = (epoch == hp.epochs - 1 and it == hp.iters_per_epoch - 1)
            if eval_data is not None and (
                    (it == hp.iters_per_epoch - 1 and epoch % eval_period == 0)
                    or last_iter):
                log.q_accuracy = accuracy(q, eval_data[0], eval_data[1])
            state.logs.append(log)
    return state


def ablation_config(hp: HyperParams, disable) -> HyperParams:
    """`hp` with the named generator-loss terms left out as well."""
    return replace(hp, disable=hp.disable + tuple(disable))


def bg_halving_trial(p: MLP, q: QuantizedMLP, g: Generator, hp: HyperParams,
                     rng, iterations: int = 50):
    """First-order scaling probe: at each iteration, take the normal step
    and, from the same state and batches, a step with both learning rates
    halved; record both balance gaps. Training continues from the full-step
    state, so each pair is a controlled comparison."""
    state = init_game(p, q, g, hp, rng)
    pairs = []
    for _ in range(iterations):
        batches = [draw_batch(rng, hp.batch_size, g.spec.noise_dim,
                              g.spec.class_count) for _ in range(2)]
        half = copy.deepcopy(state)  # the detour writes only into its copy
        half.opt_g.lr /= 2
        half.opt_q.lr /= 2
        bg_half = play_iteration(half, *batches).bg
        pairs.append((play_iteration(state, *batches).bg, bg_half))
    return pairs
