"""Test-only helpers built on the package's public pieces: no command or
pipeline reaches them."""

import copy

import numpy as np

from dfqgame import nets
from dfqgame.engine import Tensor
from dfqgame.game import draw_batch, init_game, play_iteration
from dfqgame.nets import BNStatsRecord, MLP


def collect_generated_bns(p: MLP, x: Tensor) -> BNStatsRecord:
    """Batch stats of each BN layer's input under P's forward on x,
    paired with P's stored running stats."""
    if x.shape[0] < 2:
        raise ValueError("collect_generated_bns: batch size must be >= 2")
    return p.forward(x, mode="eval", collect_bns=True)[1]


def bg_halving_trial(p, q, g, hp, rng, iterations: int = 50):
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


def without_quantization(monkeypatch) -> None:
    """Q's fake quantization replaced by a straight-through identity, so Q
    computes P's forward and gradients: for the tests that check what
    surrounds the quantizer."""
    monkeypatch.setattr(nets, "fake_quantize", lambda t, bits: t * 1.0)


# -- the reference tape ----------------------------------------------------------
# The primitive ops that the fused nodes replace, each one `Tensor._node` with
# its NumPy forward, its gradient and its input check. Composed, they are the
# reference for every fused node's bits; no command runs them.


def neg(t: Tensor) -> Tensor:
    return Tensor._node(-t.data, (t,), lambda g: -g)


def truediv(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    if np.any(b.data == 0.0):
        raise ZeroDivisionError("div: divisor tensor contains zero")
    return Tensor._node(Tensor._broadcast(np.divide, a.data, b.data), (a, b),
                        lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.data)
    return Tensor._node(out, (t,), lambda g: g * out)


def log(t: Tensor) -> Tensor:
    if np.any(t.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    return Tensor._node(np.log(t.data), (t,), lambda g: g / t.data)


def sqrt(t: Tensor) -> Tensor:
    if np.any(t.data < 0.0):
        raise ValueError("sqrt: input must be non-negative")
    out = np.sqrt(t.data)
    return Tensor._node(out, (t,), lambda g: g * 0.5 / out)


def clip_min(t: Tensor, floor: float) -> Tensor:
    """Elementwise max(t, floor); gradient is zero on the clipped set."""
    mask = t.data > floor
    return Tensor._node(np.where(mask, t.data, floor), (t,), lambda g: g * mask)


def reshape(t: Tensor, *shape) -> Tensor:
    return Tensor._node(t.data.reshape(*shape), (t,), lambda g: g.reshape(t.shape))


def sum_(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, t.shape)

    return Tensor._node(t.data.sum(axis=axis, keepdims=keepdims), (t,), grad)


def adaptability_vector(p_ds: Tensor, h: Tensor) -> Tensor:
    """H_C = (p_ds / ||p_ds||_2) * H per row."""
    norm = sqrt(sum_(p_ds * p_ds, axis=-1, keepdims=True))
    return truediv(p_ds, norm) * reshape(h, -1, 1)
