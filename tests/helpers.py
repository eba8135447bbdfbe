"""Test-only helpers built on the package's public pieces: no command or
pipeline reaches them."""

import copy

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


def adaptability_vector(p_ds: Tensor, h: Tensor) -> Tensor:
    """H_C = (p_ds / ||p_ds||_2) * H per row."""
    norm = (p_ds * p_ds).sum(axis=-1, keepdims=True).sqrt()
    return (p_ds / norm) * h.reshape(-1, 1)


def without_quantization(monkeypatch) -> None:
    """Q's fake quantization replaced by a straight-through identity, so Q
    computes P's forward and gradients: for the tests that check what
    surrounds the quantizer."""
    monkeypatch.setattr(nets, "fake_quantize", lambda t, bits: t * 1.0)
