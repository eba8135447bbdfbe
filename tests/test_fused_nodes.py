"""Batch norm, softmax, label cross-entropy and entropy are one tape node
each. These tests rebuild each op from the engine's primitive ops (the
reference tape) and require the fused node to give the same output and the
same gradients byte for byte, or to raise the same exception."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfqgame import adapt, engine, game, nets
from dfqgame.adapt import normalize_entropy
from dfqgame.engine import BatchNorm, Tensor, seeded_rng
from dfqgame.game import HyperParams, draw_batch, generator_loss
from dfqgame.nets import Generator, GeneratorSpec, NetworkSpec, build_p, init_q_from_p
from dfqgame.quant import QuantConfig

# -- the reference tape: the four ops composed from primitive nodes -------------


def ref_softmax(z, axis=-1, temperature=1.0):
    if temperature <= 0.0:
        raise ValueError(f"softmax: temperature must be positive, got {temperature}")
    t = z * (1.0 / temperature)
    shift = Tensor(t.data.max(axis=axis, keepdims=True))
    e = (t - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def ref_batch_norm(bn, x, mode):
    if x.shape[-1] != bn.width:
        raise engine.ShapeMismatchError(
            f"batch_norm: feature dim {x.shape[-1]} != layer width {bn.width}")
    if mode in ("train", "batch"):
        if x.shape[0] < 2:
            raise ValueError("batch_norm: train mode needs batch size >= 2")
        mu = x.mean(axis=0)
        var = ((x - mu) * (x - mu)).mean(axis=0)
        if mode == "train":
            m = bn.MOMENTUM
            bn.running_mean = (1 - m) * bn.running_mean + m * mu.data
            bn.running_var = (1 - m) * bn.running_var + m * var.data
        xhat = (x - mu) / (var + bn.EPS).sqrt()
    elif mode == "eval":
        mu = Tensor(bn.running_mean)
        std = Tensor(np.sqrt(bn.running_var + bn.EPS))
        xhat = (x - mu) / std
    else:
        raise ValueError(f"batch_norm: unknown mode {mode!r}")
    return xhat * bn.gamma + bn.beta


def ref_label_cross_entropy(p, y_onehot):
    return -(y_onehot * p.clip_min(1e-12).log()).sum(axis=-1).mean()


def ref_info_entropy(p, validate=True):
    return -(p * p.clip_min(adapt._ENTROPY_FLOOR).log()).sum(axis=-1)


# -- comparison helpers ----------------------------------------------------------


def bits(a):
    return None if a is None else (a.shape, np.asarray(a).tobytes())


def run(build, leaves):
    """Build a scalar loss from fresh copies of `leaves` (array, requires_grad,
    prior gradient) and sweep it; returns (loss bytes, leaf gradient bytes,
    extra) or the exception it raised."""
    tensors = []
    for data, flag, prior in leaves:
        t = Tensor(data.copy(), requires_grad=flag)
        t.grad = None if prior is None else prior.copy()
        tensors.append(t)
    try:
        with np.errstate(all="ignore"):
            loss, extra = build(*tensors)
            loss.backward()
    except Exception as e:  # compared, type and message, against the reference
        return type(e), str(e)
    return bits(loss.data), [bits(t.grad) for t in tensors], extra


# -- strategies --------------------------------------------------------------------
# Hypothesis draws each choice and a seed; NumPy turns the seed into values.
# Drawing every float through Hypothesis cost seconds per property.

SEED = st.integers(0, 2**32 - 1)
FLAG = st.booleans()
SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan])


def matrix(draw, rows, cols, saturate=False):
    rng = np.random.default_rng(draw(SEED))
    a = rng.standard_normal((rows, cols)) * 2.0
    if draw(FLAG):  # a zero-variance column
        a[:, rng.integers(cols)] = a[0, 0]
    if saturate and draw(FLAG):  # one logit dwarfs the rest of its row
        a[rng.integers(rows), rng.integers(cols)] = 800.0
    if draw(FLAG) and draw(FLAG):
        a[rng.integers(rows), rng.integers(cols)] = draw(SPECIAL)
    return a


def upstream(draw, shape):
    """Weights of the output in the loss, with signed zeros among them."""
    rng = np.random.default_rng(draw(SEED))
    w = rng.standard_normal(shape)
    return np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0], shape), w)


def leaf(draw, data):
    """(data, requires_grad, prior gradient): a prior gradient makes the
    order in which the node's paths reach the leaf visible in its bits."""
    flag = draw(FLAG)
    prior = None
    if flag and draw(FLAG):
        prior = matrix(draw, *data.reshape(-1, data.shape[-1]).shape).reshape(data.shape)
    return data, flag, prior


# -- properties -------------------------------------------------------------------


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_batch_norm_node_matches_the_reference_tape(data):
    draw = data.draw
    batch = draw(st.integers(1, 6))  # 1 is rejected outside eval mode
    width = draw(st.integers(1, 5))
    x_width = width + draw(st.sampled_from([0] * 9 + [1]))  # 1: a width mismatch
    mode = draw(st.sampled_from(["train", "batch", "eval", "test"]))
    x = leaf(draw, matrix(draw, batch, x_width))
    gamma = leaf(draw, matrix(draw, 1, width).reshape(width))
    beta = leaf(draw, matrix(draw, 1, width).reshape(width))
    running_mean = matrix(draw, 1, width).reshape(width)
    running_var = np.abs(matrix(draw, 1, width).reshape(width))
    w = upstream(draw, (batch, width))

    def build(norm):
        def loss(x, gamma, beta):
            bn = BatchNorm(width)
            bn.gamma, bn.beta = gamma, beta
            bn.running_mean, bn.running_var = running_mean.copy(), running_var.copy()
            out = norm(bn, x, mode)
            return (out * Tensor(w)).sum(), (bits(out.data), bits(bn.running_mean),
                                             bits(bn.running_var))
        return loss

    fused = run(build(lambda bn, x, mode: bn(x, mode)), [x, gamma, beta])
    assert fused == run(build(ref_batch_norm), [x, gamma, beta])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_softmax_entropy_and_cross_entropy_nodes_match_the_reference_tape(data):
    """The chain of the generator loss: one softmax output feeds a label
    cross-entropy, then the entropy, normalized as in the game value."""
    draw = data.draw
    batch = draw(st.integers(2, 6))
    classes = draw(st.integers(1, 5))
    z = leaf(draw, matrix(draw, batch, classes, saturate=True))
    tau = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 0.0, -1.0]))
    y = np.eye(classes)[np.random.default_rng(draw(SEED)).integers(classes, size=batch)]
    batch_min = draw(st.none() | st.floats(-1.0, 2.0))
    w_ce = draw(st.sampled_from([1.0, -0.0, 0.7]))
    w_h = upstream(draw, (batch,))

    def build(softmax, cross_entropy, entropy):
        def loss(z):
            p = softmax(z, axis=-1, temperature=tau)
            l_ce = cross_entropy(p, Tensor(y))
            h = entropy(p, validate=False)
            h_norm, _ = normalize_entropy(h, classes, batch_min)
            out = l_ce * w_ce + (h_norm * Tensor(w_h)).sum()
            return out, (bits(p.data), bits(l_ce.data), bits(h.data))
        return loss

    fused = run(build(engine.softmax, nets.label_cross_entropy, adapt.info_entropy), [z])
    assert fused == run(build(ref_softmax, ref_label_cross_entropy, ref_info_entropy), [z])


# -- the nodes inside the players' graphs ------------------------------------------------

SMALL = NetworkSpec(input_dim=6, hidden=(8, 8), class_count=4)
SMALL_GEN = GeneratorSpec(noise_dim=5, hidden=(8, 8), output_dim=6, class_count=4)


def use_reference_tape(monkeypatch):
    monkeypatch.setattr(BatchNorm, "__call__", ref_batch_norm)
    for module in (adapt, nets):
        monkeypatch.setattr(module, "softmax", ref_softmax)
    for module in (adapt, game):
        monkeypatch.setattr(module, "info_entropy", ref_info_entropy)
    for name in ("loss_ds", "loss_as"):
        monkeypatch.setattr(game, name, ref_label_cross_entropy)
    monkeypatch.setattr(nets, "label_cross_entropy", ref_label_cross_entropy)


def player_gradients(cfg, mode):
    """Gradients of G's loss (the max step) and of Q's (the min step), and of
    P's cross-entropy in `mode`, all on fixed seeds."""
    p = build_p(SMALL, seeded_rng(3))
    for _ in range(2):  # move the running statistics off their initial values
        p.forward(Tensor(seeded_rng(4).standard_normal((8, 6))), mode="train")
    q = init_q_from_p(p, cfg)
    g = Generator(SMALL_GEN, seeded_rng(11))
    hp = HyperParams()
    z, y = draw_batch(seeded_rng(5), 8, 5, 4)
    for t in p.parameters():
        t.requires_grad = False
    with engine.frozen(q.parameters()):
        l_g, _ = generator_loss(g, p, q, z, y, hp)
    l_g.backward()
    x = g.forward(z, y, mode="batch").detach()
    l_q = adapt.game_value(adapt.LogitsPair(p.forward(x), q.forward(x)), tau=0.7)
    l_q.backward()
    for t in p.parameters():
        t.requires_grad = True
    l_p = nets.cross_entropy(p.forward(x, mode=mode), y)
    l_p.backward()
    return [bits(l_g.data), bits(l_q.data), bits(l_p.data)] + [
        bits(t.grad) for net in (g, q, p) for t in net.parameters()]


@pytest.mark.parametrize("cfg", [QuantConfig(3), None])
@pytest.mark.parametrize("mode", ["train", "batch", "eval"])
def test_players_get_the_reference_tapes_gradients(monkeypatch, cfg, mode):
    fused = player_gradients(cfg, mode)
    use_reference_tape(monkeypatch)
    assert fused == player_gradients(cfg, mode)


def test_labels_that_require_a_gradient_are_rejected():
    p = engine.softmax(Tensor(np.zeros((2, 3)), requires_grad=True))
    with pytest.raises(ValueError, match="labels must not require a gradient"):
        nets.label_cross_entropy(p, Tensor(np.eye(3)[:2], requires_grad=True))


def test_each_op_is_one_node_on_its_inputs():
    x = Tensor(seeded_rng(0).standard_normal((4, 3)), requires_grad=True)
    bn = BatchNorm(3)
    for mode in ("train", "batch", "eval"):
        assert bn(x, mode)._parents == (x, bn.gamma, bn.beta)
    assert engine.softmax(x, temperature=2.0)._parents == (x,)
    assert adapt.info_entropy(x, validate=False)._parents == (x,)
    assert nets.label_cross_entropy(x, Tensor(np.eye(3)[[0, 1, 2, 0]]))._parents == (x,)
