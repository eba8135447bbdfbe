"""Batch norm, softmax, label cross-entropy, entropy, the mean, the batch
variance and the generator loss's terms and weighted sum are one tape node
each. These tests rebuild each op from the engine's primitive ops (the
reference tape) and require the fused node to give the same output and the
same gradients byte for byte, or to raise the same exception."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfqgame import adapt, engine, game, nets, xp
from dfqgame.adapt import normalize_entropy
from dfqgame.engine import BatchNorm, Tensor, seeded_rng
from dfqgame.game import (HyperParams, draw_batch, generator_loss, init_game,
                          maximization_step, minimization_step)
from dfqgame.nets import Generator, GeneratorSpec, NetworkSpec, init_q_from_p
from dfqgame.quant import QuantConfig
from helpers import without_quantization

# -- the reference tape: the fused ops composed from primitive nodes -------------


def ref_mean(t, axis=None):
    n = t.size if axis is None else t.shape[axis]
    return t.sum(axis=axis) * (1.0 / n)


def ref_batch_variance(h, mu):
    return ref_mean((h - mu) * (h - mu), axis=0)


def ref_loss_bound(h_norm, lambda_l, lambda_u):
    low = (lambda_l - h_norm).relu()
    high = (h_norm - lambda_u).relu()
    return ref_mean(low + high)


def ref_bns_term(mu_g, var_g, mu_s, var_s, stat="variance"):
    d_mu = mu_g - Tensor(mu_s)
    if stat == "variance":
        d_sig = var_g - Tensor(var_s)
    else:
        d_sig = var_g.sqrt() - Tensor(np.sqrt(var_s))
    return (d_mu * d_mu).sum() + (d_sig * d_sig).sum()


def ref_weighted_loss(l_ds, l_as, l_b, l_bns, hp):
    on = {t: 0.0 if t in hp.disable else 1.0 for t in game.LOSS_NAMES}
    return (hp.alpha * (on["L_ds"] * l_ds + on["L_as"] * l_as)
            + hp.beta * on["L_b"] * l_b + hp.gamma * on["L_BNS"] * l_bns)


def ref_softmax(z, temperature=1.0):
    if temperature <= 0.0:
        raise ValueError(f"softmax: temperature must be positive, got {temperature}")
    t = z * (1.0 / temperature)
    shift = Tensor(t.data.max(axis=-1, keepdims=True))
    e = (t - shift).exp()
    return e / e.sum(axis=-1, keepdims=True)


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


def ref_info_entropy(p):
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
SIGNED_NAN = st.sampled_from([math.nan, -math.nan])
# NumPy sums 8 or more contiguous elements pairwise, in another order than
# it sums fewer, so a reordered reduction can pass at the small sizes: each
# property also draws the game's (16, 64) and pretraining's (32, 64) batches
# and their (16, 10) and (32, 10) logits.
REAL = [(16, 64), (32, 64), (16, 10), (32, 10)]


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


def array(draw, shape):
    """matrix() in any shape, 0-d included, with NaNs of either sign: of
    two NaN operands the first one's survives, so the order of an addition
    shows in the bits."""
    rows, cols = shape if len(shape) == 2 else (1, math.prod(shape))
    a = matrix(draw, rows, cols).reshape(shape)
    if draw(FLAG) and draw(FLAG):
        flat = a.reshape(-1)  # a view
        flat[np.random.default_rng(draw(SEED)).integers(a.size)] = draw(SIGNED_NAN)
    return a


def any_leaf(draw, data):
    """leaf() of an array of any shape."""
    flag = draw(FLAG)
    return data, flag, array(draw, data.shape) if flag and draw(FLAG) else None


def weights(draw, shape):
    """upstream(), perhaps with an infinite weight: its gradient meets the
    node's zeros and signs."""
    w = upstream(draw, shape)
    if draw(FLAG):
        w.reshape(-1)[np.random.default_rng(draw(SEED)).integers(w.size)] = draw(SPECIAL)
    return w


# the weight of a scalar node's output in the loss (1e308 overflows a product)
SCALE = st.sampled_from([1.0, -0.0, 0.0, 0.7, -2.5, 1e308, math.inf, -math.inf, math.nan])

# -- properties -------------------------------------------------------------------


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_batch_norm_node_matches_the_reference_tape(data):
    draw = data.draw
    # batch 1 is rejected outside eval mode
    batch, width = draw(st.tuples(st.integers(1, 6), st.integers(1, 5))
                        | st.sampled_from(REAL))
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


def test_batch_norm_negates_each_term_before_the_means_sum():
    """In a constant column the mean's path into x is the one that makes a
    NaN: upstream weights of 1e303 overflow x-hat's path to +inf and -inf,
    whose sum is a NaN that the earlier paths, all finite, do not hide.
    The node negates each term and then sums, as the sweep does, so that
    NaN has the reference tape's sign."""
    x = np.full((4, 1), 0.5)
    w = np.array([[1e303], [-1e303], [1e303], [-1e303]])

    def build(norm):
        def loss(x, gamma, beta):
            bn = BatchNorm(1)
            bn.gamma, bn.beta = gamma, beta
            out = norm(bn, x, "batch")
            return (out * Tensor(w)).sum(), bits(out.data)
        return loss

    leaves = [(x, True, None), (np.ones(1), True, None), (np.zeros(1), True, None)]
    fused = run(build(lambda bn, x, mode: bn(x, mode)), leaves)
    assert np.isnan(np.frombuffer(fused[1][0][1])).all()
    assert fused == run(build(ref_batch_norm), leaves)


def test_batch_norm_negates_each_term_before_the_variances_sum():
    """The variance's paths into x overflow, the mean's sum of them makes
    the NaN: x of magnitude 1e150 and upstream weights of 1e160, signed as
    x - mu, overflow g * d to -inf in every row while g / std stays finite,
    so the variance's gradient is -inf and its path into x is +inf or -inf
    by the sign of x - mu, which the mean's path sums to a NaN. The node
    negates each term and then sums, as the sweep does, so that NaN has the
    reference tape's sign."""
    x = np.array([[1e150], [-1e150], [3e150], [-3e150]])
    w = np.sign(x) * 1e160

    def build(norm):
        def loss(x, gamma, beta):
            bn = BatchNorm(1)
            bn.gamma, bn.beta = gamma, beta
            out = norm(bn, x, "batch")
            return (out * Tensor(w)).sum(), bits(out.data)
        return loss

    leaves = [(x, True, None), (np.ones(1), True, None), (np.zeros(1), True, None)]
    fused = run(build(lambda bn, x, mode: bn(x, mode)), leaves)
    assert np.isnan(np.frombuffer(fused[1][0][1])).all()
    assert fused == run(build(ref_batch_norm), leaves)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_softmax_entropy_and_cross_entropy_nodes_match_the_reference_tape(data):
    """The chain of the generator loss: one softmax output feeds a label
    cross-entropy, then the entropy, normalized as in the game value."""
    draw = data.draw
    batch, classes = draw(st.tuples(st.integers(2, 6), st.integers(1, 5))
                          | st.sampled_from(REAL))
    z = leaf(draw, matrix(draw, batch, classes, saturate=True))
    tau = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 0.0, -1.0]))
    y = np.eye(classes)[np.random.default_rng(draw(SEED)).integers(classes, size=batch)]
    batch_min = draw(st.none() | st.floats(-1.0, 2.0))
    w_ce = draw(st.sampled_from([1.0, -0.0, 0.7]))
    w_h = upstream(draw, (batch,))

    def build(softmax, cross_entropy, entropy):
        def loss(z):
            p = softmax(z, temperature=tau)
            l_ce = cross_entropy(p, Tensor(y))
            h = entropy(p)
            h_norm, _ = normalize_entropy(h, classes, batch_min)
            out = l_ce * w_ce + (h_norm * Tensor(w_h)).sum()
            return out, (bits(p.data), bits(l_ce.data), bits(h.data))
        return loss

    fused = run(build(engine.softmax, nets.label_cross_entropy, adapt.info_entropy), [z])
    assert fused == run(build(ref_softmax, ref_label_cross_entropy, ref_info_entropy), [z])


def test_softmax_negates_each_term_before_the_rows_sum():
    """Upstream weights of +-1e303, scaled by 1e10 after the sum, overflow
    the gradient into p to +inf and -inf in one row, so the row's sum in
    the backward is inf - inf. The node negates each term and then sums,
    as the sweep does, so that NaN has the reference tape's sign."""
    z = np.zeros((2, 3))
    w = np.array([[1e303, -1e303, 0.5], [0.5, 0.25, 1.0]])

    def build(softmax):
        def loss(z):
            p = softmax(z)
            return (p * Tensor(w)).sum() * 1e10, bits(p.data)
        return loss

    fused = run(build(engine.softmax), [(z, True, None)])
    assert np.isnan(np.frombuffer(fused[1][0][1])[:3]).all()
    assert fused == run(build(ref_softmax), [(z, True, None)])


# The shapes that the game's losses meet, and small ones: (16, 64) taps, (64,)
# moments, (16,) normalized entropies and 0-d terms.
SHAPES = st.sampled_from([(16, 64), (32, 10), (64,), (16,), ()]) | st.lists(
    st.integers(1, 5), max_size=3).map(tuple)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mean_node_matches_the_reference_tape(data):
    draw = data.draw
    shape = draw(SHAPES)
    axis = draw(st.sampled_from([None, *range(-len(shape), len(shape))]))
    x = any_leaf(draw, array(draw, shape))
    w = weights(draw, np.zeros(shape).sum(axis=axis).shape)
    w_x = weights(draw, shape)  # a second consumer of x

    def build(mean):
        def loss(x):
            out = mean(x, axis=axis)
            return (out * Tensor(w)).sum() + (x * Tensor(w_x)).sum(), bits(out.data)
        return loss

    assert run(build(Tensor.mean), [x]) == run(build(ref_mean), [x])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_batch_variance_node_matches_the_reference_tape(data):
    draw = data.draw
    batch, width = draw(st.tuples(st.integers(1, 6), st.integers(1, 5))
                        | st.sampled_from(REAL))
    tap = draw(FLAG)  # mu is h's mean tap, as in the players, or a leaf of its own
    mu_width = width + (0 if tap else draw(st.sampled_from([0] * 9 + [1])))
    h = leaf(draw, matrix(draw, batch, width))
    mu = any_leaf(draw, array(draw, (mu_width,)))
    w, w_mu = weights(draw, (width,)), weights(draw, (mu_width,))

    def build(mean, variance):
        def loss(h, mu):
            if tap:
                mu = mean(h, axis=0)
            var = variance(h, mu)
            out = (var * Tensor(w)).sum() + (mu * Tensor(w_mu)).sum()
            return out, (bits(var.data), bits(mu.data))
        return loss

    fused = run(build(Tensor.mean, nets.batch_variance), [h, mu])
    assert fused == run(build(ref_mean, ref_batch_variance), [h, mu])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_loss_bound_node_matches_the_reference_tape(data):
    draw = data.draw
    batch = draw(st.integers(1, 6) | st.sampled_from([16, 64]))
    lambda_l, lambda_u = draw(st.sampled_from([(0.3, 0.8), (0.0, 1.0), (0.5, 0.5)]))
    h = matrix(draw, 1, batch).reshape(batch) * 0.25 + 0.55
    rng = np.random.default_rng(draw(SEED))
    edge = rng.random(batch) < 0.2  # exactly on the band's edges
    h[edge] = rng.choice([lambda_l, lambda_u], edge.sum())
    h = any_leaf(draw, h)
    scale, w_h = draw(SCALE), weights(draw, (batch,))

    def build(bound):
        def loss(h):
            out = bound(h, lambda_l, lambda_u)
            return out * scale + (h * Tensor(w_h)).sum(), bits(out.data)
        return loss

    assert run(build(game.loss_bound), [h]) == run(build(ref_loss_bound), [h])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_bns_term_node_matches_the_reference_tape(data):
    draw = data.draw
    batch, width = draw(st.tuples(st.integers(1, 6), st.integers(1, 5))
                        | st.sampled_from(REAL))
    stat = draw(st.sampled_from(["variance", "std"]))
    tap = draw(FLAG)  # the moments are a batch's taps, as in the players, or leaves
    h = leaf(draw, matrix(draw, batch, width))
    mu_g = any_leaf(draw, array(draw, (width,)))
    var_g = array(draw, (width,))
    var_g = any_leaf(draw, np.abs(var_g) if draw(FLAG) else var_g)  # < 0: no square root
    mismatch = draw(st.sampled_from([None] * 8 + ["mean", "var"]))
    mu_s = array(draw, (width + (mismatch == "mean"),))
    var_s = np.abs(array(draw, (width + (mismatch == "var"),)))
    scale, extra = draw(SCALE), draw(FLAG)
    w_mu, w_var = weights(draw, (width,)), weights(draw, (width,))

    def build(mean, variance, term):
        def loss(h, mu_g, var_g):
            if tap:
                mu_g = mean(h, axis=0)
                var_g = variance(h, mu_g)
            out = term(mu_g, var_g, mu_s, var_s, stat)
            total = out * scale
            if extra:  # other consumers of the moments
                total = total + (mu_g * Tensor(w_mu)).sum() + (var_g * Tensor(w_var)).sum()
            return total, bits(out.data)
        return loss

    leaves = [h, mu_g, var_g]
    fused = run(build(Tensor.mean, nets.batch_variance, game.bns_term), leaves)
    assert fused == run(build(ref_mean, ref_batch_variance, ref_bns_term), leaves)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_weighted_loss_node_matches_the_reference_tape(data):
    draw = data.draw
    weight = st.sampled_from([0.0, 0.1, 1.0, 2.5])
    disable = st.sampled_from(xp.DEFAULT_ABLATION_ROWS) | st.lists(
        st.sampled_from(game.LOSS_NAMES), unique=True).map(tuple)
    hp = HyperParams(alpha=draw(weight), beta=draw(weight), gamma=draw(weight),
                     disable=draw(disable))
    terms = [any_leaf(draw, array(draw, ())) for _ in game.LOSS_NAMES]
    scale = draw(SCALE)

    def build(weighted):
        def loss(*terms):
            out = weighted(*terms, hp)
            return out * scale, bits(out.data)
        return loss

    assert run(build(game.weighted_loss), terms) == run(build(ref_weighted_loss), terms)


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
    monkeypatch.setattr(Tensor, "mean", ref_mean)
    monkeypatch.setattr(nets, "batch_variance", ref_batch_variance)
    monkeypatch.setattr(game, "loss_bound", ref_loss_bound)
    monkeypatch.setattr(game, "bns_term", ref_bns_term)
    monkeypatch.setattr(game, "weighted_loss", ref_weighted_loss)


def player_gradients(cfg, mode, hp=None):
    """Gradients of G's loss (the max step, under `hp`) and of Q's (the min
    step), and of P's cross-entropy in `mode`, all on fixed seeds."""
    p = nets.MLP(SMALL, seeded_rng(3))
    for _ in range(2):  # move the running statistics off their initial values
        p.forward(Tensor(seeded_rng(4).standard_normal((8, 6))), mode="train")
    q = init_q_from_p(p, cfg)
    g = Generator(SMALL_GEN, seeded_rng(11))
    hp = HyperParams() if hp is None else hp
    z, y = draw_batch(seeded_rng(5), 8, 5, 4)
    for t in p.parameters():
        t.requires_grad = False
    with engine.frozen(q.parameters()):
        l_g, _ = generator_loss(g, p, q, z, y, hp)
    l_g.backward()
    x = Tensor(g.forward(z, y).data.copy())
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
    """cfg None: Q's quantizer is a straight-through identity."""
    if cfg is None:
        without_quantization(monkeypatch)
        cfg = QuantConfig(3)
    fused = player_gradients(cfg, mode)
    use_reference_tape(monkeypatch)
    assert fused == player_gradients(cfg, mode)


OBJECTIVES = [HyperParams(bns_stat="std"), HyperParams(alpha=0.7, beta=2.5, gamma=0.3)] + [
    HyperParams(disable=row) for row in xp.DEFAULT_ABLATION_ROWS]


@pytest.mark.parametrize("hp", OBJECTIVES, ids=lambda hp: (
    f"{hp.bns_stat}-{hp.alpha}-{hp.beta}-{hp.gamma}-{'+'.join(hp.disable) or 'all'}"))
def test_the_max_step_gets_the_reference_tapes_gradients_for_any_objective(
        monkeypatch, hp):
    fused = player_gradients(QuantConfig(3), "train", hp)
    use_reference_tape(monkeypatch)
    assert fused == player_gradients(QuantConfig(3), "train", hp)


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
    assert adapt.info_entropy(x)._parents == (x,)
    assert nets.label_cross_entropy(x, Tensor(np.eye(3)[[0, 1, 2, 0]]))._parents == (x,)
    mu = x.mean(axis=0)
    assert mu._parents == x.mean()._parents == (x,)
    var = nets.batch_variance(x, mu)
    assert var._parents == (x, mu)
    for stat in ("variance", "std"):
        assert game.bns_term(mu, var, np.zeros(3), np.ones(3), stat)._parents == (mu, var)
    h = Tensor(np.array([0.1, 0.5, 0.9]), requires_grad=True)
    assert game.loss_bound(h, 0.3, 0.8)._parents == (h,)
    terms = tuple(Tensor(v, requires_grad=True) for v in (1.0, 2.0, 3.0, 4.0))
    assert game.weighted_loss(*terms, HyperParams())._parents == terms


def test_a_game_step_builds_the_pinned_number_of_graph_nodes(monkeypatch):
    """The graph nodes that one max step and one min step build at the
    default shapes, counted as perfbench's tracer counts them at
    `Tensor._result` (a result with parents; `quant.fake_quantize` builds
    its node by hand and is not counted). A change that inflates a step's
    graph fails here, not only in a traced benchmark run."""
    built = []
    result = Tensor._result

    def counted(data, parents, backward):
        out = result(data, parents, backward)
        built.append(bool(out._parents))
        return out

    cfg = xp.default_config()
    p = nets.MLP(cfg.network, seeded_rng(0))
    q = init_q_from_p(p, QuantConfig(cfg.bits))
    state = init_game(p, q, Generator(cfg.generator, seeded_rng(1)), cfg.hp, seeded_rng(2))
    batch = draw_batch(seeded_rng(3), cfg.hp.batch_size, cfg.generator.noise_dim,
                       cfg.generator.class_count)
    monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
    counts = []
    for step in (maximization_step, minimization_step):
        built.clear()
        step(state, *batch)
        counts.append(sum(built))
    assert counts == [50, 20]
