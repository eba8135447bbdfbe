"""Tests for the autodiff engine: primitives, broadcasting, batch norm,
optimizers, and the rng helpers."""

import copy
import operator

import numpy as np
import pytest

from dfqgame.engine import (
    BLOCK,
    AdamState,
    BatchNorm,
    SgdNesterovState,
    ShapeMismatchError,
    Tensor,
    _unbroadcast,
    gaussian,
    seeded_rng,
    softmax,
)


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.flat[i] = h
        g.flat[i] = (f(x + bump) - f(x - bump)) / (2 * h)
    return g


BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def check_unary(op, x, f_np, h=1e-6, tol=1e-6):
    t = Tensor(x, requires_grad=True)
    out = op(t).sum()
    out.backward()
    expected = numeric_grad(lambda a: f_np(a).sum(), x, h)
    np.testing.assert_allclose(t.grad, expected, rtol=tol, atol=tol)


class TestArithmetic:
    def test_add_forward(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        np.testing.assert_array_equal((a + b).data, [4.0, 6.0])

    def test_scalar_coercion(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((a + 1.0).data, [2.0, 3.0])
        np.testing.assert_array_equal((2.0 * a).data, [2.0, 4.0])
        np.testing.assert_array_equal((1.0 - a).data, [0.0, -1.0])
        np.testing.assert_array_equal((2.0 / a).data, [2.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])

    def test_div_backward(self):
        rng = seeded_rng(0)
        x = rng.uniform(0.5, 2.0, (3, 4))
        y = rng.uniform(0.5, 2.0, (3, 4))
        a = Tensor(x, requires_grad=True)
        b = Tensor(y, requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / y)
        np.testing.assert_allclose(b.grad, -x / y**2)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Tensor([1.0]) / Tensor([0.0])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_array_equal(a.grad, [-1.0, -1.0])

    def test_shape_mismatch_raises(self):
        for op in BINARY_OPS:
            with pytest.raises(ShapeMismatchError, match="do not conform"):
                op(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
            with pytest.raises(ShapeMismatchError):  # a trailing axis that differs
                op(Tensor(np.ones((3, 4))), Tensor(np.ones(3)))

    def test_non_suffix_broadcast_works(self):
        # (3, 1) op (1, 4): neither shape ends the other, NumPy broadcasts
        x, y = np.arange(1.0, 4.0).reshape(3, 1), np.arange(1.0, 5.0).reshape(1, 4)
        for op in BINARY_OPS:
            a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
            out = op(a, b)
            np.testing.assert_array_equal(out.data, op(x, y))
            out.sum().backward()
            assert a.grad.shape == (3, 1) and b.grad.shape == (1, 4)

    def test_broadcast_row_vector(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.tile(np.arange(4.0), (3, 1)))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])

    def test_broadcast_keepdims_column(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        s = a.sum(axis=1, keepdims=True)
        (a / s).sum().backward()
        # d/da of sum(a / rowsum) with a == 1: each row contributes zero
        np.testing.assert_allclose(a.grad, np.zeros((3, 4)), atol=1e-12)


class TestUnaryOps:
    def test_relu(self):
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        check_unary(lambda t: t.relu(), x, lambda a: np.maximum(a, 0.0))

    def test_exp(self):
        x = seeded_rng(1).uniform(-1, 1, (2, 3))
        check_unary(lambda t: t.exp(), x, np.exp)

    def test_log(self):
        x = seeded_rng(2).uniform(0.5, 3.0, (2, 3))
        check_unary(lambda t: t.log(), x, np.log)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tensor([0.0]).log()

    def test_sqrt(self):
        x = seeded_rng(3).uniform(0.5, 3.0, 5)
        check_unary(lambda t: t.sqrt(), x, np.sqrt)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            Tensor([-1.0]).sqrt()

    def test_clip_min(self):
        x = np.array([-1.0, 0.5, 2.0])
        t = Tensor(x, requires_grad=True)
        out = t.clip_min(0.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.5, 2.0])
        out.sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 1.0])

    def test_reshape_round_trip(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        (t.reshape(2, 3) * 2.0).sum().backward()
        np.testing.assert_array_equal(t.grad, np.full(6, 2.0))


class TestMatmulAndReductions:
    def test_matmul_forward(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_matmul_backward(self):
        rng = seeded_rng(4)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 4)))

    def test_matmul_rejects_bad_dims(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatchError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))

    def test_sum_axis_backward(self):
        t = Tensor(np.ones((3, 4)), requires_grad=True)
        t.sum(axis=0).sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones((3, 4)))

    def test_mean(self):
        t = Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        m = t.mean()
        assert m.item() == pytest.approx(3.5)
        m.backward()
        np.testing.assert_allclose(t.grad, np.full((2, 4), 1 / 8))

    def test_mean_axis(self):
        t = Tensor(np.arange(8.0).reshape(2, 4))
        np.testing.assert_allclose(t.mean(axis=0).data, [2.0, 3.0, 4.0, 5.0])


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_leaf_grads_accumulate_across_calls(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3.0).sum().backward()
        (t * 3.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [6.0, 6.0])
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph(self):
        # z = (x + x) * x must see both paths: dz/dx = 4x
        t = Tensor([3.0], requires_grad=True)
        ((t + t) * t).sum().backward()
        np.testing.assert_allclose(t.grad, [12.0])

    def test_first_gradient_is_not_aliased(self):
        # a + b hands the same out.grad array to both parents, so a later
        # accumulation into a must not show up in b
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        loss = (a + b).sum() + (a * 3.0).sum()
        loss.backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_first_gradient_has_no_negative_zero(self):
        # relu of a negative input passes -1 * False = -0.0 back; the
        # stored gradient is +0.0, as a zero-initialized buffer gives
        t = Tensor([-1.0], requires_grad=True)
        (t.relu() * -1.0).sum().backward()
        assert t.grad[0] == 0.0 and not np.signbit(t.grad[0])

    def test_interior_grads_cleared(self):
        t = Tensor([1.0], requires_grad=True)
        mid = t * 2.0
        mid.sum().backward()
        assert mid.grad is None
        assert t.grad is not None

    def test_detach_blocks_gradient(self):
        t = Tensor([2.0], requires_grad=True)
        (t.detach() * t).sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0])


class TestGradientHandOver:
    """A parent takes over a fresh first gradient instead of copying it,
    and never holds an array that another node or a view shares."""

    @staticmethod
    def _capture(x, grad):
        """A node over x whose grad function records out.grad and its result."""
        seen = {}

        def fn(g):
            seen["upstream"], seen["result"] = g, grad(g)
            return seen["result"]

        return Tensor._node(x.data.copy(), (x,), fn), seen

    @pytest.mark.parametrize("grad", [
        lambda g: g,                                      # out.grad itself
        lambda g: g.reshape(-1).reshape(g.shape),         # a reshape view
        lambda g: np.broadcast_to(g.sum(axis=0), g.shape),  # a broadcast
    ])
    def test_shared_arrays_are_copied(self, grad):
        x = Tensor(seeded_rng(0).standard_normal((3, 4)), requires_grad=True)
        out, seen = self._capture(x, grad)
        (out * Tensor(np.full((3, 4), -2.0))).sum().backward()
        assert not np.shares_memory(x.grad, seen["upstream"])
        assert not np.shares_memory(x.grad, seen["result"])
        assert x.grad.flags.writeable and x.grad.base is None
        assert x.grad.tobytes() == (np.asarray(seen["result"]) + 0.0).tobytes()

    def test_fresh_array_is_taken_over(self):
        x = Tensor([[-1.0, 2.0]], requires_grad=True)
        out, seen = self._capture(x, lambda g: g * 0.0)  # -0.0 where g < 0
        (out * Tensor([[-1.0, 1.0]])).sum().backward()
        assert x.grad is seen["result"]
        assert not np.signbit(x.grad).any()  # as g * 0.0 + 0.0 gives

    def test_fresh_array_added_into_an_existing_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x.grad = np.array([0.5, 0.5])
        prior = x.grad
        out, seen = self._capture(x, lambda g: g * 3.0)
        out.sum().backward()
        assert x.grad is prior and x.grad.tolist() == [3.5, 3.5]
        assert seen["result"].tolist() == [3.0, 3.0]

    def test_matmul_gradient_is_not_copied(self, monkeypatch):
        rng = seeded_rng(1)
        x = Tensor(rng.standard_normal((5, 4)))
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        copied = []
        accumulate = Tensor._accumulate
        monkeypatch.setattr(Tensor, "_accumulate",
                            lambda t, g: (copied.append(t), accumulate(t, g)))
        (x @ w).sum().backward()
        assert w not in copied
        assert w.grad.tobytes() == (x.data.T @ np.ones((5, 3)) + 0.0).tobytes()


# Reference gradients, written as the ops' hand-written backwards wrote
# them: (into the left operand, into the right) as functions of the upstream
# gradient g and the operands' arrays, before the sum-reduction to each
# operand's shape.
BINARY_GRADS = {
    operator.add: (lambda g, a, b: g, lambda g, a, b: g),
    operator.sub: (lambda g, a, b: g, lambda g, a, b: -g),
    operator.mul: (lambda g, a, b: g * b, lambda g, a, b: g * a),
    operator.truediv: (lambda g, a, b: g / b,
                       lambda g, a, b: -g * a / (b * b)),
    operator.matmul: (lambda g, a, b: g @ b.T, lambda g, a, b: a.T @ g),
}

# (op, gradient into x as a function of g, x and the output's array)
UNARY_GRADS = (
    (operator.neg, lambda g, x, out: -g),
    (Tensor.exp, lambda g, x, out: g * out),
    (Tensor.log, lambda g, x, out: g / x),
    (Tensor.sqrt, lambda g, x, out: g * 0.5 / out),
    (lambda t: t.clip_min(0.8), lambda g, x, out: g * (x > 0.8)),
    (lambda t: t.reshape(4, 3), lambda g, x, out: g.reshape(x.shape)),
    (lambda t: t.sum(axis=0),
     lambda g, x, out: np.broadcast_to(np.expand_dims(g, 0), x.shape)),
    (lambda t: t.sum(axis=1, keepdims=True),
     lambda g, x, out: np.broadcast_to(g, x.shape)),
)


class TestRoutingContract:
    """Each single-path node sends its gradient only into the parents that
    require one, sum-reduced to the parent's shape, in parent order: the
    bytes equal those of the hand-written backwards, and a frozen operand's
    gradient stays None."""

    SHAPES = [((3, 4), (4,)), ((3, 1), (1, 4)), ((3, 4), ())]
    FLAGS = [(True, True), (True, False), (False, True), (False, False)]

    @staticmethod
    def _array(rng, shape):
        # away from zero, so a divisor is safe and no product is -0.0
        return rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)

    @staticmethod
    def _sweep(out, rng):
        """Backward from sum(out * w); returns w, the gradient out receives."""
        w = rng.standard_normal(out.shape)
        (out * Tensor(w)).sum().backward()
        return w  # 1.0 * w + 0.0 is w itself

    @staticmethod
    def _expected(leaves, grads, prior=None):
        """What a parent-order sweep leaves in each leaf's .grad, by id."""
        acc = {} if prior is None else {id(leaves[0]): prior.copy()}
        for leaf, g in zip(leaves, grads):
            if leaf.requires_grad:
                g = _unbroadcast(g, leaf.shape)
                acc[id(leaf)] = acc[id(leaf)] + g if id(leaf) in acc else g + 0.0
        return acc

    @staticmethod
    def _assert_grads(leaves, expected):
        for leaf in leaves:
            if leaf.requires_grad:
                assert leaf.grad.tobytes() == expected[id(leaf)].tobytes()
            else:
                assert leaf.grad is None

    def _binary(self, op, shapes, flags, seed):
        rng = seeded_rng(seed)
        a, b = (Tensor(self._array(rng, s), requires_grad=f)
                for s, f in zip(shapes, flags))
        out = op(a, b)
        assert out._parents == ((a, b) if any(flags) else ())  # no node if frozen
        w = self._sweep(out, rng)
        grads = [grad(w, a.data, b.data) for grad in BINARY_GRADS[op]]
        self._assert_grads((a, b), self._expected((a, b), grads))

    @pytest.mark.parametrize("op", BINARY_OPS)
    @pytest.mark.parametrize("shapes", SHAPES)
    @pytest.mark.parametrize("flags", FLAGS)
    def test_broadcast_binary(self, op, shapes, flags):
        self._binary(op, shapes, flags, seed=11)
        self._binary(op, shapes[::-1], flags, seed=12)

    @pytest.mark.parametrize("flags", FLAGS)
    def test_matmul(self, flags):
        self._binary(operator.matmul, ((3, 4), (4, 2)), flags, seed=13)

    @pytest.mark.parametrize("op", BINARY_OPS + (operator.matmul,))
    def test_repeated_operand(self, op):
        # a prior gradient makes the order of the two accumulations visible
        rng = seeded_rng(14)
        a = Tensor(self._array(rng, (3, 3)), requires_grad=True)
        prior = rng.standard_normal((3, 3))
        a.grad = prior.copy()
        w = self._sweep(op(a, a), rng)
        grads = [grad(w, a.data, a.data) for grad in BINARY_GRADS[op]]
        self._assert_grads((a,), self._expected((a, a), grads, prior))

    @pytest.mark.parametrize("op, grad", UNARY_GRADS)
    def test_unary(self, op, grad):
        rng = seeded_rng(15)
        x = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        out = op(x)
        w = self._sweep(out, rng)
        self._assert_grads((x,), self._expected((x,), [grad(w, x.data, out.data)]))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        z = Tensor(seeded_rng(5).standard_normal((6, 9)))
        p = softmax(z).data
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(6), atol=1e-12)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        z = seeded_rng(6).standard_normal((4, 5))
        p1 = softmax(Tensor(z)).data
        p2 = softmax(Tensor(z + 123.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_large_logits_stable(self):
        p = softmax(Tensor([[1000.0, 0.0, -1000.0]])).data
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)

    def test_temperature_flattens(self):
        z = Tensor([[2.0, 0.0, -2.0]])
        hot = softmax(z, temperature=10.0).data
        cold = softmax(z, temperature=0.1).data
        assert hot.max() < cold.max()

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            softmax(Tensor([[1.0, 2.0]]), temperature=0.0)

    def test_gradient_matches_finite_differences(self):
        z0 = seeded_rng(7).standard_normal((3, 4))
        t = Tensor(z0, requires_grad=True)
        w = seeded_rng(8).standard_normal((3, 4))
        (softmax(t) * Tensor(w)).sum().backward()
        expected = numeric_grad(
            lambda z: (softmax(Tensor(z.reshape(3, 4))).data * w).sum(),
            z0.copy())
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        bn = BatchNorm(4)
        x = Tensor(seeded_rng(9).standard_normal((32, 4)) * 3.0 + 5.0)
        out = bn(x, mode="train").data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.var(axis=0), np.ones(4), atol=1e-6)

    def test_running_stats_update(self):
        bn = BatchNorm(2)
        x = Tensor(np.array([[0.0, 10.0], [2.0, 14.0]]))
        bn(x, mode="train")
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * np.array([1.0, 12.0]))
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))

    def test_batch_mode_leaves_running_stats(self):
        bn = BatchNorm(2)
        before = bn.running_mean.copy()
        bn(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])), mode="batch")
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1)
        bn.running_mean = np.array([5.0])
        bn.running_var = np.array([4.0])
        out = bn(Tensor([[7.0]]), mode="eval").data
        assert out[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm(2)(Tensor([[1.0, 2.0]]), mode="train")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm(2)(Tensor(np.zeros((2, 2))), mode="test")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            BatchNorm(3)(Tensor(np.zeros((2, 2))), mode="train")

    def test_affine_params_receive_gradients(self):
        bn = BatchNorm(3)
        x = Tensor(seeded_rng(10).standard_normal((8, 3)))
        bn(x, mode="train").sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None
        np.testing.assert_allclose(bn.beta.grad, np.full(3, 8.0))


class TestOptimizers:
    def test_adam_first_step_magnitude(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamState([w], lr=0.01)
        w.grad = np.array([0.5])
        opt.step()
        # bias-corrected first step moves by exactly lr (up to eps)
        assert abs(1.0 - w.data[0]) == pytest.approx(0.01, rel=1e-6)

    def test_adam_skips_missing_grad(self):
        w = Tensor([1.0], requires_grad=True)
        AdamState([w]).step()
        np.testing.assert_array_equal(w.data, [1.0])

    def test_adam_descends_quadratic(self):
        w = Tensor([5.0], requires_grad=True)
        opt = AdamState([w], lr=0.1)
        for _ in range(200):
            (w * w).sum().backward()
            opt.step()
        assert abs(w.data[0]) < 0.1

    def test_nesterov_zero_momentum_is_sgd(self):
        w = Tensor([2.0], requires_grad=True)
        opt = SgdNesterovState([w], lr=0.1, momentum=0.0, weight_decay=0.0)
        w.grad = np.array([1.0])
        opt.step()
        assert w.data[0] == pytest.approx(1.9)

    def test_nesterov_null_update(self):
        w = Tensor([2.0], requires_grad=True)
        opt = SgdNesterovState([w], lr=0.1, momentum=0.9, weight_decay=0.0)
        w.grad = np.zeros(1)
        opt.step()
        assert w.data[0] == pytest.approx(2.0)

    def test_weight_decay_shrinks_norm(self):
        w = Tensor([2.0, -3.0], requires_grad=True)
        opt = SgdNesterovState([w], lr=0.1, momentum=0.0, weight_decay=0.5)
        w.grad = np.zeros(2)
        before = np.linalg.norm(w.data)
        opt.step()
        assert np.linalg.norm(w.data) < before

    def test_nesterov_two_steps_match_closed_form(self):
        # velocity recursion: v1 = g, step1 = g + mu*v1; v2 = mu*v1 + g,
        # step2 = g + mu*v2 (constant gradient g, no decay)
        w = Tensor([0.0], requires_grad=True)
        opt = SgdNesterovState([w], lr=1.0, momentum=0.5, weight_decay=0.0)
        for _ in range(2):
            w.grad = np.array([1.0])
            opt.step()
        expected = -((1 + 0.5) + (1 + 0.5 * 1.5))
        assert w.data[0] == pytest.approx(expected)

    def test_grad_shape_mismatch_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        w.grad = np.zeros(3)
        with pytest.raises(ShapeMismatchError):
            AdamState([w]).step()
        with pytest.raises(ShapeMismatchError):
            SgdNesterovState([w], lr=0.1).step()


def reference_adam_step(data, m, v, grads, t, lr):
    """AdamState.step written out of place: the reference for its bits."""
    b1, b2, eps = AdamState.BETA1, AdamState.BETA2, AdamState.EPS
    for i, g in enumerate(grads):
        if g is None:
            continue
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        mhat = m[i] / (1 - b1 ** t)
        vhat = v[i] / (1 - b2 ** t)
        data[i] -= lr * mhat / (np.sqrt(vhat) + eps)


def reference_nesterov_step(data, velocity, grads, lr, mu, weight_decay):
    """SgdNesterovState.step written out of place: the reference for its bits."""
    for i, g in enumerate(grads):
        if g is None:
            g = np.zeros_like(data[i])
        d = g + weight_decay * data[i]
        if mu != 0.0:
            velocity[i] = mu * velocity[i] + d
            d = d + mu * velocity[i]
        data[i] -= lr * d


class TestOptimizersMatchReference:
    """The in-place updates give bitwise the values of the out-of-place
    expressions, over several steps and with a missing gradient."""

    STEPS = 6

    @staticmethod
    def _params():
        rng = seeded_rng(5)
        a = rng.standard_normal((40, 30))
        a[0, :5] = -0.0  # a signed zero, where a missing gradient meets it
        return [Tensor(a, requires_grad=True),
                Tensor(rng.standard_normal(30), requires_grad=True)]

    @staticmethod
    def _grads(rng, params, step):
        grads = [rng.standard_normal(t.shape) for t in params]
        if step in (0, 3):
            grads[0] = None
        return grads

    @staticmethod
    def _assert_bitwise(arrays, expected):
        assert [a.tobytes() for a in arrays] == [e.tobytes() for e in expected]

    def test_adam(self):
        params = self._params()
        opt = AdamState(params, lr=0.01)
        data = [t.data.copy() for t in params]
        m = [np.zeros_like(d) for d in data]
        v = [np.zeros_like(d) for d in data]
        rng = seeded_rng(6)
        for step in range(self.STEPS):
            grads = self._grads(rng, params, step)
            for t, g in zip(params, grads):
                t.grad = g
            opt.step()
            reference_adam_step(data, m, v, grads, step + 1, 0.01)
            self._assert_bitwise([t.data for t in params], data)
            self._assert_bitwise(opt.m + opt.v, m + v)

    @pytest.mark.parametrize("mu, weight_decay",
                             [(0.9, 1e-4), (0.0, 1e-4), (0.9, 0.0), (0.0, 0.0)])
    def test_nesterov(self, mu, weight_decay):
        params = self._params()
        opt = SgdNesterovState(params, lr=0.05, momentum=mu,
                               weight_decay=weight_decay)
        data = [t.data.copy() for t in params]
        velocity = [np.zeros_like(d) for d in data]
        rng = seeded_rng(7)
        for step in range(self.STEPS):
            grads = self._grads(rng, params, step)
            for t, g in zip(params, grads):
                t.grad = g
            opt.step()
            reference_nesterov_step(data, velocity, grads, 0.05, mu, weight_decay)
            self._assert_bitwise([t.data for t in params], data)
            self._assert_bitwise(opt.velocity, velocity)


class TestBlockedStepMatchesReference(TestOptimizersMatchReference):
    """The same reference checks over several blocks: a parameter larger
    than one block, and a missing gradient inside a block."""

    @staticmethod
    def _params():
        rng = seeded_rng(8)
        a = rng.standard_normal((300, 200))  # three blocks and a part
        a[0, :5] = -0.0
        shapes = [(7,), (5, 3), (30,), (BLOCK,)]
        assert a.size > BLOCK
        return [Tensor(a, requires_grad=True)] + [
            Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]

    @staticmethod
    def _grads(rng, params, step):
        grads = [rng.standard_normal(t.shape) for t in params]
        if step in (0, 3):
            grads[2] = None  # between (7,) and (30,), in one block
        if step in (1, 3):
            grads[0] = None
        return grads


class TestPackedBuffer:
    """A step leaves an optimizer's parameters as views of one buffer, also
    after a rebinding or a deepcopy broke the views."""

    @staticmethod
    def _params():
        rng = seeded_rng(9)
        return [Tensor(rng.standard_normal(s), requires_grad=True)
                for s in ((4, 3), (3,), ())]

    @pytest.mark.parametrize("make", [
        lambda ps: AdamState(ps, lr=0.1), lambda ps: SgdNesterovState(ps, lr=0.1)])
    def test_a_step_packs_the_parameters_in_order(self, make):
        params = self._params()
        make(params).step()
        base = params[0].data.base
        assert base is not None and base.size == 16
        assert all(t.data.base is base for t in params)
        assert base.tobytes() == b"".join(t.data.tobytes() for t in params)

    @pytest.mark.parametrize("make", [
        lambda ps: AdamState(ps, lr=0.1), lambda ps: SgdNesterovState(ps, lr=0.1)])
    def test_a_rebound_parameter_is_packed_again(self, make):
        params, twin = self._params(), self._params()
        opt, ref = make(params), make(twin)
        opt.step()
        ref.step()
        new = np.full((4, 3), 0.25)
        params[0].data = new
        twin[0].data[...] = new
        for t, u in zip(params, twin):
            t.grad = u.grad = np.ones(t.shape)
        opt.step()
        ref.step()
        assert params[0].data.base is params[1].data.base
        assert [t.data.tobytes() for t in params] == [t.data.tobytes() for t in twin]
        assert new.tolist() == np.full((4, 3), 0.25).tolist()  # not stepped

    @pytest.mark.parametrize("make", [
        lambda ps: AdamState(ps, lr=0.1), lambda ps: SgdNesterovState(ps, lr=0.1)])
    def test_a_shape_mismatch_spends_and_moves_nothing(self, make):
        params = self._params()
        opt = make(params)
        before = [t.data.tobytes() for t in params]
        params[0].grad, params[1].grad = np.ones((4, 3)), np.ones(4)
        with pytest.raises(ShapeMismatchError, match=r"\(4,\) != param shape \(3,\)"):
            opt.step()
        assert params[0].grad is not None
        assert [t.data.tobytes() for t in params] == before

    def test_a_deep_copy_steps_its_own_tensors(self):
        params = self._params()
        opt = AdamState(params, lr=0.1)
        opt.step()
        twin = copy.deepcopy((params, opt))
        before = [t.data.tobytes() for t in params]
        for t in twin[0]:
            t.grad = np.ones(t.shape)
        twin[1].step()
        assert [t.data.tobytes() for t in params] == before
        assert all((t.data < np.frombuffer(b).reshape(t.shape)).all()
                   for t, b in zip(twin[0], before))
        assert all(t.data.base is twin[1].params[0].data.base for t in twin[0])


class TestRng:
    def test_seeded_rng_reproducible(self):
        a = seeded_rng(42).standard_normal(5)
        b = seeded_rng(42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_rng(0).standard_normal(5),
                                  seeded_rng(1).standard_normal(5))

    def test_gaussian_shape(self):
        t = gaussian(seeded_rng(0), (3, 4))
        assert t.shape == (3, 4)
        assert not t.requires_grad
