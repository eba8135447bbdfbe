"""Minimal dense-tensor reverse-mode autodiff engine.

Everything is float64, row-major, CPU-only. Elementwise binary ops
follow NumPy broadcasting, and operands that do not broadcast raise
ShapeMismatchError.

Gradients are routed by one rule. Every node but `quant.fake_quantize`
(see there) is built by `Tensor._node`, whose backward hands each parent
that requires a gradient, in parent order, what its grad function returns
for out.grad. An array is one path, sum-reduced to the parent's shape. A
tuple is several paths into that parent (batch norm here, entropy in
adapt, the batch variance in nets, the hinge bound in game), deposited in
order with one `_accumulate` each, as a sweep over the primitive ops would:
float addition does not associate, so summing the paths first changes the
bits. A tuple's first path has the parent's shape; a later one has it or
broadcasts into it.

Batch norm, softmax, the mean, and elsewhere label cross-entropy and the
batch variance (nets), entropy (adapt), and the generator loss's hinge
bound, BN-statistics terms and weighted sum (game) are each one tape node
with the bits of the primitive ops they replace: the forward runs those
ops in their order, with NumPy ufuncs where two NaNs may meet (a scalar's
own + may swap its operands, and of two NaNs the first one's sign
survives), and the backward computes what the primitives' sweep would
send along each path. Only a zero's sign may differ in between: the first
deposit into a gradient adds 0.0, so no stored gradient holds -0.0, and
adding -0.0 to one changes nothing. No command builds a node of those
primitive ops (division, negation, exp, log, sqrt, a floor, reshape and
sum): they are the tests' reference tape, in `tests/helpers.py`.

`_node` hands a fresh single path to its parent as its first gradient
instead of copying it; a tuple's paths are copied or added. The sweep
sorts the graph depth-first with a marker on the stack in place of
per-node flag tuples, and drops each interior gradient as soon as its
node has run. An optimizer packs its parameters into one flat buffer
that each `.data` views, with its state in the same layout. A step runs
the per-parameter in-place update, in its order, over blocks of at most
BLOCK elements through three scratch rows: the same bits, and no
player-sized temporary. A block inside one gradient reads a view of it;
only a block that spans several is gathered. It packs again if a
rebinding or a deepcopy broke a view.
"""

from __future__ import annotations

import contextlib
from itertools import accumulate

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform for the requested operation."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # collapse leading axes numpy added
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # collapse axes that were broadcast from extent 1
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Dense f64 array with an optional gradient slot and a graph record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _result(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
        return out

    @staticmethod
    def _node(data, parents, *grads) -> "Tensor":
        """A node whose backward sends grads[i](out.grad), sum-reduced to
        its shape, into each parents[i] that requires a gradient, in order;
        a tuple of paths is deposited path by path (see the module docstring).

        A grad function returns fresh arrays or views, never an array it
        keeps, so a fresh single path can become the parent's first gradient."""
        def backward(out):
            for p, grad in zip(parents, grads):
                if p.requires_grad:
                    g = grad(out.grad)
                    if type(g) is tuple:
                        for path in g:
                            p._accumulate(path)
                        continue
                    if g.shape != p.data.shape:
                        g = _unbroadcast(g, p.data.shape)
                    if p.grad is None and g.base is None and g is not out.grad:
                        g += 0.0  # in place, the bits of _accumulate's copy
                        p.grad = g
                    else:
                        p._accumulate(g)

        return Tensor._result(data, parents, backward)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A fresh array, never `g` itself: `a + b` hands the same
            # out.grad to both parents. Adding 0.0 maps -0.0 to +0.0, so
            # the stored values are bitwise those of zeros + g.
            self.grad = g + 0.0
        else:
            self.grad += g

    # -- elementwise arithmetic ------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _broadcast(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """ufunc(a, b); shapes NumPy cannot broadcast raise ShapeMismatchError."""
        try:
            return ufunc(a, b)
        except ValueError:
            raise ShapeMismatchError(
                f"{ufunc.__name__}: shapes {a.shape} and {b.shape} do not conform"
            ) from None

    def __add__(self, other):
        other = self._coerce(other)
        return self._node(self._broadcast(np.add, self.data, other.data),
                          (self, other), lambda g: g, lambda g: g)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._node(self._broadcast(np.subtract, self.data, other.data),
                          (self, other), lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return self._node(self._broadcast(np.multiply, self.data, other.data),
                          (self, other), lambda g: g * other.data,
                          lambda g: g * self.data)

    __rmul__ = __mul__

    # -- linear algebra ---------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeMismatchError(
                f"matmul: expects 2-d operands, got {self.shape} and {other.shape}"
            )
        if self.shape[1] != other.shape[0]:
            raise ShapeMismatchError(
                f"matmul: inner dims differ, {self.shape} vs {other.shape}"
            )
        return self._node(self.data @ other.data, (self, other),
                          lambda g: g @ other.data.T, lambda g: self.data.T @ g)

    def __matmul__(self, other):
        return self.matmul(other)

    # -- nonlinearities ----------------------------------------------------

    def relu(self) -> "Tensor":
        """Elementwise max(self, 0); gradient is zero on the clipped set."""
        mask = self.data > 0.0
        return self._node(np.where(mask, self.data, 0.0), (self,), lambda g: g * mask)

    # -- reductions ----------------------------------------------------------

    def mean(self, axis=None) -> "Tensor":
        """sum(axis) * (1 / n) as one tape node."""
        inv_n = 1.0 / (self.size if axis is None else self.shape[axis])

        def grad(g):
            g = g * inv_n
            if axis is not None:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.shape)

        return self._node(self.data.sum(axis=axis) * inv_n, (self,), grad)

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Leaf gradients accumulate across calls until an optimizer step
        consumes them: `AdamState.step` and `SgdNesterovState.step` set
        each parameter's `.grad` back to None.
        """
        if self.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")

        # depth-first post-order; None on the stack marks that the node
        # below it has had its parents pushed
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[Tensor | None] = [self]
        while stack:
            node = stack.pop()
            if node is None:
                topo.append(stack.pop())
                continue
            if node in seen:
                continue
            seen.add(node)
            stack += (node, None)
            for p in node._parents:
                if p.requires_grad and p not in seen:
                    stack.append(p)

        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)
                node.grad = None  # every consumer has run; interior grads are scratch
        self.grad = None


@contextlib.contextmanager
def frozen(params: list[Tensor]):
    """Hold `params` out of the graph for the duration of the block.

    Every flag is set to False on entry and put back as it was on exit,
    also when the block raises. Forwards run inside build no graph
    nodes unless an input tensor itself requires a gradient.
    """
    params = list(params)
    prev = [t.requires_grad for t in params]
    for t in params:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(params, prev):
            t.requires_grad = flag


# -- functional layer primitives ----------------------------------------------


def softmax(z: Tensor, temperature: float = 1.0) -> Tensor:
    """Softmax over the last axis with max-subtraction; temperature divides
    the logits.

    The per-row max is a stop-gradient constant, which is exact because
    softmax is invariant under per-row shifts. One tape node.
    """
    if temperature <= 0.0:
        raise ValueError(f"softmax: temperature must be positive, got {temperature}")
    inv_t = 1.0 / temperature
    t = z.data * inv_t
    e = np.exp(t - t.max(axis=-1, keepdims=True))
    s = e.sum(axis=-1, keepdims=True)

    def grad(g):
        ge = g / s
        ge += (-g * e / (s * s)).sum(axis=-1, keepdims=True)
        return ge * e * inv_t

    return Tensor._node(e / s, (z,), grad)


class BatchNorm:
    """1-d batch normalization over axis 0 with running statistics.

    Uses population (1/N) variance for both normalization and the running
    buffers, so the stored statistics are directly comparable with batch
    statistics of generated samples. Running stats update with momentum 0.1.
    The normalization epsilon is tiny (1e-12): at desk scale the inputs
    never have near-zero variance, and exactness matters more than guard
    headroom.
    """

    MOMENTUM = 0.1
    EPS = 1e-12

    def __init__(self, width: int):
        self.width = width
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

    def parameters(self) -> list[Tensor]:
        return [self.gamma, self.beta]

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        """mode: 'train' (batch stats, update running), 'batch' (batch
        stats, no update), 'eval' (running stats). One tape node."""
        if x.data.ndim != 2:  # the backward sums over axis 0
            raise ShapeMismatchError(f"batch_norm: expects (batch, width), got {x.shape}")
        if x.shape[-1] != self.width:
            raise ShapeMismatchError(
                f"batch_norm: feature dim {x.shape[-1]} != layer width {self.width}"
            )
        gamma, beta = self.gamma, self.beta
        if mode in ("train", "batch"):
            if x.shape[0] < 2:
                raise ValueError("batch_norm: train mode needs batch size >= 2")
            inv_n = 1.0 / x.shape[0]
            mu = x.data.sum(axis=0) * inv_n
            d = x.data - mu
            var = (d * d).sum(axis=0) * inv_n
            if mode == "train":
                m = self.MOMENTUM
                self.running_mean = (1 - m) * self.running_mean + m * mu
                self.running_var = (1 - m) * self.running_var + m * var
            std = np.sqrt(var + self.EPS)
        elif mode == "eval":
            d = Tensor._broadcast(np.subtract, x.data, self.running_mean)
            std = np.sqrt(self.running_var + self.EPS)
        else:
            raise ValueError(f"batch_norm: unknown mode {mode!r}")
        if np.any(std == 0.0):
            raise ZeroDivisionError("div: divisor tensor contains zero")
        xhat = Tensor._broadcast(np.divide, d, std)
        y = Tensor._broadcast(np.multiply, xhat, gamma.data)
        y += beta.data

        def grad_x(g):
            g_xhat = g * gamma.data
            g_d = g_xhat / std
            if mode == "eval":
                return g_d
            # The batch statistics send more paths into x, in the sweep's
            # order: x - mu of x-hat, the variance's two x - mu, then the
            # mean's sum, which broadcasts over the batch. Each sum negates
            # first, as the sweep does: -(sum) differs from sum(-) in a
            # NaN's sign.
            g_var = (-g_xhat * d / (std * std)).sum(axis=0) * 0.5 / std
            g_sq = g_var * inv_n * d
            g_mu = (-g_d).sum(axis=0)
            g_mu_sq = (-g_sq).sum(axis=0)
            g_mu += g_mu_sq
            g_mu += g_mu_sq
            return g_d, g_sq, g_sq, g_mu * inv_n

        return Tensor._node(y, (x, gamma, beta), grad_x,
                            lambda g: (g * xhat).sum(axis=0), lambda g: g.sum(axis=0))


# -- optimizers -----------------------------------------------------------------


BLOCK = 16384  # buffer elements an optimizer step updates at a time


class _Packed:
    """An optimizer's parameters packed into one buffer, stepped in blocks
    through three scratch rows (see the module docstring)."""

    def __init__(self, params: list[Tensor]):
        self.params = params
        size = sum(t.size for t in params)
        self._tmp = np.empty((3, min(BLOCK, size)))
        self._pack(np.empty(size))

    def _pack(self, buf: np.ndarray) -> None:
        """Copy the parameters into `buf`, which becomes the buffer that
        each `.data` views."""
        for t, view in zip(self.params, self._views(buf)):
            view[...] = t.data
            t.data = view
        self._buf = buf

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a flat array in the packed layout."""
        ends = accumulate(t.size for t in self.params)
        return [flat[e - t.size:e].reshape(t.shape) for t, e in zip(self.params, ends)]

    def _blocks(self, op: str, missing_is_zero: bool = False):
        """Spend the gradients; per block of the parameters that have one (or
        all, reading a missing one as zeros), yield its slice of the buffer,
        its gradient (a view if it lies inside one, else gathered into a
        scratch row) and the two other rows."""
        grads = []
        for t in self.params:
            g = t.grad
            if g is None and missing_is_zero:
                g = np.broadcast_to(0.0, t.data.shape)
            elif g is not None and g.shape != t.data.shape:
                raise ShapeMismatchError(
                    f"{op}: grad shape {g.shape} != param shape {t.shape}")
            grads.append(g)
        for t in self.params:
            t.grad = None  # spent; no gradient outlives its step
        if any(t.data.base is not self._buf for t in self.params):
            self._pack(self._buf)  # a rebinding or a deepcopy broke a view
        tmp = self._tmp

        def block():
            g = parts[0] if len(parts) == 1 else np.concatenate(parts, out=tmp[0, :n])
            return slice(lo, lo + n), g, tmp[1, :n], tmp[2, :n]

        lo, n, parts = 0, 0, []  # the block being filled: start, size, pieces
        for t, g in zip(self.params, grads):
            if g is None:  # a missing gradient ends the block
                if parts:
                    yield block()
                lo, n, parts = lo + n + t.data.size, 0, []
                continue
            f = g.reshape(-1)
            while f.size:
                parts.append(f[:BLOCK - n])
                f = f[BLOCK - n:]
                n += parts[-1].size
                if n == BLOCK:
                    yield block()
                    lo, n, parts = lo + n, 0, []
        if parts:
            yield block()


class AdamState(_Packed):
    """Adam with bias correction; BETA1 = 0.9 matches the momentum convention."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        super().__init__(params)
        self.lr = lr
        self.step_count = 0
        self._m, self._v = np.zeros((2, self._buf.size))

    def step(self) -> None:
        blocks = self._blocks("adam_step")
        self.step_count += 1
        c1 = 1 - self.BETA1 ** self.step_count
        c2 = 1 - self.BETA2 ** self.step_count
        for s, g, a, b in blocks:
            # In place, with the operations and their order of
            # m = B1*m + (1-B1)*g; v = B2*v + (1-B2)*g*g;
            # p -= lr*mhat / (sqrt(vhat) + eps), so the bits are the same.
            m, v = self._m[s], self._v[s]
            m *= self.BETA1
            m += np.multiply(g, 1 - self.BETA1, out=a)
            v *= self.BETA2
            np.multiply(g, 1 - self.BETA2, out=a)
            a *= g
            v += a
            np.divide(m, c1, out=a)
            np.sqrt(np.divide(v, c2, out=b), out=b)
            b += self.EPS
            a *= self.lr
            a /= b
            self._buf[s] -= a


class SgdNesterovState(_Packed):
    """SGD with Nesterov momentum and decoupled-into-gradient weight decay."""

    MOMENTUM = 0.9
    WEIGHT_DECAY = 1e-4

    def __init__(self, params: list[Tensor], lr: float):
        super().__init__(params)
        self.lr = lr
        self._velocity = np.zeros_like(self._buf)

    def step(self) -> None:
        mu = self.MOMENTUM
        for s, g, d, a in self._blocks("sgd_nesterov_step", missing_is_zero=True):
            # In place, with the operations and their order of
            # d = wd*p + g; vel = mu*vel + d; d = d + mu*vel; p -= lr*d.
            p = self._buf[s]
            np.multiply(p, self.WEIGHT_DECAY, out=d)
            d += g
            vel = self._velocity[s]
            vel *= mu
            vel += d
            d += np.multiply(vel, mu, out=a)
            d *= self.lr
            p -= d


# -- rng ---------------------------------------------------------------------


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; same seed reproduces bit-exactly."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape))
