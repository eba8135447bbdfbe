"""Minimal dense-tensor reverse-mode autodiff engine.

Everything is float64, row-major, CPU-only. Elementwise binary ops
follow NumPy broadcasting, and operands that do not broadcast raise
ShapeMismatchError.

Gradients are routed by two rules. A node with one path into each input
is built by `Tensor._node`, whose backward is the only generic one: each
parent that requires a gradient, in parent order, receives its gradient
sum-reduced to its own shape. A node with several paths into one input
(batch norm here, entropy in adapt) calls `_accumulate` once per path, in
the order a sweep over the primitive ops would: float addition does not
associate, so summing the paths first changes the bits.

Batch norm, softmax, and (in nets and adapt) label cross-entropy and
entropy are each one tape node with the bits of the primitive ops they
replace: the forward runs those ops in their order, and the backward
computes what the primitives' sweep would send along each path.

`_node` hands a fresh first gradient to its parent instead of copying
it. An optimizer packs its parameters into one flat buffer that each
`.data` views, with its state in the same layout. A step runs the
per-parameter in-place update, in its order, over blocks of at most BLOCK
elements through three scratch rows: the same bits, and no player-sized
temporary. It packs again if a rebinding or a deepcopy broke a view.
"""

from __future__ import annotations

import contextlib
from itertools import accumulate, groupby

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform for the requested operation."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


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
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _result(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def _node(data, parents, *grads) -> "Tensor":
        """A node whose backward sends grads[i](out.grad), sum-reduced to
        its shape, into each parents[i] that requires a gradient, in order.

        A grad function returns a fresh array or a view, never an array it
        keeps, so a fresh one can become the parent's first gradient."""
        def backward(out):
            for p, grad in zip(parents, grads):
                if p.requires_grad:
                    g = _unbroadcast(grad(out.grad), p.shape)
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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A fresh array, never `g` itself: `a + b` hands the same
            # out.grad to both parents. Adding 0.0 maps -0.0 to +0.0, so
            # the stored values are bitwise those of zeros + g.
            self.grad = g + 0.0
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

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

    def __neg__(self):
        return self._node(-self.data, (self,), lambda g: -g)

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

    def __truediv__(self, other):
        other = self._coerce(other)
        if np.any(other.data == 0.0):
            raise ZeroDivisionError("div: divisor tensor contains zero")
        return self._node(self._broadcast(np.divide, self.data, other.data),
                          (self, other), lambda g: g / other.data,
                          lambda g: -g * self.data / (other.data * other.data))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

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
        return self.clip_min(0.0)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return self._node(out_data, (self,), lambda g: g * out_data)

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise ValueError("log: input must be strictly positive")
        return self._node(np.log(self.data), (self,), lambda g: g / self.data)

    def sqrt(self) -> "Tensor":
        if np.any(self.data < 0.0):
            raise ValueError("sqrt: input must be non-negative")
        out_data = np.sqrt(self.data)
        return self._node(out_data, (self,), lambda g: g * 0.5 / out_data)

    def clip_min(self, floor: float) -> "Tensor":
        """Elementwise max(self, floor); gradient is zero on the clipped set."""
        mask = self.data > floor
        return self._node(np.where(mask, self.data, floor), (self,),
                          lambda g: g * mask)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._node(self.data.reshape(shape), (self,),
                          lambda g: g.reshape(self.shape))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def grad(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.shape)

        return self._node(self.data.sum(axis=axis, keepdims=keepdims), (self,), grad)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Leaf gradients accumulate across calls until an optimizer step
        consumes them: `AdamState.step` and `SgdNesterovState.step` set
        each parameter's `.grad` back to None.
        """
        if self.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)
        # interior grads are scratch space; keep only leaves
        for node in topo:
            if node._backward is not None:
                node.grad = None
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


def softmax(z: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Row-wise softmax with max-subtraction; temperature divides the logits.

    The per-row max is a stop-gradient constant, which is exact because
    softmax is invariant under per-row shifts. One tape node.
    """
    if temperature <= 0.0:
        raise ValueError(f"softmax: temperature must be positive, got {temperature}")
    inv_t = 1.0 / temperature
    t = z.data * inv_t
    e = np.exp(t - t.max(axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True)
    if np.any(s == 0.0):
        raise ZeroDivisionError("div: divisor tensor contains zero")

    def grad(g):
        ge = g / s
        ge += (-g * e / (s * s)).sum(axis=axis, keepdims=True)
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
            var_eps = var + self.EPS
            if np.any(var_eps < 0.0):
                raise ValueError("sqrt: input must be non-negative")
            std = np.sqrt(var_eps)
        elif mode == "eval":
            d = Tensor._broadcast(np.subtract, x.data, self.running_mean)
            std = np.sqrt(self.running_var + self.EPS)
        else:
            raise ValueError(f"batch_norm: unknown mode {mode!r}")
        if np.any(std == 0.0):
            raise ZeroDivisionError("div: divisor tensor contains zero")
        xhat = Tensor._broadcast(np.divide, d, std)
        scaled = Tensor._broadcast(np.multiply, xhat, gamma.data)

        # by hand: x-hat and the batch statistics send several paths into x
        def backward(out):
            g = out.grad
            if beta.requires_grad:
                beta._accumulate(_unbroadcast(g, beta.shape))
            if gamma.requires_grad:
                gamma._accumulate(_unbroadcast(g * xhat, gamma.shape))
            if not x.requires_grad:
                return
            g_xhat = g * gamma.data
            g_d = g_xhat / std
            x._accumulate(_unbroadcast(g_d, x.shape))
            if mode == "eval":
                return
            # The paths through the batch statistics reach x and the mean in
            # the sweep's order: x - mu of x-hat (above), the variance's two
            # x - mu, then (x only) the mean's sum.
            g_var = _unbroadcast(-g_xhat * d / (std * std), std.shape) * 0.5 / std
            g_sq = g_var * inv_n * d
            g_mu = _unbroadcast(-g_d, mu.shape)
            g_mu_sq = _unbroadcast(-g_sq, mu.shape)
            for _ in range(2):
                x._accumulate(g_sq)
                g_mu += g_mu_sq
            x._accumulate(np.broadcast_to(g_mu * inv_n, x.shape))

        return Tensor._result(Tensor._broadcast(np.add, scaled, beta.data),
                              (x, gamma, beta), backward)


# -- optimizers -----------------------------------------------------------------


BLOCK = 16384  # buffer elements an optimizer step updates at a time


class _Packed:
    """An optimizer's parameters packed into one buffer, stepped in blocks
    through three scratch rows (see the module docstring)."""

    def __init__(self, params: list[Tensor]):
        self.params = params
        self._buf = np.empty(sum(t.size for t in params))
        self._pack()

    def _pack(self) -> None:
        """Copy the parameters into the buffer, which each `.data` then views."""
        for t, view in zip(self.params, self._views(self._buf)):
            view[...] = t.data
            t.data = view
        self._tmp = np.empty((3, min(BLOCK, self._buf.size)))

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a flat array in the packed layout."""
        ends = accumulate(t.size for t in self.params)
        return [flat[e - t.size:e].reshape(t.shape) for t, e in zip(self.params, ends)]

    def _blocks(self, op: str, missing_is_zero: bool = False):
        """Spend the gradients; per block of the parameters that have one (or
        all, reading a missing one as zeros), yield its slice of the buffer,
        its gradient gathered into a scratch row, and the two other rows."""
        for t in self.params:
            if t.grad is not None and t.grad.shape != t.shape:
                raise ShapeMismatchError(
                    f"{op}: grad shape {t.grad.shape} != param shape {t.shape}")
        grads = [np.broadcast_to(0.0, t.shape) if t.grad is None and missing_is_zero
                 else t.grad for t in self.params]
        for t in self.params:
            t.grad = None  # spent; no gradient outlives its step
        if any(t.data.base is not self._buf for t in self.params):
            self._pack()  # a rebinding or a deepcopy broke a view
        lo = 0  # where the run of parameters starts in the buffer
        for skip, run in groupby(zip(self.params, grads), lambda tg: tg[1] is None):
            flats = [(t.data if skip else g).reshape(-1) for t, g in run]
            starts = list(accumulate((f.size for f in flats), initial=0))
            for b in range(0, 0 if skip else starts[-1], BLOCK):
                e = min(b + BLOCK, starts[-1])
                g, a, c = self._tmp[:, :e - b]
                np.concatenate([f[max(b - s, 0):e - s] for f, s in zip(flats, starts)
                                if s < e and s + f.size > b], out=g)
                yield slice(lo + b, lo + e), g, a, c
            lo += starts[-1]


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

    m = property(lambda self: self._views(self._m))
    v = property(lambda self: self._views(self._v))

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

    def __init__(self, params: list[Tensor], lr: float,
                 momentum: float = 0.9, weight_decay: float = 1e-4):
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(self._buf)

    velocity = property(lambda self: self._views(self._velocity))

    def step(self) -> None:
        mu = self.momentum
        for s, g, d, a in self._blocks("sgd_nesterov_step", missing_is_zero=True):
            # In place, with the operations and their order of
            # d = wd*p + g; vel = mu*vel + d; d = d + mu*vel; p -= lr*d.
            p = self._buf[s]
            np.multiply(p, self.weight_decay, out=d)
            d += g
            if mu != 0.0:
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
