"""Minimal dense-tensor reverse-mode autodiff engine.

Everything is float64, row-major, CPU-only. Elementwise binary ops
follow NumPy broadcasting, and operands that do not broadcast raise
ShapeMismatchError. Gradients for broadcast operands are sum-reduced back
to the operand's shape.
"""

from __future__ import annotations

import contextlib

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
        out_data = self._broadcast(np.add, self.data, other.data)

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return self._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(out):
            if self.requires_grad:
                self._accumulate(-out.grad)

        return self._result(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self._broadcast(np.subtract, self.data, other.data)

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-out.grad, other.shape))

        return self._result(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self._broadcast(np.multiply, self.data, other.data)

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return self._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if np.any(other.data == 0.0):
            raise ZeroDivisionError("div: divisor tensor contains zero")
        out_data = self._broadcast(np.divide, self.data, other.data)

        def backward(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad:
                g = -out.grad * self.data / (other.data * other.data)
                other._accumulate(_unbroadcast(g, other.shape))

        return self._result(out_data, (self, other), backward)

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
        out_data = self.data @ other.data

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ out.grad)

        return self._result(out_data, (self, other), backward)

    def __matmul__(self, other):
        return self.matmul(other)

    # -- nonlinearities ----------------------------------------------------

    def relu(self) -> "Tensor":
        return self.clip_min(0.0)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad * out_data)

        return self._result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise ValueError("log: input must be strictly positive")

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        return self._result(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        if np.any(self.data < 0.0):
            raise ValueError("sqrt: input must be non-negative")
        out_data = np.sqrt(self.data)

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad * 0.5 / out_data)

        return self._result(out_data, (self,), backward)

    def clip_min(self, floor: float) -> "Tensor":
        """Elementwise max(self, floor); gradient is zero on the clipped set."""
        mask = self.data > floor

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return self._result(np.where(mask, self.data, floor), (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(out):
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        return self._result(out_data, (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out):
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.shape))

        return self._result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Leaf gradients accumulate across calls; clear them explicitly
        between steps.
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
    softmax is invariant under per-row shifts.
    """
    if temperature <= 0.0:
        raise ValueError(f"softmax: temperature must be positive, got {temperature}")
    t = z * (1.0 / temperature)
    shift = Tensor(t.data.max(axis=axis, keepdims=True))
    e = (t - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


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
        stats, no update), 'eval' (running stats)."""
        if x.shape[-1] != self.width:
            raise ShapeMismatchError(
                f"batch_norm: feature dim {x.shape[-1]} != layer width {self.width}"
            )
        if mode in ("train", "batch"):
            if x.shape[0] < 2:
                raise ValueError("batch_norm: train mode needs batch size >= 2")
            mu = x.mean(axis=0)
            var = ((x - mu) * (x - mu)).mean(axis=0)
            if mode == "train":
                m = self.MOMENTUM
                self.running_mean = (1 - m) * self.running_mean + m * mu.data
                self.running_var = (1 - m) * self.running_var + m * var.data
            xhat = (x - mu) / (var + self.EPS).sqrt()
        elif mode == "eval":
            mu = Tensor(self.running_mean)
            std = Tensor(np.sqrt(self.running_var + self.EPS))
            xhat = (x - mu) / std
        else:
            raise ValueError(f"batch_norm: unknown mode {mode!r}")
        return xhat * self.gamma + self.beta


# -- optimizers -----------------------------------------------------------------


class AdamState:
    """Adam with bias correction; BETA1 = 0.9 matches the momentum convention."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"adam_step: grad shape {g.shape} != param shape {p.data.shape}"
                )
            p.grad = None  # spent; no gradient outlives its step
            # In place, with the operations and their order of
            # m = B1*m + (1-B1)*g; v = B2*v + (1-B2)*g*g;
            # p -= lr*mhat / (sqrt(vhat) + eps), so the bits are the same.
            m, v = self.m[i], self.v[i]
            m *= self.BETA1
            m += (1 - self.BETA1) * g
            v *= self.BETA2
            g2 = (1 - self.BETA2) * g
            g2 *= g
            v += g2
            mhat = m / (1 - self.BETA1 ** t)
            denom = v / (1 - self.BETA2 ** t)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            mhat *= self.lr
            mhat /= denom
            p.data -= mhat


class SgdNesterovState:
    """SGD with Nesterov momentum and decoupled-into-gradient weight decay."""

    def __init__(self, params: list[Tensor], lr: float,
                 momentum: float = 0.9, weight_decay: float = 1e-4):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.step_count = 0
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.step_count += 1
        mu = self.momentum
        for i, p in enumerate(self.params):
            g = p.grad
            if g is not None and g.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"sgd_nesterov_step: grad shape {g.shape} != param shape {p.data.shape}"
                )
            p.grad = None  # spent; no gradient outlives its step
            # In place, with the operations and their order of
            # d = g + wd*p; vel = mu*vel + d; d = d + mu*vel; p -= lr*d.
            # A missing gradient is a zero one: adding 0.0 maps -0.0 to
            # +0.0 exactly as adding a zeros array does.
            d = self.weight_decay * p.data
            d += 0.0 if g is None else g
            if mu != 0.0:
                vel = self.velocity[i]
                vel *= mu
                vel += d
                d += mu * vel
            d *= self.lr
            p.data -= d


# -- rng ---------------------------------------------------------------------


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; same seed reproduces bit-exactly."""
    return np.random.Generator(np.random.PCG64(seed))


def gaussian(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape))
