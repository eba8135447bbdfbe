"""The three players: full-precision classifier P, its quantized copy Q,
and the label-conditioned generator G, plus checkpoint I/O.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .engine import (
    BatchNorm,
    AdamState,
    Tensor,
    ShapeMismatchError,
    _unbroadcast,
    frozen,
    softmax,
)
from .quant import QuantConfig, fake_quantize


class NumericalError(RuntimeError):
    """A loss or forward pass produced a non-finite value."""


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed, truncated, or version-incompatible."""


def check_fields(spec, error=ValueError, at_least=None, above=None) -> None:
    """Raise `error` unless each field of the dataclass `spec` holds what its
    annotation admits: ints in a count (`int` or `tuple[int, ...]`; a bool
    is not a count), a finite real number in a `float` (nor is a bool: its
    config file would not parse) and a string or a path in a `str`. A field
    named in `at_least` (or `above`) must be >= (or >) its bound there,
    every entry of a tuple."""
    rules = ((">=", operator.ge, at_least or {}), (">", operator.gt, above or {}))
    for f in fields(spec):
        value = getattr(spec, f.name)
        entries = value if f.type == "tuple[int, ...]" else (value,)
        if f.type in ("int", "tuple[int, ...]") and (
                not isinstance(entries, tuple) or any(
                    isinstance(v, bool) or not isinstance(v, int) for v in entries)):
            raise error(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and (isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and math.isfinite(value))):
            raise error(f"{f.name} must be a finite number, got {value!r}")
        if f.type == "str" and not isinstance(value, (str, os.PathLike)):
            raise error(f"{f.name} must be a string or a path, got {value!r}")
        for op, holds, bounds in rules:
            if f.name in bounds and not all(holds(v, bounds[f.name]) for v in entries):
                raise error(f"{f.name} must be {op} {bounds[f.name]}, got {value}")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of P (and therefore Q): affine -> BN -> ReLU blocks."""

    input_dim: int = 20
    hidden: tuple[int, ...] = (64, 64)
    class_count: int = 10

    def __post_init__(self):
        # a width of 0 divides by 0
        check_fields(self, at_least={"input_dim": 1, "hidden": 1, "class_count": 2})
        if not self.hidden:
            raise ValueError("architecture needs at least one BN layer")


@dataclass(frozen=True)
class GeneratorSpec:
    """Architecture of G: additive label embedding then BN-ReLU blocks."""

    noise_dim: int = 16
    hidden: tuple[int, ...] = (64, 64)
    output_dim: int = 20
    class_count: int = 10

    def __post_init__(self):
        check_fields(self, at_least=dict.fromkeys(
            ("noise_dim", "hidden", "output_dim", "class_count"), 1))


@dataclass
class BNStatsRecord:
    """Per-BN-layer batch stats of generated samples paired with the
    stats stored in P. Generated stats stay on the graph so the matching
    loss is differentiable."""

    mean_generated: list  # list[Tensor], one per BN layer
    var_generated: list   # list[Tensor]
    mean_stored: list     # list[np.ndarray]
    var_stored: list      # list[np.ndarray]


class Affine:
    def __init__(self, in_dim: int, out_dim: int, rng=None):
        if rng is None:
            w = np.zeros((in_dim, out_dim))
        else:
            w = rng.standard_normal((in_dim, out_dim)) * np.sqrt(2.0 / in_dim)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class _BlockStack:
    """Affine -> BN -> ReLU blocks and an affine head: the body that P, Q
    and G share. Subclasses keep their own `forward`."""

    def __init__(self, spec, in_dim: int, out_dim: int, rng=None):
        self.spec = spec
        self.blocks = []
        prev = in_dim
        for width in spec.hidden:
            self.blocks.append((Affine(prev, width, rng), BatchNorm(width)))
            prev = width
        self.head = Affine(prev, out_dim, rng)

    def parameters(self) -> list[Tensor]:
        out = []
        for aff, bn in self.blocks:
            out += aff.parameters() + bn.parameters()
        return out + self.head.parameters()

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (aff, bn) in enumerate(self.blocks):
            out += [
                (f"block{i}.weight", aff.weight.data),
                (f"block{i}.bias", aff.bias.data),
                (f"block{i}.gamma", bn.gamma.data),
                (f"block{i}.beta", bn.beta.data),
                (f"block{i}.running_mean", bn.running_mean),
                (f"block{i}.running_var", bn.running_var),
            ]
        out += [("head.weight", self.head.weight.data),
                ("head.bias", self.head.bias.data)]
        return out

    def _affine(self, aff: Affine, h: Tensor) -> Tensor:
        return aff(h)

    def _hidden(self, h: Tensor, mode: str, taps=None) -> Tensor:
        """Run the blocks; `taps`, a (means, variances) pair of lists,
        receives the batch statistics of each BN layer's input."""
        for aff, bn in self.blocks:
            h = self._affine(aff, h)
            if taps is not None:
                mu = h.mean(axis=0)
                taps[0].append(mu)
                taps[1].append(batch_variance(h, mu))
            h = bn(h, mode).relu()
        return h


def batch_variance(h: Tensor, mu: Tensor) -> Tensor:
    """((h - mu) * (h - mu)).mean(axis=0), with mu the batch mean of h. One
    tape node on (h, mu)."""
    d = Tensor._broadcast(np.subtract, h.data, mu.data)
    inv_n = 1.0 / d.shape[0]

    # each factor h - mu receives g * inv_n * d and sends a path into h and
    # one into mu: two equal paths into each
    return Tensor._node((d * d).sum(axis=0) * inv_n, (h, mu),
                        lambda g: (_unbroadcast(g * inv_n * d, h.shape),) * 2,
                        lambda g: (_unbroadcast(-(g * inv_n * d), mu.shape),) * 2)


class MLP(_BlockStack):
    """Full-precision classifier P."""

    def __init__(self, spec: NetworkSpec, rng=None):
        super().__init__(spec, spec.input_dim, spec.class_count, rng)

    def forward(self, x: Tensor, mode: str = "eval", collect_bns: bool = False):
        """Logits; with collect_bns, (logits, BNStatsRecord of this batch)."""
        if x.shape[-1] != self.spec.input_dim:
            raise ShapeMismatchError(
                f"input dim {x.shape[-1]} != {self.spec.input_dim}"
            )
        taps = ([], []) if collect_bns else None
        logits = self.head(self._hidden(x, mode, taps))
        if collect_bns:
            return logits, BNStatsRecord(
                *taps, [bn.running_mean.copy() for _, bn in self.blocks],
                [bn.running_var.copy() for _, bn in self.blocks])
        return logits


class QuantizedMLP(_BlockStack):
    """Q: shares P's architecture; weights and activations fake-quantized
    in the forward pass, BN always in eval mode on P's running stats.
    Built from P by `init_q_from_p`.

    Each weight is fake-quantized once and kept until `weights_moved`
    drops the kept copies: whatever writes Q's weights after its first
    forward calls it (in a game, Q's own step; see game.ProbeCache).
    """

    def __init__(self, spec: NetworkSpec, cfg: QuantConfig):
        super().__init__(spec, spec.input_dim, spec.class_count)
        self.cfg = cfg
        self.weights_moved()

    def weights_moved(self) -> None:
        """Drop the kept quantized weights; the next forward requantizes."""
        self._weights_q = {}  # weight Tensor -> its quantized array

    def _fq_weight(self, w: Tensor) -> Tensor:
        """fake_quantize(w), kept until `weights_moved`."""
        out = self._weights_q.get(w)
        if out is None:
            with frozen([w]):  # no graph: the node below is built on every call
                out = fake_quantize(w, self.cfg.bits).data
            out.flags.writeable = False  # shared by every later forward
            self._weights_q[w] = out
        # straight-through, as in fake_quantize
        return Tensor._node(out, (w,), lambda g: g)

    def _affine(self, aff: Affine, h: Tensor) -> Tensor:
        return fake_quantize(h, self.cfg.bits) @ self._fq_weight(aff.weight) + aff.bias

    def forward(self, x: Tensor) -> Tensor:
        """Logits, with batch norm on P's frozen statistics."""
        return self._affine(self.head, self._hidden(x, "eval"))


class Generator(_BlockStack):
    """G: sample x = G(z | y) with an additive learned label embedding."""

    def __init__(self, spec: GeneratorSpec, rng=None):
        if rng is None:
            emb = np.zeros((spec.class_count, spec.noise_dim))
        else:
            emb = rng.standard_normal((spec.class_count, spec.noise_dim))
        self.embedding = Tensor(emb, requires_grad=True)
        super().__init__(spec, spec.noise_dim, spec.output_dim, rng)

    def parameters(self) -> list[Tensor]:
        return [self.embedding] + super().parameters()

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """G runs on batch statistics only, so its running ones are left out."""
        return [("embedding", self.embedding.data)] + [
            (n, a) for n, a in super().named_arrays() if ".running_" not in n]

    def forward(self, z: Tensor, y: Tensor) -> Tensor:
        """Samples, with batch norm on this batch's statistics."""
        if z.shape[-1] != self.spec.noise_dim:
            raise ShapeMismatchError(
                f"noise dim {z.shape[-1]} != {self.spec.noise_dim}"
            )
        _validate_one_hot(y, self.spec.class_count)
        return self.head(self._hidden(z + y @ self.embedding, "batch"))


def _validate_one_hot(y: Tensor, class_count: int) -> None:
    d = y.data
    if d.ndim != 2 or d.shape[1] != class_count:
        raise ShapeMismatchError(
            f"labels must be (batch, {class_count}), got {d.shape}"
        )
    ok = np.all((d == 0.0) | (d == 1.0)) and np.all(d.sum(axis=1) == 1.0)
    if not ok:
        raise ValueError("labels must be one-hot rows")


# -- training / evaluation helpers ------------------------------------------


def one_hot(labels: np.ndarray, class_count: int) -> Tensor:
    out = np.zeros((len(labels), class_count))
    out[np.arange(len(labels)), labels] = 1.0
    return Tensor(out)


def label_cross_entropy(p: Tensor, y_onehot: Tensor) -> Tensor:
    """Mean cross-entropy of probability rows `p`, floored at 1e-12. One
    tape node; the labels are constants. For labels of p's shape the node
    keeps the bits of the primitive tape."""
    y = Tensor._coerce(y_onehot)
    if y.requires_grad:
        raise ValueError("label_cross_entropy: labels must not require a gradient")
    mask = p.data > 1e-12
    c = np.where(mask, p.data, 1e-12)
    log_c = np.log(c)
    prod = Tensor._broadcast(np.multiply, y.data, log_c)
    rows = prod.sum(axis=-1)
    inv_n = 1.0 / rows.size

    def grad(g):
        g = -g * inv_n
        return g * y.data / c * mask

    return Tensor._node(-(rows.sum() * inv_n), (p,), grad)


def cross_entropy(logits: Tensor, y_onehot: Tensor) -> Tensor:
    return label_cross_entropy(softmax(logits), y_onehot)


def accuracy(net, x: np.ndarray, labels: np.ndarray) -> float:
    with frozen(net.parameters()):
        logits = net.forward(Tensor(x))
    pred = logits.data.argmax(axis=1)
    return float((pred == labels).mean())


def pretrain_p(p: MLP, train_x, train_y, test_x, test_y,
               epochs: int = 30, lr: float = 1e-3, batch_size: int = 32,
               rng=None) -> float:
    """Cross-entropy training of P; returns held-out accuracy. A P that
    ends with a non-finite array raises NumericalError."""
    if train_y.min() < 0 or train_y.max() >= p.spec.class_count:
        raise ValueError("labels out of range")
    opt = AdamState(p.parameters(), lr=lr)
    n = len(train_x)
    train_onehot = one_hot(train_y, p.spec.class_count).data  # rows indexed per step
    order_rng = rng if rng is not None else np.random.Generator(np.random.PCG64(0))
    for _ in range(epochs):
        perm = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            if len(idx) < 2:
                continue  # BN train mode needs >= 2 samples
            xb = Tensor(train_x[idx])
            yb = Tensor(train_onehot[idx])
            logits = p.forward(xb, mode="train")
            loss = cross_entropy(logits, yb)
            if not np.isfinite(loss.item()):
                raise NumericalError(f"non-finite pretraining loss: {loss.item()}")
            loss.backward()
            opt.step()
    bad = [name for name, a in p.named_arrays() if not np.isfinite(a).all()]
    if bad:
        raise NumericalError(f"pretraining diverged: non-finite {bad}")
    return accuracy(p, test_x, test_y)


def init_q_from_p(p: MLP, cfg: QuantConfig) -> QuantizedMLP:
    """Quantized copy of P: weights/activations fake-quantized, BN running
    stats copied and frozen, BN affine parameters trainable."""
    q = QuantizedMLP(p.spec, cfg)
    for (_, dst), (_, src) in zip(q.named_arrays(), p.named_arrays()):
        dst[...] = src
    return q


# -- checkpoint container -----------------------------------------------------
#
# Layout: magic "ADSG" | format version u32 LE | header length u64 LE |
# header (UTF-8 JSON: kind, spec, quant bits, array names+shapes) |
# f64 arrays little-endian in header order.

_MAGIC = b"ADSG"
_VERSION = 3


# kind -> (network class, spec class)
_KINDS = {
    "mlp": (MLP, NetworkSpec),
    "quantized_mlp": (QuantizedMLP, NetworkSpec),
    "generator": (Generator, GeneratorSpec),
}


def _header(net) -> dict:
    """The header of `net`'s checkpoint: the one a loaded file must hold."""
    kind = next((k for k, (cls, _) in _KINDS.items() if type(net) is cls), None)
    if kind is None:
        raise TypeError(f"cannot checkpoint {type(net).__name__}")
    return {
        "kind": kind,
        "spec": net.spec.__dict__ | {},
        "quant_bits": net.cfg.bits if kind == "quantized_mlp" else None,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in net.named_arrays()],
    }


def save_checkpoint(net, path) -> None:
    blob = json.dumps(_header(net)).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, a in net.named_arrays():
            f.write(a.astype("<f8").tobytes())


def _value_count(cls, spec) -> int:
    """How many float64 values the arrays of a `cls` network hold: per
    block a weight and five width-sized vectors (bias, gamma, beta and the
    running statistics, which G leaves out), then the head, and G's label
    embedding."""
    gen = cls is Generator
    dims = (spec.noise_dim if gen else spec.input_dim, *spec.hidden,
            spec.output_dim if gen else spec.class_count)
    count = sum(a * b for a, b in zip(dims, dims[1:])) + (3 if gen else 5) * sum(spec.hidden)
    return count + dims[-1] + (spec.class_count * spec.noise_dim if gen else 0)


def load_checkpoint(path):
    """Read a checkpoint. A file is valid only if it holds the header
    `save_checkpoint` writes for the network it names and then exactly that
    network's values; anything else raises CheckpointError."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise CheckpointError("bad magic bytes")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != _VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
        cls, spec_cls = _KINDS[header["kind"]]
        spec = spec_cls(**{**header["spec"], "hidden": tuple(header["spec"]["hidden"])})
        # before the network exists, so an oversized header allocates nothing
        if len(raw) != 16 + hlen + 8 * _value_count(cls, spec):
            raise CheckpointError("file length does not match its header")
        if cls is QuantizedMLP:
            net = cls(spec, QuantConfig(bits=header["quant_bits"]))
        else:
            net = cls(spec)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"corrupt header: {e}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed header: {e!r}") from None
    if json.loads(json.dumps(_header(net))) != header:
        raise CheckpointError("header differs from the one its network is saved with")
    values = np.frombuffer(raw, dtype="<f8", offset=16 + hlen)
    for _, dst in net.named_arrays():
        dst[...] = values[:dst.size].reshape(dst.shape)
        values = values[dst.size:]
    return net
