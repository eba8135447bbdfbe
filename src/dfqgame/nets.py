"""The three players: full-precision classifier P, its quantized copy Q,
and the label-conditioned generator G, plus checkpoint I/O.
"""

from __future__ import annotations

import json
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


def check_counts(spec, error=ValueError) -> None:
    """Raise `error` unless each field of the dataclass `spec` annotated as
    a count (int, or tuple[int, ...]) holds ints; a bool is not a count."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type in ("int", "tuple[int, ...]") and any(
                isinstance(v, bool) or not isinstance(v, int)
                for v in (value if isinstance(value, tuple) else (value,))):
            raise error(f"{f.name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of P (and therefore Q): affine -> BN -> ReLU blocks."""

    input_dim: int = 20
    hidden: tuple[int, ...] = (64, 64)
    class_count: int = 10
    batch_norm: bool = True

    def __post_init__(self):
        check_counts(self)
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if not self.batch_norm or not self.hidden:
            raise ValueError("architecture needs at least one BN layer")
        if min(self.input_dim, *self.hidden) < 1:  # a width of 0 divides by 0
            raise ValueError(f"input_dim and hidden widths must be >= 1, got "
                             f"{self.input_dim} and {self.hidden}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Architecture of G: additive label embedding then BN-ReLU blocks."""

    noise_dim: int = 16
    hidden: tuple[int, ...] = (64, 64)
    output_dim: int = 20
    class_count: int = 10

    def __post_init__(self):
        check_counts(self)
        if min(self.noise_dim, self.output_dim, self.class_count, *self.hidden) < 1:
            raise ValueError(f"generator dims and widths must be >= 1, got {self}")


@dataclass
class BNStatsRecord:
    """Per-BN-layer batch stats of generated samples paired with the
    stats stored in P. Generated stats stay on the graph so the matching
    loss is differentiable."""

    mean_generated: list  # list[Tensor], one per BN layer
    var_generated: list   # list[Tensor]
    mean_stored: list     # list[np.ndarray]
    var_stored: list      # list[np.ndarray]


class Memo:
    """The value last computed from some arrays, kept while they hold the
    same values. Arrays are written in place (optimizer steps, checkpoint
    loads, finite-difference probes), so neither identity nor a step count
    can tell that an array is unchanged; only its values can."""

    def __init__(self):
        self._key = None  # copies of the arrays last computed from
        self._value = None

    def get(self, arrays, compute):
        """The kept value while `arrays` equal the kept copies, else
        `compute()`, kept with copies of `arrays`. A raising `compute`
        keeps the old key and value."""
        if not (self._key is not None and len(self._key) == len(arrays)
                and all(map(np.array_equal, self._key, arrays))):
            self._value = compute()
            self._key = [a.copy() for a in arrays]
        return self._value


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

    def _affine(self, slot: int, aff: Affine, h: Tensor) -> Tensor:
        """Layer `slot` of the forward order (the head is the last)."""
        return aff(h)

    def _hidden(self, h: Tensor, mode: str, taps=None) -> Tensor:
        """Run the blocks; `taps`, a (means, variances) pair of lists,
        receives the batch statistics of each BN layer's input."""
        for slot, (aff, bn) in enumerate(self.blocks):
            h = self._affine(slot, aff, h)
            if taps is not None:
                mu = h.mean(axis=0)
                taps[0].append(mu)
                taps[1].append(((h - mu) * (h - mu)).mean(axis=0))
            h = bn(h, mode).relu()
        return h


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

    cfg=None disables quantization entirely (exact copy of P's math),
    which the gradient test harness uses to check everything around the
    straight-through estimator.
    """

    def __init__(self, spec: NetworkSpec, cfg: QuantConfig | None, rng=None):
        super().__init__(spec, spec.input_dim, spec.class_count, rng)
        self.cfg = cfg
        # one per weight, in forward order; the bit width is fixed here
        self._weight_memos = [Memo() for _ in range(len(self.blocks) + 1)]

    def _fq(self, t: Tensor) -> Tensor:
        if self.cfg is None:
            return t
        return fake_quantize(t, self.cfg.bits)

    def _fq_weight(self, slot: int, w: Tensor) -> Tensor:
        """fake_quantize(w), re-quantized only when w's values change."""
        if self.cfg is None:
            return w

        def quantize():  # no graph: the node below is built on every call
            with frozen([w]):
                out = fake_quantize(w, self.cfg.bits).data
            out.flags.writeable = False  # shared by every later hit
            return out

        # straight-through, as in fake_quantize
        return Tensor._node(self._weight_memos[slot].get([w.data], quantize),
                            (w,), lambda g: g)

    def _affine(self, slot: int, aff: Affine, h: Tensor) -> Tensor:
        return self._fq(h) @ self._fq_weight(slot, aff.weight) + aff.bias

    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        h = self._hidden(x, "eval")  # stats frozen; affine params still train
        return self._affine(len(self.blocks), self.head, h)


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
        return [("embedding", self.embedding.data)] + super().named_arrays()

    def forward(self, z: Tensor, y: Tensor, mode: str = "train") -> Tensor:
        if z.shape[-1] != self.spec.noise_dim:
            raise ShapeMismatchError(
                f"noise dim {z.shape[-1]} != {self.spec.noise_dim}"
            )
        _validate_one_hot(y, self.spec.class_count)
        return self.head(self._hidden(z + y @ self.embedding, mode))


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
    tape node; the labels are constants."""
    y = Tensor._coerce(y_onehot)
    if y.requires_grad:
        raise ValueError("label_cross_entropy: labels must not require a gradient")
    mask = p.data > 1e-12
    c = np.where(mask, p.data, 1e-12)
    if np.any(c <= 0.0):
        raise ValueError("log: input must be strictly positive")
    log_c = np.log(c)
    prod = Tensor._broadcast(np.multiply, y.data, log_c)
    rows = prod.sum(axis=-1)
    inv_n = 1.0 / rows.size

    def grad(g):
        g = np.broadcast_to(-g * inv_n, prod.shape)
        return _unbroadcast(g * y.data, c.shape) / c * mask

    return Tensor._node(-(rows.sum() * inv_n), (p,), grad)


def cross_entropy(logits: Tensor, y_onehot: Tensor) -> Tensor:
    return label_cross_entropy(softmax(logits, axis=-1), y_onehot)


def accuracy(net, x: np.ndarray, labels: np.ndarray) -> float:
    with frozen(net.parameters()):
        logits = net.forward(Tensor(x), mode="eval")
    pred = logits.data.argmax(axis=1)
    return float((pred == labels).mean())


def build_p(spec: NetworkSpec, rng) -> MLP:
    return MLP(spec, rng)


def pretrain_p(p: MLP, train_x, train_y, test_x, test_y,
               epochs: int = 30, lr: float = 1e-3, batch_size: int = 32,
               rng=None) -> float:
    """Cross-entropy training of P; returns held-out accuracy. A P that
    ends with a non-finite array raises NumericalError."""
    if train_y.min() < 0 or train_y.max() >= p.spec.class_count:
        raise ValueError("labels out of range")
    opt = AdamState(p.parameters(), lr=lr)
    n = len(train_x)
    order_rng = rng if rng is not None else np.random.Generator(np.random.PCG64(0))
    for _ in range(epochs):
        perm = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            if len(idx) < 2:
                continue  # BN train mode needs >= 2 samples
            xb = Tensor(train_x[idx])
            yb = one_hot(train_y[idx], p.spec.class_count)
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


def init_q_from_p(p: MLP, cfg: QuantConfig | None) -> QuantizedMLP:
    """Quantized copy of P: weights/activations fake-quantized, BN running
    stats copied and frozen, BN affine parameters trainable."""
    q = QuantizedMLP(p.spec, cfg)
    for (_, dst), (_, src) in zip(q.named_arrays(), p.named_arrays()):
        dst[...] = src
    return q


def collect_generated_bns(p: MLP, x: Tensor) -> BNStatsRecord:
    """Batch stats of each BN layer's input under P's forward on x,
    paired with P's stored running stats."""
    if x.shape[0] < 2:
        raise ValueError("collect_generated_bns: batch size must be >= 2")
    return p.forward(x, mode="eval", collect_bns=True)[1]


# -- checkpoint container -----------------------------------------------------
#
# Layout: magic "ADSG" | format version u32 LE | header length u64 LE |
# header (UTF-8 JSON: kind, spec, quant bits, array names+shapes) |
# f64 arrays little-endian in header order.

_MAGIC = b"ADSG"
_VERSION = 1


# kind -> (network class, spec class)
_KINDS = {
    "mlp": (MLP, NetworkSpec),
    "quantized_mlp": (QuantizedMLP, NetworkSpec),
    "generator": (Generator, GeneratorSpec),
}
_HEADER_KEYS = {"kind", "spec", "quant_bits", "arrays"}


def save_checkpoint(net, path) -> None:
    kind = next((k for k, (cls, _) in _KINDS.items() if type(net) is cls), None)
    if kind is None:
        raise TypeError(f"cannot checkpoint {type(net).__name__}")
    arrays = net.named_arrays()
    cfg = getattr(net, "cfg", None)
    header = {
        "kind": kind,
        "spec": net.spec.__dict__ | {},
        "quant_bits": None if cfg is None else cfg.bits,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, a in arrays:
            f.write(a.astype("<f8").tobytes())


def _spec(header: dict):
    """The network class and the validated spec a header describes."""
    if set(header) != _HEADER_KEYS:
        raise CheckpointError(f"header keys {sorted(header)} != {sorted(_HEADER_KEYS)}")
    if header["kind"] not in _KINDS:
        raise CheckpointError(f"unknown network kind {header['kind']!r}")
    cls, spec_cls = _KINDS[header["kind"]]
    spec = header["spec"]
    expected = {f.name for f in fields(spec_cls)}
    if set(spec) != expected:
        raise CheckpointError(f"spec keys {sorted(spec)} != {sorted(expected)}")
    return cls, spec_cls(**{**spec, "hidden": tuple(spec["hidden"])})


def _value_count(cls, spec) -> int:
    """How many float64 values the arrays of a `cls` network hold: per
    block a weight and five width-sized vectors (bias, gamma, beta and the
    running statistics), then the head, and G's label embedding."""
    gen = cls is Generator
    dims = (spec.noise_dim if gen else spec.input_dim, *spec.hidden,
            spec.output_dim if gen else spec.class_count)
    count = sum(a * b for a, b in zip(dims, dims[1:])) + 5 * sum(spec.hidden)
    return count + dims[-1] + (spec.class_count * spec.noise_dim if gen else 0)


def load_checkpoint(path):
    """Read a checkpoint; anything but a well-formed file, with every
    array of its network exactly once, raises CheckpointError."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise CheckpointError("bad magic bytes")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != _VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + hlen:
        raise CheckpointError("truncated header")
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
        cls, spec = _spec(header)
        if _value_count(cls, spec) > (len(raw) - 16 - hlen) // 8:
            raise CheckpointError("header describes more values than the file holds")
        if cls is QuantizedMLP:
            bits = header["quant_bits"]
            net = cls(spec, None if bits is None else QuantConfig(bits=bits))
        else:
            net = cls(spec)
        entries = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt header: {e}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed header: {e!r}") from None

    targets = dict(net.named_arrays())
    offset = 16 + hlen
    for name, shape in entries:
        dst = targets.pop(name, None)
        if dst is None:
            raise CheckpointError(f"unexpected or repeated array {name!r}")
        if dst.shape != shape:
            raise CheckpointError(
                f"array {name!r}: shape {shape} != expected {dst.shape}")
        end = offset + dst.size * 8
        if end > len(raw):
            raise CheckpointError(f"truncated array data at {name!r}")
        dst[...] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(dst.shape)
        offset = end
    if targets:
        raise CheckpointError(f"missing arrays {sorted(targets)}")
    if offset != len(raw):
        raise CheckpointError("trailing bytes after last array")
    return net
