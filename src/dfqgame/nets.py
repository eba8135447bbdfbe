"""The three players: full-precision classifier P, its quantized copy Q,
and the label-conditioned generator G, plus checkpoint I/O.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    BatchNorm,
    AdamState,
    Tensor,
    ShapeMismatchError,
    frozen,
    softmax,
)
from .quant import QuantConfig, fake_quantize


class NumericalError(RuntimeError):
    """A loss or forward pass produced a non-finite value."""


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed, truncated, or version-incompatible."""


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of P (and therefore Q): affine -> BN -> ReLU blocks."""

    input_dim: int = 20
    hidden: tuple = (64, 64)
    class_count: int = 10
    batch_norm: bool = True

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if not self.batch_norm or not self.hidden:
            raise ValueError("architecture needs at least one BN layer")


@dataclass(frozen=True)
class GeneratorSpec:
    """Architecture of G: additive label embedding then BN-ReLU blocks."""

    noise_dim: int = 16
    hidden: tuple = (64, 64)
    output_dim: int = 20
    class_count: int = 10


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


class MLP:
    """Full-precision classifier P."""

    def __init__(self, spec: NetworkSpec, rng=None):
        self.spec = spec
        self.blocks = []
        prev = spec.input_dim
        for width in spec.hidden:
            self.blocks.append((Affine(prev, width, rng), BatchNorm(width)))
            prev = width
        self.head = Affine(prev, spec.class_count, rng)

    def parameters(self) -> list[Tensor]:
        out = []
        for aff, bn in self.blocks:
            out += aff.parameters() + bn.parameters()
        return out + self.head.parameters()

    def forward(self, x: Tensor, mode: str = "eval", collect_bns: bool = False):
        if x.shape[-1] != self.spec.input_dim:
            raise ShapeMismatchError(
                f"input dim {x.shape[-1]} != {self.spec.input_dim}"
            )
        taps_mean, taps_var = [], []
        h = x
        for aff, bn in self.blocks:
            h = aff(h)
            if collect_bns:
                mu = h.mean(axis=0)
                var = ((h - mu) * (h - mu)).mean(axis=0)
                taps_mean.append(mu)
                taps_var.append(var)
            h = bn(h, mode)
            h = h.relu()
        logits = self.head(h)
        if collect_bns:
            return logits, (taps_mean, taps_var)
        return logits

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


class QuantizedMLP:
    """Q: shares P's architecture; weights and activations fake-quantized
    in the forward pass, BN running stats frozen to P's values.

    cfg=None disables quantization entirely (exact copy of P's math),
    which the gradient test harness uses to check everything around the
    straight-through estimator.
    """

    def __init__(self, spec: NetworkSpec, cfg: QuantConfig | None, rng=None):
        self.spec = spec
        self.cfg = cfg
        self.blocks = []
        prev = spec.input_dim
        for width in spec.hidden:
            bn = BatchNorm(width)
            bn.frozen_stats = True
            self.blocks.append((Affine(prev, width, rng), bn))
            prev = width
        self.head = Affine(prev, spec.class_count, rng)
        # per weight, in forward order: (bits, copy of the array last
        # quantized, its fake-quantized result), or None before the first
        self._weight_cache: list = [None] * (len(self.blocks) + 1)

    def parameters(self) -> list[Tensor]:
        out = []
        for aff, bn in self.blocks:
            out += aff.parameters() + bn.parameters()
        return out + self.head.parameters()

    def _fq(self, t: Tensor) -> Tensor:
        if self.cfg is None:
            return t
        return fake_quantize(t, self.cfg.bits)

    def _fq_weight(self, slot: int, w: Tensor) -> Tensor:
        """fake_quantize(w), reusing the last result while w is unchanged.

        Weights are written in place (optimizer steps, checkpoint loads,
        finite-difference probes), so only a comparison of values can
        tell that a weight is unchanged.
        """
        if self.cfg is None:
            return w
        bits = self.cfg.bits
        cached = self._weight_cache[slot]
        if (cached is not None and cached[0] == bits
                and np.array_equal(cached[1], w.data)):
            def backward(node):  # straight-through, as in fake_quantize
                w._accumulate(node.grad)

            return Tensor._result(cached[2], (w,), backward)
        out = fake_quantize(w, bits)
        out.data.flags.writeable = False  # shared by every later hit
        self._weight_cache[slot] = (bits, w.data.copy(), out.data)
        return out

    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        h = x
        for slot, (aff, bn) in enumerate(self.blocks):
            h = self._fq(h) @ self._fq_weight(slot, aff.weight) + aff.bias
            h = bn(h, "eval")  # stats frozen; affine params still train
            h = h.relu()
        head_w = self._fq_weight(len(self.blocks), self.head.weight)
        logits = self._fq(h) @ head_w + self.head.bias
        return logits

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return MLP.named_arrays(self)


class Generator:
    """G: sample x = G(z | y) with an additive learned label embedding."""

    def __init__(self, spec: GeneratorSpec, rng=None):
        self.spec = spec
        if rng is None:
            emb = np.zeros((spec.class_count, spec.noise_dim))
        else:
            emb = rng.standard_normal((spec.class_count, spec.noise_dim))
        self.embedding = Tensor(emb, requires_grad=True)
        self.blocks = []
        prev = spec.noise_dim
        for width in spec.hidden:
            self.blocks.append((Affine(prev, width, rng), BatchNorm(width)))
            prev = width
        self.head = Affine(prev, spec.output_dim, rng)

    def parameters(self) -> list[Tensor]:
        out = [self.embedding]
        for aff, bn in self.blocks:
            out += aff.parameters() + bn.parameters()
        return out + self.head.parameters()

    def forward(self, z: Tensor, y: Tensor, mode: str = "train") -> Tensor:
        if z.shape[-1] != self.spec.noise_dim:
            raise ShapeMismatchError(
                f"noise dim {z.shape[-1]} != {self.spec.noise_dim}"
            )
        _validate_one_hot(y, self.spec.class_count)
        h = z + y @ self.embedding
        for aff, bn in self.blocks:
            h = bn(aff(h), mode).relu()
        return self.head(h)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = [("embedding", self.embedding.data)]
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


def cross_entropy(logits: Tensor, y_onehot: Tensor) -> Tensor:
    p = softmax(logits, axis=-1)
    logp = p.clip_min(1e-12).log()
    return -(y_onehot * logp).sum(axis=-1).mean()


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
    """Cross-entropy training of P; returns held-out accuracy."""
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
            opt.zero_grad()
            loss.backward()
            opt.step()
    return accuracy(p, test_x, test_y)


def init_q_from_p(p: MLP, cfg: QuantConfig | None) -> QuantizedMLP:
    """Quantized copy of P: weights/activations fake-quantized, BN running
    stats copied and frozen, BN affine parameters trainable."""
    q = QuantizedMLP(p.spec, cfg)
    for (pa, pb), (qa, qb) in zip(p.blocks, q.blocks):
        qa.weight.data = pa.weight.data.copy()
        qa.bias.data = pa.bias.data.copy()
        qb.gamma.data = pb.gamma.data.copy()
        qb.beta.data = pb.beta.data.copy()
        qb.running_mean = pb.running_mean.copy()
        qb.running_var = pb.running_var.copy()
    q.head.weight.data = p.head.weight.data.copy()
    q.head.bias.data = p.head.bias.data.copy()
    return q


def generator_forward(g: Generator, z: Tensor, y: Tensor,
                      mode: str = "train") -> Tensor:
    return g.forward(z, y, mode)


def collect_generated_bns(p: MLP, x: Tensor) -> BNStatsRecord:
    """Batch stats of each BN layer's input under P's forward on x,
    paired with P's stored running stats."""
    if x.shape[0] < 2:
        raise ValueError("collect_generated_bns: batch size must be >= 2")
    _, (taps_mean, taps_var) = p.forward(x, mode="eval", collect_bns=True)
    return BNStatsRecord(
        mean_generated=taps_mean,
        var_generated=taps_var,
        mean_stored=[bn.running_mean.copy() for _, bn in p.blocks],
        var_stored=[bn.running_var.copy() for _, bn in p.blocks],
    )


# -- checkpoint container -----------------------------------------------------
#
# Layout: magic "ADSG" | format version u32 LE | header length u64 LE |
# header (UTF-8 JSON: kind, spec, quant bits, array names+shapes) |
# f64 arrays little-endian in header order.

_MAGIC = b"ADSG"
_VERSION = 1


def _net_kind(net) -> str:
    if isinstance(net, QuantizedMLP):
        return "quantized_mlp"
    if isinstance(net, MLP):
        return "mlp"
    if isinstance(net, Generator):
        return "generator"
    raise TypeError(f"cannot checkpoint {type(net).__name__}")


def save_checkpoint(net, path) -> None:
    arrays = net.named_arrays()
    header = {
        "kind": _net_kind(net),
        "spec": net.spec.__dict__ | {},
        "quant_bits": (net.cfg.bits if isinstance(net, QuantizedMLP)
                       and net.cfg is not None else None),
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


def load_checkpoint(path):
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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt header: {e}") from None

    kind = header.get("kind")
    spec = header.get("spec", {})
    if kind == "mlp":
        net = MLP(NetworkSpec(input_dim=spec["input_dim"],
                              hidden=tuple(spec["hidden"]),
                              class_count=spec["class_count"],
                              batch_norm=spec["batch_norm"]))
    elif kind == "quantized_mlp":
        bits = header.get("quant_bits")
        cfg = QuantConfig(bits=bits) if bits is not None else None
        net = QuantizedMLP(NetworkSpec(input_dim=spec["input_dim"],
                                       hidden=tuple(spec["hidden"]),
                                       class_count=spec["class_count"],
                                       batch_norm=spec["batch_norm"]), cfg)
    elif kind == "generator":
        net = Generator(GeneratorSpec(noise_dim=spec["noise_dim"],
                                      hidden=tuple(spec["hidden"]),
                                      output_dim=spec["output_dim"],
                                      class_count=spec["class_count"]))
    else:
        raise CheckpointError(f"unknown network kind {kind!r}")

    targets = dict((n, a) for n, a in net.named_arrays())
    offset = 16 + hlen
    for entry in header["arrays"]:
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in targets:
            raise CheckpointError(f"unexpected array {name!r}")
        dst = targets[name]
        if dst.shape != shape:
            raise CheckpointError(
                f"array {name!r}: shape {shape} != expected {dst.shape}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        end = offset + nbytes
        if end > len(raw):
            raise CheckpointError(f"truncated array data at {name!r}")
        dst[...] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape)
        offset = end
    if offset != len(raw):
        raise CheckpointError("trailing bytes after last array")
    return net
