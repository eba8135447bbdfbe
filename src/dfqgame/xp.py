"""Experiment harness: synthetic dataset, config parsing, the
pretrain -> quantize -> game pipeline, metrics emission, and ablation
sweeps. Every run is a pure function of (config, seed): repeated runs
write byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import game, nets
from .engine import seeded_rng
from .nets import GeneratorSpec, NetworkSpec, NumericalError, check_counts
from .quant import QuantConfig

METRICS_HEADER = ("epoch,iter,l_ds,l_as,l_b,l_bns,l_g,l_q,"
                  "bg,delta_g,delta_q,mean_h_norm,q_acc")


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


@dataclass(frozen=True)
class DatasetSpec:
    """Gaussian clusters arranged in close pairs.

    Classes 2k and 2k+1 sit at +/- pair_offset around a shared center, so
    telling paired classes apart needs fine decision boundaries. The
    full-precision net resolves them comfortably, while low-bit weight
    quantization blurs exactly those boundaries; the margin survives
    5-bit precision. Feature magnitudes are kept well below 1 so hidden
    pre-normalization statistics stay small and a generated batch can
    match them tightly.
    """

    class_count: int = 10
    input_dim: int = 20
    samples_per_class: int = 150
    cluster_scale: float = 0.75   # shared pair centers ~ N(0, cluster_scale^2)
    pair_offset: float = 0.30     # distance from shared center to each class
    spread: float = 0.1125        # base within-class std; per-dim in [0.5x, 1.5x]

    def __post_init__(self):
        check_counts(self, ConfigError)
        if self.class_count < 2 or self.class_count % 2 != 0:
            raise ConfigError("class_count must be even and >= 2")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.samples_per_class < 20:
            raise ConfigError("samples_per_class must be >= 20")
        if not all(math.isfinite(v) and v > 0.0
                   for v in (self.cluster_scale, self.pair_offset, self.spread)):
            raise ConfigError("cluster_scale, pair_offset and spread must be "
                              "finite and positive")


@dataclass
class ExperimentConfig:
    seed: int = 0
    bits: int = 3
    out_dir: str = "out"
    eval_period: int = 10
    pretrain_epochs: int = 80
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 32
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    generator: GeneratorSpec = field(default_factory=GeneratorSpec)
    hp: game.HyperParams = field(default_factory=game.HyperParams)

    def __post_init__(self):
        check_counts(self, ConfigError)
        if self.seed < 0:  # np.random.SeedSequence takes no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval_period < 1:
            raise ConfigError(f"eval_period must be >= 1, got {self.eval_period}")
        try:
            QuantConfig(bits=self.bits)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        d, n, g = self.dataset, self.network, self.generator
        if not (d.input_dim == n.input_dim == g.output_dim
                and d.class_count == n.class_count == g.class_count):
            raise ConfigError("network and generator must match the dataset's "
                              "input_dim and class_count")
        if self.pretrain_epochs < 0:
            raise ConfigError(
                f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.pretrain_batch < 2:  # batch norm needs two samples
            raise ConfigError(
                f"pretrain_batch must be >= 2, got {self.pretrain_batch}")
        if not (math.isfinite(self.pretrain_lr) and self.pretrain_lr >= 0.0):
            raise ConfigError(
                f"pretrain_lr must be finite and >= 0, got {self.pretrain_lr}")


def synth_dataset(spec: DatasetSpec, seed: int):
    """Paired anisotropic Gaussian clusters, balanced, with a deterministic
    80/20 per-class split. Returns (train_x, train_y, test_x, test_y)."""
    rng = seeded_rng(seed)
    pairs = spec.class_count // 2
    shared = rng.standard_normal((pairs, spec.input_dim)) * spec.cluster_scale
    offsets = rng.standard_normal((pairs, spec.input_dim))
    offsets = (offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
               * spec.pair_offset)
    centers = np.empty((spec.class_count, spec.input_dim))
    for k in range(pairs):
        centers[2 * k] = shared[k] + offsets[k]
        centers[2 * k + 1] = shared[k] - offsets[k]
    scales = spec.spread * rng.uniform(0.5, 1.5,
                                       (spec.class_count, spec.input_dim))
    train_x, train_y, test_x, test_y = [], [], [], []
    n_train = int(spec.samples_per_class * 0.8)
    for c in range(spec.class_count):
        pts = centers[c] + rng.standard_normal(
            (spec.samples_per_class, spec.input_dim)) * scales[c]
        train_x.append(pts[:n_train])
        test_x.append(pts[n_train:])
        train_y.append(np.full(n_train, c))
        test_y.append(np.full(spec.samples_per_class - n_train, c))
    return (np.concatenate(train_x), np.concatenate(train_y).astype(np.int64),
            np.concatenate(test_x), np.concatenate(test_y).astype(np.int64))


# -- config file (INI-style key = value sections) ------------------------------


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


# INI section, the ExperimentConfig field it fills ("" for the top level),
# and its keys in file order. A value's type is that of the field default.
_SECTIONS = (
    ("experiment", "", ("seed", "bits", "out_dir", "eval_period",
                        "pretrain_epochs", "pretrain_lr", "pretrain_batch")),
    ("dataset", "dataset", ("class_count", "input_dim", "samples_per_class",
                            "cluster_scale", "pair_offset", "spread")),
    ("network", "network", ("input_dim", "hidden", "class_count")),
    ("generator", "generator", ("noise_dim", "hidden")),
    ("hyperparams", "hp", ("alpha", "beta", "gamma", "lambda_l", "lambda_u",
                           "tau", "lr_g", "lr_q", "batch_size", "epochs",
                           "iters_per_epoch", "lr_decay_factor",
                           "lr_decay_period", "bns_stat", "disable")),
)


def config_to_text(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    for section, attr, keys in _SECTIONS:
        owner = getattr(cfg, attr) if attr else cfg
        cp[section] = {key: _format(getattr(owner, key)) for key in keys}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _format(value) -> str:
    if isinstance(value, tuple):  # layer widths or loss names
        return ",".join(str(w) for w in value)
    return str(value)


def _parse(text: str, default):
    if default == ():  # loss names, spelled as --disable takes them
        return tuple(t.strip() for t in text.split(",") if t.strip())
    if isinstance(default, tuple):  # layer widths
        return tuple(int(w) for w in text.split(","))
    return type(default)(text)


def parse_config(text: str) -> ExperimentConfig:
    """Config from INI text; absent keys keep their defaults, and the
    network and generator follow the dataset's dimensions."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config: {e}") from None
    unknown = [s for s in cp.sections() if s not in {n for n, _, _ in _SECTIONS}]
    if unknown:
        raise ConfigError(f"unknown config section [{unknown[0]}]")
    base, kw = default_config(), {}
    try:
        for section, attr, keys in _SECTIONS:
            given = dict(cp[section]) if cp.has_section(section) else {}
            unknown = set(given) - set(keys)
            if unknown:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
            defaults = getattr(base, attr) if attr else base
            kw[attr] = {key: _parse(value, getattr(defaults, key))
                        for key, value in given.items()}
        dataset = DatasetSpec(**kw["dataset"])
        network = NetworkSpec(**{"input_dim": dataset.input_dim,
                                 "class_count": dataset.class_count,
                                 **kw["network"]})
        generator = GeneratorSpec(**kw["generator"],
                                  output_dim=network.input_dim,
                                  class_count=network.class_count)
        return ExperimentConfig(**kw[""], dataset=dataset, network=network,
                                generator=generator,
                                hp=game.HyperParams(**kw["hp"]))
    except (ValueError, KeyError) as e:
        raise ConfigError(str(e)) from None


# -- metrics emission -----------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_metrics(state: game.GameState, path) -> None:
    """Fixed-schema CSV, floats written with round-trip repr."""
    lines = [METRICS_HEADER]
    for log in state.logs:
        q_acc = "" if log.q_accuracy is None else _fmt(log.q_accuracy)
        lines.append(",".join([
            str(log.epoch), str(log.iteration),
            _fmt(log.l_ds), _fmt(log.l_as), _fmt(log.l_b), _fmt(log.l_bns),
            _fmt(log.l_g), _fmt(log.l_q),
            _fmt(log.bg.bg), _fmt(log.bg.delta_g), _fmt(log.bg.delta_q),
            _fmt(log.mean_h_norm), q_acc,
        ]))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _quartile_bg(logs, which: str) -> float | None:
    """Mean |bg| over the first or last quarter of the iterations; None
    (JSON null) when the game ran no iteration."""
    if not logs:
        return None
    bgs = np.array([abs(log.bg.bg) for log in logs])
    k = max(1, len(bgs) // 4)
    return float(bgs[:k].mean() if which == "first" else bgs[-k:].mean())


# -- pipeline --------------------------------------------------------------------


def _stream_seed(seed: int, k: int) -> int:
    """Seed of the k-th independent stream of a run: 0 the dataset, 1 P's
    initialization, 2 the pretraining order, 3 G's initialization."""
    return int(np.random.SeedSequence(seed).spawn(4)[k].generate_state(1)[0])


def pretrain(config: ExperimentConfig):
    """Build the dataset and pretrain P; returns (p, (train_x, train_y,
    test_x, test_y), held-out accuracy of P)."""
    data = synth_dataset(config.dataset, _stream_seed(config.seed, 0))
    p = nets.build_p(config.network, seeded_rng(_stream_seed(config.seed, 1)))
    p_acc = nets.pretrain_p(
        p, *data, epochs=config.pretrain_epochs, lr=config.pretrain_lr,
        batch_size=config.pretrain_batch,
        rng=seeded_rng(_stream_seed(config.seed, 2)))
    return p, data, p_acc


def run_experiment(config: ExperimentConfig) -> dict:
    """pretrain P -> init Q -> play the game -> evaluate; writes metrics,
    checkpoints and a summary into config.out_dir."""
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "config.ini"), "w") as f:
        f.write(config_to_text(config))

    p, (_, _, test_x, test_y), p_acc = pretrain(config)
    nets.save_checkpoint(p, os.path.join(config.out_dir, "p.ckpt"))

    q = nets.init_q_from_p(p, QuantConfig(bits=config.bits))
    q_init_acc = nets.accuracy(q, test_x, test_y)
    g = nets.Generator(config.generator,
                       seeded_rng(_stream_seed(config.seed, 3)))
    state = game.run_game(p, q, g, config.hp, seeded_rng(config.seed),
                          eval_data=(test_x, test_y),
                          eval_period=config.eval_period)

    q_final_acc = nets.accuracy(q, test_x, test_y)
    emit_metrics(state, os.path.join(config.out_dir, "metrics.csv"))
    nets.save_checkpoint(q, os.path.join(config.out_dir, "q.ckpt"))
    nets.save_checkpoint(g, os.path.join(config.out_dir, "g.ckpt"))

    summary = {
        "p_accuracy": p_acc,
        "q_init_accuracy": q_init_acc,
        "q_final_accuracy": q_final_acc,
        "mean_abs_bg_first_quartile": _quartile_bg(state.logs, "first"),
        "mean_abs_bg_last_quartile": _quartile_bg(state.logs, "last"),
    }
    with open(os.path.join(config.out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


DEFAULT_ABLATION_ROWS = (
    (),                               # everything on
    ("L_b",),
    ("L_as",),
    ("L_ds",),
    ("L_ds", "L_as", "L_b"),          # statistics-matching-only baseline
    ("L_ds", "L_as", "L_b", "L_BNS"),  # null objective
)


def ablation_sweep(config: ExperimentConfig, rows=DEFAULT_ABLATION_ROWS) -> list[dict]:
    """One run_experiment per distinct set of disabled generator-loss terms
    (the row's terms and those `config` already leaves out); failures are
    recorded and the sweep continues."""
    results, seen = [], set()
    for row in rows:
        hp = game.ablation_config(config.hp, row)
        if hp.disable in seen:
            continue  # the same game as an earlier row
        seen.add(hp.disable)
        tag = "-".join(sorted(hp.disable)) or "full"
        sub = replace(config, hp=hp,
                      out_dir=os.path.join(config.out_dir, f"ablate_{tag}"))
        entry = {"disabled": list(hp.disable), "out_dir": sub.out_dir}
        try:
            entry["summary"] = run_experiment(sub)
        except (NumericalError, OSError) as e:  # e.g. the row path is a file
            entry["error"] = str(e)
        results.append(entry)
    with open(os.path.join(config.out_dir, "ablation.json"), "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    return results
