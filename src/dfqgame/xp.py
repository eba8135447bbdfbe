"""Experiment harness: synthetic dataset, config parsing, the
pretrain -> quantize -> game pipeline, metrics emission, and ablation
sweeps. Every run is a pure function of (config, seed): repeated runs
write byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import io
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import adapt, game, nets
from .engine import seeded_rng
from .nets import GeneratorSpec, NetworkSpec, NumericalError
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
        if self.class_count < 2 or self.class_count % 2 != 0:
            raise ConfigError("class_count must be even and >= 2")
        if self.samples_per_class < 20:
            raise ConfigError("samples_per_class must be >= 20")
        if self.spread <= 0.0 or self.cluster_scale <= 0.0 or self.pair_offset <= 0.0:
            raise ConfigError("cluster_scale, pair_offset and spread must be positive")


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
        if self.eval_period < 1:
            raise ConfigError(f"eval_period must be >= 1, got {self.eval_period}")


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


def config_to_text(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser()
    cp["experiment"] = {
        "seed": str(cfg.seed), "bits": str(cfg.bits),
        "out_dir": cfg.out_dir, "eval_period": str(cfg.eval_period),
        "pretrain_epochs": str(cfg.pretrain_epochs),
        "pretrain_lr": repr(cfg.pretrain_lr),
        "pretrain_batch": str(cfg.pretrain_batch),
    }
    d = cfg.dataset
    cp["dataset"] = {
        "class_count": str(d.class_count), "input_dim": str(d.input_dim),
        "samples_per_class": str(d.samples_per_class),
        "cluster_scale": repr(d.cluster_scale),
        "pair_offset": repr(d.pair_offset), "spread": repr(d.spread),
    }
    n = cfg.network
    cp["network"] = {
        "input_dim": str(n.input_dim),
        "hidden": ",".join(str(w) for w in n.hidden),
        "class_count": str(n.class_count),
    }
    g = cfg.generator
    cp["generator"] = {
        "noise_dim": str(g.noise_dim),
        "hidden": ",".join(str(w) for w in g.hidden),
    }
    h = cfg.hp
    cp["hyperparams"] = {
        "alpha": repr(h.alpha), "beta": repr(h.beta), "gamma": repr(h.gamma),
        "lambda_l": repr(h.lambda_l), "lambda_u": repr(h.lambda_u),
        "tau": repr(h.tau), "lr_g": repr(h.lr_g), "lr_q": repr(h.lr_q),
        "batch_size": str(h.batch_size), "epochs": str(h.epochs),
        "iters_per_epoch": str(h.iters_per_epoch),
        "lr_decay_factor": repr(h.lr_decay_factor),
        "lr_decay_period": str(h.lr_decay_period),
        "bns_stat": h.bns_stat,
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


_KNOWN_SECTIONS = ("experiment", "dataset", "network", "generator", "hyperparams")


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config: {e}") from None
    for section in cp.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    base = default_config()
    try:
        cfg = _apply_sections(base, cp)
    except (ValueError, KeyError) as e:
        raise ConfigError(str(e)) from None
    return cfg


def _apply_sections(cfg: ExperimentConfig, cp) -> ExperimentConfig:
    def section(name):
        return dict(cp[name]) if cp.has_section(name) else {}

    def take(d, key, conv, default):
        return conv(d[key]) if key in d else default

    e = section("experiment")
    known_e = {"seed", "bits", "out_dir", "eval_period", "pretrain_epochs",
               "pretrain_lr", "pretrain_batch"}
    _reject_unknown("experiment", e, known_e)
    d = section("dataset")
    _reject_unknown("dataset", d, {"class_count", "input_dim",
                                   "samples_per_class", "cluster_scale",
                                   "pair_offset", "spread"})
    n = section("network")
    _reject_unknown("network", n, {"input_dim", "hidden", "class_count"})
    g = section("generator")
    _reject_unknown("generator", g, {"noise_dim", "hidden"})
    h = section("hyperparams")
    _reject_unknown("hyperparams", h, {
        "alpha", "beta", "gamma", "lambda_l", "lambda_u", "tau", "lr_g",
        "lr_q", "batch_size", "epochs", "iters_per_epoch",
        "lr_decay_factor", "lr_decay_period", "bns_stat"})

    def widths(s):
        return tuple(int(w) for w in s.split(","))

    dataset = DatasetSpec(
        class_count=take(d, "class_count", int, cfg.dataset.class_count),
        input_dim=take(d, "input_dim", int, cfg.dataset.input_dim),
        samples_per_class=take(d, "samples_per_class", int,
                               cfg.dataset.samples_per_class),
        cluster_scale=take(d, "cluster_scale", float, cfg.dataset.cluster_scale),
        pair_offset=take(d, "pair_offset", float, cfg.dataset.pair_offset),
        spread=take(d, "spread", float, cfg.dataset.spread),
    )
    network = NetworkSpec(
        input_dim=take(n, "input_dim", int, dataset.input_dim),
        hidden=take(n, "hidden", widths, cfg.network.hidden),
        class_count=take(n, "class_count", int, dataset.class_count),
    )
    generator = GeneratorSpec(
        noise_dim=take(g, "noise_dim", int, cfg.generator.noise_dim),
        hidden=take(g, "hidden", widths, cfg.generator.hidden),
        output_dim=network.input_dim,
        class_count=network.class_count,
    )
    hp = game.HyperParams(
        alpha=take(h, "alpha", float, cfg.hp.alpha),
        beta=take(h, "beta", float, cfg.hp.beta),
        gamma=take(h, "gamma", float, cfg.hp.gamma),
        lambda_l=take(h, "lambda_l", float, cfg.hp.lambda_l),
        lambda_u=take(h, "lambda_u", float, cfg.hp.lambda_u),
        tau=take(h, "tau", float, cfg.hp.tau),
        lr_g=take(h, "lr_g", float, cfg.hp.lr_g),
        lr_q=take(h, "lr_q", float, cfg.hp.lr_q),
        batch_size=take(h, "batch_size", int, cfg.hp.batch_size),
        epochs=take(h, "epochs", int, cfg.hp.epochs),
        iters_per_epoch=take(h, "iters_per_epoch", int, cfg.hp.iters_per_epoch),
        lr_decay_factor=take(h, "lr_decay_factor", float, cfg.hp.lr_decay_factor),
        lr_decay_period=take(h, "lr_decay_period", int, cfg.hp.lr_decay_period),
        bns_stat=take(h, "bns_stat", str, cfg.hp.bns_stat),
    )
    return ExperimentConfig(
        seed=take(e, "seed", int, cfg.seed),
        bits=take(e, "bits", int, cfg.bits),
        out_dir=take(e, "out_dir", str, cfg.out_dir),
        eval_period=take(e, "eval_period", int, cfg.eval_period),
        pretrain_epochs=take(e, "pretrain_epochs", int, cfg.pretrain_epochs),
        pretrain_lr=take(e, "pretrain_lr", float, cfg.pretrain_lr),
        pretrain_batch=take(e, "pretrain_batch", int, cfg.pretrain_batch),
        dataset=dataset, network=network, generator=generator, hp=hp,
    )


def _reject_unknown(name: str, d: dict, known: set) -> None:
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")


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


def emit_similarity(p_ds: np.ndarray, path) -> None:
    s = adapt.similarity_matrix(p_ds)
    with open(path, "w", newline="") as f:
        for row in s:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _quartile_bg(logs, which: str) -> float | None:
    """Mean |bg| over the first or last quarter of the iterations; None
    (JSON null) when the game ran no iteration."""
    if not logs:
        return None
    bgs = np.array([abs(log.bg.bg) for log in logs])
    k = max(1, len(bgs) // 4)
    return float(bgs[:k].mean() if which == "first" else bgs[-k:].mean())


# -- pipeline --------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> dict:
    """pretrain P -> init Q -> play the game -> evaluate; writes metrics,
    checkpoints and a summary into config.out_dir."""
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "config.ini"), "w") as f:
        f.write(config_to_text(config))

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    data_seed = int(seeds[0].generate_state(1)[0])
    train_x, train_y, test_x, test_y = synth_dataset(config.dataset, data_seed)

    p = nets.build_p(config.network, seeded_rng(int(seeds[1].generate_state(1)[0])))
    try:
        p_acc = nets.pretrain_p(
            p, train_x, train_y, test_x, test_y,
            epochs=config.pretrain_epochs, lr=config.pretrain_lr,
            batch_size=config.pretrain_batch,
            rng=seeded_rng(int(seeds[2].generate_state(1)[0])))
        nets.save_checkpoint(p, os.path.join(config.out_dir, "p.ckpt"))

        q = nets.init_q_from_p(p, QuantConfig(bits=config.bits))
        q_init_acc = nets.accuracy(q, test_x, test_y)

        g = nets.Generator(config.generator,
                           seeded_rng(int(seeds[3].generate_state(1)[0])))
        game_rng = seeded_rng(config.seed)
        state = game.run_game(p, q, g, config.hp, game_rng,
                              eval_data=(test_x, test_y),
                              eval_period=config.eval_period)
    except NumericalError:
        nets.save_checkpoint(p, os.path.join(config.out_dir, "p.ckpt"))
        raise

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
    """One run_experiment per row of disabled generator-loss terms; failures
    are recorded and the sweep continues."""
    results = []
    for row in rows:
        tag = "full" if not row else "-".join(sorted(row))
        sub = replace(config,
                      hp=game.ablation_config(config.hp, row),
                      out_dir=os.path.join(config.out_dir, f"ablate_{tag}"))
        entry = {"disabled": list(row), "out_dir": sub.out_dir}
        try:
            entry["summary"] = run_experiment(sub)
        except NumericalError as e:
            entry["error"] = str(e)
        results.append(entry)
    with open(os.path.join(config.out_dir, "ablation.json"), "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    return results
