"""Command-line surface.

Subcommands: pretrain, quantize-eval, train, ablate, print-config.
Exit codes: 0 success, 2 config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import nets, xp
from .game import LOSS_NAMES, ablation_config
from .nets import NumericalError
from .quant import QuantConfig
from .xp import ConfigError

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(sp):
    sp.add_argument("--config", help="path to an INI config file")
    sp.add_argument("--seed", type=int, help="master seed")
    sp.add_argument("--bits", type=int, help="quantization bit width")
    sp.add_argument("--out", dest="out_dir", help="output directory")
    sp.add_argument("--epochs", type=int, help="game epochs")
    sp.add_argument("--tau", type=float, help="calibration temperature")
    sp.add_argument("--lambda-l", type=float, dest="lambda_l")
    sp.add_argument("--lambda-u", type=float, dest="lambda_u")
    sp.add_argument("--disable", help="comma-separated loss terms to disable "
                    f"(subset of {','.join(LOSS_NAMES)})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfqgame",
        description="Data-free quantization as a generator-vs-quantized-net "
                    "zero-sum game")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("pretrain", "train the full-precision network on the synthetic task"),
        ("quantize-eval", "quantize the pretrained network and report accuracy"),
        ("train", "run the full game pipeline"),
        ("ablate", "run the ablation sweep over generator-loss terms"),
    ]:
        _add_common(subs.add_parser(name, help=help_text))
    # takes no flags: it prints the defaults, which no flag changes
    subs.add_parser("print-config", help="print the default configuration")
    return parser


def load_config(args) -> xp.ExperimentConfig:
    if args.config:
        try:
            with open(args.config) as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        cfg = xp.parse_config(text)
    else:
        cfg = xp.default_config()

    def flags(*keys) -> dict:
        return {key: getattr(args, key) for key in keys
                if getattr(args, key) is not None}

    try:
        hp = replace(cfg.hp, **flags("epochs", "tau", "lambda_l", "lambda_u"))
        if args.disable:
            terms = tuple(t.strip() for t in args.disable.split(",") if t.strip())
            hp = ablation_config(hp, terms)
        return replace(cfg, hp=hp, **flags("seed", "bits", "out_dir"))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def cmd_pretrain(cfg: xp.ExperimentConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    p, _, acc = xp.pretrain(cfg)
    nets.save_checkpoint(p, os.path.join(cfg.out_dir, "p.ckpt"))
    print(f"P held-out accuracy: {acc:.4f}")
    return 0


def cmd_quantize_eval(cfg: xp.ExperimentConfig) -> int:
    p, data, p_acc = xp.pretrain(cfg)
    q = nets.init_q_from_p(p, QuantConfig(bits=cfg.bits))
    q_acc = nets.accuracy(q, data[2], data[3])
    print(f"P accuracy: {p_acc:.4f}")
    print(f"Q ({cfg.bits}-bit) accuracy before calibration: {q_acc:.4f}")
    return 0


def cmd_train(cfg: xp.ExperimentConfig) -> int:
    summary = xp.run_experiment(cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_ablate(cfg: xp.ExperimentConfig) -> int:
    results = xp.ablation_sweep(cfg)
    for entry in results:
        disabled = ",".join(entry["disabled"]) or "(none)"
        if "summary" in entry:
            acc = entry["summary"]["q_final_accuracy"]
            print(f"disabled={disabled:<24} q_final={acc:.4f}")
        else:
            print(f"disabled={disabled:<24} FAILED: {entry['error']}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "print-config":
        print(xp.config_to_text(xp.default_config()), end="")
        return 0
    try:
        cfg = load_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "pretrain":
            return cmd_pretrain(cfg)
        if args.command == "quantize-eval":
            return cmd_quantize_eval(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "ablate":
            return cmd_ablate(cfg)
    except NumericalError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
