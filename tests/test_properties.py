"""Property tests over inputs from outside the program: checkpoint files,
config files and configs built through the Python API. Derandomized, so
every run draws the same examples."""

import configparser
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfqgame import cli, xp
from dfqgame.engine import seeded_rng
from dfqgame.game import LOSS_NAMES, HyperParams
from dfqgame.nets import (
    CheckpointError,
    Generator,
    GeneratorSpec,
    MLP,
    NetworkSpec,
    NumericalError,
    init_q_from_p,
    load_checkpoint,
    save_checkpoint,
)
from dfqgame.quant import QuantConfig
from dfqgame.xp import DatasetSpec, ExperimentConfig, config_to_text, parse_config

SMALL = NetworkSpec(input_dim=6, hidden=(8, 8), class_count=4)
SMALL_GEN = GeneratorSpec(noise_dim=5, hidden=(8, 8), output_dim=6, class_count=4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@pytest.fixture(scope="module")
def checkpoints(workdir):
    """The bytes of saved P, Q and G checkpoints."""
    p = MLP(SMALL, seeded_rng(7))
    raws = []
    for net in (p, init_q_from_p(p, QuantConfig(3)), Generator(SMALL_GEN, seeded_rng(8))):
        save_checkpoint(net, workdir / "net.ckpt")
        raws.append((workdir / "net.ckpt").read_bytes())
    return raws


# bytes that keep a JSON header parseable more often than a random byte does
JSON_BYTES = st.sampled_from(b'0123456789-+.eE[]{}",: ntfu')


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(checkpoints, workdir, data):
    """An edit inside the array data loads legitimately, so the property is
    that nothing but CheckpointError escapes, not that every mutant fails."""
    raw = data.draw(st.sampled_from(checkpoints))
    hlen = int.from_bytes(raw[8:16], "little")
    # half the positions fall in the fixed prefix and the JSON header
    pos = data.draw(st.integers(0, 16 + hlen) | st.integers(0, len(raw) - 1))
    byte = bytes([data.draw(JSON_BYTES | st.integers(0, 255))])
    mutant = data.draw(st.sampled_from([
        raw[:pos] + byte + raw[pos + 1:],  # edit
        raw[:pos] + byte + raw[pos:],      # insertion
        raw[:pos],                         # truncation
    ]))
    path = workdir / "mutant.ckpt"
    path.write_bytes(mutant)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def mostly(valid, invalid):
    """`valid` nine draws in ten, else `invalid`; with every field drawn
    this way, about a third of the configs are accepted and run."""
    return st.sampled_from([valid] * 9 + [invalid]).flatmap(lambda s: s)


# valid ranges include their edges: a width of 1, no iteration, tau at the
# bottom of the float range; an infinite or NaN tau is an invalid draw
TAU = st.floats(1e-3, 10.0) | st.just(1e-300)
BAD_FLOAT = st.floats(-1.0, 2.0) | st.sampled_from([math.inf, math.nan])
DISABLE = st.lists(st.sampled_from(LOSS_NAMES), unique=True)
WIDTHS = st.lists(st.integers(1, 8), min_size=1, max_size=3)
BAD_WIDTHS = st.lists(st.integers(-1, 8), max_size=3)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(seed=mostly(st.integers(0, 2**40), st.integers(-5, -1)),
       bits=mostly(st.integers(2, 8), st.integers(-1, 10)),
       lambda_l=mostly(st.floats(0.0, 0.5), BAD_FLOAT),
       lambda_u=mostly(st.floats(0.5, 1.0, exclude_min=True), BAD_FLOAT),
       tau=mostly(TAU, BAD_FLOAT),
       hidden=mostly(WIDTHS, BAD_WIDTHS), g_hidden=mostly(WIDTHS, BAD_WIDTHS),
       noise_dim=mostly(st.integers(1, 8), st.integers(-1, 0)),
       pretrain_epochs=mostly(st.integers(0, 1), st.just(-1)),
       epochs=mostly(st.integers(0, 1), st.just(-1)),
       iters_per_epoch=mostly(st.integers(0, 3), st.just(-1)),
       batch_size=mostly(st.integers(2, 4), st.integers(0, 1)),
       disable=mostly(DISABLE, st.just(["L_nope"])))
def test_train_exits_0_2_or_3(workdir, seed, bits, lambda_l, lambda_u, tau,
                              hidden, g_hidden, noise_dim, pretrain_epochs,
                              epochs, iters_per_epoch, batch_size, disable):
    """Any config file ends `train` with exit 0, 2 (config error) or 3
    (numerical abort), never with a traceback."""
    cp = configparser.ConfigParser()
    cp.read_dict({
        "experiment": {"out_dir": str(workdir / "out"), "seed": seed, "bits": bits,
                       "pretrain_epochs": pretrain_epochs, "eval_period": 1},
        "dataset": {"class_count": 4, "input_dim": 6, "samples_per_class": 20},
        "network": {"hidden": ",".join(map(str, hidden))},
        "generator": {"noise_dim": noise_dim, "hidden": ",".join(map(str, g_hidden))},
        "hyperparams": {"lambda_l": lambda_l, "lambda_u": lambda_u, "tau": tau,
                        "epochs": epochs, "iters_per_epoch": iters_per_epoch,
                        "batch_size": batch_size, "disable": ",".join(disable)},
    })
    ini = workdir / "train.ini"
    with open(ini, "w") as f:
        cp.write(f)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["train", "--config", str(ini)])
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)


FINITE = st.floats(0.0, 1e6) | st.sampled_from([5e-324, 1e-300, 0.1 + 0.2])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(alpha=FINITE, beta=FINITE, gamma=FINITE, lr_g=FINITE, lr_q=FINITE,
       lr_decay_factor=FINITE, lambda_l=st.floats(0.0, 0.5),
       lambda_u=st.floats(0.5, 1.0, exclude_min=True), tau=TAU,
       batch_size=st.integers(2, 2**20), epochs=st.integers(0, 2**20),
       iters_per_epoch=st.integers(0, 2**20), lr_decay_period=st.integers(0, 2**20),
       bns_stat=st.sampled_from(["variance", "std"]), disable=DISABLE)
def test_config_text_round_trips(**hp):
    """config.ini holds each hyperparameter exactly, the terms a run leaves
    out included, so a run's file replays it."""
    cfg = ExperimentConfig(hp=HyperParams(**hp))
    assert parse_config(config_to_text(cfg)) == cfg


# what the parser never hands over: bools and floats in count fields, and
# values past a bound or non-finite
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_COUNT = st.sampled_from([True, False, 2.0, 2.5])


def seldom(valid, invalid):
    """`valid` 39 draws in 40, else `invalid`; with the 30 fields of an
    ExperimentConfig drawn this way, about half of the configs are
    accepted and run."""
    return st.sampled_from([valid] * 39 + [invalid]).flatmap(lambda s: s)


def count(low, high):
    return seldom(st.integers(low, high), NOT_A_COUNT | st.integers(low - 2, low - 1))


def weight(high, low=0.0):
    """A float in [low, high] or a huge one, else a float below `low` or a
    non-finite one; a `low` of 5e-324 makes the bound strict."""
    valid = st.floats(low, high) | st.sampled_from([low, 1e200])
    return seldom(valid, st.floats(-1.0, low, exclude_max=True) | NOT_FINITE)


def positive(high):
    return weight(high, low=5e-324)


def widths(high):
    entries = st.integers(1, high) | st.integers(-1, 0) | NOT_A_COUNT
    return seldom(st.lists(st.integers(1, high), min_size=1, max_size=2).map(tuple),
                  st.lists(entries, max_size=2).map(tuple))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_an_api_config_is_refused_or_runs_or_diverges(workdir, data):
    """Every ExperimentConfig built in code either raises ValueError when it
    is built, or runs: run_experiment returns or raises NumericalError."""
    draw = data.draw
    classes = draw(seldom(st.sampled_from([2, 4]), st.sampled_from([3, 1, True, 4.0])))
    dims = draw(count(1, 4))
    try:
        dataset = DatasetSpec(
            class_count=classes, input_dim=dims,
            samples_per_class=draw(count(20, 21)),
            cluster_scale=draw(positive(2.0)), pair_offset=draw(positive(1.0)),
            spread=draw(positive(1.0)))
        network = NetworkSpec(input_dim=dims, hidden=draw(widths(4)),
                              class_count=classes)
        generator = GeneratorSpec(noise_dim=draw(count(1, 4)), hidden=draw(widths(4)),
                                  output_dim=dims, class_count=classes)
        lambda_l = draw(seldom(st.floats(0.0, 0.5), BAD_FLOAT))
        lambda_u = draw(seldom(st.floats(0.5, 1.0, exclude_min=True), BAD_FLOAT))
        hp = HyperParams(
            alpha=draw(weight(2.0)), beta=draw(weight(2.0)), gamma=draw(weight(2.0)),
            lambda_l=lambda_l, lambda_u=lambda_u, tau=draw(positive(10.0)),
            lr_g=draw(weight(0.1)), lr_q=draw(weight(0.1)),
            batch_size=draw(count(2, 4)), epochs=draw(count(0, 1)),
            iters_per_epoch=draw(count(0, 2)), lr_decay_factor=draw(weight(1.0)),
            lr_decay_period=draw(count(0, 1)),
            bns_stat=draw(st.sampled_from(["variance", "std"])),
            disable=tuple(draw(DISABLE)))
        config = ExperimentConfig(
            seed=draw(count(0, 2**32)), bits=draw(count(2, 8)),
            out_dir=str(workdir / "api"), eval_period=draw(count(1, 2)),
            pretrain_epochs=draw(count(0, 1)), pretrain_lr=draw(weight(0.1)),
            pretrain_batch=draw(count(2, 64)), dataset=dataset, network=network,
            generator=generator, hp=hp)
    except ValueError:  # ConfigError is a ValueError
        return
    try:
        with np.errstate(all="ignore"):  # a huge rate or scale overflows
            xp.run_experiment(config)
    except NumericalError:
        pass
