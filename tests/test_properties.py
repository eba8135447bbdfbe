"""Property tests over inputs from outside the program: checkpoint files
and config files. Derandomized, so every run draws the same examples."""

import configparser
import contextlib
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from dfqgame import cli
from dfqgame.engine import seeded_rng
from dfqgame.nets import (
    CheckpointError,
    Generator,
    GeneratorSpec,
    MLP,
    NetworkSpec,
    init_q_from_p,
    load_checkpoint,
    save_checkpoint,
)
from dfqgame.quant import QuantConfig

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
# bottom of the float range, a NaN tau (which passes validation)
TAU = st.floats(1e-3, 10.0) | st.sampled_from([1e-300, math.inf, math.nan])
BAD_FLOAT = st.floats(-1.0, 2.0) | st.sampled_from([math.inf, math.nan])
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
       batch_size=mostly(st.integers(2, 4), st.integers(0, 1)))
def test_train_exits_0_2_or_3(workdir, seed, bits, lambda_l, lambda_u, tau,
                              hidden, g_hidden, noise_dim, pretrain_epochs,
                              epochs, iters_per_epoch, batch_size):
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
                        "batch_size": batch_size},
    })
    ini = workdir / "train.ini"
    with open(ini, "w") as f:
        cp.write(f)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["train", "--config", str(ini)])
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
