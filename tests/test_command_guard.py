"""A guard on what `src/` holds: every function and lambda of `dfqgame` runs
in some command. One subprocess installs a call-only `sys.settrace` before it
imports `dfqgame`, runs the five commands on a tiny config, `train` twice
(with the probe worker forced on, then as `game._worker_fits` decides), and
reports which of the package's functions it entered. The test fails on a
function that no command entered unless NOT_RUN names it, and on a name in
NOT_RUN that a command did enter, so the list can only shrink.

Functions are told apart by qualified name, as `nets.MLP.forward` or
`engine.Tensor.__add__.<locals>.<lambda>`: lambdas of one function share a
name and count as one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfqgame

PACKAGE = Path(dfqgame.__file__).parent

# Functions that no command runs, and why they stay. A name covers the
# functions and lambdas defined inside it.
NOT_RUN = {
    "nets.load_checkpoint": "no command reads a checkpoint yet",
    "nets._value_count": "load_checkpoint's size check",
    "quant.quantize": "fake_quantize_array's fallback for a zero or non-finite range",
    "quant.dequantize": "fake_quantize_array's fallback for a zero or non-finite range",
    "quant._round_half_away": "fake_quantize_array's fallback for a zero or non-finite range",
    "game._serve_probes": "runs only in the forked probe worker, whose calls go untraced",
}

# every section, with layer widths and a left-out loss term among the keys
CONFIG = """\
[experiment]
pretrain_epochs = 1
pretrain_batch = 8
[dataset]
class_count = 4
input_dim = 3
samples_per_class = 20
[network]
hidden = 4,4
[generator]
noise_dim = 2
hidden = 4
[hyperparams]
epochs = 2
iters_per_epoch = 2
batch_size = 4
disable = L_b
"""

CHILD = r'''
import sys

codes = {}


def trace(frame, event, arg):  # returns None: no line events, calls only
    code = frame.f_code
    codes[id(code)] = code


sys.settrace(trace)

import inspect
import json
from pathlib import Path

from dfqgame import cli, game

config, out, report = sys.argv[1:]


def run(*argv):
    assert cli.main([*argv, "--config", config, "--out", out]) == 0, argv


cli.main(["print-config"])
run("pretrain")
run("quantize-eval")
worker_fits = game._worker_fits
game._worker_fits = lambda: True  # the loop's side of the worker, on any machine
run("train")
game._worker_fits = worker_fits
run("train")
run("ablate")
sys.settrace(None)


def functions(code, prefix):
    """(qualified name, code) of each function and lambda that `code`
    defines, at any depth; class bodies and comprehensions are walked, not
    named."""
    for c in code.co_consts:
        if inspect.iscode(c):
            name = prefix + c.co_name
            function = bool(c.co_flags & inspect.CO_OPTIMIZED)
            if function and (c.co_name == "<lambda>" or not c.co_name.startswith("<")):
                yield name, c
            yield from functions(c, name + (".<locals>." if function else "."))


package = Path(cli.__file__).parent
entered = set(codes.values())
defined, ran = set(), set()
for path in sorted(package.glob("*.py")):
    module = compile(path.read_text(), str(path), "exec", dont_inherit=True)
    for name, code in functions(module, path.stem + "."):
        defined.add(name)
        if code in entered:  # equal code: the same source, compiled alike
            ran.add(name)
Path(report).write_text(json.dumps({"defined": sorted(defined), "entered": sorted(ran)}))
'''


def listed(name: str) -> bool:
    return any(name == n or name.startswith(n + ".<locals>.") for n in NOT_RUN)


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
                    reason="the commands fork no probe worker without os.fork, and "
                           "_worker_fits reads /proc to decide")
def test_every_function_in_src_runs_in_a_command(tmp_path):
    config, report = tmp_path / "tiny.ini", tmp_path / "report.json"
    config.write_text(CONFIG)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(config), str(tmp_path / "out"), str(report)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.returncode == 0, out.stderr[-3000:]
    found = json.loads(report.read_text())
    defined, entered = set(found["defined"]), set(found["entered"])
    unlisted = sorted(n for n in defined - entered if not listed(n))
    assert not unlisted, (
        f"no command runs {unlisted}: delete them, or list them in NOT_RUN with a reason")
    ran = sorted(set(NOT_RUN) & entered)
    assert not ran, f"a command runs {ran}: take them off NOT_RUN"
    assert set(NOT_RUN) <= defined, "NOT_RUN names a function that src/ no longer holds"
