"""`run.pytest` tells a hang and a test process that exits on its own from a
kill: each case runs pytest on a throwaway test file."""

import importlib.util
from pathlib import Path

# under a name of its own: perfbench's tests import their own `run`
_SPEC = importlib.util.spec_from_file_location(
    "mutants_run", Path(__file__).resolve().parents[1] / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


def _pytest(tmp_path, body: str, timeout: float):
    (tmp_path / "test_throwaway.py").write_text(body)
    return run.pytest(tmp_path, ["test_throwaway.py"], timeout)


def test_a_run_that_times_out_is_a_hang(tmp_path):
    status, code, _ = _pytest(
        tmp_path, "import time\n\n\ndef test_waits():\n    time.sleep(60)\n", timeout=3)
    assert (status, code) == ("timeout", None)
    assert run.VERDICTS[status] == "hang"


def test_an_exit_0_without_the_passed_line_is_an_error(tmp_path):
    status, code, _ = _pytest(
        tmp_path, "import os\n\n\ndef test_exits():\n    os._exit(0)\n", timeout=60)
    assert (status, code) == ("error", 0)
    assert status not in run.VERDICTS


def test_a_run_that_passes_survives(tmp_path):
    status, code, tail = _pytest(tmp_path, "def test_passes():\n    pass\n", timeout=60)
    assert (status, code) == ("passed", 0), tail
    assert run.VERDICTS[status] == "survived"
