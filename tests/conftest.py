"""Suite-wide fixtures."""

import multiprocessing
import os
from pathlib import Path

import pytest


def _live_children() -> list[str]:
    """Child processes of this one that still run: multiprocessing's
    (joining those that ended), and on Linux every other one /proc lists."""
    left = [repr(c) for c in multiprocessing.active_children()]
    pid = str(os.getpid())
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError):
            continue  # it ended while we looked
        if ppid == pid and state != "Z":
            left.append(f"pid {stat.parent.name}")
    return left


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that leaves a child process running."""
    yield
    left = _live_children()
    assert not left, f"the test left processes running: {left}"
