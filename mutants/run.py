"""Run the mutant catalogue.

    python3 mutants/run.py [--report PATH]

Copies `src/`, `tests/` and `pyproject.toml` into a temporary directory,
runs every test the catalogue names once on the unmutated copy (they must
pass), then applies one mutant at a time and runs only its tests, with `-x`
and a timeout of TIMEOUT seconds (the unmutated run gets twice that). A
mutant is killed when a test fails or the run times out (some mutants hang
the probe worker), survives when its tests pass, and is an error when
pytest ends any other way (say, a test id that collects nothing). Writes
a JSON report (default `.mutants/report.json`) and exits 0 only when every
mutant run was killed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalogue import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
VERDICTS = {"failed": "killed", "timeout": "killed", "passed": "survived"}  # else "error"
TIMEOUT = 300.0


def pytest(copy: Path, ids, timeout: float) -> tuple[str, int | None, str]:
    """Run `ids` in `copy`: ("passed" | "failed" | "timeout" | "error",
    the exit code, the last lines of the output)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)  # a group: a hung probe worker goes too
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return "timeout", None, out[-2000:]
    status = {0: "passed", 1: "failed"}.get(proc.returncode, "error")
    return status, proc.returncode, out[-2000:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, default=ROOT / ".mutants" / "report.json")
    args = parser.parse_args(argv)
    mutants = list(MUTANTS)

    start = time.perf_counter()
    report = {"mutants": [], "killed": [], "survived": [], "error": []}
    with tempfile.TemporaryDirectory(prefix="dfqgame-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=IGNORED)
            else:
                shutil.copy2(src, copy / name)
        ids = list(dict.fromkeys(t for m in mutants for t in m.tests))
        status, code, tail = pytest(copy, ids, TIMEOUT * 2)
        report["baseline"] = {"status": status, "returncode": code,
                              "seconds": round(time.perf_counter() - start, 1)}
        if status != "passed":
            report["baseline"]["output"] = tail
            mutants = []  # a kill means nothing when the tests fail unmutated
        for m in mutants:
            path = copy / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                raise SystemExit(f"{m.name}: its snippet is not once in {m.file}")
            path.write_text(original.replace(m.old, m.new))
            began = time.perf_counter()
            try:
                status, code, tail = pytest(copy, m.tests, TIMEOUT)
            finally:
                path.write_text(original)
            verdict = VERDICTS.get(status, "error")
            entry = {"name": m.name, "file": m.file, "tests": list(m.tests),
                     "verdict": verdict, "pytest": status, "returncode": code,
                     "seconds": round(time.perf_counter() - began, 1)}
            if verdict != "killed":
                entry["output"] = tail
            report["mutants"].append(entry)
            report[verdict].append(m.name)
            print(f"{verdict:>8}  {entry['seconds']:6.1f} s  {m.name}", flush=True)
    report["seconds"] = round(time.perf_counter() - start, 1)
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{len(report['killed'])} killed, {len(report['survived'])} survived, "
          f"{len(report['error'])} errors in {report['seconds']} s; "
          f"baseline {report['baseline']['status']}; report in {args.report}")
    ok = report["baseline"]["status"] == "passed" and len(report["killed"]) == len(mutants)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
