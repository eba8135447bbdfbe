"""Outside-in benchmark of dfqgame.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each repetition runs one `dfqgame` command in a fresh process through
`dfqgame.cli.main` (see child.py), with BLAS pinned to one thread. The
workload turns the seed into an INI config; the program sees only that
config. Repetitions run back to back (a closed loop with one client) until
`--seconds` have passed, and every metric is the median over them.

With `--trace 0` the repetitions record only the command, `pretrain_p`,
`run_game` and Adam-step spans and the result holds the end-to-end metrics;
set-up time also counts five processes that stop at the call into the
command. With `--trace 1`, traced repetitions (every span of tracer.TRACED)
alternate with untraced ones and the result holds the per-layer metrics.

Every repetition is checked: exit code 0; for `train`, a `metrics.csv` with
the expected header, one row per game iteration and bg == delta_g - delta_q
in every row, and a strict-JSON `summary.json`; for `quantize-eval`, both
accuracy lines. All repetitions of a seed must give the same fingerprint
(sha256 of `metrics.csv`, or of the stdout of `quantize-eval`). Whether the
fingerprint equals the one recorded in baseline.json is reported as a flag.

The last line of stdout is the JSON result; the line before it is a JSON
report with the environment, fingerprint, accuracies and per-repetition
values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"

SETUP_PROBES = 5        # extra processes that stop at the call into the command
MIN_REPS = 2            # a fingerprint needs two repetitions to compare
MAX_FAILURES = 3
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"
BG_TOLERANCE = 1e-12

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("loop_iters_per_s", "1/s", "higher"),
    ("pretrain_steps_per_s", "1/s", "higher"),
    ("p_accuracy", "fraction", "higher"),
)


@dataclass(frozen=True)
class Workload:
    why: str
    command: str
    sections: dict  # INI overrides on top of the default config


WORKLOADS = {
    "desk": Workload(
        why="default game (width 64, batch 16, 3-bit) via train, 8 game epochs, "
            "pretrain cut to 20 so the game is ~75% of it; Python-overhead bound, "
            "so engine bookkeeping and probe reuse show here",
        command="train",
        sections={"experiment": {"pretrain_epochs": 20},
                  "hyperparams": {"epochs": 8}}),
    "wide": Workload(
        why="width 512 for P, Q and G via train, 3 pretrain and 1 game epoch; "
            "array bound, so fake_quantize of 512x512 weights and weight caching "
            "show here, and memory cost in peak RSS",
        command="train",
        sections={"experiment": {"pretrain_epochs": 3},
                  "network": {"hidden": "512,512"},
                  "generator": {"hidden": "512,512"},
                  "hyperparams": {"epochs": 1}}),
    "pretrain": Workload(
        why="quantize-eval on the default config: 3,040 Adam steps of P in "
            "train mode and one evaluation, no game; game-loop changes should "
            "leave it unchanged",
        command="quantize-eval",
        sections={}),
}


def config_text(workload: Workload, seed: int, out_dir: Path) -> str:
    sections = {name: dict(values) for name, values in workload.sections.items()}
    sections.setdefault("experiment", {}).update(seed=seed, out_dir=out_dir)
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) + "\n"
        for name, values in sections.items())


# -- environment -----------------------------------------------------------------


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


# -- one repetition --------------------------------------------------------------


class RepFailed(Exception):
    pass


def spawn(mode: str, args: list[str], result_path: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    result_path.unlink(missing_ok=True)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, str(result_path), repr(spawned),
             *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode}: no exit within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RepFailed(f"{mode}: exit {proc.returncode}: {tail[0]}")
    result = json.loads(result_path.read_text())
    result["stdout"] = proc.stdout
    return result


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_train(out_dir: Path, iterations: int, header: str) -> tuple[str, dict]:
    """Validate the artifacts of `train`; returns (fingerprint, accuracies)."""
    raw = (out_dir / "metrics.csv").read_bytes()
    lines = raw.decode().splitlines()
    if not lines or lines[0] != header:
        raise RepFailed("metrics.csv: unexpected header")
    if len(lines) - 1 != iterations:
        raise RepFailed(f"metrics.csv: {len(lines) - 1} rows, expected {iterations}")
    cols = header.split(",")
    bg, dg, dq = (cols.index(c) for c in ("bg", "delta_g", "delta_q"))
    for n, line in enumerate(lines[1:], 1):
        row = line.split(",")
        if abs(float(row[bg]) - (float(row[dg]) - float(row[dq]))) > BG_TOLERANCE:
            raise RepFailed(f"metrics.csv row {n}: bg != delta_g - delta_q")
    try:
        summary = json.loads((out_dir / "summary.json").read_text(),
                             parse_constant=_reject_constant)
    except ValueError as e:
        raise RepFailed(f"summary.json: {e}") from None
    accuracies = {k: summary[k] for k in
                  ("p_accuracy", "q_init_accuracy", "q_final_accuracy")}
    return hashlib.sha256(raw).hexdigest(), accuracies


QE_LINES = re.compile(r"P accuracy: (\S+)\nQ \(\d+-bit\) accuracy before "
                      r"calibration: (\S+)\n")


def check_quantize_eval(stdout: str) -> tuple[str, dict]:
    m = QE_LINES.fullmatch(stdout)
    if m is None:
        raise RepFailed("quantize-eval: accuracy lines missing")
    p, q = float(m.group(1)), float(m.group(2))
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise RepFailed("quantize-eval: accuracy outside [0, 1]")
    accuracies = {"p_accuracy": p, "q_init_accuracy": q}
    return hashlib.sha256(stdout.encode()).hexdigest(), accuracies


def find_span(spans: list, name: str) -> tuple[int, list]:
    for i, span in enumerate(spans):
        if span[0] == name:
            return i, span
    raise RepFailed(f"no {name} span")


def end_to_end(result: dict, workload: Workload, iterations: int) -> dict:
    spans = result["spans"]
    _, cmd = find_span(spans, "cli.command")
    p_index, pre = find_span(spans, "nets.pretrain_p")
    steps = sum(1 for s in spans if s[0] == "engine.adam_step" and s[3] == p_index)
    pretrain_rate = steps / (pre[2] - pre[1])
    if workload.command == "train":
        _, run_game = find_span(spans, "game.run_game")
        loop_rate = iterations / (run_game[2] - run_game[1])
    else:
        loop_rate = pretrain_rate
    return {
        "setup_s": cmd[1] - result["spawned"],
        "wall_s": cmd[2] - cmd[1],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "loop_iters_per_s": loop_rate,
        "pretrain_steps_per_s": pretrain_rate,
        "main_wall_s": result["main_wall_s"],
    }


# -- one benchmark run -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result, report) for one run of one workload."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from dfqgame import xp
    from tracer import LAYER_METRICS, layer_metrics

    workload = WORKLOADS[name]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    out_dir, config = work / "out", work / "config.ini"
    text = config_text(workload, seed, out_dir)
    cfg = xp.parse_config(text)
    iterations = cfg.hp.epochs * cfg.hp.iters_per_epoch
    args = [workload.command, "--config", str(config)]
    first = {}  # what every good repetition shares: fingerprint, accuracies, counts
    failures = []
    attempted = 0

    def attempt(mode: str):
        """Run and check one child; returns its measurements, or None."""
        nonlocal attempted
        attempted += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            result = spawn(mode, args, work / "result.json")
            if mode == "setup":
                return result["setup_s"]
            if workload.command == "train":
                fingerprint, first["accuracies"] = check_train(
                    out_dir, iterations, xp.METRICS_HEADER)
            else:
                fingerprint, first["accuracies"] = check_quantize_eval(result["stdout"])
            if first.setdefault("fingerprint", fingerprint) != fingerprint:
                raise RepFailed("fingerprint differs between repetitions")
            if mode == "timed":
                return end_to_end(result, workload, iterations)
            values, absent = layer_metrics(result["spans"], result["counts"])
            counts = {k: v for k, v in values.items() if isinstance(v, int)}
            if first.setdefault("counts", counts) != counts:
                raise RepFailed("per-layer counts differ between traced repetitions")
            first["absent"] = absent
            return values | {"main_wall_s": result["main_wall_s"]}
        except (RepFailed, OSError, ValueError, KeyError, IndexError) as e:
            failures.append(f"{mode}: {e}")
            return None

    setups, reps, layers = [], [], []
    try:
        config.write_text(text)
        attempt("setup")  # fills the page and bytecode caches; not measured
        deadline = time.perf_counter() + seconds
        if not trace:
            setups = [attempt("setup") for _ in range(SETUP_PROBES)]
        while ((time.perf_counter() < deadline
                or sum(r is not None for r in reps) < MIN_REPS)
               and len(failures) < MAX_FAILURES):
            reps.append(attempt("timed"))
            if trace:
                layers.append(attempt("traced"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    setups, reps, layers = ([x for x in xs if x is not None]
                            for xs in (setups, reps, layers))
    if not reps or (trace and not layers):
        raise SystemExit(f"perfbench: {name}: no repetition succeeded: {failures}")

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    if trace:
        # counts are equal across traced repetitions; attempt() checks it
        values = {k: v if isinstance(v, int) else median(layers, k)
                  for k, v in layers[0].items()}
        values["trace.overhead_ratio"] = (median(layers, "main_wall_s")
                                          / median(reps, "main_wall_s"))
        table = LAYER_METRICS
    else:
        values = {k: median(reps, k) for k in reps[0]}
        values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in reps])
        values["p_accuracy"] = first["accuracies"]["p_accuracy"]
        table = END_TO_END
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in table}

    recorded = _recorded_fingerprints().get(name, {}).get(str(seed))
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "fingerprint": first["fingerprint"],
        "fingerprint_matches_baseline": (None if recorded is None
                                         else first["fingerprint"] == recorded),
        "accuracies": first["accuracies"],
        "game_iterations": iterations if workload.command == "train" else 0,
        "repetitions": reps,
        "traced_walls_s": [row["main_wall_s"] for row in layers],
        "setup_samples": len(setups) + len(reps),
        "failures": failures,
        "not_exercised": first.get("absent", []),
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, report


def _recorded_fingerprints() -> dict:
    try:
        return json.loads(BASELINE.read_text()).get("fingerprints", {})
    except (OSError, ValueError):
        return {}


# -- entry point -------------------------------------------------------------------


def print_table(rows: list[tuple]) -> None:
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<9} {name:<36} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dfqgame" / "__init__.py").is_file():
        print(f"perfbench: no dfqgame sources under {SRC}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
        print(json.dumps(report))
        print(json.dumps(result))
        return 0

    rows = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, report = run_workload(name, args.seed, args.seconds, trace)
            rows.append((name, f"failure_share (trace {int(trace)})",
                         result["failed"] / result["attempted"], "fraction"))
            if not trace:
                rows.append((name, "fingerprint_matches_baseline",
                             str(report["fingerprint_matches_baseline"]), ""))
            for metric, entry in result["metrics"].items():
                rows.append((name, metric, entry["value"], entry["unit"]))
            if report["not_exercised"]:
                rows.append((name, f"not exercised by {WORKLOADS[name].command} (reads 0)",
                             ", ".join(report["not_exercised"]), ""))
            if report["failures"]:
                rows.append((name, "failures", "; ".join(report["failures"]), ""))
    print_table(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
