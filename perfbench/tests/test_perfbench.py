"""Tests of the benchmark itself: traced counts repeat and follow the
structure of the game loop, the tracer leaves dfqgame as it found it, self
times add up, the per-run checks catch a broken artifact, and
BENCHMARK.json names the metrics the code reports."""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from dfqgame import cli, engine, xp  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

EPOCHS, ITERS_PER_EPOCH = 2, 3
TINY = {"experiment": {"pretrain_epochs": 1},
        "hyperparams": {"epochs": EPOCHS, "iters_per_epoch": ITERS_PER_EPOCH}}


def traced_run(tmp_path, command="train"):
    tmp_path.mkdir(exist_ok=True)
    config = tmp_path / "config.ini"
    config.write_text(run.config_text(run.Workload("", command, TINY), 3,
                                      tmp_path / "out"))
    with tracer.Tracer(traced=True) as t:
        start = time.perf_counter()
        assert cli.main([command, "--config", str(config)]) == 0
        wall = time.perf_counter() - start
    return t, wall


def counts_of(t):
    values, _ = tracer.layer_metrics(t.spans, t.counts)
    return {k: v for k, v in values.items() if isinstance(v, int)}


def test_two_traced_runs_give_identical_counts(tmp_path):
    a, _ = traced_run(tmp_path / "a")
    b, _ = traced_run(tmp_path / "b")
    assert a.counts == b.counts
    assert counts_of(a) == counts_of(b)
    assert [s[0] for s in a.spans] == [s[0] for s in b.spans]


def test_probe_counts_follow_the_game_loop(tmp_path):
    t, _ = traced_run(tmp_path)
    values, _ = tracer.layer_metrics(t.spans, t.counts)
    iterations = EPOCHS * ITERS_PER_EPOCH
    assert values["game.probe.calls"] == 3 * iterations
    assert values["game.probe_repeat_ratio"] == (iterations - 1) / (3 * iterations)
    assert values["game.max_step.calls"] == values["game.min_step.calls"] == iterations


def test_quantize_eval_has_no_game_spans(tmp_path):
    t, _ = traced_run(tmp_path, "quantize-eval")
    assert not [s for s in t.spans if s[0].startswith("game.")]
    _, absent = tracer.layer_metrics(t.spans, t.counts)
    assert "game.probe.calls" in absent


def test_patched_attributes_are_restored(tmp_path):
    targets = [(owner, attr) for _, owner, attr in tracer.TRACED]
    targets += [(engine.Tensor, a) for a in ("__init__", "_result", "matmul")]
    originals = [vars(owner)[attr] for owner, attr in targets]
    traced_run(tmp_path)
    assert all(vars(o)[a] is f for (o, a), f in zip(targets, originals))
    with pytest.raises(RuntimeError):
        with tracer.Tracer(traced=True):
            assert vars(engine.Tensor)["backward"] is not originals[targets.index(
                (engine.Tensor, "backward"))]
            raise RuntimeError("inside a traced run")
    assert all(vars(o)[a] is f for (o, a), f in zip(targets, originals))


def test_self_times_are_nonnegative_and_within_the_wall(tmp_path):
    t, wall = traced_run(tmp_path)
    own = tracer.self_times(t.spans)
    assert min(own) >= 0.0
    assert sum(own) <= wall


def test_train_check_rejects_a_broken_balance_gap(tmp_path):
    traced_run(tmp_path)
    out = tmp_path / "out"
    iterations = EPOCHS * ITERS_PER_EPOCH
    run.check_train(out, iterations, xp.METRICS_HEADER)
    lines = (out / "metrics.csv").read_text().splitlines()
    cols = xp.METRICS_HEADER.split(",")
    row = lines[1].split(",")
    row[cols.index("bg")] = repr(float(row[cols.index("bg")]) + 1e-6)
    lines[1] = ",".join(row)
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(run.RepFailed):
        run.check_train(out, iterations, xp.METRICS_HEADER)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert ({w["name"]: w["why"] for w in spec["workloads"]}
            == {name: w.why for name, w in run.WORKLOADS.items()})
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracer.LAYER_METRICS))
