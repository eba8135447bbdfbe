"""Tests for the experiment harness: dataset, config files, metrics
emission, the pipeline, ablation sweeps, and the CLI."""

import configparser
import dataclasses
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dfqgame import cli, game, nets, xp
from dfqgame.adapt import balance_gap
from dfqgame.engine import seeded_rng
from dfqgame.xp import (
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    METRICS_HEADER,
    ablation_sweep,
    config_to_text,
    default_config,
    emit_metrics,
    parse_config,
    run_experiment,
    synth_dataset,
)


def tiny_config(out_dir, **overrides) -> ExperimentConfig:
    """A seconds-scale pipeline config used across harness tests."""
    cfg = default_config()
    cfg = replace(
        cfg,
        out_dir=str(out_dir),
        pretrain_epochs=3,
        eval_period=1,
        dataset=DatasetSpec(class_count=4, input_dim=6, samples_per_class=25),
        network=nets.NetworkSpec(input_dim=6, hidden=(8, 8), class_count=4),
        generator=nets.GeneratorSpec(noise_dim=5, hidden=(8, 8),
                                     output_dim=6, class_count=4),
        hp=game.HyperParams(epochs=2, iters_per_epoch=3),
    )
    return replace(cfg, **overrides)


class TestSynthDataset:
    def test_shapes_and_split(self):
        spec = DatasetSpec()
        tx, ty, sx, sy = synth_dataset(spec, 0)
        assert tx.shape == (10 * 120, 20)
        assert sx.shape == (10 * 30, 20)
        assert set(ty) == set(range(10))

    def test_balanced_classes(self):
        _, ty, _, sy = synth_dataset(DatasetSpec(), 1)
        counts = np.bincount(ty)
        assert np.all(counts == counts[0])

    def test_deterministic_per_seed(self):
        a = synth_dataset(DatasetSpec(), 7)
        b = synth_dataset(DatasetSpec(), 7)
        np.testing.assert_array_equal(a[0], b[0])
        c = synth_dataset(DatasetSpec(), 8)
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("spec", [DatasetSpec(), DatasetSpec(4, 3, 21)])
    def test_equals_the_per_class_draws(self, spec):
        """One draw per array gives the bytes of drawing the centers pair by
        pair and the points class by class."""
        for seed in range(5):
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
            parts = [[], [], [], []]
            n_train = int(spec.samples_per_class * 0.8)
            for c in range(spec.class_count):
                pts = centers[c] + rng.standard_normal(
                    (spec.samples_per_class, spec.input_dim)) * scales[c]
                parts[0].append(pts[:n_train])
                parts[1].append(np.full(n_train, c, dtype=np.int64))
                parts[2].append(pts[n_train:])
                parts[3].append(np.full(spec.samples_per_class - n_train, c,
                                        dtype=np.int64))
            ref = [np.concatenate(part) for part in parts]
            out = synth_dataset(spec, seed)
            assert [(a.dtype, a.shape, a.tobytes()) for a in out] \
                == [(a.dtype, a.shape, a.tobytes()) for a in ref]

    def test_paired_classes_share_a_neighborhood(self):
        spec = DatasetSpec()
        tx, ty, _, _ = synth_dataset(spec, 3)
        mu = np.stack([tx[ty == c].mean(axis=0) for c in range(spec.class_count)])
        paired = np.linalg.norm(mu[0] - mu[1])
        cross = np.linalg.norm(mu[0] - mu[2])
        assert paired < cross

    def test_validation(self):
        with pytest.raises(ConfigError):
            DatasetSpec(class_count=3)  # pairs need an even count
        with pytest.raises(ConfigError):
            DatasetSpec(samples_per_class=5)
        with pytest.raises(ConfigError):
            DatasetSpec(spread=0.0)


class TestConfigFiles:
    def test_default_round_trip(self):
        cfg = default_config()
        assert parse_config(config_to_text(cfg)) == cfg

    def test_partial_file_keeps_defaults(self):
        cfg = parse_config("[experiment]\nseed = 9\nbits = 4\n")
        assert cfg.seed == 9 and cfg.bits == 4
        assert cfg.hp == game.HyperParams()

    def test_hyperparams_section(self):
        cfg = parse_config("[hyperparams]\ntau = 2.0\nlambda_l = 0.2\n")
        assert cfg.hp.tau == 2.0
        assert cfg.hp.lambda_l == 0.2

    def test_network_follows_dataset_dims(self):
        cfg = parse_config("[dataset]\ninput_dim = 12\nclass_count = 6\n")
        assert cfg.network.input_dim == 12
        assert cfg.network.class_count == 6
        assert cfg.generator.output_dim == 12

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nturbo = yes\n")

    def test_malformed_text_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("not an ini file at all [")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nseed = banana\n")

    def test_invalid_hyperparams_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[hyperparams]\nlambda_l = 0.9\nlambda_u = 0.1\n")

    @pytest.mark.parametrize("text", [
        "[experiment]\neval_period = 0\n",   # epoch % eval_period
        "[hyperparams]\nbatch_size = 1\n",   # batch norm needs two samples
        "[network]\nhidden = 0,64\n",        # weight init divides by a width
        "[generator]\nnoise_dim = 0\n",
        "[dataset]\ninput_dim = 0\n",
        "[experiment]\npretrain_batch = 1\n",  # every batch skipped, P untrained
        "[experiment]\npretrain_lr = nan\n",
        "[hyperparams]\nlr_q = -1\n",
        "[hyperparams]\nlr_g = inf\n",
        "[experiment]\nbits = 9\n",
        "[network]\ninput_dim = 7\n",        # P cannot read the dataset
        "[network]\nclass_count = 4\n",      # labels out of P's range
        "[experiment]\npretrain_epochs = -5\n",  # exits 0 with an untrained P
        "[hyperparams]\nepochs = -3\n",          # exits 0 with no game
        "[hyperparams]\niters_per_epoch = -1\n",
        "[hyperparams]\nlr_decay_period = -1\n",
        "[hyperparams]\nlr_decay_factor = -1\n",  # Q climbs its loss after a decay
        "[hyperparams]\nlr_decay_factor = nan\n",
        "[hyperparams]\nlr_decay_factor = inf\n",
        "[experiment]\nseed = -1\n",            # np.random.SeedSequence raises
        "[hyperparams]\nalpha = nan\n",         # non-finite generator loss
        "[hyperparams]\nbeta = nan\n",
        "[hyperparams]\ngamma = inf\n",
        "[hyperparams]\ntau = nan\n",           # non-finite calibration loss
        "[hyperparams]\ntau = inf\n",           # exits 0, Q gets no calibration
        "[dataset]\nspread = nan\n",            # misread as diverged pretraining
        "[dataset]\ncluster_scale = inf\n",
        "[dataset]\npair_offset = inf\n",
    ])
    def test_values_that_crash_mid_run_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_disable_round_trip(self):
        cfg = parse_config("[hyperparams]\ndisable = L_BNS, L_ds\n")
        assert cfg.hp.disable == ("L_ds", "L_BNS")
        assert "disable = L_ds,L_BNS" in config_to_text(cfg)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_every_setting_is_a_key(self):
        """config.ini holds every setting, so replaying it replays the run:
        a config that differs from the default in every field comes back
        whole (the generator's dimensions follow the dataset's)."""
        cfg = ExperimentConfig(
            seed=7, bits=4, out_dir="elsewhere", eval_period=3,
            pretrain_epochs=5, pretrain_lr=2e-3, pretrain_batch=8,
            dataset=DatasetSpec(class_count=4, input_dim=6, samples_per_class=30,
                                cluster_scale=0.5, pair_offset=0.2, spread=0.05),
            network=nets.NetworkSpec(input_dim=6, hidden=(8,), class_count=4),
            generator=nets.GeneratorSpec(noise_dim=5, hidden=(7, 9),
                                         output_dim=6, class_count=4),
            hp=game.HyperParams(
                alpha=0.2, beta=0.5, gamma=0.3, lambda_l=0.2, lambda_u=0.9,
                tau=2.0, lr_g=2e-3, lr_q=3e-4, batch_size=8, epochs=3,
                iters_per_epoch=4, lr_decay_factor=0.5, lr_decay_period=2,
                bns_stat="std", disable=("L_b",)))
        for owner in (cfg, cfg.dataset, cfg.network, cfg.generator, cfg.hp):
            default = type(owner)()
            same = [f.name for f in dataclasses.fields(owner)
                    if getattr(owner, f.name) == getattr(default, f.name)]
            assert not same, (type(owner).__name__, same)
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("name", ["seed", "eval_period", "pretrain_epochs",
                                      "pretrain_batch"])
    @pytest.mark.parametrize("value", [1.5, 3.0, True])
    def test_counts_checked_without_the_parser(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            replace(default_config(), **{name: value})

    @pytest.mark.parametrize("name", ["class_count", "input_dim",
                                      "samples_per_class"])
    def test_dataset_counts_must_be_integers(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            DatasetSpec(**{name: 20.0})

    def test_bits_checked_without_the_parser(self):
        for bits in (1, 3.5, np.int64(3)):  # QuantConfig's check, as ConfigError
            with pytest.raises(ConfigError):
                replace(default_config(), bits=bits)


class TestMetricsEmission:
    def _state_with_logs(self):
        rec = lambda a, b, c: game.IterationLog(
            epoch=0, iteration=a, l_ds=1.0, l_as=2.0, l_b=0.0, l_bns=b,
            l_g=c, l_q=0.5,
            bg=balance_gap(0.1, 0.2, 0.15),
            mean_h_norm=0.4, q_accuracy=None if a else 0.75)
        state = game.GameState(p=None, q=None, g=None, hp=game.HyperParams(),
                               opt_g=None, opt_q=None, probe_z=None,
                               probe_y=None)
        state.logs = [rec(0, 3.5, 4.1), rec(1, 3.25, 4.0)]
        return state

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "metrics.csv"
        emit_metrics(self._state_with_logs(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3

    def test_floats_round_trip_through_repr(self, tmp_path):
        path = tmp_path / "metrics.csv"
        emit_metrics(self._state_with_logs(), path)
        row = path.read_text().splitlines()[2].split(",")
        assert float(row[5]) == 3.25
        assert row[12] == ""  # accuracy column empty between eval periods

    def test_emission_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_metrics(self._state_with_logs(), a)
        emit_metrics(self._state_with_logs(), b)
        assert a.read_bytes() == b.read_bytes()


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        summary = run_experiment(cfg)
        for name in ("config.ini", "p.ckpt", "q.ckpt", "g.ckpt",
                     "metrics.csv", "summary.json"):
            assert os.path.exists(os.path.join(cfg.out_dir, name)), name
        on_disk = json.loads(Path(cfg.out_dir, "summary.json").read_text())
        assert on_disk == summary
        assert 0.0 <= summary["q_init_accuracy"] <= 1.0
        assert summary["p_accuracy"] >= 0.0

    def test_zero_epochs_summary_is_strict_json(self, tmp_path):
        cfg = tiny_config(tmp_path / "run",
                          hp=game.HyperParams(epochs=0, iters_per_epoch=3))
        run_experiment(cfg)

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        with open(os.path.join(cfg.out_dir, "summary.json")) as f:
            summary = json.load(f, parse_constant=reject)
        assert summary["mean_abs_bg_first_quartile"] is None
        assert summary["mean_abs_bg_last_quartile"] is None

    def test_metrics_row_per_iteration(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        run_experiment(cfg)
        lines = Path(cfg.out_dir, "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + cfg.hp.epochs * cfg.hp.iters_per_epoch

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("metrics.csv", "p.ckpt", "q.ckpt", "g.ckpt"):
            a = Path(cfg_a.out_dir, name).read_bytes()
            b = Path(cfg_b.out_dir, name).read_bytes()
            assert a == b, name

    def test_checkpoints_load_back(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        run_experiment(cfg)
        p = nets.load_checkpoint(os.path.join(cfg.out_dir, "p.ckpt"))
        q = nets.load_checkpoint(os.path.join(cfg.out_dir, "q.ckpt"))
        g = nets.load_checkpoint(os.path.join(cfg.out_dir, "g.ckpt"))
        assert isinstance(p, nets.MLP)
        assert isinstance(q, nets.QuantizedMLP) and q.cfg.bits == cfg.bits
        assert isinstance(g, nets.Generator)


class TestAblationSweep:
    def test_rows_and_report(self, tmp_path):
        cfg = tiny_config(tmp_path / "sweep")
        rows = ((), ("L_BNS",))
        results = ablation_sweep(cfg, rows=rows)
        assert [r["disabled"] for r in results] == [[], ["L_BNS"]]
        assert all("summary" in r for r in results)
        report = json.loads(Path(cfg.out_dir, "ablation.json").read_text())
        assert len(report) == 2

    def test_default_rows_include_statistics_only_baseline(self):
        assert ("L_ds", "L_as", "L_b") in xp.DEFAULT_ABLATION_ROWS


class TestCli:
    def test_print_config(self, capsys):
        assert cli.main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert parse_config(out) == default_config()

    @pytest.mark.parametrize("flags", [["--bits", "99"], ["--disable", "bogus"],
                                       ["--seed", "1"]])
    def test_print_config_rejects_flags(self, flags, capsys):
        # it prints the defaults, so a flag would be silently ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["print-config", *flags])
        assert exc.value.code == 2  # argparse's usage error
        assert capsys.readouterr().out == ""

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[mystery]\nx = 1\n")
        assert cli.main(["train", "--config", str(bad)]) == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.ini")]) \
            == cli.EXIT_CONFIG

    def test_bits_flag_validated(self):
        assert cli.main(["train", "--bits", "12"]) == cli.EXIT_CONFIG

    def test_negative_seed_flag_rejected(self, capsys):
        assert cli.main(["quantize-eval", "--seed", "-1"]) == cli.EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [
        ("train", "afile"), ("pretrain", "afile/x"), ("ablate", "afile")])
    def test_unusable_output_directory_exits_2(self, command, out, tmp_path,
                                               capsys, monkeypatch):
        (tmp_path / "afile").write_text("")
        # pretraining must not start: a run that reached it would fail here
        monkeypatch.setattr(xp, "pretrain", None)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--out", out]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_disable_flag_validated(self):
        assert cli.main(["train", "--disable", "L_nope"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--lambda-l", "0.9"], ["--tau", "-1"]])
    def test_hyperparameter_flags_validated(self, flags, capsys):
        assert cli.main(["quantize-eval", *flags]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_hyperparameter_flags_applied_together(self):
        # --lambda-l 0.85 alone is above the default lambda_u = 0.8
        args = cli.build_parser().parse_args(
            ["train", "--lambda-l", "0.85", "--lambda-u", "0.9"])
        hp = cli.load_config(args).hp
        assert (hp.lambda_l, hp.lambda_u) == (0.85, 0.9)

    def _tiny_ini(self, tmp_path, extra: str = "") -> str:
        """A seconds-scale config file; `extra` INI text may add sections
        or repeat one to override its keys."""
        cp = configparser.ConfigParser()
        cp.read_string(
            "[experiment]\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "pretrain_epochs = 3\n"
            "eval_period = 1\n"
            "[dataset]\n"
            "class_count = 4\ninput_dim = 6\nsamples_per_class = 25\n"
            "[network]\nhidden = 8,8\n"
            "[generator]\nnoise_dim = 5\nhidden = 8,8\n"
            "[hyperparams]\nepochs = 2\niters_per_epoch = 3\n")
        cp.read_string(extra)
        path = tmp_path / "cfg.ini"
        with open(path, "w") as f:
            cp.write(f)
        return str(path)

    def test_train_subcommand(self, tmp_path, capsys):
        code = cli.main(["train", "--config", self._tiny_ini(tmp_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert "q_final_accuracy" in summary
        assert os.path.exists(tmp_path / "out" / "metrics.csv")

    def test_pretrain_subcommand(self, tmp_path, capsys):
        code = cli.main(["pretrain", "--config", self._tiny_ini(tmp_path)])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
        assert os.path.exists(tmp_path / "out" / "p.ckpt")

    def test_quantize_eval_subcommand(self, tmp_path, capsys):
        code = cli.main(["quantize-eval", "--config", self._tiny_ini(tmp_path),
                         "--bits", "3"])
        assert code == 0
        assert "3-bit" in capsys.readouterr().out

    def test_ablate_subcommand(self, tmp_path, capsys):
        code = cli.main(["ablate", "--config", self._tiny_ini(tmp_path),
                         "--disable", "L_b"])
        assert code == 0
        assert "disabled=" in capsys.readouterr().out

    def test_ablate_records_an_unusable_row_directory(self, tmp_path, capsys):
        ini = self._tiny_ini(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "ablate_full").write_text("")
        assert cli.main(["ablate", "--config", ini]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "FAILED:" in lines[0] and "ablate_full" in lines[0]
        assert all("q_final=" in line for line in lines[1:])
        report = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert "ablate_full" in report[0]["error"]
        assert all("summary" in entry for entry in report[1:])

    def test_ablate_rows_replay(self, tmp_path, capsys):
        """Each row's config.ini names the terms it left out, so training
        on it writes the row's metrics again."""
        assert cli.main(["ablate", "--config", self._tiny_ini(tmp_path)]) == 0
        rows = sorted((tmp_path / "out").glob("ablate_*"))
        assert len(rows) == len(xp.DEFAULT_ABLATION_ROWS)
        for row in rows:
            replay = tmp_path / "replay" / row.name
            assert cli.main(["train", "--config", str(row / "config.ini"),
                             "--out", str(replay)]) == 0
            assert (replay / "metrics.csv").read_bytes() == \
                (row / "metrics.csv").read_bytes(), row.name

    def test_ablate_labels_rows_by_what_they_disable(self, tmp_path, capsys):
        """With --disable L_b the full row and the L_b row are one game: it
        runs once, and every row is labelled with what its config.ini says."""
        assert cli.main(["ablate", "--config", self._tiny_ini(tmp_path),
                         "--disable", "L_b"]) == 0
        printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        report = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert len(report) == 5
        sets = []
        for entry, line in zip(report, printed):
            recorded = parse_config(Path(entry["out_dir"], "config.ini").read_text())
            assert entry["disabled"] == list(recorded.hp.disable)
            assert line == "disabled=" + ",".join(entry["disabled"])
            sets.append(frozenset(entry["disabled"]))
        assert len(set(sets)) == 5 and all("L_b" in s for s in sets)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
    def test_diverged_pretraining_exits_3(self, tmp_path, capsys):
        ini = self._tiny_ini(tmp_path, "[experiment]\npretrain_lr = 1e200\n")
        assert cli.main(["pretrain", "--config", ini]) == cli.EXIT_NUMERICAL
        assert "numerical abort" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "p.ckpt")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
    def test_diverged_game_exits_3_and_keeps_p(self, tmp_path, capsys):
        ini = self._tiny_ini(tmp_path, "[hyperparams]\nlr_q = 1e200\n")
        assert cli.main(["train", "--config", ini]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical abort: epoch 0, iteration 1: " in err
        out = tmp_path / "out"
        nets.load_checkpoint(out / "p.ckpt")
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == xp.METRICS_HEADER
        assert [r.split(",")[:2] for r in rows[1:]] == [["0", "0"]]
        assert sorted(os.listdir(out)) == ["config.ini", "metrics.csv", "p.ckpt"]

    def test_flag_overrides_config(self, tmp_path):
        ini = self._tiny_ini(tmp_path)
        out2 = tmp_path / "other"
        code = cli.main(["train", "--config", ini, "--out", str(out2),
                         "--epochs", "1"])
        assert code == 0
        lines = (out2 / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 * 3
