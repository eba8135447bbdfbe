"""Tests for the loss family and the alternating min-max loop."""

import contextlib
import copy
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from dfqgame import cli, game, nets, xp
from dfqgame.adapt import LogitsPair, game_value
from dfqgame.engine import Tensor, seeded_rng, softmax
from dfqgame.game import (
    HyperParams,
    LOSS_NAMES,
    ablation_config,
    draw_batch,
    generator_loss,
    init_game,
    loss_as,
    loss_bound,
    loss_bns,
    loss_ds,
    maximization_step,
    minimization_step,
    play_iteration,
    probe_game_value,
    run_game,
)
from dfqgame.nets import (
    Generator,
    GeneratorSpec,
    NetworkSpec,
    NumericalError,
    init_q_from_p,
    one_hot,
    pretrain_p,
)
from dfqgame.quant import QuantConfig, fake_quantize_array
from helpers import bg_halving_trial

SMALL = NetworkSpec(input_dim=6, hidden=(8, 8), class_count=4)
SMALL_GEN = GeneratorSpec(noise_dim=5, hidden=(8, 8), output_dim=6, class_count=4)


@pytest.fixture(scope="module")
def trained_setup():
    spec = xp.DatasetSpec(class_count=4, input_dim=6, samples_per_class=40)
    tx, ty, sx, sy = xp.synth_dataset(spec, 0)
    p = nets.MLP(SMALL, seeded_rng(3))
    pretrain_p(p, tx, ty, sx, sy, epochs=40, rng=seeded_rng(4))
    return p, (sx, sy)


def fresh_players(p, bits=3):
    q = init_q_from_p(p, QuantConfig(bits))
    g = Generator(SMALL_GEN, seeded_rng(11))
    return q, g


class TestHyperParams:
    def test_defaults_match_stated_constants(self):
        hp = HyperParams()
        assert (hp.alpha, hp.beta, hp.gamma) == (0.1, 1.0, 1.0)
        assert (hp.lambda_l, hp.lambda_u) == (0.3, 0.8)
        assert hp.tau == 1.0
        assert (hp.lr_g, hp.lr_q) == (1e-3, 1e-4)
        assert (hp.batch_size, hp.epochs, hp.iters_per_epoch) == (16, 100, 50)

    def test_bound_ordering_validated(self):
        with pytest.raises(ValueError):
            HyperParams(lambda_l=0.8, lambda_u=0.3)
        with pytest.raises(ValueError):
            HyperParams(lambda_l=-0.1)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            HyperParams(tau=0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=-1.0)

    def test_bns_stat_validated(self):
        with pytest.raises(ValueError):
            HyperParams(bns_stat="kurtosis")

    @pytest.mark.parametrize("name", ["batch_size", "epochs", "iters_per_epoch",
                                      "lr_decay_period"])
    @pytest.mark.parametrize("value", [16.0, 2.5, True, "16"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HyperParams(**{name: value})

    def test_disable_string_rejected(self):
        # a bare string would be read letter by letter
        with pytest.raises(ValueError, match="tuple of loss names, not 'L_b'"):
            HyperParams(disable="L_b")
        assert HyperParams(disable=("L_b",)).disable == ("L_b",)


class TestLosses:
    def test_loss_ds_is_cross_entropy(self):
        p_ds = Tensor(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        y = one_hot(np.array([0, 1]), 3)
        expect = -(math.log(0.7) + math.log(0.8)) / 2
        assert loss_ds(p_ds, y).item() == pytest.approx(expect, rel=1e-12)

    def test_loss_as_same_form(self):
        p_as = Tensor(np.array([[0.25, 0.75]]))
        y = one_hot(np.array([1]), 2)
        assert loss_as(p_as, y).item() == pytest.approx(-math.log(0.75))

    def test_loss_bound_inside_band_is_zero(self):
        h = Tensor(np.array([0.3, 0.5, 0.8]))
        assert loss_bound(h, 0.3, 0.8).item() == 0.0

    def test_loss_bound_hinge_values(self):
        assert loss_bound(Tensor(np.array([0.1])), 0.3, 0.8).item() == \
            pytest.approx(0.2)
        assert loss_bound(Tensor(np.array([0.9])), 0.3, 0.8).item() == \
            pytest.approx(0.1, abs=1e-12)

    def test_loss_bns_matched_stats_zero(self, trained_setup):
        p, _ = trained_setup
        mu = [Tensor(bn.running_mean.copy()) for _, bn in p.blocks]
        var = [Tensor(bn.running_var.copy()) for _, bn in p.blocks]
        rec = nets.BNStatsRecord(
            mean_generated=mu, var_generated=var,
            mean_stored=[bn.running_mean for _, bn in p.blocks],
            var_stored=[bn.running_var for _, bn in p.blocks])
        assert loss_bns(rec).item() == 0.0
        assert loss_bns(rec, "std").item() == 0.0

    def test_loss_bns_unit_mean_shift_counts_dimension(self):
        d = 8
        rec = nets.BNStatsRecord(
            mean_generated=[Tensor(np.ones(d))],
            var_generated=[Tensor(np.ones(d))],
            mean_stored=[np.zeros(d)], var_stored=[np.ones(d)])
        assert loss_bns(rec).item() == pytest.approx(float(d))

    def test_loss_bns_sign_symmetric(self):
        d = 4
        for sign in (1.0, -1.0):
            rec = nets.BNStatsRecord(
                mean_generated=[Tensor(sign * np.ones(d))],
                var_generated=[Tensor(np.ones(d))],
                mean_stored=[np.zeros(d)], var_stored=[np.ones(d)])
            assert loss_bns(rec).item() == pytest.approx(float(d))

    def test_loss_bns_std_convention(self):
        rec = nets.BNStatsRecord(
            mean_generated=[Tensor(np.zeros(1))],
            var_generated=[Tensor(np.array([4.0]))],
            mean_stored=[np.zeros(1)], var_stored=[np.array([1.0])])
        assert loss_bns(rec, "variance").item() == pytest.approx(9.0)
        assert loss_bns(rec, "std").item() == pytest.approx(1.0)


class TestGeneratorLoss:
    def test_components_recombine_exactly(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams()
        z, y = draw_batch(seeded_rng(0), 8, 5, 4)
        l_g, c = generator_loss(g, p, q, z, y, hp)
        recombined = (hp.alpha * (c["l_ds"] + c["l_as"])
                      + hp.beta * c["l_b"] + hp.gamma * c["l_bns"])
        assert l_g.item() == recombined  # exact float equality

    def test_zero_weights_zero_loss(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams(alpha=0.0, beta=0.0, gamma=0.0)
        z, y = draw_batch(seeded_rng(0), 8, 5, 4)
        l_g, _ = generator_loss(g, p, q, z, y, hp)
        assert l_g.item() == 0.0

    def test_split_weights_used_when_set(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams(alpha=0.5, disable=("L_ds",))
        z, y = draw_batch(seeded_rng(0), 8, 5, 4)
        l_g, c = generator_loss(g, p, q, z, y, hp)
        expect = 0.5 * c["l_as"] + hp.beta * c["l_b"] + hp.gamma * c["l_bns"]
        assert l_g.item() == pytest.approx(expect, rel=1e-12)


class TestCalibrationLoss:
    def test_tau_one_equals_game_value(self, trained_setup):
        p, _ = trained_setup
        rng = seeded_rng(5)
        lp = LogitsPair(Tensor(rng.standard_normal((8, 4))),
                        Tensor(rng.standard_normal((8, 4))))
        assert game_value(lp, tau=1.0).item() == pytest.approx(
            game_value(lp).item(), abs=1e-12)

    def test_temperature_softens_distribution(self):
        rng = seeded_rng(6)
        lp = LogitsPair(Tensor(rng.standard_normal((8, 4)) * 5),
                        Tensor(rng.standard_normal((8, 4)) * 5))
        p_hot = softmax(lp.z_p - lp.z_q, temperature=10.0).data
        p_cold = softmax(lp.z_p - lp.z_q, temperature=0.5).data
        assert p_hot.max() < p_cold.max()


class TestSteps:
    def test_draw_batch_shapes(self):
        z, y = draw_batch(seeded_rng(0), 12, 5, 4)
        assert z.shape == (12, 5)
        assert y.shape == (12, 4)
        np.testing.assert_array_equal(y.data.sum(axis=1), np.ones(12))

    def test_maximization_leaves_q_bit_identical(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        before = [t.data.copy() for t in q.parameters()]
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        maximization_step(state, z, y)
        for t, b in zip(q.parameters(), before):
            np.testing.assert_array_equal(t.data, b)

    def test_maximization_moves_g(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        before = [t.data.copy() for t in g.parameters()]
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        maximization_step(state, z, y)
        moved = sum(np.abs(t.data - b).max() for t, b in
                    zip(g.parameters(), before))
        assert moved > 0.0

    def test_maximization_leaves_g_running_statistics(self, trained_setup):
        """The max step runs G on batch statistics without updating the
        running ones, which nothing reads."""
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        maximization_step(state, z, y)
        for _, bn in g.blocks:
            assert bn.running_mean.tobytes() == np.zeros(bn.width).tobytes()
            assert bn.running_var.tobytes() == np.ones(bn.width).tobytes()

    def test_minimization_leaves_g_bit_identical(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        before = [t.data.copy() for t in g.parameters()]
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        minimization_step(state, z, y)
        for t, b in zip(g.parameters(), before):
            np.testing.assert_array_equal(t.data, b)

    def test_zero_learning_rates_freeze_both(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams(lr_g=0.0, lr_q=0.0, epochs=1, iters_per_epoch=3)
        snap_g = [t.data.copy() for t in g.parameters()]
        snap_q = [t.data.copy() for t in q.parameters()]
        state = run_game(p, q, g, hp, seeded_rng(0))
        for t, b in zip(g.parameters(), snap_g):
            np.testing.assert_array_equal(t.data, b)
        for t, b in zip(q.parameters(), snap_q):
            np.testing.assert_array_equal(t.data, b)
        for log in state.logs:
            assert log.bg.bg == 0.0
            assert log.bg.delta_g == 0.0 and log.bg.delta_q == 0.0

    def test_init_game_leaves_p_flags_as_given(self, trained_setup):
        p = copy.deepcopy(trained_setup[0])
        q, g = fresh_players(p)
        params = p.parameters()
        flags = [i % 2 == 0 for i in range(len(params))]
        for t, flag in zip(params, flags):
            t.requires_grad = flag
        init_game(p, q, g, HyperParams(), seeded_rng(0))
        assert [t.requires_grad for t in params] == flags

    def test_a_non_finite_calibration_loss_is_a_numerical_error(self, trained_setup,
                                                                 monkeypatch):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        monkeypatch.setattr(game, "game_value", lambda lp, tau: Tensor(np.nan))
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        with pytest.raises(NumericalError, match=r"^non-finite calibration loss: nan$"):
            minimization_step(state, z, y)


class TestSpentGradients:
    """No gradient outlives the optimizer step that used it."""

    def test_pretrain_p_releases_p_gradients(self):
        spec = xp.DatasetSpec(class_count=4, input_dim=6, samples_per_class=20)
        tx, ty, sx, sy = xp.synth_dataset(spec, 0)
        p = nets.MLP(SMALL, seeded_rng(3))
        pretrain_p(p, tx, ty, sx, sy, epochs=1, rng=seeded_rng(4))
        assert all(t.grad is None for t in p.parameters())

    def test_steps_release_their_players_gradients(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        maximization_step(state, z, y)
        assert all(t.grad is None for t in g.parameters() + p.parameters())
        minimization_step(state, z, y)
        assert all(t.grad is None for t in q.parameters() + p.parameters())


class TestRequiresGradFlags:
    """Forwards run frozen, then every flag is put back as it was."""

    def _setup(self, p):
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        params = p.parameters() + q.parameters() + g.parameters()
        for i, t in enumerate(params):
            t.requires_grad = i % 3 != 0  # a mix that no freeze produces
        return state, params, [t.requires_grad for t in params]

    def test_flags_restored_after_each_forward(self, trained_setup):
        p, (sx, sy) = trained_setup
        state, params, flags = self._setup(p)
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        probe_game_value(state.g, p, state.q, state.probe_z, state.probe_y)
        assert [t.requires_grad for t in params] == flags
        maximization_step(state, z, y)
        assert [t.requires_grad for t in params] == flags
        minimization_step(state, z, y)
        assert [t.requires_grad for t in params] == flags
        for net in (p, state.q):
            nets.accuracy(net, sx, sy)
            assert [t.requires_grad for t in params] == flags

    def test_flags_restored_when_the_forward_raises(self, trained_setup):
        p, (sx, sy) = trained_setup
        state, params, flags = self._setup(p)
        z, _ = draw_batch(seeded_rng(1), 8, 5, 4)
        bad_y = Tensor(np.full((8, 4), 0.25))  # not one-hot: G raises
        with pytest.raises(ValueError):
            probe_game_value(state.g, p, state.q, z, bad_y)
        assert [t.requires_grad for t in params] == flags
        with pytest.raises(ValueError):
            maximization_step(state, z, bad_y)
        assert [t.requires_grad for t in params] == flags
        with pytest.raises(ValueError):
            minimization_step(state, z, bad_y)
        assert [t.requires_grad for t in params] == flags
        for net in (p, state.q):
            with pytest.raises(ValueError):  # ShapeMismatchError
                nets.accuracy(net, sx[:, :3], sy)
            assert [t.requires_grad for t in params] == flags


class TestRunGame:
    def test_log_count_and_bg_identity(self, trained_setup):
        p, eval_data = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams(epochs=2, iters_per_epoch=5)
        state = run_game(p, q, g, hp, seeded_rng(0), eval_data=eval_data,
                         eval_period=1)
        assert len(state.logs) == 10
        for log in state.logs:
            assert log.bg.bg == log.bg.delta_g - log.bg.delta_q
            assert math.isfinite(log.l_g)
            assert 0.0 <= log.mean_h_norm <= 1.0

    def test_l_q_equals_game_value_on_minimization_batch(self, trained_setup):
        # tau=1: the logged calibration loss is the game value of that batch
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams(epochs=1, iters_per_epoch=2)
        state = run_game(p, q, g, hp, seeded_rng(0))
        for log in state.logs:
            assert 0.0 <= log.l_q <= 1.0

    def test_deterministic_given_seed(self, trained_setup):
        p, _ = trained_setup
        hp = HyperParams(epochs=1, iters_per_epoch=4)
        logs = []
        for _ in range(2):
            q, g = fresh_players(p)
            state = run_game(p, q, g, hp, seeded_rng(42))
            logs.append([(l.l_g, l.l_q, l.bg.bg) for l in state.logs])
        assert logs[0] == logs[1]

    def test_lr_decay_applied(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams(epochs=3, iters_per_epoch=1, lr_decay_period=1,
                         lr_decay_factor=0.1)
        state = run_game(p, q, g, hp, seeded_rng(0))
        assert state.opt_q.lr == pytest.approx(hp.lr_q * 0.01)

    def test_zero_epochs_no_logs(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = run_game(p, q, g, HyperParams(epochs=0), seeded_rng(0))
        assert state.logs == []


class TestProbe:
    def test_probe_is_pure_function_of_params(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        v1 = probe_game_value(g, p, q, state.probe_z, state.probe_y)
        v2 = probe_game_value(g, p, q, state.probe_z, state.probe_y)
        assert v1 == v2
        assert 0.0 <= v1 <= 1.0

    def test_probe_untouched_by_evaluation(self, trained_setup):
        p, eval_data = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        v1 = probe_game_value(g, p, q, state.probe_z, state.probe_y)
        nets.accuracy(q, eval_data[0], eval_data[1])
        v2 = probe_game_value(g, p, q, state.probe_z, state.probe_y)
        assert v1 == v2


class TestProbeCache:
    """A probe with the game's cache returns bitwise what an uncached probe
    returns, and runs only the forwards its place in the iteration names."""

    def test_every_cached_probe_equals_an_uncached_one(self, trained_setup,
                                                       probe_path, monkeypatch,
                                                       tmp_path):
        """Each process that evaluates R writes, for each of its probes,
        the cache's count, the cached R and an uncached R at that point."""
        probe, seen = game.probe_game_value, tmp_path / "probes"

        def compared(*args):
            r = probe(*args)
            if isinstance(args[-1], game.ProbeCache):
                with open(seen, "a") as f:
                    f.write(f"{args[-1].count - 1} {r.hex()} {probe(*args[:-1]).hex()}\n")
            return r

        monkeypatch.setattr(game, "probe_game_value", compared)
        p, eval_data = trained_setup
        q, g = fresh_players(p)
        # a learning-rate decay and an evaluation between iterations as well
        hp = HyperParams(epochs=2, iters_per_epoch=3, lr_decay_period=1)
        with deadline(60):
            run_game(p, q, g, hp, seeded_rng(0), eval_data=eval_data, eval_period=1)
        rows = [line.split() for line in seen.read_text().splitlines()]
        assert [int(k) for k, _, _ in rows] == list(range(3 * 6))
        assert all(cached == fresh for _, cached, fresh in rows)

    def test_every_q_forward_uses_its_current_weights(self, trained_setup,
                                                      probe_path, monkeypatch,
                                                      tmp_path):
        """Each process that runs Q writes, for each quantized weight a
        forward uses, its pid and whether it is bitwise a fresh
        fake_quantize_array of the weight as it is then."""
        fq_weight, seen = nets.QuantizedMLP._fq_weight, tmp_path / "weights"

        def compared(q, w):
            out = fq_weight(q, w)
            fresh = fake_quantize_array(w.data, q.cfg.bits)
            with open(seen, "a") as f:
                f.write(f"{os.getpid()} {out.data.tobytes() == fresh.tobytes()}\n")
            return out

        monkeypatch.setattr(nets.QuantizedMLP, "_fq_weight", compared)
        p, eval_data = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams(epochs=2, iters_per_epoch=3, lr_decay_period=1)
        with deadline(60):
            run_game(p, q, g, hp, seeded_rng(0), eval_data=eval_data, eval_period=1)
        rows = [line.split() for line in seen.read_text().splitlines()]
        assert {same for _, same in rows} == {"True"}
        pids = {int(pid) for pid, _ in rows}
        assert os.getpid() in pids and len(pids) == 1 + (probe_path == "worker")

    def test_each_place_runs_its_forwards(self, trained_setup, monkeypatch):
        p = trained_setup[0]
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        calls, runs = [], []
        for cls in (nets.Generator, nets.MLP, nets.QuantizedMLP):
            def counted(net, *args, _forward=cls.forward, **kwargs):
                calls.append(type(net).__name__)
                return _forward(net, *args, **kwargs)
            monkeypatch.setattr(cls, "forward", counted)
        probe = game.probe_game_value

        def recorded(*args):
            calls.clear()
            r = probe(*args)
            runs.append(list(calls))
            return r

        monkeypatch.setattr(game, "probe_game_value", recorded)
        rng = seeded_rng(1)
        for _ in range(3):
            play_iteration(state, draw_batch(rng, 16, 5, 4), draw_batch(rng, 16, 5, 4))
        every, q_only = ["Generator", "MLP", "QuantizedMLP"], ["QuantizedMLP"]
        assert runs == [every, every, q_only] + [[], every, q_only] * 2


class TestAblation:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ablation_config(HyperParams(), ("L_nope",))

    def test_empty_disable_is_identity(self):
        hp = HyperParams()
        assert ablation_config(hp, ()) == hp

    def test_disable_bound_and_bns(self):
        hp = ablation_config(HyperParams(), ("L_BNS", "L_b"))
        assert hp.disable == ("L_b", "L_BNS")  # in LOSS_NAMES order
        # the weights keep their values, so config.ini names the terms left out
        assert (hp.alpha, hp.beta, hp.gamma) == (0.1, 1.0, 1.0)
        assert ablation_config(hp, ("L_ds", "L_b")).disable == ("L_ds", "L_b", "L_BNS")

    def test_ds_and_as_toggle_independently(self):
        assert ablation_config(HyperParams(), ("L_ds",)).disable == ("L_ds",)
        assert ablation_config(HyperParams(), ("L_as",)).disable == ("L_as",)

    def test_all_disabled_null_objective(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = ablation_config(HyperParams(), LOSS_NAMES)
        z, y = draw_batch(seeded_rng(0), 8, 5, 4)
        l_g, _ = generator_loss(g, p, q, z, y, hp)
        assert l_g.item() == 0.0


class TestBgHalvingTrial:
    def test_full_steps_match_a_plain_run(self, trained_setup):
        """The half-rate detours leave the full-step run bit for bit as a
        plain run of play_iteration on the same batches."""
        p, _ = trained_setup
        hp = HyperParams()
        q, g = fresh_players(p)
        pairs = bg_halving_trial(p, q, g, hp, seeded_rng(0), iterations=3)
        q_plain, g_plain = fresh_players(p)
        rng = seeded_rng(0)
        state = init_game(p, q_plain, g_plain, hp, rng)
        plain = [play_iteration(state, *[draw_batch(rng, hp.batch_size, 5, 4)
                                         for _ in range(2)]).bg
                 for _ in range(3)]
        assert [repr(astuple(full)) for full, _ in pairs] \
            == [repr(astuple(bg)) for bg in plain]
        assert [a.tobytes() for _, a in g.named_arrays() + q.named_arrays()] \
            == [a.tobytes() for _, a in g_plain.named_arrays() + q_plain.named_arrays()]

    def test_a_deep_copied_state_steps_its_own_players(self, trained_setup):
        """The detour's copy: its optimizers step the copy's tensors, though
        a deepcopy turns every view of a packed buffer into its own array."""
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        half = copy.deepcopy(state)
        players = lambda s: s.g.parameters() + s.q.parameters()
        before = [t.data.tobytes() for t in players(state)]
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        maximization_step(half, z, y)
        minimization_step(half, z, y)
        assert [t.data.tobytes() for t in players(state)] == before
        moved = [t.data.tobytes() != b for t, b in zip(players(half), before)]
        assert moved[0] and all(moved[len(g.parameters()):])
        assert not any(np.shares_memory(a.data, b.data)
                       for a, b in zip(players(half), players(state)))

    def test_produces_paired_records(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        hp = HyperParams()
        pairs = bg_halving_trial(p, q, g, hp, seeded_rng(0), iterations=5)
        assert len(pairs) == 5
        for full, half in pairs:
            assert full.bg == full.delta_g - full.delta_q
            assert half.bg == half.delta_g - half.delta_q

    def test_halved_step_gives_smaller_gap_magnitude(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        pairs = bg_halving_trial(p, q, g, HyperParams(), seeded_rng(0),
                                 iterations=20)
        full = np.mean([abs(f.bg) for f, _ in pairs])
        half = np.mean([abs(h.bg) for _, h in pairs])
        assert half < full


def plain_game(p, hp, rng, eval_data, eval_period):
    """run_game written out as a loop of play_iteration, in this process:
    (state, None), or (state, message) at the NumericalError it stops at."""
    q, g = fresh_players(p)
    state = init_game(p, q, g, hp, rng)
    for epoch in range(hp.epochs):
        if epoch > 0 and epoch % hp.lr_decay_period == 0:
            state.opt_q.lr *= hp.lr_decay_factor
        for it in range(hp.iters_per_epoch):
            batches = [draw_batch(rng, hp.batch_size, 5, 4) for _ in range(2)]
            try:
                log = play_iteration(state, *batches, epoch, it)
            except NumericalError as e:
                return state, f"epoch {epoch}, iteration {it}: {e}"
            if eval_data is not None and it == hp.iters_per_epoch - 1 and (
                    epoch % eval_period == 0 or epoch == hp.epochs - 1):
                log.q_accuracy = nets.accuracy(q, *eval_data)
            state.logs.append(log)
    return state, None


def fail_on_r_evaluation(monkeypatch, k):
    """Make the k-th R evaluation raise NumericalError, counted in the
    process that evaluates R: the one whose probe calls do not hand the
    probe to a ProbeWorker."""
    probe, evaluations = game.probe_game_value, []

    def failing(*args):
        if not isinstance(args[-1], game.ProbeWorker):
            evaluations.append(None)
            if len(evaluations) == k:
                raise NumericalError(f"R evaluation {k} failed")
        return probe(*args)

    monkeypatch.setattr(game, "probe_game_value", failing)


def fail_on_step(monkeypatch, name, k, error):
    """Make the k-th call of `game.<name>` raise `error` before it steps."""
    step, calls = getattr(game, name), []

    def failing(*args):
        calls.append(None)
        if len(calls) == k:
            raise error
        return step(*args)

    monkeypatch.setattr(game, name, failing)


def logs_and_players(state):
    return ([repr(astuple(log)) for log in state.logs],
            [a.tobytes() for _, a in state.g.named_arrays() + state.q.named_arrays()])


# twice the threads of any process the tests run in: a probe worker fits
ENOUGH_CPUS = 1024


class _Hung(BaseException):
    """A block ran past its deadline; no `except Exception` takes it."""


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, a block that runs longer than `seconds`."""
    def expire(signum, frame):
        raise _Hung(f"no end within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def in_the_worker(monkeypatch, act):
    """Run `act()` before each `np.copyto` that a forked process makes,
    which in a probe worker first copies a stepped player's buffer."""
    main, copyto = os.getpid(), np.copyto

    def patched(*args, **kwargs):
        if os.getpid() != main:
            act()
        return copyto(*args, **kwargs)

    monkeypatch.setattr(np, "copyto", patched)


@pytest.fixture(params=["worker", "in_process"])
def probe_path(request, monkeypatch):
    """run_game with its probe worker, or forced to probe in-process;
    either way the test checks that the chosen path ran."""
    monkeypatch.setattr(game, "_usable_cpus",
                        lambda: ENOUGH_CPUS if request.param == "worker" else 1)
    started, init = [], game.ProbeWorker.__init__

    def counted(worker, state):
        started.append(worker)
        init(worker, state)

    monkeypatch.setattr(game.ProbeWorker, "__init__", counted)
    yield request.param
    assert len(started) == (request.param == "worker")


def _game_in_a_pool_worker(p):
    """A game in a daemonic multiprocessing worker, which may start no
    process, on a machine that would give it a probe worker."""
    game._usable_cpus = lambda: ENOUGH_CPUS  # this pool worker's copy only
    return logs_and_players(TestProbeWorker()._run(p, None))


class TestProbeWorker:
    """run_game gives the bytes of a plain play_iteration loop, with its
    probe worker and without, and leaves no process behind."""

    HP = HyperParams(epochs=3, iters_per_epoch=4, lr_decay_period=1,
                     lr_decay_factor=0.5)

    def _run(self, p, eval_data, hp=HP):
        """run_game on fresh players; a hang fails instead."""
        q, g = fresh_players(p)
        with deadline(60):
            return run_game(p, q, g, hp, seeded_rng(0), eval_data=eval_data,
                            eval_period=2)

    def test_equals_a_plain_loop(self, trained_setup, probe_path):
        p, eval_data = trained_setup
        ref, message = plain_game(p, self.HP, seeded_rng(0), eval_data, 2)
        assert message is None
        state = self._run(p, eval_data)
        assert logs_and_players(state) == logs_and_players(ref)
        assert state.opt_q.lr == ref.opt_q.lr

    def test_probes_at_the_games_temperature(self, trained_setup, probe_path,
                                             monkeypatch, tmp_path):
        """With tau = 2, each R is game_value(..., tau=2) of the probe batch
        (written by whichever process evaluates it), which is the value Q's
        step descends, not the value at temperature 1."""
        probe, seen = game.probe_game_value, tmp_path / "probes"

        def compared(*args):
            r = probe(*args)
            g, p, q, z, y = args[:5]
            if isinstance(args[-1], game.ProbeCache):
                x = g.forward(z, y)
                lp = LogitsPair(p.forward(x), q.forward(x))
                with open(seen, "a") as f:
                    f.write(f"{r.hex()} {game_value(lp, tau=2.0).item().hex()} "
                            f"{game_value(lp).item().hex()}\n")
            return r

        monkeypatch.setattr(game, "probe_game_value", compared)
        hp = replace(self.HP, tau=2.0)
        state = self._run(trained_setup[0], None, hp)
        rows = [[float.fromhex(v) for v in line.split()]
                for line in seen.read_text().splitlines()]
        assert len(rows) == 3 * len(state.logs) == 3 * hp.epochs * hp.iters_per_epoch
        assert all(r == at_2 for r, at_2, _ in rows)
        assert any(r != at_1 for r, _, at_1 in rows)
        logged = [v for log in state.logs
                  for v in (log.bg.r_before, log.bg.r_mid, log.bg.r_after)]
        assert logged == [r for r, _, _ in rows]
        for log in state.logs:
            assert log.bg.bg == log.bg.delta_g - log.bg.delta_q

    def test_p_is_handed_back_as_it_came(self, trained_setup, probe_path):
        """P never steps: after a game its flags are as they were given, its
        arrays bit-identical and it holds no gradient, and it trains on."""
        p = copy.deepcopy(trained_setup[0])
        for t in p.parameters():
            t.requires_grad = True  # as pretrain_p leaves it
        before = [a.tobytes() for _, a in p.named_arrays()]
        self._run(p, None)
        assert all(t.requires_grad for t in p.parameters())
        assert [a.tobytes() for _, a in p.named_arrays()] == before
        assert all(t.grad is None for t in p.parameters())
        spec = xp.DatasetSpec(class_count=4, input_dim=6, samples_per_class=20)
        weight = p.parameters()[0]
        played = weight.data.copy()
        pretrain_p(p, *xp.synth_dataset(spec, 0), epochs=1, rng=seeded_rng(4))
        assert not np.array_equal(weight.data, played)

    def test_the_returned_state_plays_on(self, trained_setup, probe_path):
        """A further play_iteration on run_game's state probes in this
        process, with the bytes of a loop that probed in-process throughout."""
        p = trained_setup[0]
        ref, message = plain_game(p, self.HP, seeded_rng(0), None, 2)
        assert message is None
        state = self._run(p, None)
        batches = [draw_batch(seeded_rng(1), self.HP.batch_size, 5, 4) for _ in range(2)]
        for s in (state, ref):
            s.logs.append(play_iteration(s, *batches))
        assert math.isfinite(state.logs[-1].bg.bg)
        assert logs_and_players(state) == logs_and_players(ref)

    def test_the_state_of_an_error_plays_on(self, trained_setup, probe_path,
                                            monkeypatch):
        fail_on_r_evaluation(monkeypatch, 8)  # iteration 2, between the steps
        with pytest.raises(NumericalError) as info:
            self._run(trained_setup[0], None)
        state = info.value.state
        batches = [draw_batch(seeded_rng(1), self.HP.batch_size, 5, 4) for _ in range(2)]
        assert math.isfinite(play_iteration(state, *batches).bg.bg)

    @pytest.mark.parametrize("failure", ["probe", "min_step"])
    def test_the_state_of_an_error_plays_on_from_a_fresh_cache(
            self, trained_setup, probe_path, monkeypatch, failure):
        """An error in the middle of an iteration (the R evaluation between
        the steps of iteration 2, or iteration 2's min step) leaves no probe
        count behind: err.state's next iteration has the bytes of a copy of
        it given a fresh ProbeCache."""
        with monkeypatch.context() as m:
            if failure == "probe":
                fail_on_r_evaluation(m, 8)
            else:
                fail_on_step(m, "minimization_step", 3, NumericalError("min step failed"))
            with pytest.raises(NumericalError) as info:
                self._run(trained_setup[0], None)
        state = info.value.state
        fresh = copy.deepcopy(state)
        fresh.probe_cache = game.ProbeCache()
        batches = [draw_batch(seeded_rng(1), self.HP.batch_size, 5, 4) for _ in range(2)]
        for s in (state, fresh):
            s.logs.append(play_iteration(s, *batches))
        assert logs_and_players(state) == logs_and_players(fresh)

    def test_another_exception_is_raised_as_it_came(self, trained_setup, probe_path,
                                                     monkeypatch):
        """A ValueError in the 5th max step is raised as it came, after the
        worker has finished, and leaves no process behind (see conftest)."""
        error = ValueError("max step failed")
        fail_on_step(monkeypatch, "maximization_step", 5, error)
        with pytest.raises(ValueError) as info:
            self._run(*trained_setup)
        assert info.value is error
        assert multiprocessing.active_children() == []

    # 1: the first probe; 6: the last of iteration 1; 8: the one between the
    # steps of iteration 2; 14: the one between the steps of epoch 1's first;
    # 35 and 36: the last two of the game, after which the loop reads nothing
    # from a worker until it finishes
    @pytest.mark.parametrize("k", [1, 6, 8, 14, 35, 36])
    def test_a_probe_failure_equals_a_plain_loop(self, trained_setup, probe_path,
                                                 monkeypatch, k):
        p, eval_data = trained_setup
        fail_on_r_evaluation(monkeypatch, k)
        ref, message = plain_game(p, self.HP, seeded_rng(0), eval_data, 2)
        assert message is not None
        fail_on_r_evaluation(monkeypatch, k)
        with pytest.raises(NumericalError) as info:
            self._run(p, eval_data)
        assert str(info.value) == message
        assert logs_and_players(info.value.state)[0] == logs_and_players(ref)[0]

    def test_train_exits_3_with_the_in_process_rows(self, tmp_path, monkeypatch,
                                                    capsys):
        ends = []
        for cpus in (1, ENOUGH_CPUS):
            monkeypatch.setattr(game, "_usable_cpus", lambda: cpus)
            fail_on_r_evaluation(monkeypatch, 8)  # iteration 2, between the steps
            out = tmp_path / str(cpus)
            ini = tmp_path / "cfg.ini"
            ini.write_text(
                f"[experiment]\nout_dir = {out}\npretrain_epochs = 3\n"
                "[dataset]\nclass_count = 4\ninput_dim = 6\nsamples_per_class = 25\n"
                "[network]\nhidden = 8,8\n"
                "[generator]\nnoise_dim = 5\nhidden = 8,8\n"
                "[hyperparams]\nepochs = 2\niters_per_epoch = 3\n")
            with deadline(60):
                code = cli.main(["train", "--config", str(ini)])
            ends.append((code, capsys.readouterr(),
                         (out / "metrics.csv").read_text().splitlines()))
        assert ends[0] == ends[1]
        code, captured, rows = ends[1]
        assert code == cli.EXIT_NUMERICAL
        assert captured.err == "numerical abort: epoch 0, iteration 2: R evaluation 8 failed\n"
        assert [r.split(",")[:2] for r in rows[1:]] == [["0", "0"], ["0", "1"]]

    @pytest.mark.parametrize("end", ["return", "raise", "interrupt"])
    def test_no_worker_outlives_the_loop(self, trained_setup, monkeypatch, capfd, end):
        monkeypatch.setattr(game, "_usable_cpus", lambda: ENOUGH_CPUS)
        expected = {"raise": NumericalError, "interrupt": KeyboardInterrupt}.get(end)
        if end == "raise":
            fail_on_r_evaluation(monkeypatch, 5)
        if end == "interrupt":
            fail_on_step(monkeypatch, "minimization_step", 3, KeyboardInterrupt)
        p, eval_data = trained_setup
        if expected is None:
            self._run(p, eval_data)
        else:
            with pytest.raises(expected):
                self._run(p, eval_data)
        assert multiprocessing.active_children() == []
        assert capfd.readouterr().err == ""

    def test_a_worker_that_dies_is_an_error_not_a_hang(self, trained_setup,
                                                       monkeypatch):
        monkeypatch.setattr(game, "_usable_cpus", lambda: ENOUGH_CPUS)
        main, probe = os.getpid(), game.probe_game_value

        def dying(*args):
            if os.getpid() != main:
                os._exit(7)
            return probe(*args)

        monkeypatch.setattr(game, "probe_game_value", dying)
        with pytest.raises(RuntimeError, match=r"exit code 7\)"):
            self._run(*trained_setup)

    def test_the_cli_imports_no_multiprocessing(self):
        """Set-up and runs without a game do not pay for the worker's import."""
        code = "import sys, dfqgame.cli; print('multiprocessing' in sys.modules)"
        src = os.path.dirname(os.path.dirname(game.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert out.stdout == "False\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no worker where /proc lists no threads")
    @pytest.mark.parametrize("setting, numpy_first", [
        (None, False),  # the CLI's plan: one BLAS thread
        ("2", False),   # the user's
        (None, True),   # a caller that loaded NumPy first keeps its pool
    ])
    def test_the_cli_plans_the_blas_threads(self, setting, numpy_first):
        """`dfqgame.cli` sets each BLAS thread variable the user left unset
        to 1 before NumPy loads, so on two or more CPUs a run forks the
        probe worker; a variable the user set, or a NumPy already loaded,
        it leaves as it is."""
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        code = ("import os, sys\n"
                + ("import numpy\n" if numpy_first else "")
                + "import dfqgame.cli\nfrom dfqgame import game\n"
                f"print([os.environ.get(v) for v in {names!r}])\n"
                "print(len(os.listdir('/proc/self/task')), game._worker_fits())\n")
        env = {k: v for k, v in os.environ.items() if k not in names}
        src = os.path.dirname(os.path.dirname(game.__file__))
        env.update(PYTHONPATH=src, **({} if setting is None else {names[0]: setting}))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env, timeout=60).stdout.splitlines()
        if numpy_first:
            assert out[0] == str([None, None, None])
        else:
            assert out[0] == str([setting or "1", "1", "1"])
        if setting is None and not numpy_first:
            assert out[1].split()[0] == "1"  # the process runs one thread
            if game._usable_cpus() >= 2:
                assert out[1].split()[1] == "True"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no worker where /proc lists no threads")
    def test_a_worker_needs_two_cpus_per_thread(self, monkeypatch):
        """A BLAS thread pool or any other thread counts twice: the worker
        is a copy of this process with as many threads."""
        threads = len(os.listdir("/proc/self/task"))
        monkeypatch.setattr(game, "_usable_cpus", lambda: 2 * threads)
        assert game._worker_fits()
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            assert not game._worker_fits()
        finally:
            release.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()

    def test_a_daemonic_process_probes_in_process(self, trained_setup):
        p, _ = trained_setup
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pooled = pool.apply_async(_game_in_a_pool_worker, (p,)).get(timeout=60)
        ref, _ = plain_game(p, self.HP, seeded_rng(0), None, 2)
        assert pooled == logs_and_players(ref)

    def test_a_diverging_train_prints_what_an_in_process_one_prints(self, tmp_path):
        """Warnings printed, not raised: the worker prints none of its own,
        so stderr (the warnings of the steps, then the abort) is the same."""
        ini = tmp_path / "cfg.ini"
        ends = []
        for cpus in (1, ENOUGH_CPUS):
            ini.write_text(
                f"[experiment]\nout_dir = {tmp_path / str(cpus)}\npretrain_epochs = 3\n"
                "[hyperparams]\nlr_q = 1e200\nepochs = 2\n")
            code = ("import sys; from dfqgame import cli, game\n"
                    f"game._usable_cpus = lambda: {cpus}\n"
                    f"sys.exit(cli.main(['train', '--config', {str(ini)!r}]))")
            src = os.path.dirname(os.path.dirname(game.__file__))
            ends.append(subprocess.run(
                [sys.executable, "-W", "default", "-c", code], capture_output=True,
                text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120))
        assert ends[0].returncode == ends[1].returncode == cli.EXIT_NUMERICAL
        assert "RuntimeWarning" in ends[0].stderr
        assert ends[1].stderr == ends[0].stderr

    @pytest.mark.parametrize("frozen_player", ["lr_g", "lr_q"])
    def test_a_player_that_never_moves_equals_a_plain_loop(
            self, trained_setup, probe_path, frozen_player):
        """Its steps leave its values as they were, and the probes still
        recompute where it steps."""
        p, eval_data = trained_setup
        hp = replace(self.HP, **{frozen_player: 0.0})
        ref, message = plain_game(p, hp, seeded_rng(0), eval_data, 2)
        assert message is None
        state = self._run(p, eval_data, hp)
        assert logs_and_players(state) == logs_and_players(ref)

    def test_a_worker_slow_to_copy_equals_a_plain_loop(self, trained_setup,
                                                       monkeypatch):
        """The loop waits for each copy before it steps that player again."""
        monkeypatch.setattr(game, "_usable_cpus", lambda: ENOUGH_CPUS)
        in_the_worker(monkeypatch, lambda: time.sleep(0.01))
        p, eval_data = trained_setup
        ref, _ = plain_game(p, self.HP, seeded_rng(0), eval_data, 2)
        state = self._run(p, eval_data)
        assert logs_and_players(state) == logs_and_players(ref)

    def test_a_worker_that_dies_before_a_copy_is_an_error_not_a_hang(
            self, trained_setup, monkeypatch):
        """It dies while the loop waits for the ack of that copy."""
        monkeypatch.setattr(game, "_usable_cpus", lambda: ENOUGH_CPUS)

        def die():
            time.sleep(0.5)
            os._exit(9)

        in_the_worker(monkeypatch, die)
        with pytest.raises(RuntimeError, match=r"exit code 9\)"):
            self._run(*trained_setup)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc to list the open file descriptors")
    @pytest.mark.parametrize("end", ["return", "raise", "interrupt"])
    def test_no_file_descriptor_outlives_a_game(self, trained_setup, monkeypatch,
                                                end):
        monkeypatch.setattr(game, "_usable_cpus", lambda: ENOUGH_CPUS)
        expected = {"raise": NumericalError, "interrupt": KeyboardInterrupt}.get(end)
        if end == "raise":
            fail_on_r_evaluation(monkeypatch, 5)
        if end == "interrupt":
            def interrupted(*args):
                raise KeyboardInterrupt

            monkeypatch.setattr(game, "minimization_step", interrupted)
        before = open_fds()
        with pytest.raises(expected) if expected else contextlib.nullcontext():
            self._run(*trained_setup)
        assert open_fds() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc to list the open file descriptors")
    def test_a_failed_fork_probes_in_process(self, tmp_path, monkeypatch, capsys):
        """`train` closes what it opened for the worker and runs as it
        does without one."""
        forks = []

        def no_fork():
            forks.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        ends = []
        for cpus in (1, ENOUGH_CPUS):
            monkeypatch.setattr(game, "_usable_cpus", lambda: cpus)
            if cpus == ENOUGH_CPUS:
                monkeypatch.setattr(os, "fork", no_fork)
            out = tmp_path / str(cpus)
            ini = tmp_path / "cfg.ini"
            ini.write_text(
                f"[experiment]\nout_dir = {out}\npretrain_epochs = 3\n"
                "[dataset]\nclass_count = 4\ninput_dim = 6\nsamples_per_class = 25\n"
                "[network]\nhidden = 8,8\n"
                "[generator]\nnoise_dim = 5\nhidden = 8,8\n"
                "[hyperparams]\nepochs = 2\niters_per_epoch = 3\n")
            before = open_fds()
            code = cli.main(["train", "--config", str(ini)])
            ends.append((code, capsys.readouterr().err,
                         (out / "metrics.csv").read_bytes(),
                         (out / "summary.json").read_bytes(), open_fds() == before))
        assert len(forks) == 1
        assert ends[0] == ends[1]
        code, err, _, _, no_fd_left = ends[1]
        assert (code, err, no_fd_left) == (0, "", True)

    def test_the_cli_imports_no_mmap(self):
        """Nor the shared memory that only the worker uses."""
        code = "import sys, dfqgame.cli; print('mmap' in sys.modules)"
        src = os.path.dirname(os.path.dirname(game.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert out.stdout == "False\n"
