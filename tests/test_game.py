"""Tests for the loss family and the alternating min-max loop."""

import copy
import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from dfqgame import nets, xp
from dfqgame.adapt import LogitsPair, game_value
from dfqgame.engine import Tensor, seeded_rng, softmax
from dfqgame.game import (
    HyperParams,
    LOSS_NAMES,
    ablation_config,
    bg_halving_trial,
    calibration_loss,
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
    build_p,
    init_q_from_p,
    one_hot,
    pretrain_p,
)
from dfqgame.quant import QuantConfig

SMALL = NetworkSpec(input_dim=6, hidden=(8, 8), class_count=4)
SMALL_GEN = GeneratorSpec(noise_dim=5, hidden=(8, 8), output_dim=6, class_count=4)


@pytest.fixture(scope="module")
def trained_setup():
    spec = xp.DatasetSpec(class_count=4, input_dim=6, samples_per_class=40)
    tx, ty, sx, sy = xp.synth_dataset(spec, 0)
    p = build_p(SMALL, seeded_rng(3))
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
        lp = LogitsPair(rng.standard_normal((8, 4)), rng.standard_normal((8, 4)))
        assert calibration_loss(lp, tau=1.0).item() == pytest.approx(
            game_value(lp).item(), abs=1e-12)

    def test_temperature_softens_distribution(self):
        rng = seeded_rng(6)
        lp = LogitsPair(rng.standard_normal((8, 4)) * 5,
                        rng.standard_normal((8, 4)) * 5)
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

    def test_p_frozen_by_init_game(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        init_game(p, q, g, HyperParams(), seeded_rng(0))
        assert not any(t.requires_grad for t in p.parameters())


class TestSpentGradients:
    """No gradient outlives the optimizer step that used it."""

    def test_pretrain_p_releases_p_gradients(self):
        spec = xp.DatasetSpec(class_count=4, input_dim=6, samples_per_class=20)
        tx, ty, sx, sy = xp.synth_dataset(spec, 0)
        p = build_p(SMALL, seeded_rng(3))
        pretrain_p(p, tx, ty, sx, sy, epochs=1, rng=seeded_rng(4))
        assert all(t.grad is None for t in p.parameters())

    def test_steps_release_their_players_gradients(self, trained_setup):
        p, _ = trained_setup
        q, g = fresh_players(p)
        state = init_game(p, q, g, HyperParams(), seeded_rng(0))
        z, y = draw_batch(seeded_rng(1), 8, 5, 4)
        maximization_step(state, z, y)
        assert all(t.grad is None for t in g.parameters())
        minimization_step(state, z, y)
        assert all(t.grad is None for t in q.parameters())


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


def _bump(array):
    """An in-place write that moves every entry."""
    array *= 1.5
    array += 0.25


# In-place writes to each array the probe reads; each one moves R, so a
# memo that misses it returns a stale value.
PROBE_WRITES = {
    "g_parameter": lambda s: _bump(s.g.blocks[0][0].weight.data),
    "p_parameter": lambda s: _bump(s.p.head.weight.data),
    "p_running_stat": lambda s: _bump(s.p.blocks[0][1].running_var),
    "q_running_stat": lambda s: _bump(s.q.blocks[1][1].running_mean),
    "q_parameter": lambda s: _bump(s.q.head.weight.data),
    "probe_z": lambda s: _bump(s.probe_z.data),
}


class TestProbeMemo:
    """A probe with the state's memo returns bitwise what a fresh probe
    returns, and runs no forward whose inputs are unchanged."""

    @staticmethod
    def _state(p):
        p = copy.deepcopy(p)  # the writes below must not reach the fixture
        q, g = fresh_players(p)
        return init_game(p, q, g, HyperParams(), seeded_rng(0))

    @staticmethod
    def _probe(state, memo=None):
        return probe_game_value(state.g, state.p, state.q, state.probe_z,
                                state.probe_y, memo)

    @pytest.mark.parametrize("write", sorted(PROBE_WRITES))
    def test_in_place_write_is_seen(self, trained_setup, write):
        state = self._state(trained_setup[0])
        before = self._probe(state, state.probe_memo)
        PROBE_WRITES[write](state)
        fresh = self._probe(state)
        assert fresh != before
        assert self._probe(state, state.probe_memo) == fresh

    def test_write_back_after_an_iteration_is_seen(self, trained_setup):
        state = self._state(trained_setup[0])
        arrays = [a for _, a in state.g.named_arrays() + state.q.named_arrays()]
        kept = [a.copy() for a in arrays]
        before = self._probe(state, state.probe_memo)
        rng = seeded_rng(1)
        play_iteration(state, draw_batch(rng, 16, 5, 4), draw_batch(rng, 16, 5, 4))
        assert self._probe(state, state.probe_memo) != before
        for dst, src in zip(arrays, kept):
            dst[...] = src  # in place: every array keeps its identity
        assert self._probe(state, state.probe_memo) == self._probe(state) == before

    def test_forwards_run_only_for_changed_players(self, trained_setup, monkeypatch):
        state = self._state(trained_setup[0])
        calls = []
        for cls in (nets.Generator, nets.MLP, nets.QuantizedMLP):
            def counted(net, *args, _forward=cls.forward, **kwargs):
                calls.append(type(net).__name__)
                return _forward(net, *args, **kwargs)
            monkeypatch.setattr(cls, "forward", counted)

        r = self._probe(state, state.probe_memo)
        assert calls == ["Generator", "MLP", "QuantizedMLP"]
        calls.clear()
        assert self._probe(state, state.probe_memo) == r
        assert calls == []
        _bump(state.q.head.bias.data)
        self._probe(state, state.probe_memo)
        assert calls == ["QuantizedMLP"]

        # From the second iteration on, the first probe repeats the last
        # one and the third shares G and P with the second: G and P run
        # in the two steps and the second probe, Q also in the third.
        rng = seeded_rng(1)
        play_iteration(state, draw_batch(rng, 16, 5, 4), draw_batch(rng, 16, 5, 4))
        calls.clear()
        play_iteration(state, draw_batch(rng, 16, 5, 4), draw_batch(rng, 16, 5, 4))
        assert Counter(calls) == {"Generator": 3, "MLP": 3, "QuantizedMLP": 4}


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
