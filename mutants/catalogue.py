"""The mutant catalogue: small, deliberate breakages of `src/dfqgame`, each
with the tests that must fail on it.

Each entry replaces one exact snippet of one file. The snippet must occur
exactly once in `src/` (mutants/tests/test_catalogue.py checks this), so an
edit that moves or rewrites the guarded code fails that test instead of
leaving a mutant that no longer applies. `run.py` applies the entries one at
a time to a copy of the repository and runs their tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str         # relative to the repository root
    old: str          # occurs exactly once in src/
    new: str
    tests: tuple      # pytest ids, at least one of which must fail
    why: str          # what the mutant breaks


ENGINE, NETS, GAME = "src/dfqgame/engine.py", "src/dfqgame/nets.py", "src/dfqgame/game.py"
ADAPT = "src/dfqgame/adapt.py"
HAND_OVER = "tests/test_engine.py::TestGradientHandOver::"
PROBE_CACHE = "tests/test_game.py::TestProbeCache::"
PROBE_WORKER = "tests/test_game.py::TestProbeWorker::"
CHECKPOINTS = "tests/test_nets.py::TestCheckpoints::"

MUTANTS = (
    # -- the sweep and the gradient hand-over ----------------------------------
    Mutant(
        "sweep-pushes-parents-reversed", ENGINE,
        "            for p in node._parents:\n",
        "            for p in reversed(node._parents):\n",
        ("tests/test_engine.py::TestBackwardMechanics::"
         "test_the_sweep_runs_the_nodes_in_depth_first_post_order",),
        "the sweep visits a node's parents in another order, so gradients"
        " accumulate in another order"),
    Mutant(
        "tuple-paths-summed-first", ENGINE,
        "                        for path in g:\n"
        "                            p._accumulate(path)\n",
        "                        p._accumulate(sum(g[1:], g[0]))\n",
        (HAND_OVER + "test_tuple_paths_land_in_order",),
        "a node's paths into one parent are added together before the deposit"),
    Mutant(
        "tuple-paths-reversed", ENGINE,
        "                        for path in g:\n",
        "                        for path in reversed(g):\n",
        (HAND_OVER + "test_tuple_paths_land_in_order",),
        "a node's paths into one parent land in reverse order"),
    Mutant(
        "tuple-first-path-taken-over", ENGINE,
        "                        for path in g:\n"
        "                            p._accumulate(path)\n",
        "                        for path in g:\n"
        "                            if p.grad is None:\n"
        "                                p.grad = path\n"
        "                            else:\n"
        "                                p._accumulate(path)\n",
        (HAND_OVER + "test_the_same_path_twice_is_copied",),
        "the first path becomes the gradient without a copy, so a path"
        " returned twice is added into itself"),
    Mutant(
        "accumulate-not-in-place", ENGINE,
        "            self.grad += g\n",
        "            self.grad = self.grad + g\n",
        (HAND_OVER + "test_tuple_paths_land_in_order",
         HAND_OVER + "test_fresh_array_added_into_an_existing_gradient"),
        "a later deposit replaces the gradient array instead of adding into it"),
    Mutant(
        "take-over-keeps-negative-zero", ENGINE,
        "                        g += 0.0  # in place, the bits of _accumulate's copy\n",
        "",
        (HAND_OVER + "test_fresh_array_is_taken_over",),
        "a taken-over first gradient keeps its -0.0 entries"),
    # -- fused nodes -----------------------------------------------------------
    Mutant(
        "batch-norm-mean-summed-pairwise", ENGINE,
        "            mu = x.data.sum(axis=0) * inv_n\n",
        "            mu = x.data.T.copy().sum(axis=1) * inv_n\n",
        ("tests/test_fused_nodes.py::test_batch_norm_node_matches_the_reference_tape",),
        "batch norm's mean is summed in another order"),
    Mutant(
        "batch-norm-mean-deposits-folded", ENGINE,
        "            g_mu += g_mu_sq\n"
        "            g_mu += g_mu_sq\n",
        "            g_mu += 2 * g_mu_sq\n",
        ("tests/test_fused_nodes.py::test_batch_norm_node_matches_the_reference_tape",),
        "batch norm's two variance paths into the mean land as one deposit,"
        " which rounds once instead of twice"),
    Mutant(
        "batch-norm-negation-out-of-the-sum", ENGINE,
        "            g_mu = (-g_d).sum(axis=0)\n",
        "            g_mu = -g_d.sum(axis=0)\n",
        ("tests/test_fused_nodes.py::test_batch_norm_negates_each_term_before_the_means_sum",),
        "batch norm negates the mean path's sum, not its terms: a NaN made by"
        " inf - inf gets the other sign"),
    Mutant(
        "batch-norm-variance-negation-out-of-the-sum", ENGINE,
        "            g_mu_sq = (-g_sq).sum(axis=0)\n",
        "            g_mu_sq = -g_sq.sum(axis=0)\n",
        ("tests/test_fused_nodes.py::"
         "test_batch_norm_negates_each_term_before_the_variances_sum",),
        "batch norm negates the variance path's sum, not its terms: a NaN made"
        " by inf - inf gets the other sign"),
    Mutant(
        "softmax-backward-summed-sequentially", ENGINE,
        "        ge += (-g * e / (s * s)).sum(axis=-1, keepdims=True)\n",
        "        ge += np.cumsum(-g * e / (s * s), axis=-1)[..., -1:]\n",
        ("tests/test_fused_nodes.py::"
         "test_softmax_entropy_and_cross_entropy_nodes_match_the_reference_tape",),
        "softmax's backward sums a row sequentially, not pairwise"),
    Mutant(
        "softmax-negation-out-of-the-sum", ENGINE,
        "        ge += (-g * e / (s * s)).sum(axis=-1, keepdims=True)\n",
        "        ge += -(g * e / (s * s)).sum(axis=-1, keepdims=True)\n",
        ("tests/test_fused_nodes.py::test_softmax_negates_each_term_before_the_rows_sum",),
        "softmax negates its row sum, not its terms: a NaN made by inf - inf"
        " gets the other sign"),
    Mutant(
        "weighted-loss-scalar-plus", GAME,
        "    l_g = np.add(np.add(np.add(l_ds.data * on_ds, l_as.data * on_as) * hp.alpha,\n"
        "                        l_b.data * w_b), l_bns.data * w_bns)\n",
        "    l_g = ((l_ds.data * on_ds + l_as.data * on_as) * hp.alpha\n"
        "           + l_b.data * w_b) + l_bns.data * w_bns\n",
        ("tests/test_fused_nodes.py::test_weighted_loss_node_matches_the_reference_tape",),
        "a NumPy scalar's + may swap its operands, so a NaN's sign can differ"),
    Mutant(
        "entropy-with-a-hand-built-backward", ADAPT,
        "    return Tensor._node(-(p.data * log_c).sum(axis=-1), (p,), grad)\n",
        "    def backward(out):\n"
        "        for path in grad(out.grad):\n"
        "            p._accumulate(path)\n"
        "\n"
        "    return Tensor._result(-(p.data * log_c).sum(axis=-1), (p,), backward)\n",
        ("tests/test_routing_guard.py::test_only_engine_routes_gradients_by_hand",),
        "entropy wires its node by hand, past the one routing rule of"
        " Tensor._node"),
    Mutant(
        "batch-variance-gradient-regrouped", NETS,
        "lambda g: (_unbroadcast(g * inv_n * d, h.shape),) * 2,",
        "lambda g: (_unbroadcast(g * (inv_n * d), h.shape),) * 2,",
        ("tests/test_fused_nodes.py::test_batch_variance_node_matches_the_reference_tape",),
        "the variance tap's gradient into h rounds in another order"),
    Mutant(
        "sgd-without-the-momentum-term", ENGINE,
        "            d += np.multiply(vel, mu, out=a)\n",
        "",
        ("tests/test_engine.py::TestOptimizers::test_nesterov_two_steps_match_closed_form",
         "tests/test_engine.py::TestOptimizersMatchReference::test_nesterov"),
        "Q's step keeps a velocity but never adds it: plain SGD"),
    # -- players and checkpoints -----------------------------------------------
    Mutant(
        "q-skips-activation-quantization", NETS,
        "        return fake_quantize(h, self.cfg.bits) @ self._fq_weight(aff.weight) + aff.bias\n",
        "        return h @ self._fq_weight(aff.weight) + aff.bias\n",
        ("tests/test_nets.py::TestQuantizedMLP::"
         "test_forward_quantizes_each_affine_input_and_weight",),
        "Q quantizes its weights but multiplies full-precision activations"),
    Mutant(
        "generator-in-train-mode", NETS,
        '        return self.head(self._hidden(z + y @ self.embedding, "batch"))\n',
        '        return self.head(self._hidden(z + y @ self.embedding, "train"))\n',
        ("tests/test_game.py::TestSteps::test_maximization_leaves_g_running_statistics",),
        "G's forward updates running statistics that nothing reads"),
    Mutant(
        "generator-checkpoint-keeps-running-arrays", NETS,
        '            (n, a) for n, a in super().named_arrays() if ".running_" not in n]\n',
        "            (n, a) for n, a in super().named_arrays()]\n",
        (CHECKPOINTS + "test_a_generator_checkpoint_holds_no_running_statistics",),
        "G's checkpoint stores the running statistics it never uses"),
    Mutant(
        "loader-accepts-version-2", NETS,
        "    if version != _VERSION:\n",
        "    if version not in (2, _VERSION):\n",
        (CHECKPOINTS + "test_a_version_2_file_is_rejected",),
        "a version-2 file, which holds G's running statistics, is read"),
    Mutant(
        "weights-moved-keeps-quantized-weights", NETS,
        "        self._weights_q = {}  # weight Tensor -> its quantized array\n",
        '        self._weights_q = getattr(self, "_weights_q", {})\n',
        ("tests/test_nets.py::TestQuantizedMLP::test_weight_cache_follows_in_place_writes",
         PROBE_CACHE + "test_every_q_forward_uses_its_current_weights"),
        "Q keeps quantized weights of the values before its step"),
    Mutant(
        "pretrain-without-the-loss-check", NETS,
        '                raise NumericalError(f"non-finite pretraining loss: {loss.item()}")\n',
        "                pass\n",
        ("tests/test_nets.py::TestMLP::test_a_non_finite_step_loss_is_a_numerical_error",),
        "pretraining steps on a non-finite loss"),
    # -- the game loop and its probe -------------------------------------------
    Mutant(
        "init-game-freezes-p", GAME,
        '    it out of the graph."""\n',
        '    it out of the graph."""\n'
        "    for t in p.parameters():\n"
        "        t.requires_grad = False\n",
        ("tests/test_game.py::TestSteps::test_init_game_leaves_p_flags_as_given",
         PROBE_WORKER + "test_p_is_handed_back_as_it_came"),
        "a game clears P's flags for good, so a later pretrain_p trains nothing"),
    Mutant(
        "max-step-does-not-hold-p", GAME,
        "    with frozen(state.p.parameters() + state.q.parameters()):\n",
        "    with frozen(state.q.parameters()):\n",
        ("tests/test_game.py::TestSpentGradients::test_steps_release_their_players_gradients",
         PROBE_WORKER + "test_p_is_handed_back_as_it_came"),
        "the max step builds P's graph and leaves it gradients that no step"
        " spends"),
    Mutant(
        "min-step-without-the-loss-check", GAME,
        '        raise NumericalError(f"non-finite calibration loss: {l_q.item()}")\n',
        "        pass\n",
        ("tests/test_game.py::TestSteps::"
         "test_a_non_finite_calibration_loss_is_a_numerical_error",),
        "Q steps on a non-finite calibration loss"),
    Mutant(
        "min-step-without-weights-moved", GAME,
        "    state.opt_q.step()\n"
        "    state.q.weights_moved()\n",
        "    state.opt_q.step()\n",
        (PROBE_CACHE + "test_every_q_forward_uses_its_current_weights",),
        "Q's step leaves the quantized weights of its old values in place"),
    Mutant(
        "probe-with-a-fresh-cache", GAME,
        "             state.probe_cache)\n",
        "             ProbeCache())\n",
        (PROBE_CACHE + "test_each_place_runs_its_forwards",
         PROBE_WORKER + "test_equals_a_plain_loop"),
        "play_iteration ignores the game's probe source: every probe reruns"
        " every forward, and a worker gets no requests"),
    Mutant(
        "state-keeps-the-finished-worker", GAME,
        "    state.probe_cache = ProbeCache()  # also after an error mid-iteration\n",
        "",
        (PROBE_WORKER + "test_the_returned_state_plays_on",
         PROBE_WORKER + "test_the_state_of_an_error_plays_on"),
        "run_game hands out a state whose probe source is the closed worker,"
        " so a further play_iteration cannot probe"),
    Mutant(
        "cache-reset-only-after-the-worker", GAME,
        "            log.bg = balance_gap(*values[3 * i:3 * i + 3])\n"
        "    state.probe_cache = ProbeCache()  # also after an error mid-iteration\n",
        "            log.bg = balance_gap(*values[3 * i:3 * i + 3])\n"
        "        state.probe_cache = ProbeCache()\n",
        (PROBE_WORKER + "test_the_state_of_an_error_plays_on_from_a_fresh_cache",),
        "after an in-process error mid-iteration, err.state keeps a cache whose"
        " count is out of step, so its next iteration reuses stale forwards"),
    Mutant(
        "run-game-drops-another-exception", GAME,
        "    if error is not None:\n"
        "        raise error\n",
        "",
        (PROBE_WORKER + "test_another_exception_is_raised_as_it_came",),
        "an exception other than a NumericalError ends the game silently,"
        " and run_game returns its state"),
    Mutant(
        "probe-reruns-g-and-p-at-the-wrong-place", GAME,
        "            if place == 1:\n",
        "            if place == 2:\n",
        (PROBE_CACHE + "test_each_place_runs_its_forwards",),
        "the probe reruns G's and P's forwards after the min step, not the"
        " max step"),
    Mutant(
        "worker-copies-the-wrong-player", GAME,
        "                np.copyto(*copies[place - 1])\n",
        "                np.copyto(*copies[2 - place])\n",
        (PROBE_WORKER + "test_equals_a_plain_loop",),
        "the worker copies Q where G stepped and G where Q stepped"),
    Mutant(
        "worker-without-weights-moved", GAME,
        "                if place == 2:\n"
        "                    state.q.weights_moved()\n",
        "                if place == 2:\n"
        "                    pass\n",
        (PROBE_CACHE + "test_every_q_forward_uses_its_current_weights",
         PROBE_WORKER + "test_equals_a_plain_loop"),
        "the worker probes Q with the quantized weights of before its copy"),
    Mutant(
        "loop-without-the-ack-read", GAME,
        "        steps_again = self._requests >= 3 and self._requests % 3 != 2\n",
        "        steps_again = False\n",
        (PROBE_WORKER + "test_a_worker_slow_to_copy_equals_a_plain_loop",),
        "the loop may step a player before the worker has copied it"),
    Mutant(
        "finish-drops-an-unread-error", GAME,
        "                if reply is not None:  # not an ack\n"
        "                    self._error = reply\n",
        "                pass\n",
        (PROBE_WORKER + "test_a_probe_failure_equals_a_plain_loop[worker-35]",
         PROBE_WORKER + "test_a_probe_failure_equals_a_plain_loop[worker-36]"),
        "an error of the game's last probes, which no request read, is"
        " dropped: the game returns as if every probe had run"),
    Mutant(
        "loop-packs-before-the-fork", GAME,
        "            shared = [np.frombuffer(mmap.mmap(-1, opt._buf.nbytes)) for opt in opts]\n",
        "            shared = [np.frombuffer(mmap.mmap(-1, opt._buf.nbytes)) for opt in opts]\n"
        "            for opt, buf in zip(opts, shared):\n"
        "                opt._pack(buf)\n",
        (PROBE_WORKER + "test_equals_a_plain_loop",
         PROBE_WORKER + "test_a_worker_slow_to_copy_equals_a_plain_loop"),
        "the worker inherits the shared buffers, so it probes what the loop"
        " is stepping instead of its copies"),
    Mutant(
        "close-leaves-the-pipe-open", GAME,
        "        self._conn.close()\n"
        "        return os.waitstatus_to_exitcode(",
        "        return os.waitstatus_to_exitcode(",
        (PROBE_WORKER + "test_no_file_descriptor_outlives_a_game",),
        "the loop's end of the pipe outlives the game"),
)
