"""Acceptance suite.

Eight system-level criteria, one test each, every test printing a single
PASS/FAIL verdict line. The math criteria compare the package against
independent straight-line scalar recomputations written with the `math`
module only; the experiment criteria run the full desk-scale pipeline.
"""

import json
import math
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from dfqgame import adapt, game, nets, xp
from dfqgame.adapt import (
    LogitsPair,
    agreement_distribution,
    disagreement_distribution,
    game_value,
    info_entropy,
    normalize_entropy,
)
from dfqgame.engine import Tensor, seeded_rng
from dfqgame.game import (
    HyperParams,
    generator_loss,
    loss_as,
    loss_bound,
    loss_bns,
    loss_ds,
    run_game,
)
from dfqgame.nets import (
    BNStatsRecord,
    Generator,
    GeneratorSpec,
    MLP,
    NetworkSpec,
    init_q_from_p,
    one_hot,
)
from dfqgame.quant import QuantConfig, dequantize, quantize
from helpers import (adaptability_vector, bg_halving_trial, collect_generated_bns,
                     without_quantization)


def verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def rel_close(a: float, b: float, tol: float = 1e-10) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- scalar oracles (straight-line, math module only) ---------------------------


def oracle_softmax_rows(z, tau=1.0):
    out = []
    for row in z:
        exps = [math.exp(v / tau) for v in row]
        s = sum(exps)
        out.append([e / s for e in exps])
    return out


def oracle_entropy(rows):
    return [-sum(p * math.log(p) for p in row if p > 0.0) for row in rows]


def oracle_normalize(h, class_count):
    m = min(h)
    denom = math.log(class_count) - m + 1e-8
    return [(v - m) / denom for v in h], m


def oracle_ce(rows, labels):
    total = 0.0
    for row, lab in zip(rows, labels):
        total += -math.log(max(row[lab], 1e-12))
    return total / len(rows)


def oracle_hinge(h_norm, lam_l, lam_u):
    total = 0.0
    for v in h_norm:
        total += max(lam_l - v, 0.0) + max(v - lam_u, 0.0)
    return total / len(h_norm)


def oracle_bns(mu_g, var_g, mu_s, var_s):
    total = 0.0
    for mg, vg, ms, vs in zip(mu_g, var_g, mu_s, var_s):
        for a, b in zip(mg, ms):
            total += (a - b) ** 2
        for a, b in zip(vg, vs):
            total += (a - b) ** 2
    return total


def test_criterion_1_math_oracles(capsys):
    rng = seeded_rng(20260824)
    worst = 0.0
    checks = 0
    for _ in range(1000):
        batch = int(rng.integers(2, 9))
        classes = int(rng.integers(3, 11))
        z_p = rng.standard_normal((batch, classes)) * 4
        z_q = rng.standard_normal((batch, classes)) * 4
        labels = rng.integers(0, classes, batch)
        tau = float(rng.uniform(0.5, 2.0))
        lam_l = float(rng.uniform(0.05, 0.4))
        lam_u = float(rng.uniform(0.6, 0.95))
        lp = LogitsPair(Tensor(z_p), Tensor(z_q))
        y = one_hot(labels, classes)

        p_ds = disagreement_distribution(lp)
        p_as = agreement_distribution(lp)
        h_info = info_entropy(p_ds)
        h_norm = normalize_entropy(h_info, classes)
        h_c = adaptability_vector(p_ds, 1.0 - h_norm)

        o_ds = oracle_softmax_rows(z_p - z_q)
        o_as = oracle_softmax_rows(z_p + z_q)
        o_h = oracle_entropy(o_ds)
        o_hn, _ = oracle_normalize(o_h, classes)

        def track(a, b):
            nonlocal worst, checks
            worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
            checks += 1
            return rel_close(a, b)

        for i in range(batch):
            assert track(float(h_info.data[i]), o_h[i])
            assert track(float(h_norm.data[i]), o_hn[i])
            for j in range(classes):
                assert track(float(p_ds.data[i, j]), o_ds[i][j])
                assert track(float(p_as.data[i, j]), o_as[i][j])
                norm = math.sqrt(sum(v * v for v in o_ds[i]))
                o_hc = o_ds[i][j] / norm * (1.0 - o_hn[i])
                assert track(float(h_c.data[i, j]), o_hc)

        # the five losses
        assert track(loss_ds(p_ds, y).item(), oracle_ce(o_ds, labels))
        assert track(loss_as(p_as, y).item(), oracle_ce(o_as, labels))
        assert track(loss_bound(h_norm, lam_l, lam_u).item(),
                     oracle_hinge(o_hn, lam_l, lam_u))

        width = int(rng.integers(2, 7))
        mu_g = rng.standard_normal((2, width))
        var_g = rng.uniform(0.1, 2.0, (2, width))
        mu_s = rng.standard_normal((2, width))
        var_s = rng.uniform(0.1, 2.0, (2, width))
        rec = BNStatsRecord(
            mean_generated=[Tensor(m) for m in mu_g],
            var_generated=[Tensor(v) for v in var_g],
            mean_stored=list(mu_s), var_stored=list(var_s))
        assert track(loss_bns(rec).item(),
                     oracle_bns(mu_g, var_g, mu_s, var_s))

        # temperature-softened calibration loss and the game value
        o_tau = oracle_softmax_rows(z_p - z_q, tau)
        o_tau_hn, _ = oracle_normalize(oracle_entropy(o_tau), classes)
        assert track(game_value(lp, tau).item(),
                     1.0 - sum(o_tau_hn) / batch)
        assert track(game_value(lp).item(), 1.0 - sum(o_hn) / batch)

        # composite generator objective as a weighted recombination
        alpha, beta, gamma = rng.uniform(0.05, 2.0, 3)
        o_lg = (alpha * (oracle_ce(o_ds, labels) + oracle_ce(o_as, labels))
                + beta * oracle_hinge(o_hn, lam_l, lam_u)
                + gamma * oracle_bns(mu_g, var_g, mu_s, var_s))
        i_lg = (alpha * (loss_ds(p_ds, y) + loss_as(p_as, y))
                + beta * loss_bound(h_norm, lam_l, lam_u)
                + gamma * loss_bns(rec))
        assert track(i_lg.item(), o_lg)

    verdict(capsys, 1, "math oracles", True,
            f"{checks} scalar checks, worst rel err {worst:.2e}")


# -- gradient suite -------------------------------------------------------------


def _fd_check(loss_fn, params, rng, h=1e-5, count=5, floor=1e-5):
    """Central finite differences vs autodiff on `count` entries chosen
    among coordinates with a non-negligible analytic gradient."""
    for t in params:
        t.grad = None
    loss_fn().backward()
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
             for t in params]
    for t in params:
        t.grad = None

    candidates = [(i, j) for i, g in enumerate(grads)
                  for j in range(g.size) if abs(g.flat[j]) >= floor]
    if len(candidates) < count:
        candidates = sorted(
            ((i, j) for i, g in enumerate(grads) for j in range(g.size)),
            key=lambda ij: -abs(grads[ij[0]].flat[ij[1]]))[:count]
    picks = [candidates[k] for k in
             rng.choice(len(candidates), size=count, replace=False)]

    worst = 0.0
    for i, j in picks:
        t = params[i]
        orig = t.data.flat[j]
        t.data.flat[j] = orig + h
        up = loss_fn().item()
        t.data.flat[j] = orig - h
        down = loss_fn().item()
        t.data.flat[j] = orig
        fd = (up - down) / (2 * h)
        a = grads[i].flat[j]
        err = abs(a - fd) / max(abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


def test_criterion_2_gradient_suite(capsys, monkeypatch):
    t0 = time.time()
    without_quantization(monkeypatch)  # STE is not FD-checkable; bypass it
    p_spec = NetworkSpec(input_dim=5, hidden=(6, 6), class_count=4)
    g_spec = GeneratorSpec(noise_dim=4, hidden=(6, 6), output_dim=5,
                           class_count=4)
    worst = 0.0
    for cfg_seed in range(20):
        rng = seeded_rng(1000 + cfg_seed)
        p = MLP(p_spec, rng)
        for _, bn in p.blocks:
            bn.running_mean = rng.standard_normal(bn.width) * 0.2
            bn.running_var = rng.uniform(0.5, 1.5, bn.width)
        q = init_q_from_p(p, QuantConfig(3))
        for t in q.parameters():
            # an exact copy of P pins p_ds at the entropy maximum where
            # gradients vanish; jitter Q so the losses are informative
            t.data = t.data + rng.standard_normal(t.data.shape) * 0.2
        g = Generator(g_spec, rng)
        for t in p.parameters():
            t.requires_grad = False
        z = Tensor(rng.standard_normal((6, 4)))
        y = one_hot(rng.integers(0, 4, 6), 4)
        tau = float(rng.uniform(0.5, 2.0))

        def pair():
            x = g.forward(z, y)
            return LogitsPair(p.forward(x, mode="eval"),
                              q.forward(x)), x

        # pin the stop-gradient constants at their unperturbed values so the
        # finite differences probe exactly the function being differentiated;
        # a loss that calls normalize_entropy gets it with the minimum pinned
        lp0, _ = pair()
        h0 = info_entropy(disagreement_distribution(lp0))
        bm = float(h0.data.min())
        hn0 = (h0.data - bm) / (math.log(4) - bm + 1e-8)
        lam_l, lam_u = 0.3, 0.8
        while min(abs(v - lam_l) for v in hn0) < 5e-3:
            lam_l += 0.011
        while min(abs(v - lam_u) for v in hn0) < 5e-3 or lam_u <= lam_l:
            lam_u += 0.011
        hp = HyperParams(lambda_l=lam_l, lambda_u=lam_u, tau=tau)

        def eval_l_ds():
            lp, _ = pair()
            return loss_ds(disagreement_distribution(lp), y)

        def eval_l_as():
            lp, _ = pair()
            return loss_as(agreement_distribution(lp), y)

        def eval_l_b():
            lp, _ = pair()
            h = info_entropy(disagreement_distribution(lp))
            hn = normalize_entropy(h, 4, batch_min=bm)
            return loss_bound(hn, lam_l, lam_u)

        def eval_l_bns():
            return loss_bns(collect_generated_bns(p, g.forward(z, y)))

        def eval_l_g():
            with monkeypatch.context() as m:
                m.setattr(game, "normalize_entropy",
                          partial(normalize_entropy, batch_min=bm))
                return generator_loss(g, p, q, z, y, hp)[0]

        x_fixed = Tensor(g.forward(z, y).data.copy())
        z_p_fixed = Tensor(p.forward(x_fixed, mode="eval").data.copy())
        lp_q0 = LogitsPair(z_p_fixed, q.forward(x_fixed))
        hq = info_entropy(
            Tensor(oracle_softmax_rows((lp_q0.z_p.data - lp_q0.z_q.data), tau)))
        bm_q = float(hq.data.min())

        def eval_l_q():
            q.weights_moved()  # _fd_check writes Q's weights in place
            lp = LogitsPair(z_p_fixed, q.forward(x_fixed))
            with monkeypatch.context() as m:
                m.setattr(adapt, "normalize_entropy",
                          partial(normalize_entropy, batch_min=bm_q))
                return game_value(lp, tau)

        g_params = g.parameters()
        q_params = q.parameters()
        for fn, params in [(eval_l_ds, g_params), (eval_l_as, g_params),
                           (eval_l_b, g_params), (eval_l_bns, g_params),
                           (eval_l_g, g_params), (eval_l_q, q_params)]:
            worst = max(worst, _fd_check(fn, params, rng))

    ok = worst < 1e-4
    verdict(capsys, 2, "gradient suite", ok,
            f"20 configs x 6 losses x 5 params, worst rel err {worst:.2e}, "
            f"{time.time() - t0:.0f}s")


# -- desk-scale fixtures --------------------------------------------------------


@pytest.fixture(scope="module")
def pretrained_seed0():
    """P trained on the default task for seed 0, plus held-out data."""
    cfg = xp.default_config()
    seeds = np.random.SeedSequence(0).spawn(4)
    data = xp.synth_dataset(cfg.dataset, int(seeds[0].generate_state(1)[0]))
    p = nets.MLP(cfg.network, seeded_rng(int(seeds[1].generate_state(1)[0])))
    nets.pretrain_p(p, data[0], data[1], data[2], data[3],
                    epochs=cfg.pretrain_epochs, lr=cfg.pretrain_lr,
                    batch_size=cfg.pretrain_batch,
                    rng=seeded_rng(int(seeds[2].generate_state(1)[0])))
    g_seed = int(seeds[3].generate_state(1)[0])
    return cfg, p, data, g_seed


def test_criterion_3_bg_identity(capsys, pretrained_seed0):
    t0 = time.time()
    cfg, p, data, g_seed = pretrained_seed0
    q = init_q_from_p(p, QuantConfig(cfg.bits))
    g = Generator(cfg.generator, seeded_rng(g_seed))
    hp = replace(cfg.hp, epochs=10)
    state = run_game(p, q, g, hp, seeded_rng(cfg.seed))
    worst = max(abs(log.bg.bg - (log.bg.delta_g - log.bg.delta_q))
                for log in state.logs)
    ok = len(state.logs) == 10 * hp.iters_per_epoch and worst <= 1e-9
    verdict(capsys, 3, "balance-gap identity", ok,
            f"{len(state.logs)} iterations, worst deviation {worst:.1e}, "
            f"{time.time() - t0:.0f}s")


def test_criterion_4_lipschitz_halving(capsys, pretrained_seed0):
    t0 = time.time()
    cfg, p, data, g_seed = pretrained_seed0
    q = init_q_from_p(p, QuantConfig(cfg.bits))
    g = Generator(cfg.generator, seeded_rng(g_seed))
    # learning rates scaled down 10x: the halving comparison probes the
    # first-order regime, where gap size is linear in the step size
    hp = replace(cfg.hp, lr_g=cfg.hp.lr_g * 0.1, lr_q=cfg.hp.lr_q * 0.1)
    pairs = bg_halving_trial(p, q, g, hp, seeded_rng(cfg.seed), iterations=50)
    mean_full = float(np.mean([abs(f.bg) for f, _ in pairs]))
    mean_half = float(np.mean([abs(h.bg) for _, h in pairs]))
    ratio = mean_half / mean_full
    ok = abs(ratio - 0.5) <= 0.25 * 0.5
    verdict(capsys, 4, "learning-rate halving halves the gap", ok,
            f"mean|bg| ratio {ratio:.3f} over 50 iterations, "
            f"{time.time() - t0:.0f}s")


def test_criterion_5_quantizer_properties(capsys):
    t0 = time.time()
    rng = seeded_rng(55)
    per_bits = 15000  # 7 widths x 15000 tensors > 1e5 total
    tensors = 0
    for bits in range(2, 9):
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        for _ in range(per_bits):
            n = int(rng.integers(2, 33))
            scale = float(rng.uniform(0.01, 100.0))
            theta = np.sort(rng.standard_normal(n) * scale)
            q = quantize(theta, bits)
            assert q.codes.min() >= lo and q.codes.max() <= hi
            assert np.all(np.diff(q.codes) >= 0)  # monotone in the input
            assert q.codes[0] == lo and q.codes[-1] == hi  # endpoints exact
            step = (q.theta_max - q.theta_min) / (2 ** bits - 1)
            err = np.abs(dequantize(q) - theta).max()
            assert err <= step / 2 + 1e-9 * scale
            tensors += 1
    verdict(capsys, 5, "quantizer properties", True,
            f"{tensors} tensors across bit widths 2-8, {time.time() - t0:.0f}s")


@pytest.fixture(scope="module")
def desk_scale_runs(tmp_path_factory):
    """The measured experiment block: five seeds of the full game, five
    seeds of the statistics-only baseline, and one 5-bit run."""
    root = tmp_path_factory.mktemp("desk")
    base = xp.default_config()
    out = {"full": [], "baseline": [], "elapsed": []}
    for seed in range(5):
        cfg = replace(base, seed=seed, out_dir=str(root / f"full{seed}"))
        t0 = time.time()
        out["full"].append((cfg.out_dir, xp.run_experiment(cfg)))
        out["elapsed"].append(time.time() - t0)
    stats_only = game.ablation_config(base.hp, ("L_ds", "L_as", "L_b"))
    for seed in range(5):
        cfg = replace(base, seed=seed, hp=stats_only,
                      out_dir=str(root / f"bns{seed}"))
        out["baseline"].append((cfg.out_dir, xp.run_experiment(cfg)))
    cfg5 = replace(base, seed=0, bits=5, out_dir=str(root / "fivebit"))
    out["fivebit"] = xp.run_experiment(cfg5)
    out["root"] = root
    return out


@pytest.mark.slow
def test_criterion_6_end_to_end_recovery(capsys, desk_scale_runs):
    full = [s for _, s in desk_scale_runs["full"]]
    base = [s for _, s in desk_scale_runs["baseline"]]
    p_accs = [s["p_accuracy"] for s in full]
    drops = [s["p_accuracy"] - s["q_init_accuracy"] for s in full]
    recoveries = [s["q_final_accuracy"] - s["q_init_accuracy"] for s in full]
    med_rec = float(np.median(recoveries))
    # seeds are matched between the game and its statistics-only baseline,
    # so compare them pairwise and take the median seed
    med_edge = float(np.median([f["q_final_accuracy"] - b["q_final_accuracy"]
                                for f, b in zip(full, base)]))
    five = desk_scale_runs["fivebit"]
    gap5 = five["p_accuracy"] - five["q_final_accuracy"]
    slowest = max(desk_scale_runs["elapsed"])

    ok = (min(p_accs) >= 0.95
          and min(drops) >= 0.10
          and med_rec >= 0.05
          and med_edge >= 0.0
          and gap5 <= 0.02
          and slowest < 600.0)
    verdict(capsys, 6, "end-to-end recovery", ok,
            f"min P {min(p_accs):.3f}, min 3-bit drop {min(drops):.3f}, "
            f"median recovery {med_rec:.3f}, "
            f"median edge over stats-only {med_edge:+.3f}, "
            f"5-bit gap {gap5:.3f}, slowest seed {slowest:.0f}s")


@pytest.mark.slow
def test_criterion_7_stationarity_trend(capsys, desk_scale_runs):
    bg_first, bg_last, lb_first, lb_last = [], [], [], []
    for out_dir, _ in desk_scale_runs["full"]:
        rows = Path(out_dir, "metrics.csv").read_text().splitlines()[1:]
        bg = np.array([float(r.split(",")[8]) for r in rows])
        lb = np.array([float(r.split(",")[4]) for r in rows])
        k = len(rows) // 4
        # the gap alternates sign around zero once the game is balanced, so
        # the stationarity measure is the magnitude of the *net* gap over a
        # quartile: systematic drift shrinks even while per-step wiggle stays
        bg_first.append(abs(bg[:k].mean()))
        bg_last.append(abs(bg[-k:].mean()))
        lb_first.append(float(np.median(lb[:k])))
        lb_last.append(float(np.median(lb[-k:])))
    ok = (np.median(bg_last) <= np.median(bg_first)
          and np.median(lb_last) <= np.median(lb_first))
    verdict(capsys, 7, "stationarity trend", ok,
            f"|mean bg| {np.median(bg_first):.6f} -> {np.median(bg_last):.6f}, "
            f"median l_b {np.median(lb_first):.4f} -> {np.median(lb_last):.4f}")


@pytest.mark.slow
def test_criterion_8_determinism(capsys, desk_scale_runs):
    first_dir = desk_scale_runs["full"][0][0]
    cfg = replace(xp.default_config(), seed=0,
                  out_dir=str(desk_scale_runs["root"] / "repeat0"))
    xp.run_experiment(cfg)
    a = Path(first_dir, "metrics.csv").read_bytes()
    b = Path(cfg.out_dir, "metrics.csv").read_bytes()
    ok = a == b and len(a) > 0
    verdict(capsys, 8, "byte-identical repeat run", ok,
            f"{len(a)} bytes compared")
