"""Losses and the alternating maximization/minimization loop.

One iteration = one Adam step on the generator against its composite loss,
then one Nesterov-SGD step on the quantized network against the
calibration loss. The game value is probed on a fixed batch before, between
and after the two steps to produce a balance-gap record per iteration; a
probe recomputes only what its place in the iteration says has moved
(`ProbeCache`), and `run_game` hands the probes to a forked worker that
evaluates them while the loop steps (`ProbeWorker`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import AdamState, SgdNesterovState, Tensor, _unbroadcast, frozen, gaussian
from .adapt import (
    BalanceGapRecord,
    LogitsPair,
    agreement_distribution,
    balance_gap,
    disagreement_distribution,
    game_value,
    info_entropy,
    normalize_entropy,
)
from .nets import (
    BNStatsRecord,
    Generator,
    MLP,
    NumericalError,
    QuantizedMLP,
    accuracy,
    check_fields,
    label_cross_entropy,
    one_hot,
)

PROBE_BATCH = 64

LOSS_NAMES = ("L_ds", "L_as", "L_b", "L_BNS")


@dataclass
class HyperParams:
    alpha: float = 0.1
    beta: float = 1.0
    gamma: float = 1.0
    lambda_l: float = 0.3
    lambda_u: float = 0.8
    tau: float = 1.0
    lr_g: float = 1e-3
    lr_q: float = 1e-4
    batch_size: int = 16
    epochs: int = 100
    iters_per_epoch: int = 50
    lr_decay_factor: float = 0.1
    lr_decay_period: int = 50  # epochs between Q learning-rate decays
    bns_stat: str = "variance"  # or "std"
    disable: tuple = ()  # the LOSS_NAMES the generator loss leaves out

    def __post_init__(self):
        check_fields(self, at_least={
            "alpha": 0, "beta": 0, "gamma": 0, "lr_g": 0, "lr_q": 0,
            "batch_size": 2,  # batch norm needs two samples
            "epochs": 0, "iters_per_epoch": 0, "lr_decay_factor": 0,
            "lr_decay_period": 0}, above={"tau": 0})
        if isinstance(self.disable, str):  # it would be read letter by letter
            raise ValueError(f"disable must be a tuple of loss names, not {self.disable!r}")
        if not 0.0 <= self.lambda_l < self.lambda_u <= 1.0:
            raise ValueError(
                f"need 0 <= lambda_l < lambda_u <= 1, got "
                f"({self.lambda_l}, {self.lambda_u})")
        if self.bns_stat not in ("variance", "std"):
            raise ValueError(f"bns_stat must be variance|std, got {self.bns_stat}")
        unknown = set(self.disable) - set(LOSS_NAMES)
        if unknown:
            raise ValueError(f"unknown loss names: {sorted(unknown)}")
        self.disable = tuple(t for t in LOSS_NAMES if t in self.disable)


@dataclass
class IterationLog:
    epoch: int
    iteration: int
    l_ds: float
    l_as: float
    l_b: float
    l_bns: float
    l_g: float
    l_q: float
    bg: BalanceGapRecord
    mean_h_norm: float
    q_accuracy: float | None = None


@dataclass
class ProbeCache:
    """What a game's probes keep: how many have run (`count`), G's and P's
    forwards on the probe batch (`xz`) and the last R. Within a game only
    the two steps move what the probe reads: the max step writes G's
    parameters, the min step Q's parameters; P never steps and the probe
    batch is fixed. So the k-th probe (k from 0) reruns G's and P's forwards
    only at k % 3 == 1 and R only at k % 3 != 0; probe 0 runs both, and
    every other returns the last R. By the same rule Q requantizes its
    weights only after its step, which calls `QuantizedMLP.weights_moved`
    (in a worker, after it copies Q). A write made by anything but the
    steps is not seen."""

    count: int = 0
    xz: tuple | None = None
    r: float | None = None


@dataclass
class GameState:
    p: MLP
    q: QuantizedMLP
    g: Generator
    hp: HyperParams
    opt_g: AdamState
    opt_q: SgdNesterovState
    probe_z: Tensor
    probe_y: Tensor
    logs: list[IterationLog] = field(default_factory=list)
    probe_cache: ProbeCache | ProbeWorker = field(default_factory=ProbeCache)


# -- losses -------------------------------------------------------------------


# L_ds and L_as: the label cross-entropy of the disagreement and of the
# agreement distribution, pushing each toward the conditioning label.
loss_ds = loss_as = label_cross_entropy


def _logits_pair(z_p: Tensor, z_q: Tensor) -> LogitsPair:
    """LogitsPair of P's and Q's forwards; non-finite logits mean that a
    player diverged, which is a NumericalError."""
    try:
        return LogitsPair(z_p, z_q)
    except ValueError as e:
        raise NumericalError(f"{e}: a player diverged") from None


def loss_bound(h_norm: Tensor, lambda_l: float, lambda_u: float) -> Tensor:
    """Two-sided hinge keeping the normalized entropy inside
    [lambda_l, lambda_u]: the mean of relu(lambda_l - h) + relu(h - lambda_u).
    One tape node."""
    low, high = lambda_l - h_norm.data, h_norm.data - lambda_u
    on_low, on_high = low > 0.0, high > 0.0
    hinge = np.where(on_low, low, 0.0) + np.where(on_high, high, 0.0)
    inv_n = 1.0 / hinge.size

    def grad(g):  # two paths into h_norm: the low hinge's, then the high one's
        g = g * inv_n
        return -(g * on_low), g * on_high

    return Tensor._node(hinge.sum() * inv_n, (h_norm,), grad)


def bns_term(mu_g: Tensor, var_g: Tensor, mu_s, var_s, stat: str = "variance") -> Tensor:
    """One BN layer's term of loss_bns: the squared-l2 mismatch of the means
    plus that of the spreads, the variances (`stat` "variance") or their
    square roots ("std"). One tape node on (mu_g, var_g)."""
    d_mu = Tensor._broadcast(np.subtract, mu_g.data, mu_s)
    sig_g = var_g.data
    std = stat != "variance"
    if std:
        if np.any(sig_g < 0.0):
            raise ValueError("sqrt: input must be non-negative")
        sig_g, var_s = np.sqrt(sig_g), np.sqrt(var_s)
    d_sig = Tensor._broadcast(np.subtract, sig_g, var_s)

    def grad(t, d, root):  # each square sends two paths into its difference
        def path(g):
            gd = g * d
            gd = _unbroadcast(gd + gd, t.shape)
            return gd if root is None else gd * 0.5 / root  # through the square root
        return path

    # np.add: see weighted_loss
    return Tensor._node(np.add((d_mu * d_mu).sum(), (d_sig * d_sig).sum()), (mu_g, var_g),
                        grad(mu_g, d_mu, None), grad(var_g, d_sig, sig_g if std else None))


def loss_bns(record: BNStatsRecord, stat: str = "variance") -> Tensor:
    """Squared-l2 mismatch between generated-batch BN statistics and the
    statistics stored in P, summed over BN layers. `stat` selects whether
    the spread term compares variances (BN storage convention) or stds."""
    total = None
    for mu_g, var_g, mu_s, var_s in zip(record.mean_generated,
                                        record.var_generated,
                                        record.mean_stored,
                                        record.var_stored):
        term = bns_term(mu_g, var_g, mu_s, var_s, stat)
        total = term if total is None else total + term
    return total


def weighted_loss(l_ds: Tensor, l_as: Tensor, l_b: Tensor, l_bns: Tensor,
                  hp: HyperParams) -> Tensor:
    """alpha * (L_ds + L_as) + beta * L_b + gamma * L_BNS, each term that
    `hp.disable` names times 0.0. One tape node."""
    # x * 1.0 and 0.0 + x are exact, so a disabled term only zeroes its own
    # contribution and leaves the others' bits as they are
    on_ds, on_as, on_b, on_bns = (0.0 if t in hp.disable else 1.0 for t in LOSS_NAMES)
    w_b, w_bns = hp.beta * on_b, hp.gamma * on_bns
    # np.add as the nodes called it: a NumPy scalar's + may take its operands
    # in the other order, and of two NaNs the first one's sign survives
    l_g = np.add(np.add(np.add(l_ds.data * on_ds, l_as.data * on_as) * hp.alpha,
                        l_b.data * w_b), l_bns.data * w_bns)
    return Tensor._node(l_g, (l_ds, l_as, l_b, l_bns),
                        lambda g: g * hp.alpha * on_ds, lambda g: g * hp.alpha * on_as,
                        lambda g: g * w_b, lambda g: g * w_bns)


def generator_loss(g: Generator, p: MLP, q: QuantizedMLP, z: Tensor, y: Tensor,
                   hp: HyperParams):
    """Composite maximization objective; returns (loss, components dict).

    The gradient path reaches only the generator: P's weights are fixed
    and Q's are held out of the graph by the caller during this step.
    """
    x = g.forward(z, y)
    z_p, record = p.forward(x, collect_bns=True)
    lp = _logits_pair(z_p, q.forward(x))
    p_ds = disagreement_distribution(lp)
    p_as = agreement_distribution(lp)
    h_info = info_entropy(p_ds)
    h_norm, _ = normalize_entropy(h_info, lp.class_count)

    l_ds = loss_ds(p_ds, y)
    l_as = loss_as(p_as, y)
    l_b = loss_bound(h_norm, hp.lambda_l, hp.lambda_u)
    l_bns = loss_bns(record, hp.bns_stat)

    l_g = weighted_loss(l_ds, l_as, l_b, l_bns, hp)

    components = {
        "l_ds": l_ds.item(), "l_as": l_as.item(),
        "l_b": l_b.item(), "l_bns": l_bns.item(),
        "mean_h_norm": float(h_norm.data.mean()),
    }
    if not math.isfinite(l_g.item()):
        raise NumericalError(f"non-finite generator loss: {components}")
    return l_g, components


# -- probe --------------------------------------------------------------------


def probe_game_value(g: Generator, p: MLP, q: QuantizedMLP,
                     probe_z: Tensor, probe_y: Tensor,
                     tau: float = 1.0, cache: ProbeCache | None = None) -> float:
    """R on the fixed probe batch as a pure function of (theta_g, theta_q):
    the game value at temperature `tau`, which a game sets to its `hp.tau`
    so that R is the value Q's step descends. Nothing is differentiated,
    so no graph is built.

    With the game's `cache`, a probe runs only the forwards that its place
    in the iteration says have moved (see ProbeCache); without one every
    forward runs. A `ProbeWorker` as `cache` only queues the probe and
    returns NaN; its R arrives in `ProbeWorker.finish`.
    """
    if isinstance(cache, ProbeWorker):
        cache.request()
        return math.nan
    cache = ProbeCache() if cache is None else cache
    place = cache.count % 3 if cache.count else 1
    if place:
        with frozen(g.parameters() + p.parameters() + q.parameters()):
            if place == 1:
                x = g.forward(probe_z, probe_y)
                cache.xz = x, p.forward(x)
            x, z_p = cache.xz
            cache.r = game_value(_logits_pair(z_p, q.forward(x)), tau).item()
    cache.count += 1
    return cache.r


# -- steps ------------------------------------------------------------------


def draw_batch(rng, batch_size: int, noise_dim: int, class_count: int):
    z = gaussian(rng, (batch_size, noise_dim))
    labels = rng.integers(0, class_count, size=batch_size)
    return z, one_hot(labels, class_count)


def maximization_step(state: GameState, z: Tensor, y: Tensor) -> dict:
    """One Adam step on the generator; P and Q are held bit-identical."""
    with frozen(state.p.parameters() + state.q.parameters()):
        l_g, components = generator_loss(state.g, state.p, state.q, z, y, state.hp)
        l_g.backward()
        state.opt_g.step()
    components["l_g"] = l_g.item()
    return components


def minimization_step(state: GameState, z: Tensor, y: Tensor) -> float:
    """One Nesterov-SGD step on Q against the calibration loss, on a fresh
    batch from the just-updated generator; G is held bit-identical."""
    with frozen(state.g.parameters() + state.p.parameters()):
        x = state.g.forward(z, y)
        z_p = state.p.forward(x)
    z_q = state.q.forward(x)
    l_q = game_value(_logits_pair(z_p, z_q), state.hp.tau)
    if not math.isfinite(l_q.item()):
        raise NumericalError(f"non-finite calibration loss: {l_q.item()}")
    l_q.backward()
    state.opt_q.step()
    state.q.weights_moved()
    return l_q.item()


def init_game(p: MLP, q: QuantizedMLP, g: Generator, hp: HyperParams,
              rng) -> GameState:
    """Build the optimizers of G and Q and draw the fixed probe batch. P's
    flags are left as given: it never steps, and each step and probe holds
    it out of the graph."""
    probe_z, probe_y = draw_batch(rng, PROBE_BATCH, g.spec.noise_dim,
                                  g.spec.class_count)
    return GameState(
        p=p, q=q, g=g, hp=hp,
        opt_g=AdamState(g.parameters(), lr=hp.lr_g),
        opt_q=SgdNesterovState(q.parameters(), lr=hp.lr_q),
        probe_z=probe_z, probe_y=probe_y,
    )


def play_iteration(state: GameState, max_batch, min_batch,
                   epoch: int = 0, iteration: int = 0) -> IterationLog:
    """One maximization step on `max_batch`, then one minimization step on
    `min_batch`, with the game value probed before, between and after
    through `state.probe_cache`."""
    probe = (state.g, state.p, state.q, state.probe_z, state.probe_y, state.hp.tau,
             state.probe_cache)
    r_before = probe_game_value(*probe)
    components = maximization_step(state, *max_batch)
    r_mid = probe_game_value(*probe)
    l_q = minimization_step(state, *min_batch)
    r_after = probe_game_value(*probe)
    return IterationLog(epoch=epoch, iteration=iteration, l_q=l_q,
                        bg=balance_gap(r_before, r_mid, r_after), **components)


class _ProbeStopped(Exception):
    """The probe worker raised or is gone; `ProbeWorker.finish` says why."""


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _worker_fits() -> bool:
    """Whether a forked worker gets CPUs of its own: this process may run
    on twice as many CPUs as it runs threads, and it is not a daemonic
    multiprocessing worker, which may start no process. The worker is a
    copy with as many threads, so a BLAS thread pool counts twice (with an
    unpinned two-thread OpenBLAS on two CPUs the `wide` game ran 2.5 times
    slower with a worker). Where /proc lists no threads (not Linux), no
    worker is forked."""
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    if 2 * threads > _usable_cpus():
        return False
    import multiprocessing

    return not multiprocessing.current_process().daemon


class ProbeWorker:
    """A forked copy of the game that evaluates the probe while the loop
    steps, with `probe_game_value` and its own ProbeCache.

    The worker probes the copies of the players that the fork gave it;
    after the fork the loop moves G's and Q's packed buffers (`_buf`) into
    memory shared with the worker and steps them there. A request is one
    byte: from its cache's count the worker works out which player stepped
    since the last request (see ProbeCache), copies that player's shared
    buffer into its own and acks the copy. Its acks, its first exception
    and the R values travel on the one pipe. Before the loop steps a player
    it has stepped before, it reads the next message: an ack of that
    player's last copy lets it go on, so it never writes a buffer the
    worker has yet to copy, and anything else is the worker's exception,
    which stops the loop. The worker inherits the warning filters and
    `np.errstate`, so it raises what an in-process probe would; a warning
    that is not raised it keeps to itself.
    """

    def __init__(self, state: GameState):
        import mmap  # here: runs without a game never pay for these imports
        from multiprocessing import Pipe

        opts = state.opt_g, state.opt_q
        self._conn, conn = Pipe()
        try:
            shared = [np.frombuffer(mmap.mmap(-1, opt._buf.nbytes)) for opt in opts]
            self._pid = os.fork()
        except OSError:
            self._conn.close()
            conn.close()
            raise
        # the worker leaves only through _exit, which flushes no stdio, so
        # nothing buffered before the fork is printed twice
        if self._pid == 0:
            code = 1
            try:
                self._conn.close()
                _serve_probes(state, conn, shared)
                code = 0
            finally:
                os._exit(code)
        conn.close()
        for opt, buf in zip(opts, shared):
            opt._pack(buf)  # the loop steps the players in the shared buffers
        self._requests = 0
        self._error = None

    def request(self) -> None:
        """Queue a probe of the players as they are now."""
        # after this probe the loop steps a player it has stepped before
        steps_again = self._requests >= 3 and self._requests % 3 != 2
        self._requests += 1
        try:
            self._conn.send_bytes(b"r")
            if steps_again and (reply := self._conn.recv()) is not None:
                self._error = reply  # not an ack: the worker raised
                raise _ProbeStopped
        except (EOFError, OSError):  # the worker is gone
            raise _ProbeStopped from None

    def finish(self) -> tuple[list[float], Exception | None]:
        """R of each request in order, up to the first that raised, and
        that exception (None when none did); the worker then exits."""
        try:
            self._conn.send_bytes(b"")
        except OSError:
            pass  # it is gone, but what it sent can still be read
        values = None
        try:
            while not isinstance(reply := self._conn.recv(), list):
                if reply is not None:  # not an ack
                    self._error = reply
            values = reply
        except (EOFError, OSError):
            pass
        finally:
            code = self.close()
        if values is None:
            raise RuntimeError(f"the probe worker died (exit code {code})")
        return values, self._error

    def close(self) -> int:
        """Close the pipe and wait for the worker, which exits at its end;
        its exit code, or minus the signal that ended it."""
        self._conn.close()
        return os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])


def _serve_probes(state: GameState, conn, shared: list) -> None:
    """The worker's loop: on b"r", copy the player that stepped from its
    `shared` buffer (G's, then Q's) into the buffer the fork gave this
    process, ack the copy (None) and probe; on b"", send the R values. Its
    first exception it sends at once, and it probes no more. It prints
    nothing; interrupts are the loop's."""
    import signal
    import warnings

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    warnings.showwarning = lambda *args, **kwargs: None  # raised ones still raise
    copies = [(opt._buf, buf) for opt, buf in zip((state.opt_g, state.opt_q), shared)]
    cache = ProbeCache()
    probe = (state.g, state.p, state.q, state.probe_z, state.probe_y, state.hp.tau,
             cache)
    values, failed = [], False
    try:
        while conn.recv_bytes():
            if failed:
                continue
            if place := cache.count % 3:  # G stepped before place 1, Q before 2
                np.copyto(*copies[place - 1])
                if place == 2:
                    state.q.weights_moved()
                conn.send(None)
            try:
                values.append(probe_game_value(*probe))
            except Exception as e:
                failed = True
                conn.send(e)
        conn.send(values)
    except (EOFError, OSError):
        pass  # the loop closed its end


def run_game(p: MLP, q: QuantizedMLP, g: Generator, hp: HyperParams, rng,
             eval_data=None, eval_period: int = 10) -> GameState:
    """The full alternating loop.

    eval_data: optional (x, labels) held-out arrays; Q accuracy is logged
    every `eval_period` epochs (and on the final iteration). A
    NumericalError names the epoch and iteration it was raised in, and
    carries the game state as `state`. Either state holds a fresh
    ProbeCache, so a further iteration probes in-process from its start.

    Where a worker fits (`_worker_fits`), can be started and the game has
    an iteration, a ProbeWorker, as `state.probe_cache`, evaluates the
    probes while this process steps, and each log's balance gap is filled
    in from its values at the end. Of the exceptions raised, the first in
    the in-process order (probe before, max step, probe between, min step,
    probe after) is raised, with the logs of the iterations before it.
    When that was a probe's, the players in `err.state` may be past those
    logs, usually by one iteration: the loop learns of it at a later probe
    request.
    """
    state = init_game(p, q, g, hp, rng)
    worker = None
    if hp.epochs * hp.iters_per_epoch > 0 and _worker_fits():
        try:
            state.probe_cache = worker = ProbeWorker(state)
        except OSError:  # no pipe, shared memory or process to be had
            pass

    def draw():
        return draw_batch(rng, hp.batch_size, g.spec.noise_dim, g.spec.class_count)

    error = None
    try:
        for epoch in range(hp.epochs):
            if epoch > 0 and hp.lr_decay_period > 0 and epoch % hp.lr_decay_period == 0:
                state.opt_q.lr *= hp.lr_decay_factor
            for it in range(hp.iters_per_epoch):
                log = play_iteration(state, draw(), draw(), epoch, it)
                last_iter = (epoch == hp.epochs - 1 and it == hp.iters_per_epoch - 1)
                if eval_data is not None and (
                        (it == hp.iters_per_epoch - 1 and epoch % eval_period == 0)
                        or last_iter):
                    log.q_accuracy = accuracy(q, eval_data[0], eval_data[1])
                state.logs.append(log)
    except Exception as e:
        error = e  # raised below, unless a probe raised before it
    except BaseException:  # an interrupt: stop the worker as well
        if worker is not None:
            worker.close()
        raise
    if worker is not None:
        values, probe_error = worker.finish()
        if probe_error is not None:
            del state.logs[len(values) // 3:]
            error = probe_error
        for i, log in enumerate(state.logs):
            log.bg = balance_gap(*values[3 * i:3 * i + 3])
    state.probe_cache = ProbeCache()  # also after an error mid-iteration
    if isinstance(error, NumericalError):
        epoch, it = divmod(len(state.logs), hp.iters_per_epoch)
        err = NumericalError(f"epoch {epoch}, iteration {it}: {error}")
        err.state = state  # its logs are the iterations before this one
        raise err from None
    if error is not None:
        raise error
    return state


def ablation_config(hp: HyperParams, disable) -> HyperParams:
    """`hp` with the named generator-loss terms left out as well."""
    return replace(hp, disable=hp.disable + tuple(disable))
