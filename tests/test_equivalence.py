"""Fast paths against the slow references they replaced, on randomized inputs.

The queue walk of simulate_channel is checked against the per-frame loop,
its attempt-count draws against Generator.choice, the batched
simulate_channels against each run alone, the batched run_recoveries
against the per-slot loop, the sweep's batch scoring against rmse and the
sweep, in batches and in recovery ranges, against the per-run composition
of the public functions, the batched next_rows against its per-row form,
and the array CSV reader and writers against their per-cell and
per-Command forms, all kept below as references. Every comparison of those is exact: no tolerance.
The VAR fits, which read Q^T y and the residual Gram from the R of a QR
of [X | Y], are checked against the explicit-Q factorisation, and the
blocked tall-skinny QR that takes that R against one QR of the whole
buffer, at a relative tolerance of 1e-10 (FIT_RTOL), with equal best lags
and equal typed errors. The fits and aic, which fill [X | Y] block by block
from the trace, are checked against the same reduction over [X | Y] built
whole, bit for bit (FIT_RTOL for the residuals of one-joint traces).
"""

import csv
import math
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import WindowMean, make_var_system, rotation_trace, simulate_var
from foreco import channel, evaluation, forecasting, recovery
from foreco.channel import (
    DELIVERED,
    QUEUE_OVERFLOW,
    RTX_EXCEEDED,
    ChannelConfig,
    ChannelOutcome,
    ChannelOutcomes,
    ChannelRuns,
    InterferenceParams,
    LossCause,
    MacParams,
    simulate_channel,
    simulate_channels,
)
from foreco.core import (
    Command,
    Provenance,
    RecoveryConfig,
    Trace,
    ms_to_us,
    read_trace_csv,
    us_to_ms,
    write_trace_csv,
)
from foreco.errors import (
    ConfigError,
    DegenerateCovariance,
    ForecoError,
    InsufficientData,
    InvalidTrace,
    RankDeficient,
)
from foreco.evaluation import SweepGrid, rmse, run_sweep
from foreco.forecasting import VarModel, aic, fit_var_ols, lagged_design, predict, select_lag
from foreco.recovery import (
    ExecutedCommands,
    ExecutedStream,
    PolicyMode,
    RecoveryPolicy,
    RecoveryStats,
    on_time_mask,
    replay_deadline,
    run_recoveries,
    run_recovery,
    step_limit_from_trace,
    write_executed_csv,
)


# ---------------------------------------------------------------------------
# Queue walk against the per-frame loop

def random_channel_case(rng: np.random.Generator) -> tuple[Trace, ChannelConfig]:
    """A sliced trace (seq0 and start_us nonzero) and a channel with random
    MAC and interference parameters, waiting-room cap and transport bound."""
    mac = MacParams(
        t_s_ms=float(rng.uniform(0.05, 1.5)),
        t_col_ms=float(rng.uniform(0.05, 1.5)),
        slot_ms=float(rng.uniform(0.002, 0.05)),
        w0=int(rng.integers(2, 64)),
        max_window_exp=int(rng.integers(0, 7)),
        max_rtx=int(rng.integers(1, 10)),
    )
    interference = InterferenceParams(
        p_if=float(rng.uniform(0.0, 1.0)),
        t_if_slots=float(rng.choice([0.0, 1.0, 8.0, 32.0])),
        n_stations=int(rng.integers(1, 40)),
        attempt_prob=float(rng.uniform(0.0, 0.3)),
    )
    period_ms = float(rng.choice([0.5, 1.0, 2.0, 5.0, 20.0]))
    cfg = ChannelConfig(
        mac=mac,
        interference=interference,
        queue_cap=int(rng.choice([1, 2, 3, 5, 12, 50])),
        period_ms=period_ms,
        transport_bound_ms=float(rng.choice([0.0, 0.5, 7.0])),
        seed=int(rng.integers(0, 2**32)),
    )
    n = int(rng.integers(2, 1500))
    full = Trace(ms_to_us(period_ms), ms_to_us(float(rng.integers(0, 1000))), 0, np.zeros((n, 1)))
    start = int(rng.integers(0, n - 1))
    return full.slice(start, int(rng.integers(start + 1, n + 1))), cfg


def _simulate_loop(trace: Trace, cfg: ChannelConfig, arrivals, branches, service, transport) -> ChannelOutcomes:
    """The queue stepped one frame at a time; exact for any waiting-room cap."""
    max_rtx = cfg.mac.max_rtx
    n = len(trace)
    delivered = [False] * n
    delay = [math.nan] * n
    rtx = [-1] * n
    waited = [math.nan] * n
    cause = [DELIVERED] * n
    pending_starts: deque[float] = deque()
    last_departure = -math.inf
    arrivals, branches = arrivals.tolist(), branches.tolist()
    service, transport = service.tolist(), transport.tolist()
    for i in range(n):
        t = arrivals[i]
        while pending_starts and pending_starts[0] <= t:
            pending_starts.popleft()
        if len(pending_starts) >= cfg.queue_cap:
            cause[i] = QUEUE_OVERFLOW
            continue
        start = t if last_departure <= t else last_departure
        j = branches[i]
        duration = service[i]
        if j == max_rtx:
            cause[i] = RTX_EXCEEDED
        else:
            delivered[i] = True
            delay[i] = (start - t) + duration + transport[i]
            rtx[i] = j
            waited[i] = start - t
        last_departure = start + duration
        pending_starts.append(start)
    seq = np.arange(trace.seq0, trace.seq0 + n)
    return ChannelOutcomes(seq, delivered, delay, rtx, waited, cause)


def one_run(cfg: ChannelConfig) -> tuple:
    """The arguments after the template that make a batch of cfg's one run."""
    return [cfg.interference], [cfg.seed]


def run_draws(trace: Trace, cfg: ChannelConfig):
    """Arrival times of the trace's frames, then channel._frame_draws for the
    one run of cfg as 1-D arrays, zero transport delays when the bound is 0."""
    arrivals = (trace.start_us + np.arange(len(trace)) * trace.period_us) / 1000.0
    branches, service, transport = channel._frame_draws(trace, cfg, *one_run(cfg))
    return arrivals, branches[0], service[0], np.zeros(len(trace)) if transport is None else transport[0]


def loop_outcomes(trace: Trace, cfg: ChannelConfig) -> ChannelOutcomes:
    return _simulate_loop(trace, cfg, *run_draws(trace, cfg))


def has_waiting_frame(trace: Trace, cfg: ChannelConfig) -> bool:
    """Whether some frame arrives while its predecessor, started on arrival,
    is still in service; without one, no frame ever waits."""
    arrivals, _, service, _ = run_draws(trace, cfg)
    return bool(np.any(arrivals[:-1] + service[:-1] > arrivals[1:]))


class TestArrayQueue:
    def test_random_cases_equal_the_loop_exactly(self):
        rng = np.random.default_rng(20240611)
        overflowed = idle = 0
        for _ in range(300):
            trace, cfg = random_channel_case(rng)
            fast = simulate_channel(trace, cfg)
            oracle = loop_outcomes(trace, cfg)
            assert fast == oracle
            assert list(fast) == list(oracle)
            assert fast.seq[0] == trace.seq0
            overflowed += bool(np.any(oracle.cause == QUEUE_OVERFLOW))
            idle += not has_waiting_frame(trace, cfg)
        # the cases must reach the cap and must also leave the queue idle
        assert overflowed >= 100
        assert idle >= 50

    @pytest.mark.parametrize("p_if", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("bound", [0.0, 0.5])
    def test_default_grid_cells_equal_the_loop(self, p_if, bound):
        trace = Trace.from_joints(np.zeros((1500, 1)), 20.0).slice(300, 1500)
        for robots in (5, 25):
            interference = InterferenceParams(p_if=p_if, t_if_slots=32.0, n_stations=robots)
            cfg = ChannelConfig(interference=interference, transport_bound_ms=bound, seed=robots)
            out = simulate_channel(trace, cfg)
            assert out == loop_outcomes(trace, cfg)
            if robots == 25:
                assert np.nanmax(out.waited_ms) > 0.0
                assert not np.any(out.cause == QUEUE_OVERFLOW)

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_binding_cap_equals_the_loop(self, cap):
        # 1 ms period against ~3 ms of airtime per frame: the room fills
        trace = Trace.from_joints(np.zeros((400, 1)), 1.0)
        mac = MacParams(t_s_ms=3.0)
        cfg = ChannelConfig(mac=mac, queue_cap=cap, period_ms=1.0, seed=cap)
        out = simulate_channel(trace, cfg)
        assert out == loop_outcomes(trace, cfg)
        assert np.any(out.cause == QUEUE_OVERFLOW)

    def test_waiting_count_at_the_cap_is_detected(self):
        arrivals = np.array([0.0, 1.0, 2.0, 3.0])
        table = [
            # service, cap, starts of the admitted frames, dropped frames;
            # four frames arrive before the first leaves
            ([10.0, 1.0, 1.0, 1.0], 4, [0.0, 10.0, 11.0, 12.0], []),
            ([10.0, 1.0, 1.0, 1.0], 2, [0.0, 10.0, 11.0], [3]),
            ([10.0, 1.0, 1.0, 1.0], 1, [0.0, 10.0], [2, 3]),
            # frame 2 is dropped, so frame 3's entry (2 + 5.0 > 3) is false:
            # the server is idle from 2.6 and frame 3 starts on arrival
            ([2.5, 0.1, 5.0, 0.1], 1, [0.0, 2.5, 3.0], [2]),
            # frame 1 starts at 2.0, as frame 2 arrives: it no longer waits
            # then, so frame 2 finds the room empty
            ([2.0, 1.0, 1.0, 1.0], 1, [0.0, 2.0, 3.0, 4.0], []),
        ]
        for service, cap, starts, dropped in table:
            got, overflow = channel._queue_starts(arrivals, np.array([service]), cap)
            assert np.flatnonzero(overflow[0]).tolist() == dropped
            np.testing.assert_array_equal(got[0][~overflow[0]], starts)
        # the same runs as one batch: each row is walked alone
        services = np.array([service for service, _, _, _ in table])
        for cap in (1, 2, 4):
            got, overflow = channel._queue_starts(arrivals, services, cap)
            for k, service in enumerate(services):
                alone = channel._queue_starts(arrivals, service[None], cap)
                np.testing.assert_array_equal(got[k], alone[0][0])
                np.testing.assert_array_equal(overflow[k], alone[1][0])


# ---------------------------------------------------------------------------
# Attempt-count draws against Generator.choice

def choice_frame_draws(trace: Trace, template: ChannelConfig, interferences, seeds):
    """channel._frame_draws with the attempt counts drawn by Generator.choice,
    one run at a time."""
    max_rtx = template.mac.max_rtx
    times = template.mac.server_times()
    bound = template.transport_bound_ms
    n = len(trace)
    runs = []
    for interference, seed in zip(interferences, seeds, strict=True):
        probs = channel.channel_rtx_probs(replace(template, interference=interference))
        rng = np.random.default_rng(seed)
        branches = rng.choice(max_rtx + 1, size=n, p=probs)
        service = rng.exponential(1.0, size=n) * times[branches]
        service[branches == max_rtx] = times[-1]
        transport = bound * (1.0 - rng.random(n)) if bound > 0 else None
        runs.append((branches, service, transport))
    branches, service, transport = zip(*runs)
    return np.array(branches), np.array(service), None if bound == 0 else np.array(transport)


def random_rtx_probs(rng: np.random.Generator, max_rtx: int) -> tuple[float, ...]:
    """An explicit attempt-count distribution, some entries zero, summing
    to 1 within ChannelConfig's 1e-9."""
    probs = rng.dirichlet(np.full(max_rtx + 1, float(rng.choice([0.2, 1.0, 5.0]))))
    probs[rng.random(max_rtx + 1) < 0.3] = 0.0
    if probs.sum() == 0.0:
        probs[-1] = 1.0
    return tuple((probs / probs.sum()).tolist())


class TestAttemptDraws:
    def test_random_cases_equal_choice_in_every_column(self, monkeypatch):
        rng = np.random.default_rng(20261019)
        cases = []
        for k in range(400):
            trace, cfg = random_channel_case(rng)
            if k % 3 == 0:
                cfg = replace(cfg, rtx_probs=random_rtx_probs(rng, cfg.mac.max_rtx))
            elif k % 3 == 1:
                # attempt failure probabilities from 1e-9 to 0.05, where the
                # loss mass is tiny or, before it was floored, an ulp below 0
                p_if = float(10 ** rng.uniform(-9, -1.3))
                interference = replace(cfg.interference, p_if=p_if, t_if_slots=1.0, n_stations=1)
                cfg = replace(cfg, interference=interference)
            cases.append((trace, cfg))
        fast = [simulate_channel(trace, cfg) for trace, cfg in cases]
        for (trace, cfg), out in zip(cases, fast):
            for a, b in zip(channel._frame_draws(trace, cfg, *one_run(cfg)), choice_frame_draws(trace, cfg, *one_run(cfg))):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
        monkeypatch.setattr(channel, "_frame_draws", choice_frame_draws)
        lost = 0
        for (trace, cfg), out in zip(cases, fast):
            oracle = simulate_channel(trace, cfg)
            for name in ("seq", "delivered", "delay_ms", "rtx", "waited_ms", "cause"):
                a, b = getattr(out, name), getattr(oracle, name)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b, err_msg=name)
            lost += bool(np.any(oracle.cause == RTX_EXCEEDED))
        # the draws must reach every branch, the loss branch included
        assert lost >= 100

    def test_floored_loss_mass_equals_choice(self, monkeypatch):
        # small attempt failure probabilities whose deliverable counts alone
        # sum to an ulp above 1: rtx_distribution floors the loss mass at 0,
        # which Generator.choice accepts
        trace = Trace.from_joints(np.zeros((600, 1)), 20.0)
        cases = [
            ChannelConfig(mac=MacParams(max_rtx=max_rtx), transport_bound_ms=0.5, seed=max_rtx,
                          interference=InterferenceParams(p_if=float(p_if), t_if_slots=1.0))
            for max_rtx in (2, 3, 7, 12)
            for p_if in np.linspace(0.001, 0.2, 500)
        ]
        floored = [cfg for cfg in cases if channel.channel_rtx_probs(cfg)[:-1].sum() > 1.0]
        assert len(floored) >= 10
        fast = [simulate_channel(trace, cfg) for cfg in floored]
        monkeypatch.setattr(channel, "_frame_draws", choice_frame_draws)
        assert all(out == simulate_channel(trace, cfg) for cfg, out in zip(floored, fast))


# ---------------------------------------------------------------------------
# Batched channel runs against each run alone

def per_run_oracle(trace: Trace, cfg: ChannelConfig) -> ChannelOutcomes:
    """One run stepped frame by frame on Generator.choice draws: no code in
    common with simulate_channels."""
    arrivals = (trace.start_us + np.arange(len(trace)) * trace.period_us) / 1000.0
    branches, service, transport = choice_frame_draws(trace, cfg, *one_run(cfg))
    transport = np.zeros(len(trace)) if transport is None else transport[0]
    return _simulate_loop(trace, cfg, arrivals, branches[0], service[0], transport)


def random_interference(rng: np.random.Generator) -> InterferenceParams:
    return InterferenceParams(
        p_if=float(rng.uniform(0.0, 1.0)),
        t_if_slots=float(rng.choice([0.0, 1.0, 8.0, 32.0])),
        n_stations=int(rng.integers(1, 40)),
        attempt_prob=float(rng.uniform(0.0, 0.3)),
    )


class TestBatchChannel:
    """simulate_channels against simulate_channel and per_run_oracle, run by
    run, on every column."""

    def assert_rows_are_the_runs(self, trace, template, interferences, seeds) -> ChannelRuns:
        runs = simulate_channels(trace, template, interferences, seeds)
        assert all(column.shape == (len(seeds), len(trace)) for column in runs)
        configs = [replace(template, interference=i, seed=seed) for i, seed in zip(interferences, seeds, strict=True)]
        for r, cfg in enumerate(configs):
            alone, oracle = simulate_channel(trace, cfg), per_run_oracle(trace, cfg)
            assert alone == oracle
            np.testing.assert_array_equal(alone.seq, np.arange(trace.seq0, trace.seq0 + len(trace)))
            for name, column in zip(ChannelRuns._fields, runs):
                for expected in (getattr(alone, name), getattr(oracle, name)):
                    assert column.dtype == expected.dtype, name
                    np.testing.assert_array_equal(column[r], expected, err_msg=name)
        return runs

    def test_random_batches_equal_each_run_alone(self):
        rng = np.random.default_rng(20261020)
        seen = {"bound 0": 0, "bound > 0": 0, "cap 1": 0, "overflow": 0, "explicit a_j": 0}
        for case in range(60):
            trace, template = random_channel_case(rng)
            template = replace(template, transport_bound_ms=0.0 if case % 2 else float(rng.uniform(0.1, 9.0)))
            if case % 3 == 0:
                template = replace(template, queue_cap=1)
            if case % 5 == 0:
                template = replace(template, rtx_probs=random_rtx_probs(rng, template.mac.max_rtx))
            # one to three runs under each interference, in shuffled order: the
            # runs of an interference need not be adjacent
            cells = [random_interference(rng) for _ in range(int(rng.integers(1, 5)))]
            interferences = [cell for cell in cells for _ in range(int(rng.integers(1, 4)))]
            order = rng.permutation(len(interferences))
            interferences = [interferences[k] for k in order]
            seeds = rng.integers(0, 2**63, size=len(interferences)).tolist()
            runs = self.assert_rows_are_the_runs(trace, template, interferences, seeds)
            seen["bound 0"] += template.transport_bound_ms == 0
            seen["bound > 0"] += template.transport_bound_ms > 0
            seen["cap 1"] += template.queue_cap == 1
            seen["overflow"] += bool(np.any(runs.cause == QUEUE_OVERFLOW))
            seen["explicit a_j"] += template.rtx_probs is not None
        assert all(count >= 10 for count in seen.values()), seen

    def test_a_j_that_loses_every_frame(self):
        trace = Trace.from_joints(np.zeros((300, 1)), 20.0).slice(20, 300)
        template = ChannelConfig(mac=MacParams(max_rtx=3), rtx_probs=(0.0, 0.0, 0.0, 1.0),
                                 transport_bound_ms=2.0, queue_cap=1)
        cell = InterferenceParams(p_if=0.5, t_if_slots=8.0, n_stations=5)
        runs = self.assert_rows_are_the_runs(trace, template, [cell, cell, template.interference], [1, 2, 3])
        assert not runs.delivered.any()
        assert np.isnan(runs.delay_ms).all() and np.isnan(runs.waited_ms).all()
        assert (runs.rtx == -1).all() and (runs.cause == RTX_EXCEEDED).all()

    def test_period_mismatch_is_rejected(self):
        trace = Trace.from_joints(np.zeros((50, 1)), 10.0)
        template = ChannelConfig()
        message = "trace period 10.0 ms does not match channel period 20.0 ms"
        with pytest.raises(ConfigError, match=message):
            simulate_channel(trace, template)
        with pytest.raises(ConfigError, match=message):
            simulate_channels(trace, template, [template.interference] * 3, [1, 2, 3])

    def test_bad_probability_is_rejected(self):
        # an always-on interferer whose window covers every transmission
        # makes every attempt fail
        trace = Trace.from_joints(np.zeros((50, 1)), 20.0)
        template = ChannelConfig()
        bad = InterferenceParams(p_if=1.0, t_if_slots=1e300)
        with pytest.raises(ConfigError) as alone:
            simulate_channel(trace, replace(template, interference=bad, seed=4))
        with pytest.raises(ConfigError) as batch:
            simulate_channels(trace, template, [template.interference, bad], [1, 4])
        assert str(batch.value) == str(alone.value) == "per-attempt failure probability must lie in [0, 1), got 1.0"


# ---------------------------------------------------------------------------
# Bulk recovery against the per-slot loop

class SlotRun(NamedTuple):
    """A run of the per-slot loop: its commands and stats, and the joints
    and codes derived from the commands."""

    commands: tuple[Command | None, ...]
    stats: RecoveryStats
    joints: np.ndarray
    codes: np.ndarray


def codes_from_commands(commands) -> np.ndarray:
    """Each slot's provenance code: 3 for an empty slot, else the index of
    its provenance in (original, forecast, repeat-last)."""
    order = [Provenance.ORIGINAL, Provenance.FORECAST, Provenance.REPEAT_LAST]
    return np.array([3 if c is None else order.index(c.provenance) for c in commands], dtype=np.int8)


def joints_from_commands(commands, fallback) -> np.ndarray:
    """Each slot's joints: an empty slot holds the last executed command
    and leading empty slots the first; with no executed command every slot
    holds fallback."""
    executed = [c.joints for c in commands if c is not None]
    last = executed[0] if executed else fallback
    rows = []
    for c in commands:
        if c is not None:
            last = c.joints
        rows.append(last)
    return np.array(rows, dtype=float)


def per_slot_recovery(trace: Trace, outcomes, policy: RecoveryPolicy) -> SlotRun:
    """The per-slot recovery loop that run_recovery replaced, kept as the
    reference: one deadline test, history deque and policy branch per slot.
    A run with no executed command holds the trace's last row."""
    cfg = policy.cfg
    model = policy.model
    period_ms = trace.period_ms
    history: deque[Command] = deque(maxlen=cfg.record_len)
    slots: list[Command | None] = []
    on_time = forecast = repeated = dropped = 0
    for cmd, outcome in zip(trace.samples, outcomes):
        if replay_deadline(outcome, period_ms, cfg):
            executed = cmd
            on_time += 1
        else:
            action = policy.mode
            if action is PolicyMode.FORECAST and len(history) < model.min_history:
                action = PolicyMode.REPEAT_LAST
            if action is PolicyMode.FORECAST:
                predicted = predict(model, list(history), period_ms=period_ms)
                joints = predicted.joints
                if policy.max_step_per_joint is not None:
                    prev = history[-1].joints
                    joints = tuple(
                        p + min(max(j - p, -lim), lim)
                        for j, p, lim in zip(joints, prev, policy.max_step_per_joint)
                    )
                executed = replace(predicted, seq=cmd.seq, gen_time_us=cmd.gen_time_us, joints=joints)
                forecast += 1
            elif action is PolicyMode.REPEAT_LAST and history:
                executed = Command(
                    seq=cmd.seq, joints=history[-1].joints, gen_time_us=cmd.gen_time_us,
                    provenance=Provenance.REPEAT_LAST,
                )
                repeated += 1
            else:
                executed = None
                dropped += 1
        slots.append(executed)
        if executed is not None:
            history.append(executed)
    return SlotRun(
        tuple(slots), RecoveryStats(on_time, forecast, repeated, dropped),
        joints_from_commands(slots, tuple(trace.joints[-1])), codes_from_commands(slots),
    )


def random_outcomes(rng: np.random.Generator, trace: Trace, deadline_ms: float) -> list[ChannelOutcome]:
    """Losses and late deliveries at a random rate, sometimes in bursts, and
    delays scattered around the deadline, exactly at it included."""
    n = len(trace)
    kind = rng.choice(["none", "all", "scatter", "bursts", "leading"])
    missed = np.zeros(n, dtype=bool)
    if kind == "all":
        missed[:] = True
    elif kind == "scatter":
        missed = rng.random(n) < rng.uniform(0.05, 0.9)
    elif kind in ("bursts", "leading"):
        for start in rng.integers(0, n, size=int(rng.integers(1, 6))):
            missed[start : start + int(rng.integers(1, 60))] = True
        if kind == "leading":
            missed[: int(rng.integers(1, 40))] = True
    outcomes = []
    for i, miss in enumerate(missed.tolist()):
        seq = trace.seq0 + i
        if miss and rng.random() < 0.5:
            outcomes.append(ChannelOutcome.loss(seq, LossCause.RTX_EXCEEDED))
        elif miss:
            late = float(np.nextafter(deadline_ms, np.inf)) if rng.random() < 0.3 else deadline_ms + float(rng.uniform(0.01, 40))
            outcomes.append(ChannelOutcome.delivery(seq, late, 1, 0.0))
        else:
            delay = deadline_ms if rng.random() < 0.1 else float(rng.uniform(0.0, deadline_ms))
            outcomes.append(ChannelOutcome.delivery(seq, delay, 0, 0.0))
    return outcomes


def smooth_trace(rng: np.random.Generator, n: int, d: int) -> Trace:
    t = np.arange(n) * 0.02
    joints = np.sin(2 * np.pi * np.outer(t, rng.uniform(0.2, 0.5, d)) + rng.uniform(0, 6, d))
    joints += rng.normal(0.0, 1e-3, joints.shape)
    full = Trace(ms_to_us(20.0), ms_to_us(40.0), 0, joints)
    return full.slice(int(rng.integers(0, 30)), n)


def assert_same_stream(fast: ExecutedStream, slow: SlotRun) -> None:
    assert fast.stats == slow.stats
    assert tuple(fast.commands) == tuple(slow.commands)
    np.testing.assert_array_equal(fast.codes, slow.codes)
    np.testing.assert_array_equal(fast.joints, slow.joints)


class WholeRecordMean:
    """A duck-typed forecaster that reads every command it is given, so a
    history window of the wrong length changes its forecasts."""

    dim = 3
    min_history = 2

    def predict_next(self, history, period_ms):
        last = history[-1]
        joints = np.mean([c.joints for c in history], axis=0) + 0.01 * len(history)
        return Command(last.seq + 1, tuple(joints.tolist()), last.gen_time_us + round(period_ms * 1000),
                       provenance=Provenance.FORECAST)


class TestBulkRecovery:
    def test_random_cases_equal_the_per_slot_loop(self):
        rng = np.random.default_rng(7)
        train = smooth_trace(rng, 800, 3)
        models = [fit_var_ols(train, lag) for lag in (1, 3, 8)] + [WindowMean(3, 4), WholeRecordMean()]
        limits = step_limit_from_trace(train, margin=1.2)
        for case in range(60):
            trace = smooth_trace(rng, int(rng.integers(40, 400)), 3)
            cfg = RecoveryConfig(
                tolerance_ms=float(rng.choice([0.0, 2.5])), record_len=int(rng.integers(8, 25))
            )
            outcomes = random_outcomes(rng, trace, trace.period_ms + cfg.tolerance_ms)
            model = models[case % len(models)]
            step = limits if rng.random() < 0.5 else None
            policies = [
                RecoveryPolicy(PolicyMode.FORECAST, cfg, model, max_step_per_joint=step),
                RecoveryPolicy(PolicyMode.REPEAT_LAST, cfg),
                RecoveryPolicy(PolicyMode.DROP, cfg),
            ]
            columns = ChannelOutcomes.from_outcomes(outcomes)
            for policy in policies:
                slow = per_slot_recovery(trace, outcomes, policy)
                assert_same_stream(run_recovery(trace, outcomes, policy), slow)
                assert_same_stream(run_recovery(trace, columns, policy), slow)

    def test_simulated_channel_outcomes(self, pick_and_place_split):
        train, test = pick_and_place_split
        model = fit_var_ols(train, 20, ridge=0.1)
        cfg = RecoveryConfig(record_len=20)
        policy = RecoveryPolicy(
            PolicyMode.FORECAST, cfg, model, max_step_per_joint=step_limit_from_trace(train, 1.5)
        )
        interference = InterferenceParams(p_if=0.9, t_if_slots=32.0, n_stations=25)
        outcomes = simulate_channel(test, ChannelConfig(interference=interference, seed=3))
        assert_same_stream(run_recovery(test, outcomes, policy), per_slot_recovery(test, outcomes, policy))

    def test_on_time_commands_are_the_trace_objects(self):
        rng = np.random.default_rng(1)
        trace = smooth_trace(rng, 200, 2)
        outcomes = random_outcomes(rng, trace, trace.period_ms)
        stream = run_recovery(trace, outcomes, RecoveryPolicy(PolicyMode.REPEAT_LAST))
        mask = on_time_mask(ChannelOutcomes.from_outcomes(outcomes), trace.period_ms, RecoveryConfig())
        for hit, executed, sent in zip(mask, stream.commands, trace.samples):
            if hit:
                assert executed is sent


def spaced_losses(trace: Trace, start: int, gaps: list[int]) -> list[ChannelOutcome]:
    """Every slot on time except single losses at start and then each gap
    further on."""
    lost = {start}
    for gap in gaps:
        start += gap
        lost.add(start)
    return [
        ChannelOutcome.loss(trace.seq0 + i, LossCause.RTX_EXCEEDED) if i in lost
        else ChannelOutcome.delivery(trace.seq0 + i, 0.0, 0, 0.0)
        for i in range(len(trace))
    ]


def on_time_masks(trace: Trace, runs, cfg: RecoveryConfig) -> np.ndarray:
    """The (R, H) on-time mask of runs of outcomes, one on_time_mask per run."""
    return np.array([on_time_mask(ChannelOutcomes.from_outcomes(o), trace.period_ms, cfg) for o in runs])


def executed_joints(table: np.ndarray, src: np.ndarray) -> np.ndarray:
    """run_recoveries' (R, H, d) executed joints: each slot's source row of
    the table."""
    return np.take(table, src, axis=0)


def assert_same_run(joints, codes, slow: SlotRun | ExecutedStream) -> None:
    """One run of run_recoveries' arrays against an oracle run: the same
    codes, joints and stats counted from the codes."""
    assert RecoveryStats(*np.bincount(codes, minlength=4).tolist()) == slow.stats
    np.testing.assert_array_equal(codes, slow.codes)
    np.testing.assert_array_equal(joints, slow.joints)


class TestBatchedRecovery:
    """run_recoveries on batches of runs equals per_slot_recovery run by run."""

    def test_random_batches_equal_the_per_slot_loop(self):
        rng = np.random.default_rng(10)
        train = smooth_trace(rng, 800, 3)
        models = [fit_var_ols(train, lag) for lag in (1, 3, 8, 20)] + [WindowMean(3, 5), WholeRecordMean()]
        limits = step_limit_from_trace(train, margin=1.2)
        kinds = {"all lost": 0, "loss free": 0, "leading loss": 0}
        for case in range(36):
            model = models[case % len(models)]
            trace = smooth_trace(rng, int(rng.integers(60, 300)), 3)
            cfg = RecoveryConfig(
                tolerance_ms=float(rng.choice([0.0, 2.5])),
                record_len=model.min_history + int(rng.integers(0, 12)),
            )
            runs = [
                random_outcomes(rng, trace, trace.period_ms + cfg.tolerance_ms)
                for _ in range(int(rng.integers(1, 7)))
            ]
            for outcomes in runs:
                missed = ~on_time_mask(ChannelOutcomes.from_outcomes(outcomes), trace.period_ms, cfg)
                kinds["all lost"] += bool(missed.all())
                kinds["loss free"] += not missed.any()
                kinds["leading loss"] += bool(missed[0] and not missed.all())
            step = limits if case % 2 else None
            policies = [
                RecoveryPolicy(PolicyMode.FORECAST, cfg, model, max_step_per_joint=step),
                RecoveryPolicy(PolicyMode.REPEAT_LAST, cfg),
                RecoveryPolicy(PolicyMode.DROP, cfg),
            ]
            for policy in policies:
                table, src, codes = run_recoveries(trace, on_time_masks(trace, runs, cfg), policy)
                assert src.shape == (len(runs), len(trace)) and src.dtype == np.int32
                assert codes.shape == (len(runs), len(trace)) and codes.dtype == np.int8
                joints = executed_joints(table, src)
                for outcomes, *arrays in zip(runs, joints, codes):
                    assert_same_run(*arrays, per_slot_recovery(trace, outcomes, policy))
        assert all(count >= 3 for count in kinds.values()), kinds

    @pytest.mark.parametrize("record_rows", [1, 7, 24])
    def test_levels_forecast_in_parts_equal_whole_levels(self, monkeypatch, record_rows):
        # a level whose records hold more than _RECORD_ROWS past rows is
        # forecast in parts of at most _RECORD_ROWS // lag slots
        rng = np.random.default_rng(18 + record_rows)
        train = smooth_trace(rng, 600, 3)
        trace = smooth_trace(rng, 250, 3)
        cfg = RecoveryConfig(record_len=10)
        mask = on_time_masks(trace, [random_outcomes(rng, trace, trace.period_ms) for _ in range(30)], cfg)
        for model in (fit_var_ols(train, 4), WholeRecordMean()):
            policy = RecoveryPolicy(PolicyMode.FORECAST, cfg, model, max_step_per_joint=(0.05, 0.1, 0.2))
            whole = run_recoveries(trace, mask, policy)
            _, ends = recovery._forecast_levels(whole[2] == 1, cfg.record_len)
            assert np.diff(ends, prepend=0).max() > max(1, record_rows // model.min_history)
            monkeypatch.setattr(recovery, "_RECORD_ROWS", record_rows)
            for a, b in zip(run_recoveries(trace, mask, policy), whole):
                np.testing.assert_array_equal(a, b)
            monkeypatch.undo()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_few_joint_runs_equal_the_per_slot_loop(self, dim):
        # one joint is the case where numpy multiplies a record with or
        # without BLAS depending on its layout
        rng = np.random.default_rng(14 + dim)
        train = smooth_trace(rng, 600, dim)
        trace = smooth_trace(rng, 300, dim)
        cfg = RecoveryConfig(record_len=12)
        runs = [random_outcomes(rng, trace, trace.period_ms) for _ in range(6)]
        for lag in (3, 12):
            for step in (None, step_limit_from_trace(train, 1.1)):
                policy = RecoveryPolicy(PolicyMode.FORECAST, cfg, fit_var_ols(train, lag), max_step_per_joint=step)
                table, src, codes = run_recoveries(trace, on_time_masks(trace, runs, cfg), policy)
                assert np.count_nonzero(codes == 1) > 0
                for outcomes, *arrays in zip(runs, executed_joints(table, src), codes):
                    assert_same_run(*arrays, per_slot_recovery(trace, outcomes, policy))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_forecasts_a_record_apart(self, extra):
        # Single losses record_len (+ extra) slots apart: at record_len the
        # later forecast reads the earlier one, at record_len + 1 it does not.
        rng = np.random.default_rng(12)
        train = smooth_trace(rng, 600, 3)
        record_len = 8
        cfg = RecoveryConfig(record_len=record_len)
        trace = smooth_trace(rng, 200, 3)
        runs = [
            spaced_losses(trace, 30, [record_len + extra] * 6),
            spaced_losses(trace, 45, [record_len + extra, 1, record_len + extra, 2]),
            random_outcomes(rng, trace, trace.period_ms),
        ]
        for model in (fit_var_ols(train, record_len), WindowMean(3, record_len), WholeRecordMean()):
            policy = RecoveryPolicy(PolicyMode.FORECAST, cfg, model)
            table, src, codes = run_recoveries(trace, on_time_masks(trace, runs, cfg), policy)
            for outcomes, *arrays in zip(runs, executed_joints(table, src), codes):
                assert_same_run(*arrays, per_slot_recovery(trace, outcomes, policy))
            assert np.count_nonzero(codes[0] == 1) == 7

    def test_single_run_is_the_batch_of_one(self):
        rng = np.random.default_rng(13)
        trace = smooth_trace(rng, 300, 3)
        model = fit_var_ols(smooth_trace(rng, 600, 3), 6)
        runs = [random_outcomes(rng, trace, trace.period_ms) for _ in range(5)]
        policy = RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=10), model)
        table, src, codes = run_recoveries(trace, on_time_masks(trace, runs, policy.cfg), policy)
        for outcomes, joints, run_codes in zip(runs, executed_joints(table, src), codes):
            assert_same_run(joints, run_codes, run_recovery(trace, outcomes, policy))
            alone = run_recoveries(trace, on_time_masks(trace, [outcomes], policy.cfg), policy)
            np.testing.assert_array_equal(joints, executed_joints(*alone[:2])[0])
            np.testing.assert_array_equal(run_codes, alone[2][0])

    def test_sources_point_into_one_table(self):
        """The table is the trace's rows, then one row per forecast slot;
        repeat-last and drop return the trace's joints and the mask's
        held_sources, and a given held_sources gives what run_recoveries
        computes without it."""
        rng = np.random.default_rng(17)
        trace = smooth_trace(rng, 300, 3)
        model = fit_var_ols(smooth_trace(rng, 600, 3), 6)
        runs = [random_outcomes(rng, trace, trace.period_ms) for _ in range(4)]
        forecasts = 0
        for policy in (RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=10), model),
                       RecoveryPolicy(PolicyMode.REPEAT_LAST), RecoveryPolicy(PolicyMode.DROP)):
            mask = on_time_masks(trace, runs, policy.cfg)
            held = recovery.held_sources(mask)
            table, src, codes = run_recoveries(trace, mask, policy)
            given = run_recoveries(trace, mask, policy, held)
            for a, b in zip((table, src, codes), given):
                np.testing.assert_array_equal(a, b)
            n_forecast = np.count_nonzero(codes == 1)
            forecasts += n_forecast
            assert table.shape == (len(trace) + n_forecast, trace.dim)
            np.testing.assert_array_equal(table[: len(trace)], trace.joints)
            # each forecast slot has a row of its own, every other slot the
            # trace row it holds
            assert sorted(src[codes == 1].tolist()) == list(range(len(trace), len(table)))
            np.testing.assert_array_equal(src[codes != 1], held[codes != 1])
            if policy.mode is not PolicyMode.FORECAST:
                assert table is trace.joints and given[1] is held
        assert forecasts > 0

    def test_a_mask_past_int32_sources_is_refused(self):
        # 2**15 runs of 2**16 slots: a broadcast view, so nothing is allocated
        mask = np.broadcast_to(np.ones((1, 1 << 16), dtype=bool), (1 << 15, 1 << 16))
        with pytest.raises(ConfigError, match="32768 runs of 65536 slots are more than a recovery can index"):
            recovery.held_sources(mask)
        recovery.held_sources(mask[:1])

    def test_mask_of_the_wrong_shape_is_rejected(self):
        rng = np.random.default_rng(16)
        trace = smooth_trace(rng, 50, 3)
        policy = RecoveryPolicy(PolicyMode.REPEAT_LAST)
        for mask in (np.ones(len(trace), bool), np.ones((2, len(trace) + 1), bool), np.ones((1, 2, 3), bool)):
            with pytest.raises(ConfigError, match="on-time mask of shape"):
                run_recoveries(trace, mask, policy)
        with pytest.raises(ConfigError, match=f"{len(trace) - 1} outcomes for {len(trace)} commands"):
            run_recovery(trace, random_outcomes(rng, trace, trace.period_ms)[1:], policy)


class TestBatchScoring:
    """evaluation._run_errors against rmse on each run's ExecutedStream."""

    def test_random_runs_equal_rmse(self):
        rng = np.random.default_rng(17)
        train = smooth_trace(rng, 800, 3)
        models = [fit_var_ols(train, lag) for lag in (1, 4, 12)] + [WindowMean(3, 3)]
        seen = {"leading drop": 0, "dropped inside": 0, "tolerance": 0, "no executed slot": 0}
        for case in range(40):
            trace = smooth_trace(rng, int(rng.integers(30, 300)), 3)
            runs = [random_outcomes(rng, trace, trace.period_ms + float(rng.choice([0.0, 2.5])))
                    for _ in range(int(rng.integers(1, 6)))]

            def cfg():
                return RecoveryConfig(tolerance_ms=float(rng.choice([0.0, 1.0, 2.5])), record_len=12)

            policies = [
                RecoveryPolicy(PolicyMode.FORECAST, cfg(), models[case % len(models)],
                               max_step_per_joint=step_limit_from_trace(train) if case % 2 else None),
                RecoveryPolicy(PolicyMode.REPEAT_LAST, cfg()),
                RecoveryPolicy(PolicyMode.DROP, cfg()),
            ]
            for policy in policies:
                # each policy's own mask: the tolerances differ
                table, src, codes = run_recoveries(trace, on_time_masks(trace, runs, policy.cfg), policy)
                executed = ~(codes != 0).all(axis=1)
                streams = [run_recovery(trace, outcomes, policy) for outcomes in runs]
                expected = [rmse(stream, trace) for stream, ok in zip(streams, executed) if ok]
                got = evaluation._run_errors(trace, table, src[executed], codes[executed])
                assert got.tolist() == expected
                # in the whole batch, a run with no executed slot scores NaN,
                # where rmse fails, and the other runs score as alone
                whole = evaluation._run_errors(trace, table, src, codes)
                assert whole[executed].tolist() == expected
                assert np.isnan(whole[~executed]).all()
                if not executed.all():
                    with pytest.raises(ConfigError, match="stream has no executed commands"):
                        rmse(streams[int(np.argmin(executed))], trace)
                dropped = codes[executed] == 3
                seen["leading drop"] += int(dropped[:, 0].sum())
                seen["dropped inside"] += int((dropped[:, 1:] & ~dropped[:, :-1]).sum())
                seen["tolerance"] += policy.cfg.tolerance_ms > 0
                seen["no executed slot"] += int((~executed).sum())
        assert all(count >= 5 for count in seen.values()), seen


def per_run_sweep(trace: Trace, grid, template: ChannelConfig, policies) -> dict:
    """run_sweep's cells composed one run at a time, as perfbench's sweep
    warm-up composes them: simulate_channel on the cell's config seeded
    from (master seed, cell index, repetition), then run_recovery and rmse
    per policy, NaN for a run that executed no command."""
    cells = {}
    for index, (robots, prob, duration) in enumerate(grid.cells()):
        interference = replace(template.interference, p_if=prob, t_if_slots=duration, n_stations=robots)
        values = {policy.label: [] for policy in policies}
        for rep in range(grid.repetitions):
            seq = np.random.SeedSequence([grid.master_seed, index, rep])
            seed = int(seq.generate_state(1, dtype=np.uint64)[0])
            outcomes = simulate_channel(trace, replace(template, interference=interference, seed=seed))
            for policy in policies:
                stream = run_recovery(trace, outcomes, policy)
                executed = stream.stats.dropped < len(stream)
                values[policy.label].append(rmse(stream, trace) if executed else math.nan)
        cells[(robots, prob, duration)] = values
    return cells


class TestSweepPipeline:
    """run_sweep's batches of arrays against the per-run composition."""

    @pytest.fixture(scope="class")
    def policies(self, pick_and_place_split):
        train, _ = pick_and_place_split
        model = fit_var_ols(train, 6, ridge=0.1)
        return (
            RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=10), model,
                           max_step_per_joint=step_limit_from_trace(train, 1.5)),
            RecoveryPolicy(PolicyMode.REPEAT_LAST, RecoveryConfig(tolerance_ms=3.0, record_len=10)),
            RecoveryPolicy(PolicyMode.DROP, RecoveryConfig(tolerance_ms=0.5)),
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_random_grids_equal_the_per_run_composition(self, pick_and_place_split, policies, monkeypatch, jobs):
        _, test = pick_and_place_split
        rng = np.random.default_rng(19 + jobs)
        for _ in range(3):
            n = int(rng.integers(40, 400))
            start = int(rng.integers(0, len(test) - n + 1))
            trace = test.slice(start, start + n)

            def axis(values):
                return tuple(rng.choice(values, size=int(rng.integers(1, 3)), replace=False).tolist())

            grid = SweepGrid(probs=axis([0.0, 0.5, 0.9]), durations=axis([1.0, 8.0, 32.0]),
                             robot_counts=axis([1, 5, 25]), repetitions=int(rng.integers(1, 4)),
                             master_seed=int(rng.integers(0, 1000)))
            template = ChannelConfig(transport_bound_ms=float(rng.choice([0.0, 6.0])),
                                     queue_cap=int(rng.choice([1, 50])))
            # below one cell's rows, so that cells are split across batches
            monkeypatch.setattr(evaluation, "_BATCH_SLOTS", int(rng.integers(1, grid.repetitions * n)))
            result = run_sweep(trace, grid, template, policies, jobs=jobs)
            assert result.cells == per_run_sweep(trace, grid, template, policies)

    def test_default_batches_equal_the_per_run_composition(self, pick_and_place_split, policies):
        _, test = pick_and_place_split
        trace = test.slice(0, 300)
        grid = SweepGrid(probs=(0.0, 0.3, 0.9), durations=(2.0, 32.0), robot_counts=(5, 25),
                         repetitions=3, master_seed=5)
        result = run_sweep(trace, grid, ChannelConfig(transport_bound_ms=2.0), policies)
        assert result.cells == per_run_sweep(trace, grid, ChannelConfig(transport_bound_ms=2.0), policies)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runs_with_no_executed_slot_score_nan(self, pick_and_place_split, policies, jobs):
        _, test = pick_and_place_split
        trace = test.slice(0, 3)
        grid = SweepGrid(probs=(0.0, 0.5), durations=(1.0,), robot_counts=(1,), repetitions=12, master_seed=2)
        nan_runs = []
        for a_j in ((0.0, 0.0, 1.0), (0.5, 0.0, 0.5)):
            template = ChannelConfig(mac=MacParams(max_rtx=2), rtx_probs=a_j)
            result = run_sweep(trace, grid, template, policies, jobs=jobs)
            # repr tells floats apart exactly and reads NaN as NaN
            assert repr(result.cells) == repr(per_run_sweep(trace, grid, template, policies))
            values = [v for cell in result.cells.values() for vs in cell.values() for v in vs]
            nan_runs.append(sum(map(math.isnan, values)))
        # every run of the first template is lost; some, not all, of the second
        assert nan_runs[0] == 2 * 12 * len(policies)
        assert 0 < nan_runs[1] < 2 * 12 * len(policies)


class PredictOnly:
    """A forecaster with predict_next only, no next_rows: a model reached
    through predict, one Command history per forecast."""

    def __init__(self, model):
        self.dim = model.dim
        self.min_history = model.min_history
        self._model = model

    def predict_next(self, history, period_ms):
        return self._model.predict_next(history, period_ms)


class TestRecoveryRanges:
    """A sweep's recovery ranges (several channel batches, one hold pass per
    on-time mask and one forecast level loop per policy) against the per-run
    composition, bit for bit."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_random_ranges_equal_the_per_run_composition(self, pick_and_place_split, monkeypatch,
                                                         recording_pool, jobs):
        train, test = pick_and_place_split
        var = fit_var_ols(train, 5, ridge=0.1)
        limits = step_limit_from_trace(train, 1.5)
        rng = np.random.default_rng(29 + jobs)
        spans = []
        masks = []
        ranges = evaluation._recovery_ranges
        held_sources = evaluation.held_sources

        def spy_ranges(batches, n_slots):
            groups = ranges(batches, n_slots)
            spans.append([len(group) for group in groups])
            return groups

        def spy_held(mask):
            masks.append(mask.shape)
            return held_sources(mask)

        monkeypatch.setattr(evaluation, "_recovery_ranges", spy_ranges)
        monkeypatch.setattr(evaluation, "held_sources", spy_held)
        for case in range(6):
            n = int(rng.integers(40, 200))
            start = int(rng.integers(0, len(test) - n + 1))
            trace = test.slice(start, start + n)
            grid = SweepGrid(probs=(0.0, 0.6, 0.9), durations=(8.0, 32.0), robot_counts=(25,),
                             repetitions=int(rng.integers(1, 4)), master_seed=int(rng.integers(0, 1000)))
            n_runs = len(grid.cells()) * grid.repetitions
            forecaster = var if case % 2 else PredictOnly(var)
            # forecast and repeat-last share one mask, drop has its own
            policies = (
                RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=8), forecaster,
                               max_step_per_joint=limits if case % 3 else None),
                RecoveryPolicy(PolicyMode.REPEAT_LAST, RecoveryConfig(record_len=8)),
                RecoveryPolicy(PolicyMode.DROP, RecoveryConfig(tolerance_ms=2.0)),
            )
            batch_runs = int(rng.integers(1, 4))
            monkeypatch.setattr(evaluation, "_BATCH_SLOTS", batch_runs * n)
            # a range of one batch, of two or three, or of every batch
            range_runs = (batch_runs, int(rng.integers(2, 4)) * batch_runs, n_runs)[case % 3]
            monkeypatch.setattr(evaluation, "_RANGE_SLOTS", range_runs * n)
            masks.clear()
            result = run_sweep(trace, grid, ChannelConfig(transport_bound_ms=2.0), policies, jobs=jobs)
            # repr tells floats apart exactly and reads NaN as NaN
            assert repr(result.cells) == repr(per_run_sweep(trace, grid, ChannelConfig(transport_bound_ms=2.0),
                                                            policies))
            # two masks per range, as many rows as runs
            assert sum(rows for rows, _ in masks) == 2 * n_runs
        if jobs == 1:
            assert len(recording_pool["tasks"]) == 0
            # ranges of one batch, of several and of all the batches
            assert any(max(groups) == 1 < len(groups) for groups in spans)
            assert any(1 < max(groups) and len(groups) > 1 for groups in spans)
            assert any(len(groups) == 1 < groups[0] for groups in spans)
        else:
            assert len(recording_pool["tasks"]) == 6 and all(groups == [1] for groups in spans)


class TestNextRows:
    """Batched next_rows against the per-row forms, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    @pytest.mark.parametrize("lag, dim", [(1, 3), (3, 6), (20, 6), (5, 1)])
    def test_var_rows_are_the_per_row_gemv(self, n, lag, dim):
        rng = np.random.default_rng(lag * 1000 + n)
        model = VarModel(
            dim=dim, lag=lag, bias=rng.normal(size=dim), coeffs=rng.normal(size=(lag, dim, dim)) / lag,
            residual_cov=np.eye(dim),
        )
        records = rng.normal(size=(n, lag + int(rng.integers(0, 4)), dim))
        got = model.next_rows(records)
        expected = [model.bias + model.stacked @ record[::-1][:lag].reshape(-1) for record in records]
        assert got.shape == (n, dim)
        assert np.array_equal(got, np.array(expected))
        # records stored newest first, as recovery gathers them, and passed
        # as a reversed view give the same rows, one joint included
        newest_first = np.ascontiguousarray(records[:, ::-1])
        assert np.array_equal(model.next_rows(newest_first[:, ::-1]), got)


# ---------------------------------------------------------------------------
# VAR fits from the R of [X | Y] against the explicit-Q factorisation

# Both fits are backward stable, so they agree to a few ulps times the
# design's condition number; compared relative to the reference's largest
# entry.
FIT_RTOL = 1e-10


def explicit_q_fit(train: Trace, lag: int, ridge: float) -> VarModel:
    """fit_var_ols by a reduced QR of the design with its explicit Q, the
    ridge rows stacked under it, and Q^T y."""
    values = forecasting._check_fit_inputs(train, lag)
    x, y = lagged_design(values, lag)
    xs, ys = x, y
    if ridge > 0.0:
        k = x.shape[1]
        xs = np.vstack([x, math.sqrt(ridge) * np.eye(k)[1:]])
        ys = np.vstack([y, np.zeros((k - 1, y.shape[1]))])
    q, r = np.linalg.qr(xs)
    forecasting._check_pivots(np.abs(np.diag(r)), train.dim)
    weights = np.linalg.solve(r, q.T @ ys)
    resid = y - x @ weights
    d = train.dim
    coeffs = np.stack([weights[1 + i * d : 1 + (i + 1) * d].T for i in range(lag)]) if lag else np.zeros((0, d, d))
    return VarModel(dim=d, lag=lag, bias=weights[0], coeffs=coeffs, residual_cov=resid.T @ resid / len(resid))


def explicit_q_select(train: Trace, max_lag: int) -> tuple[int, list[float]]:
    """select_lag with E = y - Q Q^T y formed from the explicit Q."""
    values = forecasting._check_fit_inputs(train, max_lag)
    x, y = lagged_design(values, max_lag)
    n, d = y.shape
    q, r = np.linalg.qr(x)
    c = q.T @ y
    e = y - q @ c
    pivots = np.abs(np.diag(r))
    curve = []
    for lag in range(1, max_lag + 1):
        k = 1 + lag * d
        forecasting._check_pivots(pivots[:k], d)
        cov = (e.T @ e + c[k:].T @ c[k:]) / n
        chol = forecasting._checked_cholesky(cov, forecasting._data_scale(values))
        loglik = -0.5 * n * d * (math.log(2.0 * math.pi) + 1.0) - n * float(np.sum(np.log(np.diag(chol))))
        curve.append(2.0 * d * d * lag - loglik)
    return 1 + int(np.argmin(curve)), curve


def assert_rel_close(new, old) -> None:
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old), initial=0.0) <= FIT_RTOL * np.max(np.abs(old), initial=0.0)


def assert_same_fit(new: VarModel, old: VarModel) -> None:
    for a, b in ((new.bias, old.bias), (new.coeffs, old.coeffs), (new.residual_cov, old.residual_cov)):
        assert_rel_close(a, b)


def assert_same_selection(new, old) -> None:
    (best, curve), (old_best, old_curve) = new, old
    assert_rel_close(curve, old_curve)
    assert best == old_best


def outcome(fn, *args):
    """fn(*args), or the ForecoError it raised."""
    try:
        return fn(*args)
    except ForecoError as exc:
        return exc


def assert_same_error(new, old, kind) -> None:
    assert type(new) is type(old) is kind
    assert str(new) == str(old)
    if kind is RankDeficient:
        assert new.column == old.column


def needed_rows(d: int, lag: int) -> int:
    return lag + d * lag + 1


def random_var_values(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """A stable VAR(1) or VAR(2) path with noise and a per-joint offset."""
    mats = make_var_system(d, int(rng.integers(1, 3)), int(rng.integers(0, 2**31)), rho=float(rng.uniform(0.3, 0.95)))
    path = simulate_var(mats, n, int(rng.integers(0, 2**31)), noise=float(rng.uniform(0.01, 0.5)))
    return path + rng.normal(0.0, 2.0, d)


class TestRFactorFit:
    """fit_var_ols and select_lag from the R of one QR of [X | Y] against
    the explicit-Q factorisation they replaced, at FIT_RTOL."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_traces_match_the_explicit_q_fit(self, seed):
        rng = np.random.default_rng(seed)
        d, lag, max_lag = int(rng.integers(1, 8)), int(rng.integers(0, 9)), int(rng.integers(1, 9))
        n = needed_rows(d, max(lag, max_lag)) + int(rng.integers(4 * d + 20, 400))
        train = Trace.from_joints(random_var_values(rng, n, d), 20.0)
        for ridge in (0.0, 0.1):
            assert_same_fit(fit_var_ols(train, lag, ridge), explicit_q_fit(train, lag, ridge))
        assert_same_selection(select_lag(train, max_lag), explicit_q_select(train, max_lag))

    @pytest.mark.parametrize("d, lag", [(1, 1), (3, 2), (7, 8), (2, 5), (4, 0), (1, 0)])
    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_trace_of_exactly_the_needed_rows(self, d, lag, ridge):
        # n = k targets: [X | Y] has fewer than k + d rows, so R_e has fewer
        # than d rows (none without ridge rows; lag 0 has no ridge rows)
        rng = np.random.default_rng(100 * d + lag)
        values = rng.normal(size=(needed_rows(d, lag), d))
        train = Trace.from_joints(values, 20.0)
        new, old = fit_var_ols(train, lag, ridge), explicit_q_fit(train, lag, ridge)
        assert_rel_close(np.vstack([new.bias, *new.coeffs]), np.vstack([old.bias, *old.coeffs]))
        if ridge == 0.0 or lag == 0:
            # the fit interpolates: both covariances are float noise
            scale = float(np.max(np.var(values, axis=0)))
            assert max(np.max(np.abs(new.residual_cov)), np.max(np.abs(old.residual_cov))) <= 1e-20 * scale
        else:
            assert_rel_close(new.residual_cov, old.residual_cov)
        if lag:
            # the max-lag residual is zero: no covariance of d residual rows
            with pytest.raises(InsufficientData, match=f"need at least {needed_rows(d, lag) + d}$"):
                select_lag(train, lag)

    @pytest.mark.parametrize("joint", [0, 2])
    def test_constant_joint_is_rank_deficient_at_the_same_column(self, joint):
        values = np.random.default_rng(joint).normal(size=(300, 3))
        values[:, joint] = 0.3
        train = Trace.from_joints(values, 20.0)
        for lag in (1, 3):
            assert_same_error(outcome(fit_var_ols, train, lag, 0.0), outcome(explicit_q_fit, train, lag, 0.0),
                              RankDeficient)
        assert_same_error(outcome(select_lag, train, 4), outcome(explicit_q_select, train, 4), RankDeficient)

    def test_noiseless_trace_is_degenerate_on_both(self):
        train = rotation_trace(200, 0.5, amp=1.0)
        assert_same_error(outcome(select_lag, train, 3), outcome(explicit_q_select, train, 3), DegenerateCovariance)

    @pytest.mark.parametrize("d, lag", [(3, 2), (1, 4), (6, 1)])
    def test_too_short_a_trace_is_insufficient_on_both(self, d, lag):
        train = Trace.from_joints(np.random.default_rng(d).normal(size=(needed_rows(d, lag) - 1, d)), 20.0)
        for ridge in (0.0, 0.1):
            assert_same_error(outcome(fit_var_ols, train, lag, ridge), outcome(explicit_q_fit, train, lag, ridge),
                              InsufficientData)
        assert type(outcome(explicit_q_select, train, lag)) is InsufficientData
        with pytest.raises(InsufficientData, match=f"need at least {needed_rows(d, lag) + d}$"):
            select_lag(train, lag)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("max_lag", [1, 2, 3])
    def test_fewer_than_d_residual_rows_are_insufficient(self, d, max_lag):
        # up to d - 1 rows past the fit's minimum leave the max-lag residual
        # covariance rank deficient, which Cholesky does not always detect
        needed = needed_rows(d, max_lag)
        for seed in range(20):
            values = np.random.default_rng(seed).normal(size=(needed + d, d))
            for extra in range(d):
                with pytest.raises(InsufficientData, match=f"need at least {needed + d}$"):
                    select_lag(Trace.from_joints(values[: needed + extra], 20.0), max_lag)
            best, curve = select_lag(Trace.from_joints(values, 20.0), max_lag)
            assert len(curve) == max_lag and all(map(math.isfinite, curve))


# ---------------------------------------------------------------------------
# The blocked tall-skinny QR of [X | Y] against one QR of the whole buffer


def single_qr_factors(values: np.ndarray, lag: int, ridge: float = 0.0) -> np.ndarray:
    """_ols_factors as it was before the blocked reduction: the R of one QR
    of the whole [X | Y] buffer, ridge rows included."""
    x, y = lagged_design(values, lag)
    n, k = x.shape
    n_penalty = k - 1 if ridge > 0.0 else 0
    a = np.zeros((n + n_penalty, k + y.shape[1]), order="F")
    a[:n, :k], a[:n, k:] = x, y
    a[n + np.arange(n_penalty), 1 + np.arange(n_penalty)] = math.sqrt(ridge)
    return np.linalg.qr(a, mode="r")


def single_qr(fn, *args):
    """outcome(fn, *args) with _ols_factors replaced by single_qr_factors."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forecasting, "_ols_factors", single_qr_factors)
        return outcome(fn, *args)


def qr_schedule(rows: int, cols: int, block: int) -> list[int]:
    """The row counts of the QRs the blocked reduction takes, in order."""
    calls = []
    while rows > block:
        heights = [min(block, rows - i) for i in range(0, rows, block)]
        calls += heights
        rows = sum(min(h, cols) for h in heights)
    return calls + [rows]


def record_qr_rows(monkeypatch) -> list[int]:
    """The row count of every np.linalg.qr call from here on."""
    rows, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": rows.append(len(a)) or qr(a, mode=mode))
    return rows


class TestBlockedQR:
    """fit_var_ols and select_lag from the blocked QR of [X | Y] against one
    QR of the whole buffer, at FIT_RTOL, with _QR_ROWS set small so that
    short traces take several levels."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_traces_of_one_to_ten_blocks(self, seed, monkeypatch):
        rng = np.random.default_rng(1000 + seed)
        d, lag, max_lag = int(rng.integers(1, 6)), int(rng.integers(0, 6)), int(rng.integers(1, 6))
        monkeypatch.setattr(forecasting, "_QR_ROWS", int(rng.integers(1, 160)))
        cols = 1 + max(lag, max_lag) * d + d
        block = max(forecasting._QR_ROWS, 8 * cols)
        n = needed_rows(d, max(lag, max_lag)) + d + int(rng.integers(0, 10 * block))
        train = Trace.from_joints(random_var_values(rng, n, d), 20.0)
        for ridge in (0.0, 0.1):
            assert_same_fit(fit_var_ols(train, lag, ridge), single_qr(fit_var_ols, train, lag, ridge))
        assert_same_selection(select_lag(train, max_lag), single_qr(select_lag, train, max_lag))

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_the_tree_factors_each_block_alone_over_several_levels(self, ridge, monkeypatch):
        monkeypatch.setattr(forecasting, "_QR_ROWS", 1)
        train = Trace.from_joints(random_var_values(np.random.default_rng(7), 3000, 1), 20.0)
        old = single_qr(fit_var_ols, train, 1, ridge)
        rows = record_qr_rows(monkeypatch)
        new = fit_var_ols(train, 1, ridge)
        # 3,000 rows of 3 columns in blocks of 24: 125, 16 and 2 blocks, then one
        assert rows == qr_schedule(2999 + (ridge > 0), 3, 24)
        assert len(rows) == 125 + 16 + 2 + 1
        assert_same_fit(new, old)

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_a_last_block_shorter_than_the_column_count(self, ridge, monkeypatch):
        monkeypatch.setattr(forecasting, "_QR_ROWS", 1)
        d, lag = 3, 2
        cols = 1 + lag * d + d
        n_penalty = lag * d if ridge else 0
        n = lag + 3 * 8 * cols + cols // 2 - n_penalty
        train = Trace.from_joints(random_var_values(np.random.default_rng(8), n, d), 20.0)
        old = single_qr(fit_var_ols, train, lag, ridge)
        rows = record_qr_rows(monkeypatch)
        new = fit_var_ols(train, lag, ridge)
        assert rows[:4] == [8 * cols] * 3 + [cols // 2]
        assert_same_fit(new, old)

    def test_one_block_is_one_qr_bit_for_bit(self, monkeypatch):
        values = random_var_values(np.random.default_rng(9), 900, 4)
        for lag, ridge in ((3, 0.0), (3, 0.1), (8, 0.1)):
            old = single_qr_factors(values, lag, ridge)
            rows = record_qr_rows(monkeypatch)
            new = forecasting._ols_factors(values, lag, ridge)
            monkeypatch.undo()
            assert rows == [len(values) - lag + (lag * 4 if ridge else 0)]
            assert rows[0] <= forecasting._QR_ROWS
            assert np.array_equal(new, old)

    def test_protocol_fit_and_lag_search(self, pick_and_place_split):
        train, _ = pick_and_place_split
        assert len(train) == 6000
        assert_same_fit(fit_var_ols(train, 20, 0.1), single_qr(fit_var_ols, train, 20, 0.1))
        assert_same_selection(select_lag(train, 20), single_qr(select_lag, train, 20))

    @pytest.mark.parametrize("joint", [0, 2])
    def test_constant_joint_across_block_boundaries_is_rank_deficient_at_the_same_column(self, joint, monkeypatch):
        monkeypatch.setattr(forecasting, "_QR_ROWS", 1)
        values = np.random.default_rng(joint).normal(size=(700, 3))
        values[:, joint] = 0.3
        train = Trace.from_joints(values, 20.0)
        for lag in (1, 3):
            assert_same_error(outcome(fit_var_ols, train, lag, 0.0), single_qr(fit_var_ols, train, lag, 0.0),
                              RankDeficient)
        assert_same_error(outcome(select_lag, train, 4), single_qr(select_lag, train, 4), RankDeficient)

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_a_design_wider_than_a_block(self, ridge, monkeypatch):
        monkeypatch.setattr(forecasting, "_QR_ROWS", 16)
        d, lag = 6, 6
        cols = 1 + lag * d + d
        train = Trace.from_joints(random_var_values(np.random.default_rng(10), 2500, d), 20.0)
        old = single_qr(fit_var_ols, train, lag, ridge)
        rows = record_qr_rows(monkeypatch)
        new = fit_var_ols(train, lag, ridge)
        assert cols > forecasting._QR_ROWS and max(rows) == 8 * cols and len(rows) > 2
        assert_same_fit(new, old)
        assert_same_selection(select_lag(train, lag), single_qr(select_lag, train, lag))


# ---------------------------------------------------------------------------
# Row blocks filled from the trace against [X | Y] built whole in one buffer


def buffered_ols_factors(values: np.ndarray, lag: int, ridge: float = 0.0):
    """_ols_factors as it was before it filled its row blocks from the
    trace: X, Y and the R of the same blocked reduction, over [X | Y] built
    whole in one column-major buffer."""
    n_total, dim = values.shape
    n, k = n_total - lag, 1 + lag * dim
    n_penalty = k - 1 if ridge > 0.0 else 0
    a = np.zeros((n + n_penalty, k + dim), order="F")
    a[:n, 0] = 1.0
    for i in range(1, lag + 1):
        a[:n, 1 + (i - 1) * dim : 1 + i * dim] = values[lag - i : n_total - i]
    a[:n, k:] = values[lag:]
    a[n + np.arange(n_penalty), 1 + np.arange(n_penalty)] = math.sqrt(ridge)
    x, y = a[:n, :k], a[:n, k:]
    rows = max(forecasting._QR_ROWS, 8 * a.shape[1])
    while len(a) > rows:
        a = np.concatenate([np.linalg.qr(a[i : i + rows], mode="r") for i in range(0, len(a), rows)])
    return x, y, np.linalg.qr(a, mode="r")


def buffered_ols_model(x: np.ndarray, y: np.ndarray, r: np.ndarray, lag: int) -> VarModel:
    """_ols_model as it was: the residuals from one product over the whole X."""
    k = x.shape[1]
    forecasting._check_pivots(np.abs(np.diag(r))[:k], y.shape[1])
    weights = np.linalg.solve(r[:k, :k], r[:k, k:])
    return forecasting._weights_to_model(weights, y - x @ weights, y.shape[1], lag, "ols")


def buffered_fit(train: Trace, lag: int, ridge: float) -> VarModel:
    return buffered_ols_model(*buffered_ols_factors(train.joints_matrix(), lag, ridge), lag)


def buffered_select(train: Trace, max_lag: int):
    """select_lag with the buffered R."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forecasting, "_ols_factors", lambda values, lag, ridge=0.0: buffered_ols_factors(values, lag, ridge)[2])
        return select_lag(train, max_lag)


def whole_residuals(values: np.ndarray, lag: int, order: str, predict) -> np.ndarray:
    """forecasting._residuals from one product over the whole X, laid out
    in the given order, as aic formed them before."""
    x, y = lagged_design(values, lag)
    return y - predict(np.asarray(x, order=order))


def assert_bit_equal_fit(new: VarModel, old: VarModel, exact_cov: bool = True) -> None:
    assert np.array_equal(new.bias, old.bias)
    assert np.array_equal(new.coeffs, old.coeffs)
    if exact_cov:
        assert np.array_equal(new.residual_cov, old.residual_cov)
    else:
        assert_rel_close(new.residual_cov, old.residual_cov)


class TestRowBlocksAgainstTheBuffer:
    """_ols_factors fills each row block of [X | Y] from the trace, and
    _ols_model and aic form their residuals block by block. The functions
    they replaced, which built [X | Y] or X whole, are kept above. R, the
    weights, the lag-search curve and, for d >= 2, the residual covariance
    and the criterion are bit-equal to theirs. For d = 1 numpy sends the
    product X W to gemv, whose rounding of a row depends on where its block
    starts, so there the covariance and criterion are compared at FIT_RTOL."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_traces_with_small_blocks(self, seed, monkeypatch):
        rng = np.random.default_rng(3000 + seed)
        d, lag, max_lag = int(rng.integers(1, 8)), int(rng.integers(0, 9)), int(rng.integers(1, 9))
        monkeypatch.setattr(forecasting, "_QR_ROWS", int(rng.integers(1, 160)))
        block = max(forecasting._QR_ROWS, 8 * (1 + max(lag, max_lag) * d + d))
        n = needed_rows(d, max(lag, max_lag)) + d + int(rng.integers(0, 6 * block))
        train = Trace.from_joints(random_var_values(rng, n, d), 20.0)
        values = train.joints_matrix()
        for ridge in (0.0, 0.1):
            assert np.array_equal(forecasting._ols_factors(values, lag, ridge),
                                  buffered_ols_factors(values, lag, ridge)[2])
            assert_bit_equal_fit(fit_var_ols(train, lag, ridge), buffered_fit(train, lag, ridge), d > 1)
        new, old = select_lag(train, max_lag), buffered_select(train, max_lag)
        assert new[0] == old[0] and np.array_equal(new[1], old[1])
        assert_bit_equal_fit(new.fit(), old.fit(), d > 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_aic_at_the_default_blocks(self, seed, monkeypatch):
        rng = np.random.default_rng(4000 + seed)
        d, lag = int(rng.integers(1, 8)), int(rng.integers(0, 9))
        n = needed_rows(d, lag) + d + int(rng.integers(0, 5000))
        train = Trace.from_joints(random_var_values(rng, n, d), 20.0)
        model = fit_var_ols(train, lag, 0.1)
        new = aic(model, train)
        monkeypatch.setattr(forecasting, "_residuals", whole_residuals)
        old = aic(model, train)
        if d > 1:
            assert new == old
        else:
            assert abs(new - old) <= FIT_RTOL * abs(old)

    @pytest.mark.parametrize("d, lag, extra", [(3, 2, 1), (6, 6, 1), (6, 6, 100), (2, 1, 3)])
    def test_a_short_last_block(self, d, lag, extra, monkeypatch):
        # n = 1024 + extra targets: a last block of extra rows, which BLAS
        # (numpy's gemv for one row) would round differently from a full one
        rng = np.random.default_rng(d * 100 + extra)
        train = Trace.from_joints(random_var_values(rng, lag + forecasting._QR_ROWS + extra, d), 20.0)
        for ridge in (0.0, 0.1):
            model = fit_var_ols(train, lag, ridge)
            assert_bit_equal_fit(model, buffered_fit(train, lag, ridge))
        criterion = aic(model, train)
        monkeypatch.setattr(forecasting, "_residuals", whole_residuals)
        assert criterion == aic(model, train)

    def test_protocol_fit_lag_search_and_criterion(self, pick_and_place_split, monkeypatch):
        train, test = pick_and_place_split
        assert len(train) == 6000
        values = train.joints_matrix()
        assert np.array_equal(forecasting._ols_factors(values, 20, 0.1), buffered_ols_factors(values, 20, 0.1)[2])
        model = fit_var_ols(train, 20, 0.1)
        assert_bit_equal_fit(model, buffered_fit(train, 20, 0.1))
        new, old = select_lag(train, 20), buffered_select(train, 20)
        assert new[0] == old[0] and np.array_equal(new[1], old[1])
        assert_bit_equal_fit(new.fit(), old.fit())
        criterion = aic(model, test)
        monkeypatch.setattr(forecasting, "_residuals", whole_residuals)
        assert criterion == aic(model, test)


class TestCommandsView:
    """A recovered stream's commands are built from its arrays on access."""

    def recovered(self):
        rng = np.random.default_rng(14)
        trace = smooth_trace(rng, 250, 3)
        outcomes = random_outcomes(rng, trace, trace.period_ms)
        outcomes[:3] = [ChannelOutcome.loss(trace.seq0 + i, LossCause.RTX_EXCEEDED) for i in range(3)]
        outcomes[3] = ChannelOutcome.delivery(trace.seq0 + 3, 0.0, 0, 0.0)
        outcomes[100:130] = [ChannelOutcome.loss(trace.seq0 + i, LossCause.RTX_EXCEEDED) for i in range(100, 130)]
        model = fit_var_ols(smooth_trace(rng, 600, 3), 4)
        policy = RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=6), model)
        return trace, outcomes, policy, run_recovery(trace, outcomes, policy)

    def test_len_builds_no_commands(self):
        trace, outcomes, policy, stream = self.recovered()
        assert isinstance(stream.commands, ExecutedCommands)
        assert len(stream) == len(trace)
        stream.joints_matrix()
        assert stream.commands._built is None
        assert next(iter(stream.commands)) is None
        assert stream.commands._built is not None

    def test_commands_are_built_once_and_on_time_slots_are_the_trace_samples(self):
        trace, outcomes, policy, stream = self.recovered()
        commands = tuple(stream.commands)
        assert all(a is b for a, b in zip(commands, stream.commands))
        mask = on_time_mask(ChannelOutcomes.from_outcomes(outcomes), trace.period_ms, policy.cfg)
        assert mask.sum() == stream.stats.on_time
        for hit, executed, sent in zip(mask.tolist(), commands, trace.samples):
            assert (executed is sent) == hit
        assert stream.stats.forecast >= 20

    def test_replace_keeps_working(self):
        # replacing the commands or the stats keeps the arrays as they were
        trace, outcomes, policy, stream = self.recovered()
        restated = replace(stream, stats=RecoveryStats())
        assert restated.commands is stream.commands
        copied = replace(stream, commands=tuple(stream.commands))
        assert copied.stats == stream.stats
        for other in (restated, copied):
            np.testing.assert_array_equal(other.joints_matrix(), stream.joints)
            np.testing.assert_array_equal(other.codes, stream.codes)
            assert other.seq0 == stream.seq0 == trace.seq0
            assert not other.joints.flags.writeable and not other.codes.flags.writeable


class TestForecastStep:
    """run_recovery steps a model with next_row on the joints array and
    reaches a model with only predict_next through recovery.predict."""

    def case(self, model):
        rng = np.random.default_rng(5)
        trace = smooth_trace(rng, 300, 3)
        cfg = RecoveryConfig(record_len=10)
        outcomes = random_outcomes(rng, trace, trace.period_ms)
        outcomes[:40] = [ChannelOutcome.delivery(trace.seq0 + i, 0.0, 0, 0.0) for i in range(40)]
        outcomes[40:60] = [ChannelOutcome.loss(trace.seq0 + i, LossCause.RTX_EXCEEDED) for i in range(40, 60)]
        limits = step_limit_from_trace(trace, margin=1.1)
        return trace, outcomes, RecoveryPolicy(PolicyMode.FORECAST, cfg, model, max_step_per_joint=limits)

    def test_next_row_models_do_not_call_predict(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("predict called")

        monkeypatch.setattr(recovery, "predict", refuse)
        rng = np.random.default_rng(6)
        for model in (fit_var_ols(smooth_trace(rng, 500, 3), 4), WindowMean(3, 5)):
            trace, outcomes, policy = self.case(model)
            stream = run_recovery(trace, outcomes, policy)
            assert stream.stats.forecast >= 20
            assert_same_stream(stream, per_slot_recovery(trace, outcomes, policy))

    def test_predict_next_models_go_through_predict(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return predict(*args, **kwargs)

        monkeypatch.setattr(recovery, "predict", counted)
        trace, outcomes, policy = self.case(WholeRecordMean())
        stream = run_recovery(trace, outcomes, policy)
        assert len(calls) == stream.stats.forecast >= 20
        assert all(2 <= len(history) <= 10 for history in calls)
        assert_same_stream(stream, per_slot_recovery(trace, outcomes, policy))


class TestStepClamp:
    """The array clamp prev + minimum(maximum(row - prev, -lim), lim)
    against the per-joint tuple clamp it replaced, bit for bit."""

    class Move:
        """Forecasts the last row moved by a fixed offset per joint."""

        min_history = 1

        def __init__(self, move):
            self.move = np.array(move)
            self.dim = len(move)

        def next_rows(self, records):
            return records[:, -1] + self.move

    @pytest.mark.parametrize("prev, lim", [(0.5, 0.25), (0.1, 0.3), (-2.7, 1e-3), (1e6, 7.0)])
    def test_equals_the_tuple_clamp(self, prev, lim):
        moves = [lim, -lim, 2 * lim, -2 * lim, 0.0, math.nextafter(lim, math.inf), math.nextafter(-lim, -math.inf)]
        dim = len(moves)
        trace = Trace.from_joints(np.full((4, dim), prev), 20.0)
        outcomes = [ChannelOutcome.delivery(i, 0.0, 0, 0.0) for i in range(3)]
        outcomes.append(ChannelOutcome.loss(3, LossCause.RTX_EXCEEDED))
        policy = RecoveryPolicy(
            PolicyMode.FORECAST, RecoveryConfig(record_len=2), self.Move(moves), max_step_per_joint=(lim,) * dim
        )
        stream = run_recovery(trace, outcomes, policy)
        last = trace.samples[2].joints
        row = (np.array(last) + moves).tolist()
        expected = tuple(p + min(max(j - p, -lim), lim) for j, p in zip(row, last))
        executed = list(stream.commands)[3]
        assert executed.joints == expected
        assert executed.provenance is Provenance.FORECAST
        assert stream.joints_matrix()[3].tolist() == list(expected)
        if (prev, lim) == (0.5, 0.25):
            assert expected == (0.75, 0.25, 0.75, 0.25, 0.5, 0.75, 0.25)


class TestCachedJoints:
    def stream(self, mode=PolicyMode.DROP):
        rng = np.random.default_rng(4)
        trace = smooth_trace(rng, 120, 3)
        outcomes = random_outcomes(np.random.default_rng(11), trace, trace.period_ms)
        outcomes[0] = ChannelOutcome.loss(trace.seq0, LossCause.QUEUE_OVERFLOW)
        outcomes[1] = ChannelOutcome.delivery(trace.seq0 + 1, 0.0, 0, 0.0)
        model = WindowMean(3, 2) if mode is PolicyMode.FORECAST else None
        return run_recovery(trace, outcomes, RecoveryPolicy(mode, model=model))

    @pytest.mark.parametrize("mode", [PolicyMode.DROP, PolicyMode.REPEAT_LAST])
    def test_equals_the_rebuild_from_commands(self, mode):
        stream = self.stream(mode)
        np.testing.assert_array_equal(stream.joints_matrix(), joints_from_commands(stream.commands, None))

    def test_read_only(self):
        joints = self.stream().joints_matrix()
        assert not joints.flags.writeable
        with pytest.raises(ValueError):
            joints[0, 0] = 1.0

    @pytest.mark.parametrize("mode", list(PolicyMode))
    def test_codes_equal_the_rebuild_from_commands(self, mode):
        stream = self.stream(mode)
        assert not stream.codes.flags.writeable
        np.testing.assert_array_equal(stream.codes, codes_from_commands(stream.commands))
        assert stream.seq0 == tuple(stream.commands)[1].seq - 1


class TestDeadlineMask:
    @pytest.mark.parametrize("period_ms, tolerance_ms", [(20.0, 0.0), (20.0, 0.3), (0.1, 0.2), (7.0, 1e-9)])
    def test_matches_replay_deadline_at_the_inclusive_boundary(self, period_ms, tolerance_ms):
        cfg = RecoveryConfig(tolerance_ms=tolerance_ms)
        bound = period_ms + tolerance_ms
        delays = [bound, np.nextafter(bound, np.inf), np.nextafter(bound, -np.inf), 0.0, 2 * bound]
        outcomes = [ChannelOutcome.delivery(i, float(x), 0, 0.0) for i, x in enumerate(delays)]
        outcomes.append(ChannelOutcome.loss(len(delays), LossCause.RTX_EXCEEDED))
        outcomes.append(ChannelOutcome.loss(len(delays) + 1, LossCause.QUEUE_OVERFLOW))
        mask = on_time_mask(ChannelOutcomes.from_outcomes(outcomes), period_ms, cfg)
        assert mask.tolist() == [replay_deadline(o, period_ms, cfg) for o in outcomes]
        assert mask.tolist() == [True, False, True, True, False, False, False]


class TestOutcomeView:
    """Iterating ChannelOutcomes builds ChannelOutcome items, which
    from_outcomes turns back into the same columns."""

    def test_iteration_round_trips_through_from_outcomes(self):
        trace = Trace.from_joints(np.zeros((400, 1)), 2.0)
        interference = InterferenceParams(p_if=0.9, t_if_slots=32.0, n_stations=25)
        cfg = ChannelConfig(interference=interference, queue_cap=1, period_ms=2.0, seed=2)
        columns = simulate_channel(trace, cfg)
        causes = {o.cause for o in columns}
        assert causes == {None, LossCause.RTX_EXCEEDED, LossCause.QUEUE_OVERFLOW}
        items = list(columns)
        assert all(type(o) is ChannelOutcome for o in items)
        assert ChannelOutcomes.from_outcomes(items) == columns

    def test_items_by_kind(self):
        outcomes = [
            ChannelOutcome.delivery(4, 0.42, 1, 0.1),
            ChannelOutcome.loss(5, LossCause.RTX_EXCEEDED),
            ChannelOutcome.loss(6, LossCause.QUEUE_OVERFLOW),
        ]
        columns = ChannelOutcomes.from_outcomes(outcomes)
        assert list(columns) == outcomes
        assert outcomes == [
            (4, True, 0.42, 1, 0.1, None),
            (5, False, None, None, None, LossCause.RTX_EXCEEDED),
            (6, False, None, None, None, LossCause.QUEUE_OVERFLOW),
        ]


# ---------------------------------------------------------------------------
# CSV I/O against the per-cell and per-Command code it replaced

def per_row_read_trace_csv(path) -> Trace:
    """The reader that read_trace_csv replaced, kept as the reference: one
    float() per cell and one schedule test per row."""
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0] != "t_ms":
            raise InvalidTrace(f"{path}: expected header starting with t_ms")
        if len(header) < 2:
            raise InvalidTrace(f"{path}: no joint columns in header")
        for i, cells in enumerate(r for r in reader if r):
            if len(cells) != len(header):
                raise InvalidTrace(f"{path}: row {i} has {len(cells)} cells, expected {len(header)}")
            try:
                values = [float(x) for x in cells]
            except ValueError:
                raise InvalidTrace(f"{path}: row {i} has a non-numeric cell") from None
            if not all(map(math.isfinite, values)):
                raise InvalidTrace(f"{path}: row {i} has a non-finite value")
            rows.append(values)
    if len(rows) < 2:
        raise InvalidTrace(f"{path}: need at least 2 rows to infer the period")
    start_us = ms_to_us(rows[0][0])
    period_us = ms_to_us(rows[1][0]) - start_us
    if period_us <= 0:
        raise InvalidTrace(f"{path}: non-increasing timestamps")
    for i, row in enumerate(rows):
        if ms_to_us(row[0]) != start_us + i * period_us:
            raise InvalidTrace(f"{path}: row {i} timestamp off the fixed-period schedule")
    return Trace(period_us, start_us, 0, np.array(rows)[:, 1:])


def per_cell_write_trace_csv(trace: Trace, path) -> None:
    """The writer that write_trace_csv replaced: one f-string per cell."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_ms"] + [f"j{k + 1}" for k in range(trace.dim)])
        for i, row in enumerate(trace.joints.tolist()):
            t_ms = us_to_ms(trace.start_us + i * trace.period_us)
            writer.writerow([f"{t_ms:.6f}"] + [f"{x:.6f}" for x in row])


def per_command_write_executed_csv(stream: ExecutedStream, path) -> None:
    """The writer that write_executed_csv replaced: one row per Command."""
    emitted = [c for c in stream.commands if c is not None]
    dim = emitted[0].dim if emitted else 0
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seq", "provenance"] + [f"j{k + 1}" for k in range(dim)])
        for c in emitted:
            writer.writerow([c.seq, c.provenance.value] + [repr(x) for x in c.joints])


def bits(values: np.ndarray) -> np.ndarray:
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def random_trace_text(rng: np.random.Generator) -> str:
    """A valid trace CSV: timestamps and joints as %.6f or repr cells, with
    -0.0, tiny and huge magnitudes, blank lines and either line end."""
    n, d = int(rng.integers(2, 60)), int(rng.integers(1, 7))
    period_ms = float(rng.choice([20.0, 2.5, 0.125, 7.0, 0.001]))
    start_ms = float(rng.choice([0.0, 40.0, -20.0, 123456.789]))
    joints = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=(n, d))
    joints[rng.random(joints.shape) < 0.05] = -0.0
    joints[rng.random(joints.shape) < 0.05] = 1e-300
    joints[rng.random(joints.shape) < 0.02] = -1.7976931348623157e308
    fmt = "{:.6f}".format if rng.random() < 0.5 else repr
    lines = ["t_ms," + ",".join(f"j{k + 1}" for k in range(d))]
    for i, row in enumerate(joints.tolist()):
        lines.append(",".join([fmt(start_ms + i * period_ms)] + [fmt(x) for x in row]))
        if rng.random() < 0.05:
            lines.append("")
    end = "\r\n" if rng.random() < 0.5 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else "")


class TestTraceCsvReader:
    """read_trace_csv against per_row_read_trace_csv."""

    def read_both(self, path):
        outcomes = []
        for read in (read_trace_csv, per_row_read_trace_csv):
            try:
                outcomes.append(read(path))
            except InvalidTrace as exc:
                outcomes.append(str(exc))
        return outcomes

    def test_random_files_read_bit_equal(self, tmp_path):
        rng = np.random.default_rng(21)
        path = tmp_path / "trace.csv"
        for _ in range(200):
            path.write_bytes(random_trace_text(rng).encode())
            fast, slow = self.read_both(path)
            assert isinstance(slow, Trace), slow
            assert isinstance(fast, Trace), fast
            assert (fast.period_us, fast.start_us, fast.seq0) == (slow.period_us, slow.start_us, slow.seq0)
            assert np.array_equal(bits(fast.joints), bits(slow.joints))

    def test_random_cells_parse_as_float_does(self, tmp_path):
        rng = np.random.default_rng(22)
        values = np.concatenate([
            rng.normal(0.0, 1.0, 4000),
            rng.uniform(-1e6, 1e6, 4000),
            np.exp(rng.uniform(-700, 700, 4000)) * rng.choice([-1.0, 1.0], 4000),
            [0.0, -0.0, 1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        ])
        cells = [repr(x) for x in values.tolist()] + [f"{x:.6f}" for x in values.tolist()]
        cells += ["1e5", "1E-5", "+3", "-.5", "7.", " 2.5", "2.5 ", "0001.5"]
        rows = [cells[i:i + 5] for i in range(0, len(cells) - len(cells) % 5, 5)]
        text = "t_ms,j1,j2,j3,j4\n" + "".join(f"{20 * i}," + ",".join(r[1:]) + "\n" for i, r in enumerate(rows))
        path = tmp_path / "cells.csv"
        path.write_text(text)
        fast, slow = self.read_both(path)
        assert np.array_equal(bits(fast.joints), bits(slow.joints))

    @pytest.mark.parametrize("text", [
        "",
        "\n",
        "time,j1\n0,1\n20,2\n",
        "t_ms\n0\n20\n",
        "t_ms,j1\n",
        "t_ms,j1\n0,1\n",
        "t_ms,j1\n\n\n0,1\n\n",
        "t_ms,j1,j2\n0,1,2\n20,1\n",
        "t_ms,j1,j2\n0,1,2\n20,1,2,3\n",
        "t_ms,j1,j2\n0,1\n20,1\n",
        "t_ms,j1,j2\n0,1,2\n20,1,2,\n",
        "t_ms,j1\n0,1\n20,abc\n",
        "t_ms,j1\n0,1\n20,\n",
        "t_ms,j1\n0,1\n20,0x10\n",
        "t_ms,j1\n0,1\n\n\n20,1\n   \n40,1\n",
        "t_ms,j1\n0,1\n20,nan\n",
        "t_ms,j1\n0,1\n20,-inf\n",
        "t_ms,j1\n0,1\ninf,1\n",
        "t_ms,j1\n0,1\n20,1\n40,nan\n60,1,2\n",
        "t_ms,j1\n0,1\n20,1\n40,1,2\n60,nan\n",
        "t_ms,j1\n0,1\n0,1\n",
        "t_ms,j1\n20,1\n0,1\n",
        "t_ms,j1\n0,1\n20,1\n45,1\n",
        "t_ms,j1\n0,1\n20,1\n40.0004,1\n60.0006,1\n",
        "t_ms,j1\n0,1\n20,1\n\n40,1\n61,1\n",
        "t_ms,j1\n0.0005,1\n0.0015,1\n0.0025,1\n",
        "t_ms,j1\n1e15,1\n1.00000000002e15,1\n",
        "t_ms,j1\n1e15,1\n1.00000000002e15,1\n1e15,1\n",
    ])
    def test_malformed_and_edge_files_match(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        path.write_text(text)
        fast, slow = self.read_both(path)
        if isinstance(slow, str):
            assert fast == slow
        else:
            assert (fast.period_us, fast.start_us) == (slow.period_us, slow.start_us)
            assert np.array_equal(bits(fast.joints), bits(slow.joints))

    def test_random_corruptions_name_the_same_row(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "bad.csv"
        bad_cells = ["abc", "nan", "inf", "-inf", "", "1.0.0", "0x1p3", "--1"]
        for _ in range(150):
            lines = random_trace_text(rng).replace("\r\n", "\n").split("\n")
            rows = [k for k in range(1, len(lines)) if lines[k]]
            for k in rng.choice(rows, size=int(rng.integers(1, 4))).tolist():
                cells = lines[k].split(",")
                kind = rng.integers(0, 3)
                if kind == 0:
                    cells[int(rng.integers(0, len(cells)))] = str(rng.choice(bad_cells))
                elif kind == 1:
                    cells = cells[:-1] if len(cells) > 2 and rng.random() < 0.5 else cells + ["1"]
                else:
                    cells[0] = repr(float(cells[0]) + float(rng.choice([0.5, 0.001, -3.0])))
                lines[k] = ",".join(cells)
            path.write_text("\n".join(lines))
            fast, slow = self.read_both(path)
            assert isinstance(slow, str)
            assert fast == slow


class TestTraceCsvWriter:
    def test_random_traces_write_byte_equal(self, tmp_path):
        rng = np.random.default_rng(24)
        for _ in range(60):
            n, d = int(rng.integers(1, 80)), int(rng.integers(1, 8))
            joints = rng.normal(0.0, 10.0 ** rng.integers(-4, 5), size=(n, d))
            joints[rng.random(joints.shape) < 0.1] = -0.0
            joints[rng.random(joints.shape) < 0.05] = -4e-7  # prints as -0.000000
            period_us, start_us = int(rng.integers(1, 50_000)), int(rng.integers(-10**6, 10**9))
            trace = Trace(period_us, start_us, int(rng.integers(0, 100)), joints)
            trace = trace.slice(int(rng.integers(0, n)), n)
            fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
            write_trace_csv(trace, fast)
            per_cell_write_trace_csv(trace, slow)
            assert fast.read_bytes() == slow.read_bytes()


class TestExecutedCsvWriter:
    """write_executed_csv, from the joints and codes arrays, against the
    writer over the stream's Commands."""

    def assert_same_file(self, tmp_path, stream):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_executed_csv(stream, fast)
        per_command_write_executed_csv(stream, slow)
        assert fast.read_bytes() == slow.read_bytes()

    def test_random_runs_write_byte_equal(self, tmp_path):
        rng = np.random.default_rng(25)
        train = smooth_trace(rng, 800, 3)
        models = [fit_var_ols(train, lag) for lag in (1, 5)] + [WindowMean(3, 4), WholeRecordMean()]
        kinds = {"all lost": 0, "leading loss": 0}
        for case in range(40):
            trace = smooth_trace(rng, int(rng.integers(40, 300)), 3)
            cfg = RecoveryConfig(record_len=int(rng.integers(8, 25)))
            runs = [random_outcomes(rng, trace, trace.period_ms) for _ in range(int(rng.integers(1, 4)))]
            for outcomes in runs:
                missed = ~on_time_mask(ChannelOutcomes.from_outcomes(outcomes), trace.period_ms, cfg)
                kinds["all lost"] += bool(missed.all())
                kinds["leading loss"] += bool(missed[0] and not missed.all())
            step = step_limit_from_trace(train, margin=1.2) if case % 2 else None
            for policy in (
                RecoveryPolicy(PolicyMode.FORECAST, cfg, models[case % len(models)], max_step_per_joint=step),
                RecoveryPolicy(PolicyMode.REPEAT_LAST, cfg),
                RecoveryPolicy(PolicyMode.DROP, cfg),
            ):
                for outcomes in runs:
                    self.assert_same_file(tmp_path, run_recovery(trace, outcomes, policy))
                    # and a stream built by hand from the per-slot loop's run
                    self.assert_same_file(tmp_path, ExecutedStream(*per_slot_recovery(trace, outcomes, policy),
                                                                   trace.seq0))
        assert all(count >= 3 for count in kinds.values()), kinds

    def test_hand_built_stream(self, tmp_path):
        trace = Trace(20_000, 40_000, 7, np.array([[0.1, -0.0], [1e-300, 2.5], [3.0, 4.0], [5.0, 6.0]]))
        first, second, third, fourth = trace.samples
        commands = (
            None,
            replace(second, provenance=Provenance.FORECAST),
            replace(third, joints=second.joints, provenance=Provenance.REPEAT_LAST),
            fourth,
        )
        joints = np.array([second.joints, second.joints, second.joints, fourth.joints])
        stream = ExecutedStream(commands, RecoveryStats(1, 1, 1, 1), joints, np.array([3, 1, 2, 0], np.int8), 7)
        self.assert_same_file(tmp_path, stream)
        path = tmp_path / "fast.csv"
        assert path.read_text().splitlines() == [
            "seq,provenance,j1,j2",
            "8,forecast,1e-300,2.5",
            "9,repeat-last,1e-300,2.5",
            "10,original,5.0,6.0",
        ]
        empty = ExecutedStream((None, None), RecoveryStats(dropped=2), joints[:2], np.array([3, 3], np.int8), 7)
        self.assert_same_file(tmp_path, empty)
        assert path.read_bytes() == b"seq,provenance\r\n"
