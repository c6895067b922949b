"""Fast paths against the slow references they replaced, on randomized inputs.

The queue walk of simulate_channel is checked against the per-frame loop,
and the bulk run_recovery against the per-slot loop, both kept below as
references. Both comparisons are exact: no tolerance.
"""

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from foreco import channel, recovery
from foreco.channel import (
    DELIVERED,
    QUEUE_OVERFLOW,
    RTX_EXCEEDED,
    ChannelConfig,
    ChannelOutcome,
    ChannelOutcomes,
    InterferenceParams,
    LossCause,
    MacParams,
    simulate_channel,
)
from foreco.core import Command, Provenance, RecoveryConfig, Trace
from foreco.forecasting import MaModel, fit_var_ols, predict
from foreco.recovery import (
    ExecutedStream,
    PolicyMode,
    RecoveryPolicy,
    RecoveryStats,
    on_time_mask,
    replay_deadline,
    run_recovery,
    step_limit_from_trace,
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
    full = Trace.from_joints(np.zeros((n, 1)), period_ms, start_ms=float(rng.integers(0, 1000)))
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


def loop_outcomes(trace: Trace, cfg: ChannelConfig) -> ChannelOutcomes:
    return _simulate_loop(trace, cfg, *channel._frame_draws(trace, cfg))


def has_waiting_frame(trace: Trace, cfg: ChannelConfig) -> bool:
    """Whether some frame arrives while its predecessor, started on arrival,
    is still in service; without one, no frame ever waits."""
    arrivals, _, service, _ = channel._frame_draws(trace, cfg)
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
            got, overflow = channel._queue_starts(arrivals, np.array(service), cap)
            assert np.flatnonzero(overflow).tolist() == dropped
            np.testing.assert_array_equal(got[~overflow], starts)


# ---------------------------------------------------------------------------
# Bulk recovery against the per-slot loop

def per_slot_recovery(trace: Trace, outcomes, policy: RecoveryPolicy) -> ExecutedStream:
    """The per-slot recovery loop that run_recovery replaced, kept as the
    reference: one deadline test, history deque and policy branch per slot."""
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
    return ExecutedStream(tuple(slots), RecoveryStats(on_time, forecast, repeated, dropped))


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
    full = Trace.from_joints(joints, 20.0, start_ms=40.0)
    return full.slice(int(rng.integers(0, 30)), n)


def assert_same_stream(fast: ExecutedStream, slow: ExecutedStream) -> None:
    assert fast.stats == slow.stats
    assert fast.commands == slow.commands
    if slow.stats.dropped < len(slow):
        np.testing.assert_array_equal(fast.joints_matrix(), slow.joints_matrix())


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
        models = [fit_var_ols(train, lag) for lag in (1, 3, 8)] + [MaModel(3, 4), WholeRecordMean()]
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
        for model in (fit_var_ols(smooth_trace(rng, 500, 3), 4), MaModel(3, 5)):
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

        def next_row(self, record):
            return record[-1] + self.move

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
        assert stream.commands[3].joints == expected
        assert stream.commands[3].provenance is Provenance.FORECAST
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
        return run_recovery(trace, outcomes, RecoveryPolicy(mode))

    @pytest.mark.parametrize("mode", [PolicyMode.DROP, PolicyMode.REPEAT_LAST])
    def test_equals_the_rebuild_from_commands(self, mode):
        stream = self.stream(mode)
        assert stream._joints is not None
        np.testing.assert_array_equal(stream.joints_matrix(), stream._joints_from_commands())

    def test_read_only(self):
        joints = self.stream().joints_matrix()
        assert not joints.flags.writeable
        with pytest.raises(ValueError):
            joints[0, 0] = 1.0

    def test_replace_recomputes_from_commands(self):
        stream = self.stream(PolicyMode.REPEAT_LAST)
        same = replace(stream, commands=stream.commands)
        assert same._joints is None
        np.testing.assert_array_equal(same.joints_matrix(), stream.joints_matrix())
        shifted = replace(stream, commands=(None,) + stream.commands[:-1])
        np.testing.assert_array_equal(
            shifted.joints_matrix(),
            np.vstack([stream.joints_matrix()[1:2], stream.joints_matrix()[:-1]]),
        )
        assert not shifted.joints_matrix().flags.writeable

    def test_rebuilt_array_is_cached(self):
        stream = replace(self.stream(), stats=RecoveryStats())
        assert stream.joints_matrix() is stream.joints_matrix()


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
    """Iterating ChannelOutcomes builds the same items as indexing it."""

    def test_iteration_equals_indexing(self):
        trace = Trace.from_joints(np.zeros((400, 1)), 2.0)
        interference = InterferenceParams(p_if=0.9, t_if_slots=32.0, n_stations=25)
        cfg = ChannelConfig(interference=interference, queue_cap=1, period_ms=2.0, seed=2)
        columns = simulate_channel(trace, cfg)
        causes = {o.cause for o in columns}
        assert causes == {None, LossCause.RTX_EXCEEDED, LossCause.QUEUE_OVERFLOW}
        items = list(columns)
        assert items == [columns[i] for i in range(len(columns))]
        assert items[-1] == columns[-1]
        assert all(type(o) is ChannelOutcome for o in items)
        assert ChannelOutcomes.from_outcomes(items) == columns

    def test_items_by_kind(self):
        outcomes = [
            ChannelOutcome.delivery(4, 0.42, 1, 0.1),
            ChannelOutcome.loss(5, LossCause.RTX_EXCEEDED),
            ChannelOutcome.loss(6, LossCause.QUEUE_OVERFLOW),
        ]
        columns = ChannelOutcomes.from_outcomes(outcomes)
        assert list(columns) == [columns[i] for i in range(3)] == outcomes
        assert outcomes == [
            (4, True, 0.42, 1, 0.1, None),
            (5, False, None, None, None, LossCause.RTX_EXCEEDED),
            (6, False, None, None, None, LossCause.QUEUE_OVERFLOW),
        ]
        with pytest.raises(IndexError):
            columns[3]
