"""Tests of the benchmark's own helpers: percentiles, span self-times and
per-layer derivations, the tracer's patching, and the output checks.

Run from the repository root: python3 -m pytest perfbench -q
"""

import math
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from foreco import channel, core, recovery, traces  # noqa: E402
from foreco.recovery import PolicyMode, RecoveryPolicy  # noqa: E402
from workloads import Op  # noqa: E402


@pytest.mark.parametrize(
    "values, q, expected",
    [
        ([], 50, 0.0),
        ([7.0], 95, 7.0),
        ([4, 1, 3, 2], 50, 2.5),
        ([1, 2, 3, 4], 0, 1.0),
        ([1, 2, 3, 4], 100, 4.0),
        ([1, 2, 3, 4], 95, 3.85),
        ([10, 20, 30], 25, 15.0),
    ],
)
def test_percentile_interpolates_between_ranks(values, q, expected):
    assert tracing.percentile(values, q) == pytest.approx(expected)


# root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]; a second root [11, 12]
SPANS = [
    ["root", 0.0, 10.0, None],
    ["a", 1.0, 4.0, 0],
    ["a1", 2.0, 3.0, 1],
    ["b", 5.0, 6.0, 0],
    ["other", 11.0, 12.0, None],
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(SPANS) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_root_names_follow_parents_to_the_outermost_span():
    assert tracing.root_names(SPANS) == ["root", "root", "root", "root", "other"]


def _sweep_spans():
    ch, fc, rl, err = tracing.CHANNEL, tracing.FORECAST_RECOVERY, tracing.REPEAT_RECOVERY, tracing.RMSE
    return [
        [tracing.TIMED, 0.0, 20.0, None],
        [tracing.RUN_SWEEP, 0.0, 20.0, 0],
        [ch, 1.0, 3.0, 1],
        [fc, 3.0, 5.0, 1],
        [tracing.PREDICT, 3.5, 4.5, 3],
        [err, 5.0, 6.0, 1],
        [rl, 6.0, 7.0, 1],
        [err, 7.0, 8.0, 1],
        [ch, 10.0, 12.0, 1],
        [fc, 12.0, 13.0, 1],
        [err, 13.0, 14.0, 1],
    ]


def test_sweep_repetitions_run_from_a_channel_call_to_the_last_span_before_the_next():
    assert tracing.rep_durations(_sweep_spans()) == [7.0, 4.0]


def test_op_spans_take_precedence_over_sweep_repetitions():
    spans = _sweep_spans() + [[tracing.OP, 30.0, 32.5, None]]
    assert tracing.rep_durations(spans) == [2.5]


def test_layer_metrics_shares_counts_and_self_time():
    spans = [[tracing.SETUP, -4.0, -1.0, None], ["traces.synthetic_trace", -4.0, -2.0, 0]] + [
        [name, start, end, None if parent is None else parent + 2] for name, start, end, parent in _sweep_spans()
    ]
    counts = {"channel.frames": 100, "channel.lost": 4, "channel.overflow": 1, "channel.missed": 5,
              "recovery.forecast_slots": 3, "recovery.forecast_misses": 5}
    m = tracing.layer_metrics(spans, counts, setup_rounds=2, passes=1)
    assert m["channel.busy_share"] == pytest.approx(4.0 / 20.0)
    assert m["recovery.busy_share"] == pytest.approx(3.0 / 20.0)
    assert m["evaluation.busy_share"] == pytest.approx(3.0 / 20.0)
    assert m["channel.simulate_ms_p50"] == pytest.approx(2000.0)
    assert m["channel.loss_rate"] == pytest.approx(0.04)
    assert m["channel.miss_rate"] == pytest.approx(0.05)
    # forecast recovery: 3 s over 5 misses; self time (2 - 1) + 1 over 2 calls
    assert m["recovery.us_per_miss"] == pytest.approx(3e6 / 5)
    assert m["recovery.self_ms"] == pytest.approx(1e3)
    assert m["forecasting.predict_calls"] == 1
    assert m["traces.synthetic_trace_s"] == pytest.approx(1.0)  # 2 s over 2 set-up rounds
    assert m["evaluation.run_sweep_s"] == pytest.approx(20.0)
    assert m["cli.train_s"] == 0


def test_tracer_patches_records_nested_spans_and_restores():
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    tracer = tracing.Tracer()
    seen = []
    tracer.patch(module, "inner", "inner", lambda counts, args, result: seen.append((args, result)))
    tracer.patch(module, "outer", lambda args: f"outer.{args[0]}")
    assert module.outer(3) == 8
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer.3", None), ("inner", 0)]
    assert seen == [((3,), 4)]
    tracer.active = False
    module.outer(1)
    assert len(tracer.spans) == 2
    tracer.restore()
    assert module.inner is original


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    with tracer.span("after"):
        pass
    assert tracer.spans[1][3] is None  # not parented under the failed span


def test_derived_seeds_are_stable_and_distinct():
    assert workloads.derive_seed(0, 1) == workloads.derive_seed(0, 1)
    assert len({workloads.derive_seed(s, p) for s in range(5) for p in range(5)}) == 25


@pytest.mark.parametrize(
    "op, expected, same",
    [
        (Op([1.0, 2.0], 3), Op([1.0, 2.0], 3), True),
        (Op([1.0, 2.0 * (1 + 1e-9)]), Op([1.0, 2.0], 3), True),
        (Op([1.0, 2.0 * (1 + 1e-4)]), Op([1.0, 2.0]), False),
        (Op([1.0, 2.0], 4), Op([1.0, 2.0], 3), False),
        (Op([1.0]), Op([1.0, 2.0]), False),
        (Op([0.0]), Op([0.0]), True),
    ],
)
def test_ops_match_at_relative_tolerance_and_exact_slots(op, expected, same):
    assert workloads.same(op, expected) is same


def test_compare_flags_differing_ops_failed_counterparts_and_length_mismatches():
    ops = [Op([1.0]), Op([2.0]), Op([4.0])]
    workloads.compare(ops, [Op([1.0]), Op([3.0]), Op([4.0], problems=["rmse nan is not finite"])], "warm-up pass")
    assert [op.problems for op in ops] == [
        [], ["values differ from the warm-up pass"], ["the warm-up pass op failed: rmse nan is not finite"]
    ]
    short = [Op([1.0])]
    workloads.compare(short, [], "reference")
    assert short[0].problems


@pytest.fixture(scope="module")
def recovered():
    trace = traces.synthetic_trace("pick-and-place", 4.0, seed=3)
    cfg = channel.ChannelConfig(interference=channel.InterferenceParams(p_if=0.9, t_if_slots=32.0, n_stations=25), seed=1)
    outcomes = channel.simulate_channel(trace, cfg)
    policy = RecoveryPolicy(PolicyMode.REPEAT_LAST, core.RecoveryConfig(record_len=4))
    stream = recovery.run_recovery(trace, outcomes, policy)
    assert 0 < stream.stats.on_time < len(trace)
    return trace, outcomes, stream, policy.cfg


def test_check_stream_accepts_a_recovered_stream(recovered):
    trace, outcomes, stream, cfg = recovered
    assert workloads.check_stream(trace, outcomes, stream, cfg) == []


def test_check_stream_flags_an_altered_on_time_slot(recovered):
    trace, outcomes, stream, cfg = recovered
    i = next(i for i, o in enumerate(outcomes) if recovery.replay_deadline(o, trace.period_ms, cfg))
    commands = list(stream.commands)
    commands[i] = replace(commands[i], joints=tuple(x + 1e-12 for x in commands[i].joints))
    altered = replace(stream, commands=tuple(commands))
    assert workloads.check_stream(trace, outcomes, altered, cfg) == [f"on-time slot {i} differs from the trace"]


def test_check_stream_flags_slot_counts(recovered):
    trace, outcomes, stream, cfg = recovered
    stats = replace(stream.stats, repeated=stream.stats.repeated + 1, on_time=stream.stats.on_time - 1)
    problems = workloads.check_stream(trace, outcomes, replace(stream, stats=stats), cfg)
    assert len(problems) == 1 and "counted on time" in problems[0]
    stats = replace(stream.stats, dropped=stream.stats.dropped + 1)
    problems = workloads.check_stream(trace, outcomes, replace(stream, stats=stats), cfg)
    assert problems == [f"slot counts sum to {len(trace) + 1}, not {len(trace)}"]


@pytest.mark.parametrize("value, ok", [(0.0, True), (0.3, True), (math.nan, False), (math.inf, False), (-1.0, False)])
def test_check_error_requires_a_finite_rmse(value, ok):
    assert (workloads.check_error(value) == []) is ok
