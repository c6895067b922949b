"""Recovery loop: deadline handling, policy behavior, closed-loop forecasting."""

import numpy as np
import pytest

from conftest import WindowMean, rotation_trace
from foreco.channel import ChannelOutcome, LossCause
from foreco.core import Command, Provenance, RecoveryConfig, Trace
from foreco.errors import ConfigError
from foreco.evaluation import controlled_loss_outcomes, rmse
from foreco.forecasting import fit_var_ols
from foreco.recovery import (
    PolicyMode,
    RecoveryPolicy,
    replay_deadline,
    run_recovery,
    step_limit_from_trace,
    write_executed_csv,
    write_stats_json,
)
import foreco


def on_time(seq: int) -> ChannelOutcome:
    return ChannelOutcome.delivery(seq, 0.5, 0, 0.0)


def lost(seq: int) -> ChannelOutcome:
    return ChannelOutcome.loss(seq, LossCause.RTX_EXCEEDED)


def all_on_time(trace: Trace) -> list[ChannelOutcome]:
    return [on_time(c.seq) for c in trace.samples]


def smooth_trace(n=400, d=3, seed=0) -> Trace:
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.02
    freqs = rng.uniform(0.2, 0.5, d)
    phases = rng.uniform(0, 2 * np.pi, d)
    joints = np.sin(2 * np.pi * np.outer(t, freqs) + phases)
    joints += rng.normal(0.0, 1e-4, joints.shape)  # keep deep-lag designs full rank
    return Trace.from_joints(joints, 20.0)


class TestReplayDeadline:
    cfg = RecoveryConfig(tolerance_ms=0.0)

    def test_boundary_is_inclusive(self):
        assert replay_deadline(ChannelOutcome.delivery(0, 20.0, 0, 0.0), 20.0, self.cfg)

    def test_just_past_boundary(self):
        assert not replay_deadline(ChannelOutcome.delivery(0, 20.001, 0, 0.0), 20.0, self.cfg)

    def test_lost_never_meets_deadline(self):
        assert not replay_deadline(lost(0), 20.0, RecoveryConfig(tolerance_ms=1e12))

    def test_tolerance_extends_deadline(self):
        out = ChannelOutcome.delivery(0, 25.0, 0, 0.0)
        assert not replay_deadline(out, 20.0, RecoveryConfig(tolerance_ms=0.0))
        assert replay_deadline(out, 20.0, RecoveryConfig(tolerance_ms=5.0))


class TestRunRecovery:
    def test_zero_losses_pass_through_any_policy(self):
        tr = smooth_trace()
        outcomes = all_on_time(tr)
        model = fit_var_ols(tr, 2)
        for policy in (
            RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(), model),
            RecoveryPolicy(PolicyMode.REPEAT_LAST),
            RecoveryPolicy(PolicyMode.DROP),
        ):
            stream = run_recovery(tr, outcomes, policy)
            assert stream.stats.to_dict() == {
                "on_time": len(tr), "forecast": 0, "repeated": 0, "dropped": 0,
                "total": len(tr),
            }
            # bit-exact pass-through: the identical command objects come back
            assert all(a is b for a, b in zip(stream.commands, tr.samples))

    def test_provenance_tracks_the_miss_indicator(self):
        tr = smooth_trace()
        outcomes = all_on_time(tr)
        for i in (50, 51, 200):
            outcomes[i] = lost(i)
        model = fit_var_ols(tr, 2)
        stream = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(), model))
        for i, cmd in enumerate(stream.commands):
            if i in (50, 51, 200):
                assert cmd.provenance is Provenance.FORECAST
            else:
                assert cmd.provenance is Provenance.ORIGINAL

    def test_stats_sum_to_trace_length(self):
        tr = smooth_trace()
        rng = np.random.default_rng(5)
        outcomes = [
            lost(c.seq) if rng.random() < 0.3 else on_time(c.seq) for c in tr.samples
        ]
        model = fit_var_ols(tr, 2)
        for mode, kwargs in (
            (PolicyMode.FORECAST, {"model": model}),
            (PolicyMode.REPEAT_LAST, {}),
            (PolicyMode.DROP, {}),
        ):
            stream = run_recovery(tr, outcomes, RecoveryPolicy(mode, RecoveryConfig(), **kwargs))
            assert stream.stats.total == len(tr)

    def test_forecast_beats_repeat_on_burst(self):
        tr = smooth_trace(seed=3)
        model = fit_var_ols(tr, 3)
        outcomes = all_on_time(tr)
        for i in range(150, 155):  # 5 consecutive losses mid-trace
            outcomes[i] = lost(i)
        fc = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(), model))
        rl = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.REPEAT_LAST))
        assert rmse(fc, tr) < rmse(rl, tr)

    def test_error_grows_within_long_gap(self):
        # per-slot forecast error is non-decreasing through a gap on a
        # monotone trajectory segment
        n = 300
        joints = np.linspace(0.0, 1.0, n)[:, None] * np.ones((1, 2))
        tr = Trace.from_joints(joints, 20.0)
        model = fit_var_ols(smooth_trace(seed=9, d=2), 2)
        outcomes = all_on_time(tr)
        gap = range(120, 145)  # 25 consecutive losses
        for i in gap:
            outcomes[i] = lost(i)
        stream = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(), model))
        ref = tr.joints_matrix()
        errs = [
            float(np.sum((np.array(stream.commands[i].joints) - ref[i]) ** 2)) for i in gap
        ]
        assert errs[-1] >= errs[0]
        assert max(errs) == pytest.approx(errs[-1], rel=0.5)

    def test_repeat_last_holds_previous_command(self):
        tr = smooth_trace()
        outcomes = all_on_time(tr)
        outcomes[100] = lost(100)
        stream = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.REPEAT_LAST))
        assert stream.commands[100].joints == tr.samples[99].joints
        assert stream.commands[100].provenance is Provenance.REPEAT_LAST
        assert stream.commands[100].seq == 100

    def test_drop_mode_leaves_gaps(self):
        tr = smooth_trace()
        outcomes = all_on_time(tr)
        outcomes[7] = lost(7)
        stream = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.DROP))
        assert stream.commands[7] is None
        assert stream.stats.dropped == 1

    def test_bootstrap_losses_fall_back_to_repeat(self):
        tr = smooth_trace()
        cfg = RecoveryConfig(record_len=10)
        model = fit_var_ols(tr, 3)
        outcomes = all_on_time(tr)
        outcomes[0] = lost(0)   # nothing executed yet: dropped
        outcomes[2] = lost(2)   # only 1 executed command, model needs 3: repeated
        outcomes[50] = lost(50) # plenty of history: forecast
        stream = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.FORECAST, cfg, model))
        assert stream.commands[0] is None
        assert stream.commands[2].provenance is Provenance.REPEAT_LAST
        assert stream.commands[50].provenance is Provenance.FORECAST
        assert stream.stats.to_dict()["dropped"] == 1

    def test_deterministic(self):
        tr = smooth_trace(seed=11)
        rng = np.random.default_rng(2)
        outcomes = [
            lost(c.seq) if rng.random() < 0.2 else on_time(c.seq) for c in tr.samples
        ]
        model = fit_var_ols(tr, 2)
        policy = RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(), model)
        s1 = run_recovery(tr, outcomes, policy)
        s2 = run_recovery(tr, outcomes, policy)
        assert s1.commands == s2.commands
        assert s1.stats == s2.stats

    def test_length_mismatch_rejected(self):
        tr = smooth_trace()
        with pytest.raises(ConfigError):
            run_recovery(tr, all_on_time(tr)[:-1], RecoveryPolicy(PolicyMode.DROP))

    def test_model_dim_mismatch_rejected(self):
        tr = smooth_trace(d=3)
        model = fit_var_ols(smooth_trace(d=2), 1)
        with pytest.raises(ConfigError):
            run_recovery(tr, all_on_time(tr), RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(), model))

    def test_model_lag_must_fit_record(self):
        tr = smooth_trace()
        model = fit_var_ols(tr, 5)
        with pytest.raises(ConfigError):
            run_recovery(
                tr, all_on_time(tr),
                RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=3), model),
            )

    def test_forecast_mode_requires_model(self):
        with pytest.raises(ConfigError):
            RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig())


class TestPerfectOracle:
    def test_zero_error_under_any_loss_pattern(self):
        tr = smooth_trace(seed=21)

        class Oracle:
            """Returns the true next command by reading the reference trace."""

            dim = tr.dim
            min_history = 1

            def predict_next(self, history, period_ms):
                last = history[-1]
                idx = round((last.gen_time_ms + period_ms - tr.start_ms) / period_ms)
                truth = tr.samples[idx]
                return Command(
                    last.seq + 1, truth.joints,
                    last.gen_time_us + round(period_ms * 1000),
                    provenance=Provenance.FORECAST,
                )

        # the first command must arrive: with an empty record there is nothing
        # for any forecaster to anchor its slot position on
        policy = RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=4), Oracle())
        for pattern_seed in range(3):
            rng = np.random.default_rng(pattern_seed)
            outcomes = [on_time(0)] + [
                lost(c.seq) if rng.random() < 0.4 else on_time(c.seq)
                for c in tr.samples[1:]
            ]
            stream = run_recovery(tr, outcomes, policy)
            assert rmse(stream, tr) == 0.0
            assert stream.stats.forecast > 0

    def test_zero_error_on_long_bursts(self):
        tr = smooth_trace(seed=22)

        class Oracle:
            dim = tr.dim
            min_history = 1

            def predict_next(self, history, period_ms):
                last = history[-1]
                idx = round((last.gen_time_ms + period_ms - tr.start_ms) / period_ms)
                truth = tr.samples[idx]
                return Command(
                    last.seq + 1, truth.joints,
                    last.gen_time_us + round(period_ms * 1000),
                    provenance=Provenance.FORECAST,
                )

        policy = RecoveryPolicy(PolicyMode.FORECAST, RecoveryConfig(record_len=4), Oracle())
        outcomes = all_on_time(tr)
        for i in list(range(10, 80)) + list(range(200, 390)):
            outcomes[i] = lost(i)
        stream = run_recovery(tr, outcomes, policy)
        assert rmse(stream, tr) == 0.0


class TestStepLimit:
    def test_limits_derived_from_trace(self):
        tr = smooth_trace()
        limits = step_limit_from_trace(tr, margin=1.0)
        steps = np.abs(np.diff(tr.joints_matrix(), axis=0))
        assert limits == pytest.approx(tuple(steps.max(axis=0)))

    def test_injected_forecast_is_rate_limited(self):
        tr = rotation_trace(200, 0.3, amp=1.0)

        class Wild:
            dim = 2
            min_history = 1

            def predict_next(self, history, period_ms):
                last = history[-1]
                return Command(last.seq + 1, (100.0, -100.0),
                               last.gen_time_us + round(period_ms * 1000),
                               provenance=Provenance.FORECAST)

        outcomes = all_on_time(tr)
        outcomes[50] = lost(50)
        policy = RecoveryPolicy(
            PolicyMode.FORECAST, RecoveryConfig(record_len=2), Wild(),
            max_step_per_joint=(0.1, 0.1),
        )
        stream = run_recovery(tr, outcomes, policy)
        prev = np.array(tr.samples[49].joints)
        got = np.array(stream.commands[50].joints)
        assert np.all(np.abs(got - prev) <= 0.1 + 1e-12)

    @pytest.mark.parametrize("limits", [(0.01,), (0.01, 0.02, 0.03)])
    def test_limit_count_must_match_the_joints(self, limits):
        tr = smooth_trace(d=6)
        outcomes = all_on_time(tr)
        outcomes[50] = lost(50)
        policy = RecoveryPolicy(
            PolicyMode.FORECAST, RecoveryConfig(), fit_var_ols(tr, 2), max_step_per_joint=limits
        )
        with pytest.raises(ConfigError, match=f"^{len(limits)} step limits for a trace of 6 joints$"):
            run_recovery(tr, outcomes, policy)

    def test_on_time_commands_never_limited(self):
        tr = rotation_trace(50, 1.5, amp=2.0)  # large genuine steps
        policy = RecoveryPolicy(
            PolicyMode.FORECAST, RecoveryConfig(), WindowMean(2, 2),
            max_step_per_joint=(1e-6, 1e-6),
        )
        stream = run_recovery(tr, all_on_time(tr), policy)
        assert all(a is b for a, b in zip(stream.commands, tr.samples))


class TestOutputs:
    def test_executed_csv_omits_gaps(self, tmp_path):
        tr = smooth_trace(n=20)
        outcomes = all_on_time(tr)
        outcomes[3] = lost(3)
        stream = run_recovery(tr, outcomes, RecoveryPolicy(PolicyMode.DROP))
        path = tmp_path / "executed.csv"
        write_executed_csv(stream, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("seq,provenance,j1")
        assert len(lines) == 1 + len(tr) - 1
        assert all(not line.startswith("3,") for line in lines[1:])

    def test_stats_json(self, tmp_path):
        tr = smooth_trace(n=30)
        stream = run_recovery(tr, all_on_time(tr), RecoveryPolicy(PolicyMode.REPEAT_LAST))
        path = tmp_path / "stats.json"
        write_stats_json(stream, path)
        import json

        doc = json.loads(path.read_text())
        assert doc == {"on_time": 30, "forecast": 0, "repeated": 0, "dropped": 0, "total": 30}


class TestControlledLossRatio:
    def test_five_loss_burst_mirrors_recovery_gain(self, pick_and_place_split):
        train, test = pick_and_place_split
        model = fit_var_ols(train, 20, ridge=0.1)
        cfg = RecoveryConfig(record_len=20)
        limits = step_limit_from_trace(train, margin=1.5)
        pf = RecoveryPolicy(PolicyMode.FORECAST, cfg, model, max_step_per_joint=limits)
        pr = RecoveryPolicy(PolicyMode.REPEAT_LAST, cfg)
        outcomes = controlled_loss_outcomes(test, 5, 8, seed=42, min_start=cfg.record_len)
        ratio = rmse(run_recovery(test, outcomes, pf), test) / rmse(
            run_recovery(test, outcomes, pr), test
        )
        assert ratio < 0.5
