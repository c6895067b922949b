"""Wireless link model: attempt statistics, delay closed forms, queue runs."""

import csv
import json
import math
import re

import numpy as np
import pytest

from foreco.channel import (
    ChannelConfig,
    ChannelOutcome,
    ChannelOutcomes,
    InterferenceParams,
    LossCause,
    MacParams,
    attempt_failure_prob,
    channel_config_from_dict,
    channel_rtx_probs,
    expected_delay_bound,
    load_channel_config,
    mean_delay_given_rtx,
    rtx_distribution,
    save_channel_config,
    simulate_channel,
    verify_causality_prob,
    write_outcomes_csv,
)
from foreco.core import Trace
from foreco.errors import AlwaysLost, ConfigError, OutOfRange


def flat_trace(n: int, period_ms: float = 20.0) -> Trace:
    return Trace.from_joints(np.zeros((n, 1)), period_ms)


def loss_and_exceedance(cfg: ChannelConfig, k_ms: float, n_samples: int) -> tuple[float, float]:
    """The loss probability in closed form next to the observed fraction of
    commands whose delay exceeds k_ms in one queue run of n_samples commands.
    A lost command exceeds any threshold, so for a k_ms beyond every
    delivered delay the fraction converges on the loss probability (plus
    queue overflow when the waiting room is small)."""
    outcomes = simulate_channel(flat_trace(n_samples, cfg.period_ms), cfg)
    exceed = np.count_nonzero(~outcomes.delivered | (outcomes.delay_ms > k_ms))
    return float(channel_rtx_probs(cfg)[-1]), int(exceed) / n_samples


def quiet_config(**kwargs) -> ChannelConfig:
    """Single station, no interferer: every attempt succeeds."""
    defaults = dict(interference=InterferenceParams(p_if=0.0, n_stations=1), seed=1)
    defaults.update(kwargs)
    return ChannelConfig(**defaults)


class TestAttemptFailureProb:
    def test_no_contention_no_interference(self):
        assert attempt_failure_prob(quiet_config()) == 0.0

    def test_saturated_interferer_approaches_one(self):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=1.0, t_if_slots=1e9, n_stations=1)
        )
        p = attempt_failure_prob(cfg)
        assert 0.999 < p < 1.0

    def test_collision_only_hand_value(self):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.0, n_stations=5, attempt_prob=0.05)
        )
        assert attempt_failure_prob(cfg) == pytest.approx(1.0 - 0.95 ** 4)

    def test_monte_carlo_slot_check_of_collision_probability(self):
        # direct slot simulation: any of n-1 neighbors transmitting fails the attempt
        n_stations, q = 5, 0.05
        rng = np.random.default_rng(12)
        fails = rng.random((200_000, n_stations - 1)) < q
        empirical = float(np.mean(fails.any(axis=1)))
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.0, n_stations=n_stations, attempt_prob=q)
        )
        analytic = attempt_failure_prob(cfg)
        sigma = math.sqrt(analytic * (1 - analytic) / 200_000)
        assert abs(empirical - analytic) < 3 * sigma


class TestRtxDistribution:
    def test_zero_failure_prob(self):
        probs = rtx_distribution(0.0, 7)
        assert probs[0] == 1.0
        assert np.all(probs[1:] == 0.0)

    def test_hand_values_p_half(self):
        probs = rtx_distribution(0.5, 3)
        assert probs == pytest.approx([0.5, 0.25, 0.125, 0.125])

    def test_sums_to_one(self):
        # exact in almost all cases; a single ulp can survive when the
        # remainder correction oscillates, still far inside 1e-15
        rng = np.random.default_rng(3)
        for p in np.concatenate([rng.uniform(0, 1, 200), [0.0, 0.999999]]):
            for max_rtx in (1, 3, 7, 12):
                assert abs(rtx_distribution(float(p), max_rtx).sum() - 1.0) < 1e-15

    def test_domain_check(self):
        with pytest.raises(ConfigError):
            rtx_distribution(1.0, 7)

    def test_no_negative_loss_mass(self):
        # for some p near 1e-3 the deliverable counts alone sum to an ulp
        # above 1; the loss mass is then 0, not -1.1e-16
        for p in np.logspace(-12, -1, 4000):
            for max_rtx in (1, 3, 7, 12):
                probs = rtx_distribution(float(p), max_rtx)
                assert probs.min() >= 0.0
                assert abs(probs.sum() - 1.0) < 1e-15

    def test_small_failure_probability_simulates(self):
        # attempt failure probability 1.3e-3: Generator.choice rejected the
        # negative loss mass this used to give with "probabilities are not
        # non-negative"
        cfg = quiet_config(interference=InterferenceParams(p_if=0.044889724310776945, t_if_slots=1.0))
        assert rtx_distribution(attempt_failure_prob(cfg), 7)[-1] == 0.0
        out = simulate_channel(flat_trace(100), cfg)
        assert out.delivered.all()


class TestMeanDelayGivenRtx:
    def test_zero_rtx_reads_off_formula(self):
        mac = MacParams()
        expected = mac.t_s_ms + mac.slot_ms * (mac.w0 - 1) / 2.0
        assert mean_delay_given_rtx(0, mac) == pytest.approx(expected)

    def test_hand_value_two_rtx_uncapped(self):
        mac = MacParams(t_s_ms=1.0, t_col_ms=1.0, slot_ms=0.01, w0=16, max_window_exp=20)
        assert mean_delay_given_rtx(2, mac) == pytest.approx(3.545)

    def test_strictly_increasing_in_rtx(self):
        mac = MacParams()
        delays = [mean_delay_given_rtx(j, mac) for j in range(mac.max_rtx)]
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_backoff_window_cap(self):
        mac = MacParams(w0=16, max_window_exp=2)
        assert mac.window(5) == 64  # capped at 2^2 * 16

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            mean_delay_given_rtx(7, MacParams(max_rtx=7))


def random_macs(n: int, seed: int) -> list[MacParams]:
    rng = np.random.default_rng(seed)
    return [
        MacParams(t_s_ms=float(rng.uniform(0.01, 3.0)), t_col_ms=float(rng.uniform(0.01, 3.0)),
                  slot_ms=float(rng.uniform(1e-3, 0.1)), w0=int(rng.integers(2, 1000)),
                  max_window_exp=int(rng.integers(0, 40)), max_rtx=int(rng.integers(1, 60)))
        for _ in range(n)
    ]


class TestServerTimes:
    """MacParams.server_times, the cumulative backoff table the queue draws
    its server times from."""

    @pytest.mark.parametrize("mac", [MacParams()] + random_macs(40, seed=5))
    def test_bit_equal_to_per_count_closed_forms(self, mac):
        def backoff(stages):
            return sum((mac.window(k) - 1) / 2.0 for k in range(stages))

        # j failed attempts: one transmission, j collisions, j+1 backoff
        # stages; a lost frame: every attempt collides, every stage is paid
        delivered = [mac.t_s_ms + j * mac.t_col_ms + mac.slot_ms * backoff(j + 1) for j in range(mac.max_rtx)]
        lost = mac.max_rtx * mac.t_col_ms + mac.slot_ms * backoff(mac.max_rtx)
        assert mac.server_times().tolist() == delivered + [lost]
        assert [mean_delay_given_rtx(j, mac) for j in range(mac.max_rtx)] == delivered
        assert mac.server_times()[-1] == lost

    def test_window_doubles_up_to_the_cap(self):
        mac = MacParams(w0=16, max_window_exp=3)
        assert [mac.window(k) for k in range(6)] == [16, 32, 64, 128, 128, 128]

    @pytest.mark.parametrize("fields", [
        dict(max_rtx=1100, max_window_exp=1100),
        dict(w0=2 ** 1030),
        dict(t_s_ms=1e308, t_col_ms=1e308, max_rtx=3),
        dict(t_s_ms=math.nan),
    ])
    def test_non_finite_delays_rejected(self, fields):
        with pytest.raises(ConfigError, match="not finite"):
            MacParams(**fields)

    def test_computed_once_and_read_only(self):
        mac = MacParams(w0=8, max_rtx=5)
        times = mac.server_times()
        assert mac.server_times() is times
        assert not times.flags.writeable
        with pytest.raises(ValueError):
            times[0] = 0.0
        assert mac == MacParams(w0=8, max_rtx=5) and hash(mac) == hash(MacParams(w0=8, max_rtx=5))
        assert "_server_times" not in repr(mac)

    def test_large_budget_with_capped_windows(self):
        mac = MacParams(max_rtx=4000)
        times = mac.server_times()
        assert len(times) == 4001 and np.all(np.diff(times[:-1]) > 0)
        backoff = sum((mac.window(k) - 1) / 2.0 for k in range(mac.max_rtx))
        assert times[-1] == mac.max_rtx * mac.t_col_ms + mac.slot_ms * backoff


class TestExpectedDelayBound:
    def test_lossless_single_branch(self):
        cfg = quiet_config(transport_bound_ms=1.5)
        bound, prob = expected_delay_bound(cfg)
        assert prob == 1.0
        assert bound == pytest.approx(1.5 + mean_delay_given_rtx(0, cfg.mac))

    def test_hand_mixture_p_half(self):
        mac = MacParams(max_rtx=3)
        cfg = ChannelConfig(mac=mac, rtx_probs=(0.5, 0.25, 0.125, 0.125))
        bound, prob = expected_delay_bound(cfg)
        es = [mean_delay_given_rtx(j, mac) for j in range(3)]
        expected = (0.5 * es[0] + 0.25 * es[1] + 0.125 * es[2]) / 0.875
        assert bound == pytest.approx(expected)
        assert prob == pytest.approx(0.875)

    def test_always_lost(self):
        cfg = ChannelConfig(mac=MacParams(max_rtx=2), rtx_probs=(0.0, 0.0, 1.0))
        with pytest.raises(AlwaysLost):
            expected_delay_bound(cfg)

    def test_monte_carlo_mixture_within_one_percent(self):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.5, t_if_slots=16.0, n_stations=15), seed=2
        )
        probs = channel_rtx_probs(cfg)
        means = np.array([mean_delay_given_rtx(j, cfg.mac) for j in range(cfg.mac.max_rtx)])
        rng = np.random.default_rng(17)
        draws = rng.choice(len(probs), size=1_000_000, p=probs)
        delivered = draws[draws < cfg.mac.max_rtx]
        sample = rng.exponential(1.0, size=len(delivered)) * means[delivered]
        bound, _ = expected_delay_bound(cfg)
        assert abs(sample.mean() - bound) / bound < 0.01


class TestSimulateChannel:
    def test_lossless_delays_match_exponential_mean(self):
        cfg = quiet_config(queue_cap=10**9, seed=3)
        outcomes = simulate_channel(flat_trace(100_000), cfg)
        delays = np.array([o.delay_ms for o in outcomes])
        e0 = mean_delay_given_rtx(0, cfg.mac)
        assert len(delays) == 100_000
        assert abs(delays.mean() - e0) / e0 < 0.02

    def test_certain_loss_marks_every_command(self):
        mac = MacParams(max_rtx=3)
        cfg = ChannelConfig(mac=mac, rtx_probs=(0.0, 0.0, 0.0, 1.0), seed=4)
        outcomes = simulate_channel(flat_trace(500), cfg)
        assert all(not o.delivered and o.cause is LossCause.RTX_EXCEEDED for o in outcomes)

    def test_fixed_seed_is_bit_identical(self):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.4, t_if_slots=8.0, n_stations=15), seed=5
        )
        tr = flat_trace(5_000)
        assert simulate_channel(tr, cfg) == simulate_channel(tr, cfg)

    def test_overloaded_queue_overflows(self):
        slow = MacParams(t_s_ms=500.0, t_col_ms=500.0)
        cfg = ChannelConfig(mac=slow, interference=InterferenceParams(), queue_cap=1, seed=6)
        outcomes = simulate_channel(flat_trace(2_000), cfg)
        overflow = sum(o.cause is LossCause.QUEUE_OVERFLOW for o in outcomes if not o.delivered)
        assert overflow > 0.9 * len(outcomes)

    def test_outcome_count_and_nonnegative_delays(self):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.7, t_if_slots=32.0, n_stations=25), seed=7
        )
        tr = flat_trace(3_000)
        outcomes = simulate_channel(tr, cfg)
        assert len(outcomes) == len(tr)
        assert all(o.delay_ms >= 0 for o in outcomes if o.delivered)
        assert all(o.rtx <= cfg.mac.max_rtx - 1 for o in outcomes if o.delivered)

    def test_service_component_respects_mean_bound(self):
        # wireless service + transport (queue wait excluded) vs the closed form
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.5, t_if_slots=16.0, n_stations=15),
            transport_bound_ms=0.0,
            seed=8,
        )
        outcomes = simulate_channel(flat_trace(100_000), cfg)
        service = np.array([o.delay_ms - o.waited_ms for o in outcomes if o.delivered])
        bound, _ = expected_delay_bound(cfg)
        sigma = service.std() / math.sqrt(len(service))
        assert service.mean() <= bound + 3 * sigma

    def test_transport_delay_bounded_by_d(self):
        cfg = quiet_config(transport_bound_ms=2.0, seed=9)
        outcomes = simulate_channel(flat_trace(20_000), cfg)
        transport = np.array([o.delay_ms - o.waited_ms for o in outcomes])
        e0 = mean_delay_given_rtx(0, cfg.mac)
        # mean service+transport ~ E0 + D/2
        assert abs(transport.mean() - (e0 + 1.0)) < 0.05

    def test_period_mismatch_rejected(self):
        cfg = quiet_config(period_ms=10.0)
        with pytest.raises(ConfigError):
            simulate_channel(flat_trace(10, period_ms=20.0), cfg)


class TestVerifiers:
    def test_causality_lossless(self):
        analytic, empirical = verify_causality_prob(quiet_config(), 20_000)
        assert analytic == 1.0
        assert empirical == 1.0

    def test_causality_hand_value_p_half(self):
        cfg = ChannelConfig(mac=MacParams(max_rtx=3), rtx_probs=(0.5, 0.25, 0.125, 0.125), seed=10)
        analytic, empirical = verify_causality_prob(cfg, 200_000)
        assert analytic == pytest.approx(0.328125)
        sigma = math.sqrt(analytic * (1 - analytic) / 200_000)
        assert abs(empirical - analytic) < 3 * sigma

    def test_causality_high_loss(self):
        mac = MacParams(max_rtx=3)
        probs = tuple(rtx_distribution(0.9, 3))
        cfg = ChannelConfig(mac=mac, rtx_probs=probs, seed=11)
        analytic, empirical = verify_causality_prob(cfg, 300_000)
        assert analytic == pytest.approx(sum(p * p for p in probs[:-1]))
        sigma = math.sqrt(analytic * (1 - analytic) / 300_000)
        assert abs(empirical - analytic) < 3 * sigma

    def test_unbounded_delay_lossless(self):
        analytic, empirical = loss_and_exceedance(quiet_config(queue_cap=10**6), 1e6, 20_000)
        assert analytic == 0.0
        assert empirical == 0.0

    def test_unbounded_delay_hand_value(self):
        mac = MacParams(max_rtx=3)
        cfg = ChannelConfig(mac=mac, rtx_probs=(0.5, 0.25, 0.125, 0.125),
                            queue_cap=10**6, seed=12)
        analytic, empirical = loss_and_exceedance(cfg, 1e6, 100_000)
        assert analytic == pytest.approx(0.125)
        sigma = math.sqrt(analytic * (1 - analytic) / 100_000)
        assert empirical >= analytic - 3 * sigma
        assert abs(empirical - analytic) < 3 * sigma

    def test_any_loss_probability_gives_positive_exceedance(self):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.8, t_if_slots=32.0, n_stations=25),
            queue_cap=10**6,
            seed=13,
        )
        _, empirical = loss_and_exceedance(cfg, 1e9, 50_000)
        assert empirical > 0.0

    def test_sample_floor_enforced(self):
        with pytest.raises(ConfigError):
            verify_causality_prob(quiet_config(), 100)


class TestChannelFiles:
    def test_config_json_round_trip(self, tmp_path):
        cfg = ChannelConfig(
            mac=MacParams(t_s_ms=0.25, max_rtx=5),
            interference=InterferenceParams(p_if=0.3, t_if_slots=4.0, n_stations=7),
            queue_cap=32,
            period_ms=10.0,
            transport_bound_ms=0.5,
            seed=99,
            rtx_probs=tuple(rtx_distribution(0.2, 5)),
        )
        path = tmp_path / "channel.json"
        save_channel_config(cfg, path)
        assert load_channel_config(path) == cfg
        doc = json.loads(path.read_text())
        assert list(doc) == ["mac", "interference", "queue_cap", "period_ms", "transport_bound_ms", "seed", "a_j"]
        assert list(doc["mac"]) == ["t_s_ms", "t_col_ms", "slot_ms", "w0", "max_window_exp", "max_rtx"]
        assert list(doc["interference"]) == ["p_if", "t_if_slots", "n_stations", "attempt_prob"]

    def test_explicit_vector_must_be_distribution(self):
        with pytest.raises(ConfigError):
            ChannelConfig(mac=MacParams(max_rtx=2), rtx_probs=(0.5, 0.2, 0.2))
        with pytest.raises(ConfigError):
            ChannelConfig(mac=MacParams(max_rtx=2), rtx_probs=(0.5, 0.5))

    @pytest.mark.parametrize("probs", [
        (math.nan, 0.0, 1.0), (0.0, math.nan, 0.0), (0.5, 0.5, math.nan),
        (math.inf, 0.0, 0.0), (0.5, -math.inf, 0.5),
    ])
    def test_explicit_vector_must_be_finite(self, probs):
        with pytest.raises(ConfigError, match="must be finite"):
            ChannelConfig(mac=MacParams(max_rtx=2), rtx_probs=probs)

    def test_outcome_csv_format(self, tmp_path):
        outcomes = [
            ChannelOutcome.delivery(0, 0.42, 1, 0.0),
            ChannelOutcome.loss(1, LossCause.RTX_EXCEEDED),
            ChannelOutcome.loss(2, LossCause.QUEUE_OVERFLOW),
        ]
        path = tmp_path / "outcomes.csv"
        write_outcomes_csv(outcomes, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seq,status,delay_ms,rtx,cause"
        assert lines[1] == "0,delivered,0.42,1,"
        assert lines[2] == "1,lost,,,rtx-exceeded"
        assert lines[3] == "2,lost,,,queue-overflow"

    def test_simulated_delays_written_as_plain_floats(self, tmp_path):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.5, t_if_slots=16.0, n_stations=15),
            transport_bound_ms=0.5,
            seed=3,
        )
        outcomes = simulate_channel(flat_trace(500), cfg)
        path = tmp_path / "outcomes.csv"
        write_outcomes_csv(outcomes, path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        delivered = [(o, row) for o, row in zip(outcomes, rows) if o.delivered]
        assert delivered
        for o, row in delivered:
            assert type(o.delay_ms) is float and type(o.waited_ms) is float
            assert float(row[2]) == o.delay_ms

    def test_lost_airtime_exceeds_worst_delivery_backoff(self):
        mac = MacParams()
        assert mac.server_times()[-1] > mean_delay_given_rtx(mac.max_rtx - 1, mac) - mac.t_s_ms


class TestChannelOutcomes:
    OUTCOMES = [
        ChannelOutcome.delivery(5, 0.42, 1, 0.1),
        ChannelOutcome.loss(6, LossCause.RTX_EXCEEDED),
        ChannelOutcome.loss(7, LossCause.QUEUE_OVERFLOW),
        ChannelOutcome.delivery(8, 21.5, 0, 0.0),
    ]

    def columns(self) -> ChannelOutcomes:
        return ChannelOutcomes.from_outcomes(self.OUTCOMES)

    def test_columns_of_a_list(self):
        out = self.columns()
        assert out.seq.tolist() == [5, 6, 7, 8]
        assert out.delivered.tolist() == [True, False, False, True]
        assert out.rtx.tolist() == [1, -1, -1, 0]
        assert np.isnan(out.delay_ms[1:3]).all() and np.isnan(out.waited_ms[1:3]).all()
        assert out.delay_ms[[0, 3]].tolist() == [0.42, 21.5]
        assert ChannelOutcomes.from_outcomes(out) is out

    def test_sequence_view_round_trips(self):
        out = self.columns()
        assert len(out) == 4
        assert list(out) == self.OUTCOMES
        assert [out[i] for i in range(4)] == self.OUTCOMES
        assert out[-1] == self.OUTCOMES[-1]
        assert out == self.OUTCOMES and self.OUTCOMES == out
        assert out[1:3] == self.OUTCOMES[1:3]
        assert isinstance(out[1:3], ChannelOutcomes)
        assert self.OUTCOMES[2] in out
        with pytest.raises(IndexError):
            out[4]

    def test_items_hold_python_scalars(self):
        item = self.columns()[0]
        assert type(item.seq) is int and type(item.rtx) is int
        assert type(item.delay_ms) is float and type(item.waited_ms) is float

    def test_equality_is_exact(self):
        out = self.columns()
        assert out == ChannelOutcomes.from_outcomes(list(self.OUTCOMES))
        moved = list(self.OUTCOMES)
        moved[0] = ChannelOutcome.delivery(5, math.nextafter(0.42, 1.0), 1, 0.1)
        assert out != ChannelOutcomes.from_outcomes(moved)
        assert out != moved
        assert out != self.OUTCOMES[:3]

    def test_columns_are_read_only(self):
        out = self.columns()
        with pytest.raises(ValueError):
            out.delay_ms[0] = 1.0

    def test_inconsistent_columns_rejected(self):
        out = self.columns()
        with pytest.raises(ConfigError):
            ChannelOutcomes(out.seq, ~out.delivered, out.delay_ms, out.rtx, out.waited_ms, out.cause)
        with pytest.raises(ConfigError):
            ChannelOutcomes(out.seq, out.delivered[:2], out.delay_ms, out.rtx, out.waited_ms, out.cause)

    @pytest.mark.parametrize("bad", [
        lambda out: (out.seq, ~out.delivered, out.delay_ms, out.rtx, out.waited_ms, out.cause),
        lambda out: (out.seq, out.delivered[:2], out.delay_ms, out.rtx, out.waited_ms, out.cause),
        lambda out: (out.seq, out.delivered, out.delay_ms[None], out.rtx, out.waited_ms, out.cause),
        lambda out: (out.seq, out.delivered, out.delay_ms, out.rtx, out.waited_ms, np.zeros(len(out))),
        lambda out: (out.seq, out.delivered, out.delay_ms, out.rtx, out.waited_ms, out.cause.tolist()[:-1]),
    ])
    def test_outside_columns_are_checked(self, bad):
        # the library's own columns skip the checks; columns from outside do not
        out = simulate_channel(flat_trace(300), ChannelConfig(
            interference=InterferenceParams(p_if=0.9, t_if_slots=32.0, n_stations=25), queue_cap=1, seed=3))
        assert 0 < out.delivered.sum() < len(out)
        with pytest.raises(ConfigError):
            ChannelOutcomes(*bad(out))

    def test_inconsistent_outcome_list_rejected(self):
        with pytest.raises(ConfigError):
            ChannelOutcomes.from_outcomes([ChannelOutcome(0, True, 1.0, 0, 0.0, LossCause.RTX_EXCEEDED)])

    @pytest.mark.parametrize("cfg", [
        quiet_config(),
        ChannelConfig(interference=InterferenceParams(p_if=0.9, t_if_slots=32.0, n_stations=25),
                      queue_cap=1, transport_bound_ms=4.0, seed=5),
        ChannelConfig(mac=MacParams(max_rtx=2), rtx_probs=(0.0, 0.0, 1.0), seed=6),
    ])
    def test_library_built_columns_equal_the_checked_constructor(self, cfg):
        from foreco.evaluation import controlled_loss_outcomes

        trace = flat_trace(400).slice(50, 400)
        for built in (simulate_channel(trace, cfg), controlled_loss_outcomes(trace, 5, 4, seed=cfg.seed)):
            columns = [getattr(built, name) for name in ChannelOutcomes.__dataclass_fields__]
            checked = ChannelOutcomes(*columns)
            assert built == checked
            for a, b in zip(columns, (getattr(checked, name) for name in ChannelOutcomes.__dataclass_fields__)):
                assert a.dtype == b.dtype and a.shape == b.shape == (len(trace),)
                assert not a.flags.writeable
            assert list(built) == list(checked)

    def test_simulate_returns_columns(self):
        out = simulate_channel(flat_trace(300).slice(100, 300), quiet_config())
        assert isinstance(out, ChannelOutcomes)
        assert out.seq.tolist() == list(range(100, 300))

    def test_unbounded_delay_counts_from_columns(self):
        cfg = ChannelConfig(
            interference=InterferenceParams(p_if=0.7, t_if_slots=16.0, n_stations=20), seed=4
        )
        _, observed = loss_and_exceedance(cfg, 5.0, 10_000)
        outcomes = simulate_channel(flat_trace(10_000), cfg)
        exceed = sum(1 for o in outcomes if not o.delivered or o.delay_ms > 5.0)
        assert observed == exceed / 10_000


class TestChannelConfigLoader:
    @pytest.mark.parametrize("doc, field", [
        ({"mac": {"bogus": 1}}, "mac.bogus"),
        ({"interference": {"p": 0.5}}, "interference.p"),
        ({"bogus": 1}, "bogus"),
        ({"mac": {"w0": "16"}}, "mac.w0"),
        ({"mac": {"w0": 16.0}}, "mac.w0"),
        ({"mac": {"t_s_ms": True}}, "mac.t_s_ms"),
        ({"interference": {"p_if": float("nan")}}, "interference.p_if"),
        ({"queue_cap": "50"}, "queue_cap"),
        ({"seed": 1.5}, "seed"),
        ({"a_j": "0.5"}, "a_j"),
        ({"a_j": [0.5, None]}, "a_j[1]"),
        ({"mac": []}, "mac"),
    ])
    def test_unknown_or_ill_typed_field_named(self, doc, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
            channel_config_from_dict(doc)

    def test_file_named_in_message(self, tmp_path):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"mac": {"bogus": 1}}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: mac.bogus")):
            load_channel_config(path)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            channel_config_from_dict({"seed": -1})

    def test_integers_accepted_for_float_fields(self):
        cfg = channel_config_from_dict({"mac": {"t_s_ms": 1}, "period_ms": 20})
        assert cfg.mac.t_s_ms == 1 and cfg.period_ms == 20
