"""Contention-based wireless link model: retransmission statistics and a
single-server queue with hyperexponential service.

A frame needs a random number of transmission attempts; each unsuccessful
attempt adds collision time plus a growing backoff window. Frames that fail
every allowed attempt are lost. The access point is modeled as a FIFO queue
with one server whose service time, conditional on j failed attempts, is
exponential with the closed-form mean delay for that attempt count.
"""

from __future__ import annotations

import csv
import enum
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import MAX_TIMESTAMP_MS, Trace, checked_fields, checked_numbers, ms_to_us, read_json, section, write_json
from .errors import AlwaysLost, ConfigError, OutOfRange


# The largest attempt budget per frame. 802.11 caps its retry limits at 255
# (dot11ShortRetryLimit ranges over 1..255); the model allows larger
# budgets for study, up to 2**16 attempts, so that each per-attempt table
# (max_rtx + 1 floats) stays below 1 MB.
_MAX_ATTEMPTS = 1 << 16


@dataclass(frozen=True)
class MacParams:
    """Medium-access timing: transmission/collision times, slot time, backoff
    windows, and the total attempt budget per frame (first try included)."""

    t_s_ms: float = 0.3
    t_col_ms: float = 0.35
    slot_ms: float = 0.009
    w0: int = 16
    max_window_exp: int = 6
    max_rtx: int = 7

    def __post_init__(self):
        for name in ("t_s_ms", "t_col_ms", "slot_ms"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: MAC times must be positive, got {getattr(self, name)}")
        if self.w0 < 2:
            raise ConfigError(f"w0: initial backoff window must be >= 2, got {self.w0}")
        if self.max_window_exp < 0:
            raise ConfigError(f"max_window_exp: backoff cap exponent must be >= 0, got {self.max_window_exp}")
        if not 1 <= self.max_rtx <= _MAX_ATTEMPTS:
            raise ConfigError(f"max_rtx: attempt budget must lie in [1, {_MAX_ATTEMPTS}], got {self.max_rtx}")
        self.server_times()  # ConfigError unless the delays are finite

    def window(self, k: int) -> int:
        """Backoff window before attempt k, doubling up to the cap."""
        return self.w0 << min(k, self.max_window_exp)

    def server_times(self) -> np.ndarray:
        """Mean server time of a frame delivered after j = 0..max_rtx-1 failed
        attempts, then that of a frame failing all of them, computed on each
        call from one cumulative sum over the backoff stages; ConfigError
        unless all are finite and below 2**62 us, the timestamp range."""
        attempts = np.arange(self.max_rtx)
        capped = np.minimum(attempts, min(self.max_window_exp, self.max_rtx))
        try:
            stages = np.array([(self.window(k) - 1) / 2.0 for k in range(capped[-1] + 1)])[capped]
        except OverflowError:
            stages = np.full(self.max_rtx, math.inf)
        with np.errstate(over="ignore"):
            backoff = self.slot_ms * np.cumsum(stages)
            t_col_ms = float(self.t_col_ms)
            delivered = self.t_s_ms + attempts * t_col_ms + backoff
            times = np.append(delivered, self.max_rtx * t_col_ms + backoff[-1])
        if not np.all(times < MAX_TIMESTAMP_MS):
            raise ConfigError(f"MAC delays are not finite floats below 2**62 us with max_rtx={self.max_rtx}, "
                              f"max_window_exp={self.max_window_exp} and these times and windows")
        return times


@dataclass(frozen=True)
class InterferenceParams:
    """External interferer activity plus contention from neighbor stations.

    attempt_prob is the fixed per-slot transmission probability assumed for
    each contending neighbor when deriving the collision probability.
    """

    p_if: float = 0.0
    t_if_slots: float = 0.0
    n_stations: int = 1
    attempt_prob: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.p_if <= 1.0:
            raise ConfigError(f"p_if: must lie in [0, 1], got {self.p_if}")
        if self.t_if_slots < 0:
            raise ConfigError(f"t_if_slots: interferer duration must be >= 0 slots, got {self.t_if_slots}")
        if not 0.0 <= self.attempt_prob < 1.0:
            raise ConfigError(f"attempt_prob: per-slot attempt probability must lie in [0, 1), got {self.attempt_prob}")
        if not 1 <= self.n_stations or self.collision_prob == 1.0:
            raise ConfigError(f"n_stations: station count must be >= 1 and leave the collision probability "
                              f"below 1 at attempt probability {self.attempt_prob}, got {self.n_stations}")

    @property
    def collision_prob(self) -> float:
        """Probability that one of the other n - 1 stations transmits in a slot.
        (1 - q)**k is 0.0 past k = 2**64 for any 1 - q < 1: the cap only keeps
        a count beyond the float range from overflowing."""
        return 1.0 - (1.0 - self.attempt_prob) ** min(self.n_stations - 1, 1 << 64)


@dataclass(frozen=True)
class ChannelConfig:
    mac: MacParams = MacParams()
    interference: InterferenceParams = InterferenceParams()
    queue_cap: int = 50
    period_ms: float = 20.0
    transport_bound_ms: float = 0.0
    seed: int = 0
    # Explicit per-attempt-count probability vector (len max_rtx + 1, loss
    # mass last); overrides the parametric model when set.
    rtx_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.queue_cap < 1:
            raise ConfigError(f"queue_cap: queue capacity must be >= 1, got {self.queue_cap}")
        if not 0 < self.period_ms < MAX_TIMESTAMP_MS:
            raise ConfigError(f"period_ms: must be positive and below 2**62 us, got {self.period_ms}")
        if not 0 <= self.transport_bound_ms < MAX_TIMESTAMP_MS:
            raise ConfigError(f"transport_bound_ms: must lie in [0, 2**62 us), got {self.transport_bound_ms}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.rtx_probs is not None:
            probs = tuple(float(p) for p in self.rtx_probs)
            object.__setattr__(self, "rtx_probs", probs)
            if len(probs) != self.mac.max_rtx + 1:
                raise ConfigError(f"a_j: explicit probability vector needs {self.mac.max_rtx + 1} entries, "
                                  f"got {len(probs)}")
            if not all(map(math.isfinite, probs)):
                raise ConfigError(f"a_j: explicit probability vector must be finite, got {list(probs)}")
            if min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-9:
                raise ConfigError("a_j: explicit probability vector must be a distribution")


class LossCause(enum.Enum):
    RTX_EXCEEDED = "rtx-exceeded"
    QUEUE_OVERFLOW = "queue-overflow"


class ChannelOutcome(NamedTuple):
    """Per-command result: a delivery with its delay breakdown, or a loss.

    A named tuple, so it compares equal to a plain tuple of its fields.
    """

    seq: int
    delivered: bool
    delay_ms: float | None = None
    rtx: int | None = None
    waited_ms: float | None = None
    cause: LossCause | None = None

    @classmethod
    def delivery(cls, seq: int, delay_ms: float, rtx: int, waited_ms: float) -> "ChannelOutcome":
        return cls(seq, True, delay_ms, rtx, waited_ms, None)

    @classmethod
    def loss(cls, seq: int, cause: LossCause) -> "ChannelOutcome":
        return cls(seq, False, cause=cause)


# Cause codes of ChannelOutcomes.cause: index into this tuple.
_CAUSES = (None, LossCause.RTX_EXCEEDED, LossCause.QUEUE_OVERFLOW)
_CAUSE_CODES = {cause: code for code, cause in enumerate(_CAUSES)}
DELIVERED, RTX_EXCEEDED, QUEUE_OVERFLOW = range(len(_CAUSES))

# The columns of ChannelOutcomes and their dtypes, in constructor order.
_COLUMNS = (
    ("seq", np.int64),
    ("delivered", bool),
    ("delay_ms", float),
    ("rtx", np.int64),
    ("waited_ms", float),
    ("cause", np.int8),
)


@dataclass(frozen=True, eq=False)
class ChannelOutcomes:
    """Per-command outcomes of one run as read-only columns of equal length,
    copied and checked on construction.

    A lost command has delay_ms and waited_ms NaN, rtx -1 and a nonzero cause
    code (an index into ``_CAUSES``); a delivered one has cause code 0.
    Iterating yields ChannelOutcome values built on the fly; there is no
    indexing, and bulk code reads the columns. Two outcomes are equal when
    their columns are.
    """

    seq: np.ndarray
    delivered: np.ndarray
    delay_ms: np.ndarray
    rtx: np.ndarray
    waited_ms: np.ndarray
    cause: np.ndarray

    def __post_init__(self):
        n = len(self.seq)
        for name, dtype in _COLUMNS:
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != (n,):
                raise ConfigError(f"outcome column {name} has shape {column.shape}, expected ({n},)")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if not np.array_equal(self.delivered, self.cause == DELIVERED):
            raise ConfigError("an outcome is delivered exactly when its cause code is 0")

    @classmethod
    def from_outcomes(cls, outcomes: ChannelOutcomes | Sequence[ChannelOutcome]) -> "ChannelOutcomes":
        """The columns of a sequence of outcomes; columns pass through as is."""
        if isinstance(outcomes, ChannelOutcomes):
            return outcomes
        nan = math.nan
        return cls(
            [o.seq for o in outcomes],
            [o.delivered for o in outcomes],
            [o.delay_ms if o.delivered else nan for o in outcomes],
            [o.rtx if o.delivered else -1 for o in outcomes],
            [o.waited_ms if o.delivered else nan for o in outcomes],
            [_CAUSE_CODES[o.cause] for o in outcomes],
        )

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self):
        lost = ~self.delivered

        def held(column):
            """The column as Python values, None where the command was lost."""
            return np.where(lost, None, column.astype(object)).tolist()

        causes = np.array(_CAUSES, dtype=object)[self.cause].tolist()
        rows = zip(
            self.seq.tolist(), self.delivered.tolist(),
            held(self.delay_ms), held(self.rtx), held(self.waited_ms), causes,
        )
        # tuple.__new__ builds each row without _make's per-call overhead
        return map(tuple.__new__, repeat(ChannelOutcome), rows)

    def __eq__(self, other):
        if not isinstance(other, ChannelOutcomes):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name, _ in _COLUMNS
        )


def attempt_failure_prob(cfg: ChannelConfig) -> float:
    """Per-attempt transmission failure probability.

    Combines neighbor collisions (each of the other n-1 stations transmits in
    a slot with the configured attempt probability) with interferer hits (its
    emission probability scaled by the fraction of time a transmission overlaps
    the active window).
    """
    inter = cfg.interference
    p_col = inter.collision_prob
    tx_slots = cfg.mac.t_s_ms / cfg.mac.slot_ms
    if inter.t_if_slots > 0:
        duty = inter.t_if_slots / (inter.t_if_slots + tx_slots)
    else:
        duty = 0.0
    p_int = inter.p_if * min(1.0, duty)
    return 1.0 - (1.0 - p_col) * (1.0 - p_int)


def rtx_distribution(p: float, max_rtx: int) -> np.ndarray:
    """Probabilities of j = 0..max_rtx-1 failed attempts before a success,
    with the residual mass (all attempts failed, the frame is lost) last.

    The last entry is computed as one minus the rest so the vector sums to 1
    exactly in floating point, unless that would make it negative: for some
    small p the rest alone rounds to just above 1, and the loss mass is 0.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"per-attempt failure probability must lie in [0, 1), got {p}")
    probs = np.empty(max_rtx + 1)
    probs[:max_rtx] = p ** np.arange(max_rtx) * (1.0 - p)
    probs[max_rtx] = 1.0 - probs[:max_rtx].sum()
    # nudge the remainder until the sum over the full vector lands on 1.0
    # exactly (an ulp of rounding can survive a single correction)
    for _ in range(4):
        err = probs.sum() - 1.0
        if err == 0.0:
            break
        probs[max_rtx] -= err
    probs[max_rtx] = max(probs[max_rtx], 0.0)
    return probs


def channel_rtx_probs(cfg: ChannelConfig) -> np.ndarray:
    """The attempt-count distribution in force: explicit override or derived."""
    if cfg.rtx_probs is not None:
        return np.array(cfg.rtx_probs, dtype=float)
    return rtx_distribution(attempt_failure_prob(cfg), cfg.mac.max_rtx)


def mean_delay_given_rtx(j: int, mac: MacParams) -> float:
    """Mean wireless delay of a frame delivered after exactly j failed attempts:
    one transmission, j collisions, and j+1 backoff stages at half window each."""
    if not 0 <= j <= mac.max_rtx - 1:
        raise OutOfRange(f"attempt count {j} outside [0, {mac.max_rtx - 1}]")
    return float(mac.server_times()[j])


def expected_delay_bound(cfg: ChannelConfig) -> tuple[float, float]:
    """Mean-delay bound for delivered commands and the probability it applies.

    Returns (transport bound + mixture mean of per-attempt-count delays
    conditioned on delivery, probability of delivery). Lost frames have
    unbounded delay, which happens with the complementary probability.
    """
    probs = channel_rtx_probs(cfg)
    loss = float(probs[-1])
    if loss >= 1.0:
        raise AlwaysLost("every frame is lost; no delivered-delay bound exists")
    mixture = sum((probs[:-1] * cfg.mac.server_times()[:-1]).tolist())
    return cfg.transport_bound_ms + mixture / (1.0 - loss), 1.0 - loss


class ChannelRuns(NamedTuple):
    """The outcomes of R runs of the channel over one trace of H commands, as
    (R, H) arrays with the dtypes and meaning of the ChannelOutcomes columns
    of the same names; row r is run r."""

    delivered: np.ndarray
    delay_ms: np.ndarray
    rtx: np.ndarray
    waited_ms: np.ndarray
    cause: np.ndarray


def _frame_draws(trace: Trace, template: ChannelConfig, interferences: Sequence[InterferenceParams],
                 seeds: Sequence[int]):
    """Attempt counts, server times and transport delays (None when the
    bound is 0) of every frame of every run, as (R, H) arrays: run r under
    interferences[r], drawn in a fixed order from its own generator seeded
    seeds[r].

    The attempt counts are Generator.choice(max_rtx + 1, p=probs)'s draws,
    made as it makes them (one uniform per frame, searched in the normalised
    cumulative probabilities) without its per-call checks of probs, which
    ChannelConfig has already made; probs and its cumulative sum are
    computed once per distinct interference. A deliverable attempt count j
    takes an exponential server time with mean mean_delay_given_rtx(j); a
    frame exhausting its attempts (j == max_rtx) holds the server for the
    full failed-attempt airtime.
    """
    n = len(trace)
    bound = template.transport_bound_ms
    uniform = np.empty(n)
    exponential = np.empty((len(seeds), n))
    transport = np.empty((len(seeds), n)) if bound > 0 else None
    branches = np.empty((len(seeds), n), dtype=np.intp)
    cdfs: dict[InterferenceParams, np.ndarray] = {}
    for r, (interference, seed) in enumerate(zip(interferences, seeds, strict=True)):
        if interference not in cdfs:
            cdf = channel_rtx_probs(replace(template, interference=interference)).cumsum()
            cdfs[interference] = cdf / cdf[-1]
        rng = np.random.default_rng(seed)
        rng.random(out=uniform)
        exponential[r] = rng.exponential(1.0, size=n)
        if transport is not None:
            transport[r] = rng.random(n)
        branches[r] = cdfs[interference].searchsorted(uniform, side="right")
    times = template.mac.server_times()
    service = exponential
    service *= times[branches]
    service[branches == template.mac.max_rtx] = times[-1]
    if transport is not None:
        transport = bound * (1.0 - transport)
    return branches, service, transport


def _queue_starts(arrivals: np.ndarray, service: np.ndarray, queue_cap: int):
    """(starts, overflow): for (R, H) server times of R runs over the same
    (H,) arrivals, the service start time of every frame of each run's FIFO
    queue, and which frames found queue_cap frames waiting and were dropped
    (their start is unused).

    A frame starts on arrival unless the server is still busy. A busy period
    is entered at a frame whose predecessor, started on arrival, is still in
    service; one array compare over all runs finds these entries. From each
    entry the per-frame recursion (start = last departure, departure =
    start + s, a drop when the waiting room is full) is stepped until an
    arrival finds the server idle. These are the per-frame loop's own IEEE
    operations, so the starts equal its values bit for bit. An entry at or
    before the frame where the run's last walk stopped is false: its
    predecessor lies in that walk or was dropped.
    """
    n_runs, n = service.shape
    starts = np.tile(arrivals, (n_runs, 1))
    overflow = np.zeros((n_runs, n), dtype=bool)
    rows, entries = np.nonzero(arrivals[:-1] + service[:, :-1] > arrivals[1:])
    run, i = -1, 0
    for r, k in zip(rows.tolist(), (entries + 1).tolist()):
        if r != run:
            run, i = r, 0
            s, run_starts, run_overflow = service[r], starts[r], overflow[r]
        if k <= i:
            continue
        departure = arrivals[k - 1] + s[k - 1]
        waiting: deque[float] = deque()
        i = k
        while i < n and departure > arrivals[i]:
            while waiting and waiting[0] <= arrivals[i]:
                waiting.popleft()
            if len(waiting) >= queue_cap:
                run_overflow[i] = True
            else:
                run_starts[i] = departure
                waiting.append(departure)
                departure = departure + s[i]
            i += 1
    return starts, overflow


def check_period(trace: Trace, cfg: ChannelConfig) -> None:
    """ConfigError naming period_ms unless the channel's period is the trace's."""
    if trace.period_us != ms_to_us(cfg.period_ms):
        raise ConfigError(f"period_ms: trace period {trace.period_ms} ms does not match channel period {cfg.period_ms} ms")


def simulate_channels(trace: Trace, template: ChannelConfig, interferences: Sequence[InterferenceParams],
                      seeds: Sequence[int]) -> ChannelRuns:
    """Runs of a channel over one trace, as (R, H) arrays: run r under
    interference interferences[r], seeded seeds[r]. The runs share the
    template's MAC, waiting room, transport bound and period.

    Run r is the run of replace(template, interference=interferences[r],
    seed=seeds[r]), bit for bit: its frames are drawn from its own generator
    and its queue is walked alone, while the server times, causes, waits
    and delays of all runs are formed together.

    Arrivals follow the trace schedule; the waiting room holds queue_cap
    frames (an arrival finding it full is dropped). Each frame entering
    service draws an attempt count: a deliverable count takes an exponential
    service time with the matching mean, while a frame exhausting its attempts
    holds the server for the full failed-attempt airtime and is then dropped.
    Delivered delay = wait + service + a uniform (0, D] transport delay.
    """
    check_period(trace, template)
    arrivals = (trace.start_us + np.arange(len(trace)) * trace.period_us) / 1000.0
    branches, service, transport = _frame_draws(trace, template, interferences, seeds)
    starts, overflow = _queue_starts(arrivals, service, template.queue_cap)
    cause = np.where(branches == template.mac.max_rtx, np.int8(RTX_EXCEEDED), np.int8(DELIVERED))
    cause[overflow] = QUEUE_OVERFLOW
    delivered = cause == DELIVERED
    rtx = np.where(delivered, branches, -1)
    # the waits and delays take the place of the starts and server times
    waited = starts
    waited -= arrivals
    waited[~delivered] = math.nan
    delay = service
    delay += waited
    if transport is not None:
        delay += transport
    return ChannelRuns(delivered, delay, rtx, waited, cause)


def simulate_channel(trace: Trace, cfg: ChannelConfig) -> ChannelOutcomes:
    """Push a command trace through the access-point queue: simulate_channels
    for the one run of cfg, reproducible from the config seed."""
    runs = simulate_channels(trace, cfg, [cfg.interference], [cfg.seed])
    return ChannelOutcomes(np.arange(trace.seq0, trace.seq0 + len(trace)), *(column[0] for column in runs))


def verify_causality_prob(cfg: ChannelConfig, n_samples: int) -> tuple[float, float]:
    """Probability that two consecutive commands draw the same attempt count
    and both get delivered: closed form (sum of squared branch weights over
    the deliverable counts) next to a Monte-Carlo estimate over independent
    command pairs."""
    if n_samples < 10_000:
        raise ConfigError("need at least 1e4 samples for a meaningful estimate")
    probs = channel_rtx_probs(cfg)
    analytic = float(np.sum(probs[:-1] ** 2))
    rng = np.random.default_rng(cfg.seed)
    draws = rng.choice(len(probs), size=2 * n_samples, p=probs)
    first, second = draws[0::2], draws[1::2]
    hit = (first == second) & (first < cfg.mac.max_rtx)
    return analytic, float(np.mean(hit))


# ---------------------------------------------------------------------------
# File formats

def channel_config_to_dict(cfg: ChannelConfig) -> dict:
    doc = asdict(cfg)
    rtx_probs = doc.pop("rtx_probs")
    return doc if rtx_probs is None else dict(doc, a_j=list(rtx_probs))


def channel_config_from_dict(doc: dict) -> ChannelConfig:
    """The config a JSON document describes; an unknown key, a value of the
    wrong type or out of range, or an interference that fails every attempt
    raises ConfigError naming the field. Absent fields keep the defaults."""
    [given] = checked_fields(doc, ChannelConfig, extra=("mac", "interference", "a_j"))
    for key, cls in (("mac", MacParams), ("interference", InterferenceParams)):
        if key in doc:
            with section(key):
                given[key] = cls(**checked_fields(doc[key], cls)[0])
    if doc.get("a_j") is not None:
        given["rtx_probs"] = checked_numbers(doc["a_j"], "a_j")
    cfg = ChannelConfig(**given)
    with section("interference"):
        channel_rtx_probs(cfg)
    return cfg


def load_channel_config(path: str | Path) -> ChannelConfig:
    return read_json(path, channel_config_from_dict)


def save_channel_config(cfg: ChannelConfig, path: str | Path) -> None:
    write_json(path, channel_config_to_dict(cfg))


def write_outcomes_csv(outcomes: ChannelOutcomes | Sequence[ChannelOutcome], path: str | Path) -> None:
    columns = ChannelOutcomes.from_outcomes(outcomes)
    rows = zip(columns.seq.tolist(), columns.delay_ms.tolist(), columns.rtx.tolist(), columns.cause.tolist())
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seq", "status", "delay_ms", "rtx", "cause"])
        for seq, delay, rtx, cause in rows:
            if cause == DELIVERED:
                writer.writerow([seq, "delivered", repr(delay), rtx, ""])
            else:
                writer.writerow([seq, "lost", "", "", _CAUSES[cause].value])
