"""Deadline-miss recovery over a command stream.

Consumes per-command channel outcomes in slot order. On-time commands pass
through untouched; a late or lost command is replaced according to the active
policy: inject a forecast built from the last executed commands (closed loop),
repeat the previous executed command, or leave the slot empty.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelOutcome, ChannelOutcomes, ChannelRuns
from .core import Command, Provenance, RecoveryConfig, Trace
from .errors import ConfigError
from .forecasting import Forecaster, predict


class PolicyMode(enum.Enum):
    FORECAST = "forecast"
    REPEAT_LAST = "repeat-last"
    DROP = "drop"


@dataclass(frozen=True)
class RecoveryPolicy:
    """Recovery behavior for a missed slot.

    max_step_per_joint, when set, caps how far an injected forecast may move
    each joint from the previously executed command, mirroring the velocity
    limits a robot driver enforces on incoming commands. It never touches
    on-time commands.
    """

    mode: PolicyMode
    cfg: RecoveryConfig = RecoveryConfig()
    model: Forecaster | None = None
    max_step_per_joint: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode is PolicyMode.FORECAST and self.model is None:
            raise ConfigError("forecast mode needs a model")
        if self.max_step_per_joint is not None:
            limits = tuple(float(x) for x in self.max_step_per_joint)
            if not all(limit > 0 for limit in limits):
                raise ConfigError("step limits must be positive")
            object.__setattr__(self, "max_step_per_joint", limits)

    @property
    def label(self) -> str:
        return self.mode.value


def step_limit_from_trace(trace: Trace, margin: float = 1.5) -> tuple[float, ...]:
    """Per-joint injection step limit: the largest one-period joint move seen
    in a reference trace, scaled by a safety margin."""
    values = trace.joints_matrix()
    peak = np.max(np.abs(np.diff(values, axis=0)), axis=0)
    return tuple(float(margin * max(p, 1e-9)) for p in peak)


@dataclass(frozen=True)
class RecoveryStats:
    on_time: int = 0
    forecast: int = 0
    repeated: int = 0
    dropped: int = 0

    @property
    def total(self) -> int:
        return self.on_time + self.forecast + self.repeated + self.dropped

    def to_dict(self) -> dict:
        return {
            "on_time": self.on_time,
            "forecast": self.forecast,
            "repeated": self.repeated,
            "dropped": self.dropped,
            "total": self.total,
        }


# Provenance codes of a recovered run, one int8 per slot: the index of the
# slot's provenance in _PROVENANCE, or _DROPPED for an empty slot.
_ORIGINAL, _FORECAST, _REPEATED, _DROPPED = range(4)
_PROVENANCE = (Provenance.ORIGINAL, Provenance.FORECAST, Provenance.REPEAT_LAST)


class ExecutedCommands:
    """The commands of a recovered run, built from its arrays on first
    iteration.

    An iterable view over the trace, the run's (H, d) joints and its
    provenance codes: on-time slots are the trace's own Command objects,
    dropped slots None. It has no length, indexing or equality; read slots
    from the stream's joints and codes.
    """

    __slots__ = ("_trace", "_joints", "_codes", "_built")

    def __init__(self, trace: Trace, joints: np.ndarray, codes: np.ndarray):
        self._trace = trace
        self._joints = joints
        self._codes = codes
        self._built: tuple[Command | None, ...] | None = None

    def _commands(self) -> tuple[Command | None, ...]:
        if self._built is None:
            slots: list[Command | None] = list(self._trace.samples)
            missed = np.flatnonzero(self._codes != _ORIGINAL)
            rows = self._joints[missed].tolist()
            for i, code, row in zip(missed.tolist(), self._codes[missed].tolist(), rows):
                sent = slots[i]
                if code == _DROPPED:
                    slots[i] = None
                elif code == _REPEATED:
                    slots[i] = Command(sent.seq, slots[i - 1].joints, sent.gen_time_us, Provenance.REPEAT_LAST)
                else:
                    slots[i] = Command(sent.seq, tuple(row), sent.gen_time_us, Provenance.FORECAST)
            self._built = tuple(slots)
        return self._built

    def __iter__(self):
        return iter(self._commands())


@dataclass(frozen=True, eq=False)
class ExecutedStream:
    """One recovered run: its commands, one entry per slot with None for an
    empty slot, its stats, the (H, d) joints per slot (an empty slot holds
    the last executed row, leading empty slots the first), the (H,) int8
    provenance codes (0 original, 1 forecast, 2 repeat-last, 3 empty) and
    the seq of slot 0. The arrays are read-only views. Streams compare by
    identity; compare their joints and codes instead.
    """

    commands: Iterable[Command | None]
    stats: RecoveryStats
    joints: np.ndarray
    codes: np.ndarray
    seq0: int

    def __post_init__(self):
        for name in ("joints", "codes"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.codes)

    def joints_matrix(self) -> np.ndarray:
        """The joints; ConfigError for a run with no executed slot."""
        if np.all(self.codes == _DROPPED):
            raise ConfigError("stream has no executed commands")
        return self.joints


def replay_deadline(outcome: ChannelOutcome, period_ms: float, cfg: RecoveryConfig) -> bool:
    """True iff the command was delivered within one period plus the tolerance,
    i.e. before the next slot's scheduled deadline. The bound is inclusive."""
    return outcome.delivered and outcome.delay_ms <= period_ms + cfg.tolerance_ms


def on_time_mask(outcomes: ChannelOutcomes | ChannelRuns, period_ms: float, cfg: RecoveryConfig) -> np.ndarray:
    """replay_deadline for every outcome at once, as a boolean array of the
    columns' shape: (H,) for one run, (R, H) for ChannelRuns."""
    return outcomes.delivered & (outcomes.delay_ms <= period_ms + cfg.tolerance_ms)


def _predict_step(model: Forecaster, trace: Trace, joints: np.ndarray, codes: np.ndarray,
                  first: np.ndarray, record_len: int):
    """The forecast step for a model with only predict_next: the rows after
    flat slots r * H + i, each through predict on the Commands of slots
    max(first[r], i - record_len) .. i-1, provenance from the codes."""
    samples = trace.samples
    n_slots = len(trace)

    def command(r: int, j: int) -> Command:
        sent = samples[j]
        code = int(codes[r, j])
        if code == _ORIGINAL:
            return sent
        return Command(sent.seq, tuple(joints[r, j].tolist()), sent.gen_time_us, _PROVENANCE[code])

    def step(flat: np.ndarray) -> np.ndarray:
        rows = []
        for r, i in zip(*(a.tolist() for a in np.divmod(flat, n_slots))):
            history = [command(r, j) for j in range(max(int(first[r]), i - record_len), i)]
            rows.append(predict(model, history, period_ms=trace.period_ms).joints)
        return np.array(rows, dtype=float)

    return step


def _forecast_levels(forecast: np.ndarray, record_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The forecast slots of an (R, H) mask as flat indices r * H + i, sorted
    by level, and the end of each level in that order.

    A cluster is a run of forecast slots of one repetition, each at most
    record_len after the previous one; a slot's level is its position in its
    cluster. A forecast reads only the record_len slots before it, so every
    slot it depends on sits at a lower level.
    """
    rep, slot = np.nonzero(forecast)
    n = len(slot)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (np.diff(slot) > record_len) | (np.diff(rep) != 0)
    position = np.arange(n)
    level = position - np.maximum.accumulate(np.where(starts, position, 0))
    order = np.argsort(level, kind="stable")
    flat = rep[order] * forecast.shape[1] + slot[order]
    return flat, np.cumsum(np.bincount(level))


def run_recoveries(
    trace: Trace, on_time: np.ndarray, policy: RecoveryPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """The executed runs of a trace for an (R, H) mask of the slots whose
    command met the replay deadline in each of R runs (see on_time_mask):
    the (R, H, d) joints and the (R, H) int8 provenance codes (0 original,
    1 forecast, 2 repeat-last, 3 empty).

    An on-time slot holds the original command unchanged. Otherwise the
    policy fills the slot. Forecasting needs enough executed history for the
    model, so early losses degrade to repeating the previous command, and to
    dropping when nothing has executed yet. Every emitted command, forecasts
    included, enters the history the next forecasts read from. An empty slot
    holds the last executed row; leading empty slots hold the first, and a
    run with no executed slot holds the trace's last row.

    All runs are recovered at once: repeat-last and drop are one forward
    fill over the (R, H) slots, and the forecasts run level by level (see
    _forecast_levels), each level over all runs as one next_rows step.
    """
    n_slots = len(trace)
    on_time = np.asarray(on_time, dtype=bool)
    if on_time.ndim != 2 or on_time.shape[1] != n_slots:
        raise ConfigError(f"on-time mask of shape {on_time.shape} for {n_slots} commands")
    cfg = policy.cfg
    model = policy.model
    limits = policy.max_step_per_joint
    if policy.mode is PolicyMode.FORECAST:
        if model.dim != trace.dim:
            raise ConfigError(f"model dim {model.dim} does not match trace dim {trace.dim}")
        if limits is not None and len(limits) != trace.dim:
            raise ConfigError(f"{len(limits)} step limits for a trace of {trace.dim} joints")
        if model.min_history > cfg.record_len:
            raise ConfigError(
                f"model needs {model.min_history} past commands but the record keeps {cfg.record_len}"
            )

    # The first on-time slot is the first executed one: a miss before it
    # finds no history and is dropped. From there on, forecast and
    # repeat-last fill every slot, so the history at slot i is the slots
    # from max(first, i - record_len) up to i. Misses before drop_until are
    # dropped, those from forecast_from on are forecast, and the rest repeat
    # the slot before.
    first = np.where(on_time.any(axis=1), np.argmax(on_time, axis=1), n_slots)
    drop_until = np.full_like(first, n_slots) if policy.mode is PolicyMode.DROP else first
    forecast_from = np.full_like(first, n_slots)
    if policy.mode is PolicyMode.FORECAST:
        forecast_from = first + model.min_history
    slot = np.arange(n_slots)
    codes = np.where(
        slot < drop_until[:, None], _DROPPED, np.where(slot >= forecast_from[:, None], _FORECAST, _REPEATED)
    ).astype(np.int8)
    codes[on_time] = _ORIGINAL

    # An empty or repeated slot holds the last on-time row; the leading ones
    # hold the first executed row.
    held = np.maximum.accumulate(np.where(on_time, slot, -1), axis=1)
    joints = np.take(trace.joints, np.minimum(np.maximum(held, first[:, None]), n_slots - 1), axis=0)

    forecast = codes == _FORECAST
    if forecast.any():
        flat, ends = _forecast_levels(forecast, cfg.record_len)
        rows_of = joints.reshape(-1, trace.dim)
        if hasattr(model, "next_rows"):
            window = flat[:, None] + np.arange(-model.min_history, 0)

            def step(lo: int, hi: int) -> np.ndarray:
                return model.next_rows(np.take(rows_of, window[lo:hi], axis=0))
        else:
            by_predict = _predict_step(model, trace, joints, codes, first, cfg.record_len)

            def step(lo: int, hi: int) -> np.ndarray:
                return by_predict(flat[lo:hi])
        if limits is not None:
            lim = np.array(limits)
            neg_lim = -lim
        lo = 0
        for hi in ends.tolist():
            rows = step(lo, hi)
            if limits is not None:
                prev = rows_of[flat[lo:hi] - 1]
                rows = prev + np.minimum(np.maximum(rows - prev, neg_lim), lim)
            rows_of[flat[lo:hi]] = rows
            lo = hi

    return joints, codes


def run_recovery(
    trace: Trace, outcomes: ChannelOutcomes | Sequence[ChannelOutcome], policy: RecoveryPolicy
) -> ExecutedStream:
    """The executed stream of a trace under one run of channel outcomes:
    run_recoveries for the run's on_time_mask."""
    columns = ChannelOutcomes.from_outcomes(outcomes)
    if len(columns) != len(trace):
        raise ConfigError(f"{len(columns)} outcomes for {len(trace)} commands")
    on_time = on_time_mask(columns, trace.period_ms, policy.cfg)
    [joints], [codes] = run_recoveries(trace, on_time[None], policy)
    stats = RecoveryStats(*np.bincount(codes, minlength=4).tolist())
    return ExecutedStream(ExecutedCommands(trace, joints, codes), stats, joints, codes, trace.seq0)


def write_executed_csv(stream: ExecutedStream, path: str | Path) -> None:
    """Dump emitted commands as `seq,provenance,j1..jd`, joints in repr;
    empty slots are omitted."""
    codes = stream.codes
    emitted = np.flatnonzero(codes != _DROPPED)
    rows = stream.joints[emitted].tolist()
    dim = len(rows[0]) if rows else 0
    names = [p.value for p in _PROVENANCE]
    line = "%d,%s" + ",%r" * dim + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(["seq", "provenance"] + [f"j{k + 1}" for k in range(dim)]) + "\r\n")
        fh.writelines(
            line % (stream.seq0 + i, names[code], *row)
            for i, code, row in zip(emitted.tolist(), codes[emitted].tolist(), rows)
        )
