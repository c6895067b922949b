"""Deadline-miss recovery over a command stream.

Consumes per-command channel outcomes in slot order. On-time commands pass
through untouched; a late or lost command is replaced according to the active
policy: inject a forecast built from the last executed commands (closed loop),
repeat the previous executed command, or leave the slot empty.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
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


class ExecutedCommands(Sequence):
    """The commands of a recovered run, built from its arrays on first access.

    A read-only, tuple-like view over the trace, the run's (H, d) joints and
    its provenance codes: on-time slots are the trace's own Command objects,
    dropped slots None. len() reads the codes only; slicing gives a tuple,
    and a view equals the tuple of its commands.
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

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        return self._commands()[i]

    def __iter__(self):
        return iter(self._commands())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, ExecutedCommands)):
            return self._commands() == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._commands())


@dataclass(frozen=True)
class ExecutedStream:
    """One entry per command slot; None marks a slot left empty (drop mode).

    run_recovery hands over its commands as an ExecutedCommands view and
    caches the arrays it filled, the (H, d) joints, the (H,) provenance
    codes and the seq of slot 0, in the non-init fields that joints_matrix,
    codes and seq0 return; any other stream builds them from commands on
    first use. dataclasses.replace starts the copy without them.
    """

    commands: Sequence[Command | None]
    stats: RecoveryStats
    _joints: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _codes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _seq0: int | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.commands)

    def joints_matrix(self) -> np.ndarray:
        """Joints per slot as a read-only (H, d) float array. An empty slot
        holds the last executed command; leading empty slots hold the first."""
        if self._joints is None:
            self._cache(joints=self._joints_from_commands())
        return self._joints

    def codes(self) -> np.ndarray:
        """Provenance per slot as a read-only (H,) int8 array: 0 original,
        1 forecast, 2 repeat-last, 3 empty."""
        if self._codes is None:
            codes = [_DROPPED if c is None else _PROVENANCE.index(c.provenance) for c in self.commands]
            self._cache(codes=np.array(codes, dtype=np.int8))
        return self._codes

    @property
    def seq0(self) -> int:
        """The seq of slot 0 (0 for a stream with no executed command)."""
        if self._seq0 is None:
            i = next((i for i, c in enumerate(self.commands) if c is not None), None)
            self._cache(seq0=0 if i is None else self.commands[i].seq - i)
        return self._seq0

    def _cache(self, **values) -> None:
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, "_" + name, value)

    def _joints_from_commands(self) -> np.ndarray:
        executed = [c.joints for c in self.commands if c is not None]
        if not executed:
            raise ConfigError("stream has no executed commands")
        rows = []
        last = executed[0]
        for c in self.commands:
            if c is not None:
                last = c.joints
            rows.append(last)
        return np.array(rows, dtype=float)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The executed runs of a trace for an (R, H) mask of the slots whose
    command met the replay deadline in each of R runs (see on_time_mask):
    the (R, H, d) joints, the (R, H) int8 provenance codes (0 original,
    1 forecast, 2 repeat-last, 3 empty) and the (R, 4) slot counts per code.

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
    n_runs = len(on_time)
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

    counts = np.bincount((codes + 4 * np.arange(n_runs)[:, None]).ravel(), minlength=4 * n_runs)
    return joints, codes, counts.reshape(n_runs, 4)


def run_recovery(
    trace: Trace, outcomes: Sequence[ChannelOutcome], policy: RecoveryPolicy
) -> ExecutedStream:
    """The executed stream of a trace under one run of channel outcomes:
    run_recoveries for the run's on_time_mask."""
    columns = ChannelOutcomes.from_outcomes(outcomes)
    if len(columns) != len(trace):
        raise ConfigError(f"{len(columns)} outcomes for {len(trace)} commands")
    on_time = on_time_mask(columns, trace.period_ms, policy.cfg)
    joints, codes, counts = run_recoveries(trace, on_time[None], policy)
    stream = ExecutedStream(ExecutedCommands(trace, joints[0], codes[0]), RecoveryStats(*counts[0].tolist()))
    stream._cache(codes=codes[0], seq0=trace.seq0)
    if on_time.any():
        stream._cache(joints=joints[0])
    return stream


def write_executed_csv(stream: ExecutedStream, path: str | Path) -> None:
    """Dump emitted commands as `seq,provenance,j1..jd`, joints in repr;
    empty slots are omitted."""
    codes = stream.codes()
    emitted = np.flatnonzero(codes != _DROPPED)
    rows = stream.joints_matrix()[emitted].tolist() if emitted.size else []
    dim = len(rows[0]) if rows else 0
    names = [p.value for p in _PROVENANCE]
    line = "%d,%s" + ",%r" * dim + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(["seq", "provenance"] + [f"j{k + 1}" for k in range(dim)]) + "\r\n")
        fh.writelines(
            line % (stream.seq0 + i, names[code], *row)
            for i, code, row in zip(emitted.tolist(), codes[emitted].tolist(), rows)
        )


def write_stats_json(stream: ExecutedStream, path: str | Path) -> None:
    Path(path).write_text(json.dumps(stream.stats.to_dict(), indent=2) + "\n")
