"""Deadline-miss recovery over a command stream.

Consumes per-command channel outcomes in slot order. On-time commands pass
through untouched; a late or lost command is replaced according to the active
policy: inject a forecast built from the last executed commands (closed loop),
repeat the previous executed command, or leave the slot empty.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .channel import ChannelOutcome, ChannelOutcomes
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


@dataclass(frozen=True)
class ExecutedStream:
    """One entry per command slot; None marks a slot left empty (drop mode).

    The (H, d) joints array that joints_matrix returns is cached in a
    non-init field: run_recovery hands over the array it filled, any other
    stream builds it from commands on first use. dataclasses.replace starts
    the copy without it.
    """

    commands: tuple[Command | None, ...]
    stats: RecoveryStats
    _joints: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.commands)

    def joints_matrix(self) -> np.ndarray:
        """Joints per slot as a read-only (H, d) float array. An empty slot
        holds the last executed command; leading empty slots hold the first."""
        if self._joints is None:
            self._cache_joints(self._joints_from_commands())
        return self._joints

    def _cache_joints(self, joints: np.ndarray) -> None:
        joints.setflags(write=False)
        object.__setattr__(self, "_joints", joints)

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


def _deadline_ms(period_ms: float, cfg: RecoveryConfig) -> float:
    return period_ms + cfg.tolerance_ms


def replay_deadline(outcome: ChannelOutcome, period_ms: float, cfg: RecoveryConfig) -> bool:
    """True iff the command was delivered within one period plus the tolerance,
    i.e. before the next slot's scheduled deadline. The bound is inclusive."""
    return outcome.delivered and outcome.delay_ms <= _deadline_ms(period_ms, cfg)


def on_time_mask(outcomes: ChannelOutcomes, period_ms: float, cfg: RecoveryConfig) -> np.ndarray:
    """replay_deadline for every outcome at once, as a boolean array."""
    return outcomes.delivered & (outcomes.delay_ms <= _deadline_ms(period_ms, cfg))


def _forecast_step(model: Forecaster, joints: np.ndarray, slots: list, period_ms: float):
    """The forecast for the slot after slots lo..i-1, as step(lo, i) -> row.

    A model with next_row steps on the rows of the joints array; one with
    only predict_next goes through predict on the Commands of those slots.
    """
    next_row = getattr(model, "next_row", None)
    if next_row is not None:
        return lambda lo, i: next_row(joints[lo:i])
    return lambda lo, i: np.array(predict(model, slots[lo:i], period_ms=period_ms).joints, dtype=float)


def run_recovery(
    trace: Trace, outcomes: Sequence[ChannelOutcome], policy: RecoveryPolicy
) -> ExecutedStream:
    """Produce the executed command stream for a trace under given outcomes.

    Slot i is on time iff outcome i meets the replay deadline; then the
    original command is emitted unchanged. Otherwise the policy fills the
    slot. Forecasting needs enough executed history for the model, so early
    losses degrade to repeating the previous command, and to dropping when
    nothing has executed yet. Every emitted command, forecasts included,
    enters the history the next forecasts read from.
    """
    if len(outcomes) != len(trace):
        raise ConfigError(f"{len(outcomes)} outcomes for {len(trace)} commands")
    outcomes = ChannelOutcomes.from_outcomes(outcomes)
    cfg = policy.cfg
    model = policy.model
    period_ms = trace.period_ms
    if policy.mode is PolicyMode.FORECAST:
        if model.dim != trace.dim:
            raise ConfigError(f"model dim {model.dim} does not match trace dim {trace.dim}")
        if model.min_history > cfg.record_len:
            raise ConfigError(
                f"model needs {model.min_history} past commands but the record keeps {cfg.record_len}"
            )

    on_time = on_time_mask(outcomes, period_ms, cfg)
    missed = np.flatnonzero(~on_time).tolist()
    # The first on-time slot is the first executed one: a miss before it
    # finds no history and is dropped. From there on, forecast and
    # repeat-last fill every slot, so the history at slot i is the slots
    # from max(first, i - record_len) up to i. An empty slot's row holds the
    # row before it; the leading ones are set to the first executed row last.
    first = int(np.argmax(on_time)) if on_time.any() else len(trace)
    slots: list[Command | None] = list(trace.samples)
    joints = np.array(trace.joints)
    # Misses before drop_until are dropped, those from forecast_from on are
    # forecast, and the rest repeat the slot before.
    drop_until = len(trace) if policy.mode is PolicyMode.DROP else first
    forecast_from = len(trace)
    if policy.mode is PolicyMode.FORECAST:
        forecast_from = first + model.min_history
        step = _forecast_step(model, joints, slots, period_ms)
        if policy.max_step_per_joint is not None:
            lim = np.array(policy.max_step_per_joint)
            neg_lim = -lim
    forecast = repeated = dropped = 0
    for i in missed:
        cmd = slots[i]
        if i < drop_until:
            slots[i] = None
            joints[i] = joints[i - 1]
            dropped += 1
        elif i >= forecast_from:
            row = step(max(first, i - cfg.record_len), i)
            if policy.max_step_per_joint is not None:
                prev = joints[i - 1]
                row = prev + np.minimum(np.maximum(row - prev, neg_lim), lim)
            joints[i] = row
            slots[i] = Command(cmd.seq, tuple(joints[i].tolist()), cmd.gen_time_us, Provenance.FORECAST)
            forecast += 1
        else:
            slots[i] = Command(cmd.seq, slots[i - 1].joints, cmd.gen_time_us, Provenance.REPEAT_LAST)
            joints[i] = joints[i - 1]
            repeated += 1

    stats = RecoveryStats(len(trace) - len(missed), forecast, repeated, dropped)
    stream = ExecutedStream(tuple(slots), stats)
    if first < len(trace):
        joints[:first] = joints[first]
        stream._cache_joints(joints)
    return stream


def write_executed_csv(stream: ExecutedStream, path: str | Path) -> None:
    """Dump emitted commands as `seq,provenance,j1..jd`; empty slots are omitted."""
    emitted = [c for c in stream.commands if c is not None]
    dim = emitted[0].dim if emitted else 0
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seq", "provenance"] + [f"j{k + 1}" for k in range(dim)])
        for c in emitted:
            writer.writerow([c.seq, c.provenance.value] + [repr(x) for x in c.joints])


def write_stats_json(stream: ExecutedStream, path: str | Path) -> None:
    Path(path).write_text(json.dumps(stream.stats.to_dict(), indent=2) + "\n")
