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
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .channel import ChannelOutcome
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
            if min(limits) <= 0:
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
    """One entry per command slot; None marks a slot left empty (drop mode)."""

    commands: tuple[Command | None, ...]
    stats: RecoveryStats

    def __len__(self) -> int:
        return len(self.commands)

    def joints_matrix(self) -> np.ndarray:
        """Joints per slot as an (H, d) float array. An empty slot holds the
        last executed command; leading empty slots hold the first one."""
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
                action = PolicyMode.REPEAT_LAST  # not enough history yet
            if action is PolicyMode.FORECAST:
                predicted = predict(model, list(history), period_ms=period_ms)
                joints = predicted.joints
                if policy.max_step_per_joint is not None:
                    prev = history[-1].joints
                    joints = tuple(
                        p + min(max(j - p, -lim), lim)
                        for j, p, lim in zip(joints, prev, policy.max_step_per_joint)
                    )
                executed = replace(
                    predicted, seq=cmd.seq, gen_time_us=cmd.gen_time_us, joints=joints
                )
                forecast += 1
            elif action is PolicyMode.REPEAT_LAST and history:
                executed = Command(
                    seq=cmd.seq,
                    joints=history[-1].joints,
                    gen_time_us=cmd.gen_time_us,
                    provenance=Provenance.REPEAT_LAST,
                )
                repeated += 1
            else:
                executed = None
                dropped += 1
        slots.append(executed)
        if executed is not None:
            history.append(executed)

    stats = RecoveryStats(on_time, forecast, repeated, dropped)
    return ExecutedStream(tuple(slots), stats)


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
