"""Trajectory-error metrics, controlled loss bursts and the interference sweep.

The sweep crosses interferer probability, interferer duration, and station
count; every cell runs the channel simulation a fixed number of times and
feeds the identical outcomes to each recovery policy, so policies are
compared on exactly the same losses.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

# The sweep runs the channel, recovery and scoring as batches of arrays.
# simulate_channel, run_recovery and rmse stay bound here although it no
# longer calls them, because perfbench's tracer wraps them in this module.
from .channel import (  # noqa: F401
    DELIVERED,
    RTX_EXCEEDED,
    ChannelConfig,
    ChannelOutcomes,
    InterferenceParams,
    simulate_channel,
    simulate_channels,
)
from .core import Trace
from .errors import ConfigError
from .recovery import ExecutedStream, RecoveryPolicy, on_time_mask, run_recoveries, run_recovery  # noqa: F401

CellKey = tuple[int, float, float]  # (robot count, interferer prob, duration slots)


# ---------------------------------------------------------------------------
# Error metric

def rmse(executed: Trace | ExecutedStream, reference: Trace | ExecutedStream) -> float:
    """Root mean squared joint-space error between two command streams.

    Per slot the error is the squared euclidean distance across joints; the
    mean runs over all slots. Empty slots (drop mode) are held at the last
    executed command. Symmetric in its arguments.
    """
    a = executed.joints_matrix()
    b = reference.joints_matrix()
    if a.shape != b.shape:
        raise ConfigError(f"stream shapes differ: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


# ---------------------------------------------------------------------------
# Controlled-loss experiments

# Delivered slots kept between two controlled loss bursts.
BURST_GAP = 20


def controlled_loss_outcomes(
    trace: Trace, burst_len: int, n_bursts: int, seed: int, min_start: int = 0
) -> ChannelOutcomes:
    """Outcomes with every command on time except seeded bursts of
    consecutive losses, mimicking a controller that drops runs of commands.

    Bursts start at or after min_start, are placed uniformly at random, and
    keep at least BURST_GAP delivered slots between them so each loss event
    is entered with a record refilled by real commands.
    """
    n = len(trace)
    if burst_len < 1 or n_bursts < 1:
        raise ConfigError("burst length and count must be >= 1")
    spacing = burst_len + BURST_GAP
    if min_start + n_bursts * spacing > n:
        raise ConfigError("trace too short for the requested bursts")
    rng = np.random.default_rng(seed)
    starts: list[int] = []
    attempts = 0
    while len(starts) < n_bursts:
        attempts += 1
        if attempts > 10_000:
            raise ConfigError("could not place non-overlapping bursts; reduce count or length")
        s = int(rng.integers(min_start, n - burst_len + 1))
        if all(s + spacing <= t or t + spacing <= s for t in starts):
            starts.append(s)
    lost = np.zeros(n, dtype=bool)
    for s in starts:
        lost[s : s + burst_len] = True
    on_time = np.where(lost, math.nan, 0.0)
    return ChannelOutcomes(
        np.arange(trace.seq0, trace.seq0 + n),
        ~lost,
        on_time,
        np.where(lost, -1, 0),
        on_time,
        np.where(lost, RTX_EXCEEDED, DELIVERED).astype(np.int8),
    )


# ---------------------------------------------------------------------------
# Interference sweep

@dataclass(frozen=True)
class SweepGrid:
    probs: tuple[float, ...]
    durations: tuple[float, ...]
    robot_counts: tuple[int, ...]
    repetitions: int = 40
    master_seed: int = 0

    def __post_init__(self):
        for name in ("probs", "durations", "robot_counts"):
            value = tuple(getattr(self, name))
            object.__setattr__(self, name, value)
            if not value or len(set(value)) != len(value):
                raise ConfigError(f"sweep axis {name} must be non-empty with distinct values, got {list(value)}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")

    def cells(self) -> list[CellKey]:
        return list(itertools.product(self.robot_counts, self.probs, self.durations))


def default_grid(
    repetitions: int = SweepGrid.repetitions, master_seed: int = SweepGrid.master_seed
) -> SweepGrid:
    return SweepGrid(
        probs=tuple(round(0.1 * i, 1) for i in range(10)),
        durations=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
        robot_counts=(5, 15, 25),
        repetitions=repetitions,
        master_seed=master_seed,
    )


# A cell whose baseline mean error is at or below this (rad) carries no
# material loss: both policies sit at the noise floor, and their quotient is a
# 0/0 artifact that the worst-cell ratio should skip.
MATERIAL_ERROR_FLOOR = 1e-3


@dataclass
class SweepResult:
    grid: SweepGrid
    policies: tuple[str, ...]
    cells: dict[CellKey, dict[str, list[float]]]

    def mean(self, key: CellKey, policy: str) -> float:
        return float(np.mean(self.cells[key][policy]))

    def worst_cell_ratio(self, numerator: str, denominator: str, min_denominator: float = 0.0) -> float | None:
        """Largest per-cell mean-error ratio, or None when no cell qualifies.

        Cells where the denominator policy's mean error is at or below
        min_denominator are skipped: with no material losses both policies
        sit at the noise floor and their quotient is a 0/0 artifact.
        """
        ratios = [
            self.mean(key, numerator) / den
            for key in self.cells
            if (den := self.mean(key, denominator)) > min_denominator
        ]
        return max(ratios, default=None)

    def peak_ratio(self, numerator: str, denominator: str) -> float:
        """Ratio of the two policies' worst cells (each policy's own maximum
        mean error), the headline figure for heatmap comparisons."""
        peak_num = max(self.mean(key, numerator) for key in self.cells)
        peak_den = max(self.mean(key, denominator) for key in self.cells)
        if peak_den == 0:
            raise ConfigError("denominator policy has zero error everywhere")
        return peak_num / peak_den

    def to_dict(self) -> dict:
        return {
            "probs": list(self.grid.probs),
            "durations": list(self.grid.durations),
            "robot_counts": list(self.grid.robot_counts),
            "repetitions": self.grid.repetitions,
            "master_seed": self.grid.master_seed,
            "policies": list(self.policies),
            "cells": [
                {
                    "robots": key[0],
                    "prob": key[1],
                    "duration": key[2],
                    "rmse": {
                        policy: {"mean": float(np.mean(vals)), "values": vals}
                        for policy, vals in self.cells[key].items()
                    },
                }
                for key in self.grid.cells()
            ],
        }

    def write_matrices(self, out_dir: str | Path) -> list[Path]:
        """One CSV per (policy, robot count): mean error with interferer
        probabilities as rows and durations as columns."""
        out_dir = Path(out_dir)
        written = []
        for policy in self.policies:
            for robots in self.grid.robot_counts:
                path = out_dir / f"rmse_{policy}_{robots}.csv"
                with path.open("w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["prob"] + [str(d) for d in self.grid.durations])
                    for p in self.grid.probs:
                        row = [str(p)] + [
                            repr(self.mean((robots, p, d), policy)) for d in self.grid.durations
                        ]
                        writer.writerow(row)
                written.append(path)
        return written


def _task_seed(master_seed: int, cell_index: int, rep: int) -> int:
    seq = np.random.SeedSequence([master_seed, cell_index, rep])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _cell_interference(template: ChannelConfig, key: CellKey) -> InterferenceParams:
    """A cell's interference: the template's, with the cell's station count,
    interferer probability and duration."""
    robots, prob, duration = key
    return replace(template.interference, p_if=prob, t_if_slots=duration, n_stations=robots)


# A batch of cells holds at most this many (run, slot) rows, about one
# 40-repetition cell of a 1,500-command trace; a larger cell is a batch alone.
_BATCH_SLOTS = 1 << 16


def _run_errors(trace: Trace, joints: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """rmse(stream, trace) for each of the R executed runs of
    run_recoveries' (R, H, d) joints and (R, H) codes, bit for bit.

    An original slot (code 0) holds the trace row, so its squared error is
    exactly 0.0: only the other slots are squared and summed as rmse sums
    them, and the per-run mean and root are taken over all slots at once.
    """
    missed = codes != 0
    if missed.all(axis=1).any():
        raise ConfigError("stream has no executed commands")
    flat = np.flatnonzero(missed)
    diff = joints.reshape(-1, trace.dim)[flat] - trace.joints[flat % len(trace)]
    squared = np.zeros(codes.size)
    squared[flat] = np.sum(diff * diff, axis=1)
    return np.sqrt(np.mean(squared.reshape(codes.shape), axis=1))


def _run_cells(
    trace: Trace,
    template: ChannelConfig,
    policies: Sequence[RecoveryPolicy],
    grid: SweepGrid,
    batches: Sequence[Sequence[int]],
) -> list[dict[str, list[float]]]:
    """Every repetition of the cells of each batch of cell indices, batch
    by batch: per cell, the error of each policy in repetition order, on one
    channel run seeded per repetition.

    A batch is one pipeline of (run, slot) arrays: simulate_channels
    draws every run from its own seed and returns the runs' outcomes
    together; then, per policy, on_time_mask, run_recoveries and
    _run_errors each take the whole batch. Each run's recovery and error
    are its own, so a cell's values do not depend on the batch it is in.
    The executed joints of every batch and policy are written into one
    (run, slot, joint) array sized for the largest batch, so a call
    allocates that array once instead of once per batch and policy."""
    keys = grid.cells()
    reps = grid.repetitions
    out = np.empty((max(map(len, batches)) * reps * len(trace), trace.dim))
    cells = []
    for indices in batches:
        runs = simulate_channels(
            trace,
            template,
            [_cell_interference(template, keys[index]) for index in indices],
            [[_task_seed(grid.master_seed, index, rep) for rep in range(reps)] for index in indices],
        )
        errors = {}
        for policy in policies:
            on_time = on_time_mask(runs, trace.period_ms, policy.cfg)
            joints = out[: on_time.size].reshape(*on_time.shape, trace.dim)
            _, codes = run_recoveries(trace, on_time, policy, joints)
            errors[policy.label] = _run_errors(trace, joints, codes).tolist()
        cells += [
            {label: values[k * reps : (k + 1) * reps] for label, values in errors.items()}
            for k in range(len(indices))
        ]
    return cells


def _batches(n_cells: int, cell_slots: int, jobs: int) -> list[range]:
    """Contiguous runs of cell indices, each as many whole cells as fit in
    _BATCH_SLOTS rows (one when a cell alone is larger). With jobs > 1 a
    batch holds at most n_cells // jobs cells, so that there are at least
    min(jobs, n_cells) batches and no worker is left idle."""
    size = max(1, _BATCH_SLOTS // cell_slots)
    if jobs > 1:
        size = max(1, min(size, n_cells // jobs))
    return [range(lo, min(lo + size, n_cells)) for lo in range(0, n_cells, size)]


_WORKER_CTX: tuple | None = None


def _init_worker(*ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_task(indices: range) -> list[dict[str, list[float]]]:
    return _run_cells(*_WORKER_CTX, [indices])


def run_sweep(
    trace: Trace,
    grid: SweepGrid,
    channel_template: ChannelConfig,
    policies: Sequence[RecoveryPolicy],
    jobs: int = 1,
) -> SweepResult:
    """Run the full interference sweep, one task per batch of cells.

    A batch is a contiguous run of cells whose repetitions together hold
    about _BATCH_SLOTS (run, slot) rows; with jobs > 1 the cells are split
    into at least min(jobs, cells) batches. Every repetition of every cell
    derives its own seed from (master seed, cell index, repetition) and is
    drawn from it alone; a batch is then simulated, recovered and scored as
    (run, slot) arrays (see _run_cells). Results are reproducible and
    independent of batching and worker scheduling; all policies see
    identical channel outcomes.
    """
    labels = [p.label for p in policies]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"policy labels must be unique, got {labels}")
    cells = grid.cells()
    batches = _batches(len(cells), grid.repetitions * len(trace), jobs)
    ctx = (trace, channel_template, policies, grid)
    if jobs > 1:
        # Imported here: multiprocessing is a sizeable share of `import
        # foreco`, and only the parallel path needs it.
        from concurrent.futures import ProcessPoolExecutor

        # The initializer ships the trace and policies once per worker.
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(batches)), initializer=_init_worker, initargs=ctx
        ) as pool:
            results = list(pool.map(_worker_task, batches))
    else:
        results = [_run_cells(*ctx, batches)]
    return SweepResult(grid, tuple(labels), dict(zip(cells, itertools.chain.from_iterable(results))))
