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
from .core import RecoveryConfig, Trace
from .errors import ConfigError
from .recovery import ExecutedStream, RecoveryPolicy, held_sources, on_time_mask, run_recoveries, run_recovery  # noqa: F401

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

# The InterferenceParams field each grid axis sets, in a cell key's order.
GRID_AXES = (("robot_counts", "n_stations"), ("probs", "p_if"), ("durations", "t_if_slots"))


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
        return list(itertools.product(*(getattr(self, axis) for axis, _ in GRID_AXES)))


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
    """Each cell's error per policy, one value per repetition in repetition
    order; NaN marks a repetition that executed no command."""

    grid: SweepGrid
    policies: tuple[str, ...]
    cells: dict[CellKey, dict[str, list[float]]]

    def mean(self, key: CellKey, policy: str) -> float:
        """Mean over the cell's repetitions that executed a command; NaN
        when none did."""
        values = [v for v in self.cells[key][policy] if not math.isnan(v)]
        return float(np.mean(values)) if values else math.nan

    def worst_cell_ratio(self, numerator: str, denominator: str, min_denominator: float = 0.0) -> float | None:
        """Largest per-cell mean-error ratio, or None when no cell qualifies.

        Cells where the denominator policy's mean error is at or below
        min_denominator are skipped: with no material losses both policies
        sit at the noise floor and their quotient is a 0/0 artifact. Cells
        where either policy has no mean are skipped too.
        """
        ratios = [
            num / den
            for key in self.cells
            if (den := self.mean(key, denominator)) > min_denominator
            and not math.isnan(num := self.mean(key, numerator))
        ]
        return max(ratios, default=None)

    def peak_ratio(self, numerator: str, denominator: str) -> float:
        """Ratio of the two policies' worst cells (each policy's own maximum
        mean error), the headline figure for heatmap comparisons. Cells with
        no mean are skipped; NaN when a policy has no mean in any cell."""
        peak_num, peak_den = (
            max((m for key in self.cells if not math.isnan(m := self.mean(key, policy))), default=math.nan)
            for policy in (numerator, denominator)
        )
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
                        policy: {
                            "mean": None if math.isnan(mean := self.mean(key, policy)) else mean,
                            "values": [None if math.isnan(v) else v for v in vals],
                        }
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
    """A cell's interference: the template's, with the field of each grid
    axis set to the cell's value on it."""
    return replace(template.interference, **{name: value for (_, name), value in zip(GRID_AXES, key)})


# sweep_result.json holds repetitions x cells x policies RMSE values. Each is
# a Python float in memory (32 bytes with its list slot) and about 36 bytes
# of indented JSON text, which json.dumps builds whole before writing. At
# 2**27 values the two pass 8 GiB, so a sweep asking for more cannot fit.
_MAX_RESULT_VALUES = 1 << 27


def check_result_size(grid: SweepGrid, n_policies: int) -> None:
    """ConfigError naming repetitions unless the grid's values for
    n_policies policies fit in a sweep result; builds no cell."""
    n_cells = math.prod(len(getattr(grid, axis)) for axis, _ in GRID_AXES)
    values = grid.repetitions * n_cells * n_policies
    if values > _MAX_RESULT_VALUES:
        raise ConfigError(
            f"repetitions: {grid.repetitions} x {n_cells} cells x {n_policies} policies "
            f"is {values} result values, more than the {_MAX_RESULT_VALUES} a sweep result can hold"
        )


# A batch holds at most this many (run, slot) rows, that is 43 runs of a
# 1,500-command trace; a run longer than that is a batch alone.
_BATCH_SLOTS = 1 << 16
# A recovery range holds at most this many (run, slot) rows of whole
# batches, or one batch: 8 batches of 43 runs of a 1,500-command trace.
_RANGE_SLOTS = 1 << 19


def _run_errors(trace: Trace, table: np.ndarray, src: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """rmse(stream, trace) for each of the R runs of run_recoveries' table,
    (R, H) sources and (R, H) codes, bit for bit, and NaN for a run with no
    on-time slot, which executes no command.

    An original slot (code 0) holds the trace row, so its squared error is
    exactly 0.0: only the other slots are read from the table, squared and
    summed as rmse sums them, and the per-run mean and root are taken over
    all slots of a block of runs at once. A block holds at most
    _BATCH_SLOTS (run, slot) rows, which bounds the arrays of its missed
    slots.
    """
    n_slots = codes.shape[1]
    step = max(1, _BATCH_SLOTS // n_slots)
    errors = np.empty(len(codes))
    for lo in range(0, len(codes), step):
        block = codes[lo : lo + step]
        missed = block != 0
        flat = np.flatnonzero(missed)
        diff = np.take(table, np.take(src[lo : lo + step], flat), axis=0)
        diff -= np.take(trace.joints, flat % n_slots, axis=0)
        diff *= diff
        squared = np.zeros(block.size)
        squared[flat] = np.sum(diff, axis=1)
        block_errors = errors[lo : lo + step]
        block_errors[...] = np.sqrt(np.mean(squared.reshape(block.shape), axis=1))
        block_errors[missed.all(axis=1)] = math.nan
    return errors


def _recovery_ranges(batches: Sequence[range], n_slots: int) -> list[list[range]]:
    """The batches cut in order into groups of at most _RANGE_SLOTS (run,
    slot) rows, a batch larger than that being a group alone."""
    groups: list[list[range]] = []
    rows = 0
    for runs in batches:
        if not groups or rows + len(runs) * n_slots > _RANGE_SLOTS:
            groups.append([])
            rows = 0
        groups[-1].append(runs)
        rows += len(runs) * n_slots
    return groups


def _range_masks(
    trace: Trace,
    template: ChannelConfig,
    cfgs: Sequence[RecoveryConfig],
    grid: SweepGrid,
    batches: Sequence[range],
) -> list[np.ndarray]:
    """The (runs, slots) on-time mask of the runs of the batches under each
    of cfgs, from one simulate_channels call per batch; each batch's
    channel arrays are dropped once its masks are taken."""
    keys = grid.cells()
    reps = grid.repetitions
    n_runs = sum(map(len, batches))
    masks = [np.empty((n_runs, len(trace)), dtype=bool) for _ in cfgs]
    row = 0
    for runs in batches:
        # one InterferenceParams per cell, shared by the cell's runs
        interference = {c: _cell_interference(template, keys[c]) for c in {r // reps for r in runs}}
        channel_runs = simulate_channels(
            trace,
            template,
            [interference[r // reps] for r in runs],
            [_task_seed(grid.master_seed, *divmod(r, reps)) for r in runs],
        )
        for mask, cfg in zip(masks, cfgs):
            mask[row : row + len(runs)] = on_time_mask(channel_runs, trace.period_ms, cfg)
        row += len(runs)
        del channel_runs  # before the next batch is simulated
    return masks


def _run_batches(
    trace: Trace,
    template: ChannelConfig,
    policies: Sequence[RecoveryPolicy],
    grid: SweepGrid,
    batches: Sequence[range],
) -> np.ndarray:
    """The (policy, run) errors of the runs of each batch (numbered as in
    run_sweep), in the order of the batches.

    Consecutive batches form a recovery range (_recovery_ranges). A range
    keeps only the on-time masks of its batches' channel runs, one per
    distinct tolerance_ms (_range_masks). Per mask, one held_sources pass
    serves every policy, and per policy one run_recoveries call, with one
    forecast level loop, and one _run_errors call cover the whole range.
    Each run's draws, queue, recovery and error are its own, so its values
    do not depend on the batch or range it is in."""
    # the policies of each distinct tolerance, which share its mask
    sharing: dict[float, list[int]] = {}
    for k, policy in enumerate(policies):
        sharing.setdefault(policy.cfg.tolerance_ms, []).append(k)
    errors = np.empty((len(policies), sum(map(len, batches))))
    done = 0
    for group in _recovery_ranges(batches, len(trace)):
        masks = _range_masks(trace, template, [policies[ks[0]].cfg for ks in sharing.values()], grid, group)
        for mask, ks in zip(masks, sharing.values()):
            held = held_sources(mask)
            for k in ks:
                table, src, codes = run_recoveries(trace, mask, policies[k], held)
                errors[k, done : done + len(mask)] = _run_errors(trace, table, src, codes)
        done += len(masks[0])
    return errors


_WORKER_CTX: tuple | None = None


def _init_worker(*ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_task(runs: range) -> np.ndarray:
    return _run_batches(*_WORKER_CTX, [runs])


def run_sweep(
    trace: Trace,
    grid: SweepGrid,
    channel_template: ChannelConfig,
    policies: Sequence[RecoveryPolicy],
    jobs: int = 1,
) -> SweepResult:
    """Run the full interference sweep in batches of runs.

    Run r is repetition r % repetitions of cell r // repetitions, in
    grid.cells() order. A batch is a contiguous range of runs holding at
    most _BATCH_SLOTS (run, slot) rows, or one run. With jobs > 1 it holds
    at most runs // jobs runs, so that no worker is left idle, and each
    pool task is one batch; a serial sweep recovers its batches in ranges
    of up to _RANGE_SLOTS rows (see _run_batches). Each run is
    drawn from its own seed, derived from (master seed, cell index,
    repetition), and scores NaN when it has no on-time slot (see
    _run_batches). Results are reproducible and independent of batching
    and worker scheduling; all policies see identical channel outcomes.
    Repeated policy labels, or a result too large to hold
    (check_result_size), raise ConfigError before any run.
    """
    labels = [p.label for p in policies]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"policy labels must be unique, got {labels}")
    check_result_size(grid, len(policies))
    cells = grid.cells()
    n_runs = len(cells) * grid.repetitions
    size = max(1, _BATCH_SLOTS // len(trace))
    if jobs > 1:
        size = max(1, min(size, n_runs // jobs))
    batches = [range(lo, min(lo + size, n_runs)) for lo in range(0, n_runs, size)]
    ctx = (trace, channel_template, policies, grid)
    if jobs > 1:
        # Imported here: multiprocessing is a sizeable share of `import
        # foreco`, and only the parallel path needs it.
        from concurrent.futures import ProcessPoolExecutor

        # The initializer ships the trace and policies once per worker.
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(batches)), initializer=_init_worker, initargs=ctx
        ) as pool:
            errors = np.hstack(list(pool.map(_worker_task, batches)))
    else:
        errors = _run_batches(*ctx, batches)
    per_cell = errors.reshape(len(labels), len(cells), grid.repetitions).transpose(1, 0, 2).tolist()
    return SweepResult(grid, tuple(labels), {key: dict(zip(labels, values)) for key, values in zip(cells, per_cell)})
