"""Trajectory-error metrics, the interference sweep, and forecast-window study.

The sweep crosses interferer probability, interferer duration, and station
count; every cell runs the channel simulation a fixed number of times and
feeds the identical outcome list to each recovery policy, so policies are
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

from .channel import DELIVERED, RTX_EXCEEDED, ChannelConfig, ChannelOutcomes, simulate_channel
from .core import Trace, checked_fields, checked_number, checked_numbers
from .errors import ConfigError
from .forecasting import MaModel, VarModel, fit_var_ols
# The sweep recovers a cell's runs together with run_recoveries. run_recovery
# stays bound here because perfbench's tracer wraps evaluation.run_recovery.
from .recovery import ExecutedStream, RecoveryPolicy, run_recoveries, run_recovery  # noqa: F401

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

def controlled_loss_outcomes(
    trace: Trace,
    burst_len: int,
    n_bursts: int,
    seed: int,
    min_start: int = 0,
    min_gap: int = 20,
) -> ChannelOutcomes:
    """Outcomes with every command on time except seeded bursts of
    consecutive losses, mimicking a controller that drops runs of commands.

    Bursts start at or after min_start, are placed uniformly at random, and
    keep at least min_gap delivered slots between them so each loss event is
    entered with a record refilled by real commands.
    """
    n = len(trace)
    if burst_len < 1 or n_bursts < 1:
        raise ConfigError("burst length and count must be >= 1")
    if min_start + n_bursts * (burst_len + min_gap) > n:
        raise ConfigError("trace too short for the requested bursts")
    rng = np.random.default_rng(seed)
    starts: list[int] = []
    attempts = 0
    spacing = burst_len + min_gap
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
        seq=np.arange(trace.seq0, trace.seq0 + n),
        delivered=~lost,
        delay_ms=on_time,
        rtx=np.where(lost, -1, 0),
        waited_ms=on_time,
        cause=np.where(lost, RTX_EXCEEDED, DELIVERED),
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


@dataclass
class SweepResult:
    grid: SweepGrid
    policies: tuple[str, ...]
    cells: dict[CellKey, dict[str, list[float]]]

    def mean(self, key: CellKey, policy: str) -> float:
        return float(np.mean(self.cells[key][policy]))

    def worst_cell_ratio(self, numerator: str, denominator: str, min_denominator: float = 0.0) -> float:
        """Largest per-cell mean-error ratio.

        Cells where the denominator policy's mean error is at or below
        min_denominator are skipped: with no material losses both policies
        sit at the noise floor and their quotient is a 0/0 artifact.
        """
        worst = 0.0
        for key in self.cells:
            den = self.mean(key, denominator)
            if den > min_denominator:
                worst = max(worst, self.mean(key, numerator) / den)
        return worst

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

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepResult":
        """The result a to_dict document describes; a missing or unknown key
        or a value of the wrong type raises ConfigError naming the field."""
        (grid,) = checked_fields(doc, "", SweepGrid, extra=("policies", "cells"))
        policies, cell_docs = doc.get("policies"), doc.get("cells")
        if not isinstance(policies, list) or not all(isinstance(p, str) for p in policies):
            raise ConfigError(f"policies: expected a list of names, got {policies!r}")
        if not isinstance(cell_docs, list):
            raise ConfigError(f"cells: expected a list, got {cell_docs!r}")
        cells = {}
        for k, cell in enumerate(cell_docs):
            name = f"cells[{k}]"
            if not isinstance(cell, dict) or not isinstance(cell.get("rmse"), dict):
                raise ConfigError(f"{name}: expected an object with an rmse object, got {cell!r}")
            key = (
                checked_number(cell.get("robots"), f"{name}.robots", integer=True),
                checked_number(cell.get("prob"), f"{name}.prob"),
                checked_number(cell.get("duration"), f"{name}.duration"),
            )
            cells[key] = {
                policy: list(checked_numbers(entry.get("values") if isinstance(entry, dict) else None,
                                             f"{name}.rmse.{policy}.values"))
                for policy, entry in cell["rmse"].items()
            }
        return cls(SweepGrid(**grid), tuple(policies), cells)

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


def _cell_config(template: ChannelConfig, key: CellKey, seed: int) -> ChannelConfig:
    robots, prob, duration = key
    interference = replace(
        template.interference, p_if=prob, t_if_slots=duration, n_stations=robots
    )
    return replace(template, interference=interference, seed=seed)


# A batch of cells holds at most this many (run, slot) rows, about one
# 40-repetition cell of a 1,500-command trace; a larger cell is a batch alone.
_BATCH_SLOTS = 1 << 16


def _run_cells(
    trace: Trace,
    template: ChannelConfig,
    policies: Sequence[RecoveryPolicy],
    grid: SweepGrid,
    indices: Sequence[int],
) -> list[dict[str, list[float]]]:
    """Every repetition of the cells at `indices`: per cell, the error of
    each policy in repetition order, on one channel run seeded per
    repetition. Each policy recovers all the batch's runs in one
    run_recoveries call; each run's recovery and error are its own, so a
    cell's values do not depend on the batch it is in."""
    keys = grid.cells()
    reps = grid.repetitions
    runs = [
        simulate_channel(trace, _cell_config(template, keys[index], _task_seed(grid.master_seed, index, rep)))
        for index in indices
        for rep in range(reps)
    ]
    errors = {
        policy.label: [rmse(stream, trace) for stream in run_recoveries(trace, runs, policy)]
        for policy in policies
    }
    return [
        {label: values[k * reps : (k + 1) * reps] for label, values in errors.items()}
        for k in range(len(indices))
    ]


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
    return _run_cells(*_WORKER_CTX, indices)


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
    derives its own seed from (master seed, cell index, repetition), so
    results are reproducible and independent of batching and worker
    scheduling; both policies see identical channel outcomes.
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
        results = [_run_cells(*ctx, indices) for indices in batches]
    return SweepResult(grid, tuple(labels), dict(zip(cells, itertools.chain.from_iterable(results))))


# ---------------------------------------------------------------------------
# Forecast-window accuracy study

def _closed_loop_errors(
    model: VarModel | MaModel, values: np.ndarray, window_max: int, stride: int
) -> np.ndarray:
    """Squared per-step distances of closed-loop forecasts.

    For every anchor (a true sample index), forecasts run window_max steps
    feeding on themselves; entry [a, s] is the squared distance at horizon
    s+1. Returns an (anchors, window_max) array.
    """
    hist_len = model.min_history
    n = len(values)
    first = hist_len - 1
    last = n - 1 - window_max
    if last < first:
        raise ConfigError("test trace too short for the requested window")
    anchors = np.arange(first, last + 1, stride)
    recent = values[anchors[:, None] + np.arange(1 - hist_len, 1)]
    errors = np.empty((len(anchors), window_max))
    for s in range(window_max):
        pred = model.next_rows(recent)
        diff = pred - values[anchors + 1 + s]
        # One dot product per anchor, as diff @ diff rounds it; a sum over
        # axis 1 rounds differently.
        errors[:, s] = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        recent = np.concatenate([recent[:, 1:], pred[:, None]], axis=1)
    return errors


def forecast_window_study(
    train: Trace,
    test: Trace,
    window_max: int,
    models: Sequence[str] = ("var", "ma"),
    record_candidates: Sequence[int] = tuple(range(1, 21)),
    stride: int | None = None,
) -> dict:
    """Closed-loop forecast accuracy versus forecast-window length.

    For each model family the history-record length is scanned over
    record_candidates and the best performer (lowest error pooled over all
    horizons) is reported together with its error curve: entry w-1 is the
    RMSE pooled over horizons 1..w.
    """
    if window_max < 1:
        raise ConfigError("window_max must be >= 1")
    values = test.joints_matrix()
    if stride is None:
        stride = max(1, (len(values) - window_max) // 400)
    study: dict[str, dict] = {}
    for name in models:
        if name not in ("var", "ma"):
            raise ConfigError(f"unknown model family {name!r}")
        best_record = None
        best_metric = math.inf
        best_curve: list[float] = []
        scan: dict[int, float] = {}
        for record in record_candidates:
            if name == "var":
                model = fit_var_ols(train, record)
            else:
                model = MaModel(train.dim, record)
            errors = _closed_loop_errors(model, values, window_max, stride)
            curve = [float(np.sqrt(errors[:, :w].mean())) for w in range(1, window_max + 1)]
            scan[record] = curve[-1]
            if curve[-1] < best_metric:
                best_metric = curve[-1]
                best_record = record
                best_curve = curve
        study[name] = {"best_record": best_record, "curve": best_curve, "by_record": scan}
    return study
