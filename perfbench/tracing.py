"""Spans around calls into foreco's layers, and the per-layer metrics derived
from them.

A span is ``[name, start, end, parent]``: times from ``time.perf_counter``,
``parent`` the index of the enclosing span or None. The benchmark records
spans from its own files only: it wraps the functions it calls, and the
module attributes through which foreco's modules look their callees up
(``foreco.evaluation.simulate_channel``, not ``foreco.channel.simulate_channel``,
because ``evaluation`` binds the name at import). Spans stay in memory and
are written out when the run ends.

This module imports nothing from foreco or numpy, so its helpers can be
tested on their own.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# Root span names: the benchmark opens one around each set-up round and one
# around each timed region of a pass; every other span nests inside one.
SETUP = "bench.setup"
TIMED = "bench.timed"
# One burst experiment; stands in for a sweep repetition in evaluation.rep_ms.
OP = "bench.op"

CHANNEL = "channel.simulate_channel"
FORECAST_RECOVERY = "recovery.run_recovery.forecast"
REPEAT_RECOVERY = "recovery.run_recovery.repeat-last"
PREDICT = "forecasting.predict"
RMSE = "evaluation.rmse"
RUN_SWEEP = "evaluation.run_sweep"
# The walkthrough's spans around foreco.cli.main, one per subcommand.
CLI_STEPS = ("cli.gen-trace", "cli.train", "cli.simulate", "cli.sweep")


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100) of values, linearly interpolated between
    the closest ranks as numpy's default method does; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


class NullTracer:
    """Stands in for Tracer in untraced runs: no spans, no patches, no cost."""

    active = False

    def span(self, name: str):
        return nullcontext()

    def patch(self, module, attr: str, name, on_result=None) -> None:
        pass

    def restore(self) -> None:
        pass


class Tracer:
    """Records spans while ``active`` is true; counts go to ``counts``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, on_result=None):
        """fn inside a span. name is a string or a function of the call's
        positional arguments; on_result(counts, args, result) runs after the
        span has closed, so counting is not charged to the layer."""

        def traced(*args, **kwargs):
            # A forked pool worker inherits the patched modules; its spans
            # could never reach this process, so it runs the plain function.
            if not self.active or os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def patch(self, module, attr: str, name, on_result=None) -> None:
        """Replace module.attr by its traced form until restore()."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))


class Clock:
    """Sums the time spent in timed regions; each region is a root span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.elapsed = 0.0

    @contextmanager
    def timed(self):
        with self.tracer.span(TIMED):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.elapsed += time.perf_counter() - start


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children run inside their parent on one thread and do not overlap, so
    subtracting their durations gives the parent's own time.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def root_names(spans) -> list[str]:
    """The name of the outermost span enclosing each span (itself for roots)."""
    roots: list[str] = []
    for name, _, _, parent in spans:
        roots.append(name if parent is None else roots[parent])
    return roots


def rep_durations(spans) -> list[float]:
    """Durations of single operations: the benchmark's own op spans when
    there are any, else the sweep's repetitions.

    A repetition inside run_sweep starts at a simulate_channel call and ends
    where the last span before the next simulate_channel call (or before
    run_sweep returns) ends.
    """
    ops = [end - start for name, start, end, _ in spans if name == OP]
    if ops:
        return ops
    children: dict[int, list[int]] = defaultdict(list)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent is not None and spans[parent][0] == RUN_SWEEP:
            children[parent].append(index)
    reps = []
    for kids in children.values():
        start = end = None
        for k in kids:
            name, k_start, k_end, _ = spans[k]
            if name == CHANNEL:
                if start is not None:
                    reps.append(end - start)
                start = k_start
            end = k_end
        if start is not None:
            reps.append(end - start)
    return reps


def layer_metrics(spans, counts, setup_rounds: int, passes: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times ending in ``_s`` are seconds per round of the phase the calls ran
    in: per set-up round for calls made while building inputs, per pass for
    the rest. Counts are per pass. Shares divide a layer's time inside timed
    regions by the total time of those regions. A layer the workload never
    calls reports 0.
    """
    roots = root_names(spans)
    own = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    per_round: Counter = Counter()
    self_total: Counter = Counter()
    for (name, start, end, _), root, mine in zip(spans, roots, own):
        durations[name].append(end - start)
        per_round[name] += (end - start) / (setup_rounds if root == SETUP else passes)
        self_total[name] += mine
    timed = sum(durations[TIMED])

    def share(name: str) -> float:
        inside = sum(end - start for (n, start, end, _), root in zip(spans, roots) if n == name and root == TIMED)
        return inside / timed if timed else 0.0

    def ms(name: str, q: float) -> float:
        return 1e3 * percentile(durations[name], q)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    forecast_calls = durations[FORECAST_RECOVERY]
    reps = rep_durations(spans)
    frames = counts["channel.frames"]
    metrics = {
        "channel.simulate_ms_p50": ms(CHANNEL, 50),
        "channel.busy_share": share(CHANNEL),
        "channel.frames": frames / passes,
        "channel.loss_rate": ratio(counts["channel.lost"], frames),
        "channel.overflow_rate": ratio(counts["channel.overflow"], frames),
        "channel.miss_rate": ratio(counts["channel.missed"], frames),
        "recovery.forecast_ms_p50": ms(FORECAST_RECOVERY, 50),
        "recovery.forecast_ms_p95": ms(FORECAST_RECOVERY, 95),
        "recovery.repeat_ms_p50": ms(REPEAT_RECOVERY, 50),
        "recovery.forecast_slots": counts["recovery.forecast_slots"] / passes,
        "recovery.us_per_miss": 1e6 * ratio(sum(forecast_calls), counts["recovery.forecast_misses"]),
        "recovery.self_ms": 1e3 * ratio(self_total[FORECAST_RECOVERY], len(forecast_calls)),
        "recovery.busy_share": share(FORECAST_RECOVERY),
        "recovery.repeat_busy_share": share(REPEAT_RECOVERY),
        "forecasting.predict_us_p50": 1e6 * percentile(durations[PREDICT], 50),
        "forecasting.predict_calls": len(durations[PREDICT]) / passes,
        "forecasting.select_lag_s": per_round["forecasting.select_lag"],
        "forecasting.fit_var_ols_s": per_round["forecasting.fit_var_ols"],
        "evaluation.rmse_ms_p50": ms(RMSE, 50),
        "evaluation.busy_share": share(RMSE),
        "evaluation.rep_ms_p50": 1e3 * percentile(reps, 50),
        "evaluation.rep_ms_p95": 1e3 * percentile(reps, 95),
        "evaluation.controlled_loss_ms_p50": ms("evaluation.controlled_loss_outcomes", 50),
        "evaluation.run_sweep_s": per_round[RUN_SWEEP],
        "traces.synthetic_trace_s": per_round["traces.synthetic_trace"],
        "core.read_trace_csv_s": per_round["core.read_trace_csv"],
        "core.write_trace_csv_s": per_round["core.write_trace_csv"],
        "cli.gen_trace_s": per_round["cli.gen-trace"],
        "cli.train_s": per_round["cli.train"],
        "cli.simulate_s": per_round["cli.simulate"],
        "cli.sweep_s": per_round["cli.sweep"],
        "cli.self_s": sum(self_total[name] for name in CLI_STEPS) / passes,
    }
    return {name: float(value) for name, value in metrics.items()}
