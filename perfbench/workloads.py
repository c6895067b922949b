"""The benchmark's workloads, the checks on their outputs, and the patches
that trace them.

Each workload is a closed loop: one client in one process starts the next
operation when the previous one has returned; there is no arrival rate.
All inputs derive from the workload seed, and foreco receives only the
generated inputs. The workloads call foreco through module attributes
(``evaluation.run_sweep``, ``recovery.run_recovery``, ...), so that the
patches ``install`` makes see the benchmark's calls and foreco's own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from foreco import channel, cli, core, evaluation, forecasting, recovery, traces
from foreco.recovery import PolicyMode, RecoveryPolicy

import tracing

# Relative tolerance for comparing an op's values with another pass or with
# the recorded reference. Byte digests are deliberately not compared: a
# later change may reassociate float sums and move the last bits.
REL_TOL = 1e-6

# The recovery protocol of acceptance criteria 6 and 7.
TRACE_SECONDS = 150.0
TRAIN_SHARE = 0.8
LAG = 20
RIDGE = 0.1
STEP_MARGIN = 1.5
RECORD_LEN = 20

# Repetitions per cell in one sweep pass: 180 cell-repetitions.
SWEEP_REPS = 1

# bursts: 10 traces x 3 burst lengths x 7 placements = 210 experiments.
BURST_TRACES = 10
BURST_LENGTHS = (5, 10, 25)
BURSTS_PER_EXPERIMENT = 8
PLACEMENTS = 7


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Op:
    """One operation's outcome: floats compared at REL_TOL across passes and
    with the reference, a slot count compared exactly, and any problems."""

    values: list[float] = field(default_factory=list)
    slots: int | None = None
    problems: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"values": self.values, "slots": self.slots}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def failed_op(exc: BaseException) -> Op:
    return Op(problems=[f"{type(exc).__name__}: {exc}"])


# ---------------------------------------------------------------------------
# Checks

def check_error(value: float) -> list[str]:
    return [] if math.isfinite(value) and value >= 0 else [f"rmse {value!r} is not finite"]


def check_stream(trace, outcomes, stream, cfg) -> list[str]:
    """Invariants of one recovered stream: its slot counts sum to the trace
    length, and every slot that met the replay deadline holds the trace's
    command unchanged."""
    stats = stream.stats
    problems = []
    if stats.total != len(trace):
        problems.append(f"slot counts sum to {stats.total}, not {len(trace)}")
    hits = [recovery.replay_deadline(o, trace.period_ms, cfg) for o in outcomes]
    if sum(hits) != stats.on_time:
        problems.append(f"{sum(hits)} slots met the deadline, {stats.on_time} counted on time")
    for i, (hit, executed, sent) in enumerate(zip(hits, stream.commands, trace.samples)):
        if hit and (executed is None or executed.joints != sent.joints):
            problems.append(f"on-time slot {i} differs from the trace")
            break
    return problems


def same(op: Op, expected: Op) -> bool:
    """True if op's values match expected's at REL_TOL and, where both have
    one, their slot counts are equal."""
    if len(op.values) != len(expected.values):
        return False
    if op.slots is not None and expected.slots is not None and op.slots != expected.slots:
        return False
    return all(math.isclose(a, b, rel_tol=REL_TOL) for a, b in zip(op.values, expected.values))


def compare(ops: list[Op], expected: list[Op], against: str) -> None:
    """Add a problem to each op that differs from its expected counterpart,
    or whose counterpart failed: reproducing a wrong result is wrong too."""
    if len(ops) != len(expected):
        for op in ops:
            op.problems.append(f"{len(ops)} ops, {len(expected)} in the {against}")
        return
    for op, exp in zip(ops, expected):
        if exp.problems:
            op.problems.append(f"the {against} op failed: {exp.problems[0]}")
        elif not same(op, exp):
            op.problems.append(f"values differ from the {against}")


# ---------------------------------------------------------------------------
# Tracing

def _recovery_span(args) -> str:
    return f"recovery.run_recovery.{args[2].label}"


def _count_channel(counts, args, outcomes) -> None:
    """Frames, losses by cause, and slots that miss the replay deadline at
    zero tolerance, which every workload uses."""
    period_ms = args[0].period_ms
    cfg = core.RecoveryConfig()
    counts["channel.frames"] += len(outcomes)
    for o in outcomes:
        if not o.delivered:
            counts["channel.lost"] += 1
            counts["channel.overflow"] += o.cause is channel.LossCause.QUEUE_OVERFLOW
        counts["channel.missed"] += not recovery.replay_deadline(o, period_ms, cfg)


def _count_recovery(counts, args, stream) -> None:
    if args[2].mode is PolicyMode.FORECAST:
        counts["recovery.forecast_slots"] += stream.stats.forecast
        counts["recovery.forecast_misses"] += stream.stats.total - stream.stats.on_time


def install(tracer) -> None:
    """Wrap every module attribute through which the benchmark or foreco
    calls a traced function. ``evaluation`` and ``cli`` bind their callees
    at import, so those bindings are wrapped where they live."""
    for module in (evaluation, cli):
        tracer.patch(module, "simulate_channel", tracing.CHANNEL, _count_channel)
        tracer.patch(module, "run_recovery", _recovery_span, _count_recovery)
        tracer.patch(module, "rmse", tracing.RMSE)
        tracer.patch(module, "run_sweep", tracing.RUN_SWEEP)
    tracer.patch(recovery, "run_recovery", _recovery_span, _count_recovery)
    tracer.patch(recovery, "predict", tracing.PREDICT)
    tracer.patch(evaluation, "controlled_loss_outcomes", "evaluation.controlled_loss_outcomes")
    # forecasting.fit_var_ols is also what select_lag calls for each lag.
    for module in (forecasting, cli):
        tracer.patch(module, "fit_var_ols", "forecasting.fit_var_ols")
    for module in (traces, cli):
        tracer.patch(module, "synthetic_trace", "traces.synthetic_trace")
    tracer.patch(cli, "select_lag", "forecasting.select_lag")
    tracer.patch(cli, "read_trace_csv", "core.read_trace_csv")
    tracer.patch(cli, "write_trace_csv", "core.write_trace_csv")


# ---------------------------------------------------------------------------
# Workloads

def protocol_inputs(trace_seed: int):
    """The test split of a 150 s pick-and-place trace, and the forecast
    (VAR lag 20, ridge 0.1, step limits at margin 1.5) and repeat-last
    policies fitted on its training split."""
    full = traces.synthetic_trace("pick-and-place", TRACE_SECONDS, seed=trace_seed)
    train, test = core.split_dataset(full, TRAIN_SHARE)
    model = forecasting.fit_var_ols(train, LAG, ridge=RIDGE)
    limits = recovery.step_limit_from_trace(train, margin=STEP_MARGIN)
    cfg = core.RecoveryConfig(record_len=RECORD_LEN)
    return test, (
        RecoveryPolicy(PolicyMode.FORECAST, cfg, model, max_step_per_joint=limits),
        RecoveryPolicy(PolicyMode.REPEAT_LAST, cfg),
    )


def recover_and_score(trace, outcomes, policies):
    """The executed stream and its RMSE under each policy."""
    streams = [recovery.run_recovery(trace, outcomes, p) for p in policies]
    return streams, [evaluation.rmse(s, trace) for s in streams]


def checked_op(trace, outcomes, policies, streams, errors) -> Op:
    """Values: forecast RMSE, repeat-last RMSE; slots: forecast slots."""
    problems = []
    for policy, stream, error in zip(policies, streams, errors):
        problems += check_stream(trace, outcomes, stream, policy.cfg) + check_error(error)
    return Op(errors, streams[0].stats.forecast, problems)


class Workload:
    """Inputs from a seed; setup() builds them, warmup() runs one untimed
    pass whose ops the timed passes must reproduce, run_pass() runs one pass
    and times its program calls with the clock."""

    uses_pool = False
    ops_per_pass = 0
    # Delivered rows of outcomes.csv whose delay_ms is not a plain float.
    # With numpy 2, simulate writes repr(np.float64) there, such as
    # "np.float64(0.2558)": a defect of the program that the run reports
    # as a note, outside fail_rate (see README.md).
    unparsed_delays = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.error_ratio = math.nan

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, clock) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        return self.run_pass(tracing.Clock(tracing.NullTracer()))

    def close(self) -> None:
        pass


class Sweep(Workload):
    """run_sweep(jobs=1) over default_grid(): 10 probabilities x 6 durations
    x 3 station counts, on the test split of the protocol trace. One op is
    one cell-repetition scored under both policies."""

    def setup(self) -> None:
        self.trace, self.policies = protocol_inputs(derive_seed(self.seed, 0))
        self.grid = evaluation.default_grid(repetitions=SWEEP_REPS, master_seed=derive_seed(self.seed, 1))
        self.ops_per_pass = len(self.grid.cells()) * self.grid.repetitions

    def warmup(self) -> list[Op]:
        """Compose every cell-repetition from the public functions, seeded
        as run_sweep documents (master seed, cell index, repetition), and
        check each; the timed passes must reproduce these RMSEs."""
        template = channel.ChannelConfig()
        ops = []
        for index, (robots, prob, duration) in enumerate(self.grid.cells()):
            interference = replace(template.interference, p_if=prob, t_if_slots=duration, n_stations=robots)
            for rep in range(self.grid.repetitions):
                seq = np.random.SeedSequence([self.grid.master_seed, index, rep])
                seed = int(seq.generate_state(1, dtype=np.uint64)[0])
                cfg = replace(template, interference=interference, seed=seed)
                try:
                    outcomes = channel.simulate_channel(self.trace, cfg)
                    streams, errors = recover_and_score(self.trace, outcomes, self.policies)
                    ops.append(checked_op(self.trace, outcomes, self.policies, streams, errors))
                except Exception as exc:
                    ops.append(failed_op(exc))
        return ops

    def run_pass(self, clock) -> list[Op]:
        with clock.timed():
            result = evaluation.run_sweep(self.trace, self.grid, channel.ChannelConfig(), self.policies, jobs=1)
        self.error_ratio = result.peak_ratio("forecast", "repeat-last")
        ops = []
        for key in self.grid.cells():
            for fc, rl in zip(result.cells[key]["forecast"], result.cells[key]["repeat-last"]):
                ops.append(Op([fc, rl], problems=check_error(fc) + check_error(rl)))
        return ops


class Bursts(Workload):
    """The acceptance-6 protocol without a channel: ten protocol traces,
    bursts of 5, 10 and 25 lost commands, 8 bursts per experiment, 7
    placements per trace and length. One op is one experiment scored under
    both policies."""

    def setup(self) -> None:
        self.runs = [protocol_inputs(derive_seed(self.seed, 2, k)) for k in range(BURST_TRACES)]
        self.experiments = [
            (k, length, derive_seed(self.seed, 3, k, length, j))
            for k in range(BURST_TRACES)
            for length in BURST_LENGTHS
            for j in range(PLACEMENTS)
        ]
        self.ops_per_pass = len(self.experiments)

    def run_pass(self, clock) -> list[Op]:
        ops = []
        for k, length, placement in self.experiments:
            test, policies = self.runs[k]
            try:
                with clock.timed(), clock.tracer.span(tracing.OP):
                    outcomes = evaluation.controlled_loss_outcomes(
                        test, length, BURSTS_PER_EXPERIMENT, seed=placement, min_start=RECORD_LEN
                    )
                    streams, errors = recover_and_score(test, outcomes, policies)
            except Exception as exc:
                ops.append(failed_op(exc))
                continue
            ops.append(checked_op(test, outcomes, policies, streams, errors))
        scored = [op.values for op in ops if op.values]
        self.error_ratio = float(np.mean([v[0] for v in scored]) / np.mean([v[1] for v in scored]))
        return ops


# The walkthrough's interfered link and its small sweep: 3 x 3 x 2 = 18
# cells at 4 repetitions each.
WALK_CHANNEL = channel.InterferenceParams(p_if=0.8, t_if_slots=16.0, n_stations=15)
WALK_SPEC = {
    "probs": [0.1, 0.5, 0.9],
    "durations": [1.0, 8.0, 32.0],
    "robot_counts": [5, 25],
    "repetitions": 4,
    "channel": {},
    "policies": ["forecast", "repeat-last"],
    "model": "model.json",
    "record_len": RECORD_LEN,
    "step_limit_margin": STEP_MARGIN,
}


class Walkthrough(Workload):
    """The README's CLI pipeline through foreco.cli.main, on files in a
    work directory: gen-trace (150 s), train --lag auto --max-lag 20,
    simulate with forecast and with repeat-last, sweep on a small spec at
    --jobs = nproc. One op is one CLI command."""

    uses_pool = True
    ops_per_pass = 5

    def setup(self) -> None:
        os.environ["SOURCE_DATE_EPOCH"] = "0"
        self.close()
        self.workdir.mkdir(parents=True)
        cfg = channel.ChannelConfig(interference=WALK_CHANNEL, seed=derive_seed(self.seed, 5))
        channel.save_channel_config(cfg, self.workdir / "channel.json")
        spec = dict(WALK_SPEC, master_seed=derive_seed(self.seed, 6))
        (self.workdir / "sweep.json").write_text(json.dumps(spec))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _steps(self):
        d = self.workdir
        trace = str(d / "trace.csv")
        model = str(d / "model.json")
        simulate = ["simulate", "--trace", trace, "--channel", str(d / "channel.json"), "--step-limit-margin", str(STEP_MARGIN)]
        return [
            ("cli.gen-trace", ["gen-trace", "--profile", "pick-and-place", "--duration-s", str(TRACE_SECONDS),
                               "--seed", str(derive_seed(self.seed, 4)), "--out", trace], self._check_trace),
            ("cli.train", ["train", "--trace", trace, "--lag", "auto", "--max-lag", str(LAG), "--out", model],
             self._check_model),
            ("cli.simulate", simulate + ["--model", model, "--policy", "forecast", "--out-dir", str(d / "run")],
             lambda: self._check_run(d / "run")),
            ("cli.simulate", simulate + ["--policy", "repeat-last", "--out-dir", str(d / "run_baseline")],
             lambda: self._check_run(d / "run_baseline")),
            ("cli.sweep", ["sweep", "--trace", trace, "--spec", str(d / "sweep.json"), "--jobs",
                           str(len(os.sched_getaffinity(0))), "--out-dir", str(d / "sweep_out")], self._check_sweep),
        ]

    def run_pass(self, clock) -> list[Op]:
        ops = []
        for name, argv, check in self._steps():
            out = io.StringIO()
            try:
                with clock.timed(), clock.tracer.span(name), redirect_stdout(out):
                    code = cli.main(argv)
                ops.append(check() if code == 0 else Op(problems=[f"{name} exited {code}"]))
            except (Exception, SystemExit) as exc:
                ops.append(failed_op(exc))
        forecast, baseline = ops[2].values, ops[3].values
        self.error_ratio = forecast[0] / baseline[0] if forecast and baseline and baseline[0] else math.nan
        return ops

    def _check_trace(self) -> Op:
        self.trace = core.read_trace_csv(self.workdir / "trace.csv")
        rows = len(self.trace)
        expected = round(TRACE_SECONDS * 1000 / self.trace.period_ms)
        problems = [] if rows == expected else [f"{rows} trace rows, expected {expected}"]
        return Op([float(rows), float(np.sum(self.trace.joints_matrix()))], problems=problems)

    def _check_model(self) -> Op:
        model = forecasting.load_model(self.workdir / "model.json")
        report = json.loads((self.workdir / "model.json.aic.json").read_text())
        problems = []
        if not (np.all(np.isfinite(model.coeffs)) and np.all(np.isfinite(model.bias))):
            problems.append("model weights are not finite")
        if model.lag != report["best_lag"] or not 1 <= model.lag <= LAG:
            problems.append(f"model lag {model.lag}, report best lag {report['best_lag']}")
        return Op([float(model.lag)], problems=problems)

    def _check_run(self, run_dir: Path) -> Op:
        """The files of one simulate run agree: slot counts sum to H, the
        on-time count equals the original rows of executed.csv, each of those
        was delivered per outcomes.csv and reproduces the trace row."""
        summary = json.loads((run_dir / "summary.json").read_text())
        stats = summary["stats"]
        trace = self.trace
        problems = check_error(summary["rmse"])
        if stats["total"] != len(trace):
            problems.append(f"slot counts sum to {stats['total']}, not {len(trace)}")
        with (run_dir / "outcomes.csv").open(newline="") as fh:
            outcomes = list(csv.DictReader(fh))
        self.unparsed_delays += sum(1 for r in outcomes if r["status"] == "delivered" and not _is_float(r["delay_ms"]))
        with (run_dir / "executed.csv").open(newline="") as fh:
            originals = [r for r in csv.reader(fh) if r[1] == "original"]
        if len(originals) != stats["on_time"]:
            problems.append(f"{len(originals)} original rows, {stats['on_time']} on time")
        for r in originals:
            seq = int(r[0])
            if outcomes[seq]["status"] != "delivered" or tuple(float(x) for x in r[2:]) != trace[seq].joints:
                problems.append(f"on-time slot {seq} was lost or differs from the trace")
                break
        return Op([summary["rmse"], float(stats["on_time"])], stats["forecast"], problems)

    def _check_sweep(self) -> Op:
        doc = json.loads((self.workdir / "sweep_out" / "sweep_result.json").read_text())
        problems = []
        means = []
        cells = len(WALK_SPEC["probs"]) * len(WALK_SPEC["durations"]) * len(WALK_SPEC["robot_counts"])
        if len(doc["cells"]) != cells:
            problems.append(f"{len(doc['cells'])} sweep cells, expected {cells}")
        for cell in doc["cells"]:
            for policy in WALK_SPEC["policies"]:
                entry = cell["rmse"][policy]
                if len(entry["values"]) != WALK_SPEC["repetitions"]:
                    problems.append(f"cell has {len(entry['values'])} repetitions")
                for value in entry["values"]:
                    problems += check_error(value)
                means.append(entry["mean"])
        return Op(means, problems=problems)


WORKLOADS = {"sweep": Sweep, "bursts": Bursts, "walkthrough": Walkthrough}
