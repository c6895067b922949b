"""Command-line entry points: trace generation, training, simulation, sweeps.

Commands are non-interactive, take explicit seeds, and write their outputs
(plus a run manifest with input digests) under the requested paths only.
Failures exit nonzero with a human-readable message and a final JSON error
line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
import warnings
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .channel import (
    ChannelConfig,
    channel_config_from_dict,
    channel_rtx_probs,
    check_period,
    load_channel_config,
    simulate_channel,
    write_outcomes_csv,
)
from .core import (
    RecoveryConfig,
    checked_fields,
    checked_number,
    checked_text,
    in_file,
    read_json,
    read_trace_csv,
    section,
    write_json,
    write_trace_csv,
)
from .errors import ConfigError, ForecoError
from .evaluation import GRID_AXES, MATERIAL_ERROR_FLOOR, SweepGrid, check_result_size, rmse, run_sweep
from .forecasting import (
    AdamConfig,
    aic,
    fit_var_adam,
    fit_var_ols,
    likelihood_ratio,
    load_model,
    save_model,
    select_lag,
)
from .recovery import (
    PolicyMode,
    RecoveryPolicy,
    run_recovery,
    step_limit_from_trace,
    write_executed_csv,
)
from .traces import PROFILES, synthetic_trace

log = logging.getLogger("foreco")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("FORECO_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _timestamp() -> str:
    """Current UTC time; honors SOURCE_DATE_EPOCH for reproducible outputs."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc) if epoch else datetime.now(timezone.utc)
    return moment.replace(microsecond=0).isoformat()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    """Record of one CLI run: inputs with digests, seeds, outputs, timing."""

    def __init__(self, argv: list[str]):
        self.doc: dict = {
            "tool": "foreco",
            "version": __version__,
            "command": argv,
            "started_utc": _timestamp(),
            "inputs": {},
            "seeds": {},
            "outputs": {},
        }
        self._t0 = time.monotonic()

    def add_input(self, path: str | Path) -> None:
        self.doc["inputs"][str(path)] = _sha256(Path(path))

    def add_seed(self, name: str, value) -> None:
        self.doc["seeds"][name] = value

    def add_output(self, path: str | Path) -> None:
        self.doc["outputs"][str(path)] = _sha256(Path(path))

    def write(self, path: Path) -> None:
        self.doc["elapsed_s"] = round(time.monotonic() - self._t0, 3)
        write_json(path, self.doc)


def _fail(kind: str, message: str, code: int) -> int:
    print(f"foreco: error: {message}", file=sys.stderr)
    print(json.dumps({"error": {"kind": kind, "message": message}}), file=sys.stderr)
    return code


def _json_float(x: float):
    return x if math.isfinite(x) else repr(x)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _lag_order(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'auto', got {text}") from None


def _add_field_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the dataclass cls, typed like its default. An
    unset flag reads None, so the dataclass keeps its own default."""
    for f in fields(cls):
        parser.add_argument(_flag(f.name), type=type(f.default))


def _flag(name: str) -> str:
    """The command-line flag that sets a field."""
    return "--" + name.replace("_", "-")


def _given_fields(args, cls) -> dict:
    """The fields of cls whose flags were set."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if getattr(args, f.name) is not None}


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    trace = read_trace_csv(args.trace)
    manifest = Manifest(args.argv)
    manifest.add_input(args.trace)

    report: dict = {"trainer": args.trainer}
    if args.lag == "auto":
        selection = select_lag(trace, args.max_lag)
        best_lag, curve = selection
        lags = list(range(1, args.max_lag + 1))
        # Huge ratios overflow floats: likelihood_ratio warns and returns inf,
        # which the report writes as "inf" to stay valid JSON.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ratios = [likelihood_ratio(curve[i], curve[i + 1], trace.dim) for i in range(len(lags) - 1)]
        report.update(
            best_lag=best_lag,
            lags=lags,
            aic=curve,
            likelihood_ratios=[
                {"from_lag": lags[i], "to_lag": lags[i + 1], "ratio": _json_float(ratio)}
                for i, ratio in enumerate(ratios)
            ],
        )
        lag = best_lag
        log.info("auto lag selection picked lag=%d", lag)
    else:
        lag = args.lag
        report["best_lag"] = lag

    if args.trainer == "ols" and args.lag == "auto":
        model = selection.fit(args.ridge)
    elif args.trainer == "ols":
        model = fit_var_ols(trace, lag, ridge=args.ridge)
    else:
        cfg = AdamConfig(**_given_fields(args, AdamConfig))
        if cfg.epochs == 0:
            log.warning("epochs=0: model keeps its zero-initialized weights")
            print("warning: epochs=0 leaves the model at zero-initialized weights", file=sys.stderr)
        model = fit_var_adam(trace, lag, cfg)

    if args.lag != "auto":
        try:
            report.update(lags=[lag], aic=[aic(model, trace)])
        except ForecoError as exc:
            report.update(lags=[lag], aic=[None], aic_note=str(exc))

    out_model = Path(args.out)
    out_model.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out_model, trained_at=_timestamp())
    report_path = Path(args.report) if args.report else out_model.with_suffix(out_model.suffix + ".aic.json")
    write_json(report_path, report)

    manifest.add_output(out_model)
    manifest.add_output(report_path)
    manifest.write(out_model.with_suffix(out_model.suffix + ".manifest.json"))
    print(f"trained lag={lag} model ({args.trainer}) -> {out_model}")
    return 0


# ---------------------------------------------------------------------------
# simulate

def _build_policies(names, recovery: dict, model, trace, margin, name=str) -> list[RecoveryPolicy]:
    """The named policies over one RecoveryConfig of the given fields.

    Without a record_len the record keeps RecoveryConfig's length, raised to
    the model's history when a model is given. A margin caps forecast steps
    at that multiple of the trace's largest per-period move. A record too
    short for the model, or a margin that leaves a step limit that is not
    positive, raises ConfigError naming name(field) for record_len or
    step_limit_margin.
    """
    if model is not None:
        recovery = {"record_len": max(RecoveryConfig.record_len, model.min_history), **recovery}
    cfg = RecoveryConfig(**recovery)
    policies = []
    for mode in map(PolicyMode, names):
        if mode is not PolicyMode.FORECAST:
            policies.append(RecoveryPolicy(mode, cfg))
            continue
        if model is None:
            raise ConfigError("policy 'forecast' requires --model")
        if model.min_history > cfg.record_len:
            raise ConfigError(f"{name('record_len')}: model needs {model.min_history} past commands "
                              f"but the record keeps {cfg.record_len}")
        max_step = None if margin is None else step_limit_from_trace(trace, margin=margin)
        if max_step is not None and not all(limit > 0 for limit in max_step):
            raise ConfigError(f"{name('step_limit_margin')}: step limits must be positive, "
                              f"got {list(max_step)} at margin {margin}")
        policies.append(RecoveryPolicy(mode, cfg, model, max_step_per_joint=max_step))
    return policies


def cmd_simulate(args) -> int:
    trace = read_trace_csv(args.trace)
    channel = load_channel_config(args.channel)
    model = load_model(args.model) if args.model else None

    manifest = Manifest(args.argv)
    manifest.add_input(args.trace)
    manifest.add_input(args.channel)
    if args.model:
        manifest.add_input(args.model)
    manifest.add_seed("channel", channel.seed)

    with in_file(args.channel):
        check_period(trace, channel)
    [policy] = _build_policies(
        [args.policy], _given_fields(args, RecoveryConfig), model, trace, args.step_limit_margin, _flag
    )

    outcomes = simulate_channel(trace, channel)
    stream = run_recovery(trace, outcomes, policy)
    # A stream that executed nothing has no error to measure.
    error = rmse(stream, trace) if stream.stats.dropped < len(stream) else None

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_outcomes_csv(outcomes, out_dir / "outcomes.csv")
    write_executed_csv(stream, out_dir / "executed.csv")
    write_json(out_dir / "stats.json", stream.stats.to_dict())
    summary = {"policy": policy.label, "rmse": error}
    if error is None:
        summary["rmse_note"] = "no command was executed: every slot missed its deadline and was dropped"
    summary.update(
        stats=stream.stats.to_dict(),
        commands=len(trace),
        channel_seed=channel.seed,
        tolerance_ms=policy.cfg.tolerance_ms,
        record_len=policy.cfg.record_len,
    )
    write_json(out_dir / "summary.json", summary)

    for name in ("outcomes.csv", "executed.csv", "stats.json", "summary.json"):
        manifest.add_output(out_dir / name)
    manifest.write(out_dir / "manifest.json")
    shown = "null" if error is None else f"{error:.6g}"
    print(f"policy={policy.label} rmse={shown} on_time={stream.stats.on_time}/{len(trace)}")
    return 0


# ---------------------------------------------------------------------------
# sweep

# Keys of a sweep spec besides the fields of SweepGrid and RecoveryConfig.
_SPEC_KEYS = ("channel", "policies", "model", "step_limit_margin")

def _sweep_spec(spec) -> tuple[dict, SweepGrid, ChannelConfig, dict]:
    """The spec, its grid, its channel template and its RecoveryConfig fields,
    checked before any model is read: a key that is unknown, missing, of the
    wrong type or out of range raises ConfigError naming the field."""
    grid, recovery = checked_fields(spec, SweepGrid, RecoveryConfig, extra=_SPEC_KEYS)
    if "channel" not in spec:
        raise ConfigError("channel: missing key")
    policies = spec.setdefault("policies", ["forecast", "repeat-last"])
    names = [mode.value for mode in PolicyMode]
    known = isinstance(policies, list) and all(name in names for name in policies)
    if not known or len(set(policies)) < len(policies):
        raise ConfigError(f"policies: expected a list of distinct names from {names}, got {policies!r}")
    if not checked_text(spec.get("model"), "model", none=True) and "forecast" in policies:
        raise ConfigError("model: the forecast policy needs a model path")
    if "step_limit_margin" in spec and not checked_number(spec["step_limit_margin"], "step_limit_margin") > 0:
        raise ConfigError(f"step_limit_margin: must be > 0, got {spec['step_limit_margin']}")
    RecoveryConfig(**recovery)
    grid = SweepGrid(**grid)
    check_result_size(grid, len(policies))
    with section("channel"):
        template = channel_config_from_dict(spec["channel"])
    # Each entry is checked in a cell of one station and no interferer, but for the largest
    # entries of the axes before it. Failure grows along every axis, so the last axis's
    # largest entry checks the worst cell, and no check fails for a value the grid lacks.
    cell = {"n_stations": 1, "p_if": 0.0, "t_if_slots": 0.0}
    for axis, name in GRID_AXES:
        for k, value in enumerate(getattr(grid, axis)):
            with section(f"{axis}[{k}]"):
                interference = replace(template.interference, **{**cell, name: value})
                channel_rtx_probs(replace(template, interference=interference))
        cell[name] = max(getattr(grid, axis))
    return spec, grid, template, recovery


def cmd_sweep(args) -> int:
    trace = read_trace_csv(args.trace)
    spec_path = Path(args.spec)
    spec, grid, template, recovery = read_json(spec_path, _sweep_spec)
    with in_file(spec_path), section("channel"):
        check_period(trace, template)

    manifest = Manifest(args.argv)
    manifest.add_input(args.trace)
    manifest.add_input(spec_path)
    manifest.add_seed("master", grid.master_seed)
    model = None
    policy_names = spec["policies"]
    if "forecast" in policy_names:
        model_path = spec_path.parent / spec["model"]  # an absolute path replaces the parent
        model = load_model(model_path)
        manifest.add_input(model_path)
    with in_file(spec_path):
        policies = _build_policies(policy_names, recovery, model, trace, spec.get("step_limit_margin"))

    # Results do not depend on jobs; more workers than usable CPUs only cost.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(args.jobs or cpus, cpus)
    log.info("sweep: %d cells x %d repetitions, jobs=%d", len(grid.cells()), grid.repetitions, jobs)
    result = run_sweep(trace, grid, template, policies, jobs=jobs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "sweep_result.json", result.to_dict())
    matrix_paths = result.write_matrices(out_dir)
    manifest.add_output(out_dir / "sweep_result.json")
    for path in matrix_paths:
        manifest.add_output(path)
    manifest.write(out_dir / "manifest.json")

    if "forecast" in policy_names and "repeat-last" in policy_names:
        ratio = result.worst_cell_ratio("forecast", "repeat-last", min_denominator=MATERIAL_ERROR_FLOOR)
        if ratio is None:
            print(f"sweep done: no cell has a repeat-last mean RMSE above the {MATERIAL_ERROR_FLOOR:g} floor")
        else:
            print(f"sweep done: worst-cell forecast/repeat-last mean-RMSE ratio = {ratio:.4f}")
    else:
        print("sweep done")
    return 0


# ---------------------------------------------------------------------------
# gen-trace

def cmd_gen_trace(args) -> int:
    trace = synthetic_trace(
        args.profile, args.duration_s, args.seed, period_ms=args.period_ms, dim=args.dim
    )
    manifest = Manifest(args.argv)
    manifest.add_seed("trace", args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out)
    manifest.add_output(out)
    manifest.write(out.with_suffix(out.suffix + ".manifest.json"))
    print(f"wrote {len(trace)} commands ({args.profile}) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foreco",
        description="Forecast-based recovery of late/lost remote-control commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a forecaster on a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--lag", type=_lag_order, default="auto", help="lag order, or 'auto' for criterion-based selection"
    )
    p.add_argument("--max-lag", type=int, default=20, help="largest lag scanned with --lag auto")
    p.add_argument("--trainer", choices=("ols", "adam"), default="ols")
    p.add_argument("--ridge", type=float, default=0.0, help="ridge penalty for collinear designs (ols)")
    _add_field_flags(p, AdamConfig)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--report", help="criterion report path (default: <out>.aic.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run the channel and a recovery policy over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--channel", required=True, help="channel config JSON")
    p.add_argument("--model", help="model JSON (required for --policy forecast)")
    p.add_argument("--policy", choices=[mode.value for mode in PolicyMode], default=PolicyMode.FORECAST.value)
    _add_field_flags(p, RecoveryConfig)
    p.add_argument(
        "--step-limit-margin",
        type=float,
        help="cap injected forecast steps at margin x the trace's largest per-period move",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="interference sweep over a grid spec JSON")
    p.add_argument("--trace", required=True)
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--jobs", type=_positive_int, default=None, help="worker processes (default and cap: usable CPUs)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-trace", help="write a synthetic trace CSV")
    p.add_argument("--profile", choices=PROFILES, required=True)
    p.add_argument("--duration-s", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--period-ms", type=float, default=20.0)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except OSError as exc:
        return _fail("io", str(exc), 2)
    except ForecoError as exc:
        return _fail(exc.kind, str(exc), 3)
    except MemoryError as exc:
        # an input asked for more memory than the machine grants
        return _fail("memory", f"out of memory: {exc}", 3)
    except Exception as exc:  # pragma: no cover - last-resort guard
        log.exception("unexpected failure")
        return _fail("internal", f"{type(exc).__name__}: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
