"""foreco benchmark: times workloads against the checkout's src/ and checks
their outputs.

    python3 perfbench/run.py                     # every workload, each in its own process
    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

With --trace 0 a run prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it prints the per-layer metrics, from spans recorded around calls
into foreco (see tracing.py). The last line of a single-workload run is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# numpy links a multithreaded BLAS; pin it to one thread before numpy is
# imported, here and in every process started from here.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("sweep", "bursts", "walkthrough")
DEFAULT_SEED = 0
SETUP_ROUNDS = 5
# The ROADMAP's one-off split of a sweep repetition, for comparison with the
# traced busy shares.
BASELINE_SHARES = {"channel.busy_share": 0.42, "recovery.busy_share": 0.28, "evaluation.busy_share": 0.22}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_foreco():
    """Import foreco from the checkout's src/, or return None if it resolves
    anywhere else (an installed copy would be measured instead)."""
    sys.path.insert(0, str(SRC))
    try:
        import foreco
    except ImportError:
        return None
    if Path(foreco.__file__).resolve().parent != (SRC / "foreco").resolve():
        return None
    return foreco


def import_seconds() -> float:
    """Time to import foreco in a fresh interpreter, startup excluded."""
    code = "import time; t = time.perf_counter(); import foreco; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.split()[-1])


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, plus that of its largest
    waited-for child (a pool worker) when children is true."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "dirty": dirty,
    }


def load_reference(workload: str, seed: int):
    """Ops recorded at the default seed, or None when the seed differs: a
    non-default seed runs the per-op invariant checks only."""
    from workloads import Op

    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return [Op(op["values"], op["slots"]) for op in entry["ops"]]


def record_reference(workload: str, seed: int, ops) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc[workload] = {"seed": seed, "ops": [op.to_dict() for op in ops]}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


def run_workload(args, spec: dict) -> int:
    if import_foreco() is None:
        return fail(f"foreco must import from {SRC}; is this a checkout of the repository?")
    import tracing
    import workloads

    reference = load_reference(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workloads.install(tracer)
    attempted = failed = 0
    problems: list[str] = []

    def tally(ops) -> None:
        nonlocal attempted, failed
        attempted += len(ops)
        bad = [op for op in ops if op.problems]
        failed += len(bad)
        problems.extend(p for op in bad[:3] for p in op.problems[:1])

    try:
        setup = []
        for _ in range(SETUP_ROUNDS):
            imported = import_seconds()
            start = time.perf_counter()
            with tracer.span(tracing.SETUP):
                workload.setup()
            setup.append(imported + time.perf_counter() - start)

        # Untimed and untraced: fills caches, and gives the ops every timed
        # pass must reproduce.
        tracer.active = False
        expected = workload.warmup()
        if reference is not None:
            workloads.compare(expected, reference, "reference")
        if args.record_reference:
            record_reference(args.workload, args.seed, expected)
        tally(expected)

        # A traced run alternates untraced and traced passes; the difference
        # of their medians is the tracing overhead.
        walls: list[float] = []
        traced_walls: list[float] = []
        while sum(walls) + sum(traced_walls) < args.seconds or not walls or (args.trace and not traced_walls):
            tracer.active = bool(args.trace) and len(walls) > len(traced_walls)
            clock = tracing.Clock(tracer)
            try:
                ops = workload.run_pass(clock)
            except Exception as exc:
                ops = [workloads.failed_op(exc) for _ in range(workload.ops_per_pass)]
            workloads.compare(ops, expected, "warm-up pass")
            tally(ops)
            (traced_walls if tracer.active else walls).append(clock.elapsed)
        tracer.active = False
    finally:
        tracer.restore()
        workload.close()

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, SETUP_ROUNDS, len(traced_walls))
        metrics["tracing.overhead_s"] = tracing.median(traced_walls) - tracing.median(walls)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": tracing.median(setup),
            "wall_s": tracing.median(walls),
            "ops_per_s": tracing.median([workload.ops_per_pass / w for w in walls]),
            "peak_rss_mb": peak_rss_mb(workload.uses_pool),
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    passes = len(walls) + len(traced_walls)
    print(f"{args.workload}: seed {args.seed}, {SETUP_ROUNDS} set-up rounds, {passes} timed passes "
          f"({len(traced_walls)} traced) of {workload.ops_per_pass} ops")
    for name, value in metrics.items():
        baseline = BASELINE_SHARES.get(name) if args.workload == "sweep" else None
        note = f"  (ROADMAP baseline {baseline:.0%})" if baseline is not None else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_rate':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted} ops)")
    if not args.trace:
        print(f"  {'error_ratio':34s} {workload.error_ratio:14.6g} ratio (forecast/repeat-last RMSE; fixed by the seed)")
    for problem in problems[:5]:
        print(f"  problem: {problem}")
    if workload.unparsed_delays:
        print(f"  note: {workload.unparsed_delays} delivered rows of outcomes.csv have a delay_ms that is not a "
              "plain float (numpy repr); a program defect, not counted in fail_rate")
    print("env " + json.dumps(environment()))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process so that its peak memory and
    set-up time are its own; one table of the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':34s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    for metric in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric:34s}" + "".join(f"{r['metrics'][metric]['value']:14.6g}" for r in results.values()) + f"  {unit}")
    print(f"{'fail_rate':34s}" + "".join(f"{r['failed'] / r['attempted']:14.6g}" for r in results.values()) + "  ratio")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=10.0, help="time to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's warm-up ops as the reference for its seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    bench = ROOT / "BENCHMARK.json"
    if not bench.exists():
        return fail(f"{bench} not found")
    spec = json.loads(bench.read_text())
    if args.workload is None:
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
