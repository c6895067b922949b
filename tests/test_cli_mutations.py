"""Seeded mutations of every input format, run through the CLI.

Each case changes one input of the golden pipeline (tests/test_golden.py):
in the sweep spec, the model JSON or the channel JSON it replaces a value
or a whole object or list with one of VALUES, deletes a key or list entry,
or adds one; in the trace CSV it inserts, deletes or replaces bytes. main()
runs in-process under a SIGALRM deadline. It must exit 0, 2 or 3, never
with an internal error, and a config error must start with the path of the
JSON file that was changed.
"""

import contextlib
import io
import json
import math
import random
import shutil
import signal

import pytest

from foreco.cli import main

VALUES = (-1, 0, 1e308, -1e308, 1e-320, 10**30, 10**400, "x", None, [1], {"a": 1}, True, math.nan, math.inf)
CHANNEL = {
    "mac": {}, "interference": {"p_if": 0.6, "t_if_slots": 16.0, "n_stations": 15},
    "queue_cap": 50, "period_ms": 20.0, "transport_bound_ms": 0.5, "seed": 23,
}
SPEC = {
    "probs": [0.0, 0.8], "durations": [2.0, 16.0], "robot_counts": [5],
    "repetitions": 2, "master_seed": 3,
    "channel": {"mac": {}, "interference": {}, "queue_cap": 50, "period_ms": 20.0, "seed": 0},
    "policies": ["forecast", "repeat-last"], "model": "model.json",
    "record_len": 20, "step_limit_margin": 1.5,
}
# Bytes a trace mutation inserts or writes over.
CSV_BYTES = b"0123456789.,-+eE\r\n \xff"
CASES = {"spec": 64, "model": 64, "channel": 64, "trace": 64}
DEADLINE_S = 10


class Expired(BaseException):
    """Raised by the alarm; main() catches Exception, so this gets through."""


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise Expired(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def mutate_json(doc, rng: random.Random):
    """A copy of doc with one change in one of its objects or lists, each
    container equally likely, and a description of the change."""
    doc = json.loads(json.dumps(doc))
    containers, stack = [], [doc]
    while stack:
        node = stack.pop()
        containers.append(node)
        stack.extend(v for v in (node.values() if isinstance(node, dict) else node) if isinstance(v, (dict, list)))
    node = rng.choice(containers)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    kind = rng.choice(("replace", "delete", "add") if keys else ("add",))
    value = rng.choice(VALUES)
    if kind == "add" and isinstance(node, dict):
        key = "bogus"
        node[key] = value
    elif kind == "add":
        key = len(node)
        node.append(value)
    else:
        key = rng.choice(keys)
        if kind == "replace":
            node[key] = value
        else:
            del node[key]
    return doc, f"{kind} {key!r}" + ("" if kind == "delete" else f" = {value!r}")


def mutate_bytes(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """data with one run of 1-8 bytes inserted, deleted or replaced."""
    at, n = rng.randrange(len(data)), rng.randint(1, 8)
    new = bytes(rng.choice(CSV_BYTES) for _ in range(n))
    kind = rng.choice(("insert", "delete", "replace"))
    if kind == "insert":
        return data[:at] + new + data[at:], f"insert {new!r} at {at}"
    if kind == "delete":
        return data[:at] + data[at + n:], f"delete {n} bytes at {at}"
    return data[:at] + new + data[at + n:], f"replace {n} bytes at {at} by {new!r}"


def run(argv):
    err = io.StringIO()
    with deadline(DEADLINE_S), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])["error"] if code else None


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """A directory holding the golden pipeline's valid trace, model, channel
    and spec, and those inputs as bytes and documents."""
    d = tmp_path_factory.mktemp("golden")
    assert main(["gen-trace", "--profile", "pick-and-place", "--duration-s", "30",
                 "--seed", "5", "--out", str(d / "trace.csv")]) == 0
    assert main(["train", "--trace", str(d / "trace.csv"), "--lag", "auto", "--max-lag", "6",
                 "--out", str(d / "model.json")]) == 0
    (d / "channel.json").write_text(json.dumps(CHANNEL))
    (d / "spec.json").write_text(json.dumps(SPEC))
    inputs = {"trace": (d / "trace.csv").read_bytes(), "model": json.loads((d / "model.json").read_text()),
              "channel": CHANNEL, "spec": SPEC}
    return d, inputs


@pytest.mark.parametrize("name, case", [(name, case) for name, n in CASES.items() for case in range(n)])
def test_mutated_input_exits_typed(golden, name, case):
    d, inputs = golden
    rng = random.Random(f"{name}-{case}")
    if name == "trace":
        data, what = mutate_bytes(inputs["trace"], rng)
    else:
        doc, what = mutate_json(inputs[name], rng)
        data = json.dumps(doc).encode()
    # the changed input sits next to the valid ones, under its case's name
    changed = d / f"{name}-{case}.{'csv' if name == 'trace' else 'json'}"
    changed.write_bytes(data)
    path = {key: str(d / file) for key, file in
            (("trace", "trace.csv"), ("model", "model.json"), ("channel", "channel.json"), ("spec", "spec.json"))}
    path[name] = str(changed)
    out = d / f"out-{name}-{case}"
    if name == "spec":
        argv = ["sweep", "--trace", path["trace"], "--spec", path["spec"], "--jobs", "1"]
    else:
        argv = ["simulate", "--trace", path["trace"], "--channel", path["channel"], "--model", path["model"],
                "--policy", "forecast", "--step-limit-margin", "1.5"]
    try:
        code, error = run(argv + ["--out-dir", str(out)])
    finally:
        changed.unlink()
        shutil.rmtree(out, ignore_errors=True)
    assert code in (0, 2, 3), (what, error)
    if error is not None:
        assert error["kind"] != "internal", (what, error)
        if error["kind"] == "config" and name != "trace":
            assert error["message"].startswith(f"{changed}: "), (what, error)
