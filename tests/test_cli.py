"""Command-line workflows: generation, training, simulation, sweeps."""

import hashlib
import json
import subprocess
import sys
import warnings

import pytest

from foreco import cli, evaluation
from foreco.channel import ChannelConfig, InterferenceParams, channel_config_to_dict
from foreco.cli import main
from foreco.core import read_trace_csv, write_trace_csv
from foreco.forecasting import fit_var_ols, load_model


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_channel(path, p_if=0.0, t_if=0.0, n_stations=1, seed=7, queue_cap=50):
    doc = {
        "mac": {},
        "interference": {"p_if": p_if, "t_if_slots": t_if, "n_stations": n_stations},
        "queue_cap": queue_cap,
        "period_ms": 20.0,
        "transport_bound_ms": 0.0,
        "seed": seed,
    }
    path.write_text(json.dumps(doc))


@pytest.fixture()
def trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    rc = main(["gen-trace", "--profile", "pick-and-place", "--duration-s", "30",
               "--seed", "5", "--out", str(path)])
    assert rc == 0
    return path


class TestGenTrace:
    def test_constant_profile_rows_identical(self, tmp_path):
        out = tmp_path / "const.csv"
        assert main(["gen-trace", "--profile", "constant", "--duration-s", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        values = {r.split(",", 1)[1] for r in rows}
        assert len(values) == 1

    def test_row_count_from_duration(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["gen-trace", "--profile", "sine-mix", "--duration-s", "30",
              "--seed", "2", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 1 + 1500  # header + 30s at 20ms

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["gen-trace", "--profile", "pick-and-place", "--duration-s", "5",
                  "--seed", "9", "--out", str(out)])
        assert sha(a) == sha(b)

    def test_readable_back(self, trace_csv):
        tr = read_trace_csv(trace_csv)
        assert len(tr) == 1500
        assert tr.dim == 6


class TestTrain:
    def test_auto_lag_recovers_order_one(self, tmp_path):
        from conftest import var_trace
        from foreco.core import write_trace_csv

        tr, _ = var_trace(3, 1, 5000, seed=1, noise=0.1)
        trace = tmp_path / "var1.csv"
        write_trace_csv(tr, trace)
        model_path = tmp_path / "model.json"
        rc = main(["train", "--trace", str(trace), "--lag", "auto", "--max-lag", "5",
                   "--out", str(model_path)])
        assert rc == 0
        report = json.loads((tmp_path / "model.json.aic.json").read_text())
        assert report["best_lag"] == 1
        assert len(report["aic"]) == 5
        assert len(report["likelihood_ratios"]) == 4

    def test_auto_lag_too_large_for_the_data_exits_3_with_data_error(self, tmp_path, capsys):
        trace = tmp_path / "short.csv"
        assert main(["gen-trace", "--profile", "pick-and-place", "--duration-s", "2",
                     "--seed", "1", "--out", str(trace)]) == 0
        model_path = tmp_path / "m.json"
        rc = main(["train", "--trace", str(trace), "--lag", "auto", "--max-lag", "40",
                   "--out", str(model_path)])
        assert rc == 3
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"]["kind"] == "data"
        assert "100 samples" in doc["error"]["message"]
        assert "need at least 287" in doc["error"]["message"]
        assert not model_path.exists()

    def test_missing_trace_exits_2_with_io_error(self, tmp_path, capsys):
        rc = main(["train", "--trace", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err_lines = capsys.readouterr().err.strip().splitlines()
        doc = json.loads(err_lines[-1])
        assert doc["error"]["kind"] == "io"

    def test_adam_zero_epochs_warns_and_zeroes(self, trace_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        rc = main(["train", "--trace", str(trace_csv), "--lag", "2", "--trainer", "adam",
                   "--epochs", "0", "--out", str(model_path)])
        assert rc == 0
        assert "zero-initialized" in capsys.readouterr().err
        doc = json.loads(model_path.read_text())
        assert all(c == 0.0 for c in doc["coeffs"])
        assert doc["trainer"] == "adam"

    def test_fixed_lag_report(self, trace_csv, tmp_path):
        model_path = tmp_path / "m.json"
        rc = main(["train", "--trace", str(trace_csv), "--lag", "3",
                   "--out", str(model_path)])
        assert rc == 0
        report = json.loads((tmp_path / "m.json.aic.json").read_text())
        assert report["lags"] == [3]
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert str(model_path) in manifest["outputs"]

    def test_overflowing_ratios_are_written_as_inf_without_a_warning(self, trace_csv, tmp_path):
        model_path = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--trace", str(trace_csv), "--lag", "auto", "--max-lag", "4",
                       "--out", str(model_path)])
        assert rc == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        report = json.loads((tmp_path / "m.json.aic.json").read_text())
        assert "inf" in [entry["ratio"] for entry in report["likelihood_ratios"]]

    def test_source_date_epoch_pins_trained_at(self, trace_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["train", "--trace", str(trace_csv), "--lag", "2", "--out", str(out)])
        assert json.loads(a.read_text()) == json.loads(b.read_text())


class TestTrainReusesTheLagSearch:
    """train --lag auto solves the chosen order from the lag search's own
    factorisation only where that is the refit's design; the model is the
    refit's either way."""

    def train_auto(self, trace_csv, out, *flags):
        assert main(["train", "--trace", str(trace_csv), "--lag", "auto", *flags, "--out", str(out)]) == 0
        return json.loads(out.with_suffix(".json.aic.json").read_text())["best_lag"]

    @pytest.mark.parametrize("max_lag", [2, 4])
    def test_chosen_max_lag_writes_the_fixed_lag_model(self, trace_csv, tmp_path, monkeypatch, max_lag):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        auto, fixed = tmp_path / "auto.json", tmp_path / "fixed.json"
        assert self.train_auto(trace_csv, auto, "--max-lag", str(max_lag)) == max_lag
        assert main(["train", "--trace", str(trace_csv), "--lag", str(max_lag), "--out", str(fixed)]) == 0
        assert auto.read_bytes() == fixed.read_bytes()

    def test_ridge_refits(self, trace_csv, tmp_path):
        out = tmp_path / "m.json"
        best = self.train_auto(trace_csv, out, "--max-lag", "4", "--ridge", "0.1")
        assert best == 4
        assert_same_model(load_model(out), fit_var_ols(read_trace_csv(trace_csv), best, ridge=0.1))

    def test_chosen_lag_below_the_max_refits(self, tmp_path):
        from conftest import var_trace

        trace, out = tmp_path / "var1.csv", tmp_path / "m.json"
        write_trace_csv(var_trace(3, 1, 3000, seed=1, noise=0.1)[0], trace)
        best = self.train_auto(trace, out, "--max-lag", "3")
        assert best == 1
        assert_same_model(load_model(out), fit_var_ols(read_trace_csv(trace), best))


def assert_same_model(a, b):
    assert (a.dim, a.lag) == (b.dim, b.lag)
    for x, y in ((a.bias, b.bias), (a.coeffs, b.coeffs), (a.residual_cov, b.residual_cov)):
        assert x.tobytes() == y.tobytes()


class TestMalformedTrace:
    GOOD = "t_ms,j1,j2\n0.000000,0.1,0.2\n20.000000,0.3,0.4\n"

    @pytest.mark.parametrize("row", [
        "40.000000,0.5",           # ragged row
        "40.000000,0.5,abc",       # non-numeric cell
        "40.000000,nan,0.6",       # not finite
        "45.000000,0.5,0.6",       # off the fixed-period schedule
        "1e306,0.5,0.6",           # overflows microseconds
    ])
    def test_train_exits_3_with_data_error(self, tmp_path, capsys, row):
        trace = tmp_path / "bad.csv"
        trace.write_text(self.GOOD + row + "\n")
        rc = main(["train", "--trace", str(trace), "--lag", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 3
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"]["kind"] == "data"
        assert str(trace) in doc["error"]["message"]


def constant_trace_and_model(tmp_path, lag=1):
    """A constant 6-joint trace, whose step limits are 1e-9 times the margin,
    and a zero lag-lag model of its dimension."""
    trace = tmp_path / "constant.csv"
    assert main(["gen-trace", "--profile", "constant", "--duration-s", "2", "--seed", "0", "--out", str(trace)]) == 0
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"dim": 6, "lag": lag, "bias": [0.0] * 6, "coeffs": [0.0] * (36 * lag),
                                 "residual_cov": [float(i == j) for i in range(6) for j in range(6)]}))
    return trace, model


class TestMalformedConfig:
    """Channel JSON, sweep spec and model JSON inputs that must fail as typed
    config errors (exit 3) naming the file and the field, never as internal
    ones."""

    SPEC = {"probs": [0.5], "durations": [2.0], "robot_counts": [5], "repetitions": 1,
            "channel": {}, "policies": ["repeat-last"]}
    MODEL = {"dim": 6, "lag": 1, "bias": [0.0] * 6, "coeffs": [0.0] * 36,
             "residual_cov": [float(i == j) for i in range(6) for j in range(6)]}

    @pytest.mark.parametrize("command, doc, field", [
        ("simulate", {"mac": {"bogus": 1}}, "mac.bogus"),
        ("simulate", {"interference": {"n_stations": 2.5}}, "interference.n_stations"),
        ("simulate", {"queue_cap": "50"}, "queue_cap"),
        ("simulate", {"bogus": 1}, "bogus"),
        ("simulate", {"seed": -1}, "seed"),
        ("simulate", [1, 2], "expected an object"),
        ("sweep", dict(SPEC, probs="0.5"), "probs"),
        ("sweep", dict(SPEC, durations=[]), "durations"),
        ("sweep", dict(SPEC, robot_counts=[5, "7"]), "robot_counts[1]"),
        ("sweep", dict(SPEC, robot_counts=[2.5]), "robot_counts[0]"),
        ("sweep", dict(SPEC, probs=[True]), "probs[0]"),
        ("sweep", dict(SPEC, repetitions="2"), "repetitions"),
        ("sweep", dict(SPEC, master_seed=-1), "master seed"),
        ("sweep", dict(SPEC, policies="repeat-last"), "policies"),
        ("sweep", dict(SPEC, channel={"mac": {"bogus": 1}}), "channel.mac.bogus"),
        ("model", {"dim": 6, "lag": 2}, "bias"),
        ("model", dict(MODEL, coeffs=[0.0] * 35), "coeffs"),
        ("model", [MODEL], "expected an object"),
        ("model", dict(MODEL, bias="abc"), "bias"),
        ("model", dict(MODEL, bias=[0.0] * 5 + ["1"]), "bias[5]"),
        ("model", dict(MODEL, lag=1.0), "lag"),
        ("model", dict(MODEL, bogus=1), "bogus"),
        ("sweep", dict(SPEC, policies=["teleport"]), "policies"),
        ("sweep", dict(SPEC, bogus=1), "bogus: unknown key"),
        ("sweep", {k: v for k, v in SPEC.items() if k != "probs"}, "probs: missing key"),
        ("sweep", dict(SPEC, probs=[0.5, 0.5], repetitions=2), "probs"),
        ("simulate", {"mac": {"max_rtx": 1100, "max_window_exp": 1100}}, "max_rtx=1100"),
        ("sweep", dict(SPEC, channel={"period_ms": 1e308}), "channel.period_ms"),
        ("sweep", dict(SPEC, tolerance_ms=-1), "tolerance_ms"),
        ("sweep", dict(SPEC, record_len=0), "record_len"),
        ("sweep", dict(SPEC, step_limit_margin=0), "step_limit_margin"),
        ("sweep", dict(SPEC, step_limit_margin=-1), "step_limit_margin"),
        ("sweep", dict(SPEC, robot_counts=[0]), "robot_counts[0]"),
        ("sweep", dict(SPEC, probs=[-1]), "probs[0]"),
        ("sweep", dict(SPEC, probs=[1e308]), "probs[0]"),
        ("sweep", dict(SPEC, durations=[-1]), "durations[0]"),
        ("sweep", dict(SPEC, model=None, policies=["forecast"]), "model"),
        ("simulate", {"mac": {"w0": 1}}, "mac.w0"),
        ("simulate", {"mac": {"t_s_ms": -1}}, "mac.t_s_ms"),
        ("simulate", {"interference": {"n_stations": 1000}}, "interference.n_stations"),
        ("simulate", {"interference": {"n_stations": 10**30}}, "interference.n_stations"),
        ("sweep", dict(SPEC, robot_counts=[5, 1000]), "robot_counts[1]"),
        ("simulate", {"interference": {"n_stations": 10**400}}, "interference.n_stations"),
        ("simulate", {"mac": {"t_s_ms": 10**400}}, "mac.t_s_ms"),
        ("simulate", {"interference": {"p_if": 1.0, "t_if_slots": 1e300}}, "interference: "),
        ("sweep", dict(SPEC, probs=[0.5, 1.0], durations=[2.0, 1e300]), "durations[1]"),
        ("sweep", dict(SPEC, channel={"interference": {"n_stations": 0}}), "channel.interference.n_stations"),
        ("model", dict(MODEL, stacked=[0.0] * 36), "stacked: unknown key"),
        ("sweep", dict(SPEC, policies=["drop", "drop"]), "policies"),
        ("simulate", {"period_ms": 10}, "period_ms: trace period 20.0 ms does not match channel period 10 ms"),
        ("sweep", dict(SPEC, channel={"period_ms": 10}), "channel.period_ms: trace period 20.0 ms"),
    ])
    def test_exits_3_with_config_error(self, trace_csv, tmp_path, capsys, command, doc, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        if command == "simulate":
            argv = ["simulate", "--trace", str(trace_csv), "--channel", str(path),
                    "--policy", "repeat-last", "--out-dir", str(out_dir)]
        elif command == "model":
            channel = tmp_path / "channel.json"
            write_channel(channel)
            argv = ["simulate", "--trace", str(trace_csv), "--channel", str(channel),
                    "--model", str(path), "--out-dir", str(out_dir)]
        else:
            argv = ["sweep", "--trace", str(trace_csv), "--spec", str(path), "--jobs", "1",
                    "--out-dir", str(out_dir)]
        rc = main(argv)
        assert rc == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert error["message"].startswith(f"{path}: ")
        assert field in error["message"]
        assert not out_dir.exists()


class TestUndecodableInput:
    """Input files that are not UTF-8 text, or not JSON, fail with exit 3
    naming the file: a trace CSV as a data error, a JSON input as a format
    error."""

    @pytest.mark.parametrize("command, content, kind", [
        ("trace", b"t_ms,j1\n0,\xff\xfe\n20,1\n", "data"),
        ("trace", b"t_ms,j\xe9\n0,0.1\n20,0.2\n", "data"),
        ("channel", b'{"queue_cap": 5, "seed": "\xff"}', "format"),
        ("channel", b'{"queue_cap": 5', "format"),
        ("spec", b'{"probs": [0.5], "\xc3": 1}', "format"),
        ("model", b'\xfe\xff{"dim": 6}', "format"),
    ])
    def test_exits_3_naming_the_file(self, trace_csv, tmp_path, capsys, command, content, kind):
        path = tmp_path / "input.bin"
        path.write_bytes(content)
        out = tmp_path / "out"
        channel = tmp_path / "channel.json"
        write_channel(channel)
        if command == "trace":
            argv = ["train", "--trace", str(path), "--lag", "1", "--out", str(out / "m.json")]
        elif command == "channel":
            argv = ["simulate", "--trace", str(trace_csv), "--channel", str(path),
                    "--policy", "repeat-last", "--out-dir", str(out)]
        elif command == "model":
            argv = ["simulate", "--trace", str(trace_csv), "--channel", str(channel),
                    "--model", str(path), "--out-dir", str(out)]
        else:
            argv = ["sweep", "--trace", str(trace_csv), "--spec", str(path), "--jobs", "1",
                    "--out-dir", str(out)]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == kind
        assert error["message"].startswith(f"{path}: ")
        assert not out.exists()


class TestOutOfRangeFlags:
    """Flag values argparse accepts that the program must reject as typed
    config errors (exit 3) before it writes anything."""

    @pytest.mark.parametrize("command, flags, word", [
        ("gen-trace", ["--seed", "-1"], "seed"),
        ("gen-trace", ["--period-ms", "0"], "period"),
        ("gen-trace", ["--period-ms", "nan"], "period"),
        ("gen-trace", ["--dim", "-1"], "dim"),
        ("gen-trace", ["--duration-s", "nan"], "duration"),
        ("gen-trace", ["--duration-s", "inf"], "duration"),
        ("simulate", ["--tolerance-ms", "nan"], "tolerance"),
        ("simulate", ["--step-limit-margin", "nan"], "step limits"),
        ("train", ["--ridge", "-1"], "ridge"),
        ("train", ["--ridge", "nan"], "ridge"),
        ("train", ["--trainer", "adam", "--epsilon", "inf"], "epsilon"),
        ("train", ["--trainer", "adam", "--step-size", "nan"], "step size"),
        ("gen-trace", ["--duration-s", "1e300"], "duration 1e+300 s is too long"),
        ("gen-trace", ["--period-ms", "1e-300"], "rounds to less than the 1 us"),
        ("gen-trace", ["--period-ms", "0.0004"], "rounds to less than the 1 us"),
        ("gen-trace", ["--period-ms", "0.0006"], "not a whole number of microseconds"),
        ("gen-trace", ["--period-ms", "20.0004"], "not a whole number of microseconds"),
        ("gen-trace", ["--period-ms", "1e308"], "period below 2**62 us"),
        ("gen-trace", ["--dim", "9223372036854775808"], "dim 9223372036854775808"),
    ])
    def test_exits_3_with_config_error(self, trace_csv, tmp_path, capsys, command, flags, word):
        out = tmp_path / "out"
        if command == "gen-trace":
            argv = ["gen-trace", "--profile", "constant", "--duration-s", "1", "--seed", "0",
                    *flags, "--out", str(out / "t.csv")]
        elif command == "train":
            argv = ["train", "--trace", str(trace_csv), "--lag", "2", *flags, "--out", str(out / "m.json")]
        else:
            model, channel = tmp_path / "m.json", tmp_path / "ch.json"
            assert main(["train", "--trace", str(trace_csv), "--lag", "2", "--out", str(model)]) == 0
            write_channel(channel)
            argv = ["simulate", "--trace", str(trace_csv), "--channel", str(channel), "--model", str(model),
                    *flags, "--out-dir", str(out)]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert word in error["message"]
        assert not out.exists()


def channel_leaves(doc, path=()):
    """The (path, value) of every number in a channel JSON document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from channel_leaves(value, path + (key,))
        else:
            yield path + (key,), value


CHANNEL = channel_config_to_dict(
    ChannelConfig(interference=InterferenceParams(p_if=0.5, t_if_slots=4.0, n_stations=5), seed=7)
)
EXTREMES = (1e308, 1e-320, 10**30, 2**62, 2**63)


class TestChannelExtremes:
    """Every number of the channel JSON at each extreme magnitude (floats
    only where the field is a float): simulate exits 0, 2 or 3, never with
    an internal error."""

    @pytest.fixture(scope="class")
    def short_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("extremes") / "trace.csv"
        assert main(["gen-trace", "--profile", "pick-and-place", "--duration-s", "1",
                     "--seed", "0", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=f"{'.'.join(path)}={value!r}")
        for path, default in channel_leaves(CHANNEL)
        for value in EXTREMES
        if isinstance(default, float) or isinstance(value, int)
    ])
    def test_never_an_internal_error(self, short_trace, tmp_path, capsys, path, value):
        doc = json.loads(json.dumps(CHANNEL))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        channel = tmp_path / "ch.json"
        channel.write_text(json.dumps(doc))
        rc = main(["simulate", "--trace", str(short_trace), "--channel", str(channel),
                   "--policy", "repeat-last", "--out-dir", str(tmp_path / "run")])
        assert rc in (0, 2, 3)
        assert '"kind": "internal"' not in capsys.readouterr().err


class TestOutOfMemory:
    def test_exits_3_with_a_memory_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.63 PiB for an array with shape (230000000000000,)")

        monkeypatch.setattr(cli, "synthetic_trace", refuse)
        out = tmp_path / "t.csv"
        argv = ["gen-trace", "--profile", "pick-and-place", "--duration-s", "4.6e12", "--seed", "0",
                "--out", str(out)]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "memory"
        assert error["message"] == "out of memory: Unable to allocate 1.63 PiB for an array with shape (230000000000000,)"
        assert not out.exists()


class TestSimulate:
    def test_all_lost_channel_writes_outputs_with_null_rmse(self, trace_csv, tmp_path, capsys):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({"mac": {"max_rtx": 2}, "a_j": [0.0, 0.0, 1.0], "seed": 1}))
        out_dir = tmp_path / "run"
        rc = main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
                   "--policy", "repeat-last", "--out-dir", str(out_dir)])
        assert rc == 0
        assert "rmse=null" in capsys.readouterr().out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["rmse"] is None
        assert "dropped" in summary["rmse_note"]
        assert summary["stats"]["dropped"] == 1500
        assert json.loads((out_dir / "stats.json").read_text())["dropped"] == 1500
        assert (out_dir / "executed.csv").read_text().splitlines() == ["seq,provenance"]
        rows = (out_dir / "outcomes.csv").read_text().splitlines()[1:]
        assert len(rows) == 1500 and all(r.endswith(",lost,,,rtx-exceeded") for r in rows)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 4

    def test_large_attempt_budget_runs(self, trace_csv, tmp_path):
        # the per-count delays come from one cumulative table, so a budget
        # of 4,000 attempts costs no more than the default one
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({"mac": {"max_rtx": 4000}}))
        assert main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
                     "--policy", "repeat-last", "--out-dir", str(tmp_path / "run")]) == 0

    def test_lossless_channel_passes_everything(self, trace_csv, tmp_path):
        ch = tmp_path / "ch.json"
        write_channel(ch)  # single station, no interference
        out_dir = tmp_path / "run"
        rc = main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
                   "--policy", "repeat-last", "--out-dir", str(out_dir)])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["stats"]["on_time"] == 1500
        assert summary["rmse"] == 0.0

    def test_same_seed_identical_outputs(self, trace_csv, tmp_path):
        ch = tmp_path / "ch.json"
        write_channel(ch, p_if=0.5, t_if=16.0, n_stations=15, seed=13)
        model_path = tmp_path / "m.json"
        main(["train", "--trace", str(trace_csv), "--lag", "3", "--out", str(model_path)])
        digests = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            rc = main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
                       "--model", str(model_path), "--policy", "forecast",
                       "--out-dir", str(out_dir)])
            assert rc == 0
            digests.append({
                f.name: sha(f) for f in sorted(out_dir.iterdir()) if f.name != "manifest.json"
            })
        assert digests[0] == digests[1]

    def test_forecast_halves_error_on_jammed_channel(self, trace_csv, tmp_path):
        ch = tmp_path / "ch.json"
        write_channel(ch, p_if=0.8, t_if=16.0, n_stations=15, seed=21)
        model_path = tmp_path / "m.json"
        main(["train", "--trace", str(trace_csv), "--lag", "8", "--out", str(model_path)])
        errors = {}
        for policy in ("forecast", "repeat-last"):
            out_dir = tmp_path / policy
            rc = main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
                       "--model", str(model_path), "--policy", policy,
                       "--step-limit-margin", "1.5", "--out-dir", str(out_dir)])
            assert rc == 0
            errors[policy] = json.loads((out_dir / "summary.json").read_text())["rmse"]
        assert errors["forecast"] <= 0.5 * errors["repeat-last"]

    def test_forecast_without_model_is_config_error(self, trace_csv, tmp_path, capsys):
        ch = tmp_path / "ch.json"
        write_channel(ch)
        rc = main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
                   "--policy", "forecast", "--out-dir", str(tmp_path / "x")])
        assert rc == 3
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"]["kind"] == "config"

    def test_lag_zero_model_forecasts(self, trace_csv, tmp_path):
        # a lag-0 model predicts its bias; its coeffs list is empty
        ch, model_path = tmp_path / "ch.json", tmp_path / "m.json"
        write_channel(ch, p_if=0.8, t_if=16.0, n_stations=15, seed=21)
        assert main(["train", "--trace", str(trace_csv), "--lag", "0", "--out", str(model_path)]) == 0
        assert json.loads(model_path.read_text())["coeffs"] == []
        out_dir = tmp_path / "run"
        assert main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
                     "--model", str(model_path), "--policy", "forecast", "--out-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "stats.json").read_text())["forecast"] > 0

    @pytest.mark.parametrize("flags, message", [
        (["--step-limit-margin", "1e-320"], "--step-limit-margin: step limits must be positive, got [0.0"),
        (["--record-len", "1"], "--record-len: model needs 2 past commands but the record keeps 1"),
    ])
    def test_flags_the_model_cannot_run_with_are_named(self, tmp_path, capsys, flags, message):
        trace, model = constant_trace_and_model(tmp_path, lag=2)
        channel = tmp_path / "ch.json"
        write_channel(channel)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--trace", str(trace), "--channel", str(channel), "--model", str(model),
                     *flags, "--out-dir", str(out_dir)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert error["message"].startswith(message)
        assert not out_dir.exists()

    def test_manifest_lists_outputs_with_correct_digests(self, trace_csv, tmp_path):
        ch = tmp_path / "ch.json"
        write_channel(ch)
        out_dir = tmp_path / "run"
        main(["simulate", "--trace", str(trace_csv), "--channel", str(ch),
              "--policy", "drop", "--out-dir", str(out_dir)])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {str(trace_csv), str(ch)}
        for path_str, digest in manifest["outputs"].items():
            from pathlib import Path

            assert sha(Path(path_str)) == digest


class TestSweepCli:
    def write_spec(self, tmp_path, trace_csv, model_path):
        spec = {
            "probs": [0.0, 0.8],
            "durations": [2.0, 16.0],
            "robot_counts": [5],
            "repetitions": 2,
            "master_seed": 3,
            "channel": {"mac": {}, "interference": {}, "queue_cap": 50,
                        "period_ms": 20.0, "seed": 0},
            "policies": ["forecast", "repeat-last"],
            "model": model_path.name,
            "record_len": 20,
            "step_limit_margin": 1.5,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return path

    @pytest.fixture()
    def sweep_inputs(self, trace_csv, tmp_path):
        model_path = tmp_path / "model.json"
        main(["train", "--trace", str(trace_csv), "--lag", "8", "--out", str(model_path)])
        spec = self.write_spec(tmp_path, trace_csv, model_path)
        return trace_csv, spec

    def test_result_shape(self, sweep_inputs, tmp_path):
        trace_csv, spec = sweep_inputs
        out_dir = tmp_path / "sw"
        rc = main(["sweep", "--trace", str(trace_csv), "--spec", str(spec),
                   "--jobs", "1", "--out-dir", str(out_dir)])
        assert rc == 0
        doc = json.loads((out_dir / "sweep_result.json").read_text())
        assert len(doc["cells"]) == 4
        assert doc["policies"] == ["forecast", "repeat-last"]
        for cell in doc["cells"]:
            for entry in cell["rmse"].values():
                assert len(entry["values"]) == 2
        assert (out_dir / "rmse_forecast_5.csv").exists()
        assert (out_dir / "rmse_repeat-last_5.csv").exists()
        assert not list(out_dir.glob("*.tmp"))  # atomic writes leave no debris

    def test_record_follows_the_model_as_in_simulate(self, trace_csv, tmp_path, monkeypatch):
        model = tmp_path / "model.json"
        assert main(["train", "--trace", str(trace_csv), "--lag", "25", "--out", str(model)]) == 0
        channel = tmp_path / "ch.json"
        write_channel(channel, p_if=0.8, t_if=16.0, n_stations=15)
        assert main(["simulate", "--trace", str(trace_csv), "--channel", str(channel),
                     "--model", str(model), "--out-dir", str(tmp_path / "run")]) == 0
        assert json.loads((tmp_path / "run" / "summary.json").read_text())["record_len"] == 25

        seen = []
        real_run_sweep = cli.run_sweep

        def run_sweep(trace, grid, template, policies, jobs):
            seen.extend(policies)
            return real_run_sweep(trace, grid, template, policies, jobs=jobs)

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"probs": [0.8], "durations": [16.0], "robot_counts": [15],
                                    "repetitions": 1, "channel": {}, "model": "model.json"}))
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec), "--jobs", "1",
                     "--out-dir", str(tmp_path / "sw")]) == 0
        assert [(p.label, p.cfg.record_len) for p in seen] == [("forecast", 25), ("repeat-last", 25)]

    def test_repetitions_beyond_the_result_bound_fail_before_a_seed(self, trace_csv, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a seed was drawn")

        monkeypatch.setattr(evaluation, "_task_seed", refuse)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"probs": [0.5], "durations": [2.0], "robot_counts": [5],
                                    "repetitions": 10**10, "channel": {}, "policies": ["repeat-last"]}))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec), "--jobs", "1",
                     "--out-dir", str(out_dir)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert "repetitions: 10000000000 x 1 cells x 1 policies" in error["message"]
        assert not out_dir.exists()

    def test_grid_check_ignores_the_template_interference(self, trace_csv, tmp_path):
        # the cells replace the template's p_if, t_if_slots and n_stations, so a template that
        # would fail every attempt at 82 stations does not fail the grid check
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"probs": [0.5], "durations": [2.0], "robot_counts": [82], "repetitions": 1,
                                    "channel": {"interference": {"p_if": 1.0, "t_if_slots": 1e16}},
                                    "policies": ["repeat-last"]}))
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec), "--jobs", "1",
                     "--out-dir", str(tmp_path / "sw")]) == 0

    def test_spec_checked_before_the_model_is_read(self, trace_csv, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the model was read")

        monkeypatch.setattr(cli, "load_model", refuse)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"probs": [0.5], "durations": [2.0], "robot_counts": [5], "record_len": 0,
                                    "channel": {}, "model": "missing.json"}))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec), "--jobs", "1",
                     "--out-dir", str(out_dir)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["message"] == f"{spec}: record_len: record length must be >= 1, got 0"
        assert not out_dir.exists()

    def test_record_shorter_than_the_model_names_the_spec(self, trace_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--trace", str(trace_csv), "--lag", "6", "--out", str(model)]) == 0
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"probs": [0.5], "durations": [2.0], "robot_counts": [5], "record_len": 1,
                                    "channel": {}, "model": "model.json"}))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec), "--jobs", "1",
                     "--out-dir", str(out_dir)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert error["message"] == f"{spec}: record_len: model needs 6 past commands but the record keeps 1"
        assert not out_dir.exists()

    def test_step_limits_that_underflow_name_the_spec(self, tmp_path, capsys):
        trace, model = constant_trace_and_model(tmp_path)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"probs": [0.5], "durations": [2.0], "robot_counts": [5], "channel": {},
                                    "model": model.name, "step_limit_margin": 1e-320}))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--trace", str(trace), "--spec", str(spec), "--jobs", "1",
                     "--out-dir", str(out_dir)]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert error["kind"] == "config"
        assert error["message"].startswith(f"{spec}: step_limit_margin: step limits must be positive, got [0.0")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, jobs", [([], 3), (["--jobs", "2"], 2), (["--jobs", "1000"], 3)])
    def test_jobs_default_to_and_stop_at_the_usable_cpus(self, trace_csv, tmp_path, monkeypatch, flags, jobs):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        seen = []
        real_run_sweep = cli.run_sweep

        def run_sweep(trace, grid, template, policies, jobs):
            seen.append(jobs)
            return real_run_sweep(trace, grid, template, policies, jobs=1)

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"probs": [0.5], "durations": [4.0], "robot_counts": [5], "repetitions": 1,
                                    "channel": {}, "policies": ["repeat-last"]}))
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec), *flags,
                     "--out-dir", str(tmp_path / "sw")]) == 0
        assert seen == [jobs]

    def test_printed_worst_cell_skips_cells_below_the_error_floor(self, sweep_inputs, tmp_path, capsys):
        trace_csv, spec = sweep_inputs
        # At master seed 9 the (0.2, 1.0) cell loses a few commands: its
        # repeat-last error is positive but below 1e-3, and its forecast /
        # repeat-last ratio is above the material cell's.
        doc = json.loads(spec.read_text())
        doc.update(probs=[0.2, 0.8], durations=[1.0, 16.0], master_seed=9)
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec),
                     "--jobs", "1", "--out-dir", str(out_dir)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        ratios = {}
        for cell in json.loads((out_dir / "sweep_result.json").read_text())["cells"]:
            baseline = cell["rmse"]["repeat-last"]["mean"]
            if baseline > 0.0:
                ratios[cell["rmse"]["forecast"]["mean"] / baseline] = baseline
        floored = max(ratio for ratio, baseline in ratios.items() if baseline > 1e-3)
        assert f"{max(ratios):.4f}" != f"{floored:.4f}"
        assert printed == f"sweep done: worst-cell forecast/repeat-last mean-RMSE ratio = {floored:.4f}"

    def test_no_cell_above_the_error_floor_prints_no_ratio(self, sweep_inputs, tmp_path, capsys):
        # probability 0: no command is lost, so every cell's repeat-last
        # error is 0 and no ratio exists; 0.0000 would read as a perfect forecast
        trace_csv, spec = sweep_inputs
        doc = json.loads(spec.read_text())
        doc.update(probs=[0.0], durations=[16.0])
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "sw"
        assert main(["sweep", "--trace", str(trace_csv), "--spec", str(spec),
                     "--jobs", "1", "--out-dir", str(out_dir)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert printed == "sweep done: no cell has a repeat-last mean RMSE above the 0.001 floor"
        cells = json.loads((out_dir / "sweep_result.json").read_text())["cells"]
        assert len(cells) == 1 and cells[0]["rmse"]["repeat-last"]["mean"] <= 1e-3

    def test_rerun_reproduces_results(self, sweep_inputs, tmp_path):
        trace_csv, spec = sweep_inputs
        digests = []
        for name in ("s1", "s2"):
            out_dir = tmp_path / name
            rc = main(["sweep", "--trace", str(trace_csv), "--spec", str(spec),
                       "--jobs", "1", "--out-dir", str(out_dir)])
            assert rc == 0
            digests.append(sha(out_dir / "sweep_result.json"))
        assert digests[0] == digests[1]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "foreco.cli", "gen-trace", "--profile", "constant",
             "--duration-s", "1", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_rejected_before_any_work(self, tmp_path, jobs):
        out_dir = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--trace", str(tmp_path / "missing.csv"), "--spec", "x",
                  "--jobs", jobs, "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("lag", ["x", "2.5"])
    def test_non_integer_lag_rejected_before_any_work(self, tmp_path, lag):
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--trace", str(tmp_path / "missing.csv"), "--lag", lag, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unknown_policy_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--trace", "x", "--channel", "y",
                  "--policy", "teleport", "--out-dir", "z"])
