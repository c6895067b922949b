"""Golden digests of the CLI outputs.

The pinned SHA-256 digests were recorded with numpy 2.4.6 on Python 3.11.7
(x86-64, Linux) and SOURCE_DATE_EPOCH=1700000000. Manifests are excluded
because they hold wall time. The outcomes.csv digest is of a file whose
delivered delays are plain float reprs (`0.2558`, not `np.float64(0.2558)`).
A refactor that keeps these digests keeps every output byte of the
gen-trace, train, simulate and sweep pipeline. The six digests of the
outputs that read the fitted model were re-pinned when the fit moved from an
explicit Q to the R factor of [design | targets], and again when that R
moved from one QR to a blocked tall-skinny QR; each move changes only last
bits. tests/test_equivalence.py checks the fit against an explicit-Q oracle
and against a single-QR oracle.
"""

import hashlib
import json

from foreco.cli import main

GOLDEN = {
    "trace.csv": "9f1b2463abf8cb0facd1558ae966414d52653556c6010c44c650de4b6eaddd24",
    "model.json": "e4cfa72959faa40fbedcf12f2f71ab388cf060b3ac4da215448d1be8ffbcc0b9",
    "model.json.aic.json": "d360ad093385a68347f5a5667084927362a89e9ffe2e79b2e9c13f145ca63269",
    "run/outcomes.csv": "257ccdccfd1887c4a2878535eb9af5b454d92a2bc149b873889acca130672cd5",
    "run/executed.csv": "0c400fb07e875133df1953db96c684a22e50235c33be80c7d6e4db8ae17ab1fc",
    "run/stats.json": "302f3a51168ee8c9aae6efd8a0c1a8b53992676eab296a7e5256a15b624a0eb4",
    "run/summary.json": "71590c11867b2b913558a8f549ccc7a82836c3a2f8ef83aa68013441f1ee2801",
    "sweep/sweep_result.json": "8dc3fa7bc8259de4df295e04cf48eea202b4f1562f536db53ede8407792f9b86",
    "sweep/rmse_forecast_5.csv": "7bb0fcd703f802d50d51b046d3f0b18f112a725c7ddb58ab647d833c17dd994a",
    "sweep/rmse_repeat-last_5.csv": "f2873a8e9253fe5793e0d507c54563ac1b75a49f2cb23984013ddc3bac1990a6",
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(tmp_path) -> dict[str, str]:
    trace = tmp_path / "trace.csv"
    assert main(["gen-trace", "--profile", "pick-and-place", "--duration-s", "30",
                 "--seed", "5", "--out", str(trace)]) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--trace", str(trace), "--lag", "auto", "--max-lag", "6",
                 "--out", str(model)]) == 0
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps({
        "mac": {}, "interference": {"p_if": 0.6, "t_if_slots": 16.0, "n_stations": 15},
        "queue_cap": 50, "period_ms": 20.0, "transport_bound_ms": 0.5, "seed": 23,
    }))
    run = tmp_path / "run"
    assert main(["simulate", "--trace", str(trace), "--channel", str(channel),
                 "--model", str(model), "--policy", "forecast", "--out-dir", str(run)]) == 0
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "probs": [0.0, 0.8], "durations": [2.0, 16.0], "robot_counts": [5],
        "repetitions": 2, "master_seed": 3,
        "channel": {"mac": {}, "interference": {}, "queue_cap": 50, "period_ms": 20.0, "seed": 0},
        "policies": ["forecast", "repeat-last"], "model": "model.json",
        "record_len": 20, "step_limit_margin": 1.5,
    }))
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--trace", str(trace), "--spec", str(spec), "--jobs", "1",
                 "--out-dir", str(sweep)]) == 0
    outputs = [trace, model, tmp_path / "model.json.aic.json"]
    outputs += [run / name for name in ("outcomes.csv", "executed.csv", "stats.json", "summary.json")]
    outputs += [sweep / name for name in
                ("sweep_result.json", "rmse_forecast_5.csv", "rmse_repeat-last_5.csv")]
    return {str(path.relative_to(tmp_path)): sha(path) for path in outputs}


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert run_pipeline(tmp_path) == GOLDEN
