"""Error metric, controlled loss bursts and the interference sweep."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from foreco.channel import ChannelConfig, simulate_channel
from foreco.core import RecoveryConfig, Trace
from foreco.errors import ConfigError
from foreco import evaluation
from foreco.evaluation import (
    SweepGrid,
    SweepResult,
    _cell_interference,
    _task_seed,
    controlled_loss_outcomes,
    default_grid,
    rmse,
    run_sweep,
)
from foreco.forecasting import fit_var_ols
from foreco.recovery import PolicyMode, RecoveryPolicy, run_recovery
import foreco


def tiny_grid(reps=2, seed=3):
    return SweepGrid(probs=(0.0, 0.8), durations=(2.0, 16.0), robot_counts=(5,),
                     repetitions=reps, master_seed=seed)


@pytest.fixture(scope="module")
def sweep_setup(pick_and_place_split):
    train, test = pick_and_place_split
    model = fit_var_ols(train, 8, ridge=0.1)
    cfg = RecoveryConfig(record_len=20)
    policies = (
        RecoveryPolicy(PolicyMode.FORECAST, cfg, model,
                       max_step_per_joint=foreco.step_limit_from_trace(train, 1.5)),
        RecoveryPolicy(PolicyMode.REPEAT_LAST, cfg),
    )
    return test, policies


class TestRmse:
    def test_identical_streams_give_zero(self, pick_and_place_split):
        _, test = pick_and_place_split
        assert rmse(test, test) == 0.0

    def test_hand_value_single_differing_slot(self):
        ref = Trace.from_joints(np.zeros((25, 6)), 20.0)
        other = np.zeros((25, 6))
        other[13, 0] = 3.0
        other[13, 1] = 4.0
        got = Trace.from_joints(other, 20.0)
        assert rmse(got, ref) == pytest.approx(1.0)  # sqrt(25 / 25)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = Trace.from_joints(rng.normal(size=(50, 3)), 20.0)
        b = Trace.from_joints(rng.normal(size=(50, 3)), 20.0)
        assert rmse(a, b) == rmse(b, a)

    def test_shape_mismatch_rejected(self):
        a = Trace.from_joints(np.zeros((10, 2)), 20.0)
        b = Trace.from_joints(np.zeros((11, 2)), 20.0)
        with pytest.raises(ConfigError):
            rmse(a, b)

    def test_drop_gaps_hold_last_executed(self):
        ref = Trace.from_joints(np.linspace(0, 1, 10)[:, None], 20.0)
        from foreco.channel import ChannelOutcome, LossCause

        outcomes = [ChannelOutcome.delivery(i, 0.0, 0, 0.0) for i in range(10)]
        outcomes[5] = ChannelOutcome.loss(5, LossCause.RTX_EXCEEDED)
        stream = run_recovery(ref, outcomes, RecoveryPolicy(PolicyMode.DROP))
        # slot 5 held at slot 4's value; one step of a linspace is 1/9
        expected = np.sqrt(((1 / 9) ** 2) / 10)
        assert rmse(stream, ref) == pytest.approx(expected)

    def test_leading_gaps_hold_first_executed(self):
        ref = Trace.from_joints(np.linspace(0, 1, 10)[:, None], 20.0)
        from foreco.channel import ChannelOutcome, LossCause

        outcomes = [ChannelOutcome.loss(i, LossCause.RTX_EXCEEDED) for i in range(10)]
        with pytest.raises(ConfigError):
            rmse(run_recovery(ref, outcomes, RecoveryPolicy(PolicyMode.DROP)), ref)
        outcomes[2] = ChannelOutcome.delivery(2, 0.0, 0, 0.0)
        stream = run_recovery(ref, outcomes, RecoveryPolicy(PolicyMode.DROP))
        assert stream.joints_matrix()[:, 0] == pytest.approx([2 / 9] * 10)


class TestControlledLossOutcomes:
    def test_burst_structure(self, pick_and_place_split):
        _, test = pick_and_place_split
        outcomes = controlled_loss_outcomes(test, 10, 4, seed=5, min_start=20)
        lost_idx = [i for i, o in enumerate(outcomes) if not o.delivered]
        assert len(lost_idx) == 40
        runs = np.split(np.array(lost_idx), np.flatnonzero(np.diff(lost_idx) > 1) + 1)
        assert all(len(r) == 10 for r in runs)
        assert min(r[0] for r in runs) >= 20
        starts = sorted(r[0] for r in runs)
        assert all(b - a >= 30 for a, b in zip(starts, starts[1:]))  # burst + gap

    def test_deterministic(self, pick_and_place_split):
        _, test = pick_and_place_split
        a = controlled_loss_outcomes(test, 5, 3, seed=9)
        b = controlled_loss_outcomes(test, 5, 3, seed=9)
        assert a == b

    def test_too_many_bursts_rejected(self):
        tr = Trace.from_joints(np.zeros((30, 1)), 20.0)
        with pytest.raises(ConfigError):
            controlled_loss_outcomes(tr, 10, 4, seed=0)


class TestRunSweep:
    def test_shape_and_policies(self, sweep_setup):
        test, policies = sweep_setup
        result = run_sweep(test, tiny_grid(), ChannelConfig(seed=0), policies)
        assert set(result.policies) == {"forecast", "repeat-last"}
        assert len(result.cells) == 4
        for key, per_policy in result.cells.items():
            for values in per_policy.values():
                assert len(values) == 2
                assert all(v >= 0 for v in values)

    def test_paired_outcomes_are_identical_across_policies(self, sweep_setup):
        # rerunning the channel with the same derived seed reproduces the
        # outcomes either policy consumed
        test, policies = sweep_setup
        grid = tiny_grid()
        key = grid.cells()[3]
        seed = _task_seed(grid.master_seed, 3, 0)
        cfg = ChannelConfig(interference=_cell_interference(ChannelConfig(seed=0), key), seed=seed)
        assert simulate_channel(test, cfg) == simulate_channel(test, cfg)

    def test_lossless_cell_is_zero_for_both(self, pick_and_place_split, sweep_setup):
        test, policies = sweep_setup
        grid = SweepGrid(probs=(0.0,), durations=(1.0,), robot_counts=(1,),
                         repetitions=2, master_seed=1)
        result = run_sweep(test, grid, ChannelConfig(seed=0), policies)
        key = (1, 0.0, 1.0)
        assert result.mean(key, "forecast") == 0.0
        assert result.mean(key, "repeat-last") == 0.0

    def test_rerun_is_bit_identical(self, sweep_setup):
        test, policies = sweep_setup
        a = run_sweep(test, tiny_grid(), ChannelConfig(seed=0), policies)
        b = run_sweep(test, tiny_grid(), ChannelConfig(seed=0), policies)
        assert a.cells == b.cells

    def test_worker_pool_matches_serial(self, sweep_setup):
        test, policies = sweep_setup
        serial = run_sweep(test, tiny_grid(), ChannelConfig(seed=0), policies, jobs=1)
        parallel = run_sweep(test, tiny_grid(), ChannelConfig(seed=0), policies, jobs=2)
        assert serial.cells == parallel.cells

    def test_values_are_the_per_repetition_errors(self, sweep_setup):
        # pins the (cell index, repetition) -> channel seed mapping and the
        # repetition order of every cell's values
        test, policies = sweep_setup
        grid, template = tiny_grid(reps=3), ChannelConfig(seed=0)
        result = run_sweep(test, grid, template, policies)
        for index, key in enumerate(grid.cells()):
            for rep in range(grid.repetitions):
                cfg = replace(template, interference=_cell_interference(template, key),
                              seed=_task_seed(grid.master_seed, index, rep))
                outcomes = simulate_channel(test, cfg)
                for policy in policies:
                    expected = rmse(run_recovery(test, outcomes, policy), test)
                    assert result.cells[key][policy.label][rep] == expected
            assert all(len(values) == grid.repetitions for values in result.cells[key].values())

    def test_pool_starts_at_most_one_worker_per_run(self, sweep_setup, monkeypatch):
        import concurrent.futures

        asked = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(evaluation, "_WORKER_CTX", None)
        test, policies = sweep_setup
        grid = SweepGrid(probs=(0.0, 0.8), durations=(16.0,), robot_counts=(5,),
                         repetitions=2, master_seed=3)
        pooled = run_sweep(test, grid, ChannelConfig(seed=0), policies, jobs=8)
        # 2 cells x 2 repetitions: one run per batch, one worker per batch
        assert asked == [4]
        assert pooled.cells == run_sweep(test, grid, ChannelConfig(seed=0), policies, jobs=1).cells

    def test_repeat_last_error_grows_with_interference(self, sweep_setup):
        test, policies = sweep_setup
        grid = SweepGrid(probs=(0.0, 0.4, 0.9), durations=(16.0,), robot_counts=(15,),
                         repetitions=3, master_seed=11)
        result = run_sweep(test, grid, ChannelConfig(seed=0), policies)
        means = [result.mean((15, p, 16.0), "repeat-last") for p in grid.probs]
        assert means[0] <= means[1] <= means[2]

    def test_duplicate_policy_labels_rejected(self, sweep_setup):
        test, policies = sweep_setup
        with pytest.raises(ConfigError):
            run_sweep(test, tiny_grid(), ChannelConfig(seed=0),
                      (policies[1], policies[1]))

    def test_mean_matches_retained_values(self, sweep_setup):
        test, policies = sweep_setup
        result = run_sweep(test, tiny_grid(reps=3), ChannelConfig(seed=0), policies)
        for key, per_policy in result.cells.items():
            for policy, values in per_policy.items():
                assert result.mean(key, policy) == pytest.approx(float(np.mean(values)))


def per_cell_sweep(trace, grid, template, policies):
    """The sweep's cells composed one cell at a time from the public
    functions, each repetition seeded from (master seed, cell index,
    repetition) as run_sweep documents."""
    cells = {}
    for index, (robots, prob, duration) in enumerate(grid.cells()):
        interference = replace(template.interference, p_if=prob, t_if_slots=duration, n_stations=robots)
        runs = []
        for rep in range(grid.repetitions):
            state = np.random.SeedSequence([grid.master_seed, index, rep]).generate_state(1, dtype=np.uint64)
            runs.append(simulate_channel(trace, replace(template, interference=interference, seed=int(state[0]))))
        cells[(robots, prob, duration)] = {
            policy.label: [rmse(run_recovery(trace, outcomes, policy), trace) for outcomes in runs]
            for policy in policies
        }
    return cells


@pytest.fixture()
def recording_pool(monkeypatch):
    """ProcessPoolExecutor replaced by an inline pool; the returned dict
    collects the worker counts asked for and the tasks mapped."""
    import concurrent.futures

    record = {"workers": [], "tasks": []}

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            record["workers"].append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            record["tasks"].append(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(evaluation, "_WORKER_CTX", None)
    return record


def recorded_batches(monkeypatch, grid, n_slots, jobs) -> list[range]:
    """The run ranges run_sweep hands to _run_batches for a grid over a
    trace of n_slots commands, the runs themselves not run."""
    batches = []

    def run_batches(trace, template, policies, grid, ranges):
        batches.extend(ranges)
        return np.zeros((len(policies), sum(map(len, ranges))))

    monkeypatch.setattr(evaluation, "_run_batches", run_batches)
    trace = Trace.from_joints(np.zeros((n_slots, 1)), 20.0)
    run_sweep(trace, grid, ChannelConfig(), [RecoveryPolicy(PolicyMode.REPEAT_LAST)], jobs=jobs)
    return batches


def grid_of(n_cells: int, repetitions: int) -> SweepGrid:
    return SweepGrid(probs=tuple(0.5 / n_cells * k for k in range(n_cells)), durations=(1.0,),
                     robot_counts=(5,), repetitions=repetitions)


class TestSweepBatches:
    """run_sweep runs contiguous ranges of the flat run index (run r is
    repetition r % repetitions of cell r // repetitions); a run's values
    must not depend on the batch it is in."""

    def test_random_batchings_equal_the_per_cell_sweep(self, sweep_setup, monkeypatch, recording_pool):
        test, policies = sweep_setup
        rng = np.random.default_rng(15)
        pooled = 0
        for _ in range(14):
            n = int(rng.integers(60, len(test) + 1))
            start = int(rng.integers(0, len(test) - n + 1))
            trace = test.slice(start, start + n)

            def axis(values):
                return tuple(rng.choice(values, size=int(rng.integers(1, 4)), replace=False).tolist())

            grid = SweepGrid(probs=axis([0.0, 0.2, 0.5, 0.8, 0.9]), durations=axis([1.0, 4.0, 16.0, 32.0]),
                             robot_counts=axis([1, 5, 15, 25]), repetitions=int(rng.integers(1, 6)),
                             master_seed=int(rng.integers(0, 1000)))
            template = ChannelConfig(transport_bound_ms=float(rng.choice([0.0, 5.0])))
            cell_slots = grid.repetitions * n
            budget = int(rng.choice([1, n, 2 * n + 1, cell_slots, 2 * cell_slots + 1, 5 * cell_slots, 1 << 16]))
            monkeypatch.setattr(evaluation, "_BATCH_SLOTS", budget)
            jobs = int(rng.choice([1, 2, 3, 7]))
            result = run_sweep(trace, grid, template, policies, jobs=jobs)
            assert list(result.cells) == grid.cells()
            assert result.cells == per_cell_sweep(trace, grid, template, policies)
            pooled += jobs > 1
        assert pooled >= 4 and len(recording_pool["tasks"]) == pooled

    def test_batch_shapes(self, monkeypatch, recording_pool):
        rng = np.random.default_rng(7)
        for _ in range(400):
            grid = grid_of(int(rng.integers(1, 30)), int(rng.integers(1, 12)))
            n_runs = len(grid.cells()) * grid.repetitions
            n_slots, jobs, budget = int(rng.integers(1, 5000)), int(rng.integers(1, 12)), int(rng.integers(1, 20000))
            monkeypatch.setattr(evaluation, "_BATCH_SLOTS", budget)
            batches = recorded_batches(monkeypatch, grid, n_slots, jobs)
            # every run once, in order, in contiguous batches
            assert [r for batch in batches for r in batch] == list(range(n_runs))
            sizes = [len(batch) for batch in batches]
            assert min(sizes) >= 1
            if n_slots > budget:
                assert sizes == [1] * n_runs
            else:
                assert max(sizes) * n_slots <= budget
            if jobs > 1:
                assert len(batches) >= min(jobs, n_runs)
                assert max(sizes) <= max(1, n_runs // jobs)
            elif n_slots <= budget:
                # as many runs as fit, the last batch holding the rest
                assert sizes[:-1] == [budget // n_slots] * (len(sizes) - 1)

    def test_default_sizes(self, monkeypatch, recording_pool):
        # 43 runs of 1,500 rows fit in 1 << 16, whatever cell they belong to
        assert evaluation._BATCH_SLOTS == 1 << 16
        sizes = [len(b) for b in recorded_batches(monkeypatch, grid_of(180, 1), 1500, 1)]
        assert sizes == [43, 43, 43, 43, 8]
        # the walkthrough sweep: 18 cells x 4 repetitions of 7,500 rows at jobs 2
        sizes = [len(b) for b in recorded_batches(monkeypatch, grid_of(18, 4), 7500, 2)]
        assert sizes == [8] * 9
        # acceptance 7: 180 cells x 40 repetitions at jobs 4
        sizes = [len(b) for b in recorded_batches(monkeypatch, grid_of(180, 40), 1500, 4)]
        assert sizes == [43] * 167 + [19]

    def test_pool_maps_the_batches(self, sweep_setup, monkeypatch, recording_pool):
        test, policies = sweep_setup
        grid = SweepGrid(probs=(0.0, 0.5, 0.8), durations=(2.0, 16.0), robot_counts=(5,),
                         repetitions=2, master_seed=3)
        # three runs a batch: the second cell's two runs fall in two batches
        monkeypatch.setattr(evaluation, "_BATCH_SLOTS", 3 * len(test))
        pooled = run_sweep(test, grid, ChannelConfig(seed=0), policies, jobs=2)
        assert recording_pool["tasks"] == [[range(0, 3), range(3, 6), range(6, 9), range(9, 12)]]
        assert recording_pool["workers"] == [2]
        assert pooled.cells == per_cell_sweep(test, grid, ChannelConfig(seed=0), policies)


class TestSweepBounds:
    def test_a_160_repetition_cell_is_run_in_batches(self, sweep_setup):
        # a cell's runs share the batch budget like any others: a long cell
        # no longer holds all its repetitions' arrays at once
        test, policies = sweep_setup
        grid = SweepGrid(probs=(0.9,), durations=(32.0,), robot_counts=(25,), repetitions=160, master_seed=4)
        tracemalloc.start()
        try:
            result = run_sweep(test, grid, ChannelConfig(), policies)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(values) == 160 for values in result.cells[(25, 0.9, 32.0)].values())
        assert peak < 16 * 2**20

    def test_result_bound_is_checked_before_any_run(self, sweep_setup, monkeypatch):
        def refuse(*args):
            raise AssertionError("a seed was drawn")

        monkeypatch.setattr(evaluation, "_task_seed", refuse)
        test, policies = sweep_setup
        grid = SweepGrid(probs=(0.5,), durations=(2.0,), robot_counts=(5,), repetitions=10**10)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="repetitions: 10000000000 x 1 cells x 2 policies is 20000000000"):
                run_sweep(test, grid, ChannelConfig(), policies)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSweepResultFiles:
    def test_matrix_files(self, sweep_setup, tmp_path):
        test, policies = sweep_setup
        result = run_sweep(test, tiny_grid(), ChannelConfig(seed=0), policies)
        paths = result.write_matrices(tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["rmse_forecast_5.csv", "rmse_repeat-last_5.csv"]
        lines = (tmp_path / "rmse_forecast_5.csv").read_text().splitlines()
        assert lines[0] == "prob,2.0,16.0"
        assert len(lines) == 3  # header + one row per probability

    def test_ratio_helpers(self, sweep_setup):
        test, policies = sweep_setup
        result = run_sweep(test, tiny_grid(), ChannelConfig(seed=0), policies)
        floored = result.worst_cell_ratio("forecast", "repeat-last", min_denominator=1e-3)
        assert 0.0 <= floored < 1.0
        assert result.worst_cell_ratio("forecast", "repeat-last", min_denominator=np.inf) is None
        assert 0.0 < result.peak_ratio("forecast", "repeat-last") < 1.0


class TestRepetitionsWithoutAValue:
    """A repetition that executed no command holds NaN: means skip it, the
    ratios skip cells with no mean, and sweep_result.json writes null."""

    def result(self) -> SweepResult:
        nan = math.nan
        grid = SweepGrid(probs=(0.1, 0.5, 0.9), durations=(2.0,), robot_counts=(5,), repetitions=3)
        return SweepResult(grid, ("f", "r"), {
            (5, 0.1, 2.0): {"f": [0.1, nan, 0.3], "r": [0.2, nan, 0.6]},
            (5, 0.5, 2.0): {"f": [nan, nan, nan], "r": [0.5, 0.5, 0.5]},
            (5, 0.9, 2.0): {"f": [nan, nan, nan], "r": [nan, nan, nan]},
        })

    def test_means_skip_nan(self):
        result = self.result()
        assert result.mean((5, 0.1, 2.0), "f") == float(np.mean([0.1, 0.3]))
        assert result.mean((5, 0.5, 2.0), "r") == 0.5
        assert math.isnan(result.mean((5, 0.5, 2.0), "f"))
        assert math.isnan(result.mean((5, 0.9, 2.0), "r"))

    def test_ratios_skip_cells_with_no_mean(self):
        result = self.result()
        assert result.worst_cell_ratio("f", "r") == float(np.mean([0.1, 0.3])) / float(np.mean([0.2, 0.6]))
        assert result.worst_cell_ratio("f", "r", min_denominator=0.45) is None
        assert result.peak_ratio("f", "r") == float(np.mean([0.1, 0.3])) / 0.5
        nan_only = SweepResult(result.grid, ("f", "r"), {key: {"f": [math.nan] * 3, "r": [0.5] * 3}
                                                         for key in result.grid.cells()})
        assert math.isnan(nan_only.peak_ratio("f", "r"))
        assert nan_only.worst_cell_ratio("f", "r") is None

    def test_json_writes_null(self):
        doc = self.result().to_dict()
        json.dumps(doc, allow_nan=False)
        first, _, last = doc["cells"]
        assert first["rmse"]["f"] == {"mean": float(np.mean([0.1, 0.3])), "values": [0.1, None, 0.3]}
        assert last["rmse"] == {p: {"mean": None, "values": [None, None, None]} for p in ("f", "r")}


class TestDefaultGrid:
    def test_axes(self):
        grid = default_grid()
        assert len(grid.probs) == 10
        assert grid.durations == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        assert grid.robot_counts == (5, 15, 25)
        assert grid.repetitions == 40
        assert len(grid.cells()) == 180

    def test_defaults_are_the_grid_defaults(self):
        grid = default_grid()
        assert (grid.repetitions, grid.master_seed) == (SweepGrid.repetitions, SweepGrid.master_seed)
        other = default_grid(repetitions=3, master_seed=5)
        assert (other.repetitions, other.master_seed, other.cells()) == (3, 5, grid.cells())

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(probs=(), durations=(1.0,), robot_counts=(5,))

    @pytest.mark.parametrize("axis", ["probs", "durations", "robot_counts"])
    def test_repeated_axis_value_rejected(self, axis):
        # a repeated value would name one cell twice
        axes = {"probs": (0.1, 0.5), "durations": (1.0, 2.0), "robot_counts": (5, 15)}
        axes[axis] += axes[axis][-1:]
        with pytest.raises(ConfigError, match=f"axis {axis} must be non-empty with distinct values"):
            SweepGrid(**axes)
