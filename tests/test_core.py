"""Domain types: commands, traces, splitting, CSV round trips."""

import numpy as np
import pytest

from foreco.core import (
    Command,
    Provenance,
    RecoveryConfig,
    Trace,
    read_trace_csv,
    split_dataset,
    write_trace_csv,
)
from foreco.errors import ConfigError, InvalidTrace


def simple_trace(n=10, d=2, period_ms=20.0):
    joints = np.arange(n * d, dtype=float).reshape(n, d) / 10.0
    return Trace.from_joints(joints, period_ms)


class TestTrace:
    def test_gen_times_follow_schedule(self):
        tr = simple_trace(n=5, period_ms=20.0)
        assert [c.gen_time_ms for c in tr.samples] == [0.0, 20.0, 40.0, 60.0, 80.0]

    def test_gen_time_reconstruction_is_lossless(self):
        # (start, period, index) reproduces every stored timestamp exactly
        for period in (20.0, 2.5, 0.125, 7.0):
            tr = simple_trace(n=50, period_ms=period)
            start = tr.samples[0].gen_time_us
            for i, cmd in enumerate(tr.samples):
                assert cmd.gen_time_us == start + i * tr.period_us

    def test_dim_mismatch_rejected(self):
        for joints in (np.zeros(3), np.zeros((3, 0)), np.zeros((0, 2)), np.zeros((2, 2, 2))):
            with pytest.raises(InvalidTrace):
                Trace(20_000, 0, 0, joints)

    def test_samples_match_per_sample_construction(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            h, d = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            period_us, start_us = int(rng.integers(1, 50_000)), int(rng.integers(0, 10**9))
            seq0 = int(rng.integers(0, 1000))
            joints = rng.normal(size=(h, d))
            tr = Trace(period_us, start_us, seq0, joints)
            expected = tuple(
                Command(seq0 + i, tuple(float(x) for x in joints[i]), start_us + i * period_us)
                for i in range(h)
            )
            assert tr.samples == expected
            assert all(type(x) is float for c in tr.samples for x in c.joints)
            assert tr[h - 1] is tr.samples[h - 1]
            cut = int(rng.integers(0, h + 1))
            if 0 < cut < h:
                head, tail = tr.slice(0, cut), tr.slice(cut, h)
                assert head.samples + tail.samples == tr.samples
                assert np.array_equal(np.vstack([head.joints_matrix(), tail.joints_matrix()]), joints)

    def test_joints_matrix_is_stored_read_only_copy(self):
        joints = np.ones((4, 2))
        tr = Trace.from_joints(joints, 20.0)
        joints[0, 0] = 5.0
        assert tr.joints_matrix() is tr.joints_matrix()
        assert tr.joints_matrix()[0, 0] == 1.0
        with pytest.raises(ValueError):
            tr.joints_matrix()[0, 0] = 2.0


class TestSplitDataset:
    def test_80_20_split(self):
        tr = simple_trace(n=100)
        train, test = split_dataset(tr, 0.8)
        assert (len(train), len(test)) == (80, 20)

    def test_smallest_legal_split(self):
        tr = simple_trace(n=2)
        train, test = split_dataset(tr, 0.5)
        assert (len(train), len(test)) == (1, 1)

    def test_large_h_floor_arithmetic(self):
        tr = simple_trace(n=187109, d=1)
        train, test = split_dataset(tr, 0.8)
        assert (len(train), len(test)) == (149687, 37422)

    def test_concatenation_is_exact(self):
        tr = simple_trace(n=57, d=3)
        train, test = split_dataset(tr, 0.33)
        assert train.samples + test.samples == tr.samples

    def test_empty_and_tiny_traces_rejected(self):
        with pytest.raises(InvalidTrace):
            split_dataset(Trace.from_joints(np.zeros((0, 1)), 20.0), 0.5)
        with pytest.raises(InvalidTrace):
            split_dataset(simple_trace(n=1), 0.5)


class TestRecoveryConfig:
    @pytest.mark.parametrize("kwargs", [{"tolerance_ms": -1.0}, {"record_len": 0}])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RecoveryConfig(**kwargs)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        joints = np.round(rng.uniform(-2.0, 2.0, size=(40, 6)), 6)
        tr = Trace.from_joints(joints, 20.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path)
        assert back.period_us == tr.period_us
        assert back.dim == tr.dim
        assert np.array_equal(back.joints_matrix(), tr.joints_matrix())

    def test_header_format(self, tmp_path):
        tr = simple_trace(n=3, d=4)
        path = tmp_path / "t.csv"
        write_trace_csv(tr, path)
        assert path.read_text().splitlines()[0] == "t_ms,j1,j2,j3,j4"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,j1\n0.0,1.0\n20.0,2.0\n")
        with pytest.raises(InvalidTrace):
            read_trace_csv(path)

    def test_provenance_default_original(self):
        tr = simple_trace(n=3)
        assert all(c.provenance is Provenance.ORIGINAL for c in tr.samples)

    @pytest.mark.parametrize("text, row", [
        ("t_ms,j1\n1e306,0.1\n2e306,0.2\n3e306,0.3\n", 0),   # overflows ms_to_us
        ("t_ms,j1\n0,0.1\n20,0.2\n1e306,0.3\n", 2),
        ("t_ms,j1\n0,0.1\n9.3e15,0.2\n", 1),                  # beyond int64 microseconds
        ("t_ms,j1\n-9.3e15,0.1\n0,0.2\n", 0),
    ])
    def test_timestamp_out_of_range_names_the_row(self, tmp_path, text, row):
        path = tmp_path / "big.csv"
        path.write_text(text)
        with pytest.raises(InvalidTrace, match=f"row {row} timestamp out of range"):
            read_trace_csv(path)
