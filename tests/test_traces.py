"""Synthetic trace generation: periods, timestamps and the memory bound."""

import tracemalloc

import pytest

from foreco import traces
from foreco.errors import ConfigError
from foreco.traces import synthetic_trace


@pytest.mark.parametrize("period_ms, duration_s", [(0.0006, 0.01), (20.0004, 60.0)])
def test_a_period_of_a_fraction_of_a_microsecond_is_a_config_error(period_ms, duration_s):
    with pytest.raises(ConfigError, match="not a whole number of microseconds"):
        synthetic_trace("sine-mix", duration_s, 0, period_ms=period_ms, dim=1)


@pytest.mark.parametrize("period_ms", [0.001, 0.5, 20.0, 33.333])
def test_timestamps_step_by_the_sampled_period(period_ms):
    trace = synthetic_trace("sine-mix", 1.0, 0, period_ms=period_ms, dim=2)
    assert trace.period_ms == period_ms
    assert len(trace) == round(1000.0 / period_ms)


def test_a_trace_larger_than_physical_memory_is_refused_before_any_allocation(monkeypatch):
    # 20 s at 20 ms is 1,000 rows of 6 float64 values, 48,000 bytes
    monkeypatch.setattr(traces, "physical_memory", lambda: 48_000)
    assert len(synthetic_trace("sine-mix", 20.0, 0)) == 1000
    monkeypatch.setattr(traces, "physical_memory", lambda: 47_999)
    with pytest.raises(ConfigError, match=r"^duration_s: 20.0 s is 1000 rows of 6 float64 values, 48000 bytes, "
                                          r"more than the 47999 bytes of physical memory$"):
        synthetic_trace("sine-mix", 20.0, 0)
    # 10,000 s would be 24 MB of values: refused with next to nothing allocated
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^duration_s: 10000.0 s is 500000 rows"):
            synthetic_trace("pick-and-place", 10_000.0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_physical_memory_is_read_from_sysconf():
    memory = traces.physical_memory()
    assert memory is None or memory > 0
