"""Synthetic trace generation: periods and timestamps."""

import pytest

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
