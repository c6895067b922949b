"""Synthetic joint-trajectory generators.

Stand-ins for recorded robot datasets: repetitive, cross-correlated joint
motion sampled at a fixed command period. Joint values are rounded to the
6-decimal CSV resolution at generation time so files round-trip exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MAX_TIMESTAMP_MS, MAX_TIMESTAMP_US, Trace, ms_to_us, us_to_ms
from .errors import ConfigError

PROFILES = ("pick-and-place", "sine-mix", "constant")

# Standard deviation of the Gaussian noise added to every non-constant profile.
NOISE = 1e-3


def _smoothstep(u: np.ndarray) -> np.ndarray:
    return u * u * (3.0 - 2.0 * u)


def _pick_and_place(n: int, dim: int, period_ms: float, rng: np.random.Generator) -> np.ndarray:
    """Cyclic waypoint-to-waypoint motion with brief holds at each waypoint.

    All joints follow the same waypoint schedule with joint-specific scaling,
    which yields the strong cross-joint correlation of a real arm moving
    between grasp poses.
    """
    n_way = 6
    base = rng.uniform(-1.0, 1.0, size=n_way)
    amp = rng.uniform(0.5, 1.2, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    waypoints = np.outer(base, amp) + 0.15 * rng.normal(size=(n_way, dim))

    move_ms = rng.uniform(400.0, 900.0, size=n_way)
    hold_ms = rng.uniform(80.0, 250.0, size=n_way)
    seg_ms = move_ms + hold_ms
    cycle_ms = float(seg_ms.sum())
    seg_end = np.cumsum(seg_ms)
    seg_start = seg_end - seg_ms

    t = (np.arange(n) * period_ms) % cycle_ms
    seg = np.searchsorted(seg_end, t, side="right")
    seg = np.clip(seg, 0, n_way - 1)
    into = t - seg_start[seg]
    u = np.clip(into / move_ms[seg], 0.0, 1.0)  # 1.0 during the hold part
    blend = _smoothstep(u)[:, None]
    start_pose = waypoints[seg - 1]  # seg 0 starts from the last waypoint
    end_pose = waypoints[seg]
    return start_pose + blend * (end_pose - start_pose)


def _sine_mix(n: int, dim: int, period_ms: float, rng: np.random.Generator) -> np.ndarray:
    """Sum of a few shared-frequency sinusoids with joint-specific mix weights."""
    freqs_hz = np.array([0.2, 0.45, 0.8])
    t_s = np.arange(n) * (period_ms / 1000.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(freqs_hz))
    weights = rng.uniform(0.2, 1.0, size=(dim, len(freqs_hz)))
    weights *= rng.choice([-1.0, 1.0], size=weights.shape)
    waves = np.sin(2.0 * np.pi * np.outer(t_s, freqs_hz) + phases)
    return waves @ weights.T


def synthetic_trace(
    profile: str,
    duration_s: float,
    seed: int,
    period_ms: float = 20.0,
    dim: int = 6,
) -> Trace:
    """Generate a deterministic synthetic trace of the given profile.

    Profiles: pick-and-place (cyclic waypoint motion), sine-mix (correlated
    sinusoids), each with Gaussian noise of standard deviation NOISE, and
    constant (identical rows, noise-free). The motion is sampled at
    period_ms and the timestamps step by it, so a period that is not a whole
    number of microseconds, the resolution of trace timestamps, is a
    ConfigError.
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose one of {PROFILES}")
    if not (0 < duration_s < math.inf and 0 < period_ms < MAX_TIMESTAMP_MS):
        raise ConfigError(
            f"duration and period must be finite and positive, the period below 2**62 us, "
            f"got {duration_s} s and {period_ms} ms"
        )
    if dim < 1 or seed < 0:
        raise ConfigError(f"dim must be >= 1 and seed >= 0, got dim={dim}, seed={seed}")
    if ms_to_us(period_ms) < 1:
        raise ConfigError(f"period {period_ms} ms rounds to less than the 1 us timestamp resolution")
    if us_to_ms(ms_to_us(period_ms)) != period_ms:
        raise ConfigError(f"period {period_ms} ms is not a whole number of microseconds, the timestamp resolution")
    n = round(duration_s * 1000.0 / period_ms)
    if n < 1:
        raise ConfigError("duration shorter than one command period")
    if n * ms_to_us(period_ms) >= MAX_TIMESTAMP_US:
        raise ConfigError(f"duration {duration_s} s is too long: timestamps must stay below 2**62 us")
    if n * dim > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"dim {dim} at {n} rows is more float64 values than one array can hold")
    rng = np.random.default_rng(seed)

    if profile == "constant":
        pose = np.round(rng.uniform(-1.0, 1.0, size=dim), 6)
        joints = np.tile(pose, (n, 1))
        return Trace.from_joints(joints, period_ms)

    if profile == "pick-and-place":
        joints = _pick_and_place(n, dim, period_ms, rng)
    else:
        joints = _sine_mix(n, dim, period_ms, rng)
    joints = joints + rng.normal(0.0, NOISE, size=joints.shape)
    return Trace.from_joints(np.round(joints, 6), period_ms)
