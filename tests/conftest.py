"""Shared synthetic-system builders for the test suite."""

import numpy as np
import pytest

from foreco.core import Command, Provenance, Trace, ms_to_us


def make_var_system(d: int, lag: int, seed: int, rho: float = 0.9):
    """Random stable VAR coefficient matrices with companion spectral radius rho."""
    rng = np.random.default_rng(seed)
    mats = [rng.normal(0.0, 1.0, (d, d)) for _ in range(lag)]
    comp = np.zeros((d * lag, d * lag))
    for i, a in enumerate(mats):
        comp[:d, i * d : (i + 1) * d] = a
    if lag > 1:
        comp[d:, :-d] = np.eye(d * (lag - 1))
    radius = max(abs(np.linalg.eigvals(comp)))
    scale = rho / radius
    return [a * scale ** (i + 1) for i, a in enumerate(mats)]


def simulate_var(mats, n: int, seed: int, noise: float = 0.1, bias=None) -> np.ndarray:
    d = mats[0].shape[0]
    lag = len(mats)
    rng = np.random.default_rng(seed)
    y = np.zeros((n, d))
    y[:lag] = rng.normal(0.0, 1.0, (lag, d))
    for t in range(lag, n):
        y[t] = sum(mats[i] @ y[t - 1 - i] for i in range(lag))
        if bias is not None:
            y[t] += bias
        if noise:
            y[t] += rng.normal(0.0, noise, d)
    return y


def var_trace(d: int, lag: int, n: int, seed: int, noise: float = 0.1, rho: float = 0.9):
    """Trace sampled from a random stable VAR, plus its true coefficients."""
    mats = make_var_system(d, lag, seed, rho)
    return Trace.from_joints(simulate_var(mats, n, seed + 1, noise), 20.0), mats


def lag_dominant_trace(d: int, k: int, n: int, seed: int, noise: float = 0.1) -> Trace:
    """VAR(k) data whose dependence is concentrated on lag k (mild lag-1 term),
    so the true order is identifiable from the criterion curve."""
    rng = np.random.default_rng(seed)
    a1 = np.zeros((d, d))
    if k > 1:
        a1 = rng.normal(0.0, 1.0, (d, d))
        a1 *= 0.2 / max(abs(np.linalg.eigvals(a1)))
    ak = rng.normal(0.0, 1.0, (d, d))
    ak *= (0.9 ** k) / max(abs(np.linalg.eigvals(ak)))
    mats = {1: a1, k: ak} if k > 1 else {1: ak}
    # renormalize to a stationary companion radius if the mix pushed it up
    comp = np.zeros((d * k, d * k))
    for i, a in mats.items():
        comp[:d, (i - 1) * d : i * d] = a
    if k > 1:
        comp[d:, :-d] = np.eye(d * (k - 1))
    radius = max(abs(np.linalg.eigvals(comp)))
    if radius > 0.95:
        s = 0.9 / radius
        mats = {i: a * s ** i for i, a in mats.items()}
    shocks = rng.normal(0.0, noise, (n - k, d))
    y = np.zeros((n, d))
    if k == 1:
        a1 = mats[1]
        for t in range(1, n):
            y[t] = a1 @ y[t - 1] + shocks[t - 1]
    else:
        a1, ak = mats[1], mats[k]
        for t in range(k, n):
            y[t] = a1 @ y[t - 1] + ak @ y[t - k] + shocks[t - k]
    return Trace.from_joints(y, 20.0)


def rotation_trace(n: int, theta: float, amp: float, period_ms: float = 20.0) -> Trace:
    """Noiseless VAR(1): a pure rotation (sin/cos pair) that never decays."""
    t = np.arange(n)
    y = np.stack([amp * np.cos(theta * t), amp * np.sin(theta * t)], axis=1)
    return Trace.from_joints(y, period_ms)


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class WindowMean:
    """A moving-average forecaster: the mean of the last `window` rows. It
    has an array step but is not a VAR, and its min_history is its window,
    not a lag."""

    def __init__(self, dim: int, window: int):
        self.dim = dim
        self.min_history = window

    def next_rows(self, records: np.ndarray) -> np.ndarray:
        return records[:, -self.min_history:].mean(axis=1)

    def predict_next(self, history, period_ms: float) -> Command:
        last = history[-1]
        record = np.array([c.joints for c in history[-self.min_history:]])
        return Command(last.seq + 1, tuple(self.next_rows(record[None])[0].tolist()),
                       last.gen_time_us + ms_to_us(period_ms), provenance=Provenance.FORECAST)


@pytest.fixture(scope="session")
def pick_and_place_split():
    """One long repetitive trace split into train (120 s) and test (30 s)."""
    import foreco

    full = foreco.synthetic_trace("pick-and-place", 150.0, seed=0)
    return foreco.split_dataset(full, 0.8)
