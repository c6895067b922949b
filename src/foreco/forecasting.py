"""Multivariate forecasters for joint-command streams.

A vector autoregression (bias + one coefficient matrix per lag) trained
either by ordinary least squares or by Adam gradient descent. Lag-order
selection uses an information criterion computed from the Gaussian likelihood
of one-step residuals.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .core import Command, Provenance, Trace, checked_number, ms_to_us, read_json, us_to_ms
from .errors import (
    ConfigError,
    DegenerateCovariance,
    Diverged,
    InsufficientData,
    InsufficientHistory,
    RankDeficient,
)

# Relative pivot threshold below which a design-matrix column is declared
# collinear with the preceding ones.
RANK_TOL = 1e-10

BIAS_CORRECTIONS = ("fixed", "per-step")


class Forecaster(Protocol):
    """What run_recovery requires of a model.

    min_history (>= 1) is the number of past rows a forecast reads, and
    next_rows(records) the recovery step: for an (n, min_history, d) array
    of records, each of past rows oldest first, the (n, d) joint rows one
    period after them. A model may instead have only predict_next(history,
    period_ms), returning the Command one period after history[-1]
    (Commands, oldest first); run_recovery then reaches it through predict.
    VarModel has both.
    """

    dim: int
    min_history: int

    def next_rows(self, records: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class VarModel:
    """Fitted vector autoregression.

    coeffs[i] is the (d, d) matrix applied to the command i+1 steps back;
    bias is the per-coordinate intercept. n_params counts d^2 per lag and
    excludes the bias, which is tracked separately.
    """

    dim: int
    lag: int
    bias: np.ndarray
    coeffs: np.ndarray
    residual_cov: np.ndarray
    trainer: str = "ols"
    trained_at: str | None = None
    # (d, lag*d) horizontal stack of coeffs, precomputed for fast prediction
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bias = np.ascontiguousarray(self.bias, dtype=float)
        coeffs = np.ascontiguousarray(self.coeffs, dtype=float).reshape(self.lag, self.dim, self.dim)
        cov = np.ascontiguousarray(self.residual_cov, dtype=float)
        if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(bias)):
            raise ConfigError("model weights must be finite")
        if cov.shape != (self.dim, self.dim) or not np.allclose(cov, cov.T, atol=1e-8):
            raise ConfigError("residual covariance must be a symmetric (d, d) matrix")
        stacked = coeffs.transpose(1, 0, 2).reshape(self.dim, self.lag * self.dim)
        for arr in (bias, coeffs, cov, stacked):
            arr.setflags(write=False)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "residual_cov", cov)
        object.__setattr__(self, "stacked", stacked)

    @property
    def n_params(self) -> int:
        return self.dim * self.dim * self.lag

    @property
    def min_history(self) -> int:
        return max(self.lag, 1)

    def next_rows(self, records: np.ndarray) -> np.ndarray:
        """The next joint row after each record of an (n, m, d) array, oldest
        row first, m >= lag.

        Each row is bit-equal to bias + stacked @ x for its record alone. The
        stacked matmul multiplies one record at a time (a gemm over the batch
        would reassociate the sums), and the reshape lays x out as a single
        record's would be: a contiguous copy for d > 1, and for d = 1 a
        reversed view, which numpy multiplies without BLAS either way.
        """
        x = records[:, ::-1][:, : self.lag].reshape(len(records), self.lag * self.dim)
        return self.bias + (self.stacked @ x[:, :, None])[:, :, 0]

    def predict_next(self, history: Sequence[Command], period_ms: float) -> Command:
        """The forecast Command one period after history[-1] (Commands,
        oldest first), from next_rows on the last min_history rows."""
        record = np.array([c.joints for c in history[-self.min_history:]])
        last = history[-1]
        return Command(
            seq=last.seq + 1,
            joints=tuple(self.next_rows(record[None])[0].tolist()),
            gen_time_us=last.gen_time_us + ms_to_us(period_ms),
            provenance=Provenance.FORECAST,
        )


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters; defaults mirror the common 1e-3 / 0.9 / 0.999 setup."""

    step_size: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-07
    batch_size: int = 32
    epochs: int = 100
    # "fixed" keeps the bias-correction exponent at the training-set size for
    # every step; "per-step" uses the conventional step-count exponent.
    bias_correction: str = "fixed"

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in (0, 1)")
        if not 0 <= self.step_size < math.inf:
            raise ConfigError(f"step size must be finite and >= 0, got {self.step_size}")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.bias_correction not in BIAS_CORRECTIONS:
            raise ConfigError(f"unknown bias correction mode {self.bias_correction!r}")


def lagged_design(values: np.ndarray, lag: int, start: int | None = None):
    """Regression matrices for one-step prediction.

    Row t of X is [1, y_{t-1}, ..., y_{t-lag}] and the matching row of Y is
    y_t, for targets t = start .. H-1 (start defaults to lag).
    """
    n_total, dim = values.shape
    if start is None:
        start = lag
    if start < lag:
        raise ConfigError(f"start={start} must be >= lag={lag}")
    n = n_total - start
    if n < 1:
        raise InsufficientData(f"no targets left: {n_total} samples, start={start}")
    x = np.empty((n, 1 + dim * lag))
    x[:, 0] = 1.0
    for i in range(1, lag + 1):
        x[:, 1 + (i - 1) * dim : 1 + i * dim] = values[start - i : n_total - i]
    return x, values[start:]


def _ols_factors(x: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """R and Q^T y of a reduced QR of the design, with a relative pivot
    check; ridge > 0 appends Tikhonov rows for every non-intercept column."""
    if ridge > 0.0:
        k = x.shape[1]
        penalty = math.sqrt(ridge) * np.eye(k)[1:]
        x = np.vstack([x, penalty])
        y = np.vstack([y, np.zeros((k - 1, y.shape[1]))])
    q, r = np.linalg.qr(x)
    _check_pivots(np.abs(np.diag(r)), y.shape[1])
    return r, q.T @ y


def _ols_model(x: np.ndarray, y: np.ndarray, r: np.ndarray, qty: np.ndarray, lag: int) -> VarModel:
    """The OLS VarModel of design x and targets y, from the R factor of a QR
    of the design and Q^T times the targets."""
    weights = np.linalg.solve(r, qty)
    return _weights_to_model(weights, y - x @ weights, y.shape[1], lag, "ols")


def _check_pivots(pivots: np.ndarray, dim: int) -> None:
    """RankDeficient naming the first of a design's columns whose QR pivot
    magnitude is at most RANK_TOL times the largest."""
    threshold = RANK_TOL * pivots.max() if pivots.size else 0.0
    bad = np.nonzero(pivots <= threshold)[0]
    if bad.size:
        raise RankDeficient(int(bad[0]), _describe_column(int(bad[0]), dim))


def _describe_column(col: int, dim: int) -> str:
    if col == 0:
        return "design matrix is rank deficient at column 0 (intercept)"
    lag = (col - 1) // dim + 1
    coord = (col - 1) % dim + 1
    return f"design matrix is rank deficient at column {col} (lag {lag}, joint {coord})"


def _weights_to_model(weights: np.ndarray, residuals: np.ndarray, dim: int, lag: int, trainer: str) -> VarModel:
    bias = weights[0].copy()
    if lag:
        coeffs = np.stack([weights[1 + i * dim : 1 + (i + 1) * dim].T for i in range(lag)])
    else:
        coeffs = np.zeros((0, dim, dim))
    cov = residuals.T @ residuals / len(residuals)
    return VarModel(dim=dim, lag=lag, bias=bias, coeffs=coeffs, residual_cov=cov, trainer=trainer)


def _check_fit_inputs(train: Trace, lag: int) -> np.ndarray:
    if lag < 0:
        raise ConfigError(f"lag must be >= 0, got {lag}")
    needed = lag + train.dim * lag + 1
    if len(train) < needed:
        raise InsufficientData(
            f"{len(train)} samples cannot determine a lag-{lag} fit in dim {train.dim}; "
            f"need at least {needed}"
        )
    return train.joints_matrix()


def fit_var_ols(train: Trace, lag: int, ridge: float = 0.0) -> VarModel:
    """Exact least-squares fit of a lag-order VAR with intercept.

    Raises RankDeficient when a design column is collinear (e.g. a constant
    joint channel duplicating the intercept); pass ridge > 0 to regularize
    such problems instead.
    """
    if not 0 <= ridge < math.inf:
        raise ConfigError(f"ridge must be finite and >= 0, got {ridge}")
    values = _check_fit_inputs(train, lag)
    x, y = lagged_design(values, lag)
    return _ols_model(x, y, *_ols_factors(x, y, ridge), lag)


def fit_var_adam(
    train: Trace,
    lag: int,
    cfg: AdamConfig,
    loss_history: list | None = None,
) -> VarModel:
    """Fit the same regression as fit_var_ols by mini-batch Adam.

    Weights start at zero and batches sweep the training rows in order, so
    runs are deterministic. When loss_history is given, the mean per-batch
    loss of each epoch is appended to it.
    """
    values = _check_fit_inputs(train, lag)
    x, y = lagged_design(values, lag)
    n_train = len(x)
    dim = train.dim

    weights = np.zeros((x.shape[1], dim))
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    c1_fixed = 1.0 - cfg.beta1 ** n_train
    c2_fixed = 1.0 - cfg.beta2 ** n_train

    step = 0
    for _ in range(cfg.epochs):
        epoch_losses = []
        for lo in range(0, n_train, cfg.batch_size):
            xb = x[lo : lo + cfg.batch_size]
            yb = y[lo : lo + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                resid = xb @ weights - yb
                loss = float(np.sum(resid * resid)) / len(xb)
            step += 1
            if not math.isfinite(loss):
                raise Diverged(step)
            grad = (2.0 / len(xb)) * (xb.T @ resid)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
            if cfg.bias_correction == "fixed":
                c1, c2 = c1_fixed, c2_fixed
            else:
                c1 = 1.0 - cfg.beta1 ** step
                c2 = 1.0 - cfg.beta2 ** step
            weights = weights - cfg.step_size * (m / c1) / (np.sqrt(v / c2) + cfg.epsilon)
            epoch_losses.append(loss)
        if loss_history is not None and epoch_losses:
            loss_history.append(float(np.mean(epoch_losses)))

    residuals = y - x @ weights
    return _weights_to_model(weights, residuals, dim, lag, "adam")


def predict(model: Forecaster, history: Sequence[Command], period_ms: float | None = None) -> Command:
    """One-step forecast from the most recent commands.

    history is ordered oldest-to-newest and may mix original and forecast
    commands (closed-loop use). The result carries forecast provenance and a
    generation time one period after the last history entry. Without
    period_ms, the period is the spacing of the last two history entries.
    """
    if not history:
        raise InsufficientHistory("history is empty")
    if period_ms is None:
        if len(history) < 2:
            raise ConfigError("period_ms is required when history has a single entry")
        period_us = history[-1].gen_time_us - history[-2].gen_time_us
    else:
        period_us = ms_to_us(period_ms)
    if len(history) < model.min_history:
        raise InsufficientHistory(f"need {model.min_history} past commands, have {len(history)}")
    if history[-1].dim != model.dim:
        raise ConfigError(f"model dim {model.dim} does not match command dim {history[-1].dim}")
    return model.predict_next(history, us_to_ms(period_us))


def aic(model: VarModel, data: Trace) -> float:
    """Information criterion 2*p - logL over the model's open-loop one-step
    prediction errors on a trace.

    p counts d^2 per lag; logL is the Gaussian log-likelihood of the residuals
    under the model's training residual covariance.
    """
    if model.dim != data.dim:
        raise ConfigError(f"model dim {model.dim} != trace dim {data.dim}")
    if len(data) <= model.lag:
        raise InsufficientData(f"trace length {len(data)} must exceed lag {model.lag}")
    values = data.joints_matrix()
    x, y = lagged_design(values, model.lag)
    resid = y - (model.bias + x[:, 1:] @ model.stacked.T)
    n, d = resid.shape
    chol = _checked_cholesky(model.residual_cov, _data_scale(values))
    # Solve L z = e^T once for the whole block; quad form = sum z^2.
    z = np.linalg.solve(chol, resid.T)
    quad = float(np.sum(z * z))
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    loglik = -0.5 * n * d * math.log(2.0 * math.pi) - 0.5 * n * logdet - 0.5 * quad
    return 2.0 * model.n_params - loglik


def likelihood_ratio(aic_l: float, aic_l_plus_1: float, dim: int) -> float:
    """Likelihood improvement implied by two criterion values one lag apart.

    Computes exp((aic_l - aic_l_plus_1)/2 + dim^2). A zero criterion
    difference therefore maps to exp(dim^2), the pure parameter penalty.
    Ratios overflow float range easily; those return +inf with a warning.
    """
    exponent = (aic_l - aic_l_plus_1) / 2.0 + dim * dim
    try:
        return math.exp(exponent)
    except OverflowError:
        warnings.warn(
            f"likelihood ratio exponent {exponent:.1f} overflows float range; returning inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return math.inf


class LagSelection(tuple):
    """What select_lag returns: the 2-tuple (best, curve), plus fit(ridge),
    the OLS model at the best lag."""

    def __new__(cls, best: int, curve: list[float], train: Trace, max_lag_model):
        selection = super().__new__(cls, (best, curve))
        selection._train = train
        selection._max_lag_model = max_lag_model
        return selection

    def fit(self, ridge: float = 0.0) -> VarModel:
        """fit_var_ols(train, best, ridge). At the largest lag with no ridge
        that fit's design is the lag search's own, so its weights are solved
        from the search's factorisation instead of a second QR."""
        best = self[0]
        if ridge == 0.0 and best == len(self[1]):
            return self._max_lag_model()
        return fit_var_ols(self._train, best, ridge)


def select_lag(train: Trace, max_lag: int) -> LagSelection:
    """Fit lags 1..max_lag and pick the criterion minimizer (ties: smaller lag).

    Every order is fitted on the same targets, rows max_lag onwards, so the
    lag-l design is the first k = 1 + l*d columns of the max-lag design and
    one reduced QR of that design serves every order. With C = Q^T y and
    E = y - Q C, the lag-l residual sum of squares is E^T E + C[k:]^T C[k:].
    The criterion is 2*d^2*l - logL, with logL the Gaussian log-likelihood at
    the maximum-likelihood covariance, that sum divided by the n shared rows.
    Returns (best, curve) as a LagSelection.
    """
    if max_lag < 1:
        raise ConfigError(f"max_lag must be >= 1, got {max_lag}")
    values = _check_fit_inputs(train, max_lag)
    x, y = lagged_design(values, max_lag)
    n, d = y.shape
    q, r = np.linalg.qr(x)
    c = q.T @ y
    e = y - q @ c
    ete = e.T @ e
    pivots = np.abs(np.diag(r))
    data_scale = _data_scale(values)
    loglik_const = -0.5 * n * d * (math.log(2.0 * math.pi) + 1.0)
    curve = []
    for lag in range(1, max_lag + 1):
        k = 1 + lag * d
        _check_pivots(pivots[:k], d)
        cov = (ete + c[k:].T @ c[k:]) / n
        logdet = 2.0 * float(np.sum(np.log(np.diag(_checked_cholesky(cov, data_scale)))))
        curve.append(2.0 * d * d * lag - (loglik_const - 0.5 * n * logdet))
    best = 1 + int(np.argmin(curve))
    return LagSelection(best, curve, train, lambda: _ols_model(x, y, r, c, max_lag))


def _data_scale(values: np.ndarray) -> float:
    return float(np.max(np.var(values, axis=0))) or 1.0


def _checked_cholesky(cov: np.ndarray, data_scale: float) -> np.ndarray:
    """The Cholesky factor of a residual covariance; DegenerateCovariance if
    the covariance is singular or at float-noise level against data_scale,
    the data's largest variance."""
    # A numerically perfect fit leaves a covariance at float-noise scale; the
    # likelihood then blows up instead of meaning anything.
    if float(np.max(np.diag(cov))) < 1e-24 * data_scale:
        raise DegenerateCovariance(
            "residual covariance is at floating-point noise level; the Gaussian "
            "likelihood is unbounded (perfect fit on noiseless data)"
        )
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovariance(
            "residual covariance is singular; the Gaussian likelihood is undefined"
        ) from exc


# ---------------------------------------------------------------------------
# Model persistence: a flat JSON document that round-trips exactly (floats are
# serialized with Python repr, which is shortest-round-trip).

def model_to_dict(model: VarModel) -> dict:
    return {
        "dim": model.dim,
        "lag": model.lag,
        "bias": [float(b) for b in model.bias],
        "coeffs": [float(c) for c in model.coeffs.ravel()],
        "residual_cov": [float(c) for c in model.residual_cov.ravel()],
        "trainer": model.trainer,
        "trained_at": model.trained_at,
    }


def model_from_dict(doc: dict) -> VarModel:
    """The model a JSON document describes; a missing or unknown key, a value
    of the wrong type or a weight list of the wrong length raises ConfigError
    naming the field."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object, got {doc!r}")
    required = ("dim", "lag", "bias", "coeffs", "residual_cov")
    for key in doc:
        if key not in required + ("trainer", "trained_at"):
            raise ConfigError(f"{key}: unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{key}: missing key")
    dim = checked_number(doc["dim"], "dim", integer=True)
    lag = checked_number(doc["lag"], "lag", integer=True)
    if dim < 1 or lag < 0:
        raise ConfigError(f"dim must be >= 1 and lag >= 0, got dim={dim}, lag={lag}")
    weights = {}
    for key, size in (("bias", dim), ("coeffs", lag * dim * dim), ("residual_cov", dim * dim)):
        values = doc[key]
        if not isinstance(values, list) or len(values) != size:
            raise ConfigError(f"{key}: expected a list of {size} numbers, got {values!r}")
        weights[key] = np.array([checked_number(v, f"{key}[{k}]") for k, v in enumerate(values)])
    optional = {key: doc[key] for key in ("trainer", "trained_at") if key in doc}
    if not isinstance(optional.get("trainer", ""), str):
        raise ConfigError(f"trainer: expected a string, got {optional['trainer']!r}")
    if not isinstance(optional.get("trained_at"), (str, type(None))):
        raise ConfigError(f"trained_at: expected a string or null, got {optional['trained_at']!r}")
    return VarModel(
        dim=dim,
        lag=lag,
        bias=weights["bias"],
        coeffs=weights["coeffs"].reshape(lag, dim, dim),
        residual_cov=weights["residual_cov"].reshape(dim, dim),
        **optional,
    )


def save_model(model: VarModel, path: str | Path, trained_at: str | None = None) -> None:
    if trained_at is not None:
        model = replace(model, trained_at=trained_at)
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: str | Path) -> VarModel:
    try:
        return model_from_dict(read_json(path))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
