"""Multivariate forecasters for joint-command streams.

A vector autoregression (bias + one coefficient matrix per lag) trained
either by ordinary least squares or by Adam gradient descent. Lag-order
selection uses an information criterion computed from the Gaussian likelihood
of one-step residuals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .core import Command, Provenance, Trace, checked_fields, ms_to_us, read_json, write_json
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

# Row-block height of [X | Y] in _row_blocks, which every fit fills, factors
# (the tall-skinny QR of _ols_factors) and multiplies one block at a time. A
# design wider than _QR_ROWS / 8 columns is cut into blocks of 8 rows per
# column instead, so each level of the reduction leaves at most an eighth of
# its rows.
_QR_ROWS = 1024

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


def lagged_design(values: np.ndarray, lag: int):
    """Regression matrices for one-step prediction.

    Row t of X is [1, y_{t-1}, ..., y_{t-lag}] and the matching row of Y is
    y_t, for targets t = lag .. H-1.
    """
    n_total, dim = values.shape
    n = n_total - lag
    if n < 1:
        raise InsufficientData(f"no targets left: {n_total} samples, lag={lag}")
    return _fill_rows(np.empty((n, 1 + dim * lag)), values, lag, 0), values[lag:]


def _fill_rows(out: np.ndarray, values: np.ndarray, lag: int, lo: int) -> np.ndarray:
    """out, filled with the rows lo .. lo + len(out) of lagged_design's X,
    followed by those of its Y when out is d columns wider than X."""
    m, dim = len(out), values.shape[1]
    k = 1 + lag * dim
    out[:, 0] = 1.0
    for i in range(1, lag + 1):
        out[:, 1 + (i - 1) * dim : 1 + i * dim] = values[lo + lag - i : lo + lag - i + m]
    if out.shape[1] > k:
        out[:, k:] = values[lo + lag : lo + lag + m]
    return out


def _block_rows(cols: int) -> int:
    """The row-block height for a matrix of cols columns (see _QR_ROWS)."""
    return max(_QR_ROWS, 8 * cols)


def _row_blocks(values: np.ndarray, lag: int, rows: int, ridge: float = 0.0, order: str = "F", full: bool = False):
    """The rows of [X | Y], lagged_design's X and Y, with a row sqrt(ridge)
    e_j under them per non-intercept column j when ridge > 0, as (first row,
    block) pairs of the given number of rows, the last block shorter. With
    full, the last block has as many rows as the others (all rows, if fewer)
    and ends at the last row, overlapping the one before it. Every block is filled
    from values into one reused array, so no more than one block of [X | Y]
    exists at a time."""
    n_total, dim = values.shape
    n, k = n_total - lag, 1 + lag * dim
    total = n + (k - 1 if ridge > 0.0 else 0)
    scratch = np.empty((min(rows, total), k + dim), order=order)
    for lo in range(0, total, rows):
        if full:
            lo = min(lo, total - len(scratch))
        block = scratch[: min(rows, total - lo)]
        m = min(len(block), max(n - lo, 0))
        _fill_rows(block[:m], values, lag, lo)
        if m < len(block):
            penalty = np.arange(m, len(block))
            block[m:] = 0.0
            block[penalty, 1 + lo - n + penalty] = math.sqrt(ridge)
        yield lo, block


def _residuals(values: np.ndarray, lag: int, order: str, predict) -> np.ndarray:
    """Y - predict(X) for lagged_design's X and Y, as an (n, d) array formed
    block by block over _row_blocks' full blocks in the given memory order.

    The layout and the block height pick the BLAS kernel, and kernels round
    differently: a short block takes another one, and numpy sends a one-row
    product to gemv. With every block at full height, each row for d >= 2
    is bit-equal to that row of one product over the whole X in the same
    order; for d = 1 the product is a gemv, whose rounding of a row can
    depend on where its block starts. Fits run column-major and aic
    row-major, the layouts their values were first computed in.

    The blocks are twice as tall as the QR's. A product needs no
    cache-sized block, and the larger scratch array keeps glibc's malloc
    from mapping fresh pages for the QR blocks of later fits: malloc serves
    from its heap only requests smaller than the largest block it has
    unmapped, and trims the heap once twice that size is free. np.linalg.qr
    copies each QR block twice, so with every scratch array one QR block
    tall those copies were mapped and faulted in afresh for every block."""
    n, dim = len(values) - lag, values.shape[1]
    k = 1 + lag * dim
    residuals = np.empty((n, dim))
    for lo, block in _row_blocks(values, lag, 2 * _block_rows(k + dim), order=order, full=True):
        np.subtract(block[:, k:], predict(block[:, :k]), out=residuals[lo : lo + len(block)])
    return residuals


def _ols_factors(values: np.ndarray, lag: int, ridge: float = 0.0) -> np.ndarray:
    """The R of a QR of [X | Y] (_row_blocks' rows, ridge rows included).
    R[:k, :k] is X's R, R[:k, k:] is Q^T Y, and with R_e = R[k:, k:],
    R_e^T R_e = E^T E (Bjorck 1996, 1.3): Q is never formed.

    R comes from a tall-skinny QR (Demmel et al. 2012): the R of each row
    block is taken as the block is filled, the first-level Rs are stacked
    into one array, and the stack is reduced the same way until one block
    is left. Each block is factored in cache, and R differs from one QR's
    only in row signs and rounding, which none of its readers see; a matrix
    of at most one block is factored exactly as by one QR."""
    n_total, dim = values.shape
    k = 1 + lag * dim
    total = n_total - lag + (k - 1 if ridge > 0.0 else 0)
    rows = _block_rows(k + dim)
    r = np.empty((-(-total // rows) * (k + dim), k + dim))
    top = 0
    for _, block in _row_blocks(values, lag, rows, ridge):
        block_r = np.linalg.qr(block, mode="r")
        r[top : top + len(block_r)] = block_r
        top += len(block_r)
    if total <= rows:
        return block_r
    r = r[:top]
    while len(r) > rows:
        r = np.concatenate([np.linalg.qr(r[i : i + rows], mode="r") for i in range(0, len(r), rows)])
    return np.linalg.qr(r, mode="r")


def _ols_model(values: np.ndarray, r: np.ndarray, lag: int) -> VarModel:
    """The OLS VarModel from _ols_factors' R, pivots checked: R[:k, :k] W =
    R[:k, k:]. The residuals Y - X W are formed block by block."""
    dim = values.shape[1]
    k = 1 + lag * dim
    _check_pivots(np.abs(np.diag(r))[:k], dim)
    weights = np.linalg.solve(r[:k, :k], r[:k, k:])
    residuals = _residuals(values, lag, "F", lambda x: x @ weights)
    return _weights_to_model(weights, residuals, dim, lag, "ols")


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
    coeffs = weights[1:].reshape(lag, dim, dim).transpose(0, 2, 1)
    cov = residuals.T @ residuals / len(residuals)
    return VarModel(dim=dim, lag=lag, bias=weights[0].copy(), coeffs=coeffs, residual_cov=cov, trainer=trainer)


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
    return _ols_model(values, _ols_factors(values, lag, ridge), lag)


def fit_var_adam(train: Trace, lag: int, cfg: AdamConfig) -> VarModel:
    """Fit the same regression as fit_var_ols by mini-batch Adam.

    Weights start at zero and batches sweep the training rows in order, so
    runs are deterministic. Diverged names the step whose batch loss is not
    finite.
    """
    values = _check_fit_inputs(train, lag)
    x, y = lagged_design(values, lag)
    n_train = len(x)
    dim = train.dim

    weights = np.zeros((x.shape[1], dim))
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    # The bias corrections keep their exponent at the training-set size for
    # every step, where conventional Adam uses the step count.
    c1 = 1.0 - cfg.beta1 ** n_train
    c2 = 1.0 - cfg.beta2 ** n_train

    step = 0
    for _ in range(cfg.epochs):
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
            weights = weights - cfg.step_size * (m / c1) / (np.sqrt(v / c2) + cfg.epsilon)

    residuals = y - x @ weights
    return _weights_to_model(weights, residuals, dim, lag, "adam")


def predict(model: Forecaster, history: Sequence[Command], period_ms: float) -> Command:
    """One-step forecast from the most recent commands.

    history is ordered oldest-to-newest and may mix original and forecast
    commands (closed-loop use). The result carries forecast provenance and a
    generation time period_ms after the last history entry.
    """
    if not history:
        raise InsufficientHistory("history is empty")
    if len(history) < model.min_history:
        raise InsufficientHistory(f"need {model.min_history} past commands, have {len(history)}")
    if history[-1].dim != model.dim:
        raise ConfigError(f"model dim {model.dim} does not match command dim {history[-1].dim}")
    return model.predict_next(history, period_ms)


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
    resid = _residuals(values, model.lag, "C", lambda x: model.bias + x[:, 1:] @ model.stacked.T)
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

    def __new__(cls, best: int, curve: list[float], train: Trace, r: np.ndarray):
        selection = super().__new__(cls, (best, curve))
        selection._train = train
        selection._r = r
        return selection

    def fit(self, ridge: float = 0.0) -> VarModel:
        """fit_var_ols(train, best, ridge); at the max lag with no ridge, bit for
        bit that fit, solved from the lag search's R of [X | Y] (the same
        blocked reduction of the same rows) instead of a second one."""
        best = self[0]
        if ridge == 0.0 and best == len(self[1]):
            return _ols_model(self._train.joints_matrix(), self._r, best)
        return fit_var_ols(self._train, best, ridge)


def select_lag(train: Trace, max_lag: int) -> LagSelection:
    """Fit lags 1..max_lag and pick the criterion minimizer (ties: smaller lag).

    Every order is fitted on the same targets, rows max_lag onwards, so the
    lag-l design is the first k = 1 + l*d columns of the max-lag design and
    one R of [X | Y] (_ols_factors' blocked QR) serves every order: with C =
    Q^T y and R_e read from R, the lag-l residual sum of squares is R_e^T R_e
    + C[k:]^T C[k:], which no row sign of R changes. The criterion is
    2*d^2*l - logL, with logL the Gaussian log-likelihood at the ML
    covariance, that sum divided by the n shared rows.
    Returns (best, curve) as a LagSelection. The max-lag fit must keep at
    least d residual rows, or no covariance can be full rank: a shorter
    trace raises InsufficientData naming the samples needed.
    """
    if max_lag < 1:
        raise ConfigError(f"max_lag must be >= 1, got {max_lag}")
    needed = max_lag + train.dim * max_lag + 1 + train.dim
    if len(train) < needed:
        raise InsufficientData(
            f"{len(train)} samples cannot select a lag up to {max_lag} in dim {train.dim}; "
            f"need at least {needed}"
        )
    values = train.joints_matrix()
    r = _ols_factors(values, max_lag)
    n, d = len(values) - max_lag, train.dim
    k_max = 1 + max_lag * d
    c, ete = r[:k_max, k_max:], r[k_max:, k_max:].T @ r[k_max:, k_max:]
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
    return LagSelection(best, curve, train, r)


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
    weights = {key: getattr(model, key).ravel().tolist() for key in ("bias", "coeffs", "residual_cov")}
    return {"dim": model.dim, "lag": model.lag, **weights, "trainer": model.trainer, "trained_at": model.trained_at}


def model_from_dict(doc: dict) -> VarModel:
    """The model a JSON document describes; a missing or unknown key, a value
    of the wrong type or a weight list of the wrong length raises ConfigError
    naming the field."""
    [given] = checked_fields(doc, VarModel)
    dim, lag = given["dim"], given["lag"]
    if dim < 1 or lag < 0:
        raise ConfigError(f"dim must be >= 1 and lag >= 0, got dim={dim}, lag={lag}")
    for key, size in (("bias", dim), ("coeffs", lag * dim * dim), ("residual_cov", dim * dim)):
        if len(given[key]) != size:
            raise ConfigError(f"{key}: expected a list of {size} numbers, got {doc[key]!r}")
    given["residual_cov"] = np.reshape(given["residual_cov"], (dim, dim))
    return VarModel(**given)


def save_model(model: VarModel, path: str | Path, trained_at: str | None = None) -> None:
    if trained_at is not None:
        model = replace(model, trained_at=trained_at)
    write_json(path, model_to_dict(model))


def load_model(path: str | Path) -> VarModel:
    return read_json(path, model_from_dict)
