"""Forecast-based recovery of late/lost remote-control commands.

Train multivariate autoregressive forecasters on joint-trajectory traces,
simulate an interference-prone contention-based wireless link as a queueing
system, inject forecasts when commands miss their deadline, and quantify the
trajectory error with and without recovery.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelConfig,
    ChannelOutcome,
    ChannelOutcomes,
    InterferenceParams,
    LossCause,
    MacParams,
    attempt_failure_prob,
    expected_delay_bound,
    mean_delay_given_rtx,
    rtx_distribution,
    simulate_channel,
    verify_causality_prob,
)
from .core import (
    Command,
    Provenance,
    RecoveryConfig,
    Trace,
    read_trace_csv,
    split_dataset,
    write_trace_csv,
)
from .evaluation import (
    SweepGrid,
    SweepResult,
    controlled_loss_outcomes,
    default_grid,
    rmse,
    run_sweep,
)
from .forecasting import (
    AdamConfig,
    Forecaster,
    VarModel,
    aic,
    fit_var_adam,
    fit_var_ols,
    likelihood_ratio,
    load_model,
    predict,
    save_model,
    select_lag,
)
from .recovery import (
    ExecutedStream,
    PolicyMode,
    RecoveryPolicy,
    RecoveryStats,
    replay_deadline,
    run_recoveries,
    run_recovery,
    step_limit_from_trace,
)
from .traces import synthetic_trace
