"""Core problem model: requests, instances, SINR feasibility, schedules.

This subpackage implements Section 1.1 of the paper: the directed and
bidirectional interference scheduling problems in the physical (SINR)
model, plus the schedule representation shared by all algorithms.
"""

from repro.core.context import (
    ClassAccumulator,
    InterferenceContext,
    cache_info,
    clear_context_cache,
    context_cache_limit,
    get_context,
    set_context_cache_limit,
)
from repro.core.gains import (
    BackendConfig,
    DenseBackend,
    GainBackend,
    SparseBackend,
    build_backend,
    config_scope,
    default_config,
)
from repro.core.errors import (
    InfeasibleError,
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
)
from repro.core.instance import Direction, Instance
from repro.core.kernels import (
    ScheduleKernel,
    peel_max_feasible_subset,
)
from repro.core.interference import (
    bidirectional_gain_matrices,
    bidirectional_interference,
    directed_gain_matrix,
    directed_interference,
)
from repro.core.feasibility import (
    feasible_subset_mask,
    is_feasible_partition,
    is_feasible_subset,
    sinr_margins,
    scale_powers_for_noise,
    signal_strengths,
)
from repro.core.schedule import Schedule, build_schedule

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "InfeasibleError",
    "InterferenceContext",
    "ClassAccumulator",
    "get_context",
    "cache_info",
    "clear_context_cache",
    "context_cache_limit",
    "set_context_cache_limit",
    "GainBackend",
    "DenseBackend",
    "SparseBackend",
    "build_backend",
    "BackendConfig",
    "config_scope",
    "default_config",
    "ScheduleKernel",
    "peel_max_feasible_subset",
    "Direction",
    "Instance",
    "Schedule",
    "build_schedule",
    "directed_gain_matrix",
    "directed_interference",
    "bidirectional_gain_matrices",
    "bidirectional_interference",
    "signal_strengths",
    "sinr_margins",
    "is_feasible_subset",
    "is_feasible_partition",
    "feasible_subset_mask",
    "scale_powers_for_noise",
]
