"""Oblivious interference scheduling in the SINR physical model.

A faithful, fully constructive reproduction of

    Fanghänel, Kesselheim, Räcke, Vöcking:
    "Oblivious Interference Scheduling", PODC 2009.

Quickstart
----------
>>> from repro import Instance, EuclideanMetric, Problem
>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> points = rng.uniform(0, 100, size=(20, 2))
>>> pairs = [(2 * i, 2 * i + 1) for i in range(10)]
>>> instance = Instance.bidirectional(EuclideanMetric(points), pairs)
>>> session = Problem(instance).session()
>>> result = session.schedule("sqrt_coloring", rng=rng)
>>> result.validate().num_colors >= 1  # validate() raises if infeasible
True

Package map
-----------
``repro.api``         Problem / Session / ScheduleResult facade
``repro.core``        problem model, SINR feasibility, schedules
``repro.geometry``    metric spaces (Euclidean, line, tree, star, ...)
``repro.power``       oblivious + explicit power assignments
``repro.nodeloss``    §3.2 node-loss problem, §4 star analysis
``repro.embedding``   Lemma 6 tree ensembles, Lemma 9 star decomposition
``repro.scheduling``  first-fit, peeling, Theorem 15 LP coloring, baselines
                      (resolved by name via ``repro.scheduling.registry``)
``repro.instances``   adversarial (Thm 1), nested, random generators
``repro.analysis``    power control, capacity, OPT bounds, verification
``repro.experiments`` one module per paper claim (E1 .. E10)
"""

from repro.api import (
    Problem,
    Provenance,
    RequestHandle,
    ScheduleResult,
    Session,
)
from repro.scheduling.registry import (
    AlgorithmCapabilities,
    AlgorithmSpec,
    get_algorithm,
    list_algorithms,
    run_algorithm,
)

from repro.analysis import (
    achieved_gain,
    schedule_achieved_gain,
    free_power_feasible,
    free_power_spectral_radius,
    free_powers,
    greedy_max_feasible_subset,
    in_interference_measure,
    one_shot_capacity,
    opt_color_lower_bound,
    verify_schedule,
)
from repro.core import (
    BackendConfig,
    ClassAccumulator,
    DenseBackend,
    Direction,
    GainBackend,
    InfeasibleError,
    Instance,
    InterferenceContext,
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
    Schedule,
    ScheduleKernel,
    SparseBackend,
    build_schedule,
    config_scope,
    default_config,
    get_context,
    peel_max_feasible_subset,
    is_feasible_partition,
    is_feasible_subset,
    scale_powers_for_noise,
    signal_strengths,
    sinr_margins,
)
from repro.geometry import (
    EuclideanMetric,
    ExplicitMetric,
    GraphMetric,
    LineMetric,
    Metric,
    StarMetric,
    TreeMetric,
    aspect_ratio,
)
from repro.instances import (
    adaptive_lower_bound_instance,
    clustered_instance,
    exponential_node_chain,
    mst_connectivity_instance,
    nearest_neighbor_instance,
    equispaced_line_instance,
    exponential_chain_instance,
    growing_chain_instance,
    lower_bound_instance_for,
    nested_instance,
    random_graph_metric_instance,
    random_tree_metric_instance,
    random_uniform_instance,
)
from repro.nodeloss import (
    NodeLossInstance,
    StarNodeLoss,
    lemma5_subset,
    max_feasible_gain,
    nodeloss_from_pairs,
)
from repro.power import (
    ExplicitPower,
    FunctionPower,
    LinearPower,
    MeanPower,
    ObliviousPowerAssignment,
    PowerAssignment,
    SquareRootPower,
    UniformPower,
    geometric_power,
)
from repro.distributed import ShardedBackend, distributed_protocol
from repro.serialization import dumps as schedule_dumps
from repro.serialization import loads as schedule_loads

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # unified solver API
    "Problem",
    "Session",
    "ScheduleResult",
    "Provenance",
    "RequestHandle",
    "AlgorithmSpec",
    "AlgorithmCapabilities",
    "get_algorithm",
    "list_algorithms",
    "run_algorithm",
    # core
    "Instance",
    "Direction",
    "Schedule",
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "InfeasibleError",
    "signal_strengths",
    "sinr_margins",
    "is_feasible_subset",
    "is_feasible_partition",
    "scale_powers_for_noise",
    "InterferenceContext",
    "ClassAccumulator",
    "get_context",
    "BackendConfig",
    "config_scope",
    "default_config",
    "ScheduleKernel",
    "build_schedule",
    "peel_max_feasible_subset",
    # geometry
    "Metric",
    "EuclideanMetric",
    "LineMetric",
    "ExplicitMetric",
    "TreeMetric",
    "StarMetric",
    "GraphMetric",
    "aspect_ratio",
    # power
    "PowerAssignment",
    "ObliviousPowerAssignment",
    "UniformPower",
    "LinearPower",
    "SquareRootPower",
    "MeanPower",
    "FunctionPower",
    "ExplicitPower",
    "geometric_power",
    # scheduling
    "distributed_protocol",
    "ShardedBackend",
    "schedule_dumps",
    "schedule_loads",
    # node-loss / embedding
    "NodeLossInstance",
    "StarNodeLoss",
    "lemma5_subset",
    "max_feasible_gain",
    "nodeloss_from_pairs",
    # instances
    "nested_instance",
    "adaptive_lower_bound_instance",
    "growing_chain_instance",
    "lower_bound_instance_for",
    "random_uniform_instance",
    "clustered_instance",
    "random_tree_metric_instance",
    "random_graph_metric_instance",
    "equispaced_line_instance",
    "exponential_chain_instance",
    "mst_connectivity_instance",
    "nearest_neighbor_instance",
    "exponential_node_chain",
    # analysis
    "achieved_gain",
    "schedule_achieved_gain",
    "free_power_spectral_radius",
    "free_power_feasible",
    "free_powers",
    "greedy_max_feasible_subset",
    "one_shot_capacity",
    "opt_color_lower_bound",
    "in_interference_measure",
    "verify_schedule",
]
