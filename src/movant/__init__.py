"""movant: how long should a base station reposition movable antennas
before transmitting?

The package models a line-of-sight multiuser downlink whose base-station
antennas can be mechanically repositioned inside a bounded region. Moving
longer reaches better channels but shrinks the remaining transmission time;
the tools here optimize that tradeoff, fit cheap rate-growth models to avoid
exhaustive searches, and evaluate closed-form stay/move thresholds.
"""

from .channel import (
    ChannelState,
    achievable_rate,
    channel_state,
    channel_vector,
    common_sinr,
    effective_throughput,
    optimal_power,
    trace_objective,
    zf_beamformer,
)
from .errors import FitDiverged, InfeasibleSpacing, MovantError, SingularChannel
from .gradients import GradientField, fd_gradient, grad_rate, grad_trace
from .harness import (
    RunConfig,
    SchemeId,
    SweepParameter,
    SweepSpec,
    default_scenario,
    run_scheme,
    run_sweep,
    scenario_from_config,
)
from .positioning import (
    OptimizeOutcome,
    PenaltyConfig,
    optimize_positions,
    separate_anchors,
    unconstrained_deploy,
)
from .scenario import Deployment, Scenario, Topology, two_antenna_line_scenario
from .scheduling import (
    FitKind,
    FitModel,
    SearchMethod,
    TradeoffReport,
    compute_t_mov_max,
    fit_rate_model,
    fitting_method,
    general_search,
    rate_at_duration,
)
from .stationarity import (
    Decision,
    SpecialCase,
    ThresholdReport,
    special_case_objective,
    special_case_rate,
    speed_threshold,
    time_threshold,
    verify_threshold,
)

__version__ = "0.1.0"
