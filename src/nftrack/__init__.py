"""Near-field pose tracking with a hybrid large-array receiver.

Simulator library for tracking the position and heading of a multi-antenna
mobile station from analog-combined uplink snapshots: spherical-wavefront
channel model, CTRV dynamics, information-form EKF with predictive analog
combining, Fisher-information/Bayesian-CRB analysis, and a reproducible
Monte Carlo campaign harness.
"""

__version__ = "0.1.0"

from .dynamics import MsState, ProcessNoiseSpec, ctrv_jacobian, ctrv_transition
from .errors import (
    AssumptionViolated,
    ConfigError,
    DegenerateGeometry,
    DegenerateJacobian,
    NfTrackError,
    RankDeficientCombiner,
    SingularPriorCovariance,
)
from .estimation import Belief, Combiner, ekf_predict, ekf_update, fim, score
from .geometry import (
    ArrayConfig,
    ChannelDerivatives,
    Pose,
    channel_derivatives,
    channel_matrix,
    pair_distance,
    pilot_response,
)
from .information import (
    AvgFisher,
    avg_fisher,
    bayesian_fim_step,
    expected_fim,
    fisher_scaling_bounds,
)
from .combiners import (
    CombinerSpec,
    QomPlan,
    combiner_fd,
    combiner_mo,
    combiner_qom,
    combiner_random,
    combiner_svd_pe,
    qom_plan,
    qom_resolution,
    qom_vector,
)
from .observation import full_snapshot, generate_pilot
from .harness import (
    CampaignResult,
    RfChains,
    ScenarioConfig,
    TrialRecord,
    load_config,
    metrics_rmse,
    parse_scheme,
    run_campaign,
    run_trial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
