"""Majority-vote competence math.

Exact majority probabilities for heterogeneous juries, learning-rate
trade-offs between group size and deliberation time, correlation bounds,
and simple competence dynamics, with a CSV-emitting command-line front end.
"""

from .correlation import (
    CommonCoin,
    CorrelatedVoteModel,
    CovarianceSpec,
    ExactMajoritySet,
    Independent,
    ladha_bound,
    model_moments,
    parse_model,
    sample_majority_rate,
)
from .csvio import CsvTable
from .dynamics import (
    DynamicsConfig,
    Outcome,
    OutcomeKind,
    Trajectory,
    classify_outcome,
    derivative_field,
    integrate,
    list_scenarios,
    load_scenario,
    parse_dynamics_config,
    trajectory_table,
)
from .errors import (
    DomainError,
    InfeasibleCovarianceError,
    IntegrationFailureError,
    NotConvergedError,
    TieRuleRequiredError,
    UnattainableTargetError,
)
from .figures import FIGURE_IDS, figure_table
from .profiles import (
    LearningProfile,
    LinearProfile,
    PlateauProfile,
    PowerProfile,
    competence_curve,
    format_profile,
    group_competence,
    parse_profile,
)
from .tradeoff import (
    AsymptoticCheck,
    asymptotic_rate_check,
    cost_curve,
    cost_to_reach,
    critical_group_rate,
    expert_threshold,
    fixed_budget_compare,
    initial_slope,
)
from .votemath import (
    CompetenceVector,
    MajorityRule,
    concentration_failure_bound,
    derivative_at_half,
    hoeffding_extremal,
    majorizes,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
    majority_prob_rows,
    vote_distribution,
)

__version__ = "0.1.0"
