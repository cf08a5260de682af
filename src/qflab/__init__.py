"""qflab: quadratic public-goods funding rules, equilibria, attacks, rounds."""

from .errors import (
    DivergentGradientError,
    NoSolutionError,
    PolicyError,
    QFLabError,
    ScenarioFormatError,
)
from .mechanisms import (
    Contribution,
    ContributionProfile,
    DeficitMode,
    FundingOutcome,
    MechanismConfig,
    Variant,
    evaluate_outcome,
    fund,
    fund_beta,
    fund_cqf,
    fund_linear_match,
    fund_pm_qf,
    fund_private,
    fund_qf,
    funding_gradient,
    settle_deficit,
)
from .preferences import (
    Citizen,
    ConcavityReport,
    Family,
    ValueFunction,
    aggregate_marginal,
    concavity_audit,
)
from .equilibrium import (
    BestResponseResult,
    EquilibriumResult,
    GoodDiagnostics,
    Scenario,
    best_response,
    best_response_full,
    closed_form_qf_equilibrium,
    one_p_one_v_outcome,
    optimal_funding,
    solve_equilibrium,
)
from .analysis import (
    AttackAccounting,
    AttackReport,
    CartelReport,
    JensenDirection,
    InfluenceIdentityCheck,
    Sharing,
    WelfareReport,
    distortion_uniformity,
    cartel_defection,
    fraud_arbitrage,
    jensen_direction,
    influence_identity_check,
    solve_alpha_for_budget,
    welfare,
)
from .rounds import (
    AgentView,
    AssurancePolicy,
    EventKind,
    GoodSettlement,
    MyopicBestResponse,
    RoundEvent,
    RoundLedger,
    SettlementStatus,
    ThresholdPledger,
    assurance_settlement,
    ledger_to_csv,
    provisional_snapshot,
    run_round,
    snapshots_to_json,
)

__version__ = "0.1.0"
