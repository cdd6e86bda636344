"""The FMore contribution: multi-dimensional procurement auction with K winners.

Public surface of the auction-theory layer.  Typical usage::

    from repro.core import (
        AdditiveScore, QuadraticCost, UniformTheta, PrivateValueModel,
        EquilibriumSolver, MultiDimensionalProcurementAuction, Bid,
    )

    rule = AdditiveScore([0.5, 0.5])
    cost = QuadraticCost([1.0, 1.0])
    model = PrivateValueModel(UniformTheta(0.1, 1.0), n_nodes=100, k_winners=20)
    solver = EquilibriumSolver(rule, cost, model, [[0, 10], [0, 1]])
    quality, payment = solver.bid(theta=0.4)
"""

from .auction import AuctionOutcome, MultiDimensionalProcurementAuction
from .bids import AuctionWinner, Bid, ScoredBid
from .blacklist import (
    Blacklist,
    DeliveryReport,
    Violation,
    audit_round,
    simulate_deliveries,
)
from .budget import BudgetedAuction
from .costs import (
    CostModel,
    LinearCost,
    PowerCost,
    QuadraticCost,
    SingleCrossingReport,
    check_single_crossing,
)
from .equilibrium import (
    EquilibriumSolver,
    optimize_quality,
    optimize_quality_batch,
    win_kernel,
)
from .guidance import (
    GuidanceResult,
    alphas_for_target_mix,
    observed_procurement_mix,
    optimal_quality_mix,
    quality_ratio,
    retuned_alphas,
    solve_mix_numerically,
)
from .mechanism import FMoreMechanism, MechanismRound, RoundAccounting
from .policies import (
    AuditBlacklistPolicy,
    ChurnPolicy,
    GuidancePolicy,
    PIPELINE_STAGES,
    PolicyAction,
    RoundContext,
    RoundPolicy,
    SelectionPolicy,
    build_policy_pipeline,
)
from .odesolvers import MARGIN_BACKENDS, euler_margin, quadrature_margin, rk4_margin
from .properties import (
    ICViolation,
    check_incentive_compatibility,
    is_individually_rational,
    max_social_surplus,
    pareto_gap,
    profit_of_payment_deviation,
    realized_social_surplus,
    social_surplus,
)
from .registry import (
    COST_MODELS,
    MARGIN_METHODS,
    PAYMENT_RULES,
    ROUND_POLICIES,
    SCORING_RULES,
    THETA_DISTRIBUTIONS,
    WINNER_SELECTIONS,
    Registry,
)
from .psi import (
    PerNodePsiSelection,
    PsiSelection,
    RankPsiSchedule,
    TopKSelection,
    WinnerSelection,
    negative_binomial_fill_probability,
    paper_fill_probability,
)
from .scoring import (
    AdditiveScore,
    CobbDouglasScore,
    MultiplicativeScore,
    PerfectComplementaryScore,
    QuasiLinearScoringRule,
    ScoringRule,
    normalize_weights,
)
from .valuation import (
    PrivateValueModel,
    ScaledBetaTheta,
    ThetaDistribution,
    TruncatedNormalTheta,
    UniformTheta,
)

__all__ = [
    # registries
    "Registry",
    "SCORING_RULES",
    "COST_MODELS",
    "THETA_DISTRIBUTIONS",
    "WINNER_SELECTIONS",
    "PAYMENT_RULES",
    "MARGIN_METHODS",
    "ROUND_POLICIES",
    # scoring
    "ScoringRule",
    "AdditiveScore",
    "PerfectComplementaryScore",
    "CobbDouglasScore",
    "MultiplicativeScore",
    "QuasiLinearScoringRule",
    "normalize_weights",
    # costs
    "CostModel",
    "LinearCost",
    "QuadraticCost",
    "PowerCost",
    "SingleCrossingReport",
    "check_single_crossing",
    # valuation
    "ThetaDistribution",
    "UniformTheta",
    "TruncatedNormalTheta",
    "ScaledBetaTheta",
    "PrivateValueModel",
    # equilibrium
    "EquilibriumSolver",
    "optimize_quality",
    "optimize_quality_batch",
    "win_kernel",
    "MARGIN_BACKENDS",
    "euler_margin",
    "rk4_margin",
    "quadrature_margin",
    # auction
    "Bid",
    "ScoredBid",
    "AuctionWinner",
    "AuctionOutcome",
    "MultiDimensionalProcurementAuction",
    # selection
    "WinnerSelection",
    "TopKSelection",
    "PsiSelection",
    "PerNodePsiSelection",
    "RankPsiSchedule",
    "paper_fill_probability",
    "negative_binomial_fill_probability",
    # enforcement and budget extensions
    "Blacklist",
    "DeliveryReport",
    "Violation",
    "audit_round",
    "simulate_deliveries",
    "BudgetedAuction",
    # guidance
    "GuidanceResult",
    "optimal_quality_mix",
    "quality_ratio",
    "alphas_for_target_mix",
    "solve_mix_numerically",
    "observed_procurement_mix",
    "retuned_alphas",
    # properties
    "is_individually_rational",
    "profit_of_payment_deviation",
    "ICViolation",
    "check_incentive_compatibility",
    "social_surplus",
    "max_social_surplus",
    "pareto_gap",
    "realized_social_surplus",
    # mechanism
    "FMoreMechanism",
    "MechanismRound",
    "RoundAccounting",
    # round-policy pipeline
    "RoundPolicy",
    "RoundContext",
    "PolicyAction",
    "SelectionPolicy",
    "GuidancePolicy",
    "AuditBlacklistPolicy",
    "ChurnPolicy",
    "PIPELINE_STAGES",
    "build_policy_pipeline",
]
