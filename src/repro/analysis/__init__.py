"""Analytics: equilibrium sweeps (Figs 8-10, Thms 2-3), convergence
summaries, and the empirical IC/IR incentive report."""

from .convergence import (
    HeadlineMetrics,
    SchemeSummary,
    headline_metrics,
    result_tables,
    summarize_schemes,
)
from .equilibrium_analysis import (
    ScoreTrackingSelection,
    WinnerStats,
    expected_profit_vs_k,
    expected_profit_vs_n,
    payment_score_sweep_k,
    payment_score_sweep_n,
    score_histogram,
    selection_rank_proportions,
    winner_stats,
)
from .incentive_report import (
    DEFAULT_DEVIATIONS,
    IncentiveReport,
    IncentiveRow,
    run_incentive_sweep,
)
from .theory_report import TheoremCheck, report, verify_all

__all__ = [
    "expected_profit_vs_n",
    "expected_profit_vs_k",
    "WinnerStats",
    "winner_stats",
    "payment_score_sweep_n",
    "payment_score_sweep_k",
    "score_histogram",
    "ScoreTrackingSelection",
    "selection_rank_proportions",
    "SchemeSummary",
    "summarize_schemes",
    "result_tables",
    "HeadlineMetrics",
    "headline_metrics",
    "TheoremCheck",
    "verify_all",
    "report",
    "DEFAULT_DEVIATIONS",
    "IncentiveRow",
    "IncentiveReport",
    "run_incentive_sweep",
]
