"""Performance metrics: the paper's two headline quantities and friends.

Section II-B: "model accuracy and training rounds are two critical
performance metrics".  The evaluation reports, per scheme:

* accuracy / loss per round (Figs 4-7, 12),
* rounds needed to reach a target accuracy (Figs 9a, 10a, 11a),
* relative round reduction and accuracy improvement (the 51.3% / 28% /
  44.9% headline numbers),
* wall-clock time per round and time-to-accuracy (Fig 13).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "rounds_to_accuracy",
    "time_to_accuracy",
    "round_reduction",
    "accuracy_improvement",
    "speedup_percent",
]


def rounds_to_accuracy(accuracies: Sequence[float], target: float) -> int | None:
    """First 1-based round whose accuracy reaches ``target`` (None if never)."""
    for i, acc in enumerate(accuracies):
        if acc >= target:
            return i + 1
    return None


def time_to_accuracy(
    accuracies: Sequence[float], cumulative_times: Sequence[float], target: float
) -> float | None:
    """Simulated seconds until the model first reaches ``target`` accuracy."""
    if len(accuracies) != len(cumulative_times):
        raise ValueError("accuracies and times must align")
    reached = rounds_to_accuracy(accuracies, target)
    return None if reached is None else float(cumulative_times[reached - 1])


def round_reduction(baseline_rounds: int | None, scheme_rounds: int | None) -> float | None:
    """Percent fewer rounds than the baseline (positive = faster).

    The paper's "FMore reduces training rounds by 51.3%" is
    ``round_reduction(rounds(RandFL), rounds(FMore))`` averaged over tasks.
    """
    if baseline_rounds is None or scheme_rounds is None or baseline_rounds <= 0:
        return None
    return 100.0 * (baseline_rounds - scheme_rounds) / baseline_rounds


def accuracy_improvement(baseline_accuracy: float, scheme_accuracy: float) -> float:
    """Relative accuracy improvement in percent (paper's "+28%" style)."""
    if baseline_accuracy <= 0:
        return math.inf if scheme_accuracy > 0 else 0.0
    return 100.0 * (scheme_accuracy - baseline_accuracy) / baseline_accuracy


def speedup_percent(baseline_time: float | None, scheme_time: float | None) -> float | None:
    """Percent wall-clock reduction vs the baseline (positive = faster)."""
    if baseline_time is None or scheme_time is None or baseline_time <= 0:
        return None
    return 100.0 * (baseline_time - scheme_time) / baseline_time
