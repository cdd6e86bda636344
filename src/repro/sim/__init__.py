"""Experiment utilities: named seed streams and ASCII reporting.

Scenario presets live in :mod:`repro.api.scenario` and every run goes
through :class:`repro.api.FMoreEngine`; this package keeps the
named-seed-stream helpers every cell derives its randomness from
(:mod:`repro.sim.rng`) and the ASCII tables the CLI and benches print
(:mod:`repro.sim.reporting`).
"""

from .reporting import ascii_table, fmt, paper_vs_measured, series_table
from .rng import rng_from, rng_state, set_rng_state, spawn_rngs

__all__ = [
    "ascii_table",
    "series_table",
    "paper_vs_measured",
    "fmt",
    "rng_from",
    "spawn_rngs",
    "rng_state",
    "set_rng_state",
]
