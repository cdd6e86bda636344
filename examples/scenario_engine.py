"""The declarative API tour: Scenario specs, registries, the engine.

Shows the three things the `repro.api` surface adds on top of the classic
builders:

1. **Declarative scenarios** — a frozen spec that round-trips through
   JSON, so experiments live in files and diff cleanly.
2. **Registry-driven components** — swap the type prior (or scoring rule,
   cost family, selection policy) by *name* without touching assembly
   code.
3. **Solver caching + batched bidding** — one engine reuses the
   equilibrium grid across seeds and schemes, and each auction round
   prices all N bids in one vectorised call.

Run:  python examples/scenario_engine.py        (~20 s)
"""

from repro.analysis import result_tables
from repro.api import FMoreEngine, Scenario
from repro.core.registry import COST_MODELS, SCORING_RULES, THETA_DISTRIBUTIONS

# --- 1. A declarative scenario, JSON round-trippable ----------------------
scenario = Scenario.from_preset(
    "smoke",
    "mnist_o",
    schemes=("FMore", "RandFL"),
    seeds=(0, 1, 2),
).with_(name="api-tour", n_rounds=4)

spec = scenario.to_json()
assert Scenario.from_json(spec) == scenario
print(f"scenario '{scenario.name}': {len(spec)} bytes of JSON, "
      f"{len(scenario.seeds)} seeds x {len(scenario.schemes)} schemes")
print(f"registered scoring rules: {SCORING_RULES.names()}")
print(f"registered cost models:   {COST_MODELS.names()}")
print(f"registered type priors:   {THETA_DISTRIBUTIONS.names()}\n")

# --- 2. One engine, one equilibrium grid for the whole plan ---------------
engine = FMoreEngine()
result = engine.run(scenario)
print(f"solver cache after the run: {engine.cache_misses} build(s), "
      f"{engine.cache_hits} reuse(s)\n")

# The seed-averaged curves and per-scheme summary (`python -m repro run`
# prints the same tables).
print(result_tables(result, target_accuracy=0.2))

# --- 3. Swap a component by name: a cost-skewed market ---------------------
# Most nodes cheap (Beta(2, 5) types), same game otherwise: one field edit.
skewed = scenario.with_(
    name="api-tour-skewed",
    theta={"name": "scaled_beta", "lo": 0.1, "hi": 1.0, "a": 2.0, "b": 5.0},
    schemes=("FMore",),
    seeds=(0,),
)
skewed_result = engine.run(skewed)
history = skewed_result.history("FMore")
print(
    f"\nskewed market (scaled_beta types): final accuracy "
    f"{history.final_accuracy:.3f}, total payment {history.total_payment:.2f}"
)
print(f"solver cache now: {engine.cache_misses} build(s) "
      f"(the skewed game is a different (s, c, F, N, K) key)")
