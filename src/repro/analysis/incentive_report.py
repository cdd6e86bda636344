"""Empirical IC/IR report: is truthful bidding actually optimal here?

The paper *proves* incentive compatibility and individual rationality of
the equilibrium strategy (Theorems 1-3); this module measures both on the
running system.  For every registered deviation policy it runs the base
scenario with a small *deviant* fraction of the population bidding that
policy (everyone else truthful), through the experiment store so repeated
sweeps are incremental, and compares the deviants' realized per-node
payoff against a **truthful control run of the same node block** — a
labelled ``truthful`` mix over the identical nodes, seeds, and opponent
behaviour, so the comparison is exactly Theorem 1's unilateral-deviation
thought experiment (comparing against the truthful *remainder* instead
would bias the gap by whatever type draws the deviant block happened to
get):

* **IC gap** — mean deviant payoff minus the same block's mean truthful
  payoff.  A negative (or ~zero) gap on every policy is the empirical
  face of Theorem 1: no unilateral deviation profits.
* **IR floor** — the minimum realized payoff of any *winning* deviant
  bid.  With IR-enforcing policies this stays ≥ 0; policies that bid
  below cost (negative markups, unconstrained external agents) can and
  do go negative — which is the point of measuring it.

The entry points are :func:`run_incentive_sweep` (store-driven sweep →
:class:`IncentiveReport`) and the CLI ``python -m repro report
--incentives [--assert-ic]``; the CI ``incentive-smoke`` job runs a
scaled-down sweep and fails when truthful is not weakly optimal for the
paper's scheme.

Two empirical caveats the sweep surfaces (both reproducible with the
CLI):

* Theorem 1 is a *unilateral*-deviation statement about the Bayesian
  game the solver prices — IC only holds empirically when the simulated
  population matches that model (``theta_jitter=0``,
  ``availability_min_fraction=1``, capacity caps slack at the optimum,
  a small deviating fraction).  Coalitions of deviants, or a type
  distribution the solver never saw, profit happily.
* Under ``win_model="paper"`` (Eq. 9, the published formula — for
  ``K >= 2`` not the top-K win probability) the tabulated margin is
  *below* the exact-order-statistic best response, and flat overbidding
  beats the "equilibrium" ask.  With ``win_model="exact"`` truthful is weakly
  optimal against every deviation in the menu; the CI gate pins that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

__all__ = [
    "DEFAULT_DEVIATIONS",
    "IncentiveRow",
    "IncentiveReport",
    "run_incentive_sweep",
]

#: The default deviation menu: one spec per registered non-degenerate
#: policy family, parameterised to *try* to profit (overbid, underbid,
#: adapt).  ``truthful``/``external`` are excluded — the former is the
#: baseline itself, the latter has no autonomous behaviour.
DEFAULT_DEVIATIONS: tuple[dict, ...] = (
    {"name": "fixed_markup", "markup": 0.15},
    {"name": "fixed_markup", "markup": -0.1, "label": "fixed_markup_under"},
    {"name": "random_jitter", "payment_scale": 0.1},
    {"name": "regret_matching"},
    {"name": "adaptive_heuristic"},
)

_IC_TOLERANCE = 1e-9


@dataclass
class IncentiveRow:
    """One ``(scheme, policy)`` cell of the report."""

    scheme: str
    policy: str
    fraction: float
    #: Mean per-node payoff of the deviating block.
    deviant_payoff: float
    #: Mean per-node payoff of the *same* block in the truthful control run.
    truthful_payoff: float
    min_deviant_payoff: float

    @property
    def ic_gap(self) -> float:
        """Deviant minus truthful mean payoff (< 0: deviation loses)."""
        return self.deviant_payoff - self.truthful_payoff

    @property
    def ic_holds(self) -> bool:
        """Truthful weakly optimal against this deviation."""
        return self.ic_gap <= _IC_TOLERANCE

    @property
    def ir_holds(self) -> bool:
        """No winning deviant bid realized a negative payoff."""
        return self.min_deviant_payoff >= -_IC_TOLERANCE


@dataclass
class IncentiveReport:
    """The full sweep: one :class:`IncentiveRow` per ``(scheme, policy)``."""

    scenario_name: str
    fraction: float
    rows: list[IncentiveRow] = field(default_factory=list)

    @property
    def ic_holds(self) -> bool:
        """Truthful weakly optimal against *every* swept deviation."""
        return all(row.ic_holds for row in self.rows)

    def failures(self) -> list[IncentiveRow]:
        return [row for row in self.rows if not row.ic_holds]

    def to_markdown(self) -> str:
        """The report as a GitHub-flavoured markdown table."""
        lines = [
            f"# Incentive report — scenario `{self.scenario_name}`",
            "",
            f"Deviant fraction: {self.fraction:g} of the population; payoffs "
            "are per-node means over all rounds and seeds.  The truthful "
            "column is the *same node block* bidding truthfully (control "
            "run) — the unilateral-deviation comparison of Theorem 1.",
            "",
            "| scheme | policy | deviant payoff | truthful payoff | IC gap | IC | IR |",
            "|---|---|---:|---:|---:|:-:|:-:|",
        ]
        for r in self.rows:
            lines.append(
                f"| {r.scheme} | {r.policy} | {r.deviant_payoff:.6f} "
                f"| {r.truthful_payoff:.6f} | {r.ic_gap:+.6f} "
                f"| {'yes' if r.ic_holds else '**NO**'} "
                f"| {'yes' if r.ir_holds else 'no'} |"
            )
        verdict = (
            "Truthful bidding is weakly payoff-optimal against every swept "
            "deviation (empirical IC holds)."
            if self.ic_holds
            else "**Empirical IC violated** — some deviation out-earned the "
            "truthful group; see the IC column."
        )
        lines += ["", verdict, ""]
        return "\n".join(lines)

    def to_csv(self, path: str | Path | None = None) -> str:
        header = (
            "scheme,policy,fraction,deviant_payoff,truthful_payoff,"
            "ic_gap,ic_holds,ir_holds"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.scheme},{r.policy},{r.fraction:g},{r.deviant_payoff!r},"
                f"{r.truthful_payoff!r},{r.ic_gap!r},{r.ic_holds},{r.ir_holds}"
            )
        text = "\n".join(lines) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text


def run_incentive_sweep(
    scenario,
    store=None,
    deviations: Sequence[dict] = DEFAULT_DEVIATIONS,
    fraction: float = 0.2,
    engine=None,
    log=None,
    learned_episodes: int = 0,
    learner: str | dict = "q_table",
    learned_seed: int = 0,
) -> IncentiveReport:
    """Sweep deviation policies against ``scenario``; measure IC and IR.

    For each deviation spec and each *auction* scheme of the scenario's
    plan, the base scenario is re-run with ``fraction`` of the population
    assigned the deviation (``label="deviant"``) and the rest truthful.
    The truthful side of the comparison is a **control run** assigning
    the *same* node block a labelled ``truthful`` policy — identical
    bids to the plain hot path, but reported as a group — so IC gaps
    compare the same nodes under the same seeds and the same opponents,
    deviating vs not.  The scenario ``name`` is kept throughout, so every
    variant shares the base run's federations and type draws.  With a
    ``store`` each variant lands as ordinary manifests (repeat sweeps
    are incremental); payoffs come from the ``payoff_deviant_*``
    metrics columns.

    With ``learned_episodes > 0`` the sweep also trains the named
    ``BID_LEARNERS`` entry (:mod:`repro.strategic.learn`) for that many
    episodes per scheme — an *adaptive* adversary optimised against this
    exact population, deployed greedily through the ``learned`` bid
    policy and reported as the ``learned_deviation`` row.  Training is
    seed-deterministic (``learned_seed``); with a ``store`` the trainer
    checkpoints under its pseudo-cell and the policy artifact lands
    under ``<store>/learners/``, so repeat sweeps resume instead of
    retraining and the deviation run's manifests keep their addresses.
    """
    from ..api.engine import FMoreEngine
    from ..api.store import ExperimentStore

    if engine is None:
        engine = FMoreEngine()
    store = ExperimentStore.coerce(store)
    schemes = tuple(
        s for s in scenario.schemes if s in ("FMore", "PsiFMore")
    ) or ("FMore",)
    report = IncentiveReport(scenario_name=scenario.name, fraction=float(fraction))

    # Control: the deviant block bids truthfully (identity shading, same
    # bids as the untouched hot path) but reports as a payoff group.
    control_mix = [
        {"name": "truthful", "fraction": float(fraction), "label": "deviant"}
    ]
    control = scenario.with_(schemes=schemes, bidding={"mix": control_mix})
    if log is not None:
        log(f"running truthful control block over schemes {schemes}")
    control_frame = engine.run(control, store=store).metrics()
    baseline: dict[str, float] = {}
    for scheme in schemes:
        try:
            column = control_frame.filter(scheme=scheme).column(
                "payoff_deviant_mean"
            )
        except KeyError:
            column = []
        vals = [v for v in column if v is not None]
        if not vals:
            raise ValueError(
                f"truthful control block produced no payoff columns for "
                f"scheme {scheme!r} — the fraction rounds to zero nodes?"
            )
        baseline[scheme] = sum(vals) / len(vals)

    for spec in deviations:
        spec = dict(spec)
        label = str(spec.pop("label", spec["name"]))
        mix_entry = {**spec, "fraction": float(fraction), "label": "deviant"}
        variant = scenario.with_(
            schemes=schemes, bidding={"mix": [mix_entry]}
        )
        if log is not None:
            log(f"running deviation {label!r} over schemes {schemes}")
        frame = engine.run(variant, store=store).metrics()
        for scheme in schemes:
            report.rows.append(
                _deviation_row(frame, scheme, label, float(fraction), baseline)
            )

    if learned_episodes:
        _append_learned_rows(
            report,
            scenario,
            schemes,
            baseline,
            store=store,
            engine=engine,
            fraction=float(fraction),
            episodes=int(learned_episodes),
            learner=learner,
            learned_seed=int(learned_seed),
            log=log,
        )
    return report


def _deviation_row(
    frame, scheme: str, policy: str, fraction: float, baseline: dict[str, float]
) -> IncentiveRow:
    """One deviation's row, read off its run's ``payoff_deviant_*`` columns."""
    sub = frame.filter(scheme=scheme)
    deviant = [v for v in sub.column("payoff_deviant_mean") if v is not None]
    mins = [v for v in sub.column("payoff_deviant_min") if v is not None]
    if not deviant:
        raise ValueError(
            f"deviation {policy!r} produced no payoff columns for "
            f"scheme {scheme!r} — the strategic slice never bid"
        )
    return IncentiveRow(
        scheme=scheme,
        policy=policy,
        fraction=fraction,
        deviant_payoff=sum(deviant) / len(deviant),
        truthful_payoff=baseline[scheme],
        min_deviant_payoff=min(mins) if mins else 0.0,
    )


def _append_learned_rows(
    report: IncentiveReport,
    scenario,
    schemes: Sequence[str],
    baseline: dict[str, float],
    store,
    engine,
    fraction: float,
    episodes: int,
    learner: str | dict,
    learned_seed: int,
    log,
) -> None:
    """Train the adaptive adversary per scheme and measure its deviation.

    The learner trains against the base (all-truthful) population of the
    *same cell* the deviation then runs in (``env_seed`` = the plan's
    first seed), is frozen into a policy artifact, and deployed greedily
    on the deviant block.  Artifacts live under ``<store>/learners/``
    (or a temporary directory for store-less sweeps); the mix entry pins
    the artifact digest, so a changed training outcome changes the
    variant's content address instead of silently reusing stale
    manifests.
    """
    import tempfile

    from ..api.store import scenario_hash
    from ..strategic.learn import BidLearnerTrainer

    env_seed = int(scenario.seeds[0]) if scenario.seeds else 0
    tmp = None
    if store is not None:
        artifact_root = store.root / "learners" / scenario_hash(scenario)
    else:
        tmp = tempfile.TemporaryDirectory()
        artifact_root = Path(tmp.name)
    try:
        for scheme in schemes:
            trainer = BidLearnerTrainer(
                scenario,
                learner,
                scheme=scheme,
                env_seed=env_seed,
                train_seed=learned_seed,
                store=store,
                engine=engine,
            )
            if log is not None:
                log(
                    f"training learned adversary ({trainer.learner.name}, "
                    f"{episodes} episodes) against scheme {scheme!r}"
                )
            trainer.train(episodes, resume=store is not None)
            artifact = artifact_root / (
                f"{scheme}-{trainer.cell_scheme}-seed{learned_seed}.json"
            )
            digest = trainer.save_artifact(artifact)
            mix_entry = {
                "name": "learned",
                "artifact": str(artifact),
                "digest": digest,
                "fraction": fraction,
                "label": "deviant",
            }
            variant = scenario.with_(
                schemes=(scheme,), bidding={"mix": [mix_entry]}
            )
            if log is not None:
                log(f"running deviation 'learned_deviation' over scheme {scheme!r}")
            frame = engine.run(variant, store=store).metrics()
            report.rows.append(
                _deviation_row(
                    frame, scheme, "learned_deviation", fraction, baseline
                )
            )
    finally:
        if tmp is not None:
            tmp.cleanup()
