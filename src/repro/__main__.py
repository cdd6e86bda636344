"""Command-line entry point: reproduce figures without pytest.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro theory               # verify all theorems (Section IV)
    python -m repro compare mnist_o      # Fig 4-7 style comparison
    python -m repro compare mnist_o --schemes FMore,PsiFMore,RandFL
    python -m repro cluster              # Fig 12-13 style cluster run
    python -m repro sweep-n              # Fig 9b payment/score vs N
    python -m repro sweep-k              # Fig 10b payment/score vs K
    python -m repro run --scenario exp.json          # declarative run
    python -m repro run --preset smoke --set seeds=0,1,2 --set n_rounds=5
    python -m repro run --preset bench --set seeds=0,1,2 --parallel 4
    python -m repro run --preset cluster_cifar10     # Fig 12-13 via the engine
    python -m repro scenario --preset bench > exp.json   # emit a spec

    # Durable runs: content-addressed manifests + checkpoint/resume.
    python -m repro run --preset bench --store runs/ --checkpoint-every 5
    python -m repro run --preset bench --store runs/ --resume   # pick up a crash
    python -m repro run --preset bench --store runs/ --set seeds=0,1,2,3,4
    #   ^ completed (scheme, seed) cells are loaded, only new ones compute
    python -m repro report --store runs/             # scheme comparison tables
    python -m repro report --store runs/ --csv metrics.csv   # metrics frame

    # Strategic bidders: empirical IC/IR sweep (repro.strategic).
    python -m repro run --preset smoke \
        --set 'bidding={"mix":[{"name":"fixed_markup","fraction":0.2,"markup":0.1}]}'
    python -m repro report --incentives --preset smoke --store runs/
    python -m repro report --incentives --preset paper --set win_model=exact \
        --assert-ic                         # CI gate
    #   ^ also trains the adaptive adversary (--learned-episodes, default 8)
    #     and gates the resulting "learned_deviation" row

    # Learned bidders: train an RL policy over the auction gym
    # (repro.strategic.learn), checkpointed through the store.
    python -m repro train-bidder --preset smoke --store runs/ \
        --learner q_table --episodes 60 --artifact policy.json --curve curve.csv
    python -m repro train-bidder --preset smoke --store runs/ --resume \
        --episodes 120                      # continue bitwise from the store
    python -m repro train-bidder --preset smoke --eval-episodes 4 \
        --assert-improves                   # exit 1 unless it beats the jitter baseline
    python -m repro run --preset smoke \
        --set 'bidding={"mix":[{"name":"learned","artifact":"policy.json","fraction":0.2}]}'

    # Distributed sweeps: cells fan out over a shared store (docs/deployment.md).
    python -m repro run --preset bench --set seeds=0,1,2,3 \
        --executor distributed --parallel 4 --store runs/   # spawn 4 local workers
    python -m repro worker --store runs/             # worker on any machine
    python -m repro scenario --preset bench --emit-jobs jobs/  # SLURM-style scripts

    # Event-driven coordination: push-based sweeps over the same store.
    python -m repro coordinator --store runs/ --port 7464    # the service
    python -m repro worker --coordinator http://HOST:7464    # warm worker
    python -m repro run --preset bench --set seeds=0,1,2,3 --store runs/ \
        --executor service --coordinator http://HOST:7464    # submit a sweep

    # Registry reference: every scenario-addressable component spec.
    python -m repro registry                         # plain summary
    python -m repro registry --markdown              # docs/scenario_reference.md

    # Round-policy pipeline: per-round behaviors as --policy stage=spec.
    python -m repro run --preset smoke \
        --policy 'selection={"name":"per_node_psi","schedule":"geometric","psi0":0.9,"decay":0.95}'
    python -m repro run --preset smoke --policy 'churn={"departure_prob":0.1}' \
        --policy 'audit_blacklist={"defect_fraction":0.2,"shortfall":0.5}'
    python -m repro compare mnist_o --schemes FMore,PsiFMore \
        --policy 'PsiFMore.selection={"name":"psi","psi":0.6}'   # per-scheme

The ``run`` command consumes :class:`repro.api.Scenario` JSON files (see
``scenario`` to generate one) and drives the :class:`repro.api.FMoreEngine`
façade; ``--set key=value`` overrides any scenario field.  Multi-seed
sweeps fan their ``(scheme, seed)`` cells out through the scenario's
``execution`` spec: ``--parallel N`` runs them on an N-worker process pool
and ``--executor serial|thread|process`` picks the pool type (results are
bitwise-identical either way).  ``--local-parallel N`` additionally fans
each round's K winner trainings over a within-round thread pool (serial/
thread/process agree bitwise with each other).  The pytest benches in
``benchmarks/`` remain the canonical reproduction (they record
paper-vs-measured blocks); this CLI is the quick interactive path.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

import numpy as np

COMMANDS = (
    "list",
    "theory",
    "compare",
    "cluster",
    "sweep-n",
    "sweep-k",
    "run",
    "scenario",
    "report",
    "train-bidder",
    "worker",
    "coordinator",
    "registry",
)

# Exit status of an intentionally-interrupted `run --stop-after N`: the
# cells are checkpointed, not failed (shells read 3 as "try again with
# --resume"; distinct from argparse's 2 and error's 1).
EXIT_INCOMPLETE = 3

DEFAULT_SCHEMES = ("FMore", "RandFL", "FixFL")


def _parse_schemes(raw: str | None, default: tuple[str, ...] = DEFAULT_SCHEMES):
    from .api import SCHEME_NAMES

    if raw is None:
        return default
    schemes = tuple(s.strip() for s in raw.split(",") if s.strip())
    for s in schemes:
        if s not in SCHEME_NAMES:
            raise SystemExit(f"unknown scheme {s!r}; choose from {SCHEME_NAMES}")
    if not schemes:
        raise SystemExit("--schemes must name at least one scheme")
    return schemes


def _cmd_list() -> int:
    print(__doc__)
    print("datasets for `compare`/`run`: mnist_o, mnist_f, cifar10, hpnews")
    return 0


def _cmd_theory() -> int:
    from .analysis import report, verify_all

    checks = verify_all(seed=0)
    print(report(checks))
    return 0 if all(c.passed for c in checks) else 1


def _policy_overrides(policy_args: list[str]) -> list[str]:
    """Translate ``--policy stage=spec`` items into dotted --set paths.

    A stage key prefixed with a scheme name (``PsiFMore.selection=...``)
    lands under ``policies.per_scheme`` — that is how ``compare`` pits two
    pipelines of the same scheme family against each other in one run.
    """
    from .api import SCHEME_NAMES

    overrides = []
    for item in policy_args:
        key, sep, value = str(item).partition("=")
        if not sep:
            raise SystemExit(f"error: --policy {item!r} is not STAGE=SPEC")
        key = key.strip()
        root = key.split(".", 1)[0]
        path = f"policies.per_scheme.{key}" if root in SCHEME_NAMES else f"policies.{key}"
        overrides.append(f"{path}={value}")
    return overrides


def _cmd_compare(
    dataset: str,
    seed: int,
    rounds: int | None,
    schemes_raw: str | None,
    policy_args: list[str] | None = None,
) -> int:
    from .analysis import summarize_schemes
    from .api import FMoreEngine, Scenario
    from .sim.reporting import ascii_table, series_table

    scenario = Scenario.from_preset(
        "bench", dataset, schemes=_parse_schemes(schemes_raw), seeds=(seed,)
    )
    if rounds is not None:
        scenario = scenario.with_(n_rounds=rounds)
    if policy_args:
        try:
            scenario = scenario.with_overrides(_policy_overrides(policy_args))
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"error: {exc}")
    results = FMoreEngine().run(scenario).comparison()
    print(
        series_table(
            f"accuracy per round ({dataset})",
            "round",
            list(range(1, scenario.n_rounds + 1)),
            {s: [round(a, 3) for a in h.accuracies] for s, h in results.items()},
        )
    )
    rows = [
        (s.scheme, round(s.final_accuracy, 3), s.rounds_to_target, round(s.total_payment, 3))
        for s in summarize_schemes(results, target_accuracy=0.5)
    ]
    print()
    print(ascii_table(["scheme", "final acc", "rounds to 50%", "payment"], rows))
    return 0


def _load_scenario(args) -> "object":
    import json

    from .api import Scenario

    try:
        if args.scenario is not None:
            scenario = Scenario.from_json(Path(args.scenario).read_text())
        else:
            scenario = Scenario.from_preset(args.preset, args.dataset)
        if args.schemes is not None:
            scenario = scenario.with_(schemes=_parse_schemes(args.schemes))
        if args.rounds is not None:
            scenario = scenario.with_(n_rounds=args.rounds)
        if args.overrides:
            scenario = scenario.with_overrides(args.overrides)
        if args.policies:
            scenario = scenario.with_overrides(_policy_overrides(args.policies))
        store_executors = ("distributed", "service")
        if (
            args.executor is not None
            or args.parallel is not None
            or args.coordinator is not None
        ):
            execution = dict(scenario.execution)
            if args.executor is not None:
                execution["executor"] = args.executor
            if args.coordinator is not None:
                # --coordinator URL implies the service executor.
                if args.executor not in (None, "service"):
                    raise SystemExit(
                        "error: --coordinator only applies to "
                        "--executor service"
                    )
                execution["executor"] = "service"
                execution["coordinator_url"] = args.coordinator
            if args.parallel is not None:
                execution["max_workers"] = args.parallel
                if (
                    args.executor is None
                    and execution["executor"] not in store_executors
                ):
                    execution["executor"] = "process"
            if execution["executor"] not in store_executors:
                # The store-coordination knobs (filled in by
                # canonicalisation) must not survive a switch to a pool
                # executor — Scenario validation rejects them there.
                execution.pop("lease_seconds", None)
                execution.pop("poll_interval", None)
            if execution["executor"] != "service":
                execution.pop("coordinator_url", None)
            scenario = scenario.with_(execution=execution)
        if getattr(args, "local_parallel", None) is not None:
            execution = dict(scenario.execution)
            local_training = dict(execution.get("local_training") or {})
            local_training.setdefault("executor", "thread")
            local_training["max_workers"] = args.local_parallel
            execution["local_training"] = local_training
            scenario = scenario.with_(execution=execution)
    except (ValueError, TypeError, json.JSONDecodeError, OSError) as exc:
        raise SystemExit(f"error: {exc}")
    return scenario


def _cmd_scenario(args) -> int:
    """Emit the (validated) scenario JSON — or batch job scripts — for it."""
    scenario = _load_scenario(args)
    if args.emit_jobs is not None:
        from .api import emit_job_scripts

        written = emit_job_scripts(scenario, args.emit_jobs)
        n_cells = len(scenario.schemes) * len(scenario.seeds)
        print(
            f"wrote {len(written)} file(s) for {n_cells} (scheme, seed) "
            f"cell(s) under {args.emit_jobs}:"
        )
        for path in written:
            print(f"  {path}")
        print(
            "\nsubmit with: STORE=/shared/store sbatch "
            f"{Path(args.emit_jobs) / 'submit_array.sh'}"
        )
        return 0
    print(scenario.to_json())
    return 0


def _cmd_worker(args) -> int:
    """Claim and run queued cells — filesystem polling or coordinator push."""
    from .api import CoordinatorError, StoreMismatchError, run_worker

    if args.store is None and args.coordinator is None:
        raise SystemExit(
            "error: worker needs --store DIR (the shared store) and/or "
            "--coordinator URL (the push service)"
        )
    label = args.worker_id
    try:
        completed = run_worker(
            args.store,
            coordinator=args.coordinator,
            poll_interval=args.poll_interval,
            max_cells=args.max_cells,
            exit_when_idle=args.exit_when_idle,
            worker_id=label,
        )
    except (StoreMismatchError, CoordinatorError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("\nworker interrupted; claimed cells will be re-queued by lease")
        return 1
    print(f"worker{f' {label}' if label else ''}: completed {completed} cell(s)")
    return 0


def _cmd_coordinator(args) -> int:
    """Run the event-driven coordination service until SIGTERM/SIGINT."""
    import asyncio

    from .api import CoordinatorService

    if args.store is None:
        raise SystemExit("error: coordinator needs --store DIR (the shared store)")
    service = CoordinatorService(
        args.store,
        host=args.host,
        port=args.port,
        poll_interval=args.poll_interval,
    )

    async def _serve() -> None:
        task = asyncio.ensure_future(
            service.serve(install_signal_handlers=True)
        )
        while not service.ready.is_set() and not task.done():
            await asyncio.sleep(0.01)  # let serve() bind before announcing
        if service.ready.is_set() and service.error is None:
            print(
                f"coordinator: {service.url} over store {args.store} "
                "(SIGTERM/SIGINT or POST /shutdown to stop)",
                flush=True,
            )
        await task

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    print("coordinator: stopped (the queue persists in the store's jobs/ tree)")
    return 0


def _cmd_registry(args) -> int:
    """Print the registered-component reference (see docs/scenario_reference.md)."""
    from .api.reference import registry_reference_markdown, registry_summary

    if args.markdown:
        print(registry_reference_markdown(), end="")
    else:
        print(registry_summary())
    return 0


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _cmd_run(args) -> int:
    from .api import EXECUTORS, FMoreEngine, IncompleteRunError, StoreMismatchError
    from .sim.reporting import ascii_table, series_table

    scenario = _load_scenario(args)
    engine = FMoreEngine()
    previous = None
    if EXECUTORS.get(scenario.execution["executor"]).needs_store:
        # The executor spawns workers: on SIGTERM, unwind through
        # FMoreEngine.run's ``finally`` (which stops them) instead of
        # dying on the spot and orphaning them.
        try:
            previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
        except ValueError:  # not the main thread: leave signals alone
            pass
    try:
        result = engine.run(
            scenario,
            store=args.store,
            force=args.force,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            stop_after=args.stop_after,
        )
    except StoreMismatchError as exc:
        raise SystemExit(f"error: {exc}")
    except IncompleteRunError as exc:
        print(exc)
        return EXIT_INCOMPLETE
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    multi_seed = len(scenario.seeds) > 1
    rounds = list(range(1, scenario.n_rounds + 1))
    if multi_seed:
        stats = result.averaged()
        series = {s: [round(float(a), 3) for a in st["accuracy"].mean] for s, st in stats.items()}
        title = f"mean accuracy per round ({scenario.name}, {len(scenario.seeds)} seeds)"
    else:
        series = {
            s: [round(a, 3) for a in result.history(s).accuracies]
            for s in scenario.schemes
        }
        title = f"accuracy per round ({scenario.name})"
    print(series_table(title, "round", rounds, series))
    rows = []
    for scheme in scenario.schemes:
        finals = [h.final_accuracy for h in result.histories[scheme]]
        payments = [h.total_payment for h in result.histories[scheme]]
        rows.append(
            (scheme, round(float(np.mean(finals)), 4), round(float(np.mean(payments)), 3))
        )
    print()
    print(ascii_table(["scheme", "final acc", "payment"], rows))
    executor = scenario.execution["executor"]
    workers = scenario.execution["max_workers"]
    if executor in ("process", "distributed", "service"):
        # Solver builds happen inside the worker processes (one cache
        # each); the parent engine's counters would misleadingly read 0.
        print(
            f"\nsolver cache: per-worker [{executor} executor"
            + (f", {workers} workers]" if workers else "]")
        )
    else:
        note = "" if executor == "serial" else f" [{executor} executor]"
        print(
            f"\nsolver cache: {engine.cache_misses} build(s), "
            f"{engine.cache_hits} reuse(s) across {len(scenario.seeds)} seed(s)"
            + note
        )
    if args.store is not None:
        from .api import scenario_hash

        print(
            f"store: manifests under {args.store} "
            f"(scenario {scenario_hash(scenario)[:12]}…)"
        )
    return 0


def _cmd_train_bidder(args) -> int:
    """Train a ``BID_LEARNERS`` policy over the auction gym."""
    from .api.store import ExperimentStore, StoreError
    from .strategic.learn import (
        BidLearnerTrainer,
        curve_to_csv,
        evaluate,
        greedy_controller,
        jitter_controller,
    )

    scenario = _load_scenario(args)
    if args.episodes < 0:
        raise SystemExit("error: --episodes must be >= 0")
    store = None
    if args.store is not None:
        try:
            store = ExperimentStore(
                args.store,
                keep_last_n=args.keep_last,
                keep_every_k=args.keep_every,
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    try:
        trainer = BidLearnerTrainer(
            scenario,
            args.learner,
            scheme=args.train_scheme,
            env_seed=args.seed,
            node_id=args.node_id,
            train_seed=args.train_seed,
            store=store,
            checkpoint_every=args.checkpoint_every,
        )
        resumed_from = trainer.resume() if args.resume else 0
        curve = trainer.train(args.episodes)
    except (StoreError, ValueError, TypeError, KeyError) as exc:
        raise SystemExit(f"error: {exc}")
    played = trainer.episodes_done - resumed_from
    tail = curve[-min(5, len(curve)) :]
    tail_mean = (
        sum(row["payoff"] for row in tail) / len(tail) if tail else 0.0
    )
    # The env resolves the default node on its first reset; a pure-resume
    # run never resets, so fall back to the requested id ("first").
    node = trainer.env.node_id
    if node is None:
        node = trainer.node_id if trainer.node_id is not None else "first"
    print(
        f"trained {trainer.learner.name} on cell ({args.train_scheme}, "
        f"seed {args.seed}, node {node}): "
        f"{played} episode(s) this run, {trainer.episodes_done} total"
        + (f" (resumed at {resumed_from})" if resumed_from else "")
    )
    if curve:
        print(f"mean payoff over the last {len(tail)} episode(s): {tail_mean:.6f}")
    if store is not None:
        print(
            f"store: checkpoints under {args.store} "
            f"(cell {trainer.cell_scheme}-seed{trainer.train_seed}, "
            f"retained episodes {store.checkpoint_rounds(scenario, trainer.cell_scheme, trainer.train_seed)})"
        )
    if args.artifact is not None:
        digest = trainer.save_artifact(args.artifact)
        print(f"wrote policy artifact {args.artifact} (sha256 {digest[:12]}…)")
    if args.curve is not None:
        curve_to_csv(curve, args.curve)
        print(f"wrote {len(curve)} training-curve rows to {args.curve}")
    if args.eval_episodes:
        common = dict(
            scheme=args.train_scheme,
            seed=args.seed,
            node_id=args.node_id,
            episodes=args.eval_episodes,
            engine=trainer.env.engine,
        )
        learned = evaluate(
            scenario, greedy_controller(trainer.learner), **common
        )
        jitter = evaluate(
            scenario, jitter_controller(seed=args.train_seed), **common
        )
        learned_mean = sum(learned) / len(learned)
        jitter_mean = sum(jitter) / len(jitter)
        print(
            f"evaluation over {args.eval_episodes} episode(s): learned "
            f"{learned_mean:.6f} vs random_jitter {jitter_mean:.6f} per episode"
        )
        if args.assert_improves and learned_mean <= jitter_mean:
            print(
                "IMPROVEMENT ASSERTION FAILED: the learned policy did not "
                "out-earn the random_jitter baseline"
            )
            return 1
    return 0


def _cmd_report_incentives(args) -> int:
    """Run the IC/IR deviation sweep and render its table."""
    from .analysis import run_incentive_sweep

    scenario = _load_scenario(args)
    if not (0.0 < args.deviant_fraction < 1.0):
        raise SystemExit("error: --deviant-fraction must lie in (0, 1)")
    if args.learned_episodes < 0:
        raise SystemExit("error: --learned-episodes must be >= 0")
    if args.assert_ic and scenario.win_model == "paper":
        print(
            "warning: under win_model=paper --assert-ic tests Eq. 9's win "
            "kernel, not the mechanism; add --set win_model=exact to test "
            "the mechanism",
            file=sys.stderr,
        )
    try:
        report = run_incentive_sweep(
            scenario,
            store=args.store,
            fraction=args.deviant_fraction,
            log=lambda msg: print(f"  {msg}", file=sys.stderr),
            learned_episodes=args.learned_episodes,
            learner=args.learner,
            learned_seed=args.train_seed,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(report.to_markdown())
    if args.csv is not None:
        report.to_csv(args.csv)
        print(f"wrote {len(report.rows)} report rows to {args.csv}")
    if args.assert_ic and not report.ic_holds:
        bad = ", ".join(
            f"{r.policy}@{r.scheme} (gap {r.ic_gap:+.6f})"
            for r in report.failures()
        )
        print(f"IC ASSERTION FAILED: deviations out-earned truthful: {bad}")
        return 1
    return 0


def _cmd_report(args) -> int:
    """Render scheme-comparison tables from an experiment store."""
    from .api.store import StoreError

    if args.incentives:
        return _cmd_report_incentives(args)
    if args.store is None:
        raise SystemExit("error: report needs --store DIR")
    try:
        return _report_store(args)
    except StoreError as exc:
        # A damaged store (a manifest or scenario file that does not parse)
        # is the user's to mend: one line naming the file, no traceback.
        raise SystemExit(f"error: {exc}")


def _report_store(args) -> int:
    from .api import RunResult, Scenario, scenario_hash
    from .api.store import ExperimentStore
    from .sim.reporting import ascii_table

    store = ExperimentStore(args.store)
    stored = store.scenarios()
    if args.scenario is not None:
        try:
            wanted = Scenario.from_json(Path(args.scenario).read_text())
        except (ValueError, OSError) as exc:
            raise SystemExit(f"error: {exc}")
        h = scenario_hash(wanted)
        if h not in stored:
            listing = ", ".join(
                f"{k[:12]}… ({v.get('name', '?')})" for k, v in stored.items()
            ) or "none"
            raise SystemExit(
                f"error: scenario {h[:12]}… ({wanted.name!r}) has no runs in "
                f"{args.store}; stored: {listing}"
            )
        stored = {h: stored[h]}
    if not stored:
        raise SystemExit(f"error: no runs stored under {args.store}")
    if args.csv is not None and len(stored) > 1:
        raise SystemExit(
            "error: --csv needs a single scenario; narrow the report with "
            "--scenario FILE"
        )
    print(f"experiment store: {args.store}")
    for h in stored:
        scenario = store.load_scenario(h)
        cells = [(s, d) for (_, s, d) in store.cells(h)]
        found_schemes = sorted(
            {s for s, _ in cells},
            key=lambda s: (
                scenario.schemes.index(s) if s in scenario.schemes else 99
            ),
        )
        seeds_of = {
            s: sorted(d for sc, d in cells if sc == s) for s in found_schemes
        }
        print(
            f"\nscenario {scenario.name!r} ({h[:12]}…): "
            f"{len(cells)} stored cell(s), {scenario.n_rounds} rounds"
        )
        rows = []
        loaded = {}
        for scheme in found_schemes:
            seeds = seeds_of[scheme]
            histories = [store.load_history(h, scheme, d) for d in seeds]
            loaded[scheme] = dict(zip(seeds, histories))
            finals = [hist.final_accuracy for hist in histories]
            payments = [hist.total_payment for hist in histories]
            mean_curve = np.mean([hist.accuracies for hist in histories], axis=0)
            reached = [
                i + 1 for i, a in enumerate(mean_curve) if a >= args.target
            ]
            bans = [
                sum(
                    1
                    for r in hist.records
                    for a in r.policy_actions
                    if a.kind == "ban"
                )
                for hist in histories
            ]
            rows.append(
                (
                    scheme,
                    len(seeds),
                    round(float(np.mean(finals)), 4),
                    reached[0] if reached else None,
                    round(float(np.mean(payments)), 3),
                    round(float(np.mean(bans)), 2),
                )
            )
        print(
            ascii_table(
                [
                    "scheme",
                    "seeds",
                    "final acc",
                    f"rounds to {args.target:.0%}",
                    "payment",
                    "bans",
                ],
                rows,
            )
        )
        if args.csv is not None:
            # The metrics frame needs a rectangular plan: every scheme must
            # cover the same seed set.
            seed_sets = {frozenset(v) for v in seeds_of.values()}
            if len(seed_sets) != 1:
                raise SystemExit(
                    "error: --csv needs a complete (scheme x seed) grid; "
                    f"stored seeds differ per scheme: {dict(seeds_of)}"
                )
            plan = scenario.with_(
                schemes=tuple(found_schemes),
                seeds=tuple(sorted(seed_sets.pop())),
            )
            frame = RunResult(
                plan,
                {
                    scheme: [loaded[scheme][seed] for seed in plan.seeds]
                    for scheme in plan.schemes
                },
            ).metrics()
            frame.to_csv(args.csv)
            print(f"\nwrote {len(frame)} metric rows to {args.csv}")
    return 0


def _cmd_cluster(seed: int) -> int:
    from .api import FMoreEngine, Scenario
    from .sim.reporting import series_table

    scenario = Scenario.from_preset(
        "cluster_cifar10",
        seeds=(seed,),
        n_rounds=10, size_range=(150, 900), test_per_class=25, model_width=0.18,
    )
    results = FMoreEngine().run(scenario).comparison()
    rounds = list(range(1, scenario.n_rounds + 1))
    print(
        series_table(
            "cluster accuracy per round", "round", rounds,
            {s: [round(a, 3) for a in h.accuracies] for s, h in results.items()},
        )
    )
    print()
    print(
        series_table(
            "cumulative simulated seconds", "round", rounds,
            {s: [round(t, 1) for t in h.cumulative_seconds] for s, h in results.items()},
        )
    )
    return 0


def _cmd_sweep(axis: str, seed: int) -> int:
    from .analysis import payment_score_sweep_k, payment_score_sweep_n
    from .api import Scenario, build_solver
    from .sim.reporting import series_table
    from .sim.rng import rng_from

    solver = build_solver(
        Scenario.from_preset("bench", "mnist_o"), n_clients=100, k_winners=20
    )
    rng = rng_from(seed, f"cli-{axis}")
    if axis == "n":
        rows = payment_score_sweep_n(solver, (50, 80, 110, 140, 170, 200), rng, 120)
        index_name = "N"
    else:
        rows = payment_score_sweep_k(solver, (5, 10, 15, 20, 25, 30, 35), rng, 120)
        index_name = "K"
    print(
        series_table(
            f"winner payment and score vs {index_name}",
            index_name,
            [v for v, _ in rows],
            {
                "payment": [round(ws.mean_payment, 3) for _, ws in rows],
                "score": [round(ws.mean_score, 3) for _, ws in rows],
            },
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    # None = "not given": presets that imply a dataset (cluster_cifar10)
    # reject an explicit conflicting one instead of silently ignoring it.
    parser.add_argument("dataset", nargs="?", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument(
        "--schemes",
        default=None,
        help="comma-separated scheme names (FMore,RandFL,FixFL,PsiFMore)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="Scenario JSON file for `run`/`scenario` (see Scenario.to_json)",
    )
    parser.add_argument(
        "--preset",
        default="bench",
        help="preset used by `run`/`scenario` when no --scenario file is given",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a scenario field (repeatable), e.g. --set seeds=0,1,2 "
        "or dotted spec paths like --set scoring.scale=30",
    )
    parser.add_argument(
        "--policy",
        action="append",
        default=[],
        dest="policies",
        metavar="STAGE=SPEC",
        help="install a round policy (repeatable), e.g. "
        '--policy \'churn={"departure_prob":0.1}\'; prefix the stage with a '
        "scheme name (PsiFMore.selection=...) for a per-scheme override",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="run the (scheme, seed) cells on an N-worker process pool "
        "(shorthand for an execution spec; results match serial bitwise)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=("serial", "thread", "process", "distributed", "service"),
        help="executor family for `run` (default: the scenario's execution "
        "spec); `distributed` coordinates cells through --store and needs "
        "workers (spawned via --parallel N, or external `repro worker`s); "
        "`service` pushes cells through the event-driven coordinator "
        "(--coordinator URL, or an embedded one when omitted)",
    )
    parser.add_argument(
        "--local-parallel",
        type=int,
        default=None,
        metavar="N",
        help="additionally fan each round's K winner trainings over an "
        "N-worker thread pool (execution.local_training spec; serial, "
        "thread and process pools match each other bitwise, but switching "
        "the spec on changes results versus the legacy sequential "
        "schedule); combine with --set "
        "execution.local_training.executor=process for a process pool",
    )
    parser.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="coordinator base URL (http://host:port): `run` submits the "
        "sweep to it (implies --executor service); `worker` long-polls it "
        "for pushed cells instead of scanning --store",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="with `coordinator`: interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="P",
        help="with `coordinator`: TCP port to bind (default 0 = ephemeral, "
        "printed at startup)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="experiment store: `run` writes content-addressed manifests "
        "there and skips (scheme, seed) cells already completed; `report` "
        "reads it",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume checkpointed cells from --store (bitwise-identical to "
        "an uninterrupted run); fails fast if the store belongs to a "
        "different scenario",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute cells even when their manifests exist in --store",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="with --store: checkpoint each in-flight cell every N rounds "
        "(a crash then loses at most N rounds)",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="advance each cell at most N rounds this process, checkpoint "
        f"and exit {EXIT_INCOMPLETE} (controlled interruption for "
        "time-sliced jobs; continue with --resume)",
    )
    parser.add_argument(
        "--target",
        type=float,
        default=0.5,
        metavar="ACC",
        help="accuracy threshold for `report`'s rounds-to-target column "
        "(default 0.5)",
    )
    parser.add_argument(
        "--csv",
        default=None,
        metavar="FILE",
        help="with `report`: also write the scenario's per-round metrics "
        "frame (seed-averaged accuracy/time/policy trajectories) as CSV",
    )
    parser.add_argument(
        "--incentives",
        action="store_true",
        help="with `report`: run the strategic-bidder IC/IR sweep over the "
        "scenario (--scenario/--preset) instead of reading stored tables; "
        "--store makes repeat sweeps incremental, --csv exports the rows",
    )
    parser.add_argument(
        "--assert-ic",
        action="store_true",
        help="with `report --incentives`: exit 1 unless truthful bidding is "
        "weakly payoff-optimal against every swept deviation (CI gate)",
    )
    parser.add_argument(
        "--deviant-fraction",
        type=float,
        default=0.2,
        metavar="F",
        help="with `report --incentives`: population fraction assigned each "
        "deviation policy (default 0.2)",
    )
    parser.add_argument(
        "--learner",
        default="q_table",
        choices=("q_table", "pg_mlp"),
        help="with `train-bidder` / `report --incentives`: the BID_LEARNERS "
        "entry to train (default q_table)",
    )
    parser.add_argument(
        "--episodes",
        type=int,
        default=60,
        metavar="E",
        help="with `train-bidder`: total episodes to reach (default 60; "
        "with --resume only the remainder is played)",
    )
    parser.add_argument(
        "--train-seed",
        type=int,
        default=0,
        metavar="S",
        help="with `train-bidder` / `report --incentives`: seed of the "
        "learner's exploration stream (default 0; independent of the env "
        "cell seed --seed)",
    )
    parser.add_argument(
        "--train-scheme",
        default="FMore",
        metavar="SCHEME",
        help="with `train-bidder`: the auction scheme the learner plays "
        "(default FMore)",
    )
    parser.add_argument(
        "--node-id",
        type=int,
        default=None,
        metavar="ID",
        help="with `train-bidder`: the controlled node (default: the "
        "federation's first node)",
    )
    parser.add_argument(
        "--artifact",
        default=None,
        metavar="FILE",
        help="with `train-bidder`: write the trained policy artifact there "
        "(deployable via the `learned` bidding mix entry)",
    )
    parser.add_argument(
        "--curve",
        default=None,
        metavar="FILE",
        help="with `train-bidder`: write the training curve as CSV "
        "(episode,payoff,wins,steps)",
    )
    parser.add_argument(
        "--eval-episodes",
        type=int,
        default=0,
        metavar="E",
        help="with `train-bidder`: evaluate the greedy learned policy and "
        "the random_jitter baseline over E replay episodes each",
    )
    parser.add_argument(
        "--assert-improves",
        action="store_true",
        help="with `train-bidder --eval-episodes`: exit 1 unless the learned "
        "policy's mean payoff beats the random_jitter baseline (CI gate)",
    )
    parser.add_argument(
        "--keep-last",
        type=int,
        default=3,
        metavar="N",
        help="with `train-bidder --store`: checkpoint retention — keep the "
        "last N episode checkpoints (default 3)",
    )
    parser.add_argument(
        "--keep-every",
        type=int,
        default=None,
        metavar="K",
        help="with `train-bidder --store`: additionally retain every K-th "
        "episode checkpoint",
    )
    parser.add_argument(
        "--learned-episodes",
        type=int,
        default=8,
        metavar="E",
        help="with `report --incentives`: train the adaptive adversary for "
        "E episodes per scheme and add the learned_deviation row "
        "(default 8; 0 disables)",
    )
    parser.add_argument(
        "--emit-jobs",
        default=None,
        metavar="DIR",
        help="with `scenario`: write SLURM-style per-cell job scripts plus "
        "an array wrapper under DIR instead of printing the spec "
        "(each script runs one (scheme, seed) cell against $STORE)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="with `worker`/`coordinator`: idle-scan backoff cap / janitor "
        "tick (default 1.0)",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="with `worker`: exit after completing N cells (lifetime bound "
        "for time-sliced batch jobs)",
    )
    parser.add_argument(
        "--exit-when-idle",
        action="store_true",
        help="with `worker`: exit when no cell is claimable instead of "
        "polling for new jobs",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="with `worker`: stable label for this worker's lock files "
        "(default: host-pid-nonce)",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="with `registry`: emit the full markdown reference page "
        "(the committed docs/scenario_reference.md)",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list()
    if args.command == "theory":
        return _cmd_theory()
    if args.command == "compare":
        return _cmd_compare(
            args.dataset or "mnist_o",
            args.seed,
            args.rounds,
            args.schemes,
            policy_args=args.policies,
        )
    if args.command == "cluster":
        return _cmd_cluster(args.seed)
    if args.command == "sweep-n":
        return _cmd_sweep("n", args.seed)
    if args.command == "sweep-k":
        return _cmd_sweep("k", args.seed)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "train-bidder":
        return _cmd_train_bidder(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "coordinator":
        return _cmd_coordinator(args)
    if args.command == "registry":
        return _cmd_registry(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
