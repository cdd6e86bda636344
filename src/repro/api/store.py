"""Durable experiment results: the content-addressed :class:`ExperimentStore`.

The paper's headline experiments are multi-hundred-round, multi-seed runs;
this module makes their results durable, resumable and queryable:

* **Run manifests** — every completed ``(scheme, seed)`` cell is written
  as one JSON manifest under a *scenario hash*: the SHA-256 of the
  scenario's canonical JSON with the run plan (``schemes``, ``seeds``,
  ``execution``) stripped, i.e. exactly the fields a cell's history is a
  pure function of.  Two scenarios that differ only in their plan share
  one address, so extending a sweep with new seeds reuses every cell
  already on disk (``FMoreEngine.run(scenario, store=...)`` skips them
  unless ``force=True``).
* **Checkpoints** — a :class:`Checkpoint` captures everything a
  mid-flight :class:`~repro.api.engine.Session` needs to continue
  *bitwise-identically*: global model weights (via
  :mod:`repro.fl.serialize`), the completed round records, the training
  and policy RNG streams' exact positions, and every
  :meth:`~repro.core.policies.RoundPolicy.state_dict`.  The store writes
  each as a ``round-<r>/`` directory whose ``state.json``, written after
  the weights, commits it; a finished cell's checkpoint is cleared when
  its manifest lands.  A flat pair from an older version is not read (a
  torn one cannot be told from a whole one): its cell restarts from round
  0, slower but never different.
* **Fail-fast addressing** — :meth:`ExperimentStore.require_scenario`
  raises :class:`StoreMismatchError` (listing the stored scenarios'
  hashes and names) when a resume is pointed at a store populated by a
  different scenario spec, instead of silently starting from scratch.

Layout under the store root::

    scenarios/<hash>.json                   # full scenario spec (first run's plan)
    runs/<hash>/<scheme>-seed<seed>.json    # one manifest per completed cell
    checkpoints/<hash>/<scheme>-seed<seed>/round-<r>/
                                            # weights.npz + state.json
    jobs/<hash>/<scheme>-seed<seed>.json    # distributed job queue (+ .lock
                                            # claims; see repro.api.distributed)

Because every write lands via temp-file + :func:`os.replace` and every
cell's content is a deterministic function of its address, the store is
safe to share between machines: concurrent writers of the same cell
produce byte-identical manifests and the last writer simply wins.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..fl.serialize import atomic_write, load_weights, save_weights
from ..fl.trainer import RoundRecord, TrainingHistory
from .scenario import Scenario

__all__ = [
    "ExperimentStore",
    "Checkpoint",
    "StoreError",
    "StoreMismatchError",
    "IncompleteRunError",
    "scenario_hash",
]

FORMAT_VERSION = 1

#: Scenario fields that do not affect a single cell's history: which cells
#: run (the plan) and where they run (the executor).  Everything else —
#: federation shape, auction specs, policies, training hyper-parameters,
#: even ``name`` (it feeds the named seed streams) — is part of the hash.
PLAN_FIELDS = ("schemes", "seeds", "execution")

#: What every reader of a ``scenarios/<hash>.json`` file needs from it.
_SCENARIO_KEYS = ("scenario_hash", "scenario")

_CELL_RE = re.compile(r"^(?P<scheme>[A-Za-z0-9_]+)-seed(?P<seed>-?\d+)$")


class StoreError(ValueError):
    """A malformed store operation (missing cells, corrupt manifests...)."""


class StoreMismatchError(StoreError):
    """Resume pointed at a store produced by a different scenario spec."""


class IncompleteRunError(RuntimeError):
    """An engine run stopped with cells checkpointed but not finished.

    Raised by ``FMoreEngine.run(..., stop_after=N)`` once every pending
    cell has either finished or been checkpointed; re-running with
    ``resume=True`` (CLI: ``--resume``) picks the cells up where they
    stopped.
    """

    def __init__(self, cells: list[tuple[str, int]], root: Path):
        self.cells = list(cells)
        self.root = Path(root)
        names = ", ".join(f"{s}/seed{d}" for s, d in self.cells)
        super().__init__(
            f"{len(self.cells)} cell(s) incomplete ({names}); checkpoints "
            f"saved under {self.root} — re-run with resume=True (--resume) "
            "to continue"
        )


def scenario_hash(scenario: Scenario) -> str:
    """SHA-256 content address of everything that shapes one cell's result.

    The run plan (:data:`PLAN_FIELDS`) is excluded: a cell is a pure
    function of ``(scenario-sans-plan, scheme, seed)``, so sweeps that
    grow their seed list — or fan out over a different executor — keep
    hitting the manifests earlier runs wrote.
    """
    payload = {
        k: v for k, v in scenario.to_dict().items() if k not in PLAN_FIELDS
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    """A resumable snapshot of one ``(scheme, seed)`` cell at round ``r``.

    Produced by ``Session.snapshot()`` and consumed by
    ``Session.restore()`` / ``FMoreEngine.resume()``; carries the full
    scenario spec so a checkpoint alone is enough to rebuild the session
    it came from.  ``policy_states`` aligns with the scheme's round-policy
    pipeline (one ``state_dict`` per policy, in pipeline order).
    """

    scenario: dict
    scenario_hash: str
    scheme: str
    seed: int
    round_index: int
    records: list[RoundRecord]
    weights: list[np.ndarray]
    rng_state: dict
    policy_rng_state: dict | None = None
    policy_states: list[dict] = field(default_factory=list)
    # Strategic-bidder state (repro.strategic): the bidding stream's
    # position plus one {"label", "name", "state"} entry per distinct
    # policy, aligned with FMoreMechanism.bid_policy_seq.  Both default
    # empty so pre-strategic checkpoints keep loading.
    bidding_rng_state: dict | None = None
    bid_policy_states: list[dict] = field(default_factory=list)

    def to_state_dict(self) -> dict:
        """The JSON half of the checkpoint (weights ride in the .npz)."""
        return {
            "format": FORMAT_VERSION,
            "scenario": self.scenario,
            "scenario_hash": self.scenario_hash,
            "scheme": self.scheme,
            "seed": int(self.seed),
            "round_index": int(self.round_index),
            "records": [r.to_dict() for r in self.records],
            "rng_state": self.rng_state,
            "policy_rng_state": self.policy_rng_state,
            "policy_states": list(self.policy_states),
            "bidding_rng_state": self.bidding_rng_state,
            "bid_policy_states": list(self.bid_policy_states),
        }

    @classmethod
    def from_state_dict(
        cls, data: Mapping[str, Any], weights: list[np.ndarray]
    ) -> "Checkpoint":
        return cls(
            scenario=dict(data["scenario"]),
            scenario_hash=str(data["scenario_hash"]),
            scheme=str(data["scheme"]),
            seed=int(data["seed"]),
            round_index=int(data["round_index"]),
            records=[RoundRecord.from_dict(r) for r in data["records"]],
            weights=weights,
            rng_state=dict(data["rng_state"]),
            policy_rng_state=(
                None
                if data.get("policy_rng_state") is None
                else dict(data["policy_rng_state"])
            ),
            policy_states=[dict(s) for s in data.get("policy_states", [])],
            bidding_rng_state=(
                None
                if data.get("bidding_rng_state") is None
                else dict(data["bidding_rng_state"])
            ),
            bid_policy_states=[
                dict(s) for s in data.get("bid_policy_states", [])
            ],
        )


class ExperimentStore:
    """Filesystem-backed, content-addressed result and checkpoint store.

    Cheap to construct (one ``mkdir``); safe to point several processes —
    or several *machines* on a shared filesystem — at the same root:
    every write lands via a temp file + :func:`os.replace`, and because a
    cell's manifest bytes are a pure function of its address, concurrent
    writers of one cell are last-writer-wins over identical content.
    The distributed backend (:mod:`repro.api.distributed`) additionally
    keeps its work queue under ``jobs/`` in the same root.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        keep_last_n: int = 1,
        keep_every_k: int | None = None,
    ):
        """Open (or create) a store at ``root``.

        ``keep_last_n`` / ``keep_every_k`` set the checkpoint *retention
        policy*: each save prunes a cell's ``round-<r>/`` directories to
        the union of the last ``keep_last_n`` rounds and every round
        divisible by ``keep_every_k``.  By default a cell keeps only its
        newest round; more are the mid-run states a learned bidder can
        later be replayed from.
        """
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep_last_n = int(keep_last_n)
        self.keep_every_k = None if keep_every_k is None else int(keep_every_k)
        if self.keep_last_n < 1:
            raise ValueError("keep_last_n must be >= 1")
        if self.keep_every_k is not None and self.keep_every_k < 1:
            raise ValueError("keep_every_k must be >= 1 (or None)")

    @classmethod
    def coerce(
        cls, store: "ExperimentStore | str | Path | None"
    ) -> "ExperimentStore | None":
        """Accept a store, a path, or None (engine/CLI convenience)."""
        if store is None or isinstance(store, ExperimentStore):
            return store
        return cls(store)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def _hash_of(scenario: Scenario | str) -> str:
        return scenario if isinstance(scenario, str) else scenario_hash(scenario)

    @staticmethod
    def _cell_name(scheme: str, seed: int) -> str:
        return f"{scheme}-seed{int(seed)}"

    def manifest_path(
        self, scenario: Scenario | str, scheme: str, seed: int
    ) -> Path:
        h = self._hash_of(scenario)
        return self.root / "runs" / h / f"{self._cell_name(scheme, seed)}.json"

    def checkpoint_dir(
        self, scenario: Scenario | str, scheme: str, seed: int
    ) -> Path:
        h = self._hash_of(scenario)
        return self.root / "checkpoints" / h / self._cell_name(scheme, seed)

    def scenario_path(self, scenario: Scenario | str) -> Path:
        return self.root / "scenarios" / f"{self._hash_of(scenario)}.json"

    # ------------------------------------------------------------------
    # Scenario registry
    # ------------------------------------------------------------------
    def register_scenario(self, scenario: Scenario) -> str:
        """Record the scenario spec under its hash (first writer wins).

        The stored spec includes the registering run's plan — enough to
        rebuild a :class:`Scenario` for reports; the plan-free projection
        is what the address hashes.  A stored file that does not parse,
        lacks its hash or spec, or holds a spec this version no longer
        validates (one naming a retired executor, say) is rewritten, so
        the next run that saves a cell (``--force`` re-runs them all)
        repairs it.
        """
        h = scenario_hash(scenario)
        path = self.scenario_path(h)
        try:
            Scenario.from_dict(_read_json(path, _SCENARIO_KEYS)["scenario"])
        except (FileNotFoundError, TypeError, ValueError):  # StoreError is one
            _write_json(
                path,
                {
                    "format": FORMAT_VERSION,
                    "scenario_hash": h,
                    "scenario": scenario.to_dict(),
                },
            )
        return h

    def scenarios(self) -> dict[str, dict]:
        """All registered scenario specs, keyed by hash."""
        out: dict[str, dict] = {}
        directory = self.root / "scenarios"
        if not directory.is_dir():
            return out
        for path in sorted(directory.glob("*.json")):
            data = _read_json(path, _SCENARIO_KEYS)
            out[str(data["scenario_hash"])] = dict(data["scenario"])
        return out

    def load_scenario(self, h: str) -> Scenario:
        """Rebuild the registered :class:`Scenario` for a stored hash.

        A stored spec that this version no longer accepts (one written
        before a validation rule or with a since-retired key) raises a
        :class:`StoreError` naming the file.
        """
        path = self.scenario_path(h)
        if not path.exists():
            raise StoreError(
                f"store {self.root} has no scenario {h[:12]}…; "
                f"known: {[k[:12] for k in self.scenarios()]}"
            )
        spec = _read_json(path, _SCENARIO_KEYS)["scenario"]
        try:
            return Scenario.from_dict(spec)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"stored scenario {path} does not validate: {exc}") from exc

    def require_scenario(self, scenario: Scenario) -> str:
        """Fail fast when this store was populated by a *different* spec.

        An empty (or scenario-less) store passes — there is nothing to
        mismatch against.  A store holding only other hashes raises
        :class:`StoreMismatchError` naming them, so ``--resume`` against
        the wrong store directory dies loudly instead of quietly starting
        a fresh run next to unrelated results.
        """
        h = scenario_hash(scenario)
        stored = self.scenarios()
        if stored and h not in stored:
            listing = ", ".join(
                f"{k[:12]}… ({v.get('name', '?')})" for k, v in stored.items()
            )
            raise StoreMismatchError(
                f"scenario {h[:12]}… ({scenario.name!r}) not found in store "
                f"{self.root}: its manifests were produced by a different "
                f"scenario spec — stored: {listing}. Point --store at this "
                "scenario's store, or re-run without --resume to start one."
            )
        return h

    # ------------------------------------------------------------------
    # Run manifests
    # ------------------------------------------------------------------
    def has_cell(self, scenario: Scenario | str, scheme: str, seed: int) -> bool:
        return self.manifest_path(scenario, scheme, seed).exists()

    def missing_cells(
        self,
        scenario: Scenario | str,
        cells: Sequence[tuple[str, int]],
    ) -> list[tuple[str, int]]:
        """The subset of ``cells`` whose manifests have not landed yet.

        One hash derivation however many cells — the shape every
        coordinator poll loop needs (``[]`` means the sweep is done).
        """
        h = self._hash_of(scenario)
        return [(s, d) for s, d in cells if not self.has_cell(h, s, int(d))]

    def save_history(
        self,
        scenario: Scenario,
        scheme: str,
        seed: int,
        history: TrainingHistory,
    ) -> Path:
        """Write one completed cell's manifest (and register the scenario)."""
        h = self.register_scenario(scenario)
        path = self.manifest_path(h, scheme, seed)
        _write_json(
            path,
            {
                "format": FORMAT_VERSION,
                "scenario_hash": h,
                "scenario_name": scenario.name,
                "scheme": scheme,
                "seed": int(seed),
                "n_rounds": len(history.records),
                "history": history.to_dict(),
            },
        )
        return path

    def load_history(
        self, scenario: Scenario | str, scheme: str, seed: int
    ) -> TrainingHistory:
        """Read one cell's manifest back into a :class:`TrainingHistory`."""
        path = self.manifest_path(scenario, scheme, seed)
        if not path.exists():
            raise StoreError(
                f"store {self.root} has no manifest for cell "
                f"({scheme}, seed {seed}) of scenario "
                f"{self._hash_of(scenario)[:12]}…"
            )
        data = _read_json(path)
        expected = self._hash_of(scenario)
        if data.get("scenario_hash") != expected:
            raise StoreError(
                f"manifest {path} was written for scenario "
                f"{str(data.get('scenario_hash'))[:12]}…, "
                f"not {expected[:12]}…"
            )
        return TrainingHistory.from_dict(data["history"])

    def cells(
        self, scenario: Scenario | str | None = None
    ) -> list[tuple[str, str, int]]:
        """Completed ``(hash, scheme, seed)`` cells, optionally filtered."""
        out: list[tuple[str, str, int]] = []
        runs = self.root / "runs"
        if not runs.is_dir():
            return out
        only = None if scenario is None else self._hash_of(scenario)
        for hash_dir in sorted(runs.iterdir()):
            if not hash_dir.is_dir() or (only and hash_dir.name != only):
                continue
            for path in sorted(hash_dir.glob("*.json")):
                match = _CELL_RE.match(path.stem)
                if match:
                    out.append(
                        (hash_dir.name, match["scheme"], int(match["seed"]))
                    )
        return out

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint(self, checkpoint: Checkpoint) -> Path:
        """Persist a mid-run snapshot as the cell's ``round-<r>/`` directory.

        The weights land first and ``state.json`` last: the state file is
        the commit point, so a write cut short is never loaded and the
        previous round stays loadable.  Then the cell's rounds are pruned
        to the retention set.  Returns the round directory.
        """
        cell = (checkpoint.scenario_hash, checkpoint.scheme, checkpoint.seed)
        directory = self.checkpoint_dir(*cell)
        target = directory / f"round-{int(checkpoint.round_index)}"
        target.mkdir(parents=True, exist_ok=True)
        save_weights(target / "weights.npz", checkpoint.weights)
        _write_json(target / "state.json", checkpoint.to_state_dict())
        rounds = self.checkpoint_rounds(*cell)
        keep = set(rounds[-self.keep_last_n :])
        if self.keep_every_k is not None:
            keep.update(r for r in rounds if r % self.keep_every_k == 0)
        for r in rounds:
            if r not in keep:
                _drop_round(directory / f"round-{r}")
        return target

    def checkpoint_rounds(
        self, scenario: Scenario | str, scheme: str, seed: int
    ) -> list[int]:
        """Rounds with a committed checkpoint for one cell, ascending: the
        ``r`` of each ``round-<r>/`` directory whose ``state.json`` exists."""
        directory = self.checkpoint_dir(scenario, scheme, seed)
        if not directory.is_dir():
            return []
        return sorted(
            int(child.name[6:])
            for child in directory.iterdir()
            if child.name.startswith("round-")
            and child.name[6:].isdigit()
            and (child / "state.json").is_file()
        )

    def load_checkpoint(
        self,
        scenario: Scenario | str,
        scheme: str,
        seed: int,
        round_index: int | None = None,
    ) -> Checkpoint | None:
        """A cell's checkpoint, or ``None`` when it has no committed round.

        Defaults to the newest committed round; ``round_index`` picks a
        specific retained one (:meth:`checkpoint_rounds` lists them) and
        raises when that round was pruned or never written.  A flat pair
        from an older version is not a committed round.  A round whose
        files cannot be read raises a :class:`StoreError` naming the file.
        """
        rounds = self.checkpoint_rounds(scenario, scheme, seed)
        if round_index is None:
            if not rounds:
                return None
            round_index = rounds[-1]
        elif round_index not in rounds:
            raise StoreError(
                f"no retained checkpoint at round {round_index} for cell "
                f"({scheme}, seed {seed}); retained: {rounds}"
            )
        target = self.checkpoint_dir(scenario, scheme, seed) / f"round-{int(round_index)}"
        state = target / "state.json"
        data = _read_json(state)
        weights = _read_weights(target / "weights.npz")
        try:
            checkpoint = Checkpoint.from_state_dict(data, weights)
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"corrupt store file {state}: {exc!r}") from exc
        expected = self._hash_of(scenario)
        if checkpoint.scenario_hash != expected:
            raise StoreError(
                f"checkpoint {target} belongs to scenario "
                f"{checkpoint.scenario_hash[:12]}…, not {expected[:12]}…"
            )
        return checkpoint

    def clear_checkpoint(
        self, scenario: Scenario | str, scheme: str, seed: int
    ) -> None:
        """Drop a cell's checkpoint (called once its manifest is durable),
        a flat pair from an older version included."""
        directory = self.checkpoint_dir(scenario, scheme, seed)
        for r in self.checkpoint_rounds(scenario, scheme, seed):
            _drop_round(directory / f"round-{r}")
        if directory.is_dir():
            shutil.rmtree(directory)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentStore({str(self.root)!r})"


# ----------------------------------------------------------------------
# Store file IO (shared by manifests, checkpoints, the scenario registry)
# ----------------------------------------------------------------------
def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode())


def _read_json(path: Path, keys: Sequence[str] = ()) -> dict:
    """A store file's JSON object, which must hold ``keys``."""
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise StoreError(f"corrupt store file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise StoreError(f"corrupt store file {path}: not a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise StoreError(f"corrupt store file {path}: no {missing}")
    return data


def _read_weights(path: Path) -> list[np.ndarray]:
    """A checkpoint's weight archive; one it cannot read is a corrupt
    store file."""
    if not zipfile.is_zipfile(path):  # numpy would try other bytes as a pickle
        raise StoreError(f"corrupt store file {path}: not an .npz archive")
    try:
        return load_weights(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise StoreError(f"corrupt store file {path}: {exc}") from exc


def _drop_round(directory: Path) -> None:
    """Remove a ``round-<r>/`` directory state file first, so that a
    removal cut short is never listed as a round."""
    (directory / "state.json").unlink(missing_ok=True)
    shutil.rmtree(directory)
