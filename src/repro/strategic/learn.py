"""The ``BID_LEARNERS`` family: trainable strategic bidders over the gym.

PR 6's :class:`~repro.strategic.gym.AuctionEnv` turned one auction cell
into a sequential decision problem; this module closes the loop with
bidders that *learn* from it.  A :class:`BidLearner` maps the controlled
node's public observation to a relative markup from a discrete menu
(``payment = equilibrium_ask * (1 + markup)``); two members register:

* ``q_table`` — tabular Q-learning over a coarse discretisation of the
  observation (theta bucket x rounds-waited bucket x won-last flag), with
  epsilon-greedy exploration that decays per episode;
* ``pg_mlp`` — REINFORCE over a tiny two-layer MLP built on the existing
  :mod:`repro.fl.nn` stack (no new dependencies): softmax policy over the
  markup menu, episode-mean baseline, and the model's own backward pass
  and SGD step.

Both menus put ``markup = 0`` first, so an untrained (all-zero /
symmetric) learner tie-breaks to the truthful ask.

:class:`BidLearnerTrainer` drives seeded episodes over
``FMoreEngine.session`` — every episode is a pure function of
``(scenario, scheme, env_seed)`` plus the learner's state and the
training stream's position, so training is deterministic end to end and
checkpoints written through :class:`~repro.api.store.ExperimentStore`
(one pseudo-cell ``learn_<name>-seed<train_seed>`` per learner, one
``round-<episode>/`` directory per checkpoint, pruned by the store's
retention policy) resume bitwise-identically from any retained episode.

A trained learner deploys through the ``learned`` entry of
``BID_POLICIES``: :func:`save_policy_artifact` writes a self-contained
JSON artifact (spec + state + weights) whose SHA-256 a scenario can pin,
and :class:`LearnedBidding` replays the greedy policy inside the
mechanism's ordinary bid-collection path — which is how the incentive
report's "learned deviation" row measures the best adaptive adversary
found (:mod:`repro.analysis.incentive_report`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.registry import BID_LEARNERS, BID_POLICIES
from ..fl.nn import SGD, Dense, Sequential, Tanh
from ..fl.serialize import atomic_write
from ..sim.rng import rng_from, rng_state, set_rng_state
from .gym import AuctionEnv
from .policies import BidPolicy

__all__ = [
    "BID_LEARNERS",
    "DEFAULT_MARKUPS",
    "BidObservation",
    "features",
    "N_FEATURES",
    "BidLearner",
    "QTableLearner",
    "PolicyGradientLearner",
    "LearnedBidding",
    "BidLearnerTrainer",
    "save_policy_artifact",
    "load_policy_artifact",
    "artifact_digest",
    "evaluate",
    "greedy_controller",
    "jitter_controller",
    "curve_to_csv",
]

ARTIFACT_FORMAT = 1

#: The shared markup menu.  ``0.0`` is deliberately first: ``argmax``
#: tie-breaks toward the lowest index, so a fresh (all-zero) learner bids
#: exactly truthfully until feedback says otherwise.
DEFAULT_MARKUPS = (0.0, -0.1, -0.05, 0.05, 0.1, 0.2)

#: Rounds-waited horizon used to normalise the wait feature.
WAIT_HORIZON = 5


# ----------------------------------------------------------------------
# Observations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BidObservation:
    """The slice of the env observation a learner conditions on.

    One definition shared by the training path (built from
    ``AuctionEnv.observation()`` dicts) and the deployed
    :class:`LearnedBidding` policy (built per node from the mechanism's
    :class:`~repro.strategic.policies.BidBatch`), so train-time and
    deploy-time features cannot drift apart.
    """

    theta: float
    equilibrium_payment: float
    last_threshold: float | None
    rounds_waited: int
    last_payoff: float

    @classmethod
    def from_env(cls, obs: Mapping[str, Any]) -> "BidObservation":
        threshold = obs["last_threshold"]
        return cls(
            theta=float(obs["theta"]),
            equilibrium_payment=float(obs["equilibrium_payment"]),
            last_threshold=None if threshold is None else float(threshold),
            rounds_waited=int(obs.get("rounds_waited", 0)),
            last_payoff=float(obs.get("last_payoff", 0.0)),
        )


N_FEATURES = 5


def features(ob: BidObservation) -> np.ndarray:
    """A bounded, scale-free feature vector for function approximators.

    Payoff and threshold are squashed by ``tanh`` after normalising with
    the node's own equilibrium ask — the only price scale a node knows —
    so features stay O(1) across cost families and population sizes.
    """
    scale = abs(ob.equilibrium_payment) + 1e-12
    threshold_missing = 1.0 if ob.last_threshold is None else 0.0
    threshold = (
        0.0
        if ob.last_threshold is None
        else math.tanh(ob.last_threshold / scale)
    )
    return np.array(
        [
            float(ob.theta),
            min(ob.rounds_waited / WAIT_HORIZON, 1.0),
            math.tanh(ob.last_payoff / scale),
            threshold_missing,
            threshold,
        ],
        dtype=float,
    )


# ----------------------------------------------------------------------
# Learners
# ----------------------------------------------------------------------
def _check_markups(markups: Sequence[float]) -> list[float]:
    menu = [float(m) for m in markups]
    if not menu or any(m <= -1.0 for m in menu):
        raise ValueError("markups must be a non-empty menu of values > -1")
    if len(set(menu)) != len(menu):
        raise ValueError("markups must be distinct")
    return menu


class BidLearner:
    """Base trainable bidder: markup-menu policy plus an update rule.

    Subclasses implement :meth:`act` (exploratory action during
    training), :meth:`greedy` (deterministic deployment action), the
    :meth:`update` / :meth:`finish_episode` learning hooks, and the
    persistence trio :meth:`state_dict` / :meth:`weights` / :meth:`spec`.
    All randomness flows through the generator the trainer passes to
    :meth:`act` — learners own no streams, which is what makes training
    checkpointable at episode granularity.
    """

    name: str = "base"

    def __init__(self, markups: Sequence[float] = DEFAULT_MARKUPS):
        self.markups = _check_markups(markups)

    @property
    def n_actions(self) -> int:
        return len(self.markups)

    # -- acting ---------------------------------------------------------
    def act(self, ob: BidObservation, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def greedy(self, ob: BidObservation) -> int:
        raise NotImplementedError

    # -- learning -------------------------------------------------------
    def begin_episode(self) -> None:
        """Reset per-episode buffers (called by the trainer at reset)."""

    def update(
        self,
        ob: BidObservation,
        action: int,
        reward: float,
        next_ob: BidObservation | None,
        done: bool,
    ) -> None:
        """One transition of feedback."""

    def finish_episode(self) -> None:
        """Episode boundary (decay schedules, policy-gradient steps)."""

    # -- persistence ----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able non-array state (schedules, counters)."""
        return {}

    def load_state(self, state: Mapping[str, Any]) -> None:
        if state:
            raise ValueError(
                f"bid learner {self.name!r} is stateless but was given "
                f"state keys {sorted(state)}"
            )

    def weights(self) -> list[np.ndarray]:
        """Array-valued state (ride the checkpoint ``weights.npz``)."""
        return []

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        if len(weights):
            raise ValueError(f"bid learner {self.name!r} takes no weights")

    def spec(self) -> dict:
        """A ``BID_LEARNERS.create``-able reconstruction of this config."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(markups={self.markups})"


@BID_LEARNERS.register("q_table")
class QTableLearner(BidLearner):
    """Tabular Q-learning over a coarse observation discretisation.

    The state index is ``theta`` bucketed into ``theta_bins`` (thetas are
    clipped into ``[0, 1)`` bucket space), rounds-waited capped at
    ``wait_cap``, and a won-last-round flag — small enough that a few
    dozen episodes visit every reachable state.  Exploration is
    epsilon-greedy with per-episode decay; one ``rng.random()`` is always
    drawn first per action so the stream position is a pure function of
    the step count.
    """

    name = "q_table"

    def __init__(
        self,
        markups: Sequence[float] = DEFAULT_MARKUPS,
        lr: float = 0.2,
        discount: float = 0.9,
        epsilon: float = 0.2,
        epsilon_decay: float = 0.97,
        epsilon_min: float = 0.05,
        theta_bins: int = 4,
        wait_cap: int = 3,
    ):
        super().__init__(markups)
        if not (0.0 < lr <= 1.0):
            raise ValueError("lr must lie in (0, 1]")
        if not (0.0 <= discount <= 1.0):
            raise ValueError("discount must lie in [0, 1]")
        if not (0.0 <= epsilon <= 1.0 and 0.0 <= epsilon_min <= 1.0):
            raise ValueError("epsilon and epsilon_min must lie in [0, 1]")
        if not (0.0 < epsilon_decay <= 1.0):
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if theta_bins < 1 or wait_cap < 0:
            raise ValueError("theta_bins must be >= 1 and wait_cap >= 0")
        self.lr = float(lr)
        self.discount = float(discount)
        self.epsilon0 = float(epsilon)
        self.epsilon = float(epsilon)
        self.epsilon_decay = float(epsilon_decay)
        self.epsilon_min = float(epsilon_min)
        self.theta_bins = int(theta_bins)
        self.wait_cap = int(wait_cap)
        n_states = self.theta_bins * (self.wait_cap + 1) * 2
        self.q = np.zeros((n_states, self.n_actions), dtype=float)

    def _index(self, ob: BidObservation) -> int:
        theta_bucket = min(
            self.theta_bins - 1, max(0, int(ob.theta * self.theta_bins))
        )
        wait_bucket = min(ob.rounds_waited, self.wait_cap)
        won_last = 1 if ob.last_payoff > 0.0 else 0
        return (
            theta_bucket * (self.wait_cap + 1) + wait_bucket
        ) * 2 + won_last

    def act(self, ob, rng):
        explore = rng.random() < self.epsilon
        if explore:
            return int(rng.integers(self.n_actions))
        return self.greedy(ob)

    def greedy(self, ob):
        return int(np.argmax(self.q[self._index(ob)]))

    def update(self, ob, action, reward, next_ob, done):
        target = float(reward)
        if not done and next_ob is not None:
            target += self.discount * float(self.q[self._index(next_ob)].max())
        idx = self._index(ob)
        self.q[idx, action] += self.lr * (target - self.q[idx, action])

    def finish_episode(self):
        self.epsilon = max(
            self.epsilon_min, self.epsilon * self.epsilon_decay
        )

    def state_dict(self) -> dict:
        return {"epsilon": float(self.epsilon)}

    def load_state(self, state: Mapping[str, Any]) -> None:
        unknown = sorted(set(state) - {"epsilon"})
        if unknown:
            raise ValueError(f"unknown q_table state keys {unknown}")
        self.epsilon = float(state.get("epsilon", self.epsilon0))

    def weights(self) -> list[np.ndarray]:
        return [self.q.copy()]

    def set_weights(self, weights):
        if len(weights) != 1:
            raise ValueError(f"q_table takes one array, got {len(weights)}")
        q = np.asarray(weights[0], dtype=float)
        if q.shape != self.q.shape:
            raise ValueError(
                f"q table shape mismatch: stored {q.shape}, "
                f"configured {self.q.shape}"
            )
        self.q = q.copy()

    def spec(self) -> dict:
        return {
            "name": self.name,
            "markups": list(self.markups),
            "lr": self.lr,
            "discount": self.discount,
            "epsilon": self.epsilon0,
            "epsilon_decay": self.epsilon_decay,
            "epsilon_min": self.epsilon_min,
            "theta_bins": self.theta_bins,
            "wait_cap": self.wait_cap,
        }


@BID_LEARNERS.register("pg_mlp")
class PolicyGradientLearner(BidLearner):
    """REINFORCE over a tiny MLP policy, on the :mod:`repro.fl.nn` stack.

    The network maps :func:`features` to one logit per menu entry;
    actions sample the softmax during training and take the argmax when
    deployed.  At each episode end the standard REINFORCE gradient with
    an episode-mean baseline goes through
    :meth:`~repro.fl.nn.model.Sequential.apply_gradient`, the backward
    pass and SGD step of supervised training — no new autodiff, no new
    dependencies.  Weight init is seeded by ``init_seed`` (part of
    :meth:`spec`), so two learners built from the same spec start
    bitwise-identical.
    """

    name = "pg_mlp"

    def __init__(
        self,
        markups: Sequence[float] = DEFAULT_MARKUPS,
        hidden: int = 16,
        lr: float = 0.05,
        discount: float = 0.9,
        temperature: float = 1.0,
        init_seed: int = 0,
    ):
        super().__init__(markups)
        if hidden < 1:
            raise ValueError("hidden must be >= 1")
        if lr <= 0.0:
            raise ValueError("lr must be positive")
        if not (0.0 <= discount <= 1.0):
            raise ValueError("discount must lie in [0, 1]")
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        self.hidden = int(hidden)
        self.lr = float(lr)
        self.discount = float(discount)
        self.temperature = float(temperature)
        self.init_seed = int(init_seed)
        n_actions = self.n_actions
        self.model = Sequential(
            lambda: [Dense(self.hidden), Tanh(), Dense(n_actions)],
            input_shape=(N_FEATURES,),
            optimizer=SGD(lr=self.lr),
            rng=rng_from(self.init_seed, "bid-learner-pg-init"),
        )
        # Zero the output layer: a fresh policy is exactly uniform, so its
        # argmax tie-breaks to menu index 0 — the truthful ask.
        for param in self.model.layers[-1].params:
            param[...] = 0.0
        self._features: list[np.ndarray] = []
        self._actions: list[int] = []
        self._rewards: list[float] = []

    def _probs(self, ob: BidObservation) -> np.ndarray:
        logits = self.model.forward(features(ob)[None, :], training=False)[0]
        z = (logits - logits.max()) / self.temperature
        p = np.exp(z)
        return p / p.sum()

    def act(self, ob, rng):
        probs = self._probs(ob)
        draw = rng.random()
        choice = int(np.searchsorted(np.cumsum(probs), draw))
        return min(choice, self.n_actions - 1)

    def greedy(self, ob):
        return int(np.argmax(self._probs(ob)))

    def begin_episode(self):
        self._features.clear()
        self._actions.clear()
        self._rewards.clear()

    def update(self, ob, action, reward, next_ob, done):
        self._features.append(features(ob))
        self._actions.append(int(action))
        self._rewards.append(float(reward))

    def finish_episode(self):
        steps = len(self._actions)
        if steps == 0:
            return
        x = np.asarray(self._features, dtype=float)
        actions = np.asarray(self._actions, dtype=int)
        rewards = np.asarray(self._rewards, dtype=float)
        returns = np.empty(steps, dtype=float)
        acc = 0.0
        for t in range(steps - 1, -1, -1):
            acc = rewards[t] + self.discount * acc
            returns[t] = acc
        advantage = returns - returns.mean()
        std = float(returns.std())
        if std > 1e-8:
            advantage = advantage / std
        logits = self.model.forward(x, training=True)
        z = (logits - logits.max(axis=1, keepdims=True)) / self.temperature
        probs = np.exp(z)
        probs /= probs.sum(axis=1, keepdims=True)
        # d(-log pi(a|x) * adv)/dlogits, averaged over the episode.
        grad = probs
        grad[np.arange(steps), actions] -= 1.0
        grad *= advantage[:, None] / (self.temperature * steps)
        self.model.apply_gradient(grad)
        self.begin_episode()

    def state_dict(self) -> dict:
        # The transition buffers are always empty at episode boundaries —
        # the only places the trainer checkpoints — so arrays are the
        # whole persistent state.
        return {}

    def load_state(self, state: Mapping[str, Any]) -> None:
        unknown = sorted(set(state))
        if unknown:
            raise ValueError(f"unknown pg_mlp state keys {unknown}")

    def weights(self) -> list[np.ndarray]:
        return self.model.get_weights()

    def set_weights(self, weights):
        self.model.set_weights([np.asarray(w, dtype=float) for w in weights])

    def spec(self) -> dict:
        return {
            "name": self.name,
            "markups": list(self.markups),
            "hidden": self.hidden,
            "lr": self.lr,
            "discount": self.discount,
            "temperature": self.temperature,
            "init_seed": self.init_seed,
        }


# ----------------------------------------------------------------------
# Policy artifacts (train once, deploy anywhere)
# ----------------------------------------------------------------------
def save_policy_artifact(path: str | Path, learner: BidLearner) -> str:
    """Write a self-contained JSON artifact; returns its SHA-256 digest.

    The artifact carries the learner's :meth:`~BidLearner.spec` (how to
    rebuild it), :meth:`~BidLearner.state_dict` and weights (as nested
    lists — ``repr``-exact for float64, so a load round-trips bitwise).
    Written atomically, like every store file.
    """
    payload = {
        "format": ARTIFACT_FORMAT,
        "learner": learner.spec(),
        "state": learner.state_dict(),
        "weights": [
            np.asarray(w, dtype=float).tolist() for w in learner.weights()
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    atomic_write(path, data)
    return hashlib.sha256(data).hexdigest()


def artifact_digest(path: str | Path) -> str:
    """SHA-256 of an artifact's bytes (what a scenario's ``digest`` pins)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_policy_artifact(path: str | Path) -> BidLearner:
    """Rebuild the trained :class:`BidLearner` from an artifact file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read policy artifact {path}: {exc}") from exc
    if data.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"policy artifact {path} has format {data.get('format')!r}; "
            f"this build reads format {ARTIFACT_FORMAT}"
        )
    learner = BID_LEARNERS.create(dict(data["learner"]))
    learner.load_state(dict(data.get("state", {})))
    learner.set_weights(
        [np.asarray(w, dtype=float) for w in data.get("weights", [])]
    )
    return learner


class LearnedBidding(BidPolicy):
    """Deploy a trained learner greedily inside the mechanism's bid path.

    Constructed by the ``learned`` entry of ``BID_POLICIES`` (see
    :mod:`repro.strategic.policies`); the scenario pins the artifact file
    and optionally its digest.  Each round every assigned node rebuilds
    the same :class:`BidObservation` the trainer used — equilibrium ask
    from its batch row, last clearing threshold and per-node win/wait
    history from :meth:`observe` — and asks the learner for its greedy
    markup.  Deterministic (no rng draws), and the observed history
    round-trips ``state_dict`` so checkpointed runs resume bitwise.
    """

    name = "learned"
    enforce_ir = False

    def __init__(self, artifact: str | Path, digest: str | None = None):
        super().__init__()
        self.artifact = str(artifact)
        actual = artifact_digest(self.artifact)
        if digest is not None and str(digest) != actual:
            raise ValueError(
                f"policy artifact {self.artifact} has digest {actual[:12]}…, "
                f"but the scenario pins {str(digest)[:12]}…"
            )
        self.digest = actual
        self.learner = load_policy_artifact(self.artifact)
        self._last_threshold: float | None = None
        self._waits: dict[int, int] = {}
        self._last_payoffs: dict[int, float] = {}

    def shade(self, batch, rng):
        payments = np.array(batch.payments, dtype=float)
        for j, node_id in enumerate(batch.node_ids):
            node_id = int(node_id)
            ob = BidObservation(
                theta=float(batch.thetas[j]),
                equilibrium_payment=float(batch.payments[j]),
                last_threshold=self._last_threshold,
                rounds_waited=int(self._waits.get(node_id, 0)),
                last_payoff=float(self._last_payoffs.get(node_id, 0.0)),
            )
            markup = self.learner.markups[self.learner.greedy(ob)]
            payments[j] = batch.payments[j] * (1.0 + markup)
        return batch.qualities, payments

    def observe(self, feedback, rng):
        self._last_threshold = (
            None if feedback.threshold is None else float(feedback.threshold)
        )
        payoffs = feedback.payoffs
        for j, node_id in enumerate(feedback.node_ids):
            node_id = int(node_id)
            if feedback.won[j]:
                self._waits[node_id] = 0
            else:
                self._waits[node_id] = self._waits.get(node_id, 0) + 1
            self._last_payoffs[node_id] = float(payoffs[j])

    def state_dict(self) -> dict:
        return {
            "last_threshold": self._last_threshold,
            "waits": {str(k): int(v) for k, v in self._waits.items()},
            "last_payoffs": {
                str(k): float(v) for k, v in self._last_payoffs.items()
            },
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        unknown = sorted(
            set(state) - {"last_threshold", "waits", "last_payoffs"}
        )
        if unknown:
            raise ValueError(f"unknown learned state keys {unknown}")
        threshold = state.get("last_threshold")
        self._last_threshold = None if threshold is None else float(threshold)
        self._waits = {
            int(k): int(v) for k, v in dict(state.get("waits", {})).items()
        }
        self._last_payoffs = {
            int(k): float(v)
            for k, v in dict(state.get("last_payoffs", {})).items()
        }


# ----------------------------------------------------------------------
# Training loop
# ----------------------------------------------------------------------
class BidLearnerTrainer:
    """Seeded episode loop: ``AuctionEnv`` in, trained learner out.

    Parameters
    ----------
    scenario:
        The cell spec; its ``bidding`` mix drives the rest of the
        population (all truthful by default — the setting the incentive
        report trains against).
    learner:
        A :class:`BidLearner`, a ``BID_LEARNERS`` name, or a spec dict.
    scheme / env_seed / node_id:
        The :class:`~repro.strategic.gym.AuctionEnv` cell the learner
        plays (``env_seed`` is the *cell's* seed: federation, types and
        the other bidders' streams).
    train_seed:
        Seeds the learner's exploration stream
        (``bid-learner-<name>-<scheme>``) — independent of the env.
    store / checkpoint_every:
        When a store is given, training state is checkpointed under the
        pseudo-cell ``learn_<name>-seed<train_seed>`` every
        ``checkpoint_every`` episodes (plus once at the end), with
        episodes as the round index, so each is a ``round-<episode>/``
        directory pruned by the store's ``keep_last_n`` / ``keep_every_k``.

    Each episode resets the env (a fresh federation — episodes are
    *identical* replays apart from the learner's own bids), so training
    is a pure function of the arguments above: two trainers with equal
    arguments produce bitwise-equal learners, and :meth:`train` with
    ``resume=True`` continues from the newest committed checkpoint
    bitwise-identically to a never-interrupted run.
    """

    def __init__(
        self,
        scenario,
        learner: "BidLearner | str | Mapping[str, Any]" = "q_table",
        scheme: str = "FMore",
        env_seed: int = 0,
        node_id: int | None = None,
        train_seed: int = 0,
        store=None,
        checkpoint_every: int | None = None,
        engine=None,
    ):
        from ..api.store import ExperimentStore

        if isinstance(learner, (str, Mapping)):
            learner = BID_LEARNERS.create(learner)
        if not isinstance(learner, BidLearner):
            raise TypeError(
                f"learner must be a BidLearner, name or spec; "
                f"got {type(learner).__name__}"
            )
        self.scenario = scenario
        self.learner = learner
        self.scheme = str(scheme)
        self.env_seed = int(env_seed)
        self.node_id = None if node_id is None else int(node_id)
        self.train_seed = int(train_seed)
        self.store = ExperimentStore.coerce(store)
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        self.checkpoint_every = (
            None if checkpoint_every is None else int(checkpoint_every)
        )
        self.env = AuctionEnv(
            scenario,
            scheme=self.scheme,
            seed=self.env_seed,
            node_id=self.node_id,
            engine=engine,
        )
        self.rng = rng_from(
            self.train_seed, f"bid-learner-{self.learner.name}-{self.scheme}"
        )
        self.curve: list[dict] = []
        self.episodes_done = 0

    @property
    def cell_scheme(self) -> str:
        """The store pseudo-scheme this trainer checkpoints under."""
        return f"learn_{self.learner.name}"

    # -- episodes -------------------------------------------------------
    def run_episode(self) -> dict:
        """Play one full episode, learning online; returns the curve row."""
        obs = self.env.reset()
        self.learner.begin_episode()
        total = 0.0
        wins = 0
        steps = 0
        done = False
        while not done:
            ob = BidObservation.from_env(obs)
            action = self.learner.act(ob, self.rng)
            payment = ob.equilibrium_payment * (
                1.0 + self.learner.markups[action]
            )
            obs, reward, done, info = self.env.step(payment)
            next_ob = None if done else BidObservation.from_env(obs)
            self.learner.update(ob, action, reward, next_ob, done)
            total += float(reward)
            wins += int(bool(info["won"]))
            steps += 1
        self.learner.finish_episode()
        row = {
            "episode": self.episodes_done,
            "payoff": float(total),
            "wins": wins,
            "steps": steps,
        }
        self.episodes_done += 1
        self.curve.append(row)
        return row

    def train(
        self, episodes: int, resume: bool = False
    ) -> list[dict]:
        """Run up to ``episodes`` total episodes; returns the full curve.

        With ``resume=True`` and a store, the trainer first restores the
        newest committed checkpoint of its pseudo-cell (no-op when none
        exists) and only plays the remaining episodes.
        """
        if episodes < 0:
            raise ValueError("episodes must be >= 0")
        if resume:
            self.resume()
        trained = False
        while self.episodes_done < episodes:
            self.run_episode()
            trained = True
            if (
                self.store is not None
                and self.checkpoint_every is not None
                and self.episodes_done % self.checkpoint_every == 0
            ):
                self.save_checkpoint()
                trained = False
        if self.store is not None and trained:
            self.save_checkpoint()
        return self.curve

    # -- persistence ----------------------------------------------------
    def snapshot(self):
        """A store :class:`~repro.api.store.Checkpoint` of training so far.

        Episodes stand in for rounds (``round_index`` = episodes played),
        records stay empty (there is no federated history to carry), and
        the learner rides the policy-state slot: arrays in ``weights``,
        everything else under one ``policy_states`` entry together with
        the training curve and the env binding (validated on load — a
        checkpoint trained against a different cell refuses to resume).
        """
        from ..api.store import Checkpoint, scenario_hash

        return Checkpoint(
            scenario=self.scenario.to_dict(),
            scenario_hash=scenario_hash(self.scenario),
            scheme=self.cell_scheme,
            seed=self.train_seed,
            round_index=self.episodes_done,
            records=[],
            weights=[
                np.asarray(w, dtype=float) for w in self.learner.weights()
            ],
            rng_state=rng_state(self.rng),
            policy_states=[
                {
                    "name": self.learner.name,
                    "spec": self.learner.spec(),
                    "state": self.learner.state_dict(),
                    "curve": [dict(row) for row in self.curve],
                    "env_scheme": self.scheme,
                    "env_seed": self.env_seed,
                    "node_id": self.node_id,
                }
            ],
        )

    def save_checkpoint(self):
        """Persist :meth:`snapshot` through the store (requires a store)."""
        if self.store is None:
            raise ValueError("trainer has no store to checkpoint into")
        self.store.register_scenario(self.scenario)
        return self.store.save_checkpoint(self.snapshot())

    def restore(self, checkpoint) -> int:
        """Install a trainer checkpoint; returns the episode to continue at."""
        from ..api.store import StoreError

        if checkpoint.scheme != self.cell_scheme:
            raise StoreError(
                f"checkpoint is for cell scheme {checkpoint.scheme!r}, "
                f"not {self.cell_scheme!r}"
            )
        if int(checkpoint.seed) != self.train_seed:
            raise StoreError(
                f"checkpoint is for train seed {checkpoint.seed}, "
                f"not {self.train_seed}"
            )
        if len(checkpoint.policy_states) != 1:
            raise StoreError(
                "trainer checkpoints carry exactly one policy-state entry; "
                f"got {len(checkpoint.policy_states)}"
            )
        entry = checkpoint.policy_states[0]
        if entry.get("name") != self.learner.name:
            raise StoreError(
                f"checkpoint trained learner {entry.get('name')!r}, "
                f"not {self.learner.name!r}"
            )
        binding = (
            entry.get("env_scheme"),
            entry.get("env_seed"),
            entry.get("node_id"),
        )
        expected = (self.scheme, self.env_seed, self.node_id)
        if binding != expected:
            raise StoreError(
                f"checkpoint trained against env cell {binding!r}, "
                f"not {expected!r}"
            )
        self.learner.load_state(dict(entry.get("state", {})))
        self.learner.set_weights(checkpoint.weights)
        set_rng_state(self.rng, checkpoint.rng_state)
        self.curve = [dict(row) for row in entry.get("curve", [])]
        self.episodes_done = int(checkpoint.round_index)
        return self.episodes_done

    def resume(self) -> int:
        """Restore the newest committed store checkpoint, if any."""
        if self.store is None:
            return self.episodes_done
        checkpoint = self.store.load_checkpoint(
            self.scenario, self.cell_scheme, self.train_seed
        )
        if checkpoint is None:
            return self.episodes_done
        return self.restore(checkpoint)

    def save_artifact(self, path: str | Path) -> str:
        """Write the trained policy artifact; returns its digest."""
        return save_policy_artifact(path, self.learner)


# ----------------------------------------------------------------------
# Evaluation (greedy policy vs baselines, shared by CLI and CI gates)
# ----------------------------------------------------------------------
def evaluate(
    scenario,
    controller: Callable[[BidObservation], float],
    scheme: str = "FMore",
    seed: int = 0,
    node_id: int | None = None,
    episodes: int = 4,
    engine=None,
) -> list[float]:
    """Total controlled-node payoff of ``controller`` per episode.

    ``controller`` maps a :class:`BidObservation` to the payment to ask;
    every episode replays the same cell, so two controllers evaluated
    with equal arguments face exactly the same auctions.
    """
    env = AuctionEnv(
        scenario, scheme=scheme, seed=seed, node_id=node_id, engine=engine
    )
    totals: list[float] = []
    for _ in range(int(episodes)):
        obs = env.reset()
        total = 0.0
        done = False
        while not done:
            payment = float(controller(BidObservation.from_env(obs)))
            obs, reward, done, _ = env.step(payment)
            total += float(reward)
        totals.append(total)
    return totals


def greedy_controller(learner: BidLearner) -> Callable[[BidObservation], float]:
    """The learner's deployment behavior: greedy markup, no exploration."""

    def control(ob: BidObservation) -> float:
        return ob.equilibrium_payment * (
            1.0 + learner.markups[learner.greedy(ob)]
        )

    return control


def jitter_controller(
    payment_scale: float = 0.05, seed: int = 0
) -> Callable[[BidObservation], float]:
    """The ``random_jitter`` baseline as a controller (seeded stream)."""
    rng = rng_from(int(seed), "learn-eval-jitter")
    scale = float(payment_scale)

    def control(ob: BidObservation) -> float:
        return ob.equilibrium_payment * math.exp(
            scale * rng.standard_normal()
        )

    return control


def curve_to_csv(curve: Sequence[Mapping[str, Any]], path: str | Path) -> None:
    """Write a training curve as CSV (the CI artifact format)."""
    lines = ["episode,payoff,wins,steps"]
    for row in curve:
        lines.append(
            f"{int(row['episode'])},{float(row['payoff'])!r},"
            f"{int(row['wins'])},{int(row['steps'])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
