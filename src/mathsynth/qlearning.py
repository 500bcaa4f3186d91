"""Double Q-learning with prioritized, reward-balanced replay over a linear
value function on hashed sparse features of (question text, action history).

The Double-DQN decoupling: the bootstrap action is chosen by the online
function and evaluated by a frozen target copy.  The updates within a batch
run one step after another.  After every batch the priorities of the batch
and of an extra random sample of stored steps are recomputed against the
current parameters in one pass (td_errors): the weights are fixed there, so
each distinct step is scored once and steps with equal feature counts are
scored together, bit for bit as td_target would score them one at a time.

The weights are stored feature-major, (feature_dim, n_actions), so the
action weights of one hashed feature lie side by side.  Every sum keeps one
of two orders, and each batched sum keeps the order of its scalar twin:
- q_value gathers one action's weights into a contiguous array and sums it
  pairwise, and so do td_errors' action-value half and the target values;
- q_values (so greedy_action) gathers an (L, n_actions) block and reduces
  its outer axis, adding the features one after another, and so does
  td_errors' argmax half over its (k, L, n_actions) block.

The target copy changes only when train() syncs it, so the values of every
action at each stored next observation are computed once per sync
(QFunction.frozen_values) and the update loop and td_errors read them from
there; each equals target.q_value bit for bit.

Every feature is hashed as zlib.crc32(prefix + name) % feature_dim.  Since
zlib.crc32(a + b) == zlib.crc32(b, zlib.crc32(a)), the crc of the prefix
and a feature kind ("w:", "b:", "g:") is taken once, each word, bigram or
trigram is fed into it without building the feature's string, and
% feature_dim is applied once to the whole int64 array.  The trigrams are
3-character slices of the question, each encoded, so a multi-byte
character hashes as part of its character trigram.

QFunction.features is the only place that hashes an observation, and it
takes raw question text only.  The question part stays the same for a
whole episode and the history part repeats across episodes (a greedy
policy answers a module's questions with a handful of action sequences),
so each QFunction keeps both in small bounded caches (QUESTION_CACHE_SIZE
questions, HISTORY_CACHE_SIZE histories); a call that hits both only
concatenates, so train() hashes for acting and again for storing.
"""

from __future__ import annotations

import json
import random
import zipfile
import zlib
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from .environment import ConfigError, EnvConfig, Environment
from .operators import Registry, default_registry
from .parsing import Observation
from .problems import SUPPORTED_MODULES, generate
from .replay import ReplayBuffer
from .search import Step, play, random_action, run_episode


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 0.4
    end: float = 0.05
    decrement_per_step: float = 2.5e-5

    def value(self, step: int) -> float:
        return max(self.end, self.start - step * self.decrement_per_step)


QUESTION_CACHE_SIZE = 256  # questions whose hashed features a QFunction keeps
HISTORY_CACHE_SIZE = 256  # action histories whose hashed features a QFunction keeps


def _question_features(prefix: bytes, feature_dim: int, question: str) -> np.ndarray:
    """Hashed indices of the question's words, bigrams and character
    trigrams."""
    crc32 = zlib.crc32
    seed = crc32(prefix)
    w, b, g = crc32(b"w:", seed), crc32(b"b:", seed), crc32(b"g:", seed)
    words = [word.encode() for word in question.split()]
    hashes = [crc32(x, w) for x in words]
    hashes.extend([crc32(x + b" " + y, b) for x, y in zip(words, words[1:])])
    hashes.extend([crc32(question[i : i + 3].encode(), g) for i in range(len(question) - 2)])
    return np.array(hashes, dtype=np.int64) % feature_dim


def _history_features(prefix: bytes, feature_dim: int, history: tuple) -> tuple:
    """Hashed index of the history length, and those of each action at its
    position and of the last action: two arrays."""
    names = [f"len:{len(history)}"]
    names.extend(f"h{t}:{a}" for t, a in enumerate(history))
    if history:
        names.append(f"last:{history[-1]}")
    seed = zlib.crc32(prefix)
    hashed = np.array([zlib.crc32(n.encode(), seed) for n in names], dtype=np.int64) % feature_dim
    return hashed[:1], hashed[1:]


class QFunction:
    """Linear action-value function over hashed sparse features.

    The weights are stored feature-major, shape (feature_dim, n_actions),
    so the action weights of one hashed feature lie side by side;
    `weights` is the (n_actions, feature_dim) view of that storage.  Used
    as a Double-DQN target, a QFunction keeps the values of every action
    at each feature array it has scored (frozen_values) until sync()
    copies new weights in."""

    def __init__(self, n_actions: int, feature_dim: int = 1 << 15, feature_seed: int = 1):
        self.n_actions = n_actions
        self.feature_dim = feature_dim
        self.feature_seed = feature_seed
        self._wt = np.zeros((feature_dim, n_actions))
        self._frozen: dict = {}  # id(feats) -> (feats, values of every action)
        self._prefix = f"{feature_seed}|".encode()
        self._bias = np.array([zlib.crc32(self._prefix + b"bias") % feature_dim], dtype=np.int64)
        # question -> hashed question part, and history -> hashed history
        # part; the cached functions hold no reference to self, so
        # dropping a QFunction frees its weights at once rather than at the
        # next garbage collection
        self._question_features = lru_cache(maxsize=QUESTION_CACHE_SIZE)(
            partial(_question_features, self._prefix, feature_dim)
        )
        self._history_features = lru_cache(maxsize=HISTORY_CACHE_SIZE)(
            partial(_history_features, self._prefix, feature_dim)
        )

    @property
    def weights(self) -> np.ndarray:
        """The (n_actions, feature_dim) view of the weights; writes to it
        change them."""
        return self._wt.T

    @weights.setter
    def weights(self, value):
        self._wt = np.array(np.asarray(value).T, dtype=float, order="C")
        self._frozen.clear()

    def sync(self, online: "QFunction"):
        """Copy online's weights into this target copy and drop the values
        it has kept."""
        self._wt[:] = online._wt
        self._frozen.clear()

    def features(self, obs: Observation) -> np.ndarray:
        """Hashed indices of the bias, the history length, the question and
        the action history, in that order."""
        if obs.encoded:
            raise ValueError("Q-learning takes raw observations, not BPE-encoded ones")
        length, history = self._history_features(obs.history)
        question = self._question_features(obs.question)
        return np.concatenate((self._bias, length, question, history))

    def q_values(self, feats: np.ndarray) -> np.ndarray:
        # an (L, n_actions) block reduced over its outer axis: every
        # action's sum adds the features one after another
        return np.add.reduce(self._wt.take(feats, axis=0), axis=0)

    def q_value(self, feats: np.ndarray, action: int) -> float:
        # a contiguous gather from the action's column, summed pairwise
        return float(np.add.reduce(self._wt[:, action][feats]))

    def greedy_action(self, feats: np.ndarray, mask) -> int:
        q = self.q_values(feats)
        if mask is not None:
            q = np.where(np.asarray(mask, dtype=bool), q, -np.inf)
        return int(q.argmax())

    def frozen_values(self, feature_arrays) -> list:
        """The values of every action at each feature array, each equal to
        q_value's, computed once per array until the next sync() or weight
        assignment.  Meant for a target copy, whose weights change only
        there.  An array is known by its identity, and the cache holds it,
        so its id cannot be reused while cached; feature arrays are never
        written after hashing."""
        kept = self._frozen
        missing = list({id(f): f for f in feature_arrays if id(f) not in kept}.values())
        for part, feats in _blocks(missing):
            # (k, n_actions, L) with the features along the contiguous last
            # axis, so each sum is pairwise, as q_value's
            values = np.ascontiguousarray(self._wt[feats].transpose(0, 2, 1)).sum(axis=2)
            for j, row in zip(part, values):
                kept[id(missing[j])] = (missing[j], row)
        return [kept[id(f)][1] for f in feature_arrays]

    def clone(self) -> "QFunction":
        out = QFunction(self.n_actions, self.feature_dim, self.feature_seed)
        out._wt = self._wt.copy()
        return out


def td_target(step: Step, gamma: float, online: QFunction, target: QFunction) -> float:
    """Double-DQN target: r, or r + gamma * target-value at the online
    argmax over unmasked next actions.  The step's observations are feature
    indices, as the replay buffer stores them."""
    if step.done:
        return float(step.reward)
    best = online.greedy_action(step.next_observation, step.next_mask)
    return float(step.reward) + gamma * target.q_value(step.next_observation, best)


_BLOCK = 32  # steps per gathered block, which holds n_actions x 32 x L floats


def _blocks(feature_arrays):
    """Yields (positions, stacked arrays) for up to _BLOCK feature arrays of
    one length at a time, so that every position comes once."""
    by_length: dict = {}
    for k, feats in enumerate(feature_arrays):
        by_length.setdefault(len(feats), []).append(k)
    for positions in by_length.values():
        for i in range(0, len(positions), _BLOCK):
            part = positions[i : i + _BLOCK]
            yield part, np.array([feature_arrays[k] for k in part])


def td_errors(steps, gamma: float, online: QFunction, target: QFunction) -> np.ndarray:
    """|td_target(step) - online.q_value(step.observation, step.action)| for
    every step, with the weights fixed.

    Steps with equal feature counts are scored together, in blocks of F of
    shape (k, L).  The action-value half gathers the feature-major weights
    at [F, actions[:, None]], a (k, L) block whose L features lie along the
    last, contiguous axis; summing it adds each step's weights in the same
    pairwise order as q_value.  The argmax half gathers [F] of shape
    (k, L, n_actions) and reduces the middle axis, which numpy does one
    feature after another, as greedy_action's q_values does.  The target
    half reads target.frozen_values, pairwise sums as q_value's.  So every
    argmax and every error equals the one-step-at-a-time value bit for
    bit."""
    values = np.empty(len(steps))
    for ks, feats in _blocks([s.observation for s in steps]):
        actions = np.array([steps[k].action for k in ks])
        values[ks] = online._wt[feats, actions[:, None]].sum(axis=1)
    targets = np.array([float(s.reward) for s in steps])
    ongoing = [k for k, s in enumerate(steps) if not s.done]
    next_feats = [steps[k].next_observation for k in ongoing]
    # (ongoing steps, actions), with 0 rows when every step is done
    frozen = np.array(target.frozen_values(next_feats)).reshape(-1, online.n_actions)
    all_actions = np.ones(online.n_actions, dtype=bool)
    for part, feats in _blocks(next_feats):
        ks = [ongoing[j] for j in part]
        q = np.add.reduce(online._wt.take(feats, axis=0), axis=1)  # (steps, actions)
        masks = np.array(
            [all_actions if steps[k].next_mask is None else steps[k].next_mask for k in ks],
            dtype=bool,
        )
        best = np.argmax(np.where(masks, q, -np.inf), axis=1)
        targets[ks] += gamma * frozen[part, best]
    return np.abs(targets - values)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, result: TrainResult):
    """The weights plus the run's config, env steps and registry manifest."""
    meta = {
        "config": asdict(result.config),
        "env_steps": result.env_steps,
        "manifest": result.registry.manifest(),
    }
    # row-major (n_actions, feature_dim), the layout every checkpoint has
    weights = np.ascontiguousarray(result.q.weights)
    np.savez_compressed(path, weights=weights, meta=json.dumps(meta))


def load_checkpoint(path, registry: Registry | None = None):
    """Returns (QFunction, TrainConfig, env_steps); verifies the registry
    manifest when a registry is given."""
    if not zipfile.is_zipfile(path):  # also False for a missing or unreadable path
        raise ValueError(f"{path}: not a readable .npz checkpoint")
    with np.load(path, allow_pickle=False) as data:
        try:
            meta, weights = json.loads(str(data["meta"])), data["weights"]
        except (KeyError, ValueError) as exc:  # a missing member, or meta that is not JSON
            raise ValueError(f"{path}: unreadable checkpoint: {exc.args[0]}") from None
    if not isinstance(meta, dict) or not {"config", "manifest", "env_steps"} <= meta.keys():
        raise ValueError(f"{path}: checkpoint meta needs config, manifest and env_steps")
    if not isinstance(meta["manifest"], str):
        raise ValueError(f"{path}: checkpoint manifest is not text")
    if not isinstance(meta["config"], dict):
        raise ValueError(f"{path}: checkpoint config is not an object")
    env_steps = meta["env_steps"]
    if type(env_steps) is not int or env_steps < 0:  # a JSON true loads as a bool
        raise ValueError(f"{path}: checkpoint env_steps is not a non-negative integer")
    if registry is not None and meta["manifest"] != registry.manifest():
        raise ValueError(f"{path}: checkpoint was trained against a different action-space layout")
    try:
        config = TrainConfig.from_mapping(meta["config"])
    except (KeyError, ValueError) as exc:  # an unknown key, or a value out of range
        raise ValueError(f"{path}: checkpoint config: {exc.args[0]}") from None
    # one row per action (each manifest line is an operator), one column
    # per hashed feature
    shape = (len(meta["manifest"].splitlines()) + config.n_inputs, config.feature_dim)
    if weights.shape != shape:
        raise ValueError(f"{path}: checkpoint weights have shape {weights.shape}, expected {shape}")
    # integer weights would truncate every update, and a non-finite weight
    # makes every value it touches meaningless
    if weights.dtype.kind != "f":
        raise ValueError(f"{path}: checkpoint weights are {weights.dtype}, not floating point")
    if not np.isfinite(weights).all():
        raise ValueError(f"{path}: checkpoint weights are not all finite")
    q = QFunction(*shape, config.feature_seed)
    q.weights = weights
    return q, config, env_steps


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig(EnvConfig):
    """Trainer settings on top of the environment settings that shape the
    action space; from_mapping and the validator are shared with EnvConfig."""

    modules: tuple = ("numbers__div_remainder",)
    seed: int = 0
    gamma: float = 0.99
    learning_rate: float = 5e-5
    batch_size: int = 512
    target_sync: int = 500
    epsilon_start: float = 0.4
    epsilon_end: float = 0.05
    epsilon_decrement: float = 2.5e-5
    buffer_capacity: int = 25000  # steps per store
    init_steps: int = 50000  # env-step budget for random-policy buffer fill
    total_steps: int = 50000  # total env steps, initialization included
    updates_per_step: int = 1
    train_problems_per_module: int = 1000
    eval_problems_per_module: int = 100
    eval_interval: int = 1000
    feature_dim: int = 1 << 15
    feature_seed: int = 1
    priority_floor: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        # train() has no BPE codec, so its observations are raw text
        if self.encoded_observations:
            raise ConfigError("encoded_observations needs a BPE codec; training has none")
        if not self.modules:
            raise ConfigError("at least one module is required")
        for module in self.modules:
            if module not in SUPPORTED_MODULES:
                raise ConfigError(f"unsupported module: {module!r}")
        if not 0 <= self.gamma <= 1:
            raise ConfigError("gamma must be in [0, 1]")
        for key in (
            "learning_rate",
            "batch_size",
            "target_sync",
            "buffer_capacity",
            "total_steps",
            "updates_per_step",
            "eval_interval",
            "feature_dim",
            "train_problems_per_module",
            "eval_problems_per_module",
            "priority_floor",
        ):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        for key in ("seed", "init_steps", "epsilon_decrement"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must not be negative")
        if not 0 <= self.epsilon_end <= self.epsilon_start <= 1:
            raise ConfigError("need 0 <= epsilon_end <= epsilon_start <= 1")


@dataclass
class TrainResult:
    q: QFunction
    metrics: list
    env_steps: int
    updates: int
    registry: Registry
    config: TrainConfig


_EVAL_SEED_OFFSET = 10_000_019  # held-out problems come from a disjoint seed
# `mathsynth eval` draws its default problems at config.seed plus this, a
# seed apart from both the training pool's and the held-out pool's
TEST_SEED_OFFSET = 2 * _EVAL_SEED_OFFSET


def evaluate(q: QFunction, env: Environment, problems) -> dict:
    """Mean greedy (epsilon = 0) masked reward per module."""
    totals: dict = {}
    for problem in problems:
        record = run_episode(
            env, problem, lambda obs, mask: q.greedy_action(q.features(obs), mask)
        )
        a, b = totals.get(problem.module, (0, 0))
        totals[problem.module] = (a + record.reward, b + 1)
    return {m: r / n for m, (r, n) in sorted(totals.items())}


def _batch_update(q, target, buffer, cfg, nrng, update_count):
    idx, batch = buffer.sample(cfg.batch_size, nrng)
    deltas = np.empty(len(batch))
    scale = cfg.learning_rate / len(batch)
    # the target's weights change only at a sync, so its values at each next
    # observation come from its frozen values, one row per ongoing step
    frozen = iter(target.frozen_values([s.next_observation for s in batch if not s.done]))
    for k, step in enumerate(batch):
        # td_target, with the target's q_value read from its frozen row
        tgt = float(step.reward)
        if not step.done:
            best = q.greedy_action(step.next_observation, step.next_mask)
            tgt += cfg.gamma * next(frozen)[best]
        delta = tgt - q.q_value(step.observation, step.action)
        deltas[k] = delta
        np.add.at(q.weights[step.action], step.observation, scale * delta)
    with np.errstate(over="ignore"):  # a diverging run raises below, without a warning
        loss = float(np.mean(deltas**2))
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss at update {update_count}")
    # recompute priorities for the batch and an extra random sample; a step
    # drawn more than once is scored once (dict.fromkeys, not np.unique,
    # whose first call imports numpy.ma: 1.6 MB more peak memory)
    extra = buffer.random_indices(cfg.batch_size, nrng)
    all_idx = list(dict.fromkeys([*idx.tolist(), *extra.tolist()]))
    errors = td_errors(buffer.steps_at(all_idx), cfg.gamma, q, target)
    buffer.update_priorities(all_idx, errors + cfg.priority_floor)
    return loss


def train(
    config: TrainConfig,
    registry: Registry | None = None,
    metrics_sink=None,
    resume: tuple | None = None,
) -> TrainResult:
    """Run the episode loop.  An episode that starts before init_steps env
    steps acts uniformly at random and runs to its end with no update (the
    balanced buffer fill); a later one acts epsilon-greedily, runs a
    prioritized batch update after every step and stops at total_steps.

    metrics_sink, if given, is called with each metrics record (a dict).
    resume is an optional (QFunction, env_steps) pair from a checkpoint; the
    step count continues from there (the replay buffer is rebuilt fresh).
    """
    registry = registry if registry is not None else default_registry()
    rng = random.Random(config.seed)
    nrng = np.random.default_rng(config.seed)
    env = Environment(registry, config)
    eval_env = Environment(env.registry, env.config)

    train_pool = [
        gp.problem
        for module in config.modules
        for gp in generate(module, config.train_problems_per_module, config.seed)
    ]
    eval_pool = [
        gp.problem
        for module in config.modules
        for gp in generate(module, config.eval_problems_per_module, config.seed + _EVAL_SEED_OFFSET)
    ]
    for problem in train_pool + eval_pool:  # fail here, not at the first reset that meets it
        env.check(problem)

    if resume is not None:
        q, env_steps = resume
        for key, want in (
            ("n_actions", env.n_actions),
            ("feature_dim", config.feature_dim),
            ("feature_seed", config.feature_seed),
        ):
            if getattr(q, key) != want:
                raise ConfigError(
                    f"{key} is {want} but the resumed checkpoint has {getattr(q, key)}"
                )
    else:
        q = QFunction(env.n_actions, config.feature_dim, config.feature_seed)
        env_steps = 0
    target = q.clone()
    buffer = ReplayBuffer(capacity_per_store=config.buffer_capacity)
    schedule = EpsilonSchedule(
        config.epsilon_start, config.epsilon_end, config.epsilon_decrement
    )

    metrics: list = []
    updates = 0
    last_loss = float("nan")

    def log_eval():
        record = {
            "step": env_steps,
            "epsilon": schedule.value(env_steps),
            "loss": last_loss,
            "eval": evaluate(q, eval_env, eval_pool),
        }
        metrics.append(record)
        if metrics_sink is not None:
            metrics_sink(record)

    def store(steps):
        # step t+1 observes what step t led to
        feats = [q.features(steps[0].observation)]
        feats.extend(q.features(s.next_observation) for s in steps)
        buffer.insert(
            [
                Step(feats[t], s.action, s.reward, feats[t + 1], s.done, s.next_mask)
                for t, s in enumerate(steps)
            ],
            positive=any(s.reward for s in steps),
        )

    def act(obs, mask):
        # a fill episode is uniformly random and draws no epsilon
        if filling or rng.random() < schedule.value(env_steps):
            return random_action(mask, env.n_actions, rng)
        return q.greedy_action(q.features(obs), mask)

    while env_steps < config.total_steps:
        filling = env_steps < config.init_steps
        steps = []
        for step, _ in play(env, rng.choice(train_pool), act):
            steps.append(step)
            env_steps += 1
            if filling:
                continue
            # batches sample with replacement, so a small balanced buffer
            # (few rewarded trajectories yet) is already usable
            if len(buffer) > 0:
                for _ in range(config.updates_per_step):
                    last_loss = _batch_update(q, target, buffer, config, nrng, updates)
                    updates += 1
                    if updates % config.target_sync == 0:
                        target.sync(q)
            if env_steps % config.eval_interval == 0:
                log_eval()
            if env_steps == config.total_steps:
                break
        store(steps)

    if not metrics or metrics[-1]["step"] != env_steps:
        log_eval()
    return TrainResult(q, metrics, env_steps, updates, registry, config)
