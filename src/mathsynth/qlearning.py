"""Double Q-learning with prioritized, reward-balanced replay over a linear
value function on hashed sparse features of (question text, action history).

The Double-DQN decoupling: the bootstrap action is chosen by the online
function and evaluated by a frozen target copy.  After every batch the
priorities of the batch and of an extra random sample of stored steps are
recomputed against the current parameters.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from .environment import ConfigError, EnvConfig, Environment
from .operators import Registry, default_registry
from .parsing import Observation
from .problems import SUPPORTED_MODULES, generate
from .replay import ReplayBuffer
from .search import Step, random_action, random_rollout, run_episode


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 0.4
    end: float = 0.05
    decrement_per_step: float = 2.5e-5

    def value(self, step: int) -> float:
        return max(self.end, self.start - step * self.decrement_per_step)


class QFunction:
    """Linear action-value function over hashed sparse features."""

    def __init__(self, n_actions: int, feature_dim: int = 1 << 15, feature_seed: int = 1):
        self.n_actions = n_actions
        self.feature_dim = feature_dim
        self.feature_seed = feature_seed
        self.weights = np.zeros((n_actions, feature_dim))
        self._prefix = f"{feature_seed}|".encode()

    def _hash(self, feat: str) -> int:
        return zlib.crc32(self._prefix + feat.encode()) % self.feature_dim

    def features(self, obs: Observation) -> np.ndarray:
        feats = ["bias", f"len:{len(obs.history)}"]
        if obs.encoded:
            feats.extend(f"tok:{t}" for t in obs.question)
        else:
            text = obs.question
            words = text.split()
            feats.extend(f"w:{w}" for w in words)
            feats.extend(f"b:{a} {b}" for a, b in zip(words, words[1:]))
            feats.extend(f"g:{text[i:i + 3]}" for i in range(len(text) - 2))
        for t, a in enumerate(obs.history):
            feats.append(f"h{t}:{a}")
        if obs.history:
            feats.append(f"last:{obs.history[-1]}")
        return np.fromiter((self._hash(f) for f in feats), dtype=np.int64, count=len(feats))

    def q_values(self, feats: np.ndarray) -> np.ndarray:
        return self.weights[:, feats].sum(axis=1)

    def q_value(self, feats: np.ndarray, action: int) -> float:
        return float(self.weights[action, feats].sum())

    def greedy_action(self, feats: np.ndarray, mask) -> int:
        q = self.q_values(feats)
        if mask is not None:
            q = np.where(np.asarray(mask, dtype=bool), q, -np.inf)
        return int(np.argmax(q))

    def clone(self) -> "QFunction":
        out = QFunction(self.n_actions, self.feature_dim, self.feature_seed)
        out.weights = self.weights.copy()
        return out


def td_target(step: Step, gamma: float, online: QFunction, target: QFunction) -> float:
    """Double-DQN target: r, or r + gamma * target-value at the online
    argmax over unmasked next actions.  The step's observations are feature
    indices, as the replay buffer stores them."""
    if step.done:
        return float(step.reward)
    best = online.greedy_action(step.next_observation, step.next_mask)
    return float(step.reward) + gamma * target.q_value(step.next_observation, best)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, result: TrainResult):
    """The weights plus the run's config, env steps and registry manifest."""
    meta = {
        "config": asdict(result.config),
        "env_steps": result.env_steps,
        "manifest": result.registry.manifest(),
    }
    np.savez_compressed(path, weights=result.q.weights, meta=json.dumps(meta))


def load_checkpoint(path, registry: Registry | None = None):
    """Returns (QFunction, TrainConfig, env_steps); verifies the registry
    manifest when a registry is given."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        weights = data["weights"]
    if "config" not in meta:
        raise ValueError(f"{path}: checkpoint records no training config")
    if registry is not None and meta["manifest"] != registry.manifest():
        raise ValueError("checkpoint was trained against a different action-space layout")
    config = TrainConfig.from_mapping(meta["config"])
    n_actions, feature_dim = weights.shape
    q = QFunction(n_actions, feature_dim, config.feature_seed)
    q.weights = weights
    return q, config, meta["env_steps"]


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
        # train() has no BPE codec, so neither codec key could take effect
        if self.encoded_observations:
            raise ConfigError("encoded_observations needs a BPE codec; training has none")
        if self.max_question_tokens != EnvConfig.max_question_tokens:
            raise ConfigError(
                "max_question_tokens applies only to encoded observations, "
                "which training does not use"
            )
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
    for k, step in enumerate(batch):
        tgt = td_target(step, cfg.gamma, q, target)
        delta = tgt - q.q_value(step.observation, step.action)
        deltas[k] = delta
        np.add.at(q.weights[step.action], step.observation, scale * delta)
    loss = float(np.mean(deltas**2))
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss at update {update_count}")
    # recompute priorities for the batch and an extra random sample
    extra = buffer.random_indices(cfg.batch_size, nrng)
    all_idx = np.concatenate([idx, extra])
    new_prios = []
    for step in buffer.steps_at(all_idx):
        tgt = td_target(step, cfg.gamma, q, target)
        new_prios.append(abs(tgt - q.q_value(step.observation, step.action)) + cfg.priority_floor)
    buffer.update_priorities(all_idx, new_prios)
    return loss


def train(
    config: TrainConfig,
    registry: Registry | None = None,
    metrics_sink=None,
    resume: tuple | None = None,
) -> TrainResult:
    """Run the full loop: balanced random-policy buffer initialization, then
    epsilon-greedy acting interleaved with prioritized batch updates.

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
    last_eval_step = -1

    def emit(record):
        metrics.append(record)
        if metrics_sink is not None:
            metrics_sink(record)

    def store(steps):
        # step t+1 observes what step t led to, so each observation is hashed once
        feats = [q.features(steps[0].observation)]
        feats.extend(q.features(s.next_observation) for s in steps)
        buffer.insert(
            [
                replace(s, observation=feats[t], next_observation=feats[t + 1])
                for t, s in enumerate(steps)
            ],
            positive=any(s.reward for s in steps),
        )

    def maybe_eval(force=False):
        nonlocal last_eval_step
        if (force or env_steps % config.eval_interval == 0) and env_steps != last_eval_step:
            last_eval_step = env_steps
            per_module = evaluate(q, eval_env, eval_pool)
            emit(
                {
                    "step": env_steps,
                    "epsilon": schedule.value(env_steps),
                    "loss": last_loss,
                    "eval": per_module,
                }
            )

    # phase 1: balanced buffer initialization from a uniform random policy
    init_budget = min(config.init_steps, config.total_steps)
    while env_steps < init_budget:
        record = random_rollout(env, rng.choice(train_pool), rng, respect_mask=True)
        env_steps += len(record.steps)
        store(record.steps)

    # phase 2: epsilon-greedy acting with interleaved batch updates
    while env_steps < config.total_steps:
        problem = rng.choice(train_pool)
        obs = env.reset(problem)
        mask = env.compute_mask()
        done = False
        steps = []
        while not done and env_steps < config.total_steps:
            epsilon = schedule.value(env_steps)
            if rng.random() < epsilon:
                action = random_action(mask, env.n_actions, rng)
            else:
                action = q.greedy_action(q.features(obs), mask)
            next_obs, reward, done, info = env.step(action)
            steps.append(Step(obs, action, reward, next_obs, done, info["mask"]))
            obs, mask = next_obs, info["mask"]
            env_steps += 1
            # batches sample with replacement, so a small balanced buffer
            # (few rewarded trajectories yet) is already usable
            if len(buffer) > 0:
                for _ in range(config.updates_per_step):
                    last_loss = _batch_update(q, target, buffer, config, nrng, updates)
                    updates += 1
                    if updates % config.target_sync == 0:
                        target.weights[:] = q.weights
            maybe_eval()
        if steps:
            store(steps)

    maybe_eval(force=True)
    return TrainResult(q, metrics, env_steps, updates, registry, config)
