import dataclasses
import json
import random
from collections import deque

import numpy as np
import pytest

from mathsynth.environment import Environment, ProblemRejected
from mathsynth.parsing import Observation
from mathsynth.qlearning import (
    EpsilonSchedule,
    QFunction,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    td_target,
    train,
)
from mathsynth.replay import ReplayBuffer
from mathsynth.search import Step


def _step(reward=0.0, done=True, action=0):
    feats = np.array([1, 2, 3])
    mask = None if done else np.ones(18, dtype=bool)
    return Step(feats, action, reward, feats, done, mask)


def _trajectory(positive, n=3):
    return [_step(reward=float(positive)) for _ in range(n)]


def test_epsilon_schedule_hits_the_floor_at_14000():
    s = EpsilonSchedule()
    assert s.value(0) == 0.4
    assert s.value(14_000) == 0.05
    assert s.value(13_999) > 0.05
    assert s.value(100_000) == 0.05
    values = [s.value(t) for t in range(0, 20_000, 500)]
    assert all(a >= b for a, b in zip(values, values[1:]))  # non-increasing


def test_balance_stays_one_to_one_under_adversarial_inserts():
    buf = ReplayBuffer()
    for _ in range(50):  # zeros flood first
        buf.insert(_trajectory(False), positive=False)
        assert abs(buf.n_positive - buf.n_zero) <= 1
    for _ in range(50):  # then positives flood
        buf.insert(_trajectory(True), positive=True)
        assert abs(buf.n_positive - buf.n_zero) <= 1
    rng = random.Random(0)
    for _ in range(300):
        positive = rng.random() < 0.8
        buf.insert(_trajectory(positive), positive)
        assert abs(buf.n_positive - buf.n_zero) <= 1


def test_sampling_is_proportional_to_priority():
    buf = ReplayBuffer()
    buf.insert([_step(), _step()], positive=False)
    buf.insert([_step()], positive=True)
    prios = np.array([6.0, 1.0, 3.0])  # the positive store comes first
    buf.update_priorities(range(3), prios)
    rng = np.random.default_rng(0)
    idx, _ = buf.sample(20_000, rng)
    counts = np.bincount(idx, minlength=3)
    freqs = counts / counts.sum()
    expected = prios / prios.sum()
    assert np.abs(freqs - expected).max() < 0.02


def test_priorities_must_be_positive():
    buf = ReplayBuffer()
    buf.insert(_trajectory(True, n=1), positive=True)
    with pytest.raises(ValueError):
        buf.update_priorities([0], [0.0])


def test_priority_updates_shift_sampling():
    buf = ReplayBuffer()
    buf.insert([_step(), _step()], positive=True)
    buf.update_priorities([0, 1], [1e-6, 1.0])
    rng = np.random.default_rng(1)
    idx, _ = buf.sample(1000, rng)
    assert (idx == 1).mean() > 0.99


def test_capacity_eviction_drops_oldest():
    buf = ReplayBuffer(capacity_per_store=6)
    for _ in range(5):
        buf.insert(_trajectory(False, n=3), positive=False)
        buf.insert(_trajectory(True, n=3), positive=True)
    assert len(buf) <= 12  # 6 per store
    assert abs(buf.n_positive - buf.n_zero) <= 1


class _RebuildBuffer:
    """Reference: the buffer as it was when each trajectory sat in its store
    with a priority on every step, and the flat list and priority array were
    rebuilt after every insert."""

    def __init__(self, capacity_per_store):
        self.capacity_per_store = capacity_per_store
        self._pos, self._zero = deque(), deque()
        self._steps = {True: 0, False: 0}
        self._flat, self._prios, self._dirty = [], np.zeros(0), True

    n_positive = property(lambda self: len(self._pos))
    n_zero = property(lambda self: len(self._zero))

    def __len__(self):
        return self._steps[True] + self._steps[False]

    def max_priority(self):
        self._refresh()
        return float(self._prios.max()) if len(self._prios) else 1.0

    def _evict_oldest(self, positive):
        store = self._pos if positive else self._zero
        self._steps[positive] -= len(store.popleft())

    def insert(self, steps, positive):
        prio = self.max_priority()
        store = self._pos if positive else self._zero
        store.append([[step, prio] for step in steps])
        self._steps[positive] += len(steps)
        while self._steps[positive] > self.capacity_per_store and len(store) > 1:
            self._evict_oldest(positive)
        while abs(len(self._pos) - len(self._zero)) > 1:
            self._evict_oldest(len(self._pos) > len(self._zero))
        self._dirty = True

    def _refresh(self):
        if self._dirty:
            trajs = [*self._pos, *self._zero]
            self._flat = [item for traj in trajs for item in traj]
            self._prios = np.array([p for _, p in self._flat], dtype=float)
            self._dirty = False

    def sample(self, batch_size, rng):
        self._refresh()
        p = self._prios / self._prios.sum()
        idx = rng.choice(len(self._flat), size=batch_size, replace=True, p=p)
        return idx, [self._flat[i][0] for i in idx]

    def random_indices(self, k, rng):
        self._refresh()
        return rng.choice(len(self._flat), size=min(k, len(self._flat)), replace=False)

    def update_priorities(self, indices, priorities):
        self._refresh()
        for i, p in zip(indices, priorities):
            self._flat[i][1] = float(p)
            self._prios[i] = float(p)


def test_buffer_matches_the_rebuild_on_insert_reference():
    rng = random.Random(5)
    new, ref = ReplayBuffer(capacity_per_store=12), _RebuildBuffer(capacity_per_store=12)
    for t in range(600):
        bias = (0.1, 0.9, 0.5)[t // 50 % 3]  # runs of one sign force balance evictions
        positive = rng.random() < bias
        # mostly short trajectories; now and then one longer than a whole store
        n = 15 if rng.random() < 0.03 else rng.randint(1, 6)
        steps = [_step(reward=float(positive), action=t) for _ in range(n)]
        new.insert(steps, positive)
        ref.insert(steps, positive)
        assert (len(new), new.n_positive, new.n_zero, new.max_priority()) == (
            len(ref), ref.n_positive, ref.n_zero, ref.max_priority()
        )
        seed = rng.randrange(2**32)
        idx, items = new.sample(8, np.random.default_rng(seed))
        ref_idx, ref_items = ref.sample(8, np.random.default_rng(seed))
        assert np.array_equal(idx, ref_idx)
        assert all(a is b for a, b in zip(items, ref_items))
        extra = new.random_indices(5, np.random.default_rng(seed + 1))
        assert np.array_equal(extra, ref.random_indices(5, np.random.default_rng(seed + 1)))
        all_idx = np.concatenate([idx, extra])
        prios = [rng.uniform(0.01, 10.0) for _ in all_idx]
        new.update_priorities(all_idx, prios)
        ref.update_priorities(all_idx, prios)


def test_storing_an_episode_hashes_each_observation_once(monkeypatch):
    calls = []
    inserted = []  # (steps, features calls since the previous insert)
    features, insert = QFunction.features, ReplayBuffer.insert

    def counted_features(self, obs):
        calls.append(obs)
        return features(self, obs)

    def recorded_insert(self, steps, positive):
        assert all(a.next_observation is b.observation for a, b in zip(steps, steps[1:]))
        inserted.append((len(steps), len(calls)))
        calls.clear()
        return insert(self, steps, positive)

    monkeypatch.setattr(QFunction, "features", counted_features)
    monkeypatch.setattr(ReplayBuffer, "insert", recorded_insert)
    # epsilon 1 acts at random in both phases and nothing is evaluated before
    # the end, so every features call between two inserts comes from storing
    train(
        _tiny_config(
            init_steps=100, total_steps=300, epsilon_start=1.0, epsilon_end=1.0,
            eval_interval=10_000,
        )
    )
    assert len(inserted) > 10
    assert all(n_calls == n + 1 for n, n_calls in inserted)


def test_double_dqn_target_decouples_selection_from_evaluation():
    online = QFunction(n_actions=3, feature_dim=64, feature_seed=0)
    target = QFunction(n_actions=3, feature_dim=64, feature_seed=0)
    feats = np.array([5])
    # online prefers action 2; target values action 2 low but action 1 high
    online.weights[2, 5] = 10.0
    online.weights[1, 5] = 1.0
    target.weights[2, 5] = 0.25
    target.weights[1, 5] = 9.0
    step = Step(feats, 0, 0.0, feats, False, np.ones(3, dtype=bool))
    got = td_target(step, gamma=1.0, online=online, target=target)
    assert got == 0.25  # evaluated on the target at the online argmax
    single_network = td_target(step, gamma=1.0, online=target, target=target)
    assert single_network == 9.0  # plain target would differ


def test_td_target_terminal_and_degenerate_gamma():
    done = _step(reward=1.0, done=True)
    q = QFunction(3, 64, 0)
    assert td_target(done, 0.99, q, q) == 1.0
    ongoing = Step(np.array([1]), 0, 0.5, np.array([2]), False, np.ones(3, bool))
    assert td_target(ongoing, 0.0, q, q) == 0.5


def test_masked_argmax_never_selects_masked():
    q = QFunction(4, 32, 0)
    feats = np.array([0])
    q.weights[0, 0] = 100.0
    mask = np.array([False, True, True, False])
    assert q.greedy_action(feats, mask) in (1, 2)


def test_features_distinguish_history_positions():
    q = QFunction(4, 1 << 12, 0)
    a = q.features(Observation("Is 5 prime?", (1, 2), False))
    b = q.features(Observation("Is 5 prime?", (2, 1), False))
    assert sorted(a.tolist()) != sorted(b.tolist())


def _result(q, registry, env_steps=0, **config):
    return TrainResult(q, [], env_steps, 0, registry, TrainConfig(**config))


def test_checkpoint_round_trip(tmp_path):
    from mathsynth.operators import default_registry

    reg = default_registry()
    q = QFunction(18, 1 << 10, 7)
    q.weights[3, 11] = 1.5
    saved = _result(
        q, reg, 123, modules=("numbers__gcd", "numbers__lcm"), n_inputs=3,
        feature_dim=1 << 10, feature_seed=7, gamma=0.9, learning_rate=0.05,
    )
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, saved)
    loaded, config, env_steps = load_checkpoint(path, reg)
    assert np.array_equal(loaded.weights, q.weights)
    assert (loaded.n_actions, loaded.feature_dim, loaded.feature_seed) == (18, 1 << 10, 7)
    assert (config, env_steps) == (saved.config, 123)
    with np.load(path) as data:
        assert set(json.loads(str(data["meta"]))) == {"config", "env_steps", "manifest"}


def test_checkpoint_rejects_other_action_space(tmp_path):
    from mathsynth.operators import default_registry, full_registry

    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, _result(QFunction(18, 64, 0), default_registry(), feature_dim=64))
    with pytest.raises(ValueError):
        load_checkpoint(path, full_registry())


def test_checkpoint_without_config_is_rejected(tmp_path):
    from mathsynth.operators import default_registry

    path = tmp_path / "ckpt.npz"
    meta = {"feature_seed": 0, "feature_dim": 64, "n_actions": 18, "env_steps": 5,
            "manifest": default_registry().manifest()}
    np.savez_compressed(path, weights=np.zeros((18, 64)), meta=json.dumps(meta))
    with pytest.raises(ValueError, match="ckpt.npz"):
        load_checkpoint(path)


def _tiny_config(**overrides):
    base = dict(
        modules=("numbers__is_prime",),
        seed=0,
        learning_rate=0.05,
        batch_size=16,
        target_sync=50,
        init_steps=150,
        total_steps=500,
        train_problems_per_module=40,
        eval_problems_per_module=10,
        eval_interval=200,
        feature_dim=1 << 12,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_runs_and_is_deterministic():
    a = train(_tiny_config())
    b = train(_tiny_config())
    assert np.array_equal(a.q.weights, b.q.weights)
    assert a.metrics == b.metrics
    assert a.env_steps >= 500
    assert all(set(m) == {"step", "epsilon", "loss", "eval"} for m in a.metrics)


def test_train_divergence_guard():
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
        train(_tiny_config(learning_rate=1e18, total_steps=2000))


def test_evaluate_groups_by_module():
    from mathsynth.problems import generate

    result = train(_tiny_config())
    env = Environment(result.registry)
    problems = [gp.problem for gp in generate("numbers__is_prime", 10, 99)]
    per_module = evaluate(result.q, env, problems)
    assert set(per_module) == {"numbers__is_prime"}
    assert 0.0 <= per_module["numbers__is_prime"] <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig.from_mapping({"gamma": "2.0"})
    with pytest.raises(KeyError):
        TrainConfig.from_mapping({"bogus": "1"})
    cfg = TrainConfig.from_mapping({"modules": "numbers__gcd,numbers__lcm", "batch_size": "32"})
    assert cfg.modules == ("numbers__gcd", "numbers__lcm")
    assert cfg.batch_size == 32


def test_priority_floor_must_be_positive():
    # a zero floor used to pass validation and fail at the first zero TD error
    with pytest.raises(ValueError):
        TrainConfig.from_mapping({"priority_floor": "0"})
    with pytest.raises(ValueError):
        TrainConfig(priority_floor=0)
    with pytest.raises(ValueError):
        dataclasses.replace(TrainConfig(), priority_floor=0.0)


def test_train_rejects_a_pool_problem_before_the_first_step(monkeypatch):
    # div_remainder problems have 2 inputs; the run used to fail only when
    # the random draw first reset the environment on one of them
    steps = []
    step = Environment.step
    monkeypatch.setattr(Environment, "step", lambda self, a: steps.append(a) or step(self, a))
    config = TrainConfig.from_mapping(
        {
            "modules": "numbers__is_prime,numbers__div_remainder",
            "n_inputs": "1",
            "total_steps": "300",
            "seed": "1",
        }
    )
    with pytest.raises(ProblemRejected, match="div_remainder problem has 2 inputs but n_inputs is 1"):
        train(config)
    assert steps == []
