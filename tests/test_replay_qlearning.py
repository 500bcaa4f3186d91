import dataclasses

import numpy as np
import pytest

from mathsynth.environment import Environment
from mathsynth.parsing import Observation
from mathsynth.qlearning import (
    EpsilonSchedule,
    QFunction,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    td_target,
    train,
)
from mathsynth.replay import ReplayBuffer, Trajectory, Transition


def _transition(reward=0.0, done=True, priority=1.0, action=0):
    feats = np.array([1, 2, 3])
    mask = None if done else np.ones(18, dtype=bool)
    return Transition(feats, action, reward, feats, done, mask, priority)


def _trajectory(positive, n=3, priority=1.0):
    return Trajectory(
        tuple(_transition(reward=float(positive), priority=priority) for _ in range(n)),
        positive=positive,
    )


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
        buf.insert(_trajectory(False))
        assert abs(buf.n_positive - buf.n_zero) <= 1
    for _ in range(50):  # then positives flood
        buf.insert(_trajectory(True))
        assert abs(buf.n_positive - buf.n_zero) <= 1
    import random

    rng = random.Random(0)
    for _ in range(300):
        buf.insert(_trajectory(rng.random() < 0.8))
        assert abs(buf.n_positive - buf.n_zero) <= 1


def test_sampling_is_proportional_to_priority():
    buf = ReplayBuffer()
    buf.insert(Trajectory((_transition(priority=1.0), _transition(priority=3.0)), positive=False))
    buf.insert(Trajectory((_transition(priority=6.0),), positive=True))
    rng = np.random.default_rng(0)
    idx, _ = buf.sample(20_000, rng)
    counts = np.bincount(idx, minlength=3)
    freqs = counts / counts.sum()
    prios = np.array([tr.priority for tr in buf.transitions_at(range(3))])
    expected = prios / prios.sum()
    assert np.abs(freqs - expected).max() < 0.02


def test_priorities_must_be_positive():
    buf = ReplayBuffer()
    buf.insert(_trajectory(True, n=1))
    with pytest.raises(ValueError):
        buf.update_priorities([0], [0.0])


def test_priority_updates_shift_sampling():
    buf = ReplayBuffer()
    buf.insert(Trajectory((_transition(), _transition()), positive=True))
    buf.update_priorities([0, 1], [1e-6, 1.0])
    rng = np.random.default_rng(1)
    idx, _ = buf.sample(1000, rng)
    assert (idx == 1).mean() > 0.99


def test_capacity_eviction_drops_oldest():
    buf = ReplayBuffer(capacity_per_store=6)
    for _ in range(5):
        buf.insert(_trajectory(False, n=3))
        buf.insert(_trajectory(True, n=3))
    assert len(buf) <= 12  # 6 per store
    assert abs(buf.n_positive - buf.n_zero) <= 1


def test_double_dqn_target_decouples_selection_from_evaluation():
    online = QFunction(n_actions=3, feature_dim=64, feature_seed=0)
    target = QFunction(n_actions=3, feature_dim=64, feature_seed=0)
    feats = np.array([5])
    # online prefers action 2; target values action 2 low but action 1 high
    online.weights[2, 5] = 10.0
    online.weights[1, 5] = 1.0
    target.weights[2, 5] = 0.25
    target.weights[1, 5] = 9.0
    tr = Transition(feats, 0, 0.0, feats, False, np.ones(3, dtype=bool), 1.0)
    got = td_target(tr, gamma=1.0, online=online, target=target)
    assert got == 0.25  # evaluated on the target at the online argmax
    single_network = td_target(tr, gamma=1.0, online=target, target=target)
    assert single_network == 9.0  # plain target would differ


def test_td_target_terminal_and_degenerate_gamma():
    done = _transition(reward=1.0, done=True)
    q = QFunction(3, 64, 0)
    assert td_target(done, 0.99, q, q) == 1.0
    ongoing = Transition(np.array([1]), 0, 0.5, np.array([2]), False, np.ones(3, bool), 1.0)
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


def test_checkpoint_round_trip(tmp_path):
    from mathsynth.operators import default_registry

    reg = default_registry()
    q = QFunction(18, 1 << 10, 7)
    q.weights[3, 11] = 1.5
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, q, reg, extra={"env_steps": 123})
    loaded, meta = load_checkpoint(path, reg)
    assert np.array_equal(loaded.weights, q.weights)
    assert loaded.feature_seed == 7
    assert meta["env_steps"] == 123


def test_checkpoint_rejects_other_action_space(tmp_path):
    from mathsynth.operators import default_registry, full_registry

    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, QFunction(18, 64, 0), default_registry())
    with pytest.raises(ValueError):
        load_checkpoint(path, full_registry())


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
