import dataclasses
import gc
import hashlib
import json
import random
import weakref
import zlib
from collections import deque

import numpy as np
import pytest

from mathsynth.environment import EnvConfig, Environment, ProblemRejected
from mathsynth.parsing import Observation, train_bpe
from mathsynth.problems import SUPPORTED_MODULES, generate
from mathsynth.qlearning import (
    HISTORY_CACHE_SIZE,
    QUESTION_CACHE_SIZE,
    EpsilonSchedule,
    QFunction,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    _batch_update,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    td_errors,
    td_target,
    train,
)
from mathsynth.replay import ReplayBuffer
from mathsynth.search import Step, play, random_action


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
    buf.insert(_trajectory(True, n=2), positive=True)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            buf.update_priorities([0, 1, 2], [2.0, bad, 3.0])
        assert buf.max_priority() == 1.0  # a rejected update stores nothing


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
    # epsilon 1 acts at random in every episode and nothing is evaluated before
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


def test_batched_td_errors_equal_the_scalar_targets_bit_for_bit():
    # the priority pass after each update scores the batch plus an extra
    # sample at once; each error must equal the one td_target and q_value
    # give, so that no sampled index can change
    rng = np.random.default_rng(3)
    n_actions, dim = 18, 1 << 12
    online, target = QFunction(n_actions, dim, 0), QFunction(n_actions, dim, 0)
    # magnitudes across six decades, so a different summation order would
    # round differently
    for q in (online, target):
        q.weights = rng.standard_normal((n_actions, dim)) * 10.0 ** rng.uniform(-3, 3, (n_actions, dim))
    steps = []
    for k in range(300):
        # lengths from 1 to 300, with a few long enough for several
        # blocks of one length and for pairwise summation to split
        length = int(rng.choice([1, 7, 40, 40, 129, 300])) if k % 3 else int(rng.integers(1, 300))
        done = k % 4 == 0
        if done:
            mask = None
        elif k % 5 == 1:
            mask = np.zeros(n_actions, dtype=bool)  # one action left
            mask[rng.integers(n_actions)] = True
        elif k % 7 == 2:
            mask = None  # an ongoing step whose mask is unknown: all actions
        else:
            mask = rng.random(n_actions) < 0.5
        steps.append(
            Step(
                rng.integers(0, dim, length),
                int(rng.integers(n_actions)),
                float(rng.choice([0, 1, 0.5])),
                rng.integers(0, dim, max(1, length + int(rng.integers(-2, 3)))),
                done,
                mask,
            )
        )
    # sampling with replacement repeats steps
    batch = steps + [steps[i] for i in rng.integers(0, len(steps), 100)]
    for gamma in (0.99, 0.0, 1.0):
        want = np.array(
            [abs(td_target(s, gamma, online, target) - online.q_value(s.observation, s.action))
             for s in batch]
        )
        got = td_errors(batch, gamma, online, target)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert td_errors([], 0.99, online, target).shape == (0,)


def _six_decades(rng, shape):
    # magnitudes across six decades, so sums in another order round
    # differently
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


def test_feature_major_sums_equal_the_row_major_expressions():
    # the weights used to be stored row-major, (n_actions, feature_dim):
    # q_values was weights[:, feats].sum(axis=1), which adds the features
    # one after another, and q_value was weights[a, feats].sum(), which
    # adds them pairwise; the feature-major storage must keep both orders
    rng = np.random.default_rng(19)
    n_actions, dim = 18, 1 << 10
    q = QFunction(n_actions, dim, 0)
    orders_differ = 0
    for trial in range(600):
        if trial % 50 == 0:
            W = _six_decades(rng, (n_actions, dim))  # C-ordered, row-major
            q.weights = W
        # lengths 1 to 300, past 128 where pairwise summation splits, and
        # runs that repeat feature indices
        length = int(rng.integers(1, 301)) if trial % 3 else int(rng.choice([1, 2, 129, 257, 300]))
        high = 8 if trial % 4 == 0 else dim
        feats = rng.integers(0, high, length)
        sequential = W[:, feats].sum(axis=1)
        pairwise = np.array([W[a, feats].sum() for a in range(n_actions)])
        orders_differ += not np.array_equal(sequential, pairwise)
        assert np.array_equal(q.q_values(feats), sequential)
        assert [q.q_value(feats, a) for a in range(n_actions)] == pairwise.tolist()
        mask = rng.random(n_actions) < 0.5
        assert q.greedy_action(feats, mask) == int(np.argmax(np.where(mask, sequential, -np.inf)))
        assert np.array_equal(q.frozen_values([feats])[0], pairwise)
    assert orders_differ > 100  # the data tells the two orders apart


class _RowMajorQ:
    """QFunction's value functions as they were on row-major weights."""

    def __init__(self, weights):
        self.weights = np.array(weights, order="C")

    def q_value(self, feats, action):
        return float(self.weights[action, feats].sum())

    def greedy_action(self, feats, mask):
        q = self.weights[:, feats].sum(axis=1)
        if mask is not None:
            q = np.where(np.asarray(mask, dtype=bool), q, -np.inf)
        return int(np.argmax(q))


def _reference_batch_update(online, target, buffer, cfg, nrng):
    """_batch_update as a scalar loop of td_target, q_value and np.add.at
    on row-major weights, with the scalar priority of every step."""
    idx, batch = buffer.sample(cfg.batch_size, nrng)
    scale = cfg.learning_rate / len(batch)
    for step in batch:
        delta = td_target(step, cfg.gamma, online, target) - online.q_value(step.observation, step.action)
        np.add.at(online.weights[step.action], step.observation, scale * delta)
    extra = buffer.random_indices(cfg.batch_size, nrng)
    all_idx = list(dict.fromkeys([*idx.tolist(), *extra.tolist()]))
    errors = [
        abs(td_target(s, cfg.gamma, online, target) - online.q_value(s.observation, s.action))
        for s in buffer.steps_at(all_idx)
    ]
    buffer.update_priorities(all_idx, np.array(errors) + cfg.priority_floor)


def _episode_buffers(rng, n_actions, dim):
    """Two equal buffers of short episodes whose step t+1 observes the
    feature array step t led to, as train() stores them."""
    buffers = (ReplayBuffer(capacity_per_store=200), ReplayBuffer(capacity_per_store=200))
    for episode in range(12):
        length = int(rng.integers(1, 6))
        n_feats = int(rng.integers(20, 140))
        obs = [rng.integers(0, dim, n_feats + t) for t in range(length + 1)]
        positive = episode % 2 == 0
        steps = []
        for t in range(length):
            done = t == length - 1
            mask = None if done else rng.random(n_actions) < 0.6
            reward = float(positive and done)
            steps.append(Step(obs[t], int(rng.integers(n_actions)), reward, obs[t + 1], done, mask))
        for buffer in buffers:
            buffer.insert(steps, positive=positive)
    return buffers


def test_batch_update_equals_the_scalar_loop_bit_for_bit():
    # the update loop reads each target value from the target's frozen
    # values, kept from one sync to the next; weights and priorities must
    # equal those of the scalar loop exactly, across a target sync
    rng = np.random.default_rng(23)
    n_actions, dim = 18, 1 << 11
    cfg = TrainConfig(batch_size=32, learning_rate=0.05, gamma=0.99, feature_dim=dim)
    q = QFunction(n_actions, dim, 0)
    q.weights = _six_decades(rng, (n_actions, dim)) * 1e-2
    target = q.clone()
    ref_online, ref_target = _RowMajorQ(q.weights), _RowMajorQ(target.weights)
    buffer, ref_buffer = _episode_buffers(rng, n_actions, dim)
    nrng, ref_nrng = np.random.default_rng(5), np.random.default_rng(5)
    for update in range(6):
        if update in (2, 4):
            target.sync(q)
            ref_target.weights[:] = ref_online.weights
        loss = _batch_update(q, target, buffer, cfg, nrng, update)
        _reference_batch_update(ref_online, ref_target, ref_buffer, cfg, ref_nrng)
        assert np.isfinite(loss)
        assert np.array_equal(q.weights, ref_online.weights)
        assert np.array_equal(buffer._prios, ref_buffer._prios)
    assert not np.array_equal(q.weights, target.weights)  # the updates moved the weights


def test_row_major_checkpoints_load_to_the_same_values(tmp_path):
    # earlier checkpoints hold a C-ordered (n_actions, feature_dim) array
    from mathsynth.operators import default_registry

    rng = np.random.default_rng(29)
    registry = default_registry()
    n_actions, dim = registry.n_ops + 3, 64
    written = tmp_path / "written.npz"
    save_checkpoint(written, _result(QFunction(n_actions, dim, 0), registry, feature_dim=dim))
    with np.load(written) as data:
        meta = str(data["meta"])
    W = _six_decades(rng, (n_actions, dim))
    old = tmp_path / "row_major.npz"
    np.savez_compressed(old, weights=W, meta=meta)
    q = load_checkpoint(old)[0]
    for length in (1, 5, 60, 129, 300):
        feats = rng.integers(0, dim, length)
        assert np.array_equal(q.q_values(feats), W[:, feats].sum(axis=1))
        assert [q.q_value(feats, a) for a in range(n_actions)] == [
            float(W[a, feats].sum()) for a in range(n_actions)
        ]
    # a round trip keeps the shape, the values and the row-major file layout
    again = tmp_path / "again.npz"
    save_checkpoint(again, _result(q, registry, feature_dim=dim))
    with np.load(again) as data:
        assert data["weights"].shape == (n_actions, dim) and data["weights"].flags.c_contiguous
        assert np.array_equal(data["weights"], W)
    loaded = load_checkpoint(again)[0]
    assert loaded.weights.shape == (n_actions, dim)
    assert np.array_equal(loaded.weights, W)


def _uncached_features(q, obs):
    """QFunction.features as it was before the caches: every feature's
    string built and hashed on every call."""
    text = obs.question
    words = text.split()
    feats = ["bias", f"len:{len(obs.history)}"]
    feats.extend(f"w:{w}" for w in words)
    feats.extend(f"b:{a} {b}" for a, b in zip(words, words[1:]))
    feats.extend(f"g:{text[i:i + 3]}" for i in range(len(text) - 2))
    feats.extend(f"h{t}:{a}" for t, a in enumerate(obs.history))
    if obs.history:
        feats.append(f"last:{obs.history[-1]}")
    prefix = f"{q.feature_seed}|".encode()
    return np.array([zlib.crc32(prefix + f.encode()) % q.feature_dim for f in feats], dtype=np.int64)


def test_cached_features_equal_the_uncached_hashes():
    problems = [gp.problem for m in ("numbers__gcd", "calculus__differentiate")
                for gp in generate(m, 6, 0)]
    env = Environment()
    rng = random.Random(0)
    observations = []  # every observation of one random episode per problem
    for problem in problems:
        policy = lambda obs, mask: random_action(mask, env.n_actions, rng)
        for step, _ in play(env, problem, policy):
            observations.extend((step.observation, step.next_observation))
    assert len({len(o.history) for o in observations}) > 3
    rng.shuffle(observations)  # questions interleave, histories vary
    q = QFunction(env.n_actions, 1 << 12, 5)
    for obs in observations * 2:  # the second pass hits the cache
        got = q.features(obs)
        assert got.dtype == np.int64
        assert np.array_equal(got, _uncached_features(q, obs))
    # a bounded cache: after 10,000 distinct questions it still holds at
    # most its bound, and evicted questions hash the same when they return
    for k in range(10_000):
        q.features(Observation(f"What is {k} + 1?", (k % 7,), False))
    info = q._question_features.cache_info()
    assert info.maxsize == QUESTION_CACHE_SIZE and info.currsize <= QUESTION_CACHE_SIZE
    # and after 10,000 distinct histories the history cache holds at most its bound
    for k in range(10_000):
        q.features(Observation("What is 1 + 1?", (k % 18, k // 18, 3), False))
    info = q._history_features.cache_info()
    assert info.maxsize == HISTORY_CACHE_SIZE and info.currsize <= HISTORY_CACHE_SIZE
    for obs in observations[:20]:
        assert np.array_equal(q.features(obs), _uncached_features(q, obs))


def test_features_hash_as_the_reference_on_every_module_and_edge_case():
    # the crc32-continuation hasher gives the reference's indices, in its
    # order, on generated questions and on edge cases of splitting and
    # slicing
    q = QFunction(18, 1 << 15, 1)
    texts = [gp.problem.question for m in SUPPORTED_MODULES for s in (0, 41)
             for gp in generate(m, 100, s)]
    texts += ["", "a", "ab", "abc", "word", "two words", "\t", "a\tb\n c   d\n\n",
              "   lead and trail   ", "héllo wörld ü", "é", "éü", "日本語の問題",
              "x\u2003y \x1c z"]  # an em space, and an ASCII separator str.split splits at
    histories = [(), (0,), (17, 3), (5, 5, 5, 1, 0, 12, 9)]
    for k, text in enumerate(texts):
        obs = Observation(text, histories[k % len(histories)], False)
        assert np.array_equal(q.features(obs), _uncached_features(q, obs)), text
    # another seed and a small width hash the same way
    small = QFunction(4, 97, 12345)
    for text in texts[::50]:
        obs = Observation(text, (1, 2), False)
        assert np.array_equal(small.features(obs), _uncached_features(small, obs))


def test_features_reject_encoded_observations():
    # training takes raw text, so there is no token-feature branch: an
    # encoded observation is a ValueError, in features and in evaluate
    problems = [gp.problem for gp in generate("numbers__gcd", 4, 0)]
    codec = train_bpe([p.question for p in problems], vocab_size=200, max_len=80)
    env = Environment(config=EnvConfig(encoded_observations=True), codec=codec)
    q = QFunction(env.n_actions, 1 << 10, 0)
    obs = env.reset(problems[0])
    assert obs.encoded
    with pytest.raises(ValueError, match="Q-learning takes raw observations"):
        q.features(obs)
    with pytest.raises(ValueError, match="Q-learning takes raw observations"):
        evaluate(q, env, problems)


def test_question_cache_leaves_no_reference_cycle():
    # the weights are freed as soon as the last reference goes, not at the
    # next garbage collection
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        q = QFunction(18, 1 << 10, 0)
        q.features(Observation("What is 1 + 1?", (3,), False))
        assert q._question_features.cache_info().currsize == 1
        assert q._history_features.cache_info().currsize == 1
        ref = weakref.ref(q)
        del q
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


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


def test_checkpoint_weights_must_fit_the_manifest(tmp_path):
    # without a registry to compare against, the manifest still fixes the
    # number of actions
    from mathsynth.operators import default_registry

    path = tmp_path / "ckpt.npz"
    meta = {"config": {"feature_dim": 64}, "env_steps": 0, "manifest": default_registry().manifest()}
    for weights, manifest in (
        (np.zeros((18, 64)), 18),
        (np.zeros(18), meta["manifest"]),
        (np.zeros((10, 64)), meta["manifest"]),
        (np.zeros((18, 65)), meta["manifest"]),
    ):
        np.savez_compressed(path, weights=weights, meta=json.dumps({**meta, "manifest": manifest}))
        with pytest.raises(ValueError, match="ckpt.npz"):
            load_checkpoint(path)
    np.savez_compressed(path, weights=np.ones((18, 64)), meta=json.dumps(meta))
    assert np.array_equal(load_checkpoint(path)[0].weights, np.ones((18, 64)))


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


TRAIN_DIGEST = "cce61a7724eeca09a948449b7b6b2fdb748aa0dcc4af287360795865ee903221"


def _rounded(x):
    # 10 significant digits, so the pin does not hang on the last bit of a
    # numpy summation
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, dict):
        return [(k, _rounded(v)) for k, v in sorted(x.items())]
    return x


def test_train_runs_are_pinned():
    # env steps, updates, every metrics record and the weights of short runs
    # that cover a fill episode running past total_steps, learning from an
    # empty buffer, several updates per step, two modules and resuming; the
    # digest guards refactors of the training loop
    base = {
        "modules": "numbers__div_remainder",
        "learning_rate": "0.05",
        "batch_size": "32",
        "target_sync": "50",
        "init_steps": "600",
        "total_steps": "1500",
        "train_problems_per_module": "50",
        "eval_problems_per_module": "10",
        "eval_interval": "250",
    }
    cases = [
        {"modules": "numbers__is_prime,numbers__is_factor"},
        {"init_steps": "2000", "total_steps": "900"},
        {"init_steps": "0", "eval_interval": "7"},
        {"updates_per_step": "2", "eval_interval": "1500"},
    ]
    digest = hashlib.sha256()
    for case in cases:
        config = TrainConfig.from_mapping({**base, **case})
        first = train(config)
        more = dataclasses.replace(config, total_steps=first.env_steps + 300)
        for result in (first, train(more, resume=(first.q.clone(), first.env_steps))):
            nonzero = np.flatnonzero(result.q.weights)
            digest.update(
                repr(
                    (
                        result.env_steps,
                        result.updates,
                        [_rounded(record) for record in result.metrics],
                        nonzero.tolist(),
                        [_rounded(float(w)) for w in result.q.weights.flat[nonzero]],
                    )
                ).encode()
            )
    assert digest.hexdigest() == TRAIN_DIGEST
