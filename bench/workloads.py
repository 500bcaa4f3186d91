"""The four workloads: set-up, one round of operations, and the checks.

A round is a fixed list of operations; every round of a run repeats it
exactly (rollout randomness is re-seeded per round), so counts per round
depend on the seed only.  Each operation runs its program calls through
Meter.call, which times them; its check runs afterwards, off the clock and
outside any trace, and so do the host-speed reference samples.
"""

from __future__ import annotations

import random
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

from mathsynth import (
    environment,
    mining,
    operators,
    parsing,
    problems,
    qlearning,
    search,
    values,
)

import checks
from hostspeed import HostSpeed

PROBLEMS_PER_MODULE = 100  # episodes and encoded: 1,100 problems a round
SEARCH_DEPTH = 7  # first-solution iterative deepening
COUNT_DEPTH = 6  # full count_all enumeration
FIRST_SOLUTION_PROBLEMS = 3  # per module, plus one count_all problem
CORPUS_SIZE = 30  # second-derivative graphs mined for the abstraction pass
ABSTRACTION_DEPTH = 6
TRAIN_MODULE = "numbers__div_remainder"
HELD_OUT_PROBLEMS = 10_000  # answered greedily after training
HELD_OUT_SEED_OFFSET = 20_000_003  # apart from train()'s own two problem pools
LEARNING_THRESHOLD = 0.95  # criterion 7's bound
# criterion 7's hyperparameters; the run is shortened, and the random fill is
# long enough that the balanced buffer holds a few rewarded trajectories
TRAIN_CONFIG = {
    "modules": TRAIN_MODULE,
    "learning_rate": "0.05",
    "batch_size": "128",
    "target_sync": "250",
    "updates_per_step": "1",
    "init_steps": "30000",
    "total_steps": "32000",
    "train_problems_per_module": "1000",
    "eval_problems_per_module": "100",
    "eval_interval": "250",
}


class Meter:
    """Counts operations and times the program calls inside them."""

    def __init__(self, tracer=None, host=None):
        self.tracer = tracer
        self.host = host if host is not None else HostSpeed()
        self.attempted = 0
        self.failed = 0  # raised, or a check rejected the output
        self.wrong = 0  # failed in the check: rejected, or the check raised on it
        self.busy = 0.0  # seconds spent inside program calls

    def call(self, fn, *args, **kwargs):
        sampling = self.host.spent  # a callback may sample the host mid-call
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy += time.perf_counter() - start - (self.host.spent - sampling)

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def op(self, run, check):
        """run() makes the program calls through self.call and returns what
        check() judges; an exception in either fails the operation, and one
        in check() (an output it cannot read) counts as a wrong output."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_op = self.attempted
        try:
            out = run()
        except Exception:  # one broken operation must not end the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            self.host.maybe_sample()
            return None
        try:
            with self.untraced():
                ok = check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.host.maybe_sample()
        if not ok:
            self.failed += 1
            self.wrong += 1
        return out


@dataclass
class RoundResult:
    env_steps: int = 0
    problems: int = 0
    rewards: list = field(default_factory=list)  # reward per episode or search
    # seconds the env steps and the problems took; None: the round's busy time
    steps_time: float | None = None
    problems_time: float | None = None
    eval_reward: float | None = None  # train: best greedy reward during training


def masks_before(record, n_ops: int, n_actions: int):
    """The validity mask in force before each action: at the root only
    operators may be placed; later masks are the ones the steps reported."""
    root = [i < n_ops for i in range(n_actions)]
    return [root] + [s.next_mask for s in record.steps[:-1]]


# ---------------------------------------------------------------------------
# episodes and encoded


def load_problems(seed: int, workdir: Path):
    """Generated problems (with truth graphs) for every module, and the same
    problems written to dataset files and read back the way a user loads a
    dataset.  Both lists interleave the modules."""
    generated, loaded = [], []
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for module in problems.SUPPORTED_MODULES:
            gps = problems.generate(module, PROBLEMS_PER_MODULE, seed)
            path = workdir / f"{module}.txt"
            problems.write_dataset_file([gp.problem for gp in gps], path)
            generated.append(gps)
            loaded.append(problems.load_dataset_file(path, module))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def interleave(lists):
        return [p for group in zip_longest(*lists) for p in group if p is not None]

    return interleave(generated), interleave(loaded)


class Episodes:
    """Truth-graph replay, then masked and unmasked uniform-random rollouts."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.generated, self.loaded = load_problems(seed, workdir)
        self.env = environment.Environment()

    def check_rollout(self, record, problem, respect_mask, rng_state):
        return checks.episode_ok(
            record.actions,
            masks_before(record, self.env.n_ops, self.env.n_actions),
            record.reward,
            record.output,
            problem.answer,
        )

    def round(self, meter: Meter) -> RoundResult:
        res = RoundResult(problems=len(self.generated))
        env = self.env
        for gp in self.generated:
            out = meter.op(
                lambda: meter.call(env.replay, gp.problem, gp.truth_graph) + (len(env.state.history),),
                lambda out: checks.truth_replay_ok(out[0], out[1].get("output"), gp.problem.answer),
            )
            if out is not None:
                res.env_steps += out[2]
                res.rewards.append(out[0])
        rng = random.Random(f"rollouts|{self.seed}")
        for problem in self.loaded:
            for respect_mask in (True, False):
                state = rng.getstate()
                record = meter.op(
                    lambda: meter.call(search.random_rollout, env, problem, rng, respect_mask),
                    lambda rec: self.check_rollout(rec, problem, respect_mask, state),
                )
                if record is not None:
                    res.env_steps += len(record.steps)
                    res.rewards.append(record.reward)
        return res


class Encoded(Episodes):
    """The same rollouts with BPE-encoded observations."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.raw_env = self.env
        questions = [gp.problem.question for gp in self.generated]
        base = len({c for q in questions for c in q})
        longest = max(len(q) for q in questions)  # a token covers one character or more
        self.codec = parsing.train_bpe(questions, vocab_size=base + 32, max_len=longest)
        cfg = environment.EnvConfig(encoded_observations=True, max_question_tokens=longest)
        self.env = environment.Environment(config=cfg, codec=self.codec)

    def check_rollout(self, record, problem, respect_mask, rng_state):
        """Besides the episode properties: the raw-text environment driven by
        the same random state takes the same actions and earns the same
        reward, and the first observation decodes back to the question."""
        rng = random.Random()
        rng.setstate(rng_state)
        raw = search.random_rollout(self.raw_env, problem, rng, respect_mask)
        return (
            super().check_rollout(record, problem, respect_mask, rng_state)
            and (record.actions, record.reward, record.output) == (raw.actions, raw.reward, raw.output)
            and self.codec.decode(record.steps[0].observation.question) == problem.question
        )


# ---------------------------------------------------------------------------
# search


class Search:
    """Masked exhaustive search on every module, then the abstraction pass:
    mine a second-derivative corpus, register the top template and search a
    third derivative without and with the mined operator."""

    def __init__(self, seed: int, workdir: Path):
        self.env = environment.Environment()
        self.first, self.count = [], []
        for module in problems.SUPPORTED_MODULES:
            gps = problems.generate(module, FIRST_SOLUTION_PROBLEMS + 1, seed)
            self.first += gps[:-1]
            self.count.append(gps[-1])
        self.full = operators.full_registry()
        self.full_cfg = environment.EnvConfig(univariate_differentiate_only=False)
        self.full_env = environment.Environment(self.full, self.full_cfg)
        self.corpus = problems.differentiate_wrt_problems(
            CORPUS_SIZE, seed, self.full, order=2, multivariate=True
        )
        self.target = problems.differentiate_wrt_problems(
            1, seed + 1, self.full, order=3, multivariate=True
        )[0].problem

    def solve(self, meter, env, problem, max_nodes, count_all=False):
        """Search, then run the solution found through the environment."""
        result = meter.call(
            search.exhaustive_solve, env, problem, max_nodes=max_nodes, count_all=count_all
        )
        reward, steps = 0, 0
        if result.actions is not None:
            reward, _ = meter.call(env.replay, problem, result.actions)
            steps = len(env.state.history)
        return result, reward, steps

    def expected_count(self, problem) -> int:
        signatures = [(tuple(t for _, t in s.params), s.return_type) for s in self.env.registry]
        return checks.count_typed_trees(signatures, [v.kind for v in problem.inputs], COUNT_DEPTH)

    def mine(self, meter):
        rewards, graphs, steps = [], [], 0
        for gp in self.corpus:
            reward, _ = meter.call(self.full_env.replay, gp.problem, gp.truth_graph)
            rewards.append(reward)
            steps += len(self.full_env.state.history)
            graphs.append(meter.call(self.full_env.state.graph.copy))
        mined = meter.call(mining.mine, graphs, min_support=10, min_size=2)
        registry, spec = meter.call(mining.register, mined[0], self.full)
        return rewards, registry, spec, steps

    def mined_ok(self, out) -> bool:
        rewards, _, spec, _ = out
        dw = self.full.get("differentiate_wrt")
        mined, chain = [], []
        for gp in self.corpus:
            expr, var = gp.problem.inputs
            mined.append(values.render(spec.eval(expr, var)))
            chain.append(values.render(dw.eval(dw.eval(expr, var), var)))
        answers = [gp.problem.answer for gp in self.corpus]
        return all(r == 1 for r in rewards) and checks.mined_operator_ok(mined, chain, answers)

    def round(self, meter: Meter) -> RoundResult:
        res = RoundResult()

        def searched(out):
            if out is not None:
                res.problems += 1
                res.env_steps += out[2]
                res.rewards.append(out[1])

        for gp in self.first:
            searched(
                meter.op(
                    lambda: self.solve(meter, self.env, gp.problem, SEARCH_DEPTH),
                    lambda out: checks.first_solution_ok(out[0].actions, out[1], len(gp.truth_graph)),
                )
            )
        for gp in self.count:
            # a count_all solution is the first in depth-first order, not a
            # minimal one, so only its reward is checked
            searched(
                meter.op(
                    lambda: self.solve(meter, self.env, gp.problem, COUNT_DEPTH, count_all=True),
                    lambda out: out[0].n_complete == self.expected_count(gp.problem)
                    and (out[0].actions is None or out[1] == 1),
                )
            )

        mined = meter.op(lambda: self.mine(meter), self.mined_ok)
        if mined is not None:
            res.env_steps += mined[3]
        before = meter.op(
            lambda: self.solve(meter, self.full_env, self.target, ABSTRACTION_DEPTH),
            lambda out: out[0].actions is None,
        )
        searched(before)
        if mined is not None:
            env = environment.Environment(mined[1], self.full_cfg)
            searched(
                meter.op(
                    lambda: self.solve(meter, env, self.target, ABSTRACTION_DEPTH),
                    # a failed "before" search leaves nothing to compare against
                    lambda out: checks.compression_ok(
                        before[0].actions if before is not None else (),
                        out[0].actions,
                        out[1],
                        ABSTRACTION_DEPTH,
                    ),
                )
            )
        return res


# ---------------------------------------------------------------------------
# train


class Train:
    """Double-DQN training on one module, then greedy answers to held-out
    problems with the trained function."""

    def __init__(self, seed: int, workdir: Path):
        # the text key = value mapping a config file holds
        self.config = qlearning.TrainConfig.from_mapping({**TRAIN_CONFIG, "seed": str(seed)})
        self.held_out = [
            gp.problem
            for gp in problems.generate(TRAIN_MODULE, HELD_OUT_PROBLEMS, seed + HELD_OUT_SEED_OFFSET)
        ]

    def round(self, meter: Meter) -> RoundResult:
        res = RoundResult()
        cfg = self.config
        # train() calls its metrics sink at every evaluation, the only moments
        # inside it when the host's speed can be sampled.  A traced run does
        # not sample there: the samples would sit inside the train() span, and
        # per-layer times are not scaled anyway.
        sample_host = None if meter.tracer is not None else (lambda record: meter.host.sample(3))
        start = meter.busy
        result = meter.op(
            lambda: meter.call(qlearning.train, cfg, metrics_sink=sample_host),
            lambda r: checks.training_ok(
                r.env_steps, cfg.total_steps, [m["loss"] for m in r.metrics], best_reward(r),
                LEARNING_THRESHOLD,
            ),
        )
        res.steps_time = meter.busy - start
        if result is None:
            return res
        res.env_steps = result.env_steps
        res.eval_reward = best_reward(result)

        q = result.q
        env = environment.Environment(
            result.registry, environment.EnvConfig(n_inputs=cfg.n_inputs, max_nodes=cfg.max_nodes)
        )

        def greedy(obs, mask):
            return q.greedy_action(q.features(obs), mask)

        start = meter.busy
        for problem in self.held_out:
            record = meter.op(
                lambda: meter.call(search.run_episode, env, problem, greedy),
                lambda rec: checks.episode_ok(
                    rec.actions,
                    masks_before(rec, env.n_ops, env.n_actions),
                    rec.reward,
                    rec.output,
                    problem.answer,
                ),
            )
            if record is not None:
                res.problems += 1
                res.rewards.append(record.reward)
        res.problems_time = meter.busy - start
        return res


def best_reward(result) -> float:
    return max(m["eval"][TRAIN_MODULE] for m in result.metrics)


WORKLOADS = {"episodes": Episodes, "encoded": Encoded, "search": Search, "train": Train}
