"""The benchmark's own tests: each check, given a planted fault, counts the
operation as failed; today's code passes them all.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from mathsynth import environment, problems, qlearning, search  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "PROBLEMS_PER_MODULE", 2)
    monkeypatch.setattr(workloads, "FIRST_SOLUTION_PROBLEMS", 1)
    monkeypatch.setattr(workloads, "COUNT_DEPTH", 4)
    monkeypatch.setattr(workloads, "ABSTRACTION_DEPTH", 5)
    monkeypatch.setattr(workloads, "HELD_OUT_PROBLEMS", 20)
    monkeypatch.setattr(
        workloads,
        "TRAIN_CONFIG",
        {**workloads.TRAIN_CONFIG, "init_steps": "300", "total_steps": "340", "eval_interval": "20",
         "train_problems_per_module": "20", "eval_problems_per_module": "10"},
    )


def one_round(workload):
    meter = workloads.Meter()
    workload.round(meter)
    return meter


def answered_wrong(gp):
    return dataclasses.replace(gp, problem=dataclasses.replace(gp.problem, answer=gp.problem.answer + "0"))


# -- rounds on today's code, and with a planted fault ------------------------


@pytest.mark.parametrize("name", ["episodes", "encoded", "search"])
def test_round_passes_on_todays_code(small, tmp_path, name):
    meter = one_round(workloads.WORKLOADS[name](0, tmp_path))
    assert meter.attempted > 0 and meter.failed == 0


@pytest.mark.parametrize("name", ["episodes", "encoded"])
def test_wrong_answer_string_fails_the_truth_replay(small, tmp_path, name):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    workload.generated[3] = answered_wrong(workload.generated[3])
    meter = one_round(workload)
    assert meter.failed == meter.wrong == 1


def test_rewarded_rollout_with_another_output_fails(small, tmp_path, monkeypatch):
    workload = workloads.Episodes(0, tmp_path)
    rollout = search.random_rollout

    def faulty(env, problem, rng, respect_mask=True):
        return dataclasses.replace(rollout(env, problem, rng, respect_mask), reward=1, output="not an answer")

    monkeypatch.setattr(search, "random_rollout", faulty)
    meter = one_round(workload)
    assert meter.wrong == 2 * len(workload.loaded)


def test_encoded_episode_that_differs_from_raw_fails(small, tmp_path, monkeypatch):
    workload = workloads.Encoded(0, tmp_path)
    rollout = search.random_rollout

    def faulty(env, problem, rng, respect_mask=True):
        record = rollout(env, problem, rng, respect_mask)
        if env is workload.env:  # the encoded run takes one more action
            record = dataclasses.replace(record, actions=record.actions + [0])
        return record

    monkeypatch.setattr(search, "random_rollout", faulty)
    meter = one_round(workload)
    assert meter.wrong == 2 * len(workload.loaded)


def test_count_off_by_one_fails(small, tmp_path, monkeypatch):
    solve = search.exhaustive_solve

    def faulty(*args, count_all=False, **kwargs):
        result = solve(*args, count_all=count_all, **kwargs)
        if count_all:
            result = dataclasses.replace(result, n_complete=result.n_complete + 1)
        return result

    monkeypatch.setattr(search, "exhaustive_solve", faulty)
    meter = one_round(workloads.Search(0, tmp_path))
    assert meter.wrong == len(problems.SUPPORTED_MODULES)


def test_solution_longer_than_the_truth_graph_fails(small, tmp_path):
    workload = workloads.Search(0, tmp_path)
    gp = workload.first[0]
    workload.first[0] = dataclasses.replace(gp, truth_graph=gp.truth_graph[:1])
    assert one_round(workload).wrong == 1


def test_mined_operator_that_differs_from_its_chain_fails(small, tmp_path):
    workload = workloads.Search(0, tmp_path)
    workload.corpus[5] = answered_wrong(workload.corpus[5])
    assert one_round(workload).wrong == 1


def test_solution_before_registration_fails(small, tmp_path):
    workload = workloads.Search(0, tmp_path)
    # a second derivative: the plain five-node chain solves it unaided
    workload.target = workload.corpus[0].problem
    assert one_round(workload).wrong == 2  # both searches are judged by "before" failing


def test_training_that_does_not_learn_fails(small, tmp_path):
    meter = one_round(workloads.Train(0, tmp_path))
    assert meter.wrong == 1  # 40 updates cannot reach the learning threshold


def test_training_with_a_wrong_step_count_fails(small, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LEARNING_THRESHOLD", 0.0)
    train = qlearning.train

    def faulty(config, *args, **kwargs):
        return dataclasses.replace(train(config, *args, **kwargs), env_steps=config.total_steps - 1)

    assert one_round(workloads.Train(0, tmp_path)).wrong == 0
    monkeypatch.setattr(qlearning, "train", faulty)
    assert one_round(workloads.Train(0, tmp_path)).wrong == 1


def test_operation_that_raises_is_failed():
    meter = workloads.Meter()
    meter.op(lambda: 1 / 0, lambda out: True)
    meter.op(lambda: 1, lambda out: out == 1)
    assert (meter.attempted, meter.failed, meter.wrong) == (2, 1, 0)


def test_check_that_raises_on_an_output_counts_it_wrong():
    meter = workloads.Meter()
    meter.op(lambda: None, lambda out: out.reward == 1)  # a malformed result
    assert (meter.attempted, meter.failed, meter.wrong) == (1, 1, 1)


def test_run_is_incorrect_when_an_operation_raises(monkeypatch):
    """A worker whose run had one operation fail, with every output right."""
    setup = {"setup_s": 0.5, "setup_raw_s": 0.5}
    rates = dict.fromkeys(END_TO_END[1:], 1.0)
    finished = {**setup, "attempted": 10, "failed": 1, "rounds": 1, "host_factor": 1.0,
                "end_to_end": rates, "raw": rates}

    def worker(args, deadline):
        return setup if "--setup-only" in args else finished

    monkeypatch.setattr(run, "run_child", worker)
    result = run.measure(SPEC, "train", 0, 1.0, False)
    assert (result["correct"], result["failed"]) == (False, 1)
    assert list(result["metrics"]) == END_TO_END


# -- the checks themselves ------------------------------------------------------


def test_typed_tree_count_matches_exhaustive_enumeration():
    env = environment.Environment()
    signatures = [(tuple(t for _, t in s.params), s.return_type) for s in env.registry]
    for module in problems.SUPPORTED_MODULES:
        problem = problems.generate(module, 1, 11)[0].problem
        result = search.exhaustive_solve(env, problem, max_nodes=4, count_all=True)
        kinds = [v.kind for v in problem.inputs]
        assert checks.count_typed_trees(signatures, kinds, 4) == result.n_complete
        assert checks.count_typed_trees(signatures, kinds + ["Value"], 4) != result.n_complete


def test_episode_properties():
    root = [True, True, False]
    later = [False, True, True]
    assert checks.episode_ok([0, 2], [root, later], 1, "7", "7")
    assert not checks.episode_ok([0, 2], [root, later], 1, "8", "7")  # rewarded, other output
    assert not checks.episode_ok([2], [root], 0, "7", "7")  # masked action, output not None
    assert not checks.episode_ok([0, 0], [root, later], 1, "None", "7")  # masked, rewarded
    assert checks.episode_ok([0, 0], [root, later], 0, "None", "7")


def test_training_checks():
    assert checks.training_ok(100, 100, [0.5, 0.1], 0.97, 0.95)
    assert not checks.training_ok(100, 100, [0.5, math.nan], 0.97, 0.95)
    assert not checks.training_ok(99, 100, [0.5], 0.97, 0.95)
    assert not checks.training_ok(100, 100, [0.5], 0.94, 0.95)


# -- tracing ------------------------------------------------------------------


def test_self_time_excludes_nested_spans_and_recursion_is_one_call():
    tracer = Tracer()

    def inner(n):
        return n if n == 0 else inner_wrapped(n - 1)

    inner_wrapped = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: inner_wrapped(3))
    assert outer() == 0
    spans = tracer.per_name()
    assert spans["outer"][0] == spans["inner"][0] == 1
    assert spans["outer"][3] < spans["outer"][2]  # inner's time is not outer's own
    with tracer.paused():
        outer()
    assert tracer.per_name()["outer"][0] == 1
