import hashlib
import random

import pytest

from mathsynth.environment import Environment, action_mask
from mathsynth.graph import ComputeGraph
from mathsynth.parsing import Problem, extract_inputs
from mathsynth.problems import SUPPORTED_MODULES, generate
from mathsynth.search import exhaustive_solve, random_rollout
from mathsynth.values import render


def derivative_problem() -> Problem:
    q = "What is the first derivative of 6*k**2 - 101*k + 2548?"
    return Problem(q, "12*k - 101", tuple(extract_inputs(q)), "calculus__differentiate")


def test_rollout_is_seed_deterministic():
    env = Environment()
    p = generate("numbers__gcd", 1, 0)[0].problem
    a = random_rollout(env, p, random.Random(3))
    b = random_rollout(env, p, random.Random(3))
    assert a.actions == b.actions and a.reward == b.reward


def test_rollout_respects_the_mask():
    # masked actions are only taken when a slot admits nothing at all
    env = Environment()
    p = generate("numbers__gcd", 1, 1)[0].problem
    rng = random.Random(0)
    for _ in range(50):
        record = random_rollout(env, p, rng, respect_mask=True)
        env.reset(p)
        for step in record.steps:
            mask = env.compute_mask()
            assert mask[step.action] or not mask.any()
            env.step(step.action)


def test_masked_rollouts_find_gcd_within_budget():
    env = Environment()
    p = generate("numbers__gcd", 1, 2)[0].problem
    rng = random.Random(1)
    assert any(random_rollout(env, p, rng).reward == 1 for _ in range(3000))


def test_unmasked_random_search_is_hopeless_here():
    # the combinatorial-explosion motivation: without masking, thousands of
    # rollouts on a solve-style problem never hit reward
    env = Environment()
    p = generate("algebra__linear_2d", 1, 3)[0].problem
    rng = random.Random(2)
    hits = sum(random_rollout(env, p, rng, respect_mask=False).reward for _ in range(3000))
    assert hits == 0


def test_exhaustive_finds_the_reference_solution():
    env = Environment()
    res = exhaustive_solve(env, derivative_problem(), max_nodes=4)
    assert res.actions == (5, 15)


def test_exhaustive_is_prime():
    env = Environment()
    gp = generate("numbers__is_prime", 1, 4)[0]
    res = exhaustive_solve(env, gp.problem, max_nodes=3)
    assert res.actions == (9, 15)


def test_exhaustive_unsolvable_within_bound():
    env = Environment()
    gp = generate("algebra__linear_2d", 1, 5)[0]  # needs 7 nodes
    res = exhaustive_solve(env, gp.problem, max_nodes=3)
    assert res.actions is None


def reference_solve(env, problem, max_nodes, count_all=False):
    """Plain copy-based, unpruned enumeration with a fresh mask at every
    node: (first solution, complete graphs, placements)."""
    n_ops, n_inputs = env.registry.n_ops, env.config.n_inputs
    found = {"solution": None, "complete": 0, "expanded": 0}

    def dfs(graph, actions, limit):
        if graph.is_complete:
            found["complete"] += 1
            if found["solution"] is None and render(graph.evaluate()) == problem.answer.strip():
                found["solution"] = tuple(actions)
            return found["solution"] is not None and not count_all
        if len(graph.nodes) >= limit:
            return False
        mask = action_mask(env.registry, problem.inputs, n_inputs, graph)
        for action in range(n_ops + n_inputs):
            if not mask[action]:
                continue
            found["expanded"] += 1
            child = graph.copy()
            node = env.registry[action] if action < n_ops else problem.inputs[action - n_ops]
            child.add_node(node)
            if dfs(child, actions + [action], limit):
                return True
        return False

    limits = [max_nodes] if count_all else range(1, max_nodes + 1)
    for limit in limits:
        if dfs(ComputeGraph(), [], limit):
            break
    return found["solution"], found["complete"], found["expanded"]


@pytest.mark.parametrize("module", SUPPORTED_MODULES)
def test_pruned_search_matches_the_unpruned_reference(module):
    env = Environment()
    problem = generate(module, 1, 11)[0].problem
    for count_all in (False, True):
        solution, complete, expanded = reference_solve(env, problem, 5, count_all)
        res = exhaustive_solve(env, problem, max_nodes=5, count_all=count_all)
        assert res.actions == solution
        assert res.n_complete == complete
        assert res.n_expanded <= expanded


def test_search_reports_its_prunes():
    env = Environment()
    p = derivative_problem()
    res = exhaustive_solve(env, p, max_nodes=4, count_all=True)
    _, complete, expanded = reference_solve(env, p, 4, count_all=True)
    assert res.n_complete == complete
    assert 0 < res.n_expanded < expanded and res.n_pruned > 0
    # every operator opens a slot, so no root placement fits in one node
    res = exhaustive_solve(env, p, max_nodes=1, count_all=True)
    assert (res.n_complete, res.n_expanded, res.n_pruned) == (0, 0, env.n_ops)


def test_count_all_masked_space_is_small():
    env = Environment()
    gp = generate("numbers__gcd", 1, 7)[0]
    res = exhaustive_solve(env, gp.problem, max_nodes=4, count_all=True)
    assert 0 < res.n_complete < 18**4 / 100


def test_episode_record_log_line():
    import json

    env = Environment()
    p = derivative_problem()
    rng = random.Random(5)
    record = random_rollout(env, p, rng)
    data = json.loads(record.to_json_line())
    assert data["question"] == p.question
    assert data["actions"] == list(record.actions)
    assert data["reward"] in (0, 1)
    assert "graph" in data and "output" in data


SEARCH_DIGEST = "838677761d1c05ef3fca21d98e750028a34796a30b45a5a3fad302cfbba8b502"


def test_search_results_are_pinned():
    # first solution and every count at depth 6 in both modes; the digest
    # guards refactors of the graph and of the search
    env = Environment()
    digest = hashlib.sha256()
    for module in SUPPORTED_MODULES:
        problem = generate(module, 1, 23)[0].problem
        for count_all in (False, True):
            res = exhaustive_solve(env, problem, max_nodes=6, count_all=count_all)
            digest.update(repr((res.actions, res.n_complete, res.n_expanded, res.n_pruned)).encode())
    assert digest.hexdigest() == SEARCH_DIGEST
