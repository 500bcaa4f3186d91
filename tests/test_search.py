import hashlib
import random

import pytest

from mathsynth.environment import EnvConfig, Environment, ProblemRejected, action_mask
from mathsynth.graph import ComputeGraph
from mathsynth.operators import OperatorSpec, full_registry
from mathsynth.parsing import Problem, extract_inputs
from mathsynth.problems import SUPPORTED_MODULES, differentiate_wrt_problems, generate
from mathsynth.search import exhaustive_solve, random_rollout, run_episode
from mathsynth.values import render


def derivative_problem() -> Problem:
    q = "What is the first derivative of 6*k**2 - 101*k + 2548?"
    return Problem(q, "12*k - 101", tuple(extract_inputs(q)), "calculus__differentiate")


def test_exhaustive_solve_rejects_a_problem_its_environment_rejects():
    env = Environment(config=EnvConfig(n_inputs=1))
    problem = generate("numbers__gcd", 1, 0)[0].problem  # two inputs
    with pytest.raises(ProblemRejected):
        exhaustive_solve(env, problem, max_nodes=3)


def test_exhaustive_solve_searches_no_deeper_than_its_environment():
    problem = generate("algebra__linear_1d", 1, 0)[0].problem
    # the 5-node solution that a depth-7 search finds is cut short, and
    # scored 0, by an environment that allows 3 nodes
    solution = exhaustive_solve(Environment(), problem, max_nodes=7).actions
    assert solution == (0, 1, 16, 3, 15)
    small = Environment(config=EnvConfig(max_nodes=3))
    assert small.replay(problem, solution) == (0, {
        "mask": None,
        "output": "None",
        "graph": "lookup_value(solve_system(?),Variable('t'))",
    })
    with pytest.raises(ValueError, match="node limit 3"):
        exhaustive_solve(small, problem, max_nodes=7)
    assert exhaustive_solve(small, problem).actions is None


def test_exhaustive_solve_depth_defaults_to_the_node_limit():
    env = Environment(config=EnvConfig(max_nodes=5))
    problem = generate("numbers__gcd", 1, 7)[0].problem

    def counts(**kwargs):
        res = exhaustive_solve(env, problem, count_all=True, **kwargs)
        return res.n_complete, res.n_expanded, res.n_pruned

    assert counts() == counts(max_nodes=5) != counts(max_nodes=4)
    assert exhaustive_solve(env, problem).actions == exhaustive_solve(env, problem, max_nodes=5).actions


def test_graph_text_is_built_once_per_episode(monkeypatch):
    calls = []
    partial_text = ComputeGraph.partial_text
    monkeypatch.setattr(
        ComputeGraph, "partial_text", lambda self: calls.append(len(self)) or partial_text(self)
    )
    env = Environment()
    rng = random.Random(4)
    for module in SUPPORTED_MODULES:
        for gp in generate(module, 2, 9):
            truth = iter(gp.truth_graph)
            record = run_episode(env, gp.problem, lambda obs, mask: next(truth))
            assert record.reward == 1 and record.graph_text
            random_rollout(env, gp.problem, rng)
            random_rollout(env, gp.problem, rng, respect_mask=False)
    assert len(calls) == 3 * 2 * len(SUPPORTED_MODULES)


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


def masked_graphs(env, problem, max_nodes):
    """Every complete masked graph of at most max_nodes nodes, in
    lexicographic action order; the one graph is yielded after each
    placement that completes it."""
    n_ops, n_inputs = env.registry.n_ops, env.config.n_inputs
    graph = ComputeGraph()

    def dfs():
        if graph.is_complete:
            yield graph
            return
        if len(graph) >= max_nodes:
            return
        mask = action_mask(env.registry, problem.inputs, n_inputs, graph)
        for action in map(int, mask.nonzero()[0]):
            graph.add_node(env.registry[action] if action < n_ops else problem.inputs[action - n_ops])
            yield from dfs()
            graph.pop_node()

    return dfs()


@pytest.mark.parametrize("module", SUPPORTED_MODULES + ("third_derivative",))
def test_memoised_evaluation_matches_plain_evaluation(module):
    if module in SUPPORTED_MODULES:
        env, problem = Environment(), generate(module, 1, 11)[0].problem
    else:  # the 23 operators of the full registry
        registry = full_registry()
        env = Environment(registry, EnvConfig(univariate_differentiate_only=False))
        problem = differentiate_wrt_problems(1, 42, registry, order=3, multivariate=True)[0].problem
    # one memo for every graph of the problem, as exhaustive_solve shares it
    memo = {}
    n = 0
    for graph in masked_graphs(env, problem, 5):
        plain, memoised = graph.evaluate(), graph.evaluate(memo)
        assert (memoised.kind, render(memoised)) == (plain.kind, render(plain))
        n += 1
    assert n == exhaustive_solve(env, problem, max_nodes=5, count_all=True).n_complete > 0
    assert 0 < len(memo) < n


def test_search_reports_its_distinct_evaluations(monkeypatch):
    # unsolvable within the bound, so count_all evaluates every complete graph
    env = Environment()
    problem = generate("algebra__linear_2d", 1, 5)[0].problem
    calls = []
    eval_ = OperatorSpec.eval

    def counted_eval(self, *args):
        calls.append(self.name)
        return eval_(self, *args)

    monkeypatch.setattr(OperatorSpec, "eval", counted_eval)
    res = exhaustive_solve(env, problem, max_nodes=5, count_all=True)
    assert res.actions is None and res.n_complete > 0
    assert res.n_evaluated == len(calls)  # each distinct evaluation runs once
    calls.clear()
    for graph in masked_graphs(env, problem, 5):
        graph.evaluate()
    assert 0 < res.n_evaluated < len(calls)


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
            if res.actions is not None:
                assert env.replay(problem, res.actions)[0] == 1
    assert digest.hexdigest() == SEARCH_DIGEST


def test_search_evaluation_counts_are_pinned():
    # distinct operator evaluations of the pinned searches above; the memo
    # finds a value by its hash, so these guard the hash of TypedValue
    env = Environment()
    counts = []
    for module in SUPPORTED_MODULES:
        problem = generate(module, 1, 23)[0].problem
        for count_all in (False, True):
            res = exhaustive_solve(env, problem, max_nodes=6, count_all=count_all)
            counts.append(res.n_evaluated)
    assert counts == [19, 34, 3, 19, 1, 1, 9, 11, 5, 6, 12, 9, 16, 14, 32, 27, 10, 3, 10, 3, 27, 27]
