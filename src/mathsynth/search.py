"""Search baselines: masked uniform-random rollouts and bounded exhaustive
enumeration of masked action sequences.

Exhaustive search runs iterative deepening (depth 1..max_nodes) with
lexicographic action order inside each depth, so the first solution found
is also a minimal-length one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .environment import Environment, action_mask, earns_reward
from .graph import ComputeGraph
from .parsing import Problem


@dataclass
class Step:
    """One environment step.  Training stores it in the replay buffer with
    both observations replaced by their hashed feature indices."""

    observation: object
    action: int
    reward: int
    next_observation: object
    done: bool
    next_mask: object  # validity vector at the next state, None if terminal


@dataclass
class EpisodeRecord:
    """One finished episode plus its structured log form."""

    problem: Problem
    reward: int
    steps: list = field(default_factory=list)
    graph_text: str = ""
    output: str = "None"
    actions: list | None = None  # the steps' actions unless given

    def __post_init__(self):
        if self.actions is None:
            self.actions = [s.action for s in self.steps]

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "question": self.problem.question,
                "module": self.problem.module,
                "actions": list(self.actions),
                "graph": self.graph_text,
                "output": self.output,
                "reward": self.reward,
            }
        )


def play(env: Environment, problem: Problem, policy):
    """Drive one episode with policy(observation, mask) -> action, yielding
    (Step, info) after each environment step."""
    obs = env.reset(problem)
    mask = env.compute_mask()
    done = False
    while not done:
        action = int(policy(obs, mask))
        next_obs, reward, done, info = env.step(action)
        yield Step(obs, action, reward, next_obs, done, info["mask"]), info
        obs, mask = next_obs, info["mask"]


def run_episode(env: Environment, problem: Problem, policy) -> EpisodeRecord:
    """Play one episode to its end with policy(observation, mask) -> action."""
    steps = []
    for step, info in play(env, problem, policy):
        steps.append(step)
    # the last step's text: the serialized graph once complete, with '?'
    # for the open slots of a graph cut short
    return EpisodeRecord(
        problem=problem,
        reward=step.reward,
        steps=steps,
        graph_text=info["graph"],
        output=info["output"],
    )


def random_action(mask, n_actions: int, rng) -> int:
    """Uniform over the unmasked actions, or over all actions when the mask
    is None or masks everything (a slot nothing can fill)."""
    valid = [] if mask is None else [i for i in range(n_actions) if mask[i]]
    return rng.choice(valid or list(range(n_actions)))


def random_rollout(env: Environment, problem: Problem, rng, respect_mask: bool = True) -> EpisodeRecord:
    """Uniform-random episode; with respect_mask, actions are drawn from the
    unmasked set (falling back to all actions if a slot is unfillable)."""

    def policy(obs, mask):
        return random_action(mask if respect_mask else None, env.n_actions, rng)

    return run_episode(env, problem, policy)


@dataclass
class SearchResult:
    actions: tuple | None = None  # first (minimal-length) rewarded sequence
    n_complete: int = 0  # complete masked graphs enumerated
    n_expanded: int = 0  # nodes placed during the search
    n_pruned: int = 0  # masked placements skipped because they could not complete
    n_evaluated: int = 0  # distinct operator evaluations: the memo's final size


def exhaustive_solve(
    env: Environment, problem: Problem, max_nodes: int | None = None, count_all: bool = False
) -> SearchResult:
    """Depth-bounded enumeration of masked action sequences.

    max_nodes defaults to the environment's node limit; a larger value
    raises ValueError, as the environment would cut a longer graph short.

    The result's actions are the first rewarded sequence in
    iterative-deepening lexicographic order, or None.  With count_all, the
    search keeps enumerating after a solution so n_complete covers the
    whole masked space up to max_nodes.

    Every open slot needs one more node, so a placement after which nodes
    plus open slots exceed the depth limit cannot complete: it is skipped
    and counted in n_pruned, not in n_expanded.  n_expanded counts only
    placements that can still complete.  The search adds and pops nodes on
    one graph and updates one SearchResult as it goes; the allowed actions
    are taken from action_mask once per slot type, so only their input
    half is computed for the problem (the operator half is the registry's
    cached row).  Under iterative deepening a complete graph smaller than
    the current limit was already judged at its own limit, so it is
    counted again but not re-evaluated.

    Complete graphs are evaluated through one memo for the whole call, so
    an operator runs once per distinct tuple of argument values however
    many graphs share it; n_evaluated is the number of such runs.

    Raises ProblemRejected if the environment cannot load the problem.
    """
    env.check(problem)
    max_nodes = env.config.max_nodes if max_nodes is None else max_nodes
    if max_nodes > env.config.max_nodes:
        raise ValueError(f"max_nodes {max_nodes} exceeds the node limit {env.config.max_nodes}")
    registry = env.registry
    n_inputs = env.config.n_inputs
    n_ops = registry.n_ops
    inputs = problem.inputs
    # per action: the node it places and the open slots it adds; masked
    # enumeration never picks a None action
    placements = [(spec, spec.arity) for spec in registry] + [(v, 0) for v in inputs]
    allowed = {}  # next slot type (None at the root) -> masked-in actions
    graph = ComputeGraph()
    actions = []
    result = SearchResult()
    memo = {}  # (operator name, *argument values) -> output, for this call

    def dfs(limit: int) -> bool:
        if graph.is_complete:
            result.n_complete += 1
            if (
                result.actions is None
                and (count_all or len(graph) == limit)
                and earns_reward(graph.evaluate(memo), problem)
            ):
                result.actions = tuple(actions)
            return result.actions is not None and not count_all
        slot_type = graph.next_slot_type()
        if slot_type not in allowed:
            mask = action_mask(registry, inputs, n_inputs, graph)
            allowed[slot_type] = [a for a in range(n_ops + n_inputs) if mask[a]]
        # nodes plus open slots after a placement, before its own slots
        committed = 1 + len(graph.slots)
        for action in allowed[slot_type]:
            node, arity = placements[action]
            if committed + arity > limit:
                result.n_pruned += 1
                continue
            result.n_expanded += 1
            graph.add_node(node)
            actions.append(action)
            stop = dfs(limit)
            actions.pop()
            graph.pop_node()
            if stop:
                return True
        return False

    if count_all:
        dfs(max_nodes)
    else:
        for limit in range(1, max_nodes + 1):
            if dfs(limit):
                break
    result.n_evaluated = len(memo)
    return result
