import hashlib
import random

import numpy as np
import pytest

from mathsynth.environment import (
    ConfigError,
    EnvConfig,
    Environment,
    ProblemRejected,
    action_mask,
    earns_reward,
)
from mathsynth.graph import ComputeGraph
from mathsynth.mining import mine, register
from mathsynth.operators import default_registry, full_registry
from mathsynth.parsing import Observation, Problem, extract_inputs, train_bpe
from mathsynth.problems import SUPPORTED_MODULES, differentiate_wrt_problems, generate
from mathsynth.search import random_action
from mathsynth.values import (
    ABSENT,
    TYPE_TAGS,
    VARIABLE,
    expression,
    is_subtype,
    parse_expression,
    value,
    variable,
)


def derivative_problem() -> Problem:
    q = "What is the first derivative of 6*k**2 - 101*k + 2548?"
    return Problem(q, "12*k - 101", tuple(extract_inputs(q)), "calculus__differentiate")


def test_action_space_size():
    env = Environment()
    assert env.n_actions == 18  # 15 operators + 3 input slots


def test_reference_trajectory():
    env = Environment()
    obs = env.reset(derivative_problem())
    assert obs.history == ()
    _, r1, done1, _ = env.step(5)  # differentiate
    assert (r1, done1) == (0, False)
    obs, r2, done2, info = env.step(15)  # first input
    assert (r2, done2) == (1, True)
    assert obs.history == (5, 15)
    assert info["output"] == "12*k - 101"


def test_noisy_reward_verbatim_case():
    q = "Is 5340 a multiple of 10?"
    p = Problem(q, "True", tuple(extract_inputs(q)), "numbers__is_factor")
    env = Environment()
    env.reset(p)
    env.step(env.registry.index_of("not_op"))
    env.step(env.registry.index_of("is_prime"))
    _, reward, done, info = env.step(16)  # second input: Value 10
    assert (reward, done) == (1, True)
    assert info["output"] == "True"


def test_root_mask_is_operators_only():
    env = Environment()
    env.reset(derivative_problem())
    mask = env.compute_mask()
    assert mask[: env.n_ops].all()
    assert not mask[env.n_ops :].any()


def test_mask_by_slot_type():
    env = Environment()
    q = "Let f(k) = k**2 - 2. Calculate f(3)."
    p = Problem(q, "7", tuple(extract_inputs(q)), "polynomials__evaluate")
    env.reset(p)
    env.step(env.registry.index_of("evaluate_function"))
    mask = env.compute_mask()  # next slot requires a Function
    assert mask[env.n_ops + 0]  # the function definition input
    assert not mask[env.n_ops + 1]  # the call expression is not a Function
    assert not mask[env.registry.index_of("gcd")]
    env.step(env.n_ops + 0)
    mask = env.compute_mask()  # next slot requires an Expression
    assert mask[env.n_ops + 1]
    assert mask[env.registry.index_of("factor")]
    assert not mask[env.registry.index_of("is_prime")]  # Boolean return


def mined_registry():
    # the full registry plus the operator mined from second derivatives
    registry = full_registry()
    env = Environment(registry, EnvConfig(univariate_differentiate_only=False))
    graphs = []
    for gp in differentiate_wrt_problems(12, 3, registry, order=2, multivariate=True):
        env.replay(gp.problem, gp.truth_graph)
        graphs.append(env.state.graph.copy())
    return register(mine(graphs, min_support=10, min_size=2)[0], registry)[0]


@pytest.mark.parametrize("make_registry", [default_registry, full_registry, mined_registry])
def test_mask_rows_match_a_per_operator_subtype_reference(make_registry):
    registry = make_registry()
    inputs = (value(3), variable("k"), expression(parse_expression("k**2 - 2")))
    n_inputs, n_ops = 4, registry.n_ops  # the fourth input position is a None action
    graph = ComputeGraph()
    mask = action_mask(registry, inputs, n_inputs, graph)
    assert mask.tolist() == [True] * n_ops + [False] * n_inputs
    slot_types = set()
    for spec in registry:
        for k, (_, slot_type) in enumerate(spec.params):
            # the root's slots are filled first, so k leaves reach its k-th slot
            graph = ComputeGraph().add_node(spec)
            for _ in range(k):
                graph.add_node(value(0))
            assert graph.next_slot_type() == slot_type
            mask = action_mask(registry, inputs, n_inputs, graph)
            want = [is_subtype(s.return_type, slot_type) for s in registry]
            want += [is_subtype(v.kind, slot_type) for v in inputs] + [False]
            assert mask.tolist() == want
            mask[:] = True  # the caller's own array: the next masks stay exact
            slot_types.add(slot_type)
        graph = ComputeGraph().add_node(spec)
        for _ in spec.params:
            graph.add_node(value(0))
        assert graph.is_complete
        assert not action_mask(registry, inputs, n_inputs, graph).any()
    assert len(slot_types) > 3
    for tag in TYPE_TAGS:
        row = registry.operator_row(tag)
        with pytest.raises(ValueError):
            row[0] = not row[0]


def test_none_input_actions_are_masked():
    env = Environment()
    env.reset(derivative_problem())  # one input, n_inputs = 3
    env.step(5)
    mask = env.compute_mask()
    assert mask[15]
    assert not mask[16] and not mask[17]


def test_variable_slot_masks_expressions():
    env = Environment(Environment().registry)
    gp = generate("algebra__linear_1d", 1, 0)[0]
    env.reset(gp.problem)
    env.step(env.registry.index_of("lookup_value"))
    env.step(env.registry.index_of("solve_system"))
    mask = env.compute_mask()  # key slot requires a Variable
    kinds = [v.kind for v in gp.problem.inputs]
    for i, kind in enumerate(kinds):
        assert mask[env.n_ops + i] == (kind == VARIABLE)


def test_masked_actions_are_permitted_but_yield_none():
    env = Environment()
    env.reset(derivative_problem())
    env.step(env.registry.index_of("is_prime"))  # Value slot opens
    # input 0 is an Expression: masked for a Value slot, still allowed
    assert not env.compute_mask()[15]
    _, reward, done, info = env.step(15)
    assert (reward, done) == (0, True)
    assert info["output"] == "None"


def test_input_at_root_ends_with_none():
    env = Environment()
    env.reset(derivative_problem())
    _, reward, done, info = env.step(15)
    assert (reward, done, info["output"]) == (0, True, "None")


def test_node_limit_terminates_with_zero():
    env = Environment()
    env.reset(derivative_problem())
    rewards = []
    for _ in range(7):
        _, r, done, info = env.step(5)  # differentiate forever
        rewards.append(r)
    assert done and rewards == [0] * 7
    assert info["output"] == "None"


def test_step_after_done_is_a_usage_error():
    env = Environment()
    env.reset(derivative_problem())
    env.step(5)
    env.step(15)
    with pytest.raises(RuntimeError):
        env.step(0)


def test_too_many_inputs_rejected():
    q = (
        "Let h(t) = t**3 + t**2 + 1. Let v(d) = 6*d**3 + 24*d**2 + 4. "
        "Let w(j) = 4*h(j) - v(j). What is the third derivative of w(x) wrt x?"
    )
    p = Problem(q, "", tuple(extract_inputs(q)), "calculus__differentiate")
    with pytest.raises(ProblemRejected):
        Environment().reset(p)


def test_multivariate_filter_flag():
    q = "What is the first derivative of 2*x*y + y wrt y?"
    p = Problem(q, "2*x + 1", tuple(extract_inputs(q)), "calculus__differentiate")
    with pytest.raises(ProblemRejected):
        Environment().reset(p)
    env = Environment(config=EnvConfig(univariate_differentiate_only=False))
    env.reset(p)  # no error


def test_reset_gives_independent_episodes():
    env = Environment()
    env.reset(derivative_problem())
    env.step(5)
    obs = env.reset(derivative_problem())
    assert obs.history == ()
    assert len(env.state.graph) == 0


def test_step_info_holds_only_step_facts():
    # the question stays with the episode state; the graph text and the
    # output come once, with the final step
    env = Environment()
    p = derivative_problem()
    env.reset(p)
    _, _, done, info = env.step(5)
    assert not done and list(info) == ["mask"]
    assert isinstance(info["mask"], np.ndarray) and info["mask"].shape == (env.n_actions,)
    assert env.state.problem is p and env.state.graph.partial_text() == "differentiate(?)"
    _, _, done, info = env.step(15)
    assert done and info == {
        "mask": None,
        "output": "12*k - 101",
        "graph": "differentiate(Expression('6*k**2 - 101*k + 2548'))",
    }


def test_encoded_observations():
    p = derivative_problem()
    codec = train_bpe([p.question], vocab_size=40, max_len=80)
    env = Environment(config=EnvConfig(encoded_observations=True), codec=codec)
    obs = env.reset(p)
    assert obs.encoded and len(obs.question) == 80
    obs, _, _, info = env.step(5)
    assert obs.history == (5,) and list(info) == ["mask"]
    assert env.state.problem.question == p.question  # raw text available regardless


def test_earns_reward_compares_the_rendered_output_with_the_answer():
    p = derivative_problem()
    padded = Problem(p.question, " 12*k - 101\n", p.inputs, p.module)
    assert earns_reward(expression(parse_expression("12*k - 101")), padded)
    assert not earns_reward(expression(parse_expression("12*k + 101")), p)
    assert not earns_reward(ABSENT, p)


def test_question_is_encoded_once_per_episode(monkeypatch):
    p = derivative_problem()
    codec = train_bpe([p.question], vocab_size=40, max_len=80)
    env = Environment(config=EnvConfig(encoded_observations=True), codec=codec)
    calls = []
    encode = codec.encode
    monkeypatch.setattr(codec, "encode", lambda text: calls.append(text) or encode(text))
    for _ in range(2):
        first = env.reset(p)
        obs, _, done, _ = env.step(5)
        obs, _, done, _ = env.step(15)
        assert done and obs.question == first.question == tuple(encode(p.question))
    assert calls == [p.question, p.question]


def test_codec_longer_than_max_question_tokens_is_rejected():
    p = derivative_problem()
    codec = train_bpe([p.question], vocab_size=40, max_len=80)
    with pytest.raises(ValueError, match="max_question_tokens"):
        Environment(config=EnvConfig(encoded_observations=True, max_question_tokens=79), codec=codec)
    env = Environment(config=EnvConfig(encoded_observations=True, max_question_tokens=80), codec=codec)
    assert len(env.reset(p).question) == 80


def test_raw_observation_is_the_question_text():
    obs = Environment().reset(Problem("What is 1?", "1", (value(1),)))
    assert obs.question == "What is 1?" and obs.history == () and not obs.encoded


def test_observation_history_is_the_action_suffix():
    env = Environment()
    env.reset(Problem("q", "", ()))
    env.step(5)
    obs, _, done, _ = env.step(14)
    assert not done and obs.history == (5, 14)


def test_encoded_observation_is_the_padded_token_tuple():
    codec = train_bpe(["abc def"], vocab_size=8, max_len=10)
    env = Environment(config=EnvConfig(encoded_observations=True), codec=codec)
    env.reset(Problem("abc def", "", ()))
    obs, _, done, _ = env.step(1)
    assert obs.encoded and len(obs.question) == 10 and obs.history == (1,)
    assert obs == Observation(tuple(codec.encode("abc def")), (1,), True)
    assert not done


def test_codec_without_encoded_observations_is_rejected():
    codec = train_bpe(["abc def"], vocab_size=8, max_len=10)
    with pytest.raises(ValueError, match="codec"):
        Environment(codec=codec)
    with pytest.raises(ValueError, match="codec"):
        Environment(config=EnvConfig(encoded_observations=True))


def test_max_question_tokens_without_encoded_observations_is_rejected():
    with pytest.raises(ConfigError, match="max_question_tokens"):
        EnvConfig(max_question_tokens=5)
    assert EnvConfig(encoded_observations=True, max_question_tokens=5).max_question_tokens == 5


def test_determinism_of_episode():
    p = derivative_problem()
    seq = [5, 5, 15]

    def run():
        env = Environment()
        env.reset(p)
        out = []
        for a in seq:
            obs, r, done, info = env.step(a)
            out.append((obs, r, done, info.get("graph"), info.get("output")))
            if done:
                break
        return out

    assert run() == run()


EPISODE_DIGEST = "5415f482ce94da13ded22532d834cfa13bf059f8197d1e4d167b4b1f7c976c6c"


def pinned_episodes(env):
    """The 660 pinned episodes: for each of 20 problems per module (seed 29),
    a truth-graph replay and seeded masked and unmasked rollouts.  Yields the
    reset observation, the list of step results and the graph text after
    each step of each episode."""
    rng = random.Random(17)
    for module in SUPPORTED_MODULES:
        for gp in generate(module, 20, 29):
            truth = iter(gp.truth_graph)
            policies = [
                lambda mask: next(truth),
                lambda mask: random_action(mask, env.n_actions, rng),
                lambda mask: random_action(None, env.n_actions, rng),
            ]
            for policy in policies:
                first = env.reset(gp.problem)
                mask, done, steps, texts = env.compute_mask(), False, [], []
                while not done:
                    steps.append(env.step(policy(mask)))
                    texts.append(env.state.graph.partial_text())
                    _, _, done, info = steps[-1]
                    mask = info["mask"]
                yield first, steps, texts


def test_episode_texts_outputs_and_rewards_are_pinned():
    # the graph text after every step, the final output and the reward of
    # truth-graph replays and seeded masked and unmasked rollouts; the digest
    # guards refactors of the graph
    digest = hashlib.sha256()
    episodes = rewarded = 0
    for _, steps, texts in pinned_episodes(Environment()):
        for text in texts:
            digest.update(f"{text}\n".encode())
        assert all(list(step[3]) == ["mask"] for step in steps[:-1])
        _, reward, _, info = steps[-1]
        assert info["graph"] == texts[-1]
        digest.update(f"{info['output']}|{reward}\n".encode())
        episodes += 1
        rewarded += reward
    assert episodes == 660 and rewarded >= 220
    assert digest.hexdigest() == EPISODE_DIGEST


OBSERVATION_DIGESTS = {
    False: "8b73cd1dfcb0a115f62913d4f65d2ffcb09e100930e05f83814a01144064aa0b",
    True: "765e1ec54aa81b3b11f2a5509bc659a4edaa3bfab2010531d49d6b2d39d0c499",
}


@pytest.mark.parametrize("encoded", [False, True])
def test_observations_are_pinned(encoded):
    # question, history and encoded flag of the reset observation and of every
    # step observation of the pinned episodes, raw and through a codec trained
    # on their questions; the digest guards the observation representation
    codec = None
    if encoded:
        questions = [gp.problem.question for m in SUPPORTED_MODULES for gp in generate(m, 20, 29)]
        base = len({c for q in questions for c in q})
        codec = train_bpe(questions, vocab_size=base + 32, max_len=max(map(len, questions)))
    env = Environment(config=EnvConfig(encoded_observations=encoded), codec=codec)
    digest = hashlib.sha256()
    n_observations = 0
    for first, steps, _ in pinned_episodes(env):
        for obs in [first] + [step[0] for step in steps]:
            digest.update(repr((obs.question, obs.history, obs.encoded)).encode() + b"\n")
            n_observations += 1
    assert n_observations == 4020
    assert digest.hexdigest() == OBSERVATION_DIGESTS[encoded]
