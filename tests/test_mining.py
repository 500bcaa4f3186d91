import random

import pytest

from mathsynth.environment import EnvConfig, Environment
from mathsynth.mining import mine, mine_episode_log, register
from mathsynth.operators import OperatorSpec, full_registry
from mathsynth.problems import differentiate_wrt_problems
from mathsynth.search import exhaustive_solve
from mathsynth.values import expression, parse_expression, value, variable

REG = full_registry()
CFG = EnvConfig(univariate_differentiate_only=False)


def rewarded_graphs(count, seed, order=2):
    env = Environment(REG, CFG)
    graphs = []
    for gp in differentiate_wrt_problems(count, seed, REG, order=order, multivariate=True):
        reward, _ = env.replay(gp.problem, gp.truth_graph)
        assert reward == 1
        graphs.append(env.state.graph.copy())
    return graphs


def test_mining_the_double_differentiate_template():
    mined = mine(rewarded_graphs(30, 0), min_support=10, min_size=2)
    assert mined, "no templates found"
    top = mined[0]
    assert top.text == "differentiate_wrt(differentiate_wrt(p0,p1),p1)"
    assert top.support == 30
    assert top.arity == 2  # the repeated variable leaf is one shared parameter
    assert top.param_types == ("Expression", "Variable")
    assert top.return_type == "Expression"
    assert top.default_name() == "differentiate_wrt_2"


def test_single_node_graphs_mine_nothing_at_min_size_two():
    env = Environment(REG, CFG)
    graphs = []
    from mathsynth.parsing import Problem, extract_inputs

    q = "Is 7 prime?"
    p = Problem(q, "True", tuple(extract_inputs(q)), "numbers__is_prime")
    env.replay(p, [REG.index_of("is_prime"), REG.n_ops])
    graphs.append(env.state.graph.copy())
    assert mine(graphs * 20, min_support=1, min_size=2) == []


def test_empty_corpus():
    assert mine([], min_support=1, min_size=1) == []


@pytest.mark.parametrize(
    "kwargs", [{"min_support": 0}, {"min_support": -3}, {"min_size": 0}, {"min_size": -1}]
)
def test_thresholds_below_one_are_rejected(kwargs):
    with pytest.raises(ValueError, match="must be at least 1"):
        mine(rewarded_graphs(2, 0), **kwargs)


def test_mining_is_deterministic_given_corpus_order():
    graphs = rewarded_graphs(12, 7) + rewarded_graphs(8, 8, order=3)
    a = mine(graphs, min_support=2, min_size=1)
    b = mine(graphs, min_support=2, min_size=1)
    assert [(m.text, m.support) for m in a] == [(m.text, m.support) for m in b]


def test_support_counts_match_brute_force():
    graphs = rewarded_graphs(15, 1) + rewarded_graphs(10, 2, order=3)

    # independent recount: enumerate rooted connected operator subsets by
    # direct serialization of each cut, with its own placeholder labeling
    def patterns(g, idx):
        node = g.nodes[idx]
        options_per_child = []
        for c in g.children(idx):
            opts = [("cut", c)]
            if isinstance(g.nodes[c], OperatorSpec):
                opts += [("keep", p) for p in patterns(g, c)]
            options_per_child.append(opts)
        out = []
        from itertools import product as prod

        for combo in prod(*options_per_child):
            out.append((node.name, combo))
        return out

    def text_of(g, pat, names):
        name, combo = pat
        parts = []
        for tag, payload in combo:
            if tag == "cut":
                key = g._node_text(payload, placeholder=None)
                if key not in names:
                    names[key] = f"p{len(names)}"
                parts.append(names[key])
            else:
                parts.append(text_of(g, payload, names))
        return f"{name}({','.join(parts)})"

    expected = {}
    for g in graphs:
        for idx, node in enumerate(g.nodes):
            if isinstance(node, OperatorSpec):
                for pat in patterns(g, idx):
                    key = text_of(g, pat, {})
                    expected[key] = expected.get(key, 0) + 1

    mined = mine(graphs, min_support=1, min_size=1)
    got = {m.text: m.support for m in mined}
    countable = {k: v for k, v in expected.items()}
    assert got == countable


def test_registration_extends_the_action_space():
    mined = mine(rewarded_graphs(12, 3), min_support=10, min_size=2)[0]
    reg2, spec = register(mined, REG)
    assert reg2.n_ops == REG.n_ops + 1
    assert reg2.index_of(spec.name) == REG.n_ops
    assert spec.expansion == mined.text
    assert "= differentiate_wrt(differentiate_wrt(p0,p1),p1)" in reg2.manifest()
    with pytest.raises(ValueError):
        register(mined, reg2)  # same default name twice


def test_arity_cap():
    # gcd(mod(a, b), c) with three distinct leaves abstracts to arity 3
    from mathsynth.graph import ComputeGraph
    from mathsynth.operators import default_registry

    reg = default_registry()
    graphs = []
    for k in range(12):
        g = ComputeGraph()
        g.add_node(reg.get("gcd"))
        g.add_node(reg.get("mod"))
        g.add_node(value(3 + k))
        g.add_node(value(100 + k))
        g.add_node(value(200 + k))
        graphs.append(g)
    mined = [m for m in mine(graphs, min_support=12, min_size=2) if m.arity > 2]
    assert mined, "expected an over-arity template in this corpus"
    with pytest.raises(ValueError):
        register(mined[0], reg)


def test_mined_operator_evaluates_like_its_expansion():
    mined = mine(rewarded_graphs(12, 4), min_support=10, min_size=2)[0]
    reg2, spec = register(mined, REG)
    dw = REG.get("differentiate_wrt")
    rng = random.Random(0)
    for _ in range(200):
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        text = " + ".join(f"{c}*t**{i}" for i, c in enumerate(coeffs) if c)
        args = (expression(parse_expression(text)), variable(rng.choice("tz")))
        expanded = dw.eval(dw.eval(args[0], args[1]), args[1])
        assert spec.eval(*args) == expanded
    # ill-typed tuples agree too (both go through operator-level semantics)
    assert spec.eval(value(3), value(4)) == dw.eval(dw.eval(value(3), value(4)), value(4))


def test_mining_shortens_solutions():
    problem = differentiate_wrt_problems(1, 9, REG, order=3, multivariate=True)[0].problem
    env = Environment(REG, CFG)
    before = exhaustive_solve(env, problem, max_nodes=6)
    assert before.actions is None  # nothing shorter than the 7-node chain
    mined = mine(rewarded_graphs(12, 5), min_support=10, min_size=2)[0]
    reg2, _ = register(mined, REG)
    env2 = Environment(reg2, CFG)
    after = exhaustive_solve(env2, problem, max_nodes=6)
    assert after.actions is not None and len(after.actions) == 5


def test_mine_episode_log_filters_rewarded_lines():
    env = Environment(REG, CFG)
    lines = []
    from mathsynth.search import run_episode

    for gp in differentiate_wrt_problems(12, 6, REG, order=2, multivariate=True):
        actions = iter(gp.truth_graph)
        record = run_episode(env, gp.problem, lambda obs, mask: next(actions))
        lines.append(record.to_json_line())
    lines.append('{"question": "x", "actions": [], "graph": "", "output": "None", "reward": 0}')
    mined = mine_episode_log(lines, REG, min_support=10, min_size=2)
    assert mined[0].text == "differentiate_wrt(differentiate_wrt(p0,p1),p1)"


def test_mined_templates_on_the_criterion_9_corpus_are_pinned():
    # the acceptance corpus (SEED + 6 in tests/test_acceptance.py); guards
    # refactors of the graph that mining walks
    mined = mine(rewarded_graphs(30, 20247), min_support=1, min_size=1)
    assert [(m.text, m.support, m.param_types) for m in mined] == [
        ("differentiate_wrt(p0,p1)", 60, ("Expression", "Variable")),
        ("differentiate_wrt(differentiate_wrt(p0,p1),p1)", 30, ("Expression", "Variable")),
    ]
