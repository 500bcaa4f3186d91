"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` (add -s for live criterion
lines; they are echoed in the terminal summary either way).  The learning
criterion trains two models and dominates the runtime.
"""

import random
import time
from fractions import Fraction

import numpy as np

from mathsynth.environment import EnvConfig, Environment
from mathsynth.mining import mine, register
from mathsynth.operators import default_registry, full_registry
from mathsynth.parsing import Problem, extract_inputs, train_bpe
from mathsynth.problems import SUPPORTED_MODULES, differentiate_wrt_problems, generate
from mathsynth.qlearning import (
    EpsilonSchedule,
    QFunction,
    TrainConfig,
    td_target,
    train,
)
from mathsynth.replay import ReplayBuffer
from mathsynth.search import Step, exhaustive_solve, random_rollout
from mathsynth.values import ABSENT, as_poly, parse_expression, render, value

SEED = 20240 + 1


def _expr(text):
    from mathsynth.values import expression

    return expression(parse_expression(text))


def _var(name):
    from mathsynth.values import variable

    return variable(name)


def test_criterion_01_truth_graph_oracle(criterion_report):
    start = time.time()
    env = Environment()
    total = failures = 0
    for module in SUPPORTED_MODULES:
        for gp in generate(module, 1000, seed=SEED):
            reward, _ = env.replay(gp.problem, gp.truth_graph)
            total += 1
            failures += reward != 1
    elapsed = time.time() - start
    ok = failures == 0 and total == 11_000 and elapsed < 120
    assert criterion_report(
        1, ok, f"truth-graph replay {total - failures}/{total} reward 1 in {elapsed:.1f}s (< 120s)"
    )


def test_criterion_02_reference_trajectory(criterion_report):
    q = "What is the first derivative of 6*k**2 - 101*k + 2548?"
    problem = Problem(q, "12*k - 101", tuple(extract_inputs(q)), "calculus__differentiate")
    env = Environment()  # the default 15-operator registry
    env.reset(problem)
    _, r1, done1, _ = env.step(env.registry.index_of("differentiate"))
    _, r2, done2, info = env.step(env.n_ops + 0)
    ok = (r1, done1, r2, done2) == (0, False, 1, True) and info["output"] == "12*k - 101"
    assert criterion_report(
        2, ok, f"differentiate-then-input gives rewards (0, 1), done (False, True)"
    )


def test_criterion_03_noisy_reward(criterion_report):
    # verbatim case: not(is_prime(10)) answers the multiple-of question
    q = "Is 5340 a multiple of 10?"
    problem = Problem(q, "True", tuple(extract_inputs(q)), "numbers__is_factor")
    env = Environment()
    env.reset(problem)
    env.step(env.registry.index_of("not_op"))
    env.step(env.registry.index_of("is_prime"))
    _, verbatim_reward, _, _ = env.step(env.n_ops + 1)

    # over 500 problems, masked random search finds a rewarded graph that
    # fails on a resampled instance of the same question template
    pool = generate("numbers__is_factor", 500, seed=SEED + 1)
    resample_pool: dict = {}
    for gp in generate("numbers__is_factor", 500, seed=SEED + 2):
        resample_pool.setdefault(gp.difficulty["style"], []).append(gp)
    rng = random.Random(0)
    demonstrated = False
    for gp in pool:
        if demonstrated:
            break
        for _ in range(10):
            record = random_rollout(env, gp.problem, rng)
            if record.reward != 1:
                continue
            for other in resample_pool[gp.difficulty["style"]][:20]:
                if other.problem.question == gp.problem.question:
                    continue
                reward, _ = env.replay(other.problem, record.actions)
                if reward == 0:
                    demonstrated = True
                    break
            if demonstrated:
                break
    ok = verbatim_reward == 1 and demonstrated
    assert criterion_report(
        3, ok, "not(is_prime(10)) rewarded; a rewarded graph failed on a resampled instance"
    )


def test_criterion_04_search_space_arithmetic(criterion_report):
    closed_form = 18**7
    env = Environment()
    counts = []
    for module in ("numbers__gcd", "numbers__is_prime", "calculus__differentiate"):
        gp = generate(module, 1, seed=SEED + 3)[0]
        res = exhaustive_solve(env, gp.problem, max_nodes=4, count_all=True)
        counts.append((module, res.n_complete))
    bound = 18**4 / 100
    ok = closed_form == 612_220_032 and all(c < bound for _, c in counts)
    detail = ", ".join(f"{m}={c}" for m, c in counts)
    assert criterion_report(
        4, ok, f"18^7 = {closed_form:,}; masked depth-4 counts [{detail}] all < 18^4/100 = {bound:.0f}"
    )


def test_criterion_05_mask_soundness_and_necessity(criterion_report):
    env = Environment()
    per_module = 10_000 // len(SUPPORTED_MODULES) + 1
    problems = []
    for module in SUPPORTED_MODULES:
        problems.extend(generate(module, per_module, seed=SEED + 4))
    problems = problems[:10_000]

    sound = 0
    for gp in problems:
        env.reset(gp.problem)
        ok = True
        for action in gp.truth_graph:
            if not env.compute_mask()[action]:
                ok = False
                break
            env.step(action)
        sound += ok

    # necessity: deliberately take one masked action, finish any way at all
    rng = random.Random(1)
    violations = 0
    checked = 0
    i = 0
    while checked < 1000:
        gp = problems[i % len(problems)]
        i += 1
        env.reset(gp.problem)
        prefix_len = rng.randrange(len(gp.truth_graph))
        for action in gp.truth_graph[:prefix_len]:
            env.step(action)
        mask = env.compute_mask()
        masked_actions = [a for a in range(env.n_actions) if not mask[a]]
        if not masked_actions:
            continue
        _, reward, done, info = env.step(rng.choice(masked_actions))
        while not done:
            mask = env.compute_mask()
            valid = [a for a in range(env.n_actions) if mask[a]] or list(range(env.n_actions))
            _, reward, done, info = env.step(rng.choice(valid))
        checked += 1
        if info["output"] != "None" or reward != 0:
            violations += 1
    ok = sound == len(problems) and violations == 0
    assert criterion_report(
        5,
        ok,
        f"truth actions unmasked on {sound}/{len(problems)} problems; "
        f"{checked} masked-action episodes all output None with reward 0",
    )


def test_criterion_06_exhaustive_search_solves_short_modules(criterion_report):
    modules = (
        "numbers__gcd",
        "numbers__lcm",
        "numbers__div_remainder",
        "numbers__is_prime",
        "numbers__list_prime_factors",
        "calculus__differentiate",
    )
    env = Environment()
    start = time.time()
    solved = total = 0
    for module in modules:
        for gp in generate(module, 150, seed=SEED + 5):
            res = exhaustive_solve(env, gp.problem, max_nodes=3)
            total += 1
            solved += res.actions is not None
    elapsed = time.time() - start
    ok = solved == total and elapsed < 300
    assert criterion_report(
        6, ok, f"masked exhaustive depth <= 3 solved {solved}/{total} in {elapsed:.1f}s (< 300s)"
    )


def test_criterion_07_desk_scale_learning(criterion_report):
    single = TrainConfig(
        modules=("numbers__div_remainder",),
        seed=0,
        learning_rate=0.05,
        batch_size=128,
        target_sync=250,
        init_steps=6000,
        total_steps=20_000,
        updates_per_step=1,
        train_problems_per_module=1000,
        eval_problems_per_module=100,
        eval_interval=2000,
    )
    result = train(single)
    best = max(m["eval"]["numbers__div_remainder"] for m in result.metrics)
    single_ok = best >= 0.95 and result.env_steps <= 20_000

    pair = TrainConfig(
        modules=("numbers__is_factor", "numbers__is_prime"),
        seed=0,
        learning_rate=0.05,
        batch_size=128,
        target_sync=250,
        init_steps=8000,
        total_steps=30_000,
        updates_per_step=2,
        train_problems_per_module=1000,
        eval_problems_per_module=100,
        eval_interval=5000,
    )
    pair_result = train(pair)
    final = pair_result.metrics[-1]["eval"]
    pair_ok = (
        min(final.values()) >= 0.5
        and pair_result.env_steps <= 50_000
        and set(final) == {"numbers__is_factor", "numbers__is_prime"}
    )
    ok = single_ok and pair_ok
    assert criterion_report(
        7,
        ok,
        f"div_remainder best eval {best:.2f} within 20k steps (>= 0.95); "
        f"interference final {final} within 50k steps (each >= 0.5)",
    )


def test_criterion_08_rl_machinery_properties(criterion_report):
    # Double-DQN decoupling with deliberately divergent copies
    online = QFunction(3, 64, 0)
    target = QFunction(3, 64, 0)
    feats = np.array([5])
    online.weights[2, 5], online.weights[1, 5] = 10.0, 1.0
    target.weights[2, 5], target.weights[1, 5] = 0.25, 9.0
    step = Step(feats, 0, 0.0, feats, False, np.ones(3, dtype=bool))
    double = td_target(step, 1.0, online, target)
    single = td_target(step, 1.0, target, target)
    decoupled = double == 0.25 and single == 9.0 and double != single

    # sampling frequencies within 5% of priority proportions over 1e5 draws
    buf = ReplayBuffer()
    prios = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    mk = lambda: Step(np.array([0]), 0, 0.0, np.array([0]), True, None)
    buf.insert([mk() for _ in prios[:3]], positive=False)
    buf.insert([mk() for _ in prios[3:]], positive=True)
    stored = np.array(prios[3:] + prios[:3])  # the positive store comes first
    buf.update_priorities(range(6), stored)
    idx, _ = buf.sample(100_000, np.random.default_rng(0))
    freqs = np.bincount(idx, minlength=6) / 100_000
    expected = stored / stored.sum()
    proportional = (np.abs(freqs - expected) / expected).max() < 0.05

    # balance under adversarial insert orders
    balanced = True
    buf2 = ReplayBuffer()
    rng = random.Random(2)
    pattern = [False] * 40 + [True] * 40 + [rng.random() < 0.9 for _ in range(200)]
    for positive in pattern:
        buf2.insert([mk()], positive=positive)
        balanced &= abs(buf2.n_positive - buf2.n_zero) <= 1

    schedule = EpsilonSchedule()
    schedule_ok = (
        schedule.value(14_000) == 0.05
        and schedule.value(13_999) > 0.05
        and schedule.value(0) == 0.4
    )
    ok = decoupled and proportional and balanced and schedule_ok
    assert criterion_report(
        8,
        ok,
        f"DDQN decoupling ({double} vs {single}); sampling within 5%; "
        f"balance within 1; epsilon(14000) = {schedule.value(14_000)}",
    )


def test_criterion_09_abstraction_compression(criterion_report):
    registry = full_registry()
    cfg = EnvConfig(univariate_differentiate_only=False)
    env = Environment(registry, cfg)

    corpus = []
    for gp in differentiate_wrt_problems(30, SEED + 6, registry, order=2, multivariate=True):
        reward, _ = env.replay(gp.problem, gp.truth_graph)
        assert reward == 1
        corpus.append(env.state.graph.copy())
    mined = mine(corpus, min_support=10, min_size=2)
    top = mined[0]
    template_ok = (
        top.text == "differentiate_wrt(differentiate_wrt(p0,p1),p1)" and top.arity == 2
    )

    registry2, spec = register(top, registry)
    problem = differentiate_wrt_problems(1, SEED + 7, registry, order=3, multivariate=True)[0]
    before = exhaustive_solve(env, problem.problem, max_nodes=6)
    env2 = Environment(registry2, cfg)
    after = exhaustive_solve(env2, problem.problem, max_nodes=6)
    # nothing at <= 6 before; the 7-node chain is the known solution
    compression_ok = before.actions is None and after.actions is not None and len(after.actions) <= 6

    dw = registry.get("differentiate_wrt")
    rng = random.Random(3)
    equal = 0
    for _ in range(1000):
        deg = rng.randint(0, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        text = " + ".join(f"{c}*t**{i}" for i, c in enumerate(coeffs) if c) or "1"
        args = (_expr(text), _var(rng.choice("tuvz")))
        expanded = dw.eval(dw.eval(args[0], args[1]), args[1])
        equal += spec.eval(*args) == expanded
    ok = template_ok and compression_ok and equal == 1000
    assert criterion_report(
        9,
        ok,
        f"mined {top.default_name()} (support {top.support}); minimal length 7 -> "
        f"{len(after.actions) if after.actions else '?'}; expansion equivalence {equal}/1000",
    )


def test_criterion_10_operator_cross_checks(criterion_report):
    reg = default_registry()
    gcd_op, lcm_op = reg.get("gcd"), reg.get("lcm")
    mod_op, div_op = reg.get("mod"), reg.get("divides")
    prime_op, factors_op = reg.get("is_prime"), reg.get("prime_factors")

    identities_ok = True
    for n in range(1, 10_001):
        pf = factors_op.eval(value(n)).payload
        if (prime_op.eval(value(n)).payload is True) != (pf == (Fraction(n),)):
            identities_ok = False
            break
        for a, b in ((n, 10_001 - n), (n, n), (n, 1)):
            g = gcd_op.eval(value(a), value(b)).payload
            l = lcm_op.eval(value(a), value(b)).payload
            if g * l != a * b:
                identities_ok = False
                break
            if (div_op.eval(value(a), value(b)).payload is True) != (
                mod_op.eval(value(b), value(a)).payload == 0
            ):
                identities_ok = False
                break
        if not identities_ok:
            break

    factor_op = reg.get("factor")
    rng = random.Random(4)
    expanded_ok = 0
    factored = 0
    while factored < 1000:
        deg = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-20, 20)) for _ in range(deg)] + [
            Fraction(rng.randint(1, 20))
        ]
        text = " + ".join(f"{c}*x**{i}" for i, c in enumerate(coeffs) if c) or "1"
        e = parse_expression(text)
        out = factor_op.eval(_expr(text))
        if out is ABSENT:
            continue
        factored += 1
        back = as_poly(parse_expression(render(out)))
        expanded_ok += back == as_poly(e)

    questions = []
    per_module = 10_000 // len(SUPPORTED_MODULES) + 1
    for module in SUPPORTED_MODULES:
        questions.extend(
            gp.problem.question for gp in generate(module, per_module, seed=SEED + 8)
        )
    questions = questions[:10_000]
    base = len({c for q in questions for c in q})
    codec = train_bpe(questions, vocab_size=base + 48, max_len=160)
    bpe_ok = all(codec.decode(codec.encode(q)) == q for q in questions)

    ok = identities_ok and expanded_ok == 1000 and bpe_ok
    assert criterion_report(
        10,
        ok,
        f"number-theory identities on 1..10000; factor expand-back {expanded_ok}/1000; "
        f"BPE round-trip on {len(questions)} questions",
    )
