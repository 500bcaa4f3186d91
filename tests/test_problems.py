import hashlib
import logging

import pytest

from mathsynth.environment import EnvConfig, Environment, ProblemRejected
from mathsynth.operators import full_registry
from mathsynth.problems import (
    SUPPORTED_MODULES,
    DatasetFormatError,
    differentiate_wrt_problems,
    generate,
    load_dataset_file,
    split,
    write_dataset_file,
)
from mathsynth.values import render


def test_unsupported_module_errors():
    with pytest.raises(ValueError):
        generate("numbers__bogus", 1, 0)


@pytest.mark.parametrize("module", SUPPORTED_MODULES)
def test_truth_graphs_reach_reward_one(module):
    env = Environment()
    for gp in generate(module, 50, seed=0):
        reward, info = env.replay(gp.problem, gp.truth_graph)
        assert reward == 1, (gp.problem.question, info)
        assert len(gp.truth_graph) <= 7
        assert len(gp.problem.inputs) <= 3


def test_generation_is_deterministic():
    a = generate("numbers__gcd", 25, seed=5)
    b = generate("numbers__gcd", 25, seed=5)
    assert [gp.problem for gp in a] == [gp.problem for gp in b]
    assert [gp.truth_graph for gp in a] == [gp.truth_graph for gp in b]
    c = generate("numbers__gcd", 25, seed=6)
    assert [gp.problem for gp in a] != [gp.problem for gp in c]


def test_gcd_sample_shape():
    gp = generate("numbers__gcd", 5, seed=1)[0]
    assert "common" in gp.problem.question
    assert gp.truth_graph[0] == 7  # gcd's action index
    assert gp.problem.module == "numbers__gcd"


GENERATOR_DIGEST = "64def62fad0382d659eabd92581532ed40892c2037e4f75d78342ddb78dfb892"


def pinned_problems(registry):
    """Every generated problem the digest covers: 300 per module at three
    seeds, and 100 differentiate_wrt problems per order 1-3, univariate and
    multivariate."""
    for module in SUPPORTED_MODULES:
        for seed in (0, 1, 41):
            yield from generate(module, 300, seed)
    for order in (1, 2, 3):
        for multivariate in (False, True):
            yield from differentiate_wrt_problems(100, 7, registry, order, multivariate)


def test_generated_problems_are_pinned():
    # question, answer, every input (kind and expression tree), truth graph
    # and difficulty of each generated problem, and the factor operator's
    # output on each factor-phrased one; the digest guards refactors of the
    # generators and of the canonical forms they share with the operators
    registry = full_registry()
    factor = registry.get("factor")
    digest = hashlib.sha256()
    n_problems = n_factored = 0
    for gp in pinned_problems(registry):
        p = gp.problem
        fields = [p.module, p.question, p.answer]
        fields += [f"{v.kind}:{v.payload!r}" for v in p.inputs]
        fields += [repr(gp.truth_graph), repr(sorted(gp.difficulty.items()))]
        if p.question.startswith("Factor"):
            out = factor.eval(*p.inputs)
            assert render(out) == p.answer
            fields.append(f"{out.kind}:{out.payload!r}")
            n_factored += 1
        digest.update("|".join(fields).encode() + b"\n")
        n_problems += 1
    assert n_problems == 10500
    assert n_factored == 435
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_dataset_file_round_trip(tmp_path):
    problems = [gp.problem for gp in generate("numbers__is_prime", 20, seed=2)]
    path = tmp_path / "numbers__is_prime.txt"
    write_dataset_file(problems, path)
    loaded = load_dataset_file(path)
    assert len(loaded) == 20
    assert [p.question for p in loaded] == [p.question for p in problems]
    assert [p.answer for p in loaded] == [p.answer for p in problems]
    assert loaded[0].module == "numbers__is_prime"  # from the file stem


def test_loader_two_line_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("Is 10 a prime number?\nFalse\n")
    assert len(load_dataset_file(path)) == 1


def test_loader_skips_and_counts(tmp_path, caplog):
    path = tmp_path / "mixed.txt"
    path.write_text(
        "Is 10 a prime number?\nFalse\n"
        "What is seven halves of a day in minutes?\n210\n"
    )
    with caplog.at_level(logging.WARNING):
        problems = load_dataset_file(path)
    assert len(problems) == 1
    assert "skipped 1 of 2" in caplog.text


def test_loader_leaves_the_input_count_to_the_environment(tmp_path):
    q = (
        "Let h(t) = t**3 + t**2 + 1. Let v(d) = 6*d**3 + 24*d**2 + 4. "
        "Let w(j) = 4*h(j) - v(j). What is the third derivative of w(x) wrt x?"
    )
    path = tmp_path / "five_inputs.txt"
    path.write_text(f"{q}\n24*x - 6\n")
    [problem] = load_dataset_file(path)
    assert len(problem.inputs) == 5
    with pytest.raises(ProblemRejected, match="has 5 inputs but n_inputs is 3"):
        Environment().check(problem)
    Environment(config=EnvConfig(n_inputs=5)).check(problem)


def test_loader_survives_a_non_ascii_digit(tmp_path):
    # '²' passes str.isdigit, and int() on it used to abort the whole file
    path = tmp_path / "mixed.txt"
    path.write_text("What is 2²?\n4\nIs 10 a prime number?\nFalse\n")
    problems = load_dataset_file(path)
    assert "Is 10 a prime number?" in [p.question for p in problems]


def test_loader_rejects_odd_line_count(tmp_path):
    path = tmp_path / "odd.txt"
    path.write_text("only a question\n")
    with pytest.raises(DatasetFormatError):
        load_dataset_file(path)


def test_split_largest_remainder():
    problems = [gp.problem for gp in generate("numbers__gcd", 101, seed=0)]
    train, val, test = split(problems, (800 / 1010, 200 / 1010, 10 / 1010), seed=0)
    assert (len(train), len(val), len(test)) == (80, 20, 1)
    union = {p.question for p in train} | {p.question for p in val} | {p.question for p in test}
    assert len(train) + len(val) + len(test) == 101
    assert union == {p.question for p in problems}


def test_split_deterministic_and_validating():
    problems = [gp.problem for gp in generate("numbers__lcm", 30, seed=0)]
    a = split(problems, (0.5, 0.3, 0.2), seed=9)
    b = split(problems, (0.5, 0.3, 0.2), seed=9)
    assert a == b
    with pytest.raises(ValueError):
        split([], (1.0,), seed=0)
    with pytest.raises(ValueError):
        split(problems, (0.5, 0.2), seed=0)
    # the fractions sum to 1, but one of them is negative
    with pytest.raises(ValueError, match="negative"):
        split(list(range(10)), [1.5, -0.5], seed=0)
