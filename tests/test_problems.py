import logging

import pytest

from mathsynth.environment import Environment
from mathsynth.problems import (
    SUPPORTED_MODULES,
    DatasetFormatError,
    generate,
    load_dataset_file,
    split,
    write_dataset_file,
)


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


def test_loader_skips_problems_with_too_many_inputs(tmp_path, caplog):
    q = (
        "Let h(t) = t**3 + t**2 + 1. Let v(d) = 6*d**3 + 24*d**2 + 4. "
        "Let w(j) = 4*h(j) - v(j). What is the third derivative of w(x) wrt x?"
    )
    path = tmp_path / "five_inputs.txt"
    path.write_text(f"{q}\n24*x - 6\n")
    with caplog.at_level(logging.WARNING):
        assert load_dataset_file(path, n_inputs=3) == []
    assert load_dataset_file(path, n_inputs=5)  # admissible with a larger cap


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
