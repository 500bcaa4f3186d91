import json

import numpy as np
import pytest

from mathsynth.cli import ConfigError, load_config, main
from mathsynth.environment import Environment
from mathsynth.operators import default_registry
from mathsynth.problems import load_dataset_file
from mathsynth.qlearning import (
    QFunction,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    save_checkpoint,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# desk-scale run\n"
        "modules = numbers__gcd\n"
        "total_steps = 500   # short\n"
        "n_inputs = 3\n"
    )
    cfg = TrainConfig.from_mapping(load_config(path))
    assert cfg.modules == ("numbers__gcd",)
    assert cfg.total_steps == 500
    assert cfg.n_inputs == 3


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("volume = 11\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_range_checks(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("gamma = 3.5\n")
    with pytest.raises(ConfigError):
        TrainConfig.from_mapping(load_config(path))


TINY_RUN = (
    "modules = numbers__is_prime\n"
    "learning_rate = 0.05\n"
    "batch_size = 8\n"
    "init_steps = 60\n"
    "total_steps = 120\n"
    "train_problems_per_module = 10\n"
    "eval_problems_per_module = 4\n"
    "eval_interval = 60\n"
    "feature_dim = 1024\n"
    "target_sync = 20\n"
)

# every accepted key with a value it must reject, plus two keys that are not
# accepted at all
BAD_VALUES = [
    ("n_inputs", "0"),
    ("n_inputs", "two"),
    ("max_nodes", "0"),
    ("max_nodes", "-3"),
    ("encoded_observations", "true"),  # training has no BPE codec
    ("encoded_observations", "maybe"),
    ("max_question_tokens", "0"),
    ("max_question_tokens", "5"),  # applies only to encoded observations
    ("univariate_differentiate_only", "perhaps"),
    ("modules", ""),
    ("modules", "numbers__bogus"),
    ("modules", "numbers__gcd,bogus"),
    ("seed", "x"),
    ("seed", "-1"),
    ("gamma", "1.5"),
    ("gamma", "nan"),
    ("learning_rate", "0"),
    ("learning_rate", "nan"),
    ("learning_rate", "inf"),
    ("batch_size", "0"),
    ("target_sync", "0"),
    ("epsilon_start", "1.5"),
    ("epsilon_end", "0.9"),
    ("epsilon_decrement", "-1"),
    ("epsilon_decrement", "nan"),
    ("buffer_capacity", "0"),
    ("init_steps", "-5"),
    ("init_steps", "many"),
    ("total_steps", "0"),
    ("updates_per_step", "0"),
    ("updates_per_step", "-1"),
    ("train_problems_per_module", "0"),
    ("eval_problems_per_module", "0"),
    ("eval_interval", "0"),
    ("feature_dim", "0"),
    ("feature_seed", "abc"),
    ("priority_floor", "0"),
    ("priority_floor", "-1"),
    ("priority_floor", "nan"),
    ("registry", "full"),
    ("count", "7"),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_train_rejects_bad_config_value(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN + f"{key} = {value}\n")
    out = tmp_path / "run"
    code, _, err = run(capsys, "train", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err and "internal error" not in err
    assert not (out / "checkpoint.npz").exists()


def test_train_divergence_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "modules = numbers__is_prime\n"
        "learning_rate = 1e18\n"  # finite, so it passes validation
        "batch_size = 16\n"
        "init_steps = 150\n"
        "total_steps = 400\n"
        "train_problems_per_module = 40\n"
        "eval_problems_per_module = 10\n"
        "feature_dim = 4096\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 1
    assert err.startswith("error: non-finite loss at update ")


def test_generate_writes_dataset_and_sidecar(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(
        capsys, "generate", "--module", "numbers__gcd", "--count", "20", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    data = (out / "numbers__gcd.txt").read_text()
    assert len(data.splitlines()) == 40  # question/answer alternating
    problems = load_dataset_file(out / "numbers__gcd.txt")
    sidecar = [json.loads(l) for l in (out / "numbers__gcd.truth.jsonl").read_text().splitlines()]
    env = Environment()
    assert len(sidecar) == 20
    for p, rec in zip(problems, sidecar):
        reward, _ = env.replay(p, rec["truth_graph"])
        assert reward == 1


def test_generate_is_byte_identical_given_seed(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(
            capsys, "generate", "--module", "numbers__lcm", "--count", "15", "--seed", "9",
            "--out", str(out),
        )
        assert code == 0
    assert (a / "numbers__lcm.txt").read_bytes() == (b / "numbers__lcm.txt").read_bytes()
    assert (a / "numbers__lcm.truth.jsonl").read_bytes() == (b / "numbers__lcm.truth.jsonl").read_bytes()


def test_generate_unknown_module_is_a_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--module", "numbers__bogus", "--count", "1", "--out", str(tmp_path)
    )
    assert code == 1
    assert "unsupported module" in err


def test_empty_module_list_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, err = run(capsys, "generate", "--module", "", "--count", "1", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()

    registry = default_registry()
    q = QFunction(registry.n_ops + 3, 64, 0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, TrainResult(q, [], 0, 0, registry, TrainConfig(feature_dim=64)))
    code, stdout, err = run(capsys, "eval", "--checkpoint", str(path), "--module", "")
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err

    code, stdout, err = run(capsys, "train", "--module", "", "--out", str(tmp_path / "t"))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and not (tmp_path / "t").exists()


def test_episode_prints_the_trajectory(capsys):
    code, out, _ = run(
        capsys, "episode",
        "--question", "What is the first derivative of 6*k**2 - 101*k + 2548?",
        "--answer", "12*k - 101",
        "--actions", "5,15",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("state  t=0 : What is the first derivative")
    assert "action t=0 : 5" in lines
    assert "reward t=1 : 0" in lines
    assert "reward t=2 : 1" in lines
    assert any(l.startswith("output : 12*k - 101") for l in lines)


def test_episode_empty_action_list(capsys):
    code, out, _ = run(capsys, "episode", "--question", "Is 10 a prime number?")
    assert code == 0
    assert out.splitlines() == ["state  t=0 : Is 10 a prime number?; "]


def test_episode_stops_at_done_on_overlong_list(capsys):
    code, out, _ = run(
        capsys, "episode", "--question", "Is 10 a prime number?", "--answer", "False",
        "--actions", "9,15,3,3,3",
    )
    assert code == 0
    assert "reward t=2 : 1" in out
    assert "action t=2" not in out


def test_episode_bad_action_index(capsys):
    code, _, err = run(
        capsys, "episode", "--question", "Is 10 a prime number?", "--actions", "99"
    )
    assert code == 1


def test_episode_from_dataset_file(tmp_path, capsys):
    path = tmp_path / "numbers__is_prime.txt"
    path.write_text("Is 10 a prime number?\nFalse\nIs 7 prime?\nTrue\n")
    code, out, _ = run(
        capsys, "episode", "--file", str(path), "--index", "1", "--actions", "9,15"
    )
    assert code == 0
    assert "state  t=0 : Is 7 prime?; " in out
    assert "reward t=2 : 1" in out
    code, _, err = run(capsys, "episode", "--file", str(path), "--index", "5")
    assert code == 1 and "out of range" in err


def test_usage_error_exit_code(tmp_path):
    for argv in (
        ["bogus-command"],
        ["train", "--seeds", "0", "--out", str(tmp_path)],
        ["train", "--seeds", "-2", "--out", str(tmp_path)],
        ["episode", "--actions", "5"],
        ["episode", "--question", "Is 7 prime?", "--file", "x.txt"],
        ["generate", "--module", "numbers__gcd", "--count", "-2", "--out", str(tmp_path)],
        ["eval", "--checkpoint", str(tmp_path / "c.npz"), "--count", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_train_eval_resume_cycle(tmp_path, capsys):
    # the second run changes the action space; eval must rebuild it from the checkpoint
    for name, env_line in (("default", ""), ("two_inputs", "n_inputs = 2\n")):
        _train_eval_resume(tmp_path / name, capsys, env_line)


def _train_eval_resume(tmp_path, capsys, env_line):
    tmp_path.mkdir()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "modules = numbers__is_prime\n"
        "learning_rate = 0.05\n"
        "batch_size = 16\n"
        "init_steps = 100\n"
        "total_steps = 300\n"
        "train_problems_per_module = 30\n"
        "eval_problems_per_module = 8\n"
        "eval_interval = 150\n"
        "feature_dim = 4096\n"
        "target_sync = 50\n" + env_line
    )
    n_inputs = TrainConfig.from_mapping(load_config(cfg)).n_inputs
    out = tmp_path / "run"
    code, stdout, err = run(capsys, "train", "--config", str(cfg), "--out", str(out))
    assert code == 0, err
    metrics = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert metrics and metrics[-1]["step"] >= 300
    assert (out / "checkpoint.npz").exists()
    q, config, _ = load_checkpoint(out / "checkpoint.npz")
    assert config.n_inputs == n_inputs
    assert q.n_actions == default_registry().n_ops + n_inputs

    code, stdout, err = run(
        capsys, "eval", "--checkpoint", str(out / "checkpoint.npz"),
        "--module", "numbers__is_prime", "--count", "10",
    )
    assert code == 0, err
    assert "numbers__is_prime" in stdout
    assert "Mean Reward across Modules" in stdout

    # resuming continues the environment step count
    out2 = tmp_path / "resumed"
    cfg.write_text(cfg.read_text().replace("total_steps = 300", "total_steps = 450"))
    code, stdout, err = run(
        capsys, "train", "--config", str(cfg), "--out", str(out2),
        "--checkpoint", str(out / "checkpoint.npz"),
    )
    assert code == 0, err
    resumed = [json.loads(l) for l in (out2 / "metrics.jsonl").read_text().splitlines()]
    assert all(m["step"] >= 300 for m in resumed)


def test_eval_rejects_checkpoint_without_config(tmp_path, capsys):
    path = tmp_path / "old.npz"
    # the meta layout of a checkpoint that does not record its training config
    meta = {"feature_seed": 1, "feature_dim": 64, "n_actions": 18,
            "manifest": default_registry().manifest()}
    np.savez_compressed(path, weights=np.zeros((18, 64)), meta=json.dumps(meta))
    code, _, err = run(capsys, "eval", "--checkpoint", str(path), "--module", "numbers__gcd")
    assert code == 1
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize("line", ["feature_dim = 4096\n", "feature_seed = 7\n"])
def test_resume_rejects_other_feature_settings(tmp_path, capsys, line):
    # the resumed weights keep their own feature settings, so a config that
    # asks for others would be silently ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN)
    first = tmp_path / "run"
    code, _, err = run(capsys, "train", "--config", str(cfg), "--out", str(first))
    assert code == 0, err
    cfg.write_text(TINY_RUN.replace("feature_dim = 1024\n", "") + line)
    out = tmp_path / "resumed"
    code, _, err = run(
        capsys, "train", "--config", str(cfg), "--out", str(out),
        "--checkpoint", str(first / "checkpoint.npz"),
    )
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err and "internal error" not in err
    assert not (out / "checkpoint.npz").exists()
    assert not (out / "metrics.jsonl").exists()


def test_train_multi_seed_reports_the_median_trial(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "modules = numbers__is_prime\n"
        "learning_rate = 0.05\n"
        "batch_size = 8\n"
        "init_steps = 60\n"
        "total_steps = 150\n"
        "train_problems_per_module = 20\n"
        "eval_problems_per_module = 5\n"
        "eval_interval = 100\n"
        "feature_dim = 2048\n"
        "target_sync = 25\n"
    )
    out = tmp_path / "batch"
    code, stdout, err = run(
        capsys, "train", "--config", str(cfg), "--out", str(out), "--seeds", "3"
    )
    assert code == 0, err
    for seed in (0, 1, 2):
        assert (out / f"metrics_seed{seed}.jsonl").exists()
        assert (out / f"checkpoint_seed{seed}.npz").exists()
    assert "median trial: seed" in stdout


def test_mine_command(tmp_path, capsys):
    from mathsynth.environment import EnvConfig
    from mathsynth.operators import full_registry
    from mathsynth.problems import differentiate_wrt_problems
    from mathsynth.search import run_episode

    reg = full_registry()
    env = Environment(reg, EnvConfig(univariate_differentiate_only=False))
    log = tmp_path / "episodes.jsonl"
    with open(log, "w") as fh:
        for gp in differentiate_wrt_problems(12, 0, reg, order=2, multivariate=True):
            actions = iter(gp.truth_graph)
            fh.write(run_episode(env, gp.problem, lambda o, m: next(actions)).to_json_line() + "\n")
    out = tmp_path / "mined.txt"
    code, stdout, _ = run(
        capsys, "mine", "--log", str(log), "--min-support", "10", "--min-size", "2",
        "--out", str(out),
    )
    assert code == 0
    assert "differentiate_wrt_2" in stdout
    assert "= differentiate_wrt(differentiate_wrt(p0,p1),p1)" in out.read_text()
    assert "support=12" in stdout


def test_mine_empty_log(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    code, stdout, _ = run(capsys, "mine", "--log", str(log))
    assert code == 0 and stdout == ""


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '{"reward": 1, "graph": 5}',
        json.dumps({"reward": 1, "graph": "not_op(" * 3000 + "Boolean('True')" + ")" * 3000}),
    ],
    ids=["list", "number-graph", "deep-graph"],
)
def test_mine_rejects_malformed_log_lines(tmp_path, capsys, line):
    log = tmp_path / "episodes.jsonl"
    log.write_text(line + "\n")
    code, _, err = run(capsys, "mine", "--log", str(log))
    assert code == 1 and "error: episode log line 1:" in err
    assert "Traceback" not in err and "internal error" not in err
