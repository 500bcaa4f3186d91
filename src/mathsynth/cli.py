"""Command-line surface: generate corpora, replay episodes, train, evaluate
checkpoints, and mine rewarded episode logs for new operators.

Exit codes: 0 success, 1 data error (files, config values, modules),
2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import fields, replace
from pathlib import Path

from .environment import ConfigError, Environment
from .mining import mine_episode_log, register
from .operators import default_registry, full_registry, make_registry
from .parsing import Problem, extract_inputs
from .problems import (
    SUPPORTED_MODULES,
    generate,
    load_dataset_file,
    write_dataset_file,
)
from .qlearning import (
    TEST_SEED_OFFSET,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

USAGE_ERROR, DATA_ERROR, INTERNAL_ERROR = 2, 1, 3

KNOWN_KEYS = {f.name for f in fields(TrainConfig)}


def load_config(path) -> dict:
    """Line-oriented key=value file with # comments; unknown keys rejected."""
    text = Path(path).read_text()
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _registry_for(name: str):
    if name in ("default", ""):
        return default_registry()
    if name == "full":
        return full_registry()
    return make_registry(tuple(name.split(",")))


def _parse_modules(raw: str) -> tuple:
    modules = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not modules:
        raise ConfigError(f"no module in --module {raw!r}")
    for m in modules:
        if m not in SUPPORTED_MODULES:
            raise ConfigError(f"unsupported module: {m!r}")
    return modules


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    modules = _parse_modules(args.module)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for module in modules:
        generated = generate(module, args.count, args.seed)
        write_dataset_file([gp.problem for gp in generated], out_dir / f"{module}.txt")
        sidecar = out_dir / f"{module}.truth.jsonl"
        with open(sidecar, "w") as fh:
            for gp in generated:
                fh.write(
                    json.dumps(
                        {
                            "question": gp.problem.question,
                            "module": module,
                            "truth_graph": list(gp.truth_graph),
                            "difficulty": gp.difficulty,
                        }
                    )
                    + "\n"
                )
        print(f"{module}: wrote {args.count} problems to {out_dir / (module + '.txt')}")
    return 0


def cmd_episode(args) -> int:
    registry = _registry_for(args.registry)
    if args.question is not None:
        question = args.question
        answer = args.answer if args.answer is not None else ""
        inputs = tuple(extract_inputs(question))
        problem = Problem(question, answer, inputs, module=args.module_label)
    else:
        problems = load_dataset_file(args.file)
        if not 0 <= args.index < len(problems):
            raise ConfigError(f"--index {args.index} out of range for {args.file}")
        problem = problems[args.index]
    actions = [int(a) for a in args.actions.split(",")] if args.actions else []

    env = Environment(registry)
    env.reset(problem)
    print(f"state  t=0 : {problem.question}; ")
    for t, action in enumerate(actions):
        print(f"action t={t} : {action}")
        obs, reward, done, info = env.step(action)
        print(f"state  t={t + 1} : {problem.question}; {', '.join(map(str, obs.history))}")
        print(f"reward t={t + 1} : {reward}")
        if done:
            print(f"graph  : {info['graph']}")
            print(f"output : {info['output']}")
            break
    return 0


def _metrics_writer(path):
    """(sink, close) for a JSON-lines file that is opened, and its directory
    created, on the first record, so a run that train() rejects leaves no
    file or directory behind."""
    fh = None

    def sink(record):
        nonlocal fh
        if fh is None:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, "w")
        fh.write(json.dumps(record) + "\n")
        fh.flush()

    def close():
        if fh is not None:
            fh.close()

    return sink, close


def cmd_train(args) -> int:
    mapping = load_config(args.config) if args.config else {}
    if args.module is not None:
        mapping["modules"] = args.module
    if args.seed is not None:
        mapping["seed"] = args.seed
    train_cfg = TrainConfig.from_mapping(mapping)
    registry = _registry_for(args.registry)
    out_dir = Path(args.out)

    seeds = [train_cfg.seed + i for i in range(args.seeds)]
    final_means = []
    for seed in seeds:
        cfg = replace(train_cfg, seed=seed)
        suffix = f"_seed{seed}" if len(seeds) > 1 else ""
        sink, close = _metrics_writer(out_dir / f"metrics{suffix}.jsonl")
        resume = None
        if args.checkpoint:
            q0, _, env_steps = load_checkpoint(args.checkpoint, registry)
            resume = (q0, env_steps)
        try:
            result = train(cfg, registry=registry, metrics_sink=sink, resume=resume)
        finally:
            close()
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out_dir / f"checkpoint{suffix}.npz", result)
        last_eval = result.metrics[-1]["eval"] if result.metrics else {}
        mean = statistics.fmean(last_eval.values()) if last_eval else 0.0
        final_means.append((mean, seed, last_eval))
        print(f"seed {seed}: steps={result.env_steps} final eval {last_eval}")
    if len(seeds) > 1:
        final_means.sort()
        median = final_means[len(final_means) // 2]
        print(f"median trial: seed {median[1]} mean reward {median[0]:.4f}")
    return 0


def cmd_eval(args) -> int:
    registry = _registry_for(args.registry)
    q, config, _ = load_checkpoint(args.checkpoint, registry)
    modules = config.modules if args.module is None else _parse_modules(args.module)
    # by default, problems that neither training nor its held-out checks saw
    seed = config.seed + TEST_SEED_OFFSET if args.seed is None else args.seed
    problems = []
    for module in modules:
        problems.extend(gp.problem for gp in generate(module, args.count, seed))
    per_module = evaluate(q, Environment(registry, config), problems)
    width = max(len(m) for m in per_module)
    for module, mean in per_module.items():
        print(f"{module:<{width}}  {mean:.4f}")
    overall = statistics.fmean(per_module.values())
    print(f"{'Mean Reward across Modules':<{width}}  {overall:.4f}")
    return 0


def cmd_mine(args) -> int:
    registry = _registry_for(args.registry)
    lines = Path(args.log).read_text().splitlines()
    mined = mine_episode_log(
        lines, registry, min_support=args.min_support, min_size=args.min_size
    )
    out_lines = []
    reg = registry
    for m in mined:
        reg, spec = register(m, reg)
        out_lines.append(
            f"{reg.index_of(spec.name)}\t{spec.signature()}\t= {spec.expansion}\tsupport={m.support}"
        )
    manifest = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.out:
        Path(args.out).write_text(manifest)
    sys.stdout.write(manifest)
    return 0


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mathsynth")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write dataset files plus truth-graph sidecars")
    p.add_argument("--module", required=True, help="comma-separated module list")
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("episode", help="replay an action sequence and print the trajectory")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--question")
    source.add_argument("--file", help="dataset file to draw the question from")
    p.add_argument("--answer")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--actions", default="", help="comma-separated action indices")
    p.add_argument("--registry", default="default")
    p.add_argument("--module-label", default="")
    p.set_defaults(func=cmd_episode)

    p = sub.add_parser("train", help="train the Double-Q baseline")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--module", help="override the module subset")
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", type=_positive_int, default=1, help="number of seeded trials")
    p.add_argument("--registry", default="default")
    p.add_argument("--checkpoint", help="resume from this checkpoint")
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-module mean reward of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--module")
    p.add_argument("--count", type=_positive_int, default=200)
    p.add_argument(
        "--seed",
        type=int,
        help="problem seed (default: the checkpoint's seed plus an offset, so that "
        "no question comes from its training or held-out pool)",
    )
    p.add_argument("--registry", default="default")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine", help="mine an episode log for frequent subgraphs")
    p.add_argument("--log", required=True)
    p.add_argument("--min-support", type=_positive_int, default=10)
    p.add_argument("--min-size", type=_positive_int, default=2)
    p.add_argument("--registry", default="full")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mine)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDiverged, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
