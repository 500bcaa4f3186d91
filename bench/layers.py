"""The per-layer metrics of a traced run: which mathsynth calls get a span,
and how spans and counts become the values of the metrics BENCHMARK.json
lists (run.py prints them by name, with the units listed there).

Times ending in ``_us``, ``_ms`` or ``_s`` are self time per call (span
duration minus the spans nested in it), except ``qlearning.update_ms``,
``mining.mine_ms`` and ``parsing.train_bpe_s``, which time the whole call.
Counts named ``*_calls``, ``search.expanded``, ``search.complete`` and
``qlearning.updates`` are per round: every round of a run repeats the same
operations, so they are fixed for a seed.
"""

from __future__ import annotations


def _count_absent(tracer, args, result):
    tracer.count("operators.absent", result.kind == "Absent")


def _count_generated(tracer, args, result):
    tracer.count("problems.generated", len(result))


def _count_search(tracer, args, result):
    tracer.count("search.expanded", result.n_expanded)
    tracer.count("search.complete", result.n_complete)


def _steps_held(tracer, args, result):
    held = len(args[0])
    tracer.counts["replay.steps_held"] = max(tracer.counts.get("replay.steps_held", 0), held)


def _count_templates(tracer, args, result):
    tracer.count("mining.templates", len(result))


def install(tracer):
    from mathsynth import (
        environment,
        graph,
        mining,
        operators,
        parsing,
        problems,
        qlearning,
        replay,
        search,
        values,
    )

    fn, method = tracer.patch_function, tracer.patch_method
    fn(values, "render", "values.render")
    fn(values, "parse_value", "values.parse_value")
    method(operators.OperatorSpec, "eval", "operators.eval", _count_absent)
    method(graph.ComputeGraph, "add_node", "graph.add_node")
    method(graph.ComputeGraph, "copy", "graph.copy")
    method(graph.ComputeGraph, "evaluate", "graph.evaluate")
    method(environment.Environment, "step", "environment.step")
    method(environment.Environment, "reset", "environment.reset")
    fn(environment, "action_mask", "environment.action_mask")
    method(parsing.BpeCodec, "encode", "parsing.encode")
    fn(parsing, "extract_inputs", "parsing.extract_inputs")
    fn(parsing, "train_bpe", "parsing.train_bpe")
    fn(problems, "generate", "problems.generate", _count_generated)
    fn(search, "exhaustive_solve", "search.exhaustive_solve", _count_search)
    fn(search, "random_rollout", "search.random_rollout")
    method(replay.ReplayBuffer, "insert", "replay.insert", _steps_held)
    method(replay.ReplayBuffer, "sample", "replay.sample")
    method(replay.ReplayBuffer, "update_priorities", "replay.update_priorities")
    method(replay.ReplayBuffer, "max_priority", "replay.max_priority")
    method(qlearning.QFunction, "features", "qlearning.features")
    method(qlearning.QFunction, "greedy_action", "qlearning.greedy_action")
    fn(qlearning, "td_target", "qlearning.td_target")
    # the per-batch update is the private function train()'s loop calls
    fn(qlearning, "_batch_update", "qlearning.update")
    fn(qlearning, "evaluate", "qlearning.evaluate")
    fn(qlearning, "train", "qlearning.train")
    fn(mining, "mine", "mining.mine", _count_templates)


def metrics(tracer, rounds: int) -> dict:
    spans = tracer.per_name()
    counts = tracer.counts

    def span(name):
        """(calls, calls inside operations, inclusive s, self s)"""
        return spans.get(name, (0, 0, 0.0, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    def per_round(name):
        return span(name)[1] / rounds

    def own(name, per=None):
        calls, _, _, self_s = span(name)
        return ratio(self_s, calls if per is None else per) * 1e6

    def whole(name, scale):
        calls, _, incl, _ = span(name)
        return ratio(incl, calls) * scale

    expanded = counts.get("search.expanded", 0)
    train_s = span("qlearning.train")[2]
    updating = ratio(span("qlearning.update")[2], train_s)
    evaluating = ratio(span("qlearning.evaluate")[2], train_s)
    values = {
        "values.render_us": own("values.render"),
        "values.parse_value_us": own("values.parse_value"),
        "operators.eval_calls": per_round("operators.eval"),
        "operators.eval_us": own("operators.eval"),
        "operators.absent_share": ratio(counts.get("operators.absent", 0), span("operators.eval")[0]),
        "graph.add_node_us": own("graph.add_node"),
        "graph.copy_us": own("graph.copy"),
        "graph.copy_calls": per_round("graph.copy"),
        "graph.evaluate_us": own("graph.evaluate"),
        "environment.step_us": own("environment.step"),
        "environment.step_calls": per_round("environment.step"),
        "environment.action_mask_us": own("environment.action_mask"),
        "environment.action_mask_calls": per_round("environment.action_mask"),
        "environment.reset_us": own("environment.reset"),
        "parsing.encode_us": own("parsing.encode"),
        "parsing.encode_calls": per_round("parsing.encode"),
        "parsing.extract_inputs_us": own("parsing.extract_inputs"),
        "parsing.train_bpe_s": span("parsing.train_bpe")[2],
        "problems.generate_us": own("problems.generate", per=counts.get("problems.generated", 0)),
        "search.expanded": expanded / rounds,
        "search.complete": counts.get("search.complete", 0) / rounds,
        "search.complete_share": ratio(counts.get("search.complete", 0), expanded),
        "search.expand_us": own("search.exhaustive_solve", per=expanded),
        "search.rollout_us": own("search.random_rollout"),
        "replay.insert_us": own("replay.insert"),
        "replay.sample_us": own("replay.sample"),
        "replay.update_priorities_us": own("replay.update_priorities"),
        "replay.max_priority_us": own("replay.max_priority"),
        "replay.steps_held": counts.get("replay.steps_held", 0),
        "qlearning.features_us": own("qlearning.features"),
        "qlearning.features_calls": per_round("qlearning.features"),
        "qlearning.greedy_action_us": own("qlearning.greedy_action"),
        "qlearning.td_target_us": own("qlearning.td_target"),
        "qlearning.td_target_calls": per_round("qlearning.td_target"),
        "qlearning.updates": per_round("qlearning.update"),
        "qlearning.update_ms": whole("qlearning.update", 1e3),
        "qlearning.acting_share": 1.0 - updating - evaluating if train_s else 0.0,
        "qlearning.updating_share": updating,
        "qlearning.evaluating_share": evaluating,
        "mining.mine_ms": whole("mining.mine", 1e3),
        "mining.templates": ratio(counts.get("mining.templates", 0), span("mining.mine")[0]),
    }
    return values
