"""The reinforcement-learning environment: reset with a problem, step with
action indices, and a validity mask over the action space.

Action indices 0..n_ops-1 are operators; n_ops+i is the problem's i-th
input.  Input positions past the problem's input count are "None actions":
always masked, and placing one yields an Absent leaf.  Masked actions are
permitted; they always lead to an output of "None" and reward 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .graph import ComputeGraph, StructuralError
from .operators import Registry, default_registry
from .parsing import BpeCodec, Observation, Problem
from .values import ABSENT, EXPRESSION, TypedValue, free_symbols, is_subtype, render


class ConfigError(ValueError):
    """A config value that cannot be read or is out of range."""


@dataclass(frozen=True)
class EnvConfig:
    n_inputs: int = 3
    max_nodes: int = 7
    encoded_observations: bool = False
    max_question_tokens: int = 128
    univariate_differentiate_only: bool = True

    def __post_init__(self):
        # runs on construction, from_mapping and dataclasses.replace alike;
        # subclasses extend it and call it first
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        for key in ("n_inputs", "max_nodes", "max_question_tokens"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        # raw observations have no tokens to bound
        if (
            not self.encoded_observations
            and self.max_question_tokens != EnvConfig.max_question_tokens
        ):
            raise ConfigError("max_question_tokens applies only to encoded observations")

    @classmethod
    def from_mapping(cls, mapping: dict):
        """A validated config from key -> value pairs; text values are
        coerced to the type of each field's default."""
        defaults = {f.name: f.default for f in fields(cls)}
        values = {}
        for key, raw in mapping.items():
            if key not in defaults:
                raise KeyError(f"unknown config key: {key}")
            try:
                values[key] = _coerce(raw, type(defaults[key]))
            except (TypeError, ValueError) as exc:  # TypeError: a JSON list or null
                raise ConfigError(f"{key}: {exc}") from exc
        return cls(**values)


def _coerce(raw, typ):
    if isinstance(raw, typ):
        return raw
    if typ is bool:
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if typ is tuple and isinstance(raw, str):
        return tuple(item.strip() for item in raw.split(",") if item.strip())
    return typ(raw)


class ProblemRejected(ValueError):
    """Problem cannot be loaded under the current configuration."""


def earns_reward(output: TypedValue, problem: Problem) -> bool:
    """The reward rule: a graph's output earns 1 exactly when its canonical
    rendering equals the problem's answer text."""
    return render(output) == problem.answer.strip()


def action_mask(registry: Registry, inputs, n_inputs: int, graph: ComputeGraph) -> np.ndarray:
    """Validity vector for the next action against a graph under
    construction: operators only at the root, then subtype checks against
    the next open slot; input positions past the problem's inputs are
    always False."""
    n_ops = registry.n_ops
    mask = np.zeros(n_ops + n_inputs, dtype=bool)
    if not graph.nodes:
        mask[:n_ops] = True
        return mask
    slot_type = graph.next_slot_type()
    if slot_type is None:
        return mask
    mask[:n_ops] = registry.operator_row(slot_type)
    for i, value in enumerate(inputs):
        mask[n_ops + i] = is_subtype(value.kind, slot_type)
    return mask


@dataclass
class EpisodeState:
    problem: Problem
    graph: ComputeGraph
    question: object  # raw text, or its token indices as a tuple; encoded once at reset
    history: list = field(default_factory=list)
    done: bool = False


def is_multivariate_differentiate(problem: Problem) -> bool:
    if problem.module != "calculus__differentiate":
        return False
    for v in problem.inputs:
        if v.kind == EXPRESSION and len(free_symbols(v.payload)) > 1:
            return True
    return False


class Environment:
    """One single-threaded episode at a time; instances share nothing.

    A BPE codec is given exactly when config.encoded_observations is set;
    reset encodes the question once into the episode state."""

    def __init__(
        self,
        registry: Registry | None = None,
        config: EnvConfig | None = None,
        codec: BpeCodec | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.config = config if config is not None else EnvConfig()
        self.codec = codec
        if (codec is not None) != self.config.encoded_observations:
            raise ValueError("a BPE codec is given exactly when observations are encoded")
        if codec is not None and codec.max_len > self.config.max_question_tokens:
            raise ValueError(
                f"codec max_len {codec.max_len} exceeds max_question_tokens "
                f"{self.config.max_question_tokens}"
            )
        self.state: EpisodeState | None = None

    @property
    def n_ops(self) -> int:
        return self.registry.n_ops

    @property
    def n_actions(self) -> int:
        return self.registry.n_ops + self.config.n_inputs

    def _observation(self) -> Observation:
        st = self.state
        return Observation(st.question, tuple(st.history), self.config.encoded_observations)

    def check(self, problem: Problem):
        """Raise ProblemRejected if this configuration cannot load the problem."""
        if len(problem.inputs) > self.config.n_inputs:
            raise ProblemRejected(
                f"{problem.module or 'the'} problem has {len(problem.inputs)} inputs "
                f"but n_inputs is {self.config.n_inputs}"
            )
        if self.config.univariate_differentiate_only and is_multivariate_differentiate(problem):
            raise ProblemRejected("multivariate calculus__differentiate problem filtered out")

    def reset(self, problem: Problem) -> Observation:
        self.check(problem)
        question = problem.question
        if self.codec is not None:
            question = tuple(self.codec.encode(question))
        self.state = EpisodeState(problem, ComputeGraph(), question)
        return self._observation()

    def step(self, action: int):
        """Returns (observation, reward, done, info).  info["mask"] is the
        next action's validity vector, None once done; the final step adds
        info["output"] and info["graph"], the graph text with '?' for each
        slot left open."""
        st = self.state
        if st is None:
            raise RuntimeError("call reset() before step()")
        if st.done:
            raise RuntimeError("episode is finished; call reset()")
        action = int(action)
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside [0, {self.n_actions})")

        if action < self.n_ops:
            node = self.registry[action]
        else:
            i = action - self.n_ops
            node = st.problem.inputs[i] if i < len(st.problem.inputs) else ABSENT

        st.history.append(action)
        try:
            st.graph.add_node(node)
        except StructuralError:  # an input as root: the graph stays empty
            st.done = True
        if not (st.done or st.graph.is_complete or len(st.graph) >= self.config.max_nodes):
            return self._observation(), 0, False, {"mask": self.compute_mask()}
        st.done = True
        # a graph cut short, by an input at the root or the node limit, outputs None
        output = st.graph.evaluate()
        reward = int(st.graph.is_complete and earns_reward(output, st.problem))
        info = {"mask": None, "output": render(output), "graph": st.graph.partial_text()}
        return self._observation(), reward, True, info

    def compute_mask(self) -> np.ndarray:
        """Boolean validity vector over the action space for the next
        action; masked actions may still be taken."""
        st = self.state
        if st is None or st.done:
            raise RuntimeError("mask is only defined for an active episode")
        return action_mask(self.registry, st.problem.inputs, self.config.n_inputs, st.graph)

    def replay(self, problem: Problem, actions) -> tuple:
        """Run a full episode from an action sequence; returns
        (final reward, info of the last step)."""
        self.reset(problem)
        reward, info = 0, {}
        for action in actions:
            _, reward, done, info = self.step(action)
            if done:
                break
        return reward, info
