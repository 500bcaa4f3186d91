"""Frequent-subgraph mining over rewarded compute graphs, and abstraction
of mined templates into new registered operators.

A pattern is a rooted connected set of operator nodes; excluded children
become parameter placeholders.  Within one occurrence, syntactically
identical cut subtrees share a placeholder (so a repeated variable leaf
becomes one parameter); placeholders are numbered in depth-first order of
first appearance.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .graph import ComputeGraph, deserialize
from .operators import OperatorSpec, Registry
from .values import OBJECT, is_subtype


@dataclass(frozen=True)
class TemplateNode:
    spec: OperatorSpec
    children: tuple  # each entry: int placeholder id or TemplateNode


def template_text(node) -> str:
    if isinstance(node, int):
        return f"p{node}"
    parts = ",".join(template_text(c) for c in node.children)
    return f"{node.spec.name}({parts})"


def template_size(node) -> int:
    if isinstance(node, int):
        return 0
    return 1 + sum(template_size(c) for c in node.children)


def _placeholder_slot_types(node: TemplateNode, out: dict) -> dict:
    for (_, ptype), child in zip(node.spec.params, node.children):
        if isinstance(child, int):
            out.setdefault(child, []).append(ptype)
        else:
            _placeholder_slot_types(child, out)
    return out


def _type_meet(tags) -> str | None:
    meet = OBJECT
    for t in tags:
        if is_subtype(t, meet):
            meet = t
        elif not is_subtype(meet, t):
            return None  # incomparable constraints
    return meet


@dataclass(frozen=True)
class MinedOperator:
    """A frequent rewarded subgraph abstracted into an operator template."""

    template: TemplateNode
    support: int
    param_types: tuple  # type tag per placeholder

    @property
    def size(self) -> int:
        """Operator nodes in the template."""
        return template_size(self.template)

    @property
    def return_type(self) -> str:
        return self.template.spec.return_type

    @property
    def arity(self) -> int:
        return len(self.param_types)

    @property
    def text(self) -> str:
        return template_text(self.template)

    def default_name(self) -> str:
        return f"{self.template.spec.name}_{self.size}"

    def to_operator_spec(self, name: str | None = None) -> OperatorSpec:
        template = self.template
        params = tuple((f"p{i}", t) for i, t in enumerate(self.param_types))

        def fn(*args):
            return _eval_template(template, args)

        return OperatorSpec(
            name=name or self.default_name(),
            params=params,
            return_type=self.return_type,
            fn=fn,
            expansion=self.text,
        )


def _eval_template(node, args):
    child_values = [
        args[c] if isinstance(c, int) else _eval_template(c, args) for c in node.children
    ]
    return node.spec.eval(*child_values)


# ---------------------------------------------------------------------------
# enumeration and counting


def _patterns_at(graph: ComputeGraph, idx: int) -> list:
    """All patterns rooted at operator node idx, as templates whose cut
    children are the text of the subtree they cut off."""
    per_child = []
    for child in graph.children(idx):
        options = [graph._node_text(child, placeholder=None)]
        if isinstance(graph.nodes[child], OperatorSpec):
            options.extend(_patterns_at(graph, child))
        per_child.append(options)
    return [TemplateNode(graph.nodes[idx], combo) for combo in product(*per_child)]


def _numbered(node, ids: dict):
    """The pattern with each cut subtree's text replaced by its placeholder
    id; ids follow depth-first first appearance, so identical subtrees share
    one."""
    if isinstance(node, str):
        return ids.setdefault(node, len(ids))
    return TemplateNode(node.spec, tuple(_numbered(c, ids) for c in node.children))


def mine(rewarded_graphs, min_support: int = 10, min_size: int = 2) -> list:
    """Frequent templates over a corpus of complete rewarded graphs, ranked
    by support, then size, then text."""
    counts = Counter()
    exemplar = {}
    for graph in rewarded_graphs:
        for idx, node in enumerate(graph.nodes):
            if isinstance(node, OperatorSpec):
                for pattern in _patterns_at(graph, idx):
                    template = _numbered(pattern, {})
                    key = template_text(template)
                    counts[key] += 1
                    exemplar.setdefault(key, template)
    out = []
    for key, support in counts.items():
        template = exemplar[key]
        if support < min_support or template_size(template) < min_size:
            continue
        slot_types = _placeholder_slot_types(template, {})
        param_types = tuple(_type_meet(slot_types[i]) for i in range(len(slot_types)))
        if None not in param_types:  # no placeholder with incomparable types
            out.append(MinedOperator(template, support, param_types))
    out.sort(key=lambda m: (-m.support, -m.size, m.text))
    return out


MAX_MINED_ARITY = 2  # the action grammar supports the same arities as base operators


def register(mined: MinedOperator, registry: Registry, name: str | None = None):
    """Extend the registry with a mined operator at the next free index;
    returns (new registry, new spec)."""
    if mined.arity > MAX_MINED_ARITY:
        raise ValueError(
            f"template arity {mined.arity} exceeds the supported maximum of {MAX_MINED_ARITY}"
        )
    spec = mined.to_operator_spec(name)
    return registry.extend(spec), spec


def mine_episode_log(lines, registry: Registry, min_support: int = 10, min_size: int = 2) -> list:
    """Mine from structured episode-log JSON lines (reward-1 records only)."""
    graphs = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or not isinstance(record.get("graph", ""), str):
                raise ValueError("not an object with a string graph")
            if record.get("reward") == 1 and record.get("graph"):
                graphs.append(deserialize(record["graph"], registry))
        except ValueError as exc:  # bad JSON, record shape or graph text
            raise ValueError(f"episode log line {number}: {exc}") from exc
    return mine(graphs, min_support=min_support, min_size=min_size)
