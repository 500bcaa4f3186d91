"""Compute graphs: rooted operator trees built breadth-first from action
sequences, evaluated bottom-up with Absent propagation.

The frontier is a FIFO queue of unfilled parameter slots; placing an
operator enqueues its slots at the back, so a fixed action sequence always
produces the same graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .operators import OperatorSpec, Registry
from .values import (
    ABSENT,
    TYPE_TAGS,
    MathParseError,
    TypedValue,
    is_subtype,
    parse_value,
    render,
)


class StructuralError(ValueError):
    """Invalid graph construction (input at root, node limit exceeded)."""


@dataclass
class _Node:
    spec: OperatorSpec | None  # None for input nodes
    value: TypedValue | None
    children: list  # node indices, one per parameter slot

    @property
    def is_operator(self) -> bool:
        return self.spec is not None

    def static_type(self) -> str:
        return self.spec.return_type if self.spec else self.value.kind


class ComputeGraph:
    """Partially or fully built compute graph (max_nodes default 7)."""

    def __init__(self, max_nodes: int = 7):
        self.max_nodes = max_nodes
        self.nodes: list[_Node] = []
        self.frontier: deque = deque()  # (node_index, slot_index)

    def __len__(self):
        return len(self.nodes)

    def copy(self) -> "ComputeGraph":
        out = ComputeGraph(max_nodes=self.max_nodes)
        out.nodes = [_Node(n.spec, n.value, list(n.children)) for n in self.nodes]
        out.frontier = deque(self.frontier)
        return out

    @property
    def is_complete(self) -> bool:
        return bool(self.nodes) and not self.frontier

    def next_slot_type(self) -> str | None:
        """Parameter type of the slot the next action will fill, or None at
        the root."""
        if not self.frontier:
            return None
        node_idx, slot_idx = self.frontier[0]
        return self.nodes[node_idx].spec.params[slot_idx][1]

    def add_node(self, action) -> "ComputeGraph":
        """Place an OperatorSpec or an input TypedValue into the earliest
        frontier slot (or as root)."""
        if len(self.nodes) >= self.max_nodes:
            raise StructuralError(f"node limit of {self.max_nodes} exceeded")
        if not self.nodes:
            if not isinstance(action, OperatorSpec):
                raise StructuralError("the root node must be an operator")
        elif not self.frontier:
            raise StructuralError("graph is already complete")
        if isinstance(action, OperatorSpec):
            node = _Node(action, None, [None] * action.arity)
        else:
            node = _Node(None, action, [])
        idx = len(self.nodes)
        self.nodes.append(node)
        if idx > 0:
            parent_idx, slot_idx = self.frontier.popleft()
            self.nodes[parent_idx].children[slot_idx] = idx
        if node.is_operator:
            for slot in range(node.spec.arity):
                self.frontier.append((idx, slot))
        return self

    def pop_node(self) -> "ComputeGraph":
        """Undo the last add_node: drop the node and its open slots, and
        reopen the parent slot it filled at the front of the frontier."""
        if not self.nodes:
            raise StructuralError("graph is empty")
        node = self.nodes.pop()
        for _ in node.children:
            self.frontier.pop()
        idx = len(self.nodes)
        for parent_idx in range(idx - 1, -1, -1):
            children = self.nodes[parent_idx].children
            if idx in children:
                slot = children.index(idx)
                children[slot] = None
                self.frontier.appendleft((parent_idx, slot))
                break
        return self

    def evaluate(self) -> TypedValue:
        """Bottom-up evaluation; incomplete graphs and type-violating
        placements compute Absent."""
        if not self.is_complete:
            return ABSENT
        return self._eval_node(0)

    def _eval_node(self, idx: int) -> TypedValue:
        node = self.nodes[idx]
        if not node.is_operator:
            return node.value
        args = []
        for slot, child_idx in enumerate(node.children):
            child = self.nodes[child_idx]
            required = node.spec.params[slot][1]
            # the same subtype check the mask applies at placement time
            if not is_subtype(child.static_type(), required):
                args.append(ABSENT)
            else:
                args.append(self._eval_node(child_idx))
        return node.spec.eval(*args)

    # -- text form ----------------------------------------------------------

    def serialize(self) -> str:
        """Nested functional notation; requires a complete operator-rooted
        graph."""
        if not self.is_complete:
            raise StructuralError("cannot serialize an incomplete graph")
        if not self.nodes[0].is_operator:
            raise StructuralError("cannot serialize an input-only graph")
        return self._node_text(0, placeholder=None)

    def partial_text(self) -> str:
        """Informational text form; unfilled slots shown as '?'."""
        if not self.nodes:
            return ""
        return self._node_text(0, placeholder="?")

    def _node_text(self, idx: int, placeholder: str | None) -> str:
        node = self.nodes[idx]
        if not node.is_operator:
            return f"{node.value.kind}('{render(node.value)}')"
        parts = []
        for child_idx in node.children:
            if child_idx is None:
                parts.append(placeholder)
            else:
                parts.append(self._node_text(child_idx, placeholder))
        return f"{node.spec.name}({','.join(parts)})"


def deserialize(text: str, registry: Registry, max_nodes: int = 64) -> ComputeGraph:
    """Parse the nested functional notation back into a graph (round-trip
    of serialize)."""
    tree, pos = _parse_tree(text, 0, registry)
    if pos != len(text):
        raise MathParseError("trailing input after graph", pos)
    graph = ComputeGraph(max_nodes=max_nodes)
    queue = deque([tree])  # replay in breadth-first order
    while queue:
        action, children = queue.popleft()
        graph.add_node(action)
        queue.extend(children)
    if not graph.is_complete:
        raise MathParseError("serialized graph is incomplete", len(text))
    return graph


def _parse_tree(text: str, pos: int, registry: Registry):
    """Returns ((action, child trees), new position)."""
    end = pos
    while end < len(text) and (text[end].isalnum() or text[end] == "_"):
        end += 1
    name = text[pos:end]
    if not name:
        raise MathParseError("expected an operator or value kind name", pos)
    if end >= len(text) or text[end] != "(":
        raise MathParseError("expected '('", end)
    if name in registry:
        spec = registry.get(name)
        pos = end + 1
        children = []
        for slot in range(spec.arity):
            if slot:
                if pos >= len(text) or text[pos] != ",":
                    raise MathParseError("expected ','", pos)
                pos += 1
            sub, pos = _parse_tree(text, pos, registry)
            children.append(sub)
        if pos >= len(text) or text[pos] != ")":
            raise MathParseError("expected ')'", pos)
        return (spec, children), pos + 1
    # input leaf: Kind('rendered text')
    if name not in TYPE_TAGS:
        raise MathParseError(f"unknown operator or value kind: {name!r}", pos)
    pos = end + 1
    if pos >= len(text) or text[pos] != "'":
        raise MathParseError("expected a quoted value", pos)
    try:
        close = text.index("'", pos + 1)
    except ValueError:
        raise MathParseError("unterminated quoted value", pos) from None
    payload = text[pos + 1 : close]
    pos = close + 1
    if pos >= len(text) or text[pos] != ")":
        raise MathParseError("expected ')'", pos)
    return (parse_value(payload, expected_kind=name), []), pos + 1
