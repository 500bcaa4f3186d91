"""Compute graphs: rooted operator trees built breadth-first from action
sequences, evaluated bottom-up with Absent propagation.

Placing an operator opens one slot per parameter, and slots are filled in
the order they were opened, so node k > 0 always fills the (k - 1)-th slot
and a fixed action sequence always produces the same graph.
"""

from __future__ import annotations

import re

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
    """Invalid graph construction or text (input at root, too many nodes)."""


class ComputeGraph:
    """Partially or fully built compute graph.

    nodes holds each placed OperatorSpec or input TypedValue, first_slot the
    index of each node's first slot, and slots the (name, type) parameter
    entry of every slot opened so far.  Node k > 0 fills slots[k - 1], so
    the open slots are slots[len(nodes) - 1:].
    """

    def __init__(self):
        self.nodes: list = []
        self.first_slot: list[int] = []
        self.slots: list[tuple] = []

    def __len__(self):
        return len(self.nodes)

    def copy(self) -> "ComputeGraph":
        out = ComputeGraph()
        out.nodes, out.slots = list(self.nodes), list(self.slots)
        out.first_slot = list(self.first_slot)
        return out

    @property
    def is_complete(self) -> bool:
        return len(self.slots) < len(self.nodes)

    def next_slot_type(self) -> str | None:
        """Parameter type of the slot the next action will fill, or None at
        the root and on a complete graph."""
        n = len(self.nodes)
        return self.slots[n - 1][1] if 0 < n <= len(self.slots) else None

    def children(self, idx: int) -> range:
        """Indices of the nodes that fill node idx's slots, in parameter
        order; an index of len(self) or more is a slot still open."""
        first = self.first_slot
        end = first[idx + 1] if idx + 1 < len(first) else len(self.slots)
        return range(first[idx] + 1, end + 1)

    def add_node(self, action) -> "ComputeGraph":
        """Place an OperatorSpec or an input TypedValue into the earliest
        open slot (or as root)."""
        if not self.nodes:
            if not isinstance(action, OperatorSpec):
                raise StructuralError("the root node must be an operator")
        elif self.is_complete:
            raise StructuralError("graph is already complete")
        self.nodes.append(action)
        self.first_slot.append(len(self.slots))
        if isinstance(action, OperatorSpec):
            self.slots.extend(action.params)
        return self

    def pop_node(self) -> "ComputeGraph":
        """Undo the last add_node: drop the node and the slots it opened,
        which reopens the slot it filled."""
        if not self.nodes:
            raise StructuralError("graph is empty")
        self.nodes.pop()
        del self.slots[self.first_slot.pop() :]
        return self

    def evaluate(self, memo: dict | None = None) -> TypedValue:
        """Bottom-up evaluation; incomplete graphs and type-violating
        placements compute Absent.

        memo, if given, maps (operator name, *argument values) to the
        operator's output and is filled as evaluation goes.  Operators are
        pure and values compare structurally, so one memo may serve every
        graph built over one registry."""
        if not self.is_complete:
            return ABSENT
        return self._eval_node(0, memo)

    def _eval_node(self, idx: int, memo: dict | None) -> TypedValue:
        node = self.nodes[idx]
        if not isinstance(node, OperatorSpec):
            return node
        args = []
        for child_idx in self.children(idx):
            child = self.nodes[child_idx]
            kind = child.return_type if isinstance(child, OperatorSpec) else child.kind
            # the same subtype check the mask applies at placement time
            if is_subtype(kind, self.slots[child_idx - 1][1]):
                args.append(self._eval_node(child_idx, memo))
            else:
                args.append(ABSENT)
        if memo is None:
            return node.eval(*args)
        key = (node.name, *args)
        out = memo.get(key)
        if out is None:
            out = memo[key] = node.eval(*args)
        return out

    # -- text form ----------------------------------------------------------

    def serialize(self) -> str:
        """Nested functional notation; requires a complete graph."""
        if not self.is_complete:
            raise StructuralError("cannot serialize an incomplete graph")
        return self._node_text(0, placeholder=None)

    def partial_text(self) -> str:
        """Informational text form; unfilled slots shown as '?'."""
        if not self.nodes:
            return ""
        return self._node_text(0, placeholder="?")

    def _node_text(self, idx: int, placeholder: str | None) -> str:
        node = self.nodes[idx]
        if not isinstance(node, OperatorSpec):
            return f"{node.kind}('{render(node)}')"
        parts = [
            self._node_text(c, placeholder) if c < len(self.nodes) else placeholder
            for c in self.children(idx)
        ]
        return f"{node.name}({','.join(parts)})"


MAX_TEXT_NODES = 64  # deserialize's bound on the nodes of one graph text


def deserialize(text: str, registry: Registry) -> ComputeGraph:
    """Parse the nested functional notation back into a graph (round-trip
    of serialize).  A text of more than MAX_TEXT_NODES nodes raises
    StructuralError as soon as the parser reaches one node more, which also
    bounds the parser's recursion depth."""
    tree, pos, _ = _parse_tree(text, 0, registry, MAX_TEXT_NODES)
    if pos != len(text):
        raise MathParseError("trailing input after graph", pos)
    graph = ComputeGraph()
    queue = [tree]  # replayed in breadth-first order: the loop reaches appended trees
    for action, children in queue:
        graph.add_node(action)
        queue.extend(children)
    if not graph.is_complete:
        raise MathParseError("serialized graph is incomplete", len(text))
    return graph


_NAME = re.compile(r"[A-Za-z0-9_]+")


def _parse_tree(text: str, pos: int, registry: Registry, budget: int):
    """Returns ((action, child trees), new position, nodes still allowed
    after this subtree); budget is the number of nodes still allowed."""
    if budget < 1:
        raise StructuralError(f"graph text exceeds the node limit at position {pos}")
    budget -= 1
    m = _NAME.match(text, pos)
    if m is None:
        raise MathParseError("expected an operator or value kind name", pos)
    name, end = m.group(), m.end()
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
            sub, pos, budget = _parse_tree(text, pos, registry, budget)
            children.append(sub)
        if pos >= len(text) or text[pos] != ")":
            raise MathParseError("expected ')'", pos)
        return (spec, children), pos + 1, budget
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
    return (parse_value(payload, expected_kind=name), []), pos + 1, budget
