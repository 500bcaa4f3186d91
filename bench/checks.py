"""Output checks made apart from the program.

Each check takes plain outputs and returns True when they are right.  None
of them reuses the code path it judges: answers come from the problem
generators (module-local arithmetic, not the operator library), search
totals from a count of well-typed trees built here from operator
signatures, and the rest are properties the method must have.
"""

from __future__ import annotations

import math
from functools import lru_cache

# The type hierarchy as the package documents it: Object above everything,
# Value and Variable below Expression, Rational below Value.
_PARENT = {
    "Equation": "Object",
    "Expression": "Object",
    "Function": "Object",
    "ListOfEquation": "Object",
    "MapVariableToValue": "Object",
    "Boolean": "Object",
    "SetOfValue": "Object",
    "Absent": "Object",
    "Value": "Expression",
    "Variable": "Expression",
    "Rational": "Value",
}


def fits(kind: str, slot: str) -> bool:
    """A value of `kind` may fill a slot of type `slot`."""
    while kind != slot:
        if kind == "Object":
            return False
        kind = _PARENT[kind]
    return True


def count_typed_trees(signatures, input_kinds, max_nodes: int) -> int:
    """Well-typed graphs with an operator at the root and at most max_nodes
    nodes.  signatures: (parameter types, return type) per operator;
    input_kinds: the kind of each problem input.  This is the number of
    complete graphs a masked enumeration must visit."""
    signatures = tuple((tuple(p), r) for p, r in signatures)
    input_kinds = tuple(input_kinds)

    @lru_cache(maxsize=None)
    def trees(slot: str, n: int) -> int:
        """Trees of exactly n nodes that fit a slot of type `slot`."""
        total = sum(1 for k in input_kinds if fits(k, slot)) if n == 1 else 0
        for params, ret in signatures:
            if fits(ret, slot):
                total += filled(params, n - 1)
        return total

    @lru_cache(maxsize=None)
    def filled(params: tuple, n: int) -> int:
        """Ways to fill the slots `params` with n nodes in all."""
        if not params:
            return 1 if n == 0 else 0
        head, rest = params[0], params[1:]
        return sum(trees(head, k) * filled(rest, n - k) for k in range(1, n - len(rest) + 1))

    return sum(filled(params, n - 1) for n in range(1, max_nodes + 1) for params, _ in signatures)


def placed_masked_action(actions, masks_before) -> bool:
    return any(not mask[a] for a, mask in zip(actions, masks_before))


def episode_ok(actions, masks_before, reward, output, answer) -> bool:
    """An episode that placed a masked action outputs None with reward 0;
    a rewarded episode outputs the stored answer."""
    if placed_masked_action(actions, masks_before) and (output != "None" or reward != 0):
        return False
    return reward != 1 or output == answer.strip()


def truth_replay_ok(reward, output, answer) -> bool:
    return reward == 1 and output == answer.strip()


def first_solution_ok(actions, replay_reward, truth_length) -> bool:
    """Iterative deepening returns a minimal solution: it replays to reward 1
    and is no longer than the problem's truth graph."""
    return actions is not None and replay_reward == 1 and len(actions) <= truth_length


def mined_operator_ok(mined_outputs, chain_outputs, answers) -> bool:
    """The mined operator computes its expanded chain, and both give the
    generator's answer, on every corpus problem."""
    return len(mined_outputs) == len(chain_outputs) == len(answers) and all(
        m == c == a for m, c, a in zip(mined_outputs, chain_outputs, answers)
    )


def compression_ok(before, after, after_reward, max_nodes) -> bool:
    """A reward-1 solution within max_nodes exists only once the mined
    operator is registered."""
    return before is None and after is not None and len(after) <= max_nodes and after_reward == 1


def training_ok(env_steps, total_steps, losses, best_reward, threshold) -> bool:
    return (
        env_steps == total_steps
        and bool(losses)
        and all(math.isfinite(x) for x in losses)
        and best_reward >= threshold
    )
