import random
import re

import pytest

from mathsynth.graph import ComputeGraph, StructuralError, deserialize
from mathsynth.operators import default_registry, full_registry
from mathsynth.problems import SUPPORTED_MODULES, generate
from mathsynth.values import (
    ABSENT,
    MathParseError,
    boolean,
    expression,
    parse_expression,
    render,
    value,
    variable,
)

REG = default_registry()
FULL = full_registry()


def test_build_and_evaluate_the_derivative_graph():
    g = ComputeGraph()
    g.add_node(REG.get("differentiate"))
    assert not g.is_complete and len(g.slots[len(g) - 1 :]) == 1
    g.add_node(expression(parse_expression("6*k**2 - 101*k + 2548")))
    assert g.is_complete
    assert render(g.evaluate()) == "12*k - 101"


def test_incomplete_graph_computes_absent():
    g = ComputeGraph()
    g.add_node(REG.get("differentiate"))
    assert g.evaluate() is ABSENT


def test_not_is_prime_graph():
    g = ComputeGraph()
    g.add_node(REG.get("not_op"))
    g.add_node(REG.get("is_prime"))
    g.add_node(value(10))
    assert g.evaluate() == boolean(True)


def test_input_cannot_be_root():
    with pytest.raises(StructuralError):
        ComputeGraph().add_node(value(1))


def _snapshot(g):
    return list(g.nodes), list(g.first_slot), list(g.slots)


@pytest.mark.parametrize("module", SUPPORTED_MODULES)
def test_pop_node_undoes_add_node_at_every_prefix(module):
    gp = generate(module, 1, 3)[0]
    nodes = [REG[a] if a < REG.n_ops else gp.problem.inputs[a - REG.n_ops] for a in gp.truth_graph]
    g = ComputeGraph()
    prefixes = []
    for node in nodes:
        prefixes.append(_snapshot(g))
        g.add_node(node).pop_node()
        assert _snapshot(g) == prefixes[-1]
        g.add_node(node)
    assert g.is_complete
    for before in reversed(prefixes):
        assert _snapshot(g.pop_node()) == before


def test_pop_node_on_an_empty_graph():
    with pytest.raises(StructuralError):
        ComputeGraph().pop_node()


def test_breadth_first_slot_order():
    # gcd's two slots fill before a nested operator's slots
    g = ComputeGraph()
    g.add_node(REG.get("gcd"))
    g.add_node(REG.get("mod"))
    g.add_node(value(5))
    # open slots now: mod's two
    g.add_node(value(7))
    g.add_node(value(3))
    assert g.is_complete
    assert render(g.evaluate()) == "1"  # gcd(mod(7, 3), 5) = gcd(1, 5)


def test_static_type_violation_yields_absent():
    # is_prime returns Boolean; differentiating it cannot succeed
    g = ComputeGraph()
    g.add_node(REG.get("differentiate"))
    g.add_node(REG.get("is_prime"))
    g.add_node(value(4))
    assert g.is_complete
    assert g.evaluate() is ABSENT


def test_serialize_matches_the_nested_listing():
    g = ComputeGraph()
    g.add_node(FULL.get("differentiate_wrt"))
    g.add_node(FULL.get("differentiate_wrt"))
    g.add_node(variable("z"))
    g.add_node(expression(parse_expression("-3*z**5 + 13*z**3 + 41*z**2")))
    g.add_node(variable("z"))
    assert g.serialize() == (
        "differentiate_wrt(differentiate_wrt("
        "Expression('-3*z**5 + 13*z**3 + 41*z**2'),Variable('z')),Variable('z'))"
    )


def test_serialize_requires_an_operator_root():
    g = ComputeGraph()
    g.add_node(REG.get("differentiate"))
    with pytest.raises(StructuralError):
        g.serialize()  # incomplete
    assert g.partial_text() == "differentiate(?)"


def test_deserialize_round_trip_random_graphs():
    rng = random.Random(9)
    inputs = [
        value(6),
        value(10),
        expression(parse_expression("x**2 - 1")),
        variable("x"),
    ]
    made = 0
    while made < 200:
        g = ComputeGraph()
        g.add_node(REG[rng.randrange(REG.n_ops)])
        while not g.is_complete and len(g) < 7:
            if rng.random() < 0.6:
                g.add_node(rng.choice(inputs))
            else:
                g.add_node(REG[rng.randrange(REG.n_ops)])
        if not g.is_complete:
            continue
        made += 1
        text = g.serialize()
        back = deserialize(text, REG)
        assert back.serialize() == text
        assert back.evaluate() == g.evaluate()


def test_deserialize_rejects_malformed_text():
    with pytest.raises(MathParseError):
        deserialize("differentiate(", REG)
    with pytest.raises(MathParseError):
        deserialize("bogus_op(Value('1'))", REG)
    with pytest.raises(MathParseError):
        deserialize("gcd(Value('4'),Value('6'))x", REG)


@pytest.mark.parametrize(
    "text, message",
    [
        ("mod", "expected '('"),
        ("mod(Value('1')Value('2'))", "expected ','"),
        ("not_op(Boolean('True')", "expected ')'"),
        ("mod(Value(1),Value('2'))", "expected a quoted value"),
        ("not_op(Boolean('True)", "unterminated quoted value"),
        ("mod(Value('1'", "expected ')'"),
    ],
)
def test_deserialize_names_the_malformed_part(text, message):
    with pytest.raises(MathParseError, match=re.escape(message)):
        deserialize(text, REG)


def test_add_node_on_a_complete_graph():
    g = ComputeGraph().add_node(REG.get("is_prime")).add_node(value(7))
    assert g.is_complete
    with pytest.raises(StructuralError, match="already complete"):
        g.add_node(value(1))


def test_deserialize_rejects_too_many_nodes():
    # n not_op nodes over one leaf; at 3,000 levels the parser would also
    # exhaust its recursion
    def chain(n):
        return "not_op(" * n + "Boolean('True')" + ")" * n

    assert len(deserialize(chain(63), REG)) == 64
    for n in (64, 3000):
        with pytest.raises(StructuralError):
            deserialize(chain(n), REG)


def test_fixed_action_sequence_is_deterministic():
    def build():
        g = ComputeGraph()
        for a in [REG.get("lcm"), value(4), value(6)]:
            g.add_node(a)
        return g

    assert build().serialize() == build().serialize()
    assert build().evaluate() == build().evaluate() == value(12)


def test_sequence_count_closed_form():
    assert 18**7 == 612_220_032
