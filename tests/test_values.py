import hashlib
import random
from fractions import Fraction

import pytest

from mathsynth.problems import SUPPORTED_MODULES, generate
from mathsynth.values import (
    ABSENT,
    EQUATION,
    EXPRESSION,
    FUNCTION,
    LIST_OF_EQUATION,
    MAP_VARIABLE_TO_VALUE,
    OBJECT,
    RATIONAL,
    SET_OF_VALUE,
    VALUE,
    VARIABLE,
    MathParseError,
    TypedValue,
    TypingError,
    boolean,
    equation_list,
    expression,
    is_subtype,
    parse_expression,
    parse_value,
    rational,
    render,
    render_expr,
    value,
    value_set,
    variable,
    variable_map,
)


def test_hierarchy_examples():
    assert is_subtype(VALUE, OBJECT)
    assert is_subtype(RATIONAL, VALUE)
    assert not is_subtype(EQUATION, EXPRESSION)  # siblings under Object


def test_hierarchy_reflexive_and_transitive():
    tags = [EQUATION, EXPRESSION, FUNCTION, VALUE, VARIABLE, RATIONAL, OBJECT]
    for t in tags:
        assert is_subtype(t, t)
    assert is_subtype(RATIONAL, EXPRESSION)  # Rational < Value < Expression
    assert is_subtype(RATIONAL, OBJECT)


def test_unknown_tag_is_a_registry_bug():
    with pytest.raises(LookupError):
        is_subtype("Value", "Widget")


def test_render_examples():
    e = parse_expression("12*k - 101")
    assert render_expr(e) == "12*k - 101"
    assert render(boolean(True)) == "True"
    assert render(ABSENT) == "None"


def test_render_polynomial_order_and_spacing():
    assert render_expr(parse_expression("2548 + 6*k**2 - 101*k")) == "6*k**2 - 101*k + 2548"
    assert render_expr(parse_expression("-3*h**2/2 - 24*h - 45/2")) == "-3*h**2/2 - 24*h - 45/2"


def test_parse_value_examples():
    assert parse_value("x") == variable("x")
    f = parse_value("h(t) = t**3 + t**2 + 1")
    assert f.kind == FUNCTION
    assert render(f) == "h(t) = t**3 + t**2 + 1"
    r = parse_value("1/2")
    assert r.kind == RATIONAL and r.payload == Fraction(1, 2)


def test_parse_value_kind_collisions_need_the_expected_kind():
    assert parse_value("7").kind == VALUE
    assert parse_value("7", expected_kind=SET_OF_VALUE) == value_set([7])
    assert parse_value("7", expected_kind=RATIONAL).kind == RATIONAL
    with pytest.raises(TypingError):
        parse_value("x", expected_kind=VALUE)


def test_decimal_literals_become_exact_rationals():
    v = parse_value("1.5")
    assert v.kind == VALUE and v.payload == Fraction(3, 2)


def test_rationals_are_normalized():
    assert rational(4, 8).payload == Fraction(1, 2)
    assert rational(3, -6).payload == Fraction(-1, 2)
    assert render(rational(-1, 2)) == "-1/2"


def test_absent_renders_none():
    assert render(ABSENT) == "None"
    assert parse_value("None") is ABSENT


def test_container_renders():
    eqs = equation_list([parse_value("x = 2", EQUATION), parse_value("y = 3", EQUATION)])
    assert render(eqs) == "[x = 2, y = 3]"
    m = variable_map({"x": value(1), "y": value_set([-15, -1])})
    assert render(m) == "{x: 1, y: {-15, -1}}"
    assert render(value_set([3, 2])) == "2, 3"


def test_division_by_expression_is_rejected():
    with pytest.raises(MathParseError):
        parse_expression("1/x")
    with pytest.raises(MathParseError):
        parse_expression("x +")


def test_non_ascii_characters_are_a_parse_error():
    # str.isdigit and str.isalnum accept '²' and 'é', which the grammar does
    # not: numbers and identifiers are ASCII
    for text in ("2²", "²", "1.5²", "x²", "é"):
        with pytest.raises(MathParseError):
            parse_value(text)


_KINDS = [VALUE, RATIONAL, VARIABLE, EXPRESSION, EQUATION, FUNCTION, SET_OF_VALUE,
          LIST_OF_EQUATION, MAP_VARIABLE_TO_VALUE]


def _random_expr(rng, depth=0):
    from mathsynth.values import Num, Sym, add, mul, pow_

    roll = rng.random()
    if depth >= 2 or roll < 0.3:
        if rng.random() < 0.5:
            return Num(Fraction(rng.randint(-99, 99), rng.randint(1, 9)))
        return Sym(rng.choice("abcxyz"))
    if roll < 0.6:
        return add(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if roll < 0.85:
        return mul(Num(Fraction(rng.randint(1, 9))), _random_expr(rng, depth + 1))
    return pow_(Sym(rng.choice("abcxyz")), rng.randint(2, 4))


def _random_typed(rng, kind=None) -> TypedValue:
    kind = kind or rng.choice(_KINDS)
    if kind == VALUE:
        return value(Fraction(rng.randint(-999, 999), rng.randint(1, 99)))
    if kind == RATIONAL:
        f = Fraction(rng.randint(-99, 99), rng.randint(2, 99))
        return rational(f) if f.denominator > 1 else rational(f + Fraction(1, 2))
    if kind == VARIABLE:
        return variable(rng.choice("abcxyz"))
    if kind == EXPRESSION:
        e = _random_expr(rng)
        from mathsynth.values import Num, Sym

        while isinstance(e, (Num, Sym)):  # keep the kind honest
            e = _random_expr(rng)
        return expression(e)
    if kind == EQUATION:
        return TypedValue(EQUATION, (_random_expr(rng), _random_expr(rng)))
    if kind == FUNCTION:
        body = _random_expr(rng)
        return TypedValue(FUNCTION, (rng.choice("fgh"), rng.choice("xyz"), body))
    if kind == LIST_OF_EQUATION:
        return equation_list([_random_typed(rng, EQUATION) for _ in range(rng.randint(0, 3))])
    if kind == MAP_VARIABLE_TO_VALUE:
        return variable_map(
            {rng.choice("abcxyz"): _random_typed(rng, rng.choice((VALUE, RATIONAL, SET_OF_VALUE)))
             for _ in range(rng.randint(0, 3))}
        )
    return value_set([rng.randint(-50, 50) for _ in range(rng.randint(1, 4))])


def test_round_trip_random_values():
    # render is not injective across kinds ("7" is a Value, a Rational and a
    # singleton set), so the kind tag disambiguates the parse
    rng = random.Random(42)
    for _ in range(500):
        v = _random_typed(rng)
        back = parse_value(render(v), expected_kind=v.kind)
        assert render(back) == render(v)
        assert back.kind == v.kind


def test_round_trip_without_kind_for_unambiguous_values():
    rng = random.Random(7)
    for _ in range(200):
        v = _random_typed(rng)
        if v.kind in (EQUATION, FUNCTION, LIST_OF_EQUATION, MAP_VARIABLE_TO_VALUE):
            assert parse_value(render(v)).kind == v.kind


def test_map_entries_parse_back_by_their_text():
    # a map entry keeps its text, not its kind: value(3/2) renders as "3/2",
    # which parses back as a Rational; reward compares text, so it scores
    # the same
    m = variable_map({"x": value(Fraction(3, 2)), "y": value(2), "z": value_set([1, 2])})
    back = parse_value(render(m))
    assert render(back) == render(m) == "{x: 3/2, y: 2, z: {1, 2}}"
    assert dict(back.payload) == {"x": rational(3, 2), "y": value(2), "z": value_set([1, 2])}
    assert back != m


@pytest.mark.parametrize(
    "text", ["[x = 1", "[x + 1]", "{x: 1", "{x 1}", "{x: y}", "{x: a = 1}"]
)
def test_malformed_lists_and_maps_are_parse_errors(text):
    with pytest.raises(MathParseError):
        parse_value(text)


PARSE_DIGEST = "7d356789f6d278a75f2d89f5ef62a61344c03692819af74d8d0e7d2199bd0890"


def test_parse_value_is_pinned():
    # every answer, and every rendered input both without and with its kind,
    # over all modules and three seeds; the digest guards the lexer and the
    # typing rule
    digest = hashlib.sha256()
    n_parses = 0
    for m in SUPPORTED_MODULES:
        for seed in (0, 1, 41):
            for gp in generate(m, 300, seed):
                cases = [(gp.problem.answer, None)]
                for v in gp.problem.inputs:
                    cases += [(render(v), None), (render(v), v.kind)]
                for text, expected in cases:
                    v = parse_value(text, expected)
                    n_parses += 1
                    digest.update(f"{text}|{expected}|{v.kind}|{render(v)}\n".encode())
    assert n_parses == 46226
    assert digest.hexdigest() == PARSE_DIGEST


def test_equal_values_built_separately_hash_equal():
    def build():
        return [
            value(Fraction(-19, 36)),
            rational(3, 4),
            variable("x"),
            parse_value("6*k**2 - 101*k + 2548"),
            parse_value("2*x = 4"),
            parse_value("w(j) = 4*h(j) - v(j)"),
            value_set([3, 1, 2]),
            equation_list([parse_value("x = 1").payload]),
            variable_map({"x": Fraction(1), "y": Fraction(-2)}),
            boolean(True),
            ABSENT,
        ]

    for a, b in zip(build(), build()):
        assert a == b and hash(a) == hash(b) == hash((a.kind, a.payload))
        assert hash(a) == hash(a)  # the kept hash is the computed one
        assert {a: 1}[b] == 1
    assert len(set(build()) | set(build())) == len(build())
