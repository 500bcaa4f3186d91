import random
from fractions import Fraction

import pytest

from mathsynth.values import (
    ABSENT,
    EQUATION,
    EXPRESSION,
    FUNCTION,
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


def test_non_ascii_digits_are_a_parse_error():
    # str.isdigit accepts '²', which int() then rejects with a bare ValueError
    for text in ("2²", "²", "1.5²"):
        with pytest.raises(MathParseError):
            parse_value(text)


_KINDS = [VALUE, RATIONAL, VARIABLE, EXPRESSION, EQUATION, FUNCTION, SET_OF_VALUE]


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


def _random_typed(rng) -> TypedValue:
    kind = rng.choice(_KINDS)
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
        if v.kind in (EQUATION, FUNCTION):
            assert parse_value(render(v)).kind == v.kind
