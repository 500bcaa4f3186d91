import hashlib
import math
import random
from fractions import Fraction

import pytest

from mathsynth.problems import SUPPORTED_MODULES, generate
from mathsynth.values import (
    ABSENT,
    Add,
    Call,
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
    Mul,
    Num,
    Pow,
    Sym,
    TypedValue,
    TypingError,
    _mono_mul,
    _poly_mul,
    add,
    as_poly,
    boolean,
    coeffs_to_poly,
    equation_list,
    expression,
    is_subtype,
    mul,
    parse_expression,
    parse_value,
    poly_derivative,
    poly_to_coeffs,
    poly_to_expr,
    poly_vars,
    pow_,
    rational,
    rational_roots,
    render,
    render_expr,
    synthetic_div,
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


# ---------------------------------------------------------------------------
# The polynomial layer against a frozen reference: the straightforward
# implementation that builds every monomial by multiplication, merges every
# product, sends every term of poly_to_expr through mul/pow_/add and tests
# every root candidate in Fraction arithmetic.  The layer must give the same
# dicts (in the same order), the same trees and a Fraction for every
# coefficient.


def _ref_as_poly(e):
    if isinstance(e, Num):
        return {(): e.value}
    if isinstance(e, Sym):
        return {((e.name, 1),): Fraction(1)}
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            p = _ref_as_poly(t)
            if p is None:
                return None
            for m, c in p.items():
                out[m] = out.get(m, Fraction(0)) + c
        return {m: c for m, c in out.items() if c != 0} or {(): Fraction(0)}
    if isinstance(e, Mul):
        out = {(): e.coeff}
        for f in e.factors:
            p = _ref_as_poly(f)
            if p is None:
                return None
            out = _ref_poly_mul(out, p)
        return out
    if isinstance(e, Pow):
        if e.exp < 0:
            return None
        p = _ref_as_poly(e.base)
        if p is None:
            return None
        out = {(): Fraction(1)}
        for _ in range(e.exp):
            out = _ref_poly_mul(out, p)
        return out
    if isinstance(e, Call):
        return None
    raise TypeError(f"not an expression: {e!r}")


def _ref_poly_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _ref_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0} or {(): Fraction(0)}


def _ref_mono_mul(m1, m2):
    exps = dict(m1)
    for v, k in m2:
        exps[v] = exps.get(v, 0) + k
    return tuple(sorted((v, k) for v, k in exps.items() if k))


def _ref_poly_to_expr(p):
    names = poly_vars(p)

    def key(m):
        exps = dict(m)
        vec = tuple(exps.get(v, 0) for v in names)
        return (-sum(vec), tuple(-x for x in vec))

    terms = []
    for m in sorted(p, key=key):
        c = p[m]
        if c == 0 and len(p) > 1:
            continue
        terms.append(mul(Num(c), *(pow_(Sym(v), k) for v, k in m)))
    return add(*terms) if terms else Num(Fraction(0))


def _ref_rational_roots(coeffs):
    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    def eval_coeffs(coeffs, x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    work = list(coeffs)
    roots = []
    while len(work) > 1 and work[0] == 0:
        roots.append(Fraction(0))
        work = work[1:]
    while len(work) > 1:
        scale = math.lcm(*(c.denominator for c in work))
        ints = [int(c * scale) for c in work]
        a0, an = ints[0], ints[-1]
        candidates = (
            Fraction(sign * p, q) for q in divisors(an) for p in divisors(a0) for sign in (1, -1)
        )
        found = next((c for c in candidates if eval_coeffs(work, c) == 0), None)
        if found is None:
            break
        roots.append(found)
        work, _ = synthetic_div(work, found)
    return roots, work


def _fractions_in(x):
    """Every number held in a poly dict, coefficient list or expression tree."""
    if x is None or isinstance(x, Sym):
        return []
    if isinstance(x, dict):
        return list(x.values())
    if isinstance(x, (list, tuple)):
        return [f for item in x for f in _fractions_in(item)]
    if isinstance(x, Num):
        return [x.value]
    if isinstance(x, Mul):
        return [x.coeff] + _fractions_in(x.factors)
    if isinstance(x, Add):
        return _fractions_in(x.terms)
    if isinstance(x, Pow):
        return _fractions_in(x.base)
    if isinstance(x, Call):
        return _fractions_in(x.args)
    return [x]


def _assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)  # dict order, tree shape and number types
    assert all(type(c) is Fraction for c in _fractions_in(got))


def _random_poly_expr(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.25:
        if rng.random() < 0.4:
            return Num(Fraction(rng.randint(-12, 12), rng.choice((1, 1, 1, 2, 3, 7))))
        return Sym(rng.choice("abxy"))
    if roll < 0.5:
        terms = [_random_poly_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.2:  # a sum that cancels in part or in full
            terms.append(mul(Num(-1), rng.choice(terms)))
        return add(*terms)
    if roll < 0.75:
        factors = [_random_poly_expr(rng, depth + 1) for _ in range(rng.randint(1, 3))]
        return mul(Num(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5)))), *factors)
    if roll < 0.93:
        base = _random_poly_expr(rng, depth + 1)
        k = rng.randint(2, 3)
        # pow_ folds a power of a power, which a negative exponent rejects
        return Pow(base, k) if isinstance(base, Pow) else pow_(base, k)
    if rng.random() < 0.5:
        return Call(rng.choice("fg"), (_random_poly_expr(rng, depth + 1),))
    return Pow(Sym(rng.choice("abxy")), -rng.randint(1, 3))  # not a polynomial


def test_poly_layer_matches_the_reference():
    rng = random.Random(2024)
    polys = []
    n_none = 0
    for _ in range(3000):
        e = _random_poly_expr(rng)
        p = as_poly(e)
        _assert_same(p, _ref_as_poly(e))
        if p is None:
            n_none += 1
            continue
        polys.append(p)
        _assert_same(poly_to_expr(p), _ref_poly_to_expr(p))
        for v in "abxy":
            d = poly_derivative(p, v)
            _assert_same(poly_to_expr(d), _ref_poly_to_expr(d))
    assert 100 < n_none < 1500
    assert sum(p == {(): 0} for p in polys) > 50  # zero polynomials occur
    for _ in range(2000):
        a, b = rng.choice(polys), rng.choice(polys)
        _assert_same(_poly_mul(a, b), _ref_poly_mul(a, b))
        m1, m2 = rng.choice(list(a)), rng.choice(list(b))
        assert _mono_mul(m1, m2) == _ref_mono_mul(m1, m2)


def test_poly_layer_examples():
    assert as_poly(Pow(Sym("h"), 4)) == {(("h", 4),): Fraction(1)}
    assert as_poly(Sym("h")) == {(("h", 1),): Fraction(1)}
    p = {(("x", 2), ("y", 1)): Fraction(3), (("x", 1),): Fraction(1), (): Fraction(-2)}
    assert poly_to_expr(p) == Add(
        (Mul(Fraction(3), (Pow(Sym("x"), 2), Sym("y"))), Sym("x"), Num(Fraction(-2)))
    )
    assert poly_to_expr({(): Fraction(0)}) == Num(Fraction(0))
    assert poly_to_expr({(("x", 1),): Fraction(0)}) == Num(Fraction(0))
    assert poly_to_expr({(("x", 1),): Fraction(1, 2)}) == Mul(Fraction(1, 2), (Sym("x"),))


def test_num_keeps_a_fraction_and_converts_anything_else():
    f = Fraction(3, 4)
    assert Num(f).value is f
    n = Num(2)
    assert type(n.value) is Fraction and n.value == 2


def test_rational_roots_match_the_reference():
    rng = random.Random(99)
    found_repeated = 0
    for _ in range(1500):
        poly = {(): Fraction(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 1, 2, 3)))}
        roots = [
            Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(0, 4))
        ]
        if roots and rng.random() < 0.3:
            roots.append(rng.choice(roots))  # a repeated root
        for r in roots:
            poly = _poly_mul(poly, {(("x", 1),): Fraction(1), (): -r})
        if rng.random() < 0.4:  # one more factor, mostly without rational roots
            extra = [
                Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(rng.randint(2, 4))
            ]
            poly = _poly_mul(poly, coeffs_to_poly(extra, "x"))
        coeffs = poly_to_coeffs(poly, "x")
        if rng.random() < 0.2:  # leading zeros: zero low-order coefficients
            coeffs = [Fraction(0)] * rng.randint(1, 2) + coeffs
        if rng.random() < 0.1:  # a zero top coefficient
            coeffs = coeffs + [Fraction(0)]
        got = rational_roots(coeffs)
        _assert_same(got, _ref_rational_roots(coeffs))
        found_repeated += len(got[0]) > len(set(got[0]))
    assert found_repeated > 100
    for _ in range(500):  # arbitrary coefficient lists, mostly without roots
        coeffs = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))
        ]
        _assert_same(rational_roots(coeffs), _ref_rational_roots(coeffs))
