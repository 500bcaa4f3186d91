import hashlib
import random
from fractions import Fraction
from itertools import product

from mathsynth.operators import ALL_OPERATOR_NAMES, default_registry, full_registry
from mathsynth.problems import SUPPORTED_MODULES, differentiate_wrt_problems, generate
from mathsynth.values import (
    ABSENT,
    ABSENT_KIND,
    EQUATION,
    TypedValue,
    _render_text,
    Call,
    Num,
    Sym,
    as_poly,
    boolean,
    equation_list,
    expression,
    is_subtype,
    parse_expression,
    parse_value,
    poly_eval,
    poly_to_coeffs,
    rational,
    render,
    replace_subtree,
    value,
    value_set,
    variable,
    variable_map,
)

REG = full_registry()


def op(name):
    return REG.get(name)


def expr(text):
    return expression(parse_expression(text))


def eq(text):
    return parse_value(text, expected_kind=EQUATION)


def test_default_registry_is_the_experiment_action_space():
    reg = default_registry()
    assert reg.n_ops == 15
    assert reg.index_of("lookup_value") == 0
    assert reg.index_of("differentiate") == 5
    assert reg.index_of("not_op") == 14
    assert "differentiate_wrt" not in reg


def test_registry_manifest_lists_index_and_signature():
    manifest = default_registry().manifest()
    lines = manifest.strip().splitlines()
    assert len(lines) == 15
    assert lines[5].startswith("5\tdifferentiate(expression: Expression) -> Expression")


def test_lookup_value():
    m = variable_map({"x": value(2)})
    assert op("lookup_value").eval(m, variable("x")) == value(2)
    assert op("lookup_value").eval(m, variable("y")) is ABSENT


def test_solve_system():
    assert op("solve_system").eval(equation_list([eq("x = 2")])) == variable_map({"x": value(2)})
    got = op("solve_system").eval(equation_list([eq("2*x + y = 3"), eq("x - y = 0")]))
    assert got == variable_map({"x": value(1), "y": value(1)})
    assert op("solve_system").eval(equation_list([eq("x = 1"), eq("x = 2")])) is ABSENT


def test_solve_system_polynomial_roots():
    got = op("solve_system").eval(equation_list([eq("x**2 - 3*x + 2 = 0")]))
    assert got == variable_map({"x": value_set([1, 2])})
    # repeated root collapses to a single value
    got = op("solve_system").eval(equation_list([eq("x**2 - 2*x + 1 = 0")]))
    assert got == variable_map({"x": value(1)})
    # irrational roots are out of scope
    assert op("solve_system").eval(equation_list([eq("x**2 - 2 = 0")])) is ABSENT


def test_append_ops():
    e1, e2 = eq("x = 1"), eq("y = 2")
    single = op("append_to_empty_list").eval(e1)
    assert single == equation_list([e1])
    both = op("append").eval(single, e2)
    assert both == equation_list([e1, e2])
    assert len(both.payload) == len(single.payload) + 1


def test_factor_examples():
    assert render(op("factor").eval(expr("x**2 - 1"))) == "(x - 1)*(x + 1)"
    assert render(op("factor").eval(expr("x"))) == "x"
    assert render(op("factor").eval(expr("2*x**2 + 2*x"))) == "2*x*(x + 1)"


def test_factor_repeated_roots_group_into_powers():
    assert render(op("factor").eval(expr("x**2 - 2*x + 1"))) == "(x - 1)**2"
    assert render(op("factor").eval(expr("2*x**2 + 3*x + 1"))) == "(x + 1)*(2*x + 1)"


def test_differentiate():
    assert render(op("differentiate").eval(expr("6*k**2 - 101*k + 2548"))) == "12*k - 101"
    assert op("differentiate").eval(value(5)) == value(0)
    assert op("differentiate").eval(expr("x*y + 1")) is ABSENT  # multivariate


def test_number_theory_examples():
    assert op("mod").eval(value(7), value(3)) == value(1)
    assert op("mod").eval(value(6), value(3)) == value(0)
    assert op("mod").eval(variable("x"), value(3)) is ABSENT
    assert op("gcd").eval(value(12), value(18)) == value(6)
    assert op("divides").eval(value(10), value(5340)) == boolean(True)
    assert op("divides").eval(value(3), value(7)) == boolean(False)
    assert op("is_prime").eval(value(10)) == boolean(False)
    assert op("is_prime").eval(value(2)) == boolean(True)
    assert op("is_prime").eval(value(97)) == boolean(True)
    assert op("lcm").eval(value(4), value(6)) == value(12)
    assert op("lcd").eval(rational(1, 2), rational(1, 3)) == value(6)
    assert op("lcd").eval(rational(1, 2), rational(3, 2)) == value(2)
    assert op("lcd").eval(rational(2), rational(1, 3)) == value(3)
    assert op("prime_factors").eval(value(12)) == value_set([2, 3])
    assert op("prime_factors").eval(value(7)) == value_set([7])
    assert op("prime_factors").eval(value(1)) == value_set([])


def test_evaluate_function():
    f = parse_value("f(x) = 2*x + 1")
    assert op("evaluate_function").eval(f, expression(Call("f", (Num(Fraction(2)),)))) == value(5)
    ident = parse_value("f(x) = x")
    assert op("evaluate_function").eval(ident, value(3)) == value(3)
    assert op("evaluate_function").eval(f, expression(Call("g", (Num(Fraction(2)),)))) is ABSENT
    # non-constant after substitution is out of the declared Value range
    assert op("evaluate_function").eval(parse_value("f(x) = x + y"), value(1)) is ABSENT


def test_not_op():
    assert op("not_op").eval(boolean(True)) == boolean(False)
    assert op("not_op").eval(boolean(False)) == boolean(True)
    for b in (True, False):
        assert op("not_op").eval(op("not_op").eval(boolean(b))) == boolean(b)


def test_differentiate_wrt():
    e = expr("-3*z**5 + 13*z**3 + 41*z**2")
    once = op("differentiate_wrt").eval(e, variable("z"))
    twice = op("differentiate_wrt").eval(once, variable("z"))
    assert render(twice) == "-60*z**3 + 78*z + 82"
    assert render(op("differentiate_wrt").eval(expr("x*y"), variable("y"))) == "x"
    assert op("differentiate_wrt").eval(value(5), variable("z")) == value(0)


def test_make_equation_preserves_sides():
    got = op("make_equation").eval(expr("2*x"), variable("y"))
    assert render(got) == "2*x = y"
    got = op("make_equation").eval(expr("x + x"), value(2))
    assert render(got) == "x + x = 2"  # unsimplified


def test_simplify():
    assert render(op("simplify").eval(expr("2*x + x"))) == "3*x"
    assert op("simplify").eval(value(3)) == value(3)
    e = expr("(x + 1)*(x + 1)")
    once = op("simplify").eval(e)
    assert render(once) == "x**2 + 2*x + 1"
    assert op("simplify").eval(once) == once  # idempotent


def test_make_function_and_replace_arg():
    head = expression(Call("f", (Sym("x"),)))
    f = op("make_function").eval(head, expr("2*x"))
    assert render(f) == "f(x) = 2*x"
    assert op("make_function").eval(value(2), expr("2*x")) is ABSENT
    g = op("replace_arg").eval(parse_value("f(t) = t + 1"), variable("x"))
    assert render(g) == "f(x) = x + 1"
    same = op("replace_arg").eval(parse_value("f(x) = x"), variable("x"))
    assert render(same) == "f(x) = x"
    # renaming to a variable free in the body would capture it
    assert op("replace_arg").eval(parse_value("f(t) = t + x"), variable("x")) is ABSENT


def test_lookup_value_equation():
    m = variable_map({"x": value(2), "y": value(1)})
    assert render(op("lookup_value_equation").eval(m, variable("x"))) == "x = 2"
    assert op("lookup_value_equation").eval(m, variable("z")) is ABSENT


def test_extract_isolated_variable():
    assert op("extract_isolated_variable").eval(eq("x = 2*y + 1")) == variable("x")
    assert op("extract_isolated_variable").eval(eq("2*y + 1 = x")) == variable("x")
    assert op("extract_isolated_variable").eval(eq("2*x = y + 1")) is ABSENT
    assert op("extract_isolated_variable").eval(eq("x = y")) is ABSENT


def test_substitution_left_to_right():
    got = op("substitution_left_to_right").eval(expr("x + 1"), eq("x = 2"))
    assert render(got) == "3"
    assert op("substitution_left_to_right").eval(variable("y"), eq("x = 2")) == variable("y")
    got = op("substitution_left_to_right").eval(expr("x*x"), eq("x = t + 1"))
    assert render(got) == "(t + 1)*(t + 1)"


SOME_ARGS = [
    value(6),
    value(0),
    rational(1, 2),
    variable("x"),
    expr("x**2 - 1"),
    eq("x = 2"),
    parse_value("f(x) = 2*x + 1"),
    boolean(True),
    equation_list([]),
    variable_map({"x": value(2)}),
    value_set([2, 3]),
    ABSENT,
]


def test_absorption_and_totality():
    # Absent absorbs through every operator; ill-typed tuples never raise
    rng = random.Random(0)
    for spec in REG:
        args = [ABSENT] * spec.arity
        assert spec.eval(*args) is ABSENT
        for _ in range(40):
            picked = [rng.choice(SOME_ARGS) for _ in range(spec.arity)]
            out = spec.eval(*picked)
            assert isinstance(out, type(ABSENT))  # a TypedValue, never a raise
            if any(a is ABSENT for a in picked):
                assert out is ABSENT


def test_purity_and_type_soundness():
    rng = random.Random(1)
    for spec in REG:
        for _ in range(25):
            picked = [rng.choice(SOME_ARGS) for _ in range(spec.arity)]
            a = spec.eval(*picked)
            b = spec.eval(*picked)
            assert a == b
            if a is not ABSENT:
                assert is_subtype(a.kind, spec.return_type)


def test_number_theory_cross_checks_small_range():
    # full 1..10000 sweep lives in the acceptance suite
    for n in range(1, 400):
        pf = op("prime_factors").eval(value(n)).payload
        assert (op("is_prime").eval(value(n)) == boolean(True)) == (pf == (Fraction(n),))
        a, b = n, 401 - n
        g = op("gcd").eval(value(a), value(b)).payload
        l = op("lcm").eval(value(a), value(b)).payload
        assert g * l == a * b
        assert (op("divides").eval(value(a), value(b)) == boolean(True)) == (
            op("mod").eval(value(b), value(a)) == value(0)
        )


def _derivative_at(e, x0: Fraction) -> Fraction:
    """Independent oracle: constant term of the exact difference quotient
    (p(x0+h) - p(x0)) / h as a polynomial in h."""
    p = as_poly(e)
    names = sorted({v for m in p for v, _ in m})
    var = names[0] if names else "x"
    point = f"h + {x0}" if x0 >= 0 else f"h - {-x0}"
    shifted = replace_subtree(e, Sym(var), parse_expression(point))
    diff = as_poly(shifted)
    base = poly_eval(p, {var: x0})
    diff[()] = diff.get((), Fraction(0)) - base
    coeffs = poly_to_coeffs(diff, "h")
    assert coeffs[0] == 0  # exactly divisible by h
    return coeffs[1] if len(coeffs) > 1 else Fraction(0)


def test_differentiate_matches_exact_finite_differences():
    rng = random.Random(3)
    for _ in range(30):
        deg = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [Fraction(rng.randint(1, 9))]
        text = " + ".join(f"{c}*x**{i}" for i, c in enumerate(coeffs) if c)
        e = parse_expression(text)
        d = op("differentiate").eval(expression(e))
        dp = as_poly(parse_expression(render(d)))
        for _ in range(5):
            x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
            assert poly_eval(dp, {"x": x0}) == _derivative_at(e, x0)


def test_factor_expands_back_small():
    rng = random.Random(4)
    f = op("factor")
    for _ in range(50):
        deg = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [Fraction(rng.randint(1, 9))]
        text = " + ".join(f"{c}*x**{i}" for i, c in enumerate(coeffs) if c) or "0"
        e = parse_expression(text)
        out = f.eval(expression(e))
        if out is ABSENT:
            continue
        expanded = as_poly(parse_expression(render(out).replace(" ", "")))
        assert expanded == as_poly(e)


# ---------------------------------------------------------------------------
# pinned outputs: every operator on every well-typed argument tuple from a
# fixed pool; the digest guards refactors of the symbolic layer

POOL_SIZE = 152
EVALUATIONS = 9310
OPERATOR_DIGEST = "473fad3859b2ea498e2d36d87198070e97a8cd1c77018a8e781d89df93347f0c"


def _operator_pool():
    pool, seen = [], set()

    def grow(v):
        if v.kind != ABSENT_KIND and v not in seen:
            seen.add(v)
            pool.append(v)

    for module in SUPPORTED_MODULES:
        for gp in generate(module, 2, 5):
            for v in gp.problem.inputs:
                grow(v)
    for gp in differentiate_wrt_problems(2, 5, REG, order=2, multivariate=True):
        for v in gp.problem.inputs:
            grow(v)
    # a function head and an isolated variable, so make_function and
    # extract_isolated_variable have something to return
    grow(expr("f(x)"))
    grow(eq("x = 3"))
    for name in (
        "append_to_empty_list", "factor", "differentiate", "simplify",
        "extract_isolated_variable", "prime_factors", "is_prime",
    ):
        spec = op(name)
        for v in list(pool):
            if is_subtype(v.kind, spec.params[0][1]):
                grow(spec.eval(v))
    for name in ("solve_system", "append"):
        for args in _typed_tuples(op(name), list(pool)):
            grow(op(name).eval(*args))
    return pool


def _typed_tuples(spec, pool):
    return product(*([v for v in pool if is_subtype(v.kind, t)] for _, t in spec.params))


def test_operator_outputs_are_pinned():
    pool = _operator_pool()
    digest = hashlib.sha256()
    evaluations = 0
    produced = set()
    for spec in REG:
        for args in _typed_tuples(spec, pool):
            out = spec.eval(*args)
            line = "|".join([spec.name, *map(repr, args), out.kind, render(out)])
            digest.update(line.encode() + b"\n")
            evaluations += 1
            if out is not ABSENT:
                produced.add(spec.name)
    assert len(pool) == POOL_SIZE
    assert evaluations == EVALUATIONS
    assert produced == set(ALL_OPERATOR_NAMES)
    assert digest.hexdigest() == OPERATOR_DIGEST


def test_operator_outputs_keep_the_text_that_rendering_from_scratch_gives():
    # every output of the pinned sweep renders, twice, to its uncached text,
    # and compares and hashes as a twin never rendered
    pool = _operator_pool()
    evaluations = 0
    for spec in REG:
        for args in _typed_tuples(spec, pool):
            out = spec.eval(*args)
            text = _render_text(out)
            assert render(out) == render(out) == text
            twin = TypedValue(out.kind, out.payload)
            assert twin == out and hash(twin) == hash(out) and render(twin) == text
            evaluations += 1
    assert evaluations == EVALUATIONS
