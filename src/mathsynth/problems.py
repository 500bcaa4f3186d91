"""Problem supply: synthetic generators for the 11 uncomposed modules (with
ground-truth action sequences) and a loader for dataset-format text files
(alternating question/answer lines).

Generators are deterministic given (module, seed, index).  Truth graphs are
expressed against the default 15-operator registry; answers are computed by
module-local arithmetic, independent of the operator library, and rendered
through the shared canonical renderer.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .operators import DEFAULT_OPERATOR_NAMES, Registry
from .parsing import ExtractionError, Problem, extract_inputs
from .values import (
    Call,
    Num,
    Sym,
    _poly_mul,
    add,
    coeffs_to_poly,
    equation,
    expression,
    fmt_rational,
    function,
    mul,
    poly_to_expr,
    pow_,
    rational,
    render,
    render_expr,
    value,
    variable,
)

log = logging.getLogger(__name__)


_OP = {name: i for i, name in enumerate(DEFAULT_OPERATOR_NAMES)}
_N_OPS = len(DEFAULT_OPERATOR_NAMES)


def _in(i: int) -> int:
    return _N_OPS + i


_LETTERS = "abcdfghjklmnpqrstuvwxyz"  # 'e' and 'o' left out of questions


@dataclass(frozen=True)
class GeneratedProblem:
    problem: Problem
    truth_graph: tuple  # action indices producing a rewarded graph
    difficulty: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# module-local arithmetic (kept independent of the operator library)


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_PRIMES = [n for n in range(2, 10000) if _is_prime(n)]


def _prime_factor_list(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_expr(coeffs, var: str):
    return poly_to_expr(coeffs_to_poly([Fraction(c) for c in coeffs], var))


def _nonzero(rng, lo, hi):
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


# ---------------------------------------------------------------------------
# per-module generators: (rng) -> GeneratedProblem


def _gen_is_factor(rng):
    m = rng.randint(2, 100)
    n = m * rng.randint(1, 100) if rng.random() < 0.5 else rng.randint(2, 9999)
    answer = "True" if n % m == 0 else "False"
    style = rng.randrange(3)
    if style == 0:
        q = f"Is {m} a factor of {n}?"
        inputs, truth = [value(m), value(n)], (_OP["divides"], _in(0), _in(1))
    elif style == 1:
        q = f"Does {m} divide {n}?"
        inputs, truth = [value(m), value(n)], (_OP["divides"], _in(0), _in(1))
    else:
        q = f"Is {n} a multiple of {m}?"
        inputs, truth = [value(n), value(m)], (_OP["divides"], _in(1), _in(0))
    return q, answer, inputs, truth, {"m": m, "n": n, "style": style}


def _gen_is_prime(rng):
    n = rng.choice(_PRIMES) if rng.random() < 0.5 else rng.randint(4, 9999)
    answer = "True" if _is_prime(n) else "False"
    q = rng.choice([f"Is {n} a prime number?", f"Is {n} prime?"])
    return q, answer, [value(n)], (_OP["is_prime"], _in(0)), {"n": n}


def _gen_list_prime_factors(rng):
    n = rng.randint(2, 9999)
    answer = ", ".join(str(p) for p in _prime_factor_list(n))
    q = rng.choice(
        [f"What are the prime factors of {n}?", f"List the prime factors of {n}."]
    )
    return q, answer, [value(n)], (_OP["prime_factors"], _in(0)), {"n": n}


def _gen_differentiate(rng):
    order = rng.choice([1, 1, 2])
    deg = rng.randint(max(order, 2), 5)
    coeffs = [rng.randint(-99, 99) for _ in range(deg)] + [_nonzero(rng, -99, 99)]
    var = rng.choice(_LETTERS)
    poly_text = render_expr(_poly_expr(coeffs, var))
    derived = list(coeffs)
    for _ in range(order):
        derived = [derived[i] * i for i in range(1, len(derived))] or [0]
    answer = render_expr(_poly_expr(derived, var))
    word = {1: "first", 2: "second"}[order]
    style = rng.randrange(3)
    if style == 0:
        q = f"What is the {word} derivative of {poly_text}?"
        inputs = [expression(_poly_expr(coeffs, var))]
    elif style == 1:
        q = f"Find the {word} derivative of {poly_text} wrt {var}."
        inputs = [expression(_poly_expr(coeffs, var)), variable(var)]
    else:
        if order == 1:
            q = f"Differentiate {poly_text} with respect to {var}."
        else:
            q = f"What is the {word} derivative of {poly_text} wrt {var}?"
        inputs = [expression(_poly_expr(coeffs, var)), variable(var)]
    truth = tuple([_OP["differentiate"]] * order + [_in(0)])
    return q, answer, inputs, truth, {"degree": deg, "order": order}


def _gen_polynomials_evaluate(rng):
    var, fname = rng.sample(_LETTERS, 2)
    deg = rng.randint(1, 3)
    coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [_nonzero(rng, -9, 9)]
    point = rng.randint(-9, 9)
    result = sum(c * point**i for i, c in enumerate(coeffs))
    body_text = render_expr(_poly_expr(coeffs, var))
    head = f"Let {fname}({var}) = {body_text}."
    tail = rng.choice(
        [f"Calculate {fname}({point}).", f"What is {fname}({point})?", f"Determine {fname}({point})."]
    )
    q = f"{head} {tail}"
    inputs = [
        function(fname, var, _poly_expr(coeffs, var)),
        expression(Call(fname, (Num(Fraction(point)),))),
    ]
    truth = (_OP["evaluate_function"], _in(0), _in(1))
    return q, str(result), inputs, truth, {"degree": deg, "point": point}


def _gen_div_remainder(rng):
    a = rng.randint(10, 9999)
    b = rng.randint(2, max(2, a - 1))
    q = rng.choice(
        [
            f"Calculate the remainder when {a} is divided by {b}.",
            f"What is the remainder when {a} is divided by {b}?",
        ]
    )
    return q, str(a % b), [value(a), value(b)], (_OP["mod"], _in(0), _in(1)), {"a": a, "b": b}


def _gen_gcd(rng):
    g = rng.randint(2, 50)
    a, b = g * rng.randint(1, 200), g * rng.randint(1, 200)
    q = rng.choice(
        [
            f"Calculate the greatest common divisor of {a} and {b}.",
            f"Calculate the highest common factor of {a} and {b}.",
            f"What is the greatest common divisor of {a} and {b}?",
        ]
    )
    return q, str(_gcd(a, b)), [value(a), value(b)], (_OP["gcd"], _in(0), _in(1)), {"a": a, "b": b}


def _gen_lcm(rng):
    if rng.random() < 0.6:
        a, b = rng.randint(2, 300), rng.randint(2, 300)
        answer = str(abs(a * b) // _gcd(a, b))
        q = rng.choice(
            [
                f"Calculate the least common multiple of {a} and {b}.",
                f"What is the smallest common multiple of {a} and {b}?",
            ]
        )
        inputs = [value(a), value(b)]
        truth = (_OP["lcm"], _in(0), _in(1))
        return q, answer, inputs, truth, {"a": a, "b": b}
    # lowest-common-denominator phrasing over non-integral rationals
    def draw():
        den = rng.randint(2, 36)
        num = _nonzero(rng, -60, 60)
        f = Fraction(num, den)
        return f if f.denominator > 1 else draw()

    r1, r2 = draw(), draw()
    answer = str(r1.denominator * r2.denominator // _gcd(r1.denominator, r2.denominator))
    q = rng.choice(
        [
            f"Calculate the common denominator of {fmt_rational(r1)} and {fmt_rational(r2)}.",
            f"Find the common denominator of {fmt_rational(r1)} and {fmt_rational(r2)}.",
        ]
    )
    inputs = [rational(r1), rational(r2)]
    truth = (_OP["lcd"], _in(0), _in(1))
    return q, answer, inputs, truth, {"d1": r1.denominator, "d2": r2.denominator}


_SOLVE_TRUTH_EQ_FIRST = (
    _OP["lookup_value"],
    _OP["solve_system"],
    _in(1),
    _OP["append_to_empty_list"],
    _in(0),
)
_SOLVE_TRUTH_VAR_FIRST = (
    _OP["lookup_value"],
    _OP["solve_system"],
    _in(0),
    _OP["append_to_empty_list"],
    _in(1),
)


def _gen_linear_1d(rng):
    var = rng.choice(_LETTERS)
    solution = rng.randint(-50, 50)
    a = _nonzero(rng, -15, 15)
    b = rng.randint(-50, 50)
    c = a * solution + b
    lhs = add(mul(Num(Fraction(a)), Sym(var)), Num(Fraction(b)))
    rhs = Num(Fraction(c))
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    eq = equation(lhs, rhs)
    eq_text = render(eq)
    style = rng.randrange(2)
    if style == 0:
        q = f"Solve {eq_text} for {var}."
    else:
        q = f"Suppose {eq_text}. What is {var}?"
    inputs = [eq, variable(var)]
    return q, str(solution), inputs, _SOLVE_TRUTH_EQ_FIRST, {"solution": solution}


def _root_pool(rng, with_fractions: bool):
    if with_fractions and rng.random() < 0.3:
        den = rng.choice([2, 3, 4, 5])
        num = _nonzero(rng, -12, 12)
        return Fraction(num, den)
    return Fraction(rng.randint(-12, 12))


def _gen_polynomial_roots(rng):
    if rng.random() < 0.5:
        # solve a rational-rooted polynomial equation
        var = rng.choice(_LETTERS)
        n_roots = rng.choice([2, 2, 2, 3])
        roots = [_root_pool(rng, True) for _ in range(n_roots)]
        lead = rng.choice([Fraction(1), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
        poly = {(): Fraction(1)}
        for r in roots:
            poly = _poly_mul(poly, {((var, 1),): Fraction(1), (): -r})
        poly = {m: lead * c for m, c in poly.items()}
        poly_text = render_expr(poly_to_expr(poly))
        distinct = sorted(set(roots))
        answer = ", ".join(fmt_rational(r) for r in distinct)
        eq = equation(poly_to_expr(poly), Num(Fraction(0)))
        style = rng.randrange(3)
        if style == 0:
            q = f"Solve {poly_text} = 0 for {var}."
            inputs, truth = [eq, variable(var)], _SOLVE_TRUTH_EQ_FIRST
        elif style == 1:
            q = f"Find {var} such that {poly_text} = 0."
            inputs, truth = [variable(var), eq], _SOLVE_TRUTH_VAR_FIRST
        else:
            q = f"Let {poly_text} = 0. What is {var}?"
            inputs, truth = [eq, variable(var)], _SOLVE_TRUTH_EQ_FIRST
        return q, answer, inputs, truth, {"roots": len(roots)}
    # factorization phrasing
    var = rng.choice(_LETTERS)
    n_roots = rng.choice([1, 2, 2])
    factors = []
    for _ in range(n_roots):
        r = _root_pool(rng, True)
        factors.append([Fraction(-r.numerator), Fraction(r.denominator)])
    content = Fraction(rng.choice([1, 1, 1, 2, 3]))
    factors.sort(key=lambda f: (len(f), tuple(f)))
    poly = {(): content}
    for f in factors:
        poly = _poly_mul(poly, coeffs_to_poly(f, var))
    poly_text = render_expr(poly_to_expr(poly))
    grouped = []
    for f in factors:
        if grouped and grouped[-1][0] == f:
            grouped[-1][1] += 1
        else:
            grouped.append([f, 1])
    answer = render_expr(
        mul(
            Num(content),
            *(pow_(poly_to_expr(coeffs_to_poly(f, var)), k) for f, k in grouped),
        )
    )
    q = rng.choice([f"Factor {poly_text}.", f"Factorize {poly_text}."])
    inputs = [expression(poly_to_expr(poly))]
    return q, answer, inputs, (_OP["factor"], _in(0)), {"roots": n_roots}


def _gen_linear_2d(rng):
    v1, v2 = rng.sample(_LETTERS, 2)
    s1, s2 = rng.randint(-20, 20), rng.randint(-20, 20)
    while True:
        a1, b1 = _nonzero(rng, -9, 9), _nonzero(rng, -9, 9)
        a2, b2 = _nonzero(rng, -9, 9), _nonzero(rng, -9, 9)
        if a1 * b2 - a2 * b1 != 0:
            break
    eqs = []
    c1 = a1 * s1 + b1 * s2
    c2 = a2 * s1 + b2 * s2
    for a, b, c in ((a1, b1, c1), (a2, b2, c2)):
        lhs = add(mul(Num(Fraction(a)), Sym(v1)), mul(Num(Fraction(b)), Sym(v2)))
        eqs.append(equation(lhs, Num(Fraction(c))))
    target, answer = rng.choice([(v1, s1), (v2, s2)])
    joiner = rng.choice([", ", " and "])
    q = f"Solve {render(eqs[0])}{joiner}{render(eqs[1])} for {target}."
    inputs = [eqs[0], eqs[1], variable(target)]
    truth = (
        _OP["lookup_value"],
        _OP["solve_system"],
        _in(2),
        _OP["append"],
        _OP["append_to_empty_list"],
        _in(0),
        _in(1),
    )
    return q, str(answer), inputs, truth, {"s1": s1, "s2": s2}


_GENERATORS = {
    "numbers__is_factor": _gen_is_factor,
    "numbers__is_prime": _gen_is_prime,
    "numbers__list_prime_factors": _gen_list_prime_factors,
    "calculus__differentiate": _gen_differentiate,
    "polynomials__evaluate": _gen_polynomials_evaluate,
    "numbers__div_remainder": _gen_div_remainder,
    "numbers__gcd": _gen_gcd,
    "numbers__lcm": _gen_lcm,
    "algebra__linear_1d": _gen_linear_1d,
    "algebra__polynomial_roots": _gen_polynomial_roots,
    "algebra__linear_2d": _gen_linear_2d,
}
SUPPORTED_MODULES = tuple(_GENERATORS)


def generate(module: str, count: int, seed: int) -> list:
    """Deterministic list of GeneratedProblems for one supported module."""
    if module not in _GENERATORS:
        raise ValueError(f"unsupported module: {module!r}")
    gen = _GENERATORS[module]
    out = []
    for index in range(count):
        rng = random.Random(f"{module}|{seed}|{index}")
        q, answer, inputs, truth, difficulty = gen(rng)
        problem = Problem(question=q, answer=answer, inputs=tuple(inputs), module=module)
        out.append(GeneratedProblem(problem, tuple(truth), difficulty))
    return out


def differentiate_wrt_problems(
    count: int,
    seed: int,
    registry: Registry,
    order: int = 2,
    multivariate: bool = False,
) -> list:
    """Repeated-derivative problems whose truth graphs use differentiate_wrt
    (the registry must contain it); used for subgraph-abstraction studies.

    With multivariate=True a second variable appears in the polynomial, so
    plain univariate differentiate cannot shortcut the graph.
    """
    dw = registry.index_of("differentiate_wrt")
    n_ops = registry.n_ops
    word = {1: "first", 2: "second", 3: "third"}[order]
    out = []
    for index in range(count):
        rng = random.Random(f"wrt|{seed}|{index}|{multivariate}")
        deg = rng.randint(order + 1, 5)
        var = rng.choice(_LETTERS)
        # polynomial as {(var_exp, other_exp): coeff}
        terms = {(i, 0): Fraction(rng.randint(-60, 60)) for i in range(deg)}
        terms[(deg, 0)] = Fraction(_nonzero(rng, -60, 60))
        other = rng.choice([c for c in _LETTERS if c != var])
        if multivariate:
            terms[(rng.randint(order, deg), 1)] = Fraction(_nonzero(rng, -60, 60))

        def poly_of(d):
            p = {}
            for (i, j), c in d.items():
                if c == 0:
                    continue
                mono = tuple(sorted(((v, e) for v, e in ((var, i), (other, j)) if e)))
                p[mono] = p.get(mono, Fraction(0)) + c
            return p or {(): Fraction(0)}

        derived = dict(terms)
        for _ in range(order):
            derived = {(i - 1, j): c * i for (i, j), c in derived.items() if i > 0}
        poly_text = render_expr(poly_to_expr(poly_of(terms)))
        answer = render_expr(poly_to_expr(poly_of(derived)))
        q = f"What is the {word} derivative of {poly_text} wrt {var}?"
        inputs = (expression(poly_to_expr(poly_of(terms))), variable(var))
        # breadth-first: each derivative layer enqueues (expression, variable)
        actions = [dw]
        for _ in range(order - 1):
            actions += [dw, n_ops + 1]
        actions += [n_ops + 0, n_ops + 1]
        problem = Problem(q, answer, inputs, module="calculus__differentiate")
        out.append(
            GeneratedProblem(
                problem, tuple(actions), {"order": order, "degree": deg, "multivariate": int(multivariate)}
            )
        )
    return out


# ---------------------------------------------------------------------------
# dataset files and splits


class DatasetFormatError(ValueError):
    pass


def load_dataset_file(path, module: str | None = None, n_inputs: int = 3) -> list:
    """Problems from a file of alternating question/answer lines; entries
    that fail input extraction or exceed n_inputs are skipped (counted in a
    log warning)."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if len(lines) % 2:
        raise DatasetFormatError(f"{path}: odd number of lines ({len(lines)})")
    label = module if module is not None else path.stem
    problems, skipped = [], 0
    for i in range(0, len(lines), 2):
        question, answer = lines[i].strip(), lines[i + 1].strip()
        try:
            inputs = extract_inputs(question)
        except ExtractionError:
            skipped += 1
            continue
        if len(inputs) > n_inputs:
            skipped += 1
            continue
        problems.append(Problem(question, answer, tuple(inputs), label))
    if skipped:
        log.warning("%s: skipped %d of %d problems", path, skipped, len(lines) // 2)
    return problems


def write_dataset_file(problems, path):
    path = Path(path)
    lines = []
    for p in problems:
        lines.append(p.question)
        lines.append(p.answer)
    path.write_text("\n".join(lines) + "\n" if lines else "")


def split(problems, fractions, seed: int):
    """Disjoint seed-deterministic partition sized by largest remainder."""
    problems = list(problems)
    if not problems:
        raise ValueError("cannot split an empty problem list")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    rng = random.Random(seed)
    order = list(problems)
    rng.shuffle(order)
    n = len(order)
    quotas = [int(n * f) for f in fractions]
    remainders = [(n * f - q, -i) for i, (f, q) in enumerate(zip(fractions, quotas))]
    for _, neg_i in sorted(remainders, reverse=True)[: n - sum(quotas)]:
        quotas[-neg_i] += 1
    parts, at = [], 0
    for q in quotas:
        parts.append(order[at : at + q])
        at += q
    return tuple(parts)
