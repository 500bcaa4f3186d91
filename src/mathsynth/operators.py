"""The predefined operator library.

Every operator is a pure, total procedure over TypedValues: domain failures
(wrong runtime kind, missing key, inconsistent system, ...) yield Absent
instead of raising, and Absent arguments are absorbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .values import (
    ABSENT,
    ABSENT_KIND,
    BOOLEAN,
    EQUATION,
    EXPRESSION,
    FUNCTION,
    LIST_OF_EQUATION,
    MAP_VARIABLE_TO_VALUE,
    OBJECT,
    RATIONAL,
    SET_OF_VALUE,
    TYPE_TAGS,
    VALUE,
    VARIABLE,
    Call,
    Num,
    Sym,
    TypedValue,
    add,
    as_expr,
    as_poly,
    boolean,
    equation,
    equation_list,
    factored_form,
    free_symbols,
    function,
    function_head,
    is_subtype,
    map_children,
    mul,
    poly_degree,
    poly_derivative,
    poly_to_coeffs,
    poly_to_expr,
    poly_vars,
    rational_roots,
    replace_subtree,
    typed_from_expr,
    value,
    value_set,
    variable,
    variable_map,
)


@dataclass(frozen=True)
class OperatorSpec:
    """One action-space operator: name, slot types, and evaluation."""

    name: str
    params: tuple  # ((param_name, type_tag), ...)
    return_type: str
    fn: object
    expansion: str | None = None  # template text for mined operators

    @property
    def arity(self) -> int:
        return len(self.params)

    def eval(self, *args: TypedValue) -> TypedValue:
        """Absorbing, never-raising evaluation."""
        if len(args) != len(self.params):
            return ABSENT
        if any(a.kind == ABSENT_KIND for a in args):
            return ABSENT
        try:
            return self.fn(*args)
        except (ArithmeticError, TypeError, ValueError, KeyError, IndexError):
            return ABSENT

    def signature(self) -> str:
        params = ", ".join(f"{n}: {t}" for n, t in self.params)
        return f"{self.name}({params}) -> {self.return_type}"


# ---------------------------------------------------------------------------
# numeric coercion helpers


def _as_fraction(v: TypedValue) -> Fraction | None:
    if v.kind in (VALUE, RATIONAL):
        return v.payload
    if v.kind == EXPRESSION and isinstance(v.payload, Num):
        return v.payload.value
    return None


def _as_int(v: TypedValue) -> int | None:
    f = _as_fraction(v)
    if f is None or f.denominator != 1:
        return None
    return f.numerator


def _trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _distinct_prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# operator bodies


def _op_lookup_value(mapping, key):
    if mapping.kind != MAP_VARIABLE_TO_VALUE or key.kind != VARIABLE:
        return ABSENT
    for name, val in mapping.payload:
        if name == key.payload:
            return val
    return ABSENT


def _linear_solve(polys, names):
    """Unique exact solution of a linear system, or None."""
    rows = []
    for p in polys:
        coeffs = {v: Fraction(0) for v in names}
        const = Fraction(0)
        for m, c in p.items():
            if not m:
                const = c
            else:
                (var, k), = m
                if k != 1:
                    return None
                coeffs[var] = c
        rows.append([coeffs[v] for v in names] + [-const])
    n = len(names)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][n] != 0:
            return None  # inconsistent
    if rank < n:
        return None  # underdetermined
    solution = {}
    for r in range(rank):
        col = next(c for c in range(n) if rows[r][c] != 0)
        solution[names[col]] = rows[r][n]
    return solution


def _op_solve_system(system):
    if system.kind != LIST_OF_EQUATION or not system.payload:
        return ABSENT
    polys = []
    for eq in system.payload:
        if eq.kind != EQUATION:
            return ABSENT
        lhs, rhs = eq.payload
        diff = as_poly(add(lhs, mul(Num(-1), rhs)))
        if diff is None:
            return ABSENT
        polys.append(diff)
    names = sorted(set().union(*(set(poly_vars(p)) for p in polys)))
    if not names:
        return ABSENT
    if all(poly_degree(p) <= 1 for p in polys):
        solution = _linear_solve(polys, names)
        if solution is None:
            return ABSENT
        return variable_map({v: value(x) for v, x in solution.items()})
    if len(polys) == 1 and len(names) == 1:
        coeffs = poly_to_coeffs(polys[0], names[0])
        roots, remainder = rational_roots(coeffs)
        if len(remainder) > 1 or not roots:
            return ABSENT  # not fully solvable over the rationals
        distinct = sorted(set(roots))
        if len(distinct) == 1:
            return variable_map({names[0]: value(distinct[0])})
        return variable_map({names[0]: value_set(distinct)})
    return ABSENT


def _op_append(system, eq):
    if system.kind != LIST_OF_EQUATION or eq.kind != EQUATION:
        return ABSENT
    return equation_list(system.payload + (eq,))


def _op_append_to_empty_list(eq):
    if eq.kind != EQUATION:
        return ABSENT
    return equation_list((eq,))


def _primitive(coeffs):
    """Primitive integer coefficients with positive lead, as Fractions."""
    lcm_den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm_den) for c in coeffs]
    g = math.gcd(*ints) or 1
    if ints[-1] < 0:
        g = -g
    return [Fraction(c // g) for c in ints]


def _poly_arg(v):
    """Polynomial dict of an Expression-kinded argument, else None."""
    e = as_expr(v)
    return None if e is None else as_poly(e)


def _op_factor(inpt):
    p = _poly_arg(inpt)
    if p is None:
        return ABSENT
    names = poly_vars(p)
    if len(names) > 1:
        return ABSENT
    if not names:
        return typed_from_expr(poly_to_expr(p))
    var = names[0]
    coeffs = poly_to_coeffs(p, var)
    roots, remainder = rational_roots(coeffs)
    factors = [[Fraction(-r.numerator), Fraction(r.denominator)] for r in roots]
    if len(remainder) > 1:
        factors.append(_primitive(remainder))
    content = coeffs[-1] / math.prod(f[-1] for f in factors)
    return typed_from_expr(factored_form(content, factors, var))


def _op_differentiate(expr):
    p = _poly_arg(expr)
    if p is None:
        return ABSENT
    names = poly_vars(p)
    if len(names) > 1:
        return ABSENT  # univariate only
    if not names:
        return value(0)
    return typed_from_expr(poly_to_expr(poly_derivative(p, names[0])))


def _op_mod(numerator, denominator):
    n, d = _as_int(numerator), _as_int(denominator)
    if n is None or d is None or d == 0:
        return ABSENT
    return value(n % abs(d))


def _op_gcd(x, y):
    a, b = _as_int(x), _as_int(y)
    if a is None or b is None:
        return ABSENT
    return value(math.gcd(a, b))


def _op_divides(numerator, denominator):
    n, d = _as_int(numerator), _as_int(denominator)
    if n is None or d is None or n == 0:
        return ABSENT
    return boolean(d % n == 0)


def _op_is_prime(x):
    n = _as_int(x)
    if n is None:
        return ABSENT
    return boolean(_trial_division_is_prime(n))


def _op_lcm(x, y):
    a, b = _as_int(x), _as_int(y)
    if a is None or b is None:
        return ABSENT
    return value(math.lcm(a, b))


def _op_lcd(x, y):
    a, b = _as_fraction(x), _as_fraction(y)
    if a is None or b is None:
        return ABSENT
    return value(math.lcm(a.denominator, b.denominator))


def _op_prime_factors(n):
    k = _as_int(n)
    if k is None or k == 0:
        return ABSENT
    return value_set(_distinct_prime_factors(abs(k)))


def _op_evaluate_function(function_definition, function_argument):
    if function_definition.kind != FUNCTION:
        return ABSENT
    name, param, body = function_definition.payload
    arg = as_expr(function_argument)
    if arg is None:
        return ABSENT
    if isinstance(arg, Call):
        if arg.fname != name or len(arg.args) != 1:
            return ABSENT
        arg = arg.args[0]
    p = as_poly(replace_subtree(body, Sym(param), arg))
    if p is None or poly_degree(p) != 0:
        return ABSENT
    return value(p.get((), Fraction(0)))


def _op_not(x):
    if x.kind != BOOLEAN:
        return ABSENT
    return boolean(not x.payload)


def _op_differentiate_wrt(expr, var):
    p, v = _poly_arg(expr), as_expr(var)
    if p is None or not isinstance(v, Sym):
        return ABSENT
    return typed_from_expr(poly_to_expr(poly_derivative(p, v.name)))


def _op_make_equation(e1, e2):
    lhs, rhs = as_expr(e1), as_expr(e2)
    if lhs is None or rhs is None:
        return ABSENT
    return equation(lhs, rhs)


def _map_exprs(v, f):
    """v with f applied to every expression it holds; kinds without
    expressions come back unchanged."""
    k = v.kind
    if k in (EXPRESSION, VALUE, RATIONAL, VARIABLE):
        return typed_from_expr(f(as_expr(v)))
    if k == EQUATION:
        lhs, rhs = v.payload
        return equation(f(lhs), f(rhs))
    if k == FUNCTION:
        name, param, body = v.payload
        return function(name, param, f(body))
    if k == LIST_OF_EQUATION:
        return equation_list(_map_exprs(eq, f) for eq in v.payload)
    return v


def _simplify_expr(e):
    p = as_poly(e)
    if p is not None:
        return poly_to_expr(p)
    return map_children(e, _simplify_expr)


def _op_simplify(inpt):
    return _map_exprs(inpt, _simplify_expr)


def _op_make_function(e1, e2):
    head = function_head(as_expr(e1))
    body = as_expr(e2)
    if head is None or body is None:
        return ABSENT
    return function(*head, body)


def _op_replace_arg(fn, var):
    if fn.kind != FUNCTION or var.kind != VARIABLE:
        return ABSENT
    name, param, body = fn.payload
    new = var.payload
    if new == param:
        return fn
    if new in free_symbols(body):
        return ABSENT  # renaming would capture an existing variable
    return function(name, new, replace_subtree(body, Sym(param), Sym(new)))


def _op_lookup_value_equation(mapping, key):
    val = _op_lookup_value(mapping, key)
    if val.kind == ABSENT_KIND:
        return ABSENT
    f = _as_fraction(val)
    if f is None:
        return ABSENT
    return equation(Sym(key.payload), Num(f))


def _op_extract_isolated_variable(eq):
    if eq.kind != EQUATION:
        return ABSENT
    lhs, rhs = eq.payload
    lhs_var = isinstance(lhs, Sym)
    rhs_var = isinstance(rhs, Sym)
    if lhs_var == rhs_var:
        return ABSENT  # need exactly one bare-variable side
    return variable(lhs.name if lhs_var else rhs.name)


def _op_substitution_left_to_right(arb, eq):
    if eq.kind != EQUATION:
        return ABSENT
    pattern, replacement = eq.payload
    return _map_exprs(arb, lambda e: replace_subtree(e, pattern, replacement))


# ---------------------------------------------------------------------------
# catalog and registry

_CATALOG = [
    OperatorSpec("lookup_value", (("mapping", MAP_VARIABLE_TO_VALUE), ("key", VARIABLE)), OBJECT, _op_lookup_value),
    OperatorSpec("solve_system", (("system", LIST_OF_EQUATION),), MAP_VARIABLE_TO_VALUE, _op_solve_system),
    OperatorSpec("append", (("system", LIST_OF_EQUATION), ("equation", EQUATION)), LIST_OF_EQUATION, _op_append),
    OperatorSpec("append_to_empty_list", (("equation", EQUATION),), LIST_OF_EQUATION, _op_append_to_empty_list),
    OperatorSpec("factor", (("inpt", EXPRESSION),), EXPRESSION, _op_factor),
    OperatorSpec("differentiate", (("expression", EXPRESSION),), EXPRESSION, _op_differentiate),
    OperatorSpec("mod", (("numerator", VALUE), ("denominator", VALUE)), VALUE, _op_mod),
    OperatorSpec("gcd", (("x", VALUE), ("y", VALUE)), VALUE, _op_gcd),
    OperatorSpec("divides", (("numerator", VALUE), ("denominator", VALUE)), BOOLEAN, _op_divides),
    OperatorSpec("is_prime", (("x", VALUE),), BOOLEAN, _op_is_prime),
    OperatorSpec("lcm", (("x", VALUE), ("y", VALUE)), VALUE, _op_lcm),
    OperatorSpec("lcd", (("x", RATIONAL), ("y", RATIONAL)), VALUE, _op_lcd),
    OperatorSpec("prime_factors", (("n", VALUE),), SET_OF_VALUE, _op_prime_factors),
    OperatorSpec("evaluate_function", (("function_definition", FUNCTION), ("function_argument", EXPRESSION)), VALUE, _op_evaluate_function),
    OperatorSpec("not_op", (("x", BOOLEAN),), BOOLEAN, _op_not),
    OperatorSpec("differentiate_wrt", (("expression", EXPRESSION), ("variable", VARIABLE)), EXPRESSION, _op_differentiate_wrt),
    OperatorSpec("make_equation", (("expression1", EXPRESSION), ("expression2", EXPRESSION)), EQUATION, _op_make_equation),
    OperatorSpec("simplify", (("inpt", OBJECT),), OBJECT, _op_simplify),
    OperatorSpec("make_function", (("expression1", EXPRESSION), ("expression2", EXPRESSION)), FUNCTION, _op_make_function),
    OperatorSpec("replace_arg", (("function", FUNCTION), ("var", VARIABLE)), FUNCTION, _op_replace_arg),
    OperatorSpec("lookup_value_equation", (("mapping", MAP_VARIABLE_TO_VALUE), ("key", VARIABLE)), EQUATION, _op_lookup_value_equation),
    OperatorSpec("extract_isolated_variable", (("equation", EQUATION),), VARIABLE, _op_extract_isolated_variable),
    OperatorSpec("substitution_left_to_right", (("arb", OBJECT), ("eq", EQUATION)), OBJECT, _op_substitution_left_to_right),
]

ALL_OPERATOR_NAMES = tuple(spec.name for spec in _CATALOG)

# the 15-operator action space used in the experiments (indices 0..14)
DEFAULT_OPERATOR_NAMES = ALL_OPERATOR_NAMES[:15]


class Registry:
    """Immutable ordered operator registry; index = action-space position."""

    def __init__(self, specs):
        self.specs = tuple(specs)
        self._by_name = {s.name: i for i, s in enumerate(self.specs)}
        if len(self._by_name) != len(self.specs):
            raise ValueError("duplicate operator names in registry")
        # the operator half of every action mask: one read-only row per slot
        # type, True where the operator's return type may fill the slot
        self._rows = {}
        for tag in TYPE_TAGS:
            row = np.array([is_subtype(s.return_type, tag) for s in self.specs], dtype=bool)
            row.flags.writeable = False
            self._rows[tag] = row

    @property
    def n_ops(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __getitem__(self, index: int) -> OperatorSpec:
        return self.specs[index]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def index_of(self, name: str) -> int:
        return self._by_name[name]

    def get(self, name: str) -> OperatorSpec:
        return self.specs[self._by_name[name]]

    def operator_row(self, slot_type: str) -> np.ndarray:
        """Read-only boolean row over the operators: which may fill a slot
        of slot_type."""
        return self._rows[slot_type]

    def extend(self, spec: OperatorSpec) -> "Registry":
        if spec.name in self._by_name:
            raise ValueError(f"operator name already registered: {spec.name}")
        return Registry(self.specs + (spec,))

    def manifest(self) -> str:
        """Text manifest recording the exact action-space layout."""
        lines = []
        for i, s in enumerate(self.specs):
            line = f"{i}\t{s.signature()}"
            if s.expansion:
                line += f"\t= {s.expansion}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def make_registry(names=DEFAULT_OPERATOR_NAMES) -> Registry:
    catalog = {s.name: s for s in _CATALOG}
    if unknown := [n for n in names if n not in catalog]:
        raise ValueError(f"unknown operator: {unknown[0]!r}")
    return Registry(catalog[n] for n in names)


def default_registry() -> Registry:
    return make_registry(DEFAULT_OPERATOR_NAMES)


def full_registry() -> Registry:
    return make_registry(ALL_OPERATOR_NAMES)
