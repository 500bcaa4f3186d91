"""Runtime values: tagged typed values over exact rationals, the type
hierarchy used for action masking, and canonical text rendering.

All arithmetic is exact (fractions.Fraction); rendering is canonical so
that answer comparison can be plain string equality.  Every coefficient is
a Fraction: Num converts any other number and keeps a Fraction as it is,
and poly_to_expr builds directly the canonical form that add/mul/pow_
would give its terms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

# ---------------------------------------------------------------------------
# Type tags and hierarchy

EQUATION = "Equation"
EXPRESSION = "Expression"
FUNCTION = "Function"
VALUE = "Value"
VARIABLE = "Variable"
RATIONAL = "Rational"
LIST_OF_EQUATION = "ListOfEquation"
MAP_VARIABLE_TO_VALUE = "MapVariableToValue"
BOOLEAN = "Boolean"
SET_OF_VALUE = "SetOfValue"
ABSENT_KIND = "Absent"
OBJECT = "Object"

# Parent links form a rooted tree with root OBJECT.  Value and Variable sit
# below Expression (operator signatures require e.g. factor(x) to be legal),
# and Rational sits below Value.
_PARENT = {
    EQUATION: OBJECT,
    EXPRESSION: OBJECT,
    FUNCTION: OBJECT,
    LIST_OF_EQUATION: OBJECT,
    MAP_VARIABLE_TO_VALUE: OBJECT,
    BOOLEAN: OBJECT,
    SET_OF_VALUE: OBJECT,
    ABSENT_KIND: OBJECT,
    VALUE: EXPRESSION,
    VARIABLE: EXPRESSION,
    RATIONAL: VALUE,
}

TYPE_TAGS = frozenset(_PARENT) | {OBJECT}


def is_subtype(candidate: str, required: str) -> bool:
    """True iff candidate equals required or required is an ancestor of it."""
    if candidate not in TYPE_TAGS or required not in TYPE_TAGS:
        raise LookupError(f"unknown type tag: {candidate!r} or {required!r}")
    tag = candidate
    while True:
        if tag == required:
            return True
        if tag == OBJECT:
            return False
        tag = _PARENT[tag]


class MathParseError(ValueError):
    """Raised for text that does not match the canonical grammar."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message if position < 0 else f"{message} (at position {position})")
        self.position = position


class TypingError(ValueError):
    """Raised when a parsed value does not satisfy the expected type tag."""


# ---------------------------------------------------------------------------
# Symbolic expression trees
#
# Construction normalizes lightly: nested sums/products are flattened,
# numeric subterms are folded, and sum terms are ordered by decreasing
# degree (stable within equal degree).  Products are NOT expanded and like
# terms are NOT collected here; that is simplify's job.

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Num:
    value: Fraction

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Add:
    terms: tuple  # >= 2 entries, none is Add, at most one Num


@dataclass(frozen=True)
class Mul:
    coeff: Fraction
    factors: tuple  # >= 1 entries, none is Num or Mul


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int  # >= 2


@dataclass(frozen=True)
class Call:
    fname: str
    args: tuple



def degree(e) -> int:
    """Syntactic degree used for canonical term ordering (calls count as 1)."""
    if isinstance(e, Num):
        return 0
    if isinstance(e, (Sym, Call)):
        return 1
    if isinstance(e, Pow):
        return degree(e.base) * e.exp
    if isinstance(e, Mul):
        return sum(degree(f) for f in e.factors)
    if isinstance(e, Add):
        return max(degree(t) for t in e.terms)
    raise TypeError(f"not an expression: {e!r}")


def add(*terms):
    flat = []
    const = Fraction(0)
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    out = []
    for t in flat:
        if isinstance(t, Num):
            const += t.value
        else:
            out.append(t)
    out.sort(key=lambda t: -degree(t))  # stable: ties keep given order
    if const != 0 or not out:
        out.append(Num(const))
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors):
    coeff = Fraction(1)
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            coeff *= f.coeff
            flat.extend(f.factors)
        elif isinstance(f, Num):
            coeff *= f.value
        else:
            flat.append(f)
    if coeff == 0 or not flat:
        return Num(coeff)
    if coeff == 1 and len(flat) == 1:
        return flat[0]
    return Mul(coeff, tuple(flat))


def pow_(base, exp: int):
    if exp == 0:
        return Num(Fraction(1))
    if exp == 1:
        return base
    if isinstance(base, Num):
        if base.value == 0 and exp < 0:
            raise ZeroDivisionError("0 ** negative")
        return Num(base.value ** exp)
    if isinstance(base, Pow):
        return pow_(base.base, base.exp * exp)
    if exp < 0:
        raise MathParseError("negative exponents are not supported")
    return Pow(base, exp)


def free_symbols(e) -> set:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Sym):
        return {e.name}
    if isinstance(e, Add):
        return set().union(*(free_symbols(t) for t in e.terms))
    if isinstance(e, Mul):
        return set().union(*(free_symbols(f) for f in e.factors))
    if isinstance(e, Pow):
        return free_symbols(e.base)
    if isinstance(e, Call):
        return set().union(*(free_symbols(a) for a in e.args)) if e.args else set()
    raise TypeError(f"not an expression: {e!r}")


def map_children(e, f):
    """Rebuild e through the normalizing constructors from f applied to each
    child; leaves come back unchanged."""
    if isinstance(e, (Num, Sym)):
        return e
    if isinstance(e, Add):
        return add(*map(f, e.terms))
    if isinstance(e, Mul):
        return mul(Num(e.coeff), *map(f, e.factors))
    if isinstance(e, Pow):
        return pow_(f(e.base), e.exp)
    if isinstance(e, Call):
        return Call(e.fname, tuple(map(f, e.args)))
    raise TypeError(f"not an expression: {e!r}")


def replace_subtree(e, pattern, replacement):
    """Replace every subtree structurally equal to `pattern` (no rescan
    inside replacements); with pattern Sym(name) this substitutes a symbol."""
    if e == pattern:
        return replacement
    return map_children(e, lambda child: replace_subtree(child, pattern, replacement))


def function_head(e):
    """(name, param) when e is a call on one bare symbol, as in the head of
    `f(x) = ...`, else None."""
    if isinstance(e, Call) and len(e.args) == 1 and isinstance(e.args[0], Sym):
        return e.fname, e.args[0].name
    return None


# ---------------------------------------------------------------------------
# Polynomial normal form: {monomial: coefficient} with monomial a sorted
# tuple of (variable, exponent) pairs.  Used by differentiation, factoring,
# solving and simplification.


def as_poly(e):
    """Polynomial dict for e, or None if e is not a polynomial (calls,
    negative powers)."""
    if isinstance(e, Num):
        return {(): e.value}
    if isinstance(e, Sym):
        return {((e.name, 1),): _ONE}
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            p = as_poly(t)
            if p is None:
                return None
            for m, c in p.items():
                out[m] = out[m] + c if m in out else c
        return {m: c for m, c in out.items() if c != 0} or {(): _ZERO}
    if isinstance(e, Mul):
        out = {(): e.coeff}
        for f in e.factors:
            p = as_poly(f)
            if p is None:
                return None
            out = _poly_mul(out, p)
        return out
    if isinstance(e, Pow):
        if e.exp < 0:
            return None
        if isinstance(e.base, Sym) and e.exp:
            return {((e.base.name, e.exp),): _ONE}
        p = as_poly(e.base)
        if p is None:
            return None
        out = {(): _ONE}
        for _ in range(e.exp):
            out = _poly_mul(out, p)
        return out
    if isinstance(e, Call):
        return None
    raise TypeError(f"not an expression: {e!r}")


def _poly_mul(a, b):
    if len(a) == 1 or len(b) == 1:
        # a product by one term maps distinct monomials to distinct
        # monomials, so there is nothing to merge
        out = {_mono_mul(m1, m2): c1 * c2 for m1, c1 in a.items() for m2, c2 in b.items()}
    else:
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if c != 0} or {(): _ZERO}


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, k in m2:
        exps[v] = exps.get(v, 0) + k
    return tuple(sorted((v, k) for v, k in exps.items() if k))


def poly_vars(p) -> list:
    return sorted({v for m in p for v, _ in m})


def poly_degree(p) -> int:
    return max((sum(k for _, k in m) for m in p), default=0)


def _mono_key(m, names):
    exps = dict(m)
    vec = tuple(exps.get(v, 0) for v in names)
    return (-sum(vec), tuple(-x for x in vec))  # graded lex, descending


def poly_to_expr(p):
    """Canonical expression: terms in decreasing graded-lex order.  Each term
    is built in the form add/mul/pow_ would give it: the graded-lex order
    already puts higher degrees first, and the constant comes last."""
    names = poly_vars(p)
    terms = []
    for m in sorted(p, key=lambda m: _mono_key(m, names)):
        c = p[m]
        if c == 0:
            continue
        if not m:
            terms.append(Num(c))
            continue
        factors = tuple(Sym(v) if k == 1 else Pow(Sym(v), k) for v, k in m)
        terms.append(factors[0] if c == 1 and len(factors) == 1 else Mul(c, factors))
    if not terms:
        return Num(_ZERO)
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def poly_derivative(p, var: str):
    out = {}
    for m, c in p.items():
        exps = dict(m)
        k = exps.get(var, 0)
        if k == 0:
            continue
        exps[var] = k - 1
        nm = tuple(sorted((v, e) for v, e in exps.items() if e))
        out[nm] = out.get(nm, _ZERO) + c * k
    return out or {(): _ZERO}


def poly_eval(p, point: dict) -> Fraction:
    total = _ZERO
    for m, c in p.items():
        term = c
        for v, k in m:
            term *= point[v] ** k
        total += term
    return total


# --- univariate helpers (coefficient lists, index = degree) ---------------


def poly_to_coeffs(p, var: str):
    n = poly_degree(p)
    coeffs = [_ZERO] * (n + 1)
    for m, c in p.items():
        exps = dict(m)
        coeffs[exps.get(var, 0)] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def coeffs_to_poly(coeffs, var: str):
    out = {}
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        m = ((var, k),) if k else ()
        out[m] = c
    return out or {(): _ZERO}


def factored_form(content, factors, var: str):
    """Canonical factored form content * f1**k1 * f2**k2 * ...: the factors
    (ascending Fraction coefficient lists) in (degree, coefficients) order,
    equal factors joined into one power."""
    ordered = sorted(factors, key=lambda f: (len(f), tuple(f)))
    powers = (
        pow_(poly_to_expr(coeffs_to_poly(f, var)), len(list(group)))
        for f, group in groupby(ordered)
    )
    return mul(Num(content), *powers)


def synthetic_div(coeffs, root: Fraction):
    """Divide by (x - root); returns (quotient, remainder)."""
    out = [_ZERO] * (len(coeffs) - 1)
    acc = _ZERO
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * root + coeffs[k]
        if k:
            out[k - 1] = acc
    return out, acc


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs):
    """All rational roots (with multiplicity) plus the remaining rootless
    quotient, for an exact-coefficient univariate polynomial.

    A candidate p/q is tested in integers: with the coefficients scaled to
    integers a_i, p/q is a root iff q**n * f(p/q) = sum a_i p**i q**(n-i)
    is 0, which Horner's rule computes without a Fraction."""
    work = list(coeffs)
    roots = []
    while len(work) > 1 and work[0] == 0:
        roots.append(_ZERO)
        work = work[1:]
    while len(work) > 1:
        scale = math.lcm(*(c.denominator for c in work))
        ints = [int(c * scale) for c in work]
        a0, an = ints[0], ints[-1]
        # p/q with p | a0 and q | an, in the order q, then p, then + before -
        found = next(
            (
                Fraction(p, q)
                for q in _divisors(an)
                for d in _divisors(a0)
                for p in (d, -d)
                if _is_int_root(ints, p, q)
            ),
            None,
        )
        if found is None:
            break
        roots.append(found)
        work, _ = synthetic_div(work, found)
    return roots, work


def _is_int_root(ints, p: int, q: int) -> bool:
    acc, q_power = 0, 1
    for a in reversed(ints):
        acc = acc * p + a * q_power
        q_power *= q
    return acc == 0


# ---------------------------------------------------------------------------
# Typed values


@dataclass(frozen=True)
class TypedValue:
    """Tagged union over every runtime value kind.  Immutable and hashable;
    equality is structural.

    The hash is hash((kind, payload)), computed on first use and kept on the
    instance, so a value used as a memo key many times hashes its payload
    tree once.  A str hash differs between processes, so a value must not
    carry it across one; nothing pickles values.  render keeps the value's
    text the same way, so an input leaf or an output rendered again is a
    lookup.  Neither is a field, so equality and hashing see only kind and
    payload."""

    kind: str
    payload: object = None
    _hash = None  # a class attribute, not a field: set on the first __hash__
    _text = None  # a class attribute, not a field: set on the first render

    def __post_init__(self):
        if self.kind not in TYPE_TAGS or self.kind == OBJECT:
            raise LookupError(f"unknown value kind: {self.kind!r}")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.payload))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"{self.kind}({render(self)!r})"


ABSENT = TypedValue(ABSENT_KIND, None)


def value(x) -> TypedValue:
    return TypedValue(VALUE, Fraction(x))


def rational(x, y=None) -> TypedValue:
    return TypedValue(RATIONAL, Fraction(x) if y is None else Fraction(x, y))


def variable(name: str) -> TypedValue:
    return TypedValue(VARIABLE, name)


def expression(e) -> TypedValue:
    return TypedValue(EXPRESSION, e)


def equation(lhs, rhs) -> TypedValue:
    return TypedValue(EQUATION, (lhs, rhs))


def function(name: str, param: str, body) -> TypedValue:
    return TypedValue(FUNCTION, (name, param, body))


def boolean(b: bool) -> TypedValue:
    return TypedValue(BOOLEAN, bool(b))


def equation_list(eqs) -> TypedValue:
    return TypedValue(LIST_OF_EQUATION, tuple(eqs))


def variable_map(pairs) -> TypedValue:
    return TypedValue(MAP_VARIABLE_TO_VALUE, tuple(sorted(dict(pairs).items())))


def value_set(values) -> TypedValue:
    return TypedValue(SET_OF_VALUE, tuple(sorted(set(Fraction(v) for v in values))))


def typed_from_expr(e) -> TypedValue:
    """Most specific kind for a computed expression."""
    if isinstance(e, Num):
        return TypedValue(VALUE, e.value)
    if isinstance(e, Sym):
        return TypedValue(VARIABLE, e.name)
    return TypedValue(EXPRESSION, e)


def as_expr(v: TypedValue):
    """Expression payload of any Expression-kinded value (Value, Variable,
    Rational included), else None."""
    if v.kind == EXPRESSION:
        return v.payload
    if v.kind in (VALUE, RATIONAL):
        return Num(v.payload)
    if v.kind == VARIABLE:
        return Sym(v.payload)
    return None


# ---------------------------------------------------------------------------
# Rendering


def _render_factor(f) -> str:
    s = render_expr(f)
    if isinstance(f, (Add, Mul)):
        return f"({s})"
    return s


def render_expr(e) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.fname}({', '.join(render_expr(a) for a in e.args)})"
    if isinstance(e, Pow):
        return f"{_render_factor(e.base)}**{e.exp}"
    if isinstance(e, Mul):
        body = "*".join(_render_factor(f) for f in e.factors)
        p, q = e.coeff.numerator, e.coeff.denominator
        if abs(p) == 1:
            head = body if p > 0 else f"-{body}"
        else:
            head = f"{p}*{body}"
        return head if q == 1 else f"{head}/{q}"
    if isinstance(e, Add):
        parts = [render_expr(e.terms[0])]
        for t in e.terms[1:]:
            neg = (isinstance(t, Num) and t.value < 0) or (isinstance(t, Mul) and t.coeff < 0)
            if neg:
                flipped = Num(-t.value) if isinstance(t, Num) else Mul(-t.coeff, t.factors)
                parts.append(f" - {render_expr(flipped)}")
            else:
                parts.append(f" + {render_expr(t)}")
        return "".join(parts)
    raise TypeError(f"not an expression: {e!r}")


def render(v: TypedValue) -> str:
    """Canonical dataset-style text for any typed value, computed on the
    first call and kept on the value."""
    text = v._text
    if text is None:
        text = _render_text(v)
        object.__setattr__(v, "_text", text)
    return text


def _render_text(v: TypedValue) -> str:
    k = v.kind
    if k == ABSENT_KIND:
        return "None"
    if k == BOOLEAN:
        return "True" if v.payload else "False"
    if k in (VALUE, RATIONAL):
        return str(v.payload)
    if k == VARIABLE:
        return v.payload
    if k == EXPRESSION:
        return render_expr(v.payload)
    if k == EQUATION:
        lhs, rhs = v.payload
        return f"{render_expr(lhs)} = {render_expr(rhs)}"
    if k == FUNCTION:
        name, param, body = v.payload
        return f"{name}({param}) = {render_expr(body)}"
    if k == LIST_OF_EQUATION:
        return "[" + ", ".join(render(eq) for eq in v.payload) + "]"
    if k == MAP_VARIABLE_TO_VALUE:
        # set-valued entries are brace-wrapped so the map stays parseable
        items = ", ".join(
            f"{name}: {{{render(val)}}}" if val.kind == SET_OF_VALUE else f"{name}: {render(val)}"
            for name, val in v.payload
        )
        return "{" + items + "}"
    if k == SET_OF_VALUE:
        return ", ".join(map(str, v.payload))
    raise LookupError(f"unknown value kind: {k!r}")


# ---------------------------------------------------------------------------
# Parsing: recursive-descent over the canonical grammar.
#
#   expr     := term (('+'|'-') term)*
#   term     := unary (('*'|'/') unary)*
#   unary    := '-' unary | power
#   power    := atom ('**' INTEGER)?
#   atom     := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
#
# Division is exact scaling: the divisor must be numeric.  Numbers and
# identifiers are ASCII: str.isdigit and str.isalnum also accept characters
# such as '²' that are not part of the grammar.

NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Scanner:
    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self, n=1) -> str:
        return self.text[self.pos : self.pos + n]

    def eat(self, tok: str) -> bool:
        self.skip_ws()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def token(self, pattern: re.Pattern):
        """The text of pattern matched after whitespace, or None."""
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def number(self):
        tok = self.token(NUMBER)
        if tok is None:
            return None
        # Fraction(str) takes about three times as long as Fraction(int)
        return Fraction(tok) if "." in tok else Fraction(int(tok))

    def ident(self):
        return self.token(IDENT)


def _parse_expr(sc: _Scanner):
    left = _parse_term(sc)
    while True:
        save = sc.pos
        if sc.eat("+"):
            try:
                left = add(left, _parse_term(sc))
                continue
            except MathParseError:
                sc.pos = save
                break
        if sc.peek(2) != "**" and sc.eat("-"):
            try:
                left = add(left, mul(Num(Fraction(-1)), _parse_term(sc)))
                continue
            except MathParseError:
                sc.pos = save
                break
        break
    return left


def _parse_term(sc: _Scanner):
    left = _parse_unary(sc)
    while True:
        save = sc.pos
        if sc.peek(2) != "**" and sc.eat("*"):
            try:
                left = mul(left, _parse_unary(sc))
                continue
            except MathParseError:
                sc.pos = save
                break
        if sc.eat("/"):
            try:
                rhs = _parse_unary(sc)
            except MathParseError:
                sc.pos = save
                break
            if not isinstance(rhs, Num) or rhs.value == 0:
                # exact scaling only: back off and let the caller see '/'
                sc.pos = save
                break
            left = mul(left, Num(1 / rhs.value))
            continue
        break
    return left


def _parse_unary(sc: _Scanner):
    if sc.eat("-"):
        return mul(Num(Fraction(-1)), _parse_unary(sc))
    return _parse_power(sc)


def _parse_power(sc: _Scanner):
    base = _parse_atom(sc)
    save = sc.pos
    if sc.eat("**"):
        exp = sc.number()
        if exp is None or exp.denominator != 1:
            raise MathParseError("exponent must be an integer literal", save)
        return pow_(base, int(exp))
    return base


def _parse_atom(sc: _Scanner):
    sc.skip_ws()
    pos = sc.pos
    n = sc.number()
    if n is not None:
        return Num(n)
    name = sc.ident()
    if name is not None:
        if sc.peek() == "(":  # function application, no space before paren
            sc.pos += 1
            arg = _parse_expr(sc)
            if not sc.eat(")"):
                raise MathParseError("expected ')'", sc.pos)
            return Call(name, (arg,))
        return Sym(name)
    if sc.eat("("):
        inner = _parse_expr(sc)
        if not sc.eat(")"):
            raise MathParseError("expected ')'", sc.pos)
        return inner
    raise MathParseError("expected a number, identifier or '('", pos)


def parse_expression(text: str):
    """Parse text as a bare expression; the whole text must be consumed."""
    sc = _Scanner(text)
    e = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise MathParseError("trailing input", sc.pos)
    return e


def parse_value(text: str, expected_kind: str | None = None) -> TypedValue:
    """Parse canonical text into the most specific TypedValue; the optional
    expected_kind disambiguates renders that collide across kinds (a bare
    "7" is a Value, a Rational, an Expression and a singleton set).  Inside
    a map an entry is typed by its text alone: value(Fraction(3, 2))
    renders as "3/2" and parses back as a Rational.  Reward compares
    rendered text, so this changes no score."""
    stripped = text.strip()
    v = _parse_value_inner(stripped, expected_kind)
    if expected_kind is not None and not is_subtype(v.kind, expected_kind):
        raise TypingError(f"parsed {v.kind}, expected {expected_kind}: {text!r}")
    return v


def _parse_value_inner(text: str, expected_kind: str | None) -> TypedValue:
    if text == "None":
        return ABSENT
    if text == "True":
        return boolean(True)
    if text == "False":
        return boolean(False)
    if text == "" and expected_kind == SET_OF_VALUE:
        return value_set(())
    if not text:
        raise MathParseError("empty input", 0)
    if text.startswith("["):
        return _parse_equation_list(text)
    if text.startswith("{"):
        return _parse_map(text)
    parts = _split_top_level(text)
    if len(parts) > 1:
        items = [parse_expression(part) for part in parts]
        if not all(isinstance(i, Num) for i in items):
            raise MathParseError("set elements must be numeric", 0)
        return value_set(i.value for i in items)
    lhs_text, eq, rhs_text = text.partition("=")
    lhs = parse_expression(lhs_text)
    return typed(lhs, parse_expression(rhs_text) if eq else None, text, expected_kind)


def typed(lhs, rhs, text: str, expected_kind: str | None = None) -> TypedValue:
    """The typed value of a parsed `lhs = rhs`, or of the bare expression lhs
    when rhs is None; text is their source, where a '/' marks a Rational.
    `f(x) = ...` is a Function unless an Equation is expected."""
    if rhs is not None:
        head = function_head(lhs)
        if head is not None and expected_kind != EQUATION:
            return function(*head, rhs)
        return equation(lhs, rhs)
    if isinstance(lhs, Num):
        if expected_kind == SET_OF_VALUE:
            return value_set((lhs.value,))
        if expected_kind == RATIONAL:
            return TypedValue(RATIONAL, lhs.value)
        if expected_kind != VALUE and "/" in text and lhs.value.denominator != 1:
            return TypedValue(RATIONAL, lhs.value)
        return TypedValue(VALUE, lhs.value)
    if isinstance(lhs, Sym):
        if expected_kind == EXPRESSION:
            return expression(lhs)
        return variable(lhs.name)
    return expression(lhs)


def _split_top_level(text: str) -> list:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_equation_list(text: str) -> TypedValue:
    if not text.endswith("]"):
        raise MathParseError("expected ']'", len(text))
    inner = text[1:-1].strip()
    if not inner:
        return equation_list(())
    eqs = []
    for part in _split_top_level(inner):
        v = _parse_value_inner(part.strip(), EQUATION)
        if v.kind != EQUATION:
            raise MathParseError(f"list elements must be equations: {part!r}", 0)
        eqs.append(v)
    return equation_list(eqs)


def _parse_map(text: str) -> TypedValue:
    if not text.endswith("}"):
        raise MathParseError("expected '}'", len(text))
    inner = text[1:-1].strip()
    pairs = []
    if inner:
        for part in _split_top_level(inner):
            key_text, sep, val_text = part.partition(":")
            if not sep:
                raise MathParseError(f"expected ':' in map entry: {part!r}", 0)
            key = key_text.strip()
            val_text = val_text.strip()
            if val_text.startswith("{") and val_text.endswith("}"):
                val = _parse_value_inner(val_text[1:-1].strip(), SET_OF_VALUE)
            else:
                val = _parse_value_inner(val_text, None)
            if val.kind not in (VALUE, RATIONAL, SET_OF_VALUE):
                raise MathParseError(f"map values must be numeric: {part!r}", 0)
            pairs.append((key, val))
    return variable_map(pairs)
