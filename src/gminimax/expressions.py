"""Tiny arithmetic expression language for user-defined families.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``exp`` and ``log`` are the only functions; any other name is a free
variable (``theta`` for parameter mappings, ``x`` for the statistic).
Parsing either succeeds completely or raises a
:class:`~gminimax.errors.SpecificationError` pointing at the offending
position.  Evaluation is vectorized: variables may be numpy arrays.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import SpecificationError
from .families import FamilySpec, validate_family

__all__ = ["Expression", "family_from_config"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"exp": np.exp, "log": np.log}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": np.power}


class Expression:
    """Parsed expression: callable with keyword variables.

    The tree is compiled once into nested closures, with literal-only
    subtrees folded to their values; a call converts each of its
    variables to a float array once and runs the closures.
    """

    def __init__(self, source: str, ast, variables: frozenset[str]):
        self.source = source
        try:
            self._ast = _fold(ast)
        except ZeroDivisionError:
            raise SpecificationError(
                f"expression {source!r} divides by zero in a literal term") from None
        self.variables = variables
        self._run = _compile(self._ast)

    def __call__(self, **env):
        try:
            for name in self.variables:
                env[name] = np.asarray(env[name], dtype=float)
        except KeyError:
            raise SpecificationError(
                f"expression {self.source!r} needs variable(s) "
                f"{sorted(self.variables - env.keys())}; got {sorted(env)}"
            ) from None
        return self._run(env)

    def __repr__(self):
        return f"Expression({self.source!r})"


def _compile(node):
    """Nested closures that compute the tree from a dict of float arrays."""
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda env: value
    if kind == "var":
        name = node[1]
        return lambda env: env[name]
    if kind in ("neg", "call"):
        fn = operator.neg if kind == "neg" else _FUNCTIONS[node[1]]
        arg = _compile(node[-1])
        return lambda env: fn(arg(env))
    op, a, b = _BINARY[kind], _compile(node[1]), _compile(node[2])
    return lambda env: op(a(env), b(env))


def _fold(node):
    """The tree with each literal-only subtree replaced by its value."""
    if node[0] in ("num", "var"):
        return node
    head = 2 if node[0] == "call" else 1
    node = node[:head] + tuple(_fold(a) for a in node[head:])
    if any(a[0] != "num" for a in node[head:]):
        return node
    with np.errstate(all="ignore"):  # inf and nan as a call would give
        return ("num", float(_compile(node)({})))


# Tree builders for derivatives.  They fold the literals 0 and 1, and
# sums and products of two literals (which round as the call would), so
# a constant's zero derivative never meets an infinite cofactor and a
# constant derivative stays a literal.
_ZERO, _ONE = ("num", 0.0), ("num", 1.0)


def _is(node, value: float) -> bool:
    return node[0] == "num" and node[1] == value


def _neg(a):
    if a[0] == "num":
        return ("num", -a[1])
    return a[1] if a[0] == "neg" else ("neg", a)


def _add(a, b, sign: float = 1.0):
    if a[0] == b[0] == "num":
        return ("num", a[1] + sign * b[1])
    if _is(a, 0.0):
        return b if sign > 0 else _neg(b)
    return a if _is(b, 0.0) else ("+" if sign > 0 else "-", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if a[0] == b[0] == "num":
        return ("num", a[1] * b[1])
    return b if _is(a, 1.0) else a if _is(b, 1.0) else ("*", a, b)


def _div(a, b):
    return a if _is(b, 1.0) or _is(a, 0.0) else ("/", a, b)


def _pow(a, b):
    return a if _is(b, 1.0) else ("^", a, b)


def _derivative(node, var: str):
    """Symbolic derivative of a parsed tree in ``var``, as a new tree."""
    kind = node[0]
    if kind in ("num", "var"):
        return _ONE if node == ("var", var) else _ZERO
    if kind == "neg":
        return _neg(_derivative(node[1], var))
    if kind == "call":
        d = _derivative(node[2], var)
        return _mul(node, d) if node[1] == "exp" else _div(d, node[2])
    a, b = node[1], node[2]
    da, db = _derivative(a, var), _derivative(b, var)
    if kind in "+-":
        return _add(da, db, 1.0 if kind == "+" else -1.0)
    if kind == "*":
        return _add(_mul(da, b), _mul(a, db))
    if kind == "/":
        return _div(_add(da, _mul(node, db), -1.0), b)  # (a' - (a/b)*b')/b
    if _is(db, 0.0):  # a^c: c * a^(c-1) * a'
        return _mul(_mul(b, _pow(a, _add(b, _ONE, -1.0))), da)
    # a^b: a^b * (b' * log(a) + b * a'/a)
    return _mul(node, _add(_mul(db, ("call", "log", a)), _mul(b, _div(da, a))))


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None or m.end() == pos:
                stripped = source[pos:].lstrip()
                if not stripped:
                    break
                at = len(source) - len(stripped)
                self._fail(at, f"unexpected character {source[at]!r}")
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0
        self.variables: set[str] = set()

    def _fail(self, pos: int, message: str):
        pointer = " " * pos + "^"
        raise SpecificationError(
            f"parse error at position {pos}: {message}\n"
            f"    {self.source}\n    {pointer}"
        )

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            self._fail(len(self.source), "unexpected end of expression")
        self.i += 1
        return tok

    def _accept(self, ops: str) -> str | None:
        """Consume the next token if it is one of the operators ``ops``."""
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok[1]
        return None

    def _expect_op(self, op: str):
        if not self._accept(op):
            tok = self._peek()
            self._fail(tok[2] if tok else len(self.source), f"expected {op!r}")

    def parse(self):
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            self._fail(tok[2], f"trailing input starting with {tok[1]!r}")
        return node

    def _chain(self, ops: str, operand):
        node = operand()
        while op := self._accept(ops):
            node = (op, node, operand())
        return node

    def _expr(self):
        return self._chain("+-", self._term)

    def _term(self):
        return self._chain("*/", self._unary)

    def _unary(self):
        return ("neg", self._unary()) if self._accept("-") else self._power()

    def _power(self):
        base = self._atom()
        return ("^", base, self._unary()) if self._accept("^") else base

    def _atom(self):
        kind, text, pos = self._next()
        if kind == "num":
            return ("num", float(text))
        if kind == "name":
            if self._accept("("):
                if text not in _FUNCTIONS:
                    self._fail(
                        pos,
                        f"unknown function {text!r} (only "
                        f"{sorted(_FUNCTIONS)} are available)",
                    )
                arg = self._expr()
                self._expect_op(")")
                return ("call", text, arg)
            self.variables.add(text)
            return ("var", text)
        if kind == "op" and text == "(":
            node = self._expr()
            self._expect_op(")")
            return node
        self._fail(pos, f"unexpected token {text!r}")


def parse_expression(source: str) -> Expression:
    """Parse to a vectorized callable, or fail with a position marker."""
    if not isinstance(source, str) or not source.strip():
        raise SpecificationError("expression must be a nonempty string")
    parser = _Parser(source)
    return Expression(source, parser.parse(), frozenset(parser.variables))


# ---------------------------------------------------------------------------
# Expression-defined families
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = {"name", "support", "log_norm"}
_OPTIONAL_KEYS = {"mean", "mean_deriv", "stat", "mean_range", "jeffreys_shift"}
_INFINITIES = {"inf": math.inf, "+inf": math.inf, "infinity": math.inf,
               "-inf": -math.inf}


def _pair(value, key: str):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SpecificationError(f"{key} must be a two-element list")
    return value


def _endpoint(v, unbounded: float) -> float:
    if v is None:
        return unbounded
    if isinstance(v, str):
        if v.strip().lower() not in _INFINITIES:
            raise SpecificationError(f"bad support endpoint {v!r}")
        return _INFINITIES[v.strip().lower()]
    return float(v)


def _interval(value, key: str) -> tuple[float, float]:
    lo, hi = _pair(value, key)
    return _endpoint(lo, -math.inf), _endpoint(hi, math.inf)


def _mapping(source, label: str, var: str = "theta",
             antiderivative=None) -> Expression:
    """Parse a mapping of ``var``; with no source, differentiate the antiderivative."""
    if source is None and antiderivative is not None:
        tree = _derivative(antiderivative._ast, var)
        return Expression(f"d/d{var}({antiderivative.source})", tree,
                          antiderivative.variables)
    expr = parse_expression(source)
    extra = expr.variables - {var}
    if extra:
        raise SpecificationError(
            f"{label} may only use the variable {var!r}; found {sorted(extra)}"
        )
    return expr


def family_from_config(cfg: dict) -> FamilySpec:
    """Build and validate a family from a config mapping.

    Required keys: ``name``, ``support`` (two endpoints, ``null`` for
    infinite) and ``log_norm`` (an expression in ``theta``).  Optional:
    ``mean`` and ``mean_deriv`` (the exact derivatives of ``log_norm``
    and ``mean`` when omitted), ``stat`` (expression in ``x``, default
    ``"x"``), ``mean_range``, ``jeffreys_shift``.  The constructed family
    is spot-checked; violations are reported as configuration errors.
    """
    if not isinstance(cfg, dict):
        raise SpecificationError("family config must be a mapping")
    unknown = set(cfg) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise SpecificationError(
            f"unknown family config key(s) {sorted(unknown)}; allowed: "
            f"{sorted(_REQUIRED_KEYS | _OPTIONAL_KEYS)}"
        )
    missing = _REQUIRED_KEYS - set(cfg)
    if missing:
        raise SpecificationError(f"family config missing key(s) {sorted(missing)}")

    support = _interval(cfg["support"], "support")
    log_norm = _mapping(cfg["log_norm"], "log_norm")
    mean = _mapping(cfg.get("mean"), "mean", antiderivative=log_norm)
    mean_deriv = _mapping(cfg.get("mean_deriv"), "mean_deriv", antiderivative=mean)
    stat = _mapping(cfg.get("stat") or "x", "stat", "x")

    mr, js = cfg.get("mean_range"), cfg.get("jeffreys_shift")
    mean_range = None if mr is None else _interval(mr, "mean_range")
    shift = None if js is None else tuple(map(float, _pair(js, "jeffreys_shift")))

    fam = FamilySpec(
        name=str(cfg["name"]),
        support=support,
        log_norm=lambda th: log_norm(theta=th),
        mean=lambda th: mean(theta=th),
        mean_deriv=lambda th: mean_deriv(theta=th),
        stat=lambda x: stat(x=x),
        mean_range=mean_range,
        jeffreys_shift=shift,
    )
    problems = validate_family(fam)
    if problems:
        raise SpecificationError(
            f"family {fam.name!r} failed validation: " + "; ".join(problems)
        )
    return fam
