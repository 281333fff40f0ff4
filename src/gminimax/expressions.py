"""Tiny arithmetic expression language for user-defined families.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``exp`` and ``log`` are the only functions.  An expression is a function
of one variable named when it is parsed (``theta`` for parameter mappings,
``x`` for the statistic); any other name, unless a given literal, is
refused.  Parsing either succeeds completely or raises a
:class:`~gminimax.errors.SpecificationError` pointing at the offending
position.  A parsed expression is compiled at once to a float body over
``math`` and an array body over numpy, which loads numpy when it first runs.
"""

from __future__ import annotations

import ast
import math
import re

from .errors import SpecificationError
from .families import FamilySpec, np, validate_family

__all__ = ["Expression", "family_from_config"]

_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
# A character outside the grammar, or the second star of Python's ``**``.
_OUTSIDE = re.compile(r"[^A-Za-z0-9_.+\-*/^()\s]|(?<=\*)\*")
_BINARY_AST = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}

_FUNCTIONS = ("exp", "log")
_OPERATORS = {symbol: op for op, symbol in _BINARY_AST.items() if symbol != "^"}
# What each compiled body reads, under names that no variable can take.  The
# array body reads np.exp, np.log and np.power off the lazy handle when it
# runs, so its first run loads numpy.
_GLOBALS = {"__builtins__": {}, "math.exp": math.exp, "math.log": math.log,
            "math.pow": math.pow, "families.np": np}
_POWER = {"np": "power", "math": "pow"}
# What the float body raises where the array body returns inf or nan.
_MATH_REFUSALS = (OverflowError, ValueError, ZeroDivisionError)


class Expression:
    """Parsed expression: a function of its one variable, called with it
    positionally.

    The tree, with literal-only subtrees folded to their values, is
    compiled to two functions of the variable when the expression is
    built.  The float body calls ``math.exp``, ``math.log`` and
    ``math.pow``; the array body calls ``np.exp``, ``np.log`` and
    ``np.power``.  Both run ``+ - * /`` as Python's operators, which round
    alike on Python and numpy floats.  A constant is ``c + 0*var``, c in
    its argument's shape.  A float (``np.float64`` included) runs the
    float body on a Python float and returns a Python float.  Where
    ``math`` refuses (an overflow, a log of 0, a division by 0), the array
    body answers the same call instead, with numpy's ``inf`` or ``nan``
    and its warning.  Anything else runs the array body on numpy floats
    or float arrays.
    """

    def __init__(self, source: str, tree, var: str):
        self.source = source
        try:
            self._ast = _fold(tree)
        except ZeroDivisionError:
            raise SpecificationError(
                f"expression {source!r} divides by zero in a literal term") from None
        if self._ast[0] == "num":
            self._ast = ("+", self._ast, ("*", _ZERO, ("var", var)))
        self._float = _compiled(self._ast, var, "math")
        self._array = _compiled(self._ast, var, "np")

    def __call__(self, value, /):
        if isinstance(value, float):
            try:
                return self._float(float(value))
            except _MATH_REFUSALS:
                pass
        return self._array(np.asarray(value, dtype=float)[()])

    def __repr__(self):
        return f"Expression({self.source!r})"


def _python(node, lib: str) -> ast.expr:
    """The tree as a Python expression node over ``lib``, ``"np"`` or
    ``"math"``: its ``exp`` and ``log``, and its power function for ``^``."""
    kind, *args = node
    if kind in ("num", "var"):
        return ast.Constant(*args) if kind == "num" else ast.Name(*args, ast.Load())
    if kind == "neg":
        return ast.UnaryOp(ast.USub(), _python(*args, lib))
    if kind in _OPERATORS:
        return ast.BinOp(_python(args[0], lib), _OPERATORS[kind](), _python(args[1], lib))
    fn = _POWER[lib] if kind == "^" else args.pop(0)
    func = (ast.Name(f"math.{fn}", ast.Load()) if lib == "math" else
            ast.Attribute(ast.Name("families.np", ast.Load()), fn, ast.Load()))
    return ast.Call(func, [_python(a, lib) for a in args], [])


def _compiled(tree, var: str, lib: str):
    """The tree compiled to a Python function of ``var`` over ``lib``'s
    functions (see ``_python``)."""
    params = ast.arguments(posonlyargs=[], args=[ast.arg(var)], kwonlyargs=[],
                           kw_defaults=[], defaults=[])
    body = ast.Lambda(params, _python(tree, lib))
    code = ast.fix_missing_locations(ast.Expression(body))
    return eval(compile(code, "<expression>", "eval"), _GLOBALS)


def _fold(node):
    """The tree with each literal-only subtree replaced by its value."""
    if node[0] in ("num", "var"):
        return node
    head = 2 if node[0] == "call" else 1
    node = node[:head] + tuple(_fold(a) for a in node[head:])
    if any(a[0] != "num" for a in node[head:]):
        return node
    # As a float call evaluates: math, and where it refuses, numpy on Python
    # floats; a literal division by zero raises ZeroDivisionError in both.
    # The subtree has no variable, so the one it is compiled in is unused.
    try:
        return ("num", _compiled(node, "_", "math")(0.0))
    except _MATH_REFUSALS:
        with np.errstate(all="ignore"):
            return ("num", float(_compiled(node, "_", "np")(0.0)))


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


def _log_abs(node):
    """log|node| as a new tree, a sum of one log per factor of its products,
    quotients, negations and ``exp``, so no factor under- or overflows the
    others; any other factor must be positive wherever the tree is used."""
    kind = node[0]
    if kind in ("*", "/"):
        return _add(_log_abs(node[1]), _log_abs(node[2]), 1.0 if kind == "*" else -1.0)
    if kind == "neg":
        return _log_abs(node[1])
    if kind == "num":
        return ("num", math.log(abs(node[1])))
    return node[2] if node[:2] == ("call", "exp") else ("call", "log", node)


def _fail(source: str, pos: int, message: str):
    raise SpecificationError(f"parse error at position {pos}: {message}\n"
                             f"    {source}\n    {' ' * pos}^")


def parse_expression(source: str, var: str,
                     literals: dict[str, float] | None = None) -> Expression:
    """Parse to a vectorized function of ``var``, or fail with a position
    marker.  Each name in ``literals`` is a number leaf of its value; any
    other name but ``var`` is refused where it stands.

    CPython's parser reads the grammar once ``^`` is spelled ``**``: the
    two agree on precedence, on right-associative powers and on
    ``-a^b = -(a^b)``.  The walk of its tree admits only the grammar's
    nodes, and numbers only as the grammar spells them.
    """
    if not isinstance(source, str) or not source.strip():
        raise SpecificationError("expression must be a nonempty string")
    if bad := _OUTSIDE.search(source):
        _fail(source, bad.start(), f"unexpected character {bad.group()!r}")
    text = re.sub(r"\s", " ", source).lstrip()
    python = text.replace("^", "**")

    def fail(k: int, message: str):  # k indexes python; origin maps it to text
        origin = [j for j, ch in enumerate(text) for _ in range(1 + (ch == "^"))]
        origin.append(len(text))
        _fail(source, len(source) - len(text) + origin[min(k, len(python))], message)

    def walk(node):
        match node:
            case ast.BinOp(left=a, op=op, right=b) if type(op) in _BINARY_AST:
                return (_BINARY_AST[type(op)], walk(a), walk(b))
            case ast.UnaryOp(op=ast.USub(), operand=a):
                return ("neg", walk(a))
            case ast.Name(id=name) if name == var:
                return ("var", name)
            case ast.Name(id=name) if name in (literals or {}):
                return ("num", literals[name])
            case ast.Name(id=name):
                fail(node.col_offset, f"unknown name {name!r}; the variable is {var!r}")
            case ast.Constant() if _NUMBER.fullmatch(
                    literal := python[node.col_offset:node.end_col_offset]):
                return ("num", float(literal))
            case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if (
                    node.func.col_offset == node.col_offset):  # not (exp)(1)
                if name not in _FUNCTIONS:
                    fail(node.col_offset, f"unknown function {name!r} (only "
                                          f"{sorted(_FUNCTIONS)} are available)")
                return ("call", name, walk(arg))
        fail(node.col_offset, "not in the grammar")

    try:
        body = ast.parse(python, mode="eval").body
    except SyntaxError as exc:  # offset 0 or a later line: the end of the text
        fail(exc.offset - 1 if exc.offset and exc.lineno == 1 else len(python), exc.msg)
    return Expression(source, walk(body), var)


# ---------------------------------------------------------------------------
# Expression-defined families
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = {"name", "support", "log_norm"}
_OPTIONAL_KEYS = {"mean", "mean_deriv", "stat", "mean_range", "jeffreys_shift"}
_INFINITIES = {"inf": math.inf, "+inf": math.inf, "infinity": math.inf, "-inf": -math.inf}


def _pair(value, key: str):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SpecificationError(f"{key} must be a two-element list")
    return value


def _number(v, key: str, unbounded: float | None = None) -> float:
    """A number from the entry of ``key``; with ``unbounded``, an endpoint,
    where ``null`` is that infinity and an infinity may be spelled out."""
    if unbounded is not None:
        if v is None:
            return unbounded
        if isinstance(v, str) and v.strip().lower() in _INFINITIES:
            return _INFINITIES[v.strip().lower()]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:  # an integer past the largest float
            pass
    if unbounded is None:
        raise SpecificationError(f"bad {key} entry {v!r}; expected a number")
    raise SpecificationError(
        f"bad {key} endpoint {v!r}; expected a number, null or 'inf'")


def _interval(value, key: str) -> tuple[float, float]:
    lo, hi = _pair(value, key)
    return _number(lo, key, -math.inf), _number(hi, key, math.inf)


def _mapping(source, label: str, var: str = "theta",
             antiderivative=None) -> Expression:
    """Parse a mapping of ``var``; with no source, differentiate the
    antiderivative.  A refusal names the mapping's ``label``.

    Parsing, differentiation, folding and compiling recurse once per level
    of the tree, so a tree that builds here also evaluates.
    """
    try:
        if source is None and antiderivative is not None:
            tree = _derivative(antiderivative._ast, var)
            return Expression(f"d/d{var}({antiderivative.source})", tree, var)
        return parse_expression(source, var)
    except (RecursionError, MemoryError):  # MemoryError: CPython's parser stack
        raise SpecificationError(f"{label} expression nests too deeply") from None
    except SpecificationError as exc:
        raise SpecificationError(f"{label}: {exc}") from None


def family_from_config(cfg: dict) -> FamilySpec:
    """Build and validate a family from a config mapping.

    Required keys: ``name``, ``support`` (two endpoints, ``null`` for
    infinite) and ``log_norm`` (an expression in ``theta``).  Optional:
    ``mean`` and ``mean_deriv`` (the exact derivatives of ``log_norm``
    and ``mean`` when omitted), ``stat`` (expression in ``x``; ``"x"``
    when omitted or ``null``), ``mean_range``, ``jeffreys_shift``.  The
    name is a nonempty string of printable characters.  The family's
    mappings are the parsed expressions themselves, and a refusal of one
    names its key.  The constructed family is spot-checked; violations
    are reported as configuration errors.
    """
    if not isinstance(cfg, dict):
        raise SpecificationError("family config must be a mapping")
    if unknown := set(cfg) - _REQUIRED_KEYS - _OPTIONAL_KEYS:
        raise SpecificationError(
            f"unknown family config key(s) {sorted(unknown)}; allowed: "
            f"{sorted(_REQUIRED_KEYS | _OPTIONAL_KEYS)}")
    if missing := _REQUIRED_KEYS - set(cfg):
        raise SpecificationError(f"family config missing key(s) {sorted(missing)}")

    name = cfg["name"]
    if not isinstance(name, str) or not name:
        raise SpecificationError(f"bad name entry {name!r}; expected a nonempty string")
    if not name.isprintable():  # a line break would split a one-line message
        raise SpecificationError(f"bad name entry {name!r}; expected printable characters")
    support = _interval(cfg["support"], "support")
    log_norm = _mapping(cfg["log_norm"], "log_norm")
    mean = _mapping(cfg.get("mean"), "mean", antiderivative=log_norm)
    mean_deriv = _mapping(cfg.get("mean_deriv"), "mean_deriv", antiderivative=mean)
    stat = cfg.get("stat")  # absent or null: the observation itself
    stat = _mapping("x" if stat is None else stat, "stat", "x")

    mr, js = cfg.get("mean_range"), cfg.get("jeffreys_shift")
    mean_range = None if mr is None else _interval(mr, "mean_range")
    shift = None if js is None else tuple(_number(v, "jeffreys_shift")
                                          for v in _pair(js, "jeffreys_shift"))

    fam = FamilySpec(
        name=name,
        support=support,
        log_norm=log_norm,
        mean=mean,
        mean_deriv=mean_deriv,
        stat=stat,
        mean_range=mean_range,
        jeffreys_shift=shift,
    )
    problems = validate_family(fam)
    if problems:
        raise SpecificationError(
            f"family {fam.name!r} failed validation: " + "; ".join(problems))
    return fam
