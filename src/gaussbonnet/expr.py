"""Scalar expressions with exact second-order forward-mode differentiation.

Metric entries, conformal factors, vector-field components, transition
angles and partition-of-unity weights are all small closed-form scalar
expressions.  This module parses them into immutable ASTs and evaluates
value, gradient and Hessian in one pass by truncated Taylor (jet)
arithmetic, batched over numpy arrays of evaluation points.

Each node is compiled once, on its first evaluation, into a jet program
cached on the node; it is not a dataclass field, so equality, hashing and
printing still compare trees.  `variable_support` comes from the same walk.
The power rule is settled when a power is compiled: an exponent that reads
no coordinate is constant across the batch, and an integral value k with
|k| <= 1024 is repeated multiplication, so any base sign is legal; every
other exponent is exp(b log a) and needs a positive base.

Grammar (whitespace insensitive)::

    expr    := term { ("+"|"-") term }
    term    := factor { ("*"|"/") factor }
    factor  := unary [ "^" factor ]          # power binds tighter, right-assoc
    unary   := "-" unary | primary
    primary := NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")"

`pi` and `e` are reserved constants.  Supported functions: sin, cos, tan,
exp, log, sqrt, sinh, cosh, tanh, atan, atan2, abs, pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Const", "Neg", "BinOp", "Call",
    "Jet2", "ParseError", "UnknownIdentifierError", "EvalDomainError",
    "parse", "eval_jet2", "eval_jet", "eval_values", "expr_to_str",
    "variable_support",
]

CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Syntax error with byte offset and an expected-token hint."""

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class UnknownIdentifierError(ParseError):
    def __init__(self, name, offset):
        self.name = name
        ParseError.__init__(self, f"unknown identifier {name!r}", offset)


class EvalDomainError(ArithmeticError):
    """Evaluation left the function's domain; carries the offending subexpression."""

    def __init__(self, reason, node):
        self.reason = reason
        self.node = node
        super().__init__(f"{reason} in subexpression {expr_to_str(node)!r}")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

class Expr:
    __slots__ = ()

    @cached_property
    def _program(self):
        """This node's compiled jet program; not a field, so not in eq/hash/repr."""
        return _compile(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str
    index: int  # position in the declared variable list; -1 for parameters


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_SYMBOLS = "+-*/^(),"


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, parameters):
        self.tokens = tokens
        self.pos = 0
        self.variables = list(variables)
        self.parameters = set(parameters)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], expected=kind)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_unary()
        if self.peek()[0] == "^":
            self.advance()
            node = BinOp("^", node, self.parse_factor())  # right-associative
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        kind, text, off = tok
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTION_ARITY:
                    raise UnknownIdentifierError(text, off)
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                arity = FUNCTION_ARITY[text]
                if len(args) != arity:
                    raise ParseError(
                        f"{text} takes {arity} argument(s), got {len(args)}", off)
                return Call(text, tuple(args))
            if text in self.variables:
                return Var(text, self.variables.index(text))
            if text in self.parameters:
                return Var(text, -1)
            if text in CONSTANTS:
                return Const(text)
            raise UnknownIdentifierError(text, off)
        raise ParseError(f"unexpected token {text!r}", off,
                         expected="number, identifier or '('")


def parse(text, variables, parameters=()):
    """Parse ``text`` against declared variable and parameter names.

    Raises :class:`ParseError` (with byte offset) on bad syntax and
    :class:`UnknownIdentifierError` for undeclared names.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected="expression")
    for name in list(variables) + list(parameters):
        if name in CONSTANTS or name in FUNCTION_ARITY:
            raise ValueError(f"declared name {name!r} shadows a reserved word")
    parser = _Parser(_tokenize(text), variables, parameters)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], expected="end of input")
    return node


# --------------------------------------------------------------------------
# Printing (round-trips through parse)
# --------------------------------------------------------------------------

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _level(node):
    if isinstance(node, BinOp):
        return _LEVEL[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def _wrap(s, need):
    return f"({s})" if need else s


def expr_to_str(node):
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({', '.join(expr_to_str(a) for a in node.args)})"
    if isinstance(node, Neg):
        inner = expr_to_str(node.operand)
        lv = _level(node.operand)
        # parenthesize +,-,*,/ and ^ operands: "-x^2" would re-parse as (-x)^2
        return "-" + _wrap(inner, lv < 3 or lv == 4)
    if isinstance(node, BinOp):
        lv = _LEVEL[node.op]
        ls = expr_to_str(node.left)
        rs = expr_to_str(node.right)
        if node.op == "^":
            # right-associative; the base slot is grammatically a `unary`, so
            # anything but an atom or a unary minus needs parentheses
            left = _wrap(ls, _level(node.left) < 5 and not isinstance(node.left, Neg))
            right = _wrap(rs, _level(node.right) < 3)
            return f"{left}^{right}"
        left = _wrap(ls, _level(node.left) < lv)
        right = _wrap(rs, _level(node.right) <= lv)
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an Expr node: {node!r}")


# --------------------------------------------------------------------------
# Jet arithmetic (batched)
# --------------------------------------------------------------------------

@dataclass
class Jet2:
    """Value, gradient and symmetric Hessian of a scalar expression at a point."""
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


class _Jet:
    """Batched truncated Taylor element: val (N,), grad (N,d), hess (N,d,d)."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess


def _const_jet(value, points, order):
    n, d = points.shape
    val = np.full(n, float(value))
    grad = np.zeros((n, d)) if order >= 1 else None
    hess = np.zeros((n, d, d)) if order >= 2 else None
    return _Jet(val, grad, hess)


def _var_jet(points, index, order):
    n, d = points.shape
    val = points[:, index].astype(float)
    grad = hess = None
    if order >= 1:
        grad = np.zeros((n, d))
        grad[:, index] = 1.0
    if order >= 2:
        hess = np.zeros((n, d, d))
    return _Jet(val, grad, hess)


def _add(a, b, sign=1.0):
    val = a.val + sign * b.val
    grad = None if a.grad is None else a.grad + sign * b.grad
    hess = None if a.hess is None else a.hess + sign * b.hess
    return _Jet(val, grad, hess)


def _neg(a):
    return _Jet(-a.val,
                None if a.grad is None else -a.grad,
                None if a.hess is None else -a.hess)


def _mul(a, b):
    val = a.val * b.val
    grad = hess = None
    if a.grad is not None:
        grad = a.val[:, None] * b.grad + b.val[:, None] * a.grad
    if a.hess is not None:
        cross = a.grad[:, :, None] * b.grad[:, None, :]
        hess = (a.val[:, None, None] * b.hess + b.val[:, None, None] * a.hess
                + cross + cross.transpose(0, 2, 1))
    return _Jet(val, grad, hess)


def _chain(a, f0, f1=None, f2=None):
    """Compose a jet with a scalar function given derivative arrays."""
    grad = hess = None
    if a.grad is not None:
        grad = f1[:, None] * a.grad
    if a.hess is not None:
        outer = a.grad[:, :, None] * a.grad[:, None, :]
        hess = f1[:, None, None] * a.hess + f2[:, None, None] * outer
    return _Jet(f0, grad, hess)


def _sqrt_derivatives(v, rt):
    with np.errstate(divide="ignore"):
        return 0.5 / rt, -0.25 / (rt * v)


# name: (f, (f', f'') from (v, f(v)), domain test or None, domain error)
_UNARY = {
    "sin": (np.sin, lambda v, s: (np.cos(v), -s), None, None),
    "cos": (np.cos, lambda v, c: (-np.sin(v), -c), None, None),
    "tan": (np.tan, lambda v, t: (sec2 := 1.0 + t * t, 2.0 * t * sec2), None, None),
    "exp": (np.exp, lambda v, ex: (ex, ex), None, None),
    "log": (np.log, lambda v, f: (inv := 1.0 / v, -inv * inv),
            lambda v: v <= 0.0, "log of nonpositive value"),
    "sqrt": (np.sqrt, _sqrt_derivatives, lambda v: v < 0.0, "sqrt of negative value"),
    "sinh": (np.sinh, lambda v, sh: (np.cosh(v), sh), None, None),
    "cosh": (np.cosh, lambda v, ch: (np.sinh(v), ch), None, None),
    "tanh": (np.tanh, lambda v, th: (sech2 := 1.0 - th * th, -2.0 * th * sech2), None, None),
    "atan": (np.arctan, lambda v, f: (1.0 / (den := 1.0 + v * v), -2.0 * v / (den * den)),
             None, None),
    # derivatives taken away from the kink; sign(0) treated as 0
    "abs": (np.abs, lambda v, f: (np.sign(v), np.zeros_like(v)), None, None),
}
FUNCTION_ARITY = {**dict.fromkeys(_UNARY, 1), "atan2": 2, "pow": 2}
_RECIPROCAL = (lambda v: 1.0 / v, lambda v, inv: (-inv * inv, 2.0 * inv * inv * inv),
               lambda v: v == 0.0, "division by zero")


def _unary(entry, a, node, order):
    f, derivatives, outside, reason = entry
    if outside is not None and np.any(outside(a.val)):
        raise EvalDomainError(reason, node)
    f0 = f(a.val)
    if order == 0:
        return _Jet(f0)
    return _chain(a, f0, *derivatives(a.val, f0))


def _atan2(y, x, node, order):
    if np.any((x.val == 0.0) & (y.val == 0.0)):
        raise EvalDomainError("atan2(0, 0) is undefined", node)
    f0 = np.arctan2(y.val, x.val)
    if order == 0:
        return _Jet(f0)
    r2 = x.val * x.val + y.val * y.val
    fy, fx = x.val / r2, -y.val / r2
    grad = fy[:, None] * y.grad + fx[:, None] * x.grad
    hess = None
    if order >= 2:
        r4 = r2 * r2
        fyy = -2.0 * x.val * y.val / r4
        fxx = 2.0 * x.val * y.val / r4
        fxy = (y.val * y.val - x.val * x.val) / r4
        oyy = y.grad[:, :, None] * y.grad[:, None, :]
        oxx = x.grad[:, :, None] * x.grad[:, None, :]
        oyx = y.grad[:, :, None] * x.grad[:, None, :]
        hess = (fy[:, None, None] * y.hess + fx[:, None, None] * x.hess
                + fyy[:, None, None] * oyy + fxx[:, None, None] * oxx
                + fxy[:, None, None] * (oyx + oyx.transpose(0, 2, 1)))
    return _Jet(f0, grad, hess)


def _int_power(a, k, node, points, order):
    """a^k by repeated multiplication, then 1/a^|k| for k < 0; any base sign."""
    if k == 0:
        return _const_jet(1.0, points, order)
    n = abs(k)
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else _mul(result, base)
        n >>= 1
        if n:
            base = _mul(base, base)
    return _unary(_RECIPROCAL, result, node, order) if k < 0 else result


def _integer_exponent(b):
    """int(k) for an integral exponent value k with |k| <= 1024, else None."""
    k = b.val[0]
    return int(round(k)) if k == round(k) and abs(k) <= 1024 else None


# --------------------------------------------------------------------------
# Compilation: one jet program per node
# --------------------------------------------------------------------------

# One point in no coordinates: where a coordinate-free exponent is evaluated.
_NO_POINTS = np.empty((1, 0))

# Neg, BinOp and Call nodes other than powers: op(*child jets, node, order)
_OPS = {
    "neg": lambda a, node, order: _neg(a),
    "+": lambda a, b, node, order: _add(a, b),
    "-": lambda a, b, node, order: _add(a, b, sign=-1.0),
    "*": lambda a, b, node, order: _mul(a, b),
    "/": lambda a, b, node, order: _mul(a, _unary(_RECIPROCAL, b, node, order)),
    "atan2": _atan2,
    **{name: partial(_unary, entry) for name, entry in _UNARY.items()},
}


class _Program(NamedTuple):
    run: Callable  # run(points, params, order) -> _Jet
    support: frozenset  # indices of the coordinates the node reads
    reads_params: bool


def _compiled(node):
    if not isinstance(node, Expr):
        raise TypeError(f"not an Expr node: {node!r}")
    return node._program


def variable_support(node):
    """Indices of the declared variables that an expression reads.

    Parameters (``Var.index == -1``) and constants are not variables, so an
    expression whose support misses an index is constant along that axis.
    The support comes from the walk that compiles the node.
    """
    return _compiled(node).support


def _compile(node):
    """Build ``node``'s program over its children's; the left operand runs first."""
    if isinstance(node, (Num, Const)):
        value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
        return _Program(lambda pts, params, order: _const_jet(value, pts, order),
                        frozenset(), False)
    if isinstance(node, Var):
        index, name = node.index, node.name
        if index >= 0:
            return _Program(lambda pts, params, order: _var_jet(pts, index, order),
                            frozenset((index,)), False)

        def parameter(pts, params, order):
            if name not in params:
                raise EvalDomainError("unbound parameter", node)
            return _const_jet(params[name], pts, order)

        return _Program(parameter, frozenset(), True)
    if isinstance(node, Neg):
        key, children = "neg", (node.operand,)
    elif isinstance(node, BinOp):
        key, children = node.op, (node.left, node.right)
    else:
        key, children = node.func, node.args
    progs = [_compiled(child) for child in children]
    f = progs[0].run
    if key in ("^", "pow"):
        run = _power(node, *progs)
    elif len(progs) == 1:
        op = _OPS[key]
        run = lambda pts, params, order: op(f(pts, params, order), node, order)
    else:
        op, g = _OPS[key], progs[1].run
        run = lambda pts, params, order: op(
            f(pts, params, order), g(pts, params, order), node, order)
    return _Program(run, frozenset().union(*(p.support for p in progs)),
                    any(p.reads_params for p in progs))


def _power(node, base, exponent):
    """The power rule of the module docstring, settled from the exponent's support."""
    a_run, b_run = base.run, exponent.run
    per_call = not exponent.support and exponent.reads_params
    folded = (None if exponent.support or per_call
              else _integer_exponent(b_run(_NO_POINTS, {}, 0)))

    def run(pts, params, order):
        a = a_run(pts, params, order)
        k = _integer_exponent(b_run(_NO_POINTS, params, 0)) if per_call else folded
        if k is not None:
            return _int_power(a, k, node, pts, order)
        b = b_run(pts, params, order)
        if np.any(a.val <= 0.0):
            raise EvalDomainError(
                "power needs a positive base unless its exponent is a constant integer", node)
        log_a = _unary(_UNARY["log"], a, node, order)
        return _unary(_UNARY["exp"], _mul(b, log_a), node, order)

    return run


def eval_jet(node, points, params=None, order=2):
    """Batched evaluation: ``points`` is (N, d); returns a jet of the given order."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must have shape (N, d)")
    return _compiled(node).run(points, params or {}, order)


def eval_values(node, points, params=None):
    return eval_jet(node, points, params, order=0).val


def eval_jet2(node, point, params=None):
    """Value, gradient and Hessian at a single point (spec-facing scalar API)."""
    point = np.asarray(point, dtype=float)
    jet = eval_jet(node, point[None, :], params, order=2)
    hess = 0.5 * (jet.hess[0] + jet.hess[0].T)  # enforce exact symmetry
    return Jet2(float(jet.val[0]), jet.grad[0].copy(), hess)
