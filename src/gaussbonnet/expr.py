"""Scalar expressions with exact second-order forward-mode differentiation.

Metric entries, conformal factors, vector-field components, transition
angles and partition-of-unity weights are all small closed-form scalar
expressions.  This module parses them into immutable ASTs and evaluates
value, gradient and Hessian in one pass by truncated Taylor (jet)
arithmetic, batched over numpy arrays of evaluation points.

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

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Const", "Neg", "BinOp", "Call",
    "Jet2", "ParseError", "UnknownIdentifierError", "EvalDomainError",
    "parse", "eval_jet2", "eval_jet", "eval_values", "expr_to_str",
    "variable_support",
]

FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1,
    "sinh": 1, "cosh": 1, "tanh": 1, "atan": 1, "atan2": 2,
    "abs": 1, "pow": 2,
}

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


def variable_support(node):
    """Indices of the declared variables that an expression reads.

    Parameters (``Var.index == -1``) and constants are not variables, so an
    expression whose support misses an index is constant along that axis.
    """
    found = set()
    stack = [node]
    while stack:
        nd = stack.pop()
        if isinstance(nd, Var):
            if nd.index >= 0:
                found.add(nd.index)
        elif isinstance(nd, Neg):
            stack.append(nd.operand)
        elif isinstance(nd, BinOp):
            stack += (nd.left, nd.right)
        elif isinstance(nd, Call):
            stack.extend(nd.args)
        elif not isinstance(nd, (Num, Const)):
            raise TypeError(f"not an Expr node: {nd!r}")
    return frozenset(found)


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


def _const_jet(value, n, d, order):
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


def _chain2(a, b, f0, fa, fb, faa, fab, fbb, order):
    """Second-order chain rule for a binary function f(a, b)."""
    grad = hess = None
    if order >= 1:
        grad = fa[:, None] * a.grad + fb[:, None] * b.grad
    if order >= 2:
        oaa = a.grad[:, :, None] * a.grad[:, None, :]
        obb = b.grad[:, :, None] * b.grad[:, None, :]
        oab = a.grad[:, :, None] * b.grad[:, None, :]
        hess = (fa[:, None, None] * a.hess + fb[:, None, None] * b.hess
                + faa[:, None, None] * oaa + fbb[:, None, None] * obb
                + fab[:, None, None] * (oab + oab.transpose(0, 2, 1)))
    return _Jet(f0, grad, hess)


def _reciprocal(b, node, order):
    if np.any(b.val == 0.0):
        raise EvalDomainError("division by zero", node)
    inv = 1.0 / b.val
    if order == 0:
        return _Jet(inv)
    return _chain(b, inv, -inv * inv, 2.0 * inv * inv * inv if order >= 2 else None)


def _int_power(a, n):
    """a**n by repeated multiplication (n != 0); valid for any base sign."""
    invert = n < 0
    n = abs(n)
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else _mul(result, base)
        n >>= 1
        if n:
            base = _mul(base, base)
    return result, invert


def _eval(node, points, params, order):
    n, d = points.shape

    def rec(nd):
        if isinstance(nd, Num):
            return _const_jet(nd.value, n, d, order)
        if isinstance(nd, Const):
            return _const_jet(CONSTANTS[nd.name], n, d, order)
        if isinstance(nd, Var):
            if nd.index >= 0:
                return _var_jet(points, nd.index, order)
            if nd.name not in params:
                raise EvalDomainError("unbound parameter", nd)
            return _const_jet(params[nd.name], n, d, order)
        if isinstance(nd, Neg):
            return _neg(rec(nd.operand))
        if isinstance(nd, BinOp):
            a = rec(nd.left)
            if nd.op == "+":
                return _add(a, rec(nd.right))
            if nd.op == "-":
                return _add(a, rec(nd.right), sign=-1.0)
            if nd.op == "*":
                return _mul(a, rec(nd.right))
            if nd.op == "/":
                b = rec(nd.right)
                return _mul(a, _reciprocal(b, nd, order))
            if nd.op == "^":
                return power(a, rec(nd.right), nd)
        if isinstance(nd, Call):
            args = [rec(arg) for arg in nd.args]
            return call(nd, args)
        raise TypeError(f"not an Expr node: {nd!r}")

    def power(a, b, nd):
        # Integer exponents (constant across the batch, flat jet) are computed
        # by repeated multiplication so negative bases stay legal.
        is_const = (b.grad is None or not b.grad.any()) and \
                   (b.hess is None or not b.hess.any())
        if is_const and b.val.size and np.all(b.val == b.val[0]):
            ival = b.val[0]
            if ival == round(ival) and abs(ival) <= 1024:
                k = int(round(ival))
                if k == 0:
                    return _const_jet(1.0, n, d, order)
                res, invert = _int_power(a, k)
                if invert:
                    res = _reciprocal(res, nd, order)
                return res
        if np.any(a.val <= 0.0):
            raise EvalDomainError("power with non-integer exponent needs positive base", nd)
        # a^b = exp(b*log a)
        return call(Call("exp", (nd,)), [_mul(b, _log(a, nd))])

    def _log(a, nd):
        if np.any(a.val <= 0.0):
            raise EvalDomainError("log of nonpositive value", nd)
        f0 = np.log(a.val)
        if order == 0:
            return _Jet(f0)
        inv = 1.0 / a.val
        return _chain(a, f0, inv, -inv * inv if order >= 2 else None)

    def call(nd, args):
        name = nd.func
        if name == "atan2":
            y, x = args
            if np.any((x.val == 0.0) & (y.val == 0.0)):
                raise EvalDomainError("atan2(0, 0) is undefined", nd)
            f0 = np.arctan2(y.val, x.val)
            if order == 0:
                return _Jet(f0)
            r2 = x.val * x.val + y.val * y.val
            fy, fx = x.val / r2, -y.val / r2
            r4 = r2 * r2
            fyy = -2.0 * x.val * y.val / r4
            fxx = 2.0 * x.val * y.val / r4
            fxy = (y.val * y.val - x.val * x.val) / r4
            return _chain2(y, x, f0, fy, fx, fyy, fxy, fxx, order)
        if name == "pow":
            return power(args[0], args[1], nd)
        a = args[0]
        v = a.val
        if name == "sin":
            s, c = np.sin(v), np.cos(v)
            return _chain(a, s, c, -s) if order else _Jet(s)
        if name == "cos":
            s, c = np.sin(v), np.cos(v)
            return _chain(a, c, -s, -c) if order else _Jet(c)
        if name == "tan":
            t = np.tan(v)
            sec2 = 1.0 + t * t
            return _chain(a, t, sec2, 2.0 * t * sec2) if order else _Jet(t)
        if name == "exp":
            ex = np.exp(v)
            return _chain(a, ex, ex, ex) if order else _Jet(ex)
        if name == "log":
            return _log(a, nd)
        if name == "sqrt":
            if np.any(v < 0.0):
                raise EvalDomainError("sqrt of negative value", nd)
            with np.errstate(divide="ignore"):
                rt = np.sqrt(v)
                if order == 0:
                    return _Jet(rt)
                f1 = 0.5 / rt
                f2 = -0.25 / (rt * v) if order >= 2 else None
            return _chain(a, rt, f1, f2)
        if name == "sinh":
            sh, ch = np.sinh(v), np.cosh(v)
            return _chain(a, sh, ch, sh) if order else _Jet(sh)
        if name == "cosh":
            sh, ch = np.sinh(v), np.cosh(v)
            return _chain(a, ch, sh, ch) if order else _Jet(ch)
        if name == "tanh":
            th = np.tanh(v)
            sech2 = 1.0 - th * th
            return _chain(a, th, sech2, -2.0 * th * sech2) if order else _Jet(th)
        if name == "atan":
            f0 = np.arctan(v)
            if order == 0:
                return _Jet(f0)
            den = 1.0 + v * v
            return _chain(a, f0, 1.0 / den,
                          -2.0 * v / (den * den) if order >= 2 else None)
        if name == "abs":
            # derivatives taken away from the kink; sign(0) treated as 0
            s = np.sign(v)
            return _chain(a, np.abs(v), s, np.zeros_like(v)) if order else _Jet(np.abs(v))
        raise TypeError(f"unknown function {name!r}")

    return rec(node)


def eval_jet(node, points, params=None, order=2):
    """Batched evaluation: ``points`` is (N, d); returns a jet of the given order."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must have shape (N, d)")
    return _eval(node, points, params or {}, order)


def eval_values(node, points, params=None):
    return eval_jet(node, points, params, order=0).val


def eval_jet2(node, point, params=None):
    """Value, gradient and Hessian at a single point (spec-facing scalar API)."""
    point = np.asarray(point, dtype=float)
    jet = eval_jet(node, point[None, :], params, order=2)
    hess = 0.5 * (jet.hess[0] + jet.hess[0].T)  # enforce exact symmetry
    return Jet2(float(jet.val[0]), jet.grad[0].copy(), hess)
