"""Scalar expressions with exact second-order forward-mode differentiation.

Metric entries, conformal factors, vector-field components, transition
angles and partition-of-unity weights are all small closed-form scalar
expressions.  This module parses them into immutable ASTs and evaluates
value, gradient and Hessian in one pass by truncated Taylor (jet)
arithmetic, batched over numpy arrays of evaluation points.

One compiler turns a tuple of roots (a chart's metric entries, a field's
components, or a single expression) into a `Program`: straight-line
Python source, generated on first use per derivative order and parameter
binding.  `shared_program` keeps one `Program` per tuple of roots for the
whole process, so an equal chart, field or expression built later reuses
the source compiled for the first.  Each distinct subexpression is
computed once, found by structural hashing of the frozen nodes, and while
compiling each jet keeps one (N,) array per axis it depends on for the
gradient and one per (i, j) pair for the Hessian, so constants and
one-variable terms carry no dense derivative blocks.  A root's Hessian is
stored once per pair i <= j as 0.5 * (h_ij + h_ji), so it is symmetric
to the bit.  The operations keep the dense jet formulas' IEEE order, so
only exact zeros can differ, in sign.  `eval_jet` returns one dense `Jet`
for a program or an expression; which stored row fills which dense
position is a table private to this module.  The source holds slot
names, float and row-index literals and names bound in its own
namespace, never text from a spec file; a domain error names the first
subexpression, in evaluation order, that leaves its domain.

The power rule is settled at compile time: an exponent that reads no
coordinate is constant across the batch, and an integral value k with
|k| <= 1024 is repeated multiplication, so any base sign is legal; a
constant that folds to NaN or +-inf is a domain error; every other
exponent is exp(b log a) and needs a positive base.

Grammar (whitespace insensitive)::

    expr    := term { ("+"|"-") term }
    term    := unary { ("*"|"/") unary }
    unary   := "-" unary | power
    power   := primary [ "^" unary ]
    primary := NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")"

As in Python, a unary minus binds looser than "^" on its left and "^" is
right-associative: -x^2 is -(x^2), x^-2 is x^(-2) and 2^-1^2 is 2^(-(1^2)).

`pi` and `e` are reserved constants.  Supported functions: sin, cos, tan,
exp, log, sqrt, sinh, cosh, tanh, atan, atan2, abs, pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Const", "Neg", "BinOp", "Call",
    "Jet", "Program", "shared_program", "ParseError", "UnknownIdentifierError",
    "EvalDomainError", "parse", "eval_jet", "expr_to_str", "variable_support",
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
        """This node's one-root jet program; not a field, so not in eq/hash/repr."""
        return shared_program((self,))

    @cached_property
    def _reads(self):
        """(coordinate indices, parameter names) that the node reads."""
        if isinstance(self, Var):
            if self.index < 0:
                return frozenset(), frozenset((self.name,))
            return frozenset((self.index,)), frozenset()
        reads = [child._reads for child in _children(self)]
        return (frozenset().union(*(r[0] for r in reads)),
                frozenset().union(*(r[1] for r in reads)))


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


def _children(node):
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return node.left, node.right
    return node.args if isinstance(node, Call) else ()


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
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_primary()
        if self.peek()[0] == "^":
            self.advance()
            node = BinOp("^", node, self.parse_unary())  # right-associative
        return node

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
        if math.isinf(v):  # what parses to it; repr's "inf" would read as a name
            return "1e999" if v > 0 else "-1e999"
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
        return "-" + _wrap(expr_to_str(node.operand), _level(node.operand) < 3)
    if isinstance(node, BinOp):
        lv = _LEVEL[node.op]
        ls = expr_to_str(node.left)
        rs = expr_to_str(node.right)
        if node.op == "^":
            # the base slot is a `primary` and the exponent slot a `unary`
            left = _wrap(ls, _level(node.left) < 5)
            right = _wrap(rs, _level(node.right) < 3)
            return f"{left}^{right}"
        left = _wrap(ls, _level(node.left) < lv)
        right = _wrap(rs, _level(node.right) <= lv)
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an Expr node: {node!r}")


# --------------------------------------------------------------------------
# Jets
# --------------------------------------------------------------------------

class Jet(NamedTuple):
    """Dense jet at N points in d coordinates, each part None above the
    evaluated order.  A program of K roots gives val (N, K), grad (N, d, K)
    and hess (N, d, d, K); one expression gives the same without the K
    axis.  hess equals its transpose bit for bit."""
    val: np.ndarray
    grad: np.ndarray | None
    hess: np.ndarray | None


def _sqrt_d1(rt):
    with np.errstate(divide="ignore"):
        return 0.5 / rt


def _sqrt_d2(v, rt):
    with np.errstate(divide="ignore"):
        return -0.25 / (rt * v)


# Source templates over {v} = argument, {f} = f(v) and {d} = f'(v):
# name: (f, f', f'' or None where it is identically zero, domain test, domain error)
_UNARY = {
    "sin": ("sin({v})", "cos({v})", "(-{f})", None, None),
    "cos": ("cos({v})", "(-sin({v}))", "(-{f})", None, None),
    "tan": ("tan({v})", "(1.0 + {f} * {f})", "(2.0 * {f} * {d})", None, None),
    "exp": ("exp({v})", "{f}", "{f}", None, None),
    "log": ("log({v})", "(1.0 / {v})", "(-{d} * {d})",
            "({v} <= 0.0)", "log of nonpositive value"),
    "sqrt": ("sqrt({v})", "sqrt_d1({f})", "sqrt_d2({v}, {f})",
             "({v} < 0.0)", "sqrt of negative value"),
    "sinh": ("sinh({v})", "cosh({v})", "{f}", None, None),
    "cosh": ("cosh({v})", "sinh({v})", "{f}", None, None),
    "tanh": ("tanh({v})", "(1.0 - {f} * {f})", "(-2.0 * {f} * {d})", None, None),
    "atan": ("arctan({v})", "(1.0 / (1.0 + {v} * {v}))",
             "(-2.0 * {v} / ((1.0 + {v} * {v}) * (1.0 + {v} * {v})))", None, None),
    # derivatives taken away from the kink; sign(0) treated as 0
    "abs": ("absolute({v})", "sign({v})", None, None, None),
}
FUNCTION_ARITY = {**dict.fromkeys(_UNARY, 1), "atan2": 2, "pow": 2}
_RECIPROCAL = ("(1.0 / {v})", "(-{f} * {f})", "(2.0 * {f} * {f} * {f})",
               "({v} == 0.0)", "division by zero")
_LOG_OF_POSITIVE = _UNARY["log"][:3] + (None, None)  # the power rule checks first

# Every name a program's source reads besides its slots and error factories.
_NAMESPACE = {
    "empty": np.empty, "inf": math.inf, "nan": math.nan,
    "sqrt_d1": _sqrt_d1, "sqrt_d2": _sqrt_d2,
    **{name: getattr(np, name) for name in (
        "sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh",
        "arctan", "arctan2", "absolute", "sign")},
}


def _lit(x):
    """Source text of an operand: a slot name, or a float literal."""
    if isinstance(x, str):
        return x
    text = repr(x)
    return f"({text})" if text[0] == "-" else text


@lru_cache(maxsize=None)
def _fold_code(template, names):
    return compile(template.format(**{name: name for name in names}), "<fold>", "eval")


def _integer_exponent(k):
    """int(k) for an integral exponent value k with |k| <= 1024, else None."""
    return int(round(k)) if k == round(k) and abs(k) <= 1024 else None


# --------------------------------------------------------------------------
# Compilation: one straight-line jet program per tuple of roots
# --------------------------------------------------------------------------

class _Sym(NamedTuple):
    """A jet while compiling: each entry is a slot name or a float constant;
    grad maps axis -> entry and hess (i, j) -> entry, absent entries zero."""
    val: object
    grad: dict
    hess: dict


class _Abort(Exception):
    """A constant subexpression leaves its domain: the program ends in a raise."""


class _Variant(NamedTuple):
    run: Callable  # run(X, n) with X the (d, N) coordinates -> (rows, N) array
    source: str
    order: int
    roots: int
    rows: dict  # (r,) | (a, r) | (i, j, r) with i <= j -> its row; row 0 is 0.0
    tables: dict  # d -> (val, grad, hess) gather tables, built on first use

    def table(self, d):
        """Source rows of the dense val, grad and hess in d coordinates."""
        found = self.tables.get(d)
        if found is None:
            roots = range(self.roots)
            keys = ([(r,) for r in roots],
                    [(a, r) for a in range(d) for r in roots],
                    [(min(i, j), max(i, j), r)
                     for i in range(d) for j in range(d) for r in roots])
            found = self.tables[d] = tuple(
                np.array([self.rows.get(key, 0) for key in part], dtype=np.intp)
                if k <= self.order else None for k, part in enumerate(keys))
        return found

    def __call__(self, points):
        # one point runs the same source on numpy scalars, which round as
        # the batched arrays do and skip the array overhead of every op
        n, d = points.shape
        coords = points[0] if n == 1 else np.ascontiguousarray(points.T)
        rows = self.run(coords, n)
        flat = []  # rows.T made C-contiguous, once, if a wide part needs it

        def part(index, *axes):
            # Each part is C-contiguous with the points first.  Up to 8
            # columns it is gathered row-wise and then transposed; a wider
            # part is taken from one transpose of all rows, since transposing
            # a wide gathered block misses the cache.  Every table row
            # exists, so "clip" only skips the bounds checks.
            if len(index) <= 8:
                out = np.ascontiguousarray(rows.take(index, axis=0, mode="clip").T)
            else:
                if not flat:
                    flat.append(np.ascontiguousarray(rows.T))
                out = flat[0].take(index, axis=1, mode="clip")
            return out.reshape(n, *axes, self.roots)

        val, grad, hess = self.table(d)
        return Jet(part(val), None if grad is None else part(grad, d),
                   None if hess is None else part(hess, d, d))


class _Compiler:
    """Emits the source of one program, bottom-up, each distinct node once.

    Operations keep the dense jet formulas' IEEE order (left operand first,
    a.∂b + b.∂a, ((a.Hb + b.Ha) + ∂a∂b) + (∂a∂b)ᵀ), so only terms that are
    exactly zero are skipped; constants are folded on 1-element numpy
    values, which round as the batched arrays do.
    """

    def __init__(self, order, params):
        self.order = order
        self.params = params
        self.lines = []
        self.namespace = dict(_NAMESPACE)
        self.memo = {}
        self.slots = {}
        self.errors = 0

    # -- operands ---------------------------------------------------------

    def op(self, template, **operands):
        """``template`` over ``operands``: folded when all are constants, else source."""
        if all(isinstance(x, float) for x in operands.values()):
            code = _fold_code(template, tuple(operands))
            return float(eval(code, _NAMESPACE,
                              {k: np.float64(x) for k, x in operands.items()}))
        return template.format(**{k: _lit(x) for k, x in operands.items()})

    def mul(self, x, y):
        if x is None or y is None:
            return None
        if isinstance(x, float) and x == 1.0:
            return y
        if isinstance(y, float) and y == 1.0:
            return x
        product = self.op("({x} * {y})", x=x, y=y)
        return product if isinstance(product, float) else self.value(product)

    def add(self, *terms):
        """The left-to-right sum of the terms that are present and not 0.0."""
        terms = [t for t in terms if t is not None and not (isinstance(t, float) and t == 0.0)]
        if not terms:
            return None
        if all(isinstance(t, float) for t in terms):
            return float(sum(terms[1:], np.float64(terms[0])))
        return terms[0] if len(terms) == 1 else f"({' + '.join(map(_lit, terms))})"

    def value(self, x):
        """Bind an operand to a slot unless it is a slot or a constant already;
        source text seen before reuses its slot."""
        if isinstance(x, float) or x.isidentifier():
            return x
        name = self.slots.get(x)
        if name is None:
            name = self.slots[x] = f"t{len(self.slots)}"
            self.lines.append(f"{name} = {x}")
        return name

    def entry(self, x):
        """A derivative entry: None when absent or exactly zero."""
        if x is None or (isinstance(x, float) and x == 0.0):
            return None
        return self.value(x)

    def error(self, reason, node):
        """Bind a factory of this domain error in the namespace; returns its name."""
        name = f"E{self.errors}"
        self.errors += 1
        self.namespace[name] = partial(EvalDomainError, reason, node)
        return name

    def check(self, test, reason, node, **operands):
        """Raise the domain error where ``test`` holds at any point."""
        text = self.op(test, **operands)
        if isinstance(text, str):
            self.lines.append(f"if {text}.any(): raise {self.error(reason, node)}()")
        elif text:
            raise _Abort(self.error(reason, node))

    # -- jets -------------------------------------------------------------

    def sym(self, val, grad, hess):
        grad = {k: e for k, x in sorted(grad.items()) if (e := self.entry(x)) is not None}
        hess = {p: e for p, x in sorted(hess.items()) if (e := self.entry(x)) is not None}
        return _Sym(self.value(val), grad, hess)

    def pairs(self, *groups):
        """Hessian slots that products of gradient entries fill: (i, j) and (j, i)."""
        if self.order < 2:
            return set()
        out = set()
        for left, right in groups:
            out.update((i, j) for i in left for j in right)
            out.update((j, i) for i in left for j in right)
        return out

    def plus(self, a, b, minus=False):
        template = "({x} - {y})" if minus else "({x} + {y})"

        def combine(x, y):
            if y is None:
                return x
            if x is None:
                return self.op("(-{x})", x=y) if minus else y
            return self.op(template, x=x, y=y)

        return self.sym(
            self.op(template, x=a.val, y=b.val),
            {k: combine(a.grad.get(k), b.grad.get(k)) for k in a.grad.keys() | b.grad.keys()},
            {p: combine(a.hess.get(p), b.hess.get(p)) for p in a.hess.keys() | b.hess.keys()})

    def neg(self, a):
        return self.sym(self.op("(-{x})", x=a.val),
                        {k: self.op("(-{x})", x=x) for k, x in a.grad.items()},
                        {p: self.op("(-{x})", x=x) for p, x in a.hess.items()})

    def times(self, a, b):
        mul, add = self.mul, self.add
        grad = {k: add(mul(a.val, b.grad.get(k)), mul(b.val, a.grad.get(k)))
                for k in a.grad.keys() | b.grad.keys()}
        hess = {}
        for p in a.hess.keys() | b.hess.keys() | self.pairs((a.grad, b.grad)):
            i, j = p
            hess[p] = add(mul(a.val, b.hess.get(p)), mul(b.val, a.hess.get(p)),
                          mul(a.grad.get(i), b.grad.get(j)), mul(a.grad.get(j), b.grad.get(i)))
        return self.sym(mul(a.val, b.val), grad, hess)

    def unary(self, entry, a, node):
        f0, d1, d2, test, reason = entry
        if test is not None:
            self.check(test, reason, node, v=a.val)
        f = self.value(self.op(f0, v=a.val))
        if not (a.grad or a.hess):
            return _Sym(f, {}, {})
        d1 = self.value(self.op(d1, v=a.val, f=f))
        hess = {}
        if self.order >= 2:
            d2 = None if d2 is None else self.value(self.op(d2, v=a.val, f=f, d=d1))
            for p in a.hess.keys() | self.pairs((a.grad, a.grad)):
                i, j = p
                hess[p] = self.add(self.mul(d1, a.hess.get(p)),
                                   self.mul(d2, self.mul(a.grad.get(i), a.grad.get(j))))
        return self.sym(f, {k: self.mul(d1, x) for k, x in a.grad.items()}, hess)

    def atan2(self, y, x, node):
        self.check("(({x} == 0.0) & ({y} == 0.0))", "atan2(0, 0) is undefined", node,
                   x=x.val, y=y.val)
        f = self.value(self.op("arctan2({y}, {x})", x=x.val, y=y.val))
        if not (x.grad or y.grad or x.hess or y.hess):
            return _Sym(f, {}, {})
        mul, add, op, value = self.mul, self.add, self.op, self.value
        r2 = value(op("({x} * {x} + {y} * {y})", x=x.val, y=y.val))
        fy = value(op("({x} / {r})", x=x.val, r=r2))
        fx = value(op("(-{y} / {r})", y=y.val, r=r2))
        grad = {k: add(mul(fy, y.grad.get(k)), mul(fx, x.grad.get(k)))
                for k in y.grad.keys() | x.grad.keys()}
        pairs = self.pairs((y.grad, y.grad), (x.grad, x.grad), (y.grad, x.grad))
        hess = {}
        if pairs or x.hess or y.hess:
            r4 = value(op("({r} * {r})", r=r2))
            fyy = value(op("(-2.0 * {x} * {y} / {r})", x=x.val, y=y.val, r=r4))
            fxx = value(op("(2.0 * {x} * {y} / {r})", x=x.val, y=y.val, r=r4))
            fxy = value(op("(({y} * {y} - {x} * {x}) / {r})", x=x.val, y=y.val, r=r4))
            dy, dx = y.grad.get, x.grad.get
            for p in y.hess.keys() | x.hess.keys() | pairs:
                i, j = p
                hess[p] = add(mul(fy, y.hess.get(p)), mul(fx, x.hess.get(p)),
                              mul(fyy, mul(dy(i), dy(j))), mul(fxx, mul(dx(i), dx(j))),
                              mul(fxy, add(mul(dy(i), dx(j)), mul(dy(j), dx(i)))))
        return self.sym(f, grad, hess)

    def int_power(self, a, k, node):
        """a^k by repeated multiplication, then 1/a^|k| for k < 0; any base sign."""
        if k == 0:
            return _Sym(1.0, {}, {})
        n, result, base = abs(k), None, a
        while n:
            if n & 1:
                result = base if result is None else self.times(result, base)
            n >>= 1
            if n:
                base = self.times(base, base)
        return self.unary(_RECIPROCAL, result, node) if k < 0 else result

    def power(self, a, exponent, node):
        """The power rule of the module docstring; a constant exponent is a float."""
        b = self.compile(exponent)
        if isinstance(b.val, float):
            if not math.isfinite(b.val):
                raise _Abort(self.error("power needs a finite constant exponent", node))
            k = _integer_exponent(np.float64(b.val))
            if k is not None:
                return self.int_power(a, k, node)
        self.check("({v} <= 0.0)",
                   "power needs a positive base unless its exponent is a constant integer",
                   node, v=a.val)
        log_a = self.unary(_LOG_OF_POSITIVE, a, node)
        return self.unary(_UNARY["exp"], self.times(b, log_a), node)

    # -- nodes ------------------------------------------------------------

    def compile(self, node):
        """``node``'s jet; the first compile of a subexpression emits it."""
        sym = self.memo.get(node)
        if sym is None:
            sym = self.memo[node] = self.build(node)
        return sym

    def build(self, node):
        if isinstance(node, (Num, Const)):
            value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
            return _Sym(float(value), {}, {})
        if isinstance(node, Var):
            if node.index < 0:
                if node.name not in self.params:
                    raise _Abort(self.error("unbound parameter", node))
                return _Sym(float(self.params[node.name]), {}, {})
            column = f"x{node.index}"
            self.lines.append(f"{column} = X[{node.index}]")
            return _Sym(column, {node.index: 1.0} if self.order >= 1 else {}, {})
        if isinstance(node, Neg):
            return self.neg(self.compile(node.operand))
        if isinstance(node, BinOp):
            a = self.compile(node.left)
            if node.op == "^":
                return self.power(a, node.right, node)
            b = self.compile(node.right)
            if node.op == "/":
                key = ("1/", node.right)  # one reciprocal per distinct divisor
                if key not in self.memo:
                    self.memo[key] = self.unary(_RECIPROCAL, b, node)
                return self.times(a, self.memo[key])
            return self.times(a, b) if node.op == "*" else self.plus(a, b, node.op == "-")
        if isinstance(node, Call):
            if node.func == "pow":
                return self.power(self.compile(node.args[0]), node.args[1], node)
            if node.func == "atan2":
                y = self.compile(node.args[0])
                return self.atan2(y, self.compile(node.args[1]), node)
            return self.unary(_UNARY[node.func], self.compile(node.args[0]), node)
        raise TypeError(f"not an Expr node: {node!r}")

    def program(self, roots):
        """Compile ``roots`` into one function that fills a (rows, N) array,
        each distinct entry of their jets in one row."""
        try:
            syms = [self.compile(root) for root in roots]
        except _Abort as stop:
            self.lines.append(f"raise {stop.args[0]}()")
            syms = []
        entries = {(r,): s.val for r, s in enumerate(syms)}
        for r, s in enumerate(syms):
            entries.update(((a, r), x) for a, x in s.grad.items())
            for i, j in sorted({(min(p), max(p)) for p in s.hess}):
                entries[i, j, r] = self.op("(0.5 * ({x} + {y}))",
                                           x=s.hess.get((i, j), 0.0), y=s.hess.get((j, i), 0.0))
        texts = {_lit(0.0): 0}
        rows = {key: texts.setdefault(_lit(x), len(texts)) for key, x in entries.items()}
        if syms:
            self.lines.append(f"O = empty(({len(texts)}, n))")
            self.lines += [f"O[{k}] = {text}" for text, k in texts.items()]
            self.lines.append("return O")
        source = "def run(X, n):\n" + "".join(f"    {line}\n" for line in self.lines)
        exec(compile(source, "<jet program>", "exec"), self.namespace)
        return _Variant(self.namespace["run"], source, self.order, len(syms), rows, {})


_UNBOUND = object()


class Program:
    """One straight-line jet program for a tuple of root expressions.

    It is compiled on first use, once per derivative order and binding of
    the parameters the roots read (their values are folded in as
    constants, so a binding is keyed by the literal folded in, repr(float):
    0.0 and -0.0 are two bindings).  A subexpression shared by several
    roots, or repeated in one, is computed once: frozen nodes hash and
    compare by structure.
    """

    def __init__(self, roots):
        self.roots = tuple(roots)
        for root in self.roots:
            if not isinstance(root, Expr):
                raise TypeError(f"not an Expr node: {root!r}")
        self.parameters = tuple(sorted(frozenset().union(*(r._reads[1] for r in self.roots))))
        self._variants = {}

    def variant(self, order, params):
        key = (order, *(repr(float(params[name])) if name in params else _UNBOUND
                        for name in self.parameters))
        found = self._variants.get(key)
        if found is None:
            # fold constants with numpy's warnings off: an overflowing spec
            # constant folds to inf without printing a warning ahead of the
            # CLI's one error line
            with np.errstate(all="ignore"):
                found = self._variants[key] = _Compiler(order, params).program(self.roots)
        return found


@lru_cache(maxsize=None)
def shared_program(roots):
    """The process-wide :class:`Program` of a tuple of roots.

    Frozen nodes hash and compare by structure, so roots parsed again from
    equal text find the program, and every variant, compiled for the first.
    """
    return Program(roots)


def variable_support(node):
    """Indices of the declared variables that an expression reads.

    Parameters (``Var.index == -1``) and constants are not variables, so an
    expression whose support misses an index is constant along that axis.
    """
    if not isinstance(node, Expr):
        raise TypeError(f"not an Expr node: {node!r}")
    return node._reads[0]


def eval_jet(node, points, params=None, order=2):
    """The dense :class:`Jet` at (N, d) ``points`` up to the given order, of
    all roots of a :class:`Program` from one run, or of one expression."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must have shape (N, d)")
    if isinstance(node, Program):
        return node.variant(order, params or {})(points)
    if not isinstance(node, Expr):
        raise TypeError(f"not an Expr node: {node!r}")
    jet = node._program.variant(order, params or {})(points)
    return Jet(*(None if part is None else part[..., 0] for part in jet))
