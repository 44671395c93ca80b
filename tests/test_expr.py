"""Parser and jet-arithmetic checks against finite-difference and dense-jet oracles."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gaussbonnet.bundles import make_plane_bundle
from gaussbonnet.expr import (
    CONSTANTS, BinOp, Call, Const, EvalDomainError, Neg, Num, ParseError, Program,
    UnknownIdentifierError, Var, eval_jet, expr_to_str, parse,
    shared_program, variable_support,
)
from gaussbonnet.geometry import Chart, metric_jets
from gaussbonnet.library import (
    build_field, build_manifold, field_names, manifold_names, stereo_pair_atlas,
)


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    d = len(x)
    hess = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
            xpp[[i, j]] += [h, h] if i != j else [2 * h, 0]
            if i == j:
                xpp = x.copy(); xpp[i] += h
                xmm = x.copy(); xmm[i] -= h
                hess[i, i] = (f(xpp) - 2 * f(x) + f(xmm)) / h**2
            else:
                xpm[i] += h; xpm[j] -= h
                xmp[i] -= h; xmp[j] += h
                xmm[i] -= h; xmm[j] -= h
                hess[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h**2)
    return hess


# ---------------------------------------------------------------- parsing

def test_power_binds_tighter_than_times():
    tree = parse("sin(x1)^2 * r^2", ["x1", "x2"], ["r"])
    assert isinstance(tree, BinOp) and tree.op == "*"
    assert isinstance(tree.left, BinOp) and tree.left.op == "^"
    assert isinstance(tree.left.left, Call) and tree.left.left.func == "sin"


def test_incomplete_input_position():
    with pytest.raises(ParseError) as err:
        parse("x1 +", ["x1"])
    assert err.value.offset == 4


def test_unknown_function():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("foo(x1)", ["x1"])
    assert err.value.name == "foo"


def test_unknown_variable():
    with pytest.raises(UnknownIdentifierError):
        parse("x1 + q", ["x1"])


def test_power_right_associative():
    tree = parse("2^3^2", [])
    assert eval_jet(tree, np.zeros((1, 0)), order=0).val[0] == 512.0


def test_reserved_constants():
    tree = parse("pi + e", [])
    assert eval_jet(tree, np.zeros((1, 0)), order=0).val[0] == pytest.approx(math.pi + math.e)
    with pytest.raises(ValueError):
        parse("pi", ["pi"])


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("x1 x1", ["x1"])


def test_empty_rejected():
    with pytest.raises(ParseError):
        parse("   ", ["x1"])


# ------------------------------------------------------------- evaluation

def test_bilinear_jet():
    tree = parse("x1*x2", ["x1", "x2"])
    jet = eval_jet(tree, [[2.0, 3.0]])
    assert jet.val[0] == 6.0
    assert np.allclose(jet.grad[0], [3.0, 2.0])
    assert np.allclose(jet.hess[0], [[0, 1], [1, 0]])


def test_sin_at_zero():
    jet = eval_jet(parse("sin(x1)", ["x1"]), [[0.0]])
    assert jet.val[0] == 0.0
    assert np.allclose(jet.grad[0], [1.0])
    assert np.allclose(jet.hess[0], [[0.0]])


def test_exp_square_matches_finite_differences():
    tree = parse("exp(x1^2)", ["x1"])
    jet = eval_jet(tree, [[0.7]])

    def f(x):
        return math.exp(x[0] ** 2)

    g = fd_gradient(f, [0.7])
    h = fd_hessian(f, [0.7])
    assert abs(jet.grad[0, 0] - g[0]) <= 1e-6 * (1 + abs(jet.val[0]))
    assert abs(jet.hess[0, 0, 0] - h[0, 0]) <= 1e-5 * (1 + abs(jet.val[0]))


def test_integer_power_negative_base():
    tree = parse("x1^3", ["x1"])
    jet = eval_jet(tree, [[-2.0]])
    assert jet.val[0] == -8.0
    assert jet.grad[0, 0] == 12.0
    assert jet.hess[0, 0, 0] == -12.0


def test_negative_integer_exponent():
    jet = eval_jet(parse("x1^-2", ["x1"]), [[2.0]])
    assert jet.val[0] == 0.25
    assert jet.grad[0, 0] == pytest.approx(-2 / 8)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_integer_powers_agree_bit_for_bit(order):
    """A literal, a pow call and a parameter exponent take one power rule."""
    x = np.array([[-2.0]])

    def jet(text, k=None):
        out = eval_jet(parse(text, ["x1"], ["k"]), x, {"k": k}, order=order)
        return [a.tobytes() for a in (out.val, out.grad, out.hess) if a is not None]

    assert jet("x1^3") == jet("pow(x1, 3)") == jet("x1^k", 3.0)
    assert jet("x1^-2") == jet("x1^k", -2.0)
    assert jet("x1^3")[0] == np.array([-8.0]).tobytes()


def test_exponent_reading_a_coordinate_needs_positive_base():
    tree = parse("x1^(x2-x2)", ["x1", "x2"])
    assert eval_jet(tree, [[2.0, 0.3]]).val[0] == 1.0
    with pytest.raises(EvalDomainError, match="positive base"):
        eval_jet(tree, [[-2.0, 0.3]])


def test_compiled_program_stays_out_of_eq_hash_repr():
    text = "r^2*sin(x1)^2 + atan2(x2, x1) - 1/x2"
    first, second = (parse(text, ["x1", "x2"], ["r"]) for _ in range(2))
    pts = np.array([[0.4, 1.3], [1.1, -0.7]])
    before = eval_jet(first, pts, {"r": 1.5})
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    after = eval_jet(first, pts, {"r": 1.5})
    for a, b in ((before.val, after.val), (before.grad, after.grad),
                 (before.hess, after.hess)):
        assert a.tobytes() == b.tobytes()


def test_noninteger_power_requires_positive_base():
    tree = parse("x1^0.5", ["x1"])
    assert eval_jet(tree, [[4.0]]).val[0] == pytest.approx(2.0)
    with pytest.raises(EvalDomainError):
        eval_jet(tree, [[-4.0]])


def test_domain_errors_name_subexpression():
    with pytest.raises(EvalDomainError) as err:
        eval_jet(parse("log(x1 - 2)", ["x1"]), [[1.0]])
    assert "x1-2" in str(err.value)
    with pytest.raises(EvalDomainError):
        eval_jet(parse("1/x1", ["x1"]), [[0.0]])
    with pytest.raises(EvalDomainError):
        eval_jet(parse("sqrt(x1)", ["x1"]), [[-1.0]])
    with pytest.raises(EvalDomainError):
        eval_jet(parse("atan2(x1, x2)", ["x1", "x2"]), [[0.0, 0.0]])


def test_atan2_derivatives():
    tree = parse("atan2(x1, x2)", ["x1", "x2"])
    pt = [0.6, -1.1]
    jet = eval_jet(tree, [pt])

    def f(x):
        return math.atan2(x[0], x[1])

    assert np.allclose(jet.grad[0], fd_gradient(f, pt), atol=1e-7)
    assert np.allclose(jet.hess[0], fd_hessian(f, pt), atol=1e-5)


def test_params_are_flat():
    tree = parse("r^2*sin(x1)", ["x1"], ["r"])
    jet = eval_jet(tree, [[0.5]], {"r": 3.0})
    assert jet.val[0] == pytest.approx(9 * math.sin(0.5))
    assert jet.grad[0, 0] == pytest.approx(9 * math.cos(0.5))


def test_variable_support_skips_parameters_and_constants():
    names = ("x1", "x2", "x3", "x4")
    node = parse("r^2*sin(x3)^2 + atan2(x1, pi) - e", names, ("r",))
    assert variable_support(node) == {0, 2}
    assert variable_support(parse("r*pi + 2", names, ("r",))) == frozenset()
    assert variable_support(parse("-pow(x4, x2)", names)) == {1, 3}
    with pytest.raises(TypeError):
        variable_support("x1")


def test_batched_matches_scalar():
    tree = parse("sinh(x1)*cos(x2) + x1/x2", ["x1", "x2"])
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.5, 1.5, size=(16, 2))
    batch = eval_jet(tree, pts)
    for i in range(len(pts)):
        one = eval_jet(tree, pts[i][None, :])
        assert one.val[0] == pytest.approx(batch.val[i], rel=1e-14)
        assert np.allclose(one.grad[0], batch.grad[i])


def test_pow_call_and_remaining_functions():
    jet = eval_jet(parse("pow(x1, 3)", ["x1"]), [[-2.0]])
    assert jet.val[0] == -8.0 and jet.grad[0, 0] == 12.0
    jet = eval_jet(parse("pow(x1, 0.5)", ["x1"]), [[9.0]])
    assert jet.val[0] == pytest.approx(3.0)
    jet = eval_jet(parse("tan(x1)", ["x1"]), [[0.4]])
    assert jet.grad[0, 0] == pytest.approx(1 / math.cos(0.4) ** 2)
    jet = eval_jet(parse("abs(x1)", ["x1"]), [[-1.5]])
    assert jet.val[0] == 1.5 and jet.grad[0, 0] == -1.0
    jet = eval_jet(parse("atan(x1)", ["x1"]), [[2.0]])
    assert jet.grad[0, 0] == pytest.approx(1 / 5)


# ------------------------------------------------ randomized FD property

_FUNCS = ["sin", "cos", "exp", "sinh", "cosh", "tanh", "atan"]


def _random_expr(rng, depth):
    """Random expression over x1,x2,x3 that stays comfortably in-domain."""
    if depth == 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return f"x{rng.integers(1, 4)}"
        if kind == 1:
            return f"{rng.uniform(0.2, 2.0):.3f}"
        return f"x{rng.integers(1, 4)}"
    kind = rng.integers(0, 5)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a}+{b})"
    if kind == 1:
        return f"({a}-{b})"
    if kind == 2:
        return f"({a}*{b})"
    if kind == 3:
        return f"{rng.choice(_FUNCS)}({a})"
    return f"({a}^{rng.integers(1, 4)})"


def test_random_expressions_match_finite_differences():
    """Mixed tolerance 1e-5 (1 + |value|) against central differences."""
    rng = np.random.default_rng(42)
    variables = ["x1", "x2", "x3"]
    checked = 0
    while checked < 200:
        text = _random_expr(rng, 3)
        tree = parse(text, variables)
        pt = rng.uniform(0.3, 1.2, size=3)
        jet = eval_jet(tree, pt[None, :])
        value, gradient, hessian = jet.val[0], jet.grad[0], jet.hess[0]
        scale = max(abs(value), np.abs(gradient).max(), np.abs(hessian).max())
        if not np.isfinite(scale) or scale > 1e3:
            continue  # steep trees drown the h^2 truncation of the oracle
        checked += 1

        def f(x, tree=tree):
            return eval_jet(tree, x[None, :]).val[0]

        tol = 1e-5 * (1.0 + abs(value))
        assert np.abs(gradient - fd_gradient(f, pt)).max() < tol
        # the h = 1e-5 second-difference oracle has a roundoff floor of
        # roughly eps * (internal argument magnitude) / h^2; the jets are
        # exact to ~1e-13 (checked against closed forms elsewhere)
        hess_floor = 3e-16 * (1.0 + scale) / 1e-10
        assert np.abs(hessian - fd_hessian(f, pt)).max() < tol + hess_floor


# --------------------------------------------------------- fuzz / roundtrip

@st.composite
def expr_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Num(draw(st.floats(0.0, 100.0, allow_nan=False)))
        if choice == 1:
            return parse(draw(st.sampled_from(["x1", "x2", "pi", "e"])), ["x1", "x2"])
        return parse("x1", ["x1", "x2"])
    kind = draw(st.integers(0, 3))
    left = draw(expr_trees(depth=depth - 1))
    right = draw(expr_trees(depth=depth - 1))
    if kind == 0:
        return BinOp(draw(st.sampled_from("+-*/^")), left, right)
    if kind == 1:
        return Neg(left)
    if kind == 2:
        return Call(draw(st.sampled_from(_FUNCS)), (left,))
    return Call("atan2", (left, right))


@given(expr_trees())
@settings(max_examples=300, deadline=None)
def test_print_parse_roundtrip(tree):
    text = expr_to_str(tree)
    assert parse(text, ["x1", "x2"]) == tree


@st.composite
def _exponents(draw):
    """An integer exponent slot: minus signs on a digit, maybe raised once more."""
    text = "-" * draw(st.integers(0, 2)) + draw(st.sampled_from("12"))
    if draw(st.booleans()):
        text += "^" + "-" * draw(st.integers(0, 2)) + draw(st.sampled_from("12"))
    return text


_MATH = ["sin", "cos", "atan", "tanh"]


@st.composite
def spec_texts(draw, depth=3):
    """Spec text mixing unary minus, powers, products and sums, unparenthesized."""
    leaf = st.sampled_from(["x1", "x2", "2", "0.5", "pi", "e"])
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(leaf)
    sub = spec_texts(depth=depth - 1)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return f"{draw(sub)}{draw(st.sampled_from('+-*/'))}{draw(sub)}"
    if kind == 1:
        return "-" + draw(sub)
    primary = draw(st.one_of(leaf, sub.map("({})".format),
                             st.builds("{}({})".format, st.sampled_from(_MATH), sub)))
    return primary if kind == 2 else f"{primary}^{draw(_exponents())}"


@given(spec_texts(), st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
@example("-x1^2", (3.0, 1.0))  # -9, as -x**2 in Python
@example("exp(-x1^2)", (1.0, 1.0))
@example("1 - -x1^2", (1.0, 1.0))
@example("2^-1^2", (1.0, 1.0))  # 0.5
@example("x1^-2*-x2^2", (2.0, 3.0))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_spec_text_evaluates_as_python(text, x):
    """Spec text means what the same text means in Python, with ^ -> ** and
    the functions from math: the oracle for precedence and associativity."""
    names = {"x1": x[0], "x2": x[1], "pi": math.pi, "e": math.e,
             **{f: getattr(math, f) for f in _MATH + ["exp"]}}
    try:
        want = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
    except (ArithmeticError, TypeError, ValueError):
        assume(False)  # outside the domain, or math fed a complex power: no oracle
    assume(not isinstance(want, complex) and abs(want) < 1e12)
    try:
        got = eval_jet(parse(text, ["x1", "x2"]), np.array([x]), order=0).val[0]
    except EvalDomainError:
        assume(False)  # 0.0**0.5 is 0 in Python and a domain error here
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9), text


@given(st.text(alphabet="x12+-*/^()si n.ge,", max_size=24))
@settings(max_examples=400, deadline=None)
def test_parser_total_on_junk(text):
    try:
        parse(text, ["x1", "x2"])
    except ParseError:
        pass  # positioned error is the contract; no other exception allowed


# ------------------------------------------- dense jet arithmetic as oracle

class _Dense(NamedTuple):
    val: np.ndarray
    grad: np.ndarray | None
    hess: np.ndarray | None


def _dense_add(a, b, sign=1.0):
    return _Dense(a.val + sign * b.val,
                  None if a.grad is None else a.grad + sign * b.grad,
                  None if a.hess is None else a.hess + sign * b.hess)


def _dense_mul(a, b):
    grad = hess = None
    if a.grad is not None:
        grad = a.val[:, None] * b.grad + b.val[:, None] * a.grad
    if a.hess is not None:
        cross = a.grad[:, :, None] * b.grad[:, None, :]
        hess = (a.val[:, None, None] * b.hess + b.val[:, None, None] * a.hess
                + cross + cross.transpose(0, 2, 1))
    return _Dense(a.val * b.val, grad, hess)


def _dense_chain(a, f0, f1, f2):
    grad = hess = None
    if a.grad is not None:
        grad = f1[:, None] * a.grad
    if a.hess is not None:
        outer = a.grad[:, :, None] * a.grad[:, None, :]
        hess = f1[:, None, None] * a.hess + f2[:, None, None] * outer
    return _Dense(f0, grad, hess)


def _dense_sqrt_derivatives(v, rt):
    with np.errstate(divide="ignore"):
        return 0.5 / rt, -0.25 / (rt * v)


_DENSE_UNARY = {
    "sin": (np.sin, lambda v, s: (np.cos(v), -s)),
    "cos": (np.cos, lambda v, c: (-np.sin(v), -c)),
    "tan": (np.tan, lambda v, t: (sec2 := 1.0 + t * t, 2.0 * t * sec2)),
    "exp": (np.exp, lambda v, ex: (ex, ex)),
    "log": (np.log, lambda v, f: (inv := 1.0 / v, -inv * inv)),
    "sqrt": (np.sqrt, _dense_sqrt_derivatives),
    "sinh": (np.sinh, lambda v, sh: (np.cosh(v), sh)),
    "cosh": (np.cosh, lambda v, ch: (np.sinh(v), ch)),
    "tanh": (np.tanh, lambda v, th: (sech2 := 1.0 - th * th, -2.0 * th * sech2)),
    "atan": (np.arctan, lambda v, f: (1.0 / (den := 1.0 + v * v), -2.0 * v / (den * den))),
    "abs": (np.abs, lambda v, f: (np.sign(v), np.zeros_like(v))),
    "1/": (lambda v: 1.0 / v, lambda v, inv: (-inv * inv, 2.0 * inv * inv * inv)),
}


def dense_jet(node, points, params, order):
    """The pre-compiler evaluator: every node a dense (N, d) / (N, d, d) jet,
    in the same IEEE operations, the Hessian symmetrised at the end as
    0.5 * (H + H^T); in-domain inputs only."""
    n, d = points.shape

    def const(value, rows=n):
        return _Dense(np.full(rows, float(value)),
                      np.zeros((rows, d)) if order >= 1 else None,
                      np.zeros((rows, d, d)) if order >= 2 else None)

    def unary(name, a):
        f, derivatives = _DENSE_UNARY[name]
        f0 = f(a.val)
        return _Dense(f0, None, None) if order == 0 else _dense_chain(
            a, f0, *derivatives(a.val, f0))

    def power(node, a, b_node):
        if not variable_support(b_node):
            k = float(eval_jet(b_node, np.zeros((1, 0)), params, order=0).val[0])
            if k == round(k) and abs(k) <= 1024:
                k = int(round(k))
                if k == 0:
                    return const(1.0)
                result, base, m = None, a, abs(k)
                while m:
                    if m & 1:
                        result = base if result is None else _dense_mul(result, base)
                    m >>= 1
                    if m:
                        base = _dense_mul(base, base)
                return unary("1/", result) if k < 0 else result
        return unary("exp", _dense_mul(rec(b_node), unary("log", a)))

    def rec(node):
        if isinstance(node, Num):
            return const(node.value)
        if isinstance(node, Const):
            return const(CONSTANTS[node.name])
        if isinstance(node, Var):
            if node.index < 0:
                return const(params[node.name])
            jet = const(0.0)
            if order >= 1:
                jet.grad[:, node.index] = 1.0
            return _Dense(points[:, node.index].astype(float), jet.grad, jet.hess)
        if isinstance(node, Neg):
            a = rec(node.operand)
            return _Dense(-a.val, None if a.grad is None else -a.grad,
                          None if a.hess is None else -a.hess)
        if isinstance(node, Call) and node.func == "pow":
            return power(node, rec(node.args[0]), node.args[1])
        if isinstance(node, Call) and node.func == "atan2":
            y, x = rec(node.args[0]), rec(node.args[1])
            f0 = np.arctan2(y.val, x.val)
            if order == 0:
                return _Dense(f0, None, None)
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
            return _Dense(f0, grad, hess)
        if isinstance(node, Call):
            return unary(node.func, rec(node.args[0]))
        a = rec(node.left)
        if node.op == "^":
            return power(node, a, node.right)
        b = rec(node.right)
        if node.op == "+":
            return _dense_add(a, b)
        if node.op == "-":
            return _dense_add(a, b, sign=-1.0)
        if node.op == "*":
            return _dense_mul(a, b)
        return _dense_mul(a, unary("1/", b))

    jet = rec(node)
    if jet.hess is None:
        return jet
    return _Dense(jet.val, jet.grad, 0.5 * (jet.hess + jet.hess.transpose(0, 2, 1)))


def dense_metric_jets(chart, points, order):
    """The per-entry metric_jets loop over `dense_jet`."""
    n, d = points.shape
    g = np.zeros((n, d, d))
    dg = np.zeros((n, d, d, d)) if order >= 1 else None
    d2g = np.zeros((n, d, d, d, d)) if order >= 2 else None
    for (i, j), entry in chart.metric.items():
        jet = dense_jet(entry, points, chart.params, order)
        g[:, i, j] = g[:, j, i] = jet.val
        if order >= 1:
            dg[:, :, i, j] = dg[:, :, j, i] = jet.grad
        if order >= 2:
            d2g[:, :, :, i, j] = d2g[:, :, :, j, i] = jet.hess
    return g, dg, d2g


def same_bits(a, b):
    """Identical bytes, except that the sign of an exact zero may differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


def _chart_points(chart, rng, n=64):
    lo, hi = np.array(chart.ranges, dtype=float).T
    pad = 0.05 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(n, chart.dim))


def _builtin_charts():
    charts = [(name, c) for name in manifold_names() for c in build_manifold(name).atlas.charts]
    charts += [("stereo", c) for c in stereo_pair_atlas().charts]
    charts.append(("polar", Chart.from_strings(
        "polar", 2, [(0.0, math.pi), (0.0, 2 * math.pi)], [False, True],
        {(0, 0): "r^2", (1, 1): "r^2*sin(x1)^2"}, params={"r": 1.7})))
    return charts


@pytest.mark.parametrize("order", [0, 1, 2])
def test_metric_jets_match_dense_oracle_bitwise(order):
    rng = np.random.default_rng(12)
    for name, chart in _builtin_charts():
        pts = _chart_points(chart, rng)
        got = metric_jets(chart, pts, order)
        want = dense_metric_jets(chart, pts, order)
        for k in range(order + 1):
            assert same_bits(got[k], want[k]), (name, chart.name, k)
        for row in (0, 17, 63):  # row k of a batch is its one-row call
            one = metric_jets(chart, pts[row:row + 1], order)
            for k in range(order + 1):
                assert one[k].tobytes() == got[k][row:row + 1].tobytes(), (name, row, k)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bundle_and_field_jets_match_dense_oracle_bitwise(order):
    rng = np.random.default_rng(13)
    for k in (-2, 1, 3):
        bundle = make_plane_bundle(k)
        for chart in bundle.atlas.charts:
            pts = _chart_points(chart, rng)
            for tree in (bundle.phi, chart.weight):
                got, want = eval_jet(tree, pts, chart.params, order), dense_jet(
                    tree, pts, chart.params, order)
                for a, b in zip(got, want):
                    assert (a is None and b is None) or same_bits(a, b), (k, chart.name, tree)
    fields = [build_field(name) for name in field_names() if name != "section_zk"]
    fields += [build_field("section_zk", k=k) for k in (1, 2, 3)]
    for field in fields:
        for name, exprs in field.parsed.items():
            chart = field.atlas.chart(name)
            pts = _chart_points(chart, rng)
            dense = [dense_jet(e, pts, chart.params, max(order, 1)) for e in exprs]
            vals = field.values(name, pts, order=max(order, 1))
            assert same_bits(vals[0], np.column_stack([j.val for j in dense])), field.name
            assert same_bits(vals[1], np.stack([j.grad for j in dense], axis=1)), field.name
            one = field.values(name, pts[5:6], order=1)
            assert one[0].tobytes() == vals[0][5:6].tobytes()
            assert one[1].tobytes() == vals[1][5:6].tobytes()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_random_expressions_match_dense_oracle_bitwise(order):
    rng = np.random.default_rng(7)
    variables = ["x1", "x2", "x3"]
    for _ in range(150):
        tree = parse(_random_expr(rng, 3), variables)
        pts = rng.uniform(0.3, 1.2, size=(8, 3))
        got, want = eval_jet(tree, pts, order=order), dense_jet(tree, pts, {}, order)
        for a, b in zip(got, want):
            assert (a is None and b is None) or same_bits(a, b), expr_to_str(tree)


def _symmetric(hess):
    """hess equals its transpose in axes 1 and 2, byte for byte."""
    return hess.tobytes() == hess.swapaxes(1, 2).tobytes()


def test_hessians_are_symmetric_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(150):
        tree = parse(_random_expr(rng, 3), ["x1", "x2", "x3"])
        assert _symmetric(eval_jet(tree, rng.uniform(0.3, 1.2, size=(8, 3))).hess), \
            expr_to_str(tree)
    for name, chart in _builtin_charts():
        d2g = metric_jets(chart, _chart_points(chart, rng))[2]
        assert _symmetric(d2g) and d2g.tobytes() == d2g.swapaxes(3, 4).tobytes(), name
    programs = []
    for k in (-2, 1, 3):
        bundle = make_plane_bundle(k)
        programs += [(tree, chart) for chart in bundle.atlas.charts
                     for tree in (bundle.phi, chart.weight)]
    fields = [build_field(name) for name in field_names() if name != "section_zk"]
    fields += [build_field("section_zk", k=k) for k in (1, 2, 3)]
    programs += [(field.programs[name], field.atlas.chart(name))
                 for field in fields for name in field.parsed]
    for program, chart in programs:
        jet = eval_jet(program, _chart_points(chart, rng), chart.params)
        assert _symmetric(jet.hess), (program, chart.name)


@pytest.mark.parametrize("text", [
    "atan2(x2, x1) - 3*atan2(x3, 2)", "x1/x2/x3 + 1/x2", "pow(x1, x2)*x3^0.5 + x1^r",
    "abs(x1 - x2)*sqrt(x3) + tan(x1)*log(x2)", "x1^(r - 2)*x2^-3 + pi*e*r", "x1 - x1 + 0*x2",
])
def test_mixed_expressions_match_dense_oracle_bitwise(text):
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.3, 1.2, size=(16, 3))
    tree = parse(text, ["x1", "x2", "x3"], ["r"])
    for order in (0, 1, 2):
        got = eval_jet(tree, pts, {"r": 2.5}, order)
        want = dense_jet(tree, pts, {"r": 2.5}, order)
        for a, b in zip(got, want):
            assert (a is None and b is None) or same_bits(a, b), (text, order)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_chart_program_computes_each_subexpression_once(order):
    chart = build_manifold("cp2").atlas.charts[0]
    lines = chart.metric_program.variant(order, chart.params).source.splitlines()
    assert sum("sin(x0)" in line for line in lines) == 1  # x0: the first coordinate
    slot = next(line.split(" = ")[0].strip() for line in lines if "sin(x0)" in line)
    assert sum(line.endswith(f"= ({slot} * {slot})") for line in lines) == 1


def test_program_domain_error_names_first_entry_in_order():
    """Two entries leave their domain: the error names the subexpression that
    the entry-by-entry evaluation met first."""
    chart = Chart.from_strings("c", 2, [(0.0, 2.0), (0.0, 1.0)], [False, False],
                               {(0, 0): "2 + sin(x2)*log(x1 - 1)",
                                (1, 1): "sqrt(x1 - 1.5) + log(x1 - 1)"})
    with pytest.raises(EvalDomainError) as err:
        metric_jets(chart, np.array([[1.7, 0.5], [0.5, 0.5]]), order=2)
    assert str(err.value) == "log of nonpositive value in subexpression 'log(x1-1)'"
    with pytest.raises(EvalDomainError) as err:
        metric_jets(chart, np.array([[1.7, 0.5], [1.2, 0.5]]), order=0)
    assert str(err.value) == "sqrt of negative value in subexpression 'sqrt(x1-1.5)'"


def test_program_power_rule_matches_one_root_evaluation():
    """A parameter exponent shared by several roots, and x1^(x2-x2) at x1 < 0,
    take the power rule that the one-expression cases above pin down."""
    names = ["x1", "x2"]
    roots = [parse(text, names, ["k"]) for text in ("x1^k", "x1^k*x2 + 1", "pow(x1, k) - x2^k")]
    pts = np.array([[-2.0, 0.7], [-0.5, -1.3]])
    for order in (0, 1, 2):
        jet = eval_jet(Program(roots), pts, {"k": 3.0}, order)
        for r, root in enumerate(roots):
            alone = eval_jet(root, pts, {"k": 3.0}, order)
            for part, one in zip(jet, alone):  # root r is the last index
                assert (part is None and one is None) or part[..., r].tobytes() == one.tobytes()
            assert jet.val[:, r].tobytes() == eval_jet(
                parse(expr_to_str(root).replace("k", "3"), names), pts, order=order).val.tobytes()
    mixed = Program([parse("1 + x2", names), parse("x1^(x2-x2)", names)])
    assert eval_jet(mixed, np.array([[2.0, 0.3]])).val[0, 1] == 1.0
    with pytest.raises(EvalDomainError, match="positive base"):
        eval_jet(mixed, np.array([[2.0, 0.3], [-2.0, 0.3]]))


def test_equal_charts_fields_and_expressions_share_one_compiled_variant():
    def polar():
        return Chart.from_strings(
            "polar", 2, [(0.0, math.pi), (0.0, 2 * math.pi)], [False, True],
            {(0, 0): "r^2", (1, 1): "r^2*sin(x1)^2 + 0.375*cos(x2)^3"}, params={"r": 1.3})

    first, second = polar(), polar()
    assert first is not second and first.metric_program is second.metric_program
    pts = np.random.default_rng(21).uniform(0.2, 2.8, size=(9, 2))
    got = [metric_jets(chart, pts, 2) for chart in (first, second)]
    assert (first.metric_program.variant(2, first.params)
            is second.metric_program.variant(2, second.params))
    fresh = eval_jet(Program(first.metric_program.roots), pts, first.params, 2)
    for jets in got:
        for part, want, shape in zip(jets, fresh, [(9, 2, 2), (9, 2, 2, 2), (9, 2, 2, 2, 2)]):
            assert part.tobytes() == want.reshape(shape).tobytes()
    fields = [build_field("morse"), build_field("morse")]
    assert fields[0].programs["north"] is fields[1].programs["north"]
    text = "atan2(x2, x1)*sqrt(1 + x1^2)"
    trees = [parse(text, ["x1", "x2"]) for _ in range(2)]
    assert trees[0] is not trees[1] and trees[0]._program is trees[1]._program
    assert trees[0]._program is shared_program((parse(text, ["x1", "x2"]),))


def test_signed_zero_parameters_compile_two_variants():
    """0.0 == -0.0, but atan2 tells them apart: a binding is keyed by the
    literal folded into the source, not by float equality."""
    def chart(a):
        return Chart.from_strings("c", 1, [(0.0, 1.0)], [False],
                                  {(0, 0): "4 + atan2(a, -1)"}, params={"a": a})

    plus, minus = chart(0.0), chart(-0.0)
    assert plus.metric_program is minus.metric_program
    pts = np.array([[0.5]])
    assert metric_jets(plus, pts, 0)[0][0, 0, 0] == 4 + math.pi
    assert metric_jets(minus, pts, 0)[0][0, 0, 0] == 4 - math.pi
