"""Parser and jet-arithmetic checks against finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussbonnet.expr import (
    BinOp, Call, EvalDomainError, Num, ParseError, UnknownIdentifierError,
    eval_jet, eval_jet2, eval_values, expr_to_str, parse, variable_support,
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
    assert eval_values(tree, np.zeros((1, 0)))[0] == 512.0


def test_reserved_constants():
    tree = parse("pi + e", [])
    assert eval_values(tree, np.zeros((1, 0)))[0] == pytest.approx(math.pi + math.e)
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
    jet = eval_jet2(tree, [2.0, 3.0])
    assert jet.value == 6.0
    assert np.allclose(jet.gradient, [3.0, 2.0])
    assert np.allclose(jet.hessian, [[0, 1], [1, 0]])


def test_sin_at_zero():
    jet = eval_jet2(parse("sin(x1)", ["x1"]), [0.0])
    assert jet.value == 0.0
    assert np.allclose(jet.gradient, [1.0])
    assert np.allclose(jet.hessian, [[0.0]])


def test_exp_square_matches_finite_differences():
    tree = parse("exp(x1^2)", ["x1"])
    jet = eval_jet2(tree, [0.7])

    def f(x):
        return math.exp(x[0] ** 2)

    g = fd_gradient(f, [0.7])
    h = fd_hessian(f, [0.7])
    assert abs(jet.gradient[0] - g[0]) <= 1e-6 * (1 + abs(jet.value))
    assert abs(jet.hessian[0, 0] - h[0, 0]) <= 1e-5 * (1 + abs(jet.value))


def test_integer_power_negative_base():
    tree = parse("x1^3", ["x1"])
    jet = eval_jet2(tree, [-2.0])
    assert jet.value == -8.0
    assert jet.gradient[0] == 12.0
    assert jet.hessian[0, 0] == -12.0


def test_negative_integer_exponent():
    jet = eval_jet2(parse("x1^-2", ["x1"]), [2.0])
    assert jet.value == 0.25
    assert jet.gradient[0] == pytest.approx(-2 / 8)


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
    assert eval_jet2(tree, [2.0, 0.3]).value == 1.0
    with pytest.raises(EvalDomainError, match="positive base"):
        eval_jet2(tree, [-2.0, 0.3])


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
    assert eval_jet2(tree, [4.0]).value == pytest.approx(2.0)
    with pytest.raises(EvalDomainError):
        eval_jet2(tree, [-4.0])


def test_domain_errors_name_subexpression():
    with pytest.raises(EvalDomainError) as err:
        eval_jet2(parse("log(x1 - 2)", ["x1"]), [1.0])
    assert "x1-2" in str(err.value)
    with pytest.raises(EvalDomainError):
        eval_jet2(parse("1/x1", ["x1"]), [0.0])
    with pytest.raises(EvalDomainError):
        eval_jet2(parse("sqrt(x1)", ["x1"]), [-1.0])
    with pytest.raises(EvalDomainError):
        eval_jet2(parse("atan2(x1, x2)", ["x1", "x2"]), [0.0, 0.0])


def test_atan2_derivatives():
    tree = parse("atan2(x1, x2)", ["x1", "x2"])
    pt = [0.6, -1.1]
    jet = eval_jet2(tree, pt)

    def f(x):
        return math.atan2(x[0], x[1])

    assert np.allclose(jet.gradient, fd_gradient(f, pt), atol=1e-7)
    assert np.allclose(jet.hessian, fd_hessian(f, pt), atol=1e-5)


def test_params_are_flat():
    tree = parse("r^2*sin(x1)", ["x1"], ["r"])
    jet = eval_jet2(tree, [0.5], {"r": 3.0})
    assert jet.value == pytest.approx(9 * math.sin(0.5))
    assert jet.gradient[0] == pytest.approx(9 * math.cos(0.5))


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
        one = eval_jet2(tree, pts[i])
        assert one.value == pytest.approx(batch.val[i], rel=1e-14)
        assert np.allclose(one.gradient, batch.grad[i])


def test_pow_call_and_remaining_functions():
    jet = eval_jet2(parse("pow(x1, 3)", ["x1"]), [-2.0])
    assert jet.value == -8.0 and jet.gradient[0] == 12.0
    jet = eval_jet2(parse("pow(x1, 0.5)", ["x1"]), [9.0])
    assert jet.value == pytest.approx(3.0)
    jet = eval_jet2(parse("tan(x1)", ["x1"]), [0.4])
    assert jet.gradient[0] == pytest.approx(1 / math.cos(0.4) ** 2)
    jet = eval_jet2(parse("abs(x1)", ["x1"]), [-1.5])
    assert jet.value == 1.5 and jet.gradient[0] == -1.0
    jet = eval_jet2(parse("atan(x1)", ["x1"]), [2.0])
    assert jet.gradient[0] == pytest.approx(1 / 5)


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
        jet = eval_jet2(tree, pt)
        scale = max(abs(jet.value), np.abs(jet.gradient).max(),
                    np.abs(jet.hessian).max())
        if not np.isfinite(scale) or scale > 1e3:
            continue  # steep trees drown the h^2 truncation of the oracle
        checked += 1

        def f(x, tree=tree):
            return eval_jet2(tree, x).value

        tol = 1e-5 * (1.0 + abs(jet.value))
        assert np.abs(jet.gradient - fd_gradient(f, pt)).max() < tol
        # the h = 1e-5 second-difference oracle has a roundoff floor of
        # roughly eps * (internal argument magnitude) / h^2; the jets are
        # exact to ~1e-13 (checked against closed forms elsewhere)
        hess_floor = 3e-16 * (1.0 + scale) / 1e-10
        assert np.abs(jet.hessian - fd_hessian(f, pt)).max() < tol + hess_floor


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
        from gaussbonnet.expr import Neg
        return Neg(left)
    if kind == 2:
        return Call(draw(st.sampled_from(_FUNCS)), (left,))
    return Call("atan2", (left, right))


@given(expr_trees())
@settings(max_examples=300, deadline=None)
def test_print_parse_roundtrip(tree):
    text = expr_to_str(tree)
    assert parse(text, ["x1", "x2"]) == tree


@given(st.text(alphabet="x12+-*/^()si n.ge,", max_size=24))
@settings(max_examples=400, deadline=None)
def test_parser_total_on_junk(text):
    try:
        parse(text, ["x1", "x2"])
    except ParseError:
        pass  # positioned error is the contract; no other exception allowed
