"""Exterior/bigraded algebra: products, Pfaffians, Berezin, trace lemmas."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussbonnet.exterior import (
    _dp_table, _pf_plan, BigradedElement, FormElement, SkewFormMatrix, berezin, berezin_fiber,
    dp_extend, dp_extend4, exp_nilpotent, killing_double_sum, lambda_basis,
    merge_indices, patodi_coefficient, pfaffian, pfaffian_definition, pfaffian_numeric,
    pfaffian_terms, supertrace, two_vector, wedge,
)


def random_skew(rng, d):
    m = rng.normal(size=(d, d))
    return m - m.T


def series_expm(m, x=1.0, terms=40):
    out = np.eye(m.shape[0])
    acc = np.eye(m.shape[0])
    for k in range(1, terms):
        acc = acc @ (x * m) / k
        out = out + acc
    return out


def lambda_power(b, p):
    """Matrix of Lambda^p(b) on the lexicographic basis (minor determinants)."""
    basis = lambda_basis(b.shape[0], p)
    out = np.zeros((len(basis), len(basis)))
    for c, cols in enumerate(basis):
        for r, rows in enumerate(basis):
            out[r, c] = np.linalg.det(b[np.ix_(rows, cols)]) if p else 1.0
    return out


# ----------------------------------------------------------------- wedge

def test_wedge_basis_products():
    e1 = FormElement.generator(3, 0)
    e2 = FormElement.generator(3, 1)
    assert wedge(e1, e2).terms == {(0, 1): 1.0}
    assert wedge(e2, e1).terms == {(0, 1): -1.0}
    odd = e1 + e2
    assert wedge(odd, odd).is_zero()


def test_wedge_mismatched_generators():
    with pytest.raises(ValueError):
        wedge(FormElement.generator(2, 0), FormElement.generator(3, 0))


@st.composite
def sparse_forms(draw, n, degree=None):
    k = degree if degree is not None else draw(st.integers(0, n))
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        idx = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
        terms[idx] = draw(st.floats(-3, 3, allow_nan=False))
    return FormElement(n, terms)


@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))))
@settings(max_examples=150, deadline=None)
def test_graded_commutativity(args):
    n, p, q = args
    rng = np.random.default_rng(n * 100 + p * 10 + q)
    a = FormElement(n, {tuple(sorted(rng.choice(n, size=p, replace=False))): rng.normal()}
                    if p else {(): rng.normal()})
    b = FormElement(n, {tuple(sorted(rng.choice(n, size=q, replace=False))): rng.normal()}
                    if q else {(): rng.normal()})
    lhs = wedge(a, b)
    rhs = wedge(b, a) * ((-1) ** (p * q))
    assert (lhs - rhs).max_abs() < 1e-14


def test_wedge_associative_random():
    rng = np.random.default_rng(3)
    n = 6
    for _ in range(50):
        forms = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                k = rng.integers(0, 4)
                idx = tuple(sorted(rng.choice(n, size=k, replace=False)))
                terms[idx] = rng.normal()
            forms.append(FormElement(n, terms))
        a, b, c = forms
        assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).max_abs() < 1e-12


def test_merge_indices_table_matches_the_inversion_count():
    """The cached table gives the sign and merged tuple of the plain
    inversion count for every pair of increasing tuples of indices below 6,
    overlapping pairs included."""
    def oracle(a, b):
        if set(a) & set(b):
            return 0, None
        inversions = sum(1 for ai in a for bj in b if ai > bj)
        return (-1) ** inversions, tuple(sorted(a + b))

    tuples = [c for k in range(7) for c in itertools.combinations(range(6), k)]
    for a in tuples:
        for b in tuples:
            assert merge_indices(a, b) == oracle(a, b)
    assert merge_indices((0, 2), (1,)) is merge_indices((0, 2), (1,))


# -------------------------------------------------------------- pfaffian

def test_pfaffian_d2_is_top_right_entry():
    m = SkewFormMatrix.from_scalars([[0.0, 2.5], [-2.5, 0.0]])
    assert pfaffian(m).coefficient(()) == 2.5


def test_pfaffian_block_diagonal():
    a, b = 1.7, -0.4
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = a, -a
    m[2, 3], m[3, 2] = b, -b
    sk = SkewFormMatrix.from_scalars(m)
    got = pfaffian(sk).coefficient(())
    oracle = pfaffian_definition(sk).coefficient(())
    assert got == pytest.approx(a * b)
    assert got == pytest.approx(oracle)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_pfaffian_matches_permutation_sum(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        sk = SkewFormMatrix.from_scalars(random_skew(rng, d))
        assert pfaffian(sk).coefficient(()) == pytest.approx(
            pfaffian_definition(sk).coefficient(()), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12])
def test_pfaffian_squares_to_determinant(d):
    rng = np.random.default_rng(d + 10)
    for _ in range(250):
        m = random_skew(rng, d)
        pf = pfaffian_numeric(m)
        det = np.linalg.det(m)
        assert abs(pf * pf - det) <= 1e-10 * max(1.0, abs(det))


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12])
def test_pfaffian_terms_on_array_coefficients(d):
    """One walk serves stacks of matrices: (N,) coefficients give the
    per-matrix scalar Pfaffians."""
    rng = np.random.default_rng(d + 20)
    stack = np.array([random_skew(rng, d) for _ in range(7)])
    got = pfaffian_terms(lambda i, j: {(): stack[:, i, j]}, d)[()]
    assert got.shape == (7,)
    for k, m in enumerate(stack):
        want = pfaffian_numeric(m)
        assert abs(got[k] - want) <= 1e-14 * abs(want)


def test_pfaffian_terms_frees_its_entries_on_return():
    """The walk holds no reference cycle, so the entry arrays of a
    stack (the curvature block in the curvature density) are freed at once, not
    when the cyclic collector next runs."""
    def entries(stack):
        return lambda i, j: {(): stack[:, i, j]}

    stack = np.array([random_skew(np.random.default_rng(3), 4) for _ in range(5)])
    alive, entry = weakref.ref(stack), entries(stack)
    del stack
    gc.disable()
    try:
        pfaffian_terms(entry, 4)
        del entry
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("d, nodes", [(2, 2), (4, 5), (6, 13), (8, 34)])
def test_pf_plan_nodes_cover_their_subsets(d, nodes):
    """One compiled expansion per d: node 0 is the empty set, every step
    reads an earlier node, the steps of a node cover one index set (its
    smallest index, the paired j and the sub-node's set), and the last node
    covers range(d)."""
    plan = _pf_plan(d)
    assert len(plan) == nodes
    assert plan[0] == ()
    covers = [frozenset()]
    for k, steps in enumerate(plan[1:], 1):
        assert all(sub < k for _, _, sub, _ in steps)
        sets = {frozenset({i0, j}) | covers[sub] for i0, j, sub, _ in steps}
        assert len(sets) == 1
        (cover,) = sets
        assert [i0 for i0, _, _, _ in steps] == [min(cover)] * len(steps)
        assert [j for _, j, _, _ in steps] == sorted(cover - {min(cover)})
        assert [sign for _, _, _, sign in steps] == [(-1) ** p for p in range(len(steps))]
        covers.append(cover)
    assert covers[-1] == frozenset(range(d))
    assert _pf_plan(d) is plan


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_pfaffian_terms_calls_entry_once_per_pair(d):
    """The walk fetches each entry once, however many sub-Pfaffians it
    multiplies: at d = 8 that is 28 calls for 97 expansion steps."""
    rng = np.random.default_rng(d + 40)
    m = random_skew(rng, d)
    calls = []

    def entry(i, j):
        calls.append((i, j))
        return {(): m[i, j]}

    got = pfaffian_terms(entry, d)[()]
    assert len(calls) <= d * (d - 1) // 2
    assert len(set(calls)) == len(calls)
    assert np.float64(got).view(np.int64) == np.float64(pfaffian_numeric(m)).view(np.int64)


def test_pfaffian_rejects_odd_dimension():
    with pytest.raises(ValueError):
        SkewFormMatrix.from_scalars(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pfaffian_terms(lambda i, j: {(): 1.0}, 3)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12])
def test_pfaffian_numeric_matches_form_route_bitwise(d):
    """The scalar walk gives the FormElement Pfaffian's float, signs of
    zero included, also for sparse and integer-valued matrices."""
    rng = np.random.default_rng(d + 30)
    for k in range(40):
        m = random_skew(rng, d)
        if k % 2:
            m[np.triu(rng.random((d, d)) < 0.5)] = 0.0
            m = np.round(np.triu(m) - np.triu(m).T)
        want = pfaffian(SkewFormMatrix.from_scalars(m)).coefficient(())
        want = want.real if isinstance(want, complex) else float(want)
        got = pfaffian_numeric(m)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_pfaffian_numeric_rejects_odd_and_non_skew():
    with pytest.raises(ValueError):
        pfaffian_numeric(np.zeros((3, 3)))
    m = random_skew(np.random.default_rng(0), 4)
    m[1, 2] += 1e-12
    with pytest.raises(ValueError):
        pfaffian_numeric(m)
    with pytest.raises(ValueError):
        pfaffian_numeric(np.eye(2))  # nonzero diagonal


def test_pfaffian_with_two_form_entries():
    # block-diagonal matrix of 2-forms: Pf = a*e01 ^ b*e23
    n = 4
    f01 = FormElement(n, {(0, 1): 2.0})
    f23 = FormElement(n, {(2, 3): 3.0})
    zero = FormElement(n)
    ent = [[zero, f01, zero, zero],
           [-1 * f01, zero, zero, zero],
           [zero, zero, zero, f23],
           [zero, zero, -1 * f23, zero]]
    pf = pfaffian(SkewFormMatrix(4, ent))
    assert pf.coefficient((0, 1, 2, 3)) == pytest.approx(6.0)


# --------------------------------------------------------------- berezin

def test_berezin_projects_top_degree():
    w = FormElement(3, {(0, 1, 2): 5.0, (0, 1): 2.0})
    assert berezin(w) == 5.0
    assert berezin(FormElement(2, {(0,): 1.0})) == 0


def test_berezin_nilpotent_exponential():
    c = 1.25
    w = FormElement(2, {(0, 1): c})
    assert berezin(exp_nilpotent(w)) == pytest.approx(c)


def test_berezin_fiber_definition():
    el = BigradedElement(2, 2, {((0,), (0, 1)): 3.0, ((0, 1), ()): 7.0})
    out = berezin_fiber(el)
    assert out.terms == {(0,): 3.0}


def test_berezin_fiber_pure_base_is_zero():
    el = BigradedElement(2, 1, {((0, 1), ()): 1.0})
    assert berezin_fiber(el).is_zero()


@pytest.mark.parametrize("d", [2, 4, 6])
def test_berezin_exp_equals_pfaffian(d):
    rng = np.random.default_rng(d + 77)
    for _ in range(70):
        m = random_skew(rng, d)
        bz = berezin(exp_nilpotent(two_vector(m)))
        assert abs(bz - pfaffian_numeric(m)) <= 1e-12 * max(1.0, abs(bz))


# ----------------------------------------------------------------- exp

def test_exp_zero_is_one():
    w = FormElement(3)
    assert exp_nilpotent(w).terms == {(): 1.0}


def test_exp_two_blocks_direct_multiplication():
    a, b = 0.6, -1.1
    w = FormElement(4, {(0, 1): a, (2, 3): b})
    got = exp_nilpotent(w)
    # direct multiplication oracle: 1 + w + w^2/2 (higher powers vanish)
    oracle = FormElement.scalar(4) + w + wedge(w, w) * 0.5
    assert (got - oracle).max_abs() < 1e-14
    assert got.coefficient((0, 1, 2, 3)) == pytest.approx(a * b)


def test_exp_scalar_split():
    s = 0.3
    w = FormElement(2, {(): s, (0, 1): 2.0})
    got = exp_nilpotent(w)
    assert got.coefficient(()) == pytest.approx(math.exp(s))
    assert got.coefficient((0, 1)) == pytest.approx(math.exp(s) * 2.0)


# ------------------------------------------------------- derivation D^p

def test_dp_extend_identity_scales_by_degree():
    for d, p in [(3, 0), (3, 1), (3, 2), (4, 3)]:
        got = dp_extend(np.eye(d), p)
        assert np.allclose(got, p * np.eye(math.comb(d, p)))


def test_dp_extend_top_degree_is_trace():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2))
    assert np.allclose(dp_extend(a, 2), [[np.trace(a)]])


def test_dp_extend_out_of_range():
    with pytest.raises(ValueError):
        dp_extend(np.eye(2), 3)


def test_dp_exponential_is_lambda_power():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    for p in range(4):
        assert np.allclose(series_expm(dp_extend(a, p), 0.3),
                           lambda_power(series_expm(a, 0.3), p), atol=1e-10)


def test_alternating_trace_identity_d3():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 3))
    b = series_expm(a, 0.3)
    lhs = sum((-1) ** p * np.trace(lambda_power(b, p)) for p in range(4))
    rhs = np.linalg.det(np.eye(3) - b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# ------------------------------------------------- Patodi trace lemmas

def _compose_dp(mats, p):
    out = np.eye(math.comb(mats[0].shape[0], p))
    for m in mats:
        out = out @ dp_extend(m, p)
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_vanishing_below_top_order(d):
    """Products of fewer than d derivation extensions have zero supertrace."""
    rng = np.random.default_rng(d * 3)
    for _ in range(25):
        k = rng.integers(1, d)
        mats = [rng.normal(size=(d, d)) for _ in range(k)]
        scale = np.prod([np.abs(m).max() for m in mats])
        st_val = supertrace(lambda p: _compose_dp(mats, p), d)
        assert abs(st_val) <= 1e-12 * max(1.0, scale * math.factorial(d))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_top_order_equals_polarized_determinant_coefficient(d):
    rng = np.random.default_rng(d * 5 + 1)
    for _ in range(25):
        mats = [rng.normal(size=(d, d)) for _ in range(d)]
        st_val = supertrace(lambda p: _compose_dp(mats, p), d)
        expected = (-1) ** d * patodi_coefficient(mats)
        assert st_val == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_patodi_coefficient_diagonal_units():
    d = 3
    mats = [np.zeros((d, d)) for _ in range(d)]
    for i in range(d):
        mats[i][i, i] = 1.0
    assert patodi_coefficient(mats) == pytest.approx(1.0)


def test_patodi_coefficient_identity_pair():
    # det((x1+x2) I_2) = (x1+x2)^2, coefficient of x1 x2 is 2
    assert patodi_coefficient([np.eye(2), np.eye(2)]) == pytest.approx(2.0)


def test_patodi_size_mismatch():
    with pytest.raises(ValueError):
        patodi_coefficient([np.eye(2), np.eye(3)])


# -------------------------------------------------- 4-tensor extension

def test_dp_extend4_delta_tensor():
    d = 3
    a = np.einsum("ij,kl->ijkl", np.eye(d), np.eye(d))
    for p in range(d + 1):
        assert np.allclose(dp_extend4(a, p), p * p * np.eye(math.comb(d, p)))


def test_dp_extend4_decomposable():
    rng = np.random.default_rng(21)
    d = 3
    b, c = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    a = np.einsum("ji,lk->ijkl", b, c)  # coefficients of the operator pair (b, c)
    for p in range(d + 1):
        assert np.allclose(dp_extend4(a, p), dp_extend(b, p) @ dp_extend(c, p))


def test_dp_extend4_supertrace_d2_expansion():
    """Hand expansion over the 2x2 permutation sums.

    supertrace(dp_extend4(A, .)) = a[0,0,1,1] - a[0,1,1,0] - a[1,0,0,1] + a[1,1,0,0]
    (both permutations feeding the interleaved slots).
    """
    rng = np.random.default_rng(22)
    a = rng.normal(size=(2, 2, 2, 2))
    st_val = supertrace(lambda p: dp_extend4(a, p), 2)
    byhand = a[0, 0, 1, 1] - a[0, 1, 1, 0] - a[1, 0, 0, 1] + a[1, 1, 0, 0]
    assert st_val == pytest.approx(byhand, rel=1e-12)
    assert st_val == pytest.approx(killing_double_sum(a, "interleaved"), rel=1e-12)


@pytest.mark.parametrize("d", [4, 6])
def test_products_of_few_4tensors_vanish(d):
    """Fewer than d/2 factors of dp_extend4 supertrace to zero."""
    rng = np.random.default_rng(d)
    for _ in range(25):
        n_ops = rng.integers(1, d // 2)
        tensors = [rng.normal(size=(d,) * 4) for _ in range(n_ops)]

        def ops(p):
            out = np.eye(math.comb(d, p))
            for t in tensors:
                out = out @ dp_extend4(t, p)
            return out

        scale = np.prod([np.abs(t).max() for t in tensors]) * math.factorial(d)
        assert abs(supertrace(ops, d)) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("d", [2, 4])
def test_half_power_supertrace_identity(d):
    """(D^pA)^{d/2} supertrace equals the double permutation contraction."""
    rng = np.random.default_rng(d + 40)
    for _ in range(25):
        a = rng.normal(size=(d,) * 4)

        def ops(p):
            m = dp_extend4(a, p)
            out = np.eye(m.shape[0])
            for _ in range(d // 2):
                out = out @ m
            return out

        got = supertrace(ops, d)
        want = killing_double_sum(a, "interleaved")
        assert got == pytest.approx(want, rel=1e-10, abs=1e-9)


def test_killing_double_sum_pairings_agree_after_slot_swap():
    rng = np.random.default_rng(50)
    a = rng.normal(size=(2, 2, 2, 2))
    assert killing_double_sum(a, "blocks") == pytest.approx(
        killing_double_sum(a.transpose(0, 2, 1, 3), "interleaved"))


@pytest.mark.parametrize("pairing", ["interleaved", "blocks"])
@pytest.mark.parametrize("d", [2, 4])
def test_killing_double_sum_stack_matches_single_calls(d, pairing):
    stack = np.random.default_rng(d + 60).normal(size=(3, 5) + (d,) * 4)
    got = killing_double_sum(stack, pairing)
    assert got.shape == (3, 5)
    want = np.array([[killing_double_sum(t, pairing) for t in row] for row in stack])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # same bits


def test_supertrace_identity_family():
    # identity on Lambda^p, d=4: alternating binomial sum vanishes
    assert supertrace(lambda p: np.eye(math.comb(4, p)), 4) == 0.0


# ---------------------------------------------------- bigraded algebra

def test_koszul_sign_rule():
    # (1 (x) f) * (w (x) 1) = (-1)^{deg f * deg w} w (x) f
    nb, nf = 2, 2
    f = BigradedElement(nb, nf, {((), (0,)): 1.0})
    w = BigradedElement(nb, nf, {((0,), ()): 1.0})
    prod = f * w
    assert prod.coefficient((0,), (0,)) == -1.0
    prod2 = w * f
    assert prod2.coefficient((0,), (0,)) == 1.0


def test_bigraded_a11_elements_commute():
    rng = np.random.default_rng(9)
    nb = nf = 3
    def rand_a11():
        terms = {}
        for _ in range(3):
            terms[((rng.integers(nb),), (rng.integers(nf),))] = rng.normal()
        return BigradedElement(nb, nf, terms)
    a, b = rand_a11(), rand_a11()
    assert (a * b - b * a).max_abs() < 1e-14


# ------------------------------------------------ (N,)-array coefficients

N_ROWS = 64


def _random_terms(rng, keys, scalar_key=None):
    """(N,) coefficients: real on forms; on bigraded keys the MQ phases,
    real on even fiber degree and purely imaginary on odd.  A real scalar
    part goes under `scalar_key`."""
    terms = {}
    for key in keys:
        c = rng.normal(size=N_ROWS)
        terms[key] = 1j * c if key and isinstance(key[0], tuple) and len(key[1]) % 2 else c
    if scalar_key is not None:
        terms[scalar_key] = rng.normal(size=N_ROWS)
    return terms


def _row(terms, k):
    return {key: c[k] for key, c in terms.items()}


def _assert_rows_equal(batch, rows):
    for k, single in enumerate(rows):
        assert set(single.terms) <= set(batch.terms)
        for key, c in batch.terms.items():
            got = np.broadcast_to(c, N_ROWS)[k]
            want = single.terms.get(key, 0.0)
            assert got == want, (k, key, got, want)


_FORM_KEYS = [(), (0,), (2,), (1, 3), (0, 2), (0, 1, 4), (1, 2, 3, 4)]
_BIG_KEYS = [((0,), (0,)), ((1,), (1,)), ((2,), (0,)), ((3,), (1,)),
             ((0, 1), (0, 1)), ((2, 3), ()), ((1,), ())]


def _op_cases():
    def form_wedge(ta, tb):
        return wedge(FormElement(5, ta), FormElement(5, tb))

    def bigraded_product(ta, tb):
        return BigradedElement(4, 2, ta) * BigradedElement(4, 2, tb)

    def form_exp(ta, tb):
        return exp_nilpotent(FormElement(5, ta))

    def bigraded_exp(ta, tb):
        return exp_nilpotent(BigradedElement(4, 2, ta) * -1)

    def berezin_of_product(ta, tb):
        return berezin_fiber(BigradedElement(4, 2, ta) * BigradedElement(4, 2, tb))

    return [("wedge", form_wedge, _FORM_KEYS, None),
            ("bigraded_mul", bigraded_product, _BIG_KEYS, None),
            ("exp_form", form_exp, _FORM_KEYS[1:], ()),
            ("exp_bigraded", bigraded_exp, _BIG_KEYS, ((), ())),
            ("berezin_fiber", berezin_of_product, _BIG_KEYS, None)]


@pytest.mark.parametrize("name,op,keys,scalar_key", _op_cases(),
                         ids=[c[0] for c in _op_cases()])
def test_array_rows_equal_scalar_calls_bitwise(name, op, keys, scalar_key):
    rng = np.random.default_rng(60)
    ta = _random_terms(rng, keys, scalar_key)
    tb = _random_terms(rng, keys)
    batch = op(ta, tb)
    _assert_rows_equal(batch, [op(_row(ta, k), _row(tb, k)) for k in range(N_ROWS)])


def test_array_rows_general_complex_agree_to_rounding():
    """Products of general complex coefficients: NumPy's vector loops may
    fuse multiply-adds, so rows agree to rounding, not bit for bit."""
    rng = np.random.default_rng(61)

    def rand():
        return {key: rng.normal(size=N_ROWS) + 1j * rng.normal(size=N_ROWS)
                for key in _FORM_KEYS}

    ta, tb = rand(), rand()
    batch = exp_nilpotent(wedge(FormElement(5, ta), FormElement(5, tb)))
    for k in range(N_ROWS):
        single = exp_nilpotent(wedge(FormElement(5, _row(ta, k)),
                                     FormElement(5, _row(tb, k))))
        for key, c in single.terms.items():
            assert batch.terms[key][k] == pytest.approx(c, rel=1e-13, abs=1e-13)


def test_all_zero_array_coefficient_is_pruned():
    z = np.zeros(N_ROWS)
    e = FormElement(3, {(0,): z, (1,): 0.0, (2,): np.eye(N_ROWS)[0]})
    assert set(e.terms) == {(2,)}
    b = BigradedElement(2, 2, {((0,), (1,)): z, ((1,), ()): 0, ((), ()): 1.0})
    assert set(b.terms) == {((), ())}
    x = FormElement(3, {(0,): np.arange(1.0, N_ROWS + 1)})
    assert (x - x).is_zero()
    assert (x * z).is_zero() and (z * x).is_zero()
    assert (np.arange(N_ROWS) * x).terms[(0,)][2] == 2 * 3.0
    assert x.max_abs() == N_ROWS


# ------------------------------------------------ the D^p table engine

def _dp_via_wedges(a, p):
    """D^p(a) column by column: D^p(a) e_I is the sum over slots of the
    wedge product of the e_i with a acting on one slot (no table)."""
    d = a.shape[0]
    basis = lambda_basis(d, p)
    m = np.zeros((len(basis), len(basis)))
    for col, idx in enumerate(basis):
        image = FormElement(d)
        for slot in range(p):
            prod = FormElement.scalar(d)
            for k, i in enumerate(idx):
                factor = (FormElement(d, {(j,): a[j, i] for j in range(d)})
                          if k == slot else FormElement.generator(d, i))
                prod = wedge(prod, factor)
            image = image + prod
        for row, key in enumerate(basis):
            m[row, col] = image.coefficient(key).real
    return m


def _dp_extend4_by_products(a, p):
    """sum_ij D^p(E_ij) @ D^p(a[i,j].T), one elementary matrix at a time."""
    d = a.shape[0]
    size = math.comb(d, p)
    out = np.zeros((size, size))
    for i in range(d):
        for j in range(d):
            second = dp_extend(a[i, j].T, p)
            if not second.any():
                continue
            eij = np.zeros((d, d))
            eij[j, i] = 1.0
            out += dp_extend(eij, p) @ second
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_dp_extend_matches_wedge_products(d):
    rng = np.random.default_rng(60 + d)
    a = rng.normal(size=(d, d))
    a[rng.random((d, d)) < 0.3] = 0.0
    for p in range(d + 1):
        assert np.allclose(dp_extend(a, p), _dp_via_wedges(a, p),
                           rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_dp_extend4_equals_elementary_products_bitwise(d):
    rng = np.random.default_rng(70 + d)
    for sparsity in (0.0, 0.6):
        a = rng.normal(size=(d,) * 4)
        a[rng.random(a.shape) < sparsity] = 0.0
        for p in range(d + 1):
            got, want = dp_extend4(a, p), _dp_extend4_by_products(a, p)
            assert np.array_equal(got, want), (d, p)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (d, p)


def test_stacked_dp_extend_rows_equal_single_calls():
    rng = np.random.default_rng(80)
    d = 4
    stack = rng.normal(size=(3, 2, d, d))
    for p in range(d + 1):
        got = dp_extend(stack, p)
        assert got.shape == (3, 2, math.comb(d, p), math.comb(d, p))
        for k in range(3):
            for l in range(2):
                assert np.array_equal(got[k, l], dp_extend(stack[k, l], p))


def test_dp_results_are_fresh_and_tables_read_only():
    rng = np.random.default_rng(81)
    a, t = rng.normal(size=(4, 4)), rng.normal(size=(4,) * 4)
    first, first4 = dp_extend(a, 2), dp_extend4(t, 2)
    keep, keep4 = first.copy(), first4.copy()
    first[...] = 7.0
    first4[...] = 7.0
    assert np.array_equal(dp_extend(a, 2), keep)
    assert np.array_equal(dp_extend4(t, 2), keep4)
    table = _dp_table(4, 2)
    with pytest.raises(ValueError):
        table[4, 0] = 0
    with pytest.raises(ValueError):
        table[2][0] = 0
