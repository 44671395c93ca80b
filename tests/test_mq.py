"""Thom-form algebra: fiber normalization, pullbacks, structural identities."""

import math

import numpy as np
import pytest

from gaussbonnet.bundles import (
    connection_and_curvature, connection_form, euler_form_transition_batch, make_plane_bundle,
)
from gaussbonnet.expr import eval_jet
from gaussbonnet.exterior import BigradedElement
from gaussbonnet.mq import (
    _connection, _thom, berezin_vs_pfaffian_residual, closedness_residual,
    contraction, covariant_q_residual, epsilon, mq_euler_number,
    mq_fiber_integral, mq_fiber_integral_point, mq_form_bundle, mq_form_point,
    mq_zero_section_density,
)


def test_point_model_gaussian_peak():
    u = mq_form_point(2, [0.0, 0.0])
    c = u.coefficient((0, 1))
    assert c.real == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert abs(c.imag) < 1e-12


def test_point_model_radial_value():
    u = mq_form_point(2, [0.6, 0.8])
    c = u.coefficient((0, 1))
    assert c.real == pytest.approx(math.exp(-0.5) / (2 * math.pi), rel=1e-12)
    assert abs(c.imag) < 1e-12


def test_point_model_only_top_degree():
    u = mq_form_point(2, [0.3, 0.1])
    assert set(u.terms) == {(0, 1)}


def test_point_model_n4_symbolic():
    """Rank-4 model agrees with the direct Gaussian formula."""
    x = np.array([0.2, -0.4, 0.1, 0.5])
    u = mq_form_point(4, x)
    c = u.coefficient((0, 1, 2, 3))
    want = (2 * math.pi) ** (-2) * math.exp(-0.5 * float(x @ x))
    assert c.real == pytest.approx(want, rel=1e-12)
    assert abs(c.imag) < 1e-12


def test_odd_rank_excluded():
    with pytest.raises(ValueError):
        epsilon(3)


def test_point_fiber_integral_is_one():
    assert mq_fiber_integral_point(nodes=40) == pytest.approx(1.0, abs=1e-10)


def test_point_model_batch_rows_equal_single_points():
    x = np.random.default_rng(7).uniform(-2.0, 2.0, (12, 2))
    batch = mq_form_point(2, x).coefficient((0, 1))
    assert batch.shape == (12,)
    for k in range(12):
        assert batch[k] == mq_form_point(2, x[k]).coefficient((0, 1))


# ---------------------------------------------------------------- bundles

def _annulus_points(rng, count, lo=0.3, hi=2.0):
    r = rng.uniform(lo, hi, count)
    th = rng.uniform(0, 2 * math.pi, count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def test_zero_section_density_batch_equals_single_rows():
    b = make_plane_bundle(2)
    pts = _annulus_points(np.random.default_rng(11), 16)
    batch = mq_zero_section_density(b, "north", pts)
    rows = np.concatenate([mq_zero_section_density(b, "north", pts[k:k + 1])
                           for k in range(16)])
    assert np.array_equal(batch, rows)


def test_form_bundle_equals_row_of_batched_thom():
    b = make_plane_bundle(2)
    rng = np.random.default_rng(12)
    x = _annulus_points(rng, 10)
    v = rng.uniform(-1.5, 1.5, (10, 2))
    theta, curvature = _connection(b, "north", x)
    batch = _thom(theta, curvature, v)
    for k in range(10):
        single = mq_form_bundle(b, "north", x[k], v[k])
        assert set(single.terms) == set(batch.terms)
        for key, c in batch.terms.items():
            assert c[k] == single.terms[key], (k, key)


@pytest.mark.parametrize("k", [-2, 1, 3])
def test_connection_rows_equal_form_and_curvature(k):
    """One phi/rho evaluation per batch gives theta and d theta bit for bit,
    row by row; theta also equals the order-1 jet assembly."""
    b = make_plane_bundle(k)
    for chart in b.atlas.charts:
        name = chart.name
        x = _annulus_points(np.random.default_rng(13), 12)
        theta, curvature = _connection(b, name, x)
        phi = eval_jet(b.phi, x, chart.params, order=1)
        rho = eval_jet(chart.weight, x, chart.params, order=1)
        assert np.array_equal(theta, -(1.0 - rho.val)[:, None] * phi.grad)
        for row in range(len(x)):
            one_theta, one_curvature = _connection(b, name, x[row])
            assert one_theta.tobytes() == connection_form(b, name)(x[row:row + 1])[0].tobytes()
            assert one_theta.tobytes() == theta[row].tobytes()
            assert one_curvature == connection_and_curvature(b, name, x[row:row + 1])[1][0]
            assert one_curvature == curvature[row]


def test_flat_bundle_reduces_to_point_model():
    b = make_plane_bundle(0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, 2)
        v = rng.uniform(-1.0, 1.0, 2)
        u = mq_form_bundle(b, "north", x, v)
        model = mq_form_point(2, v)
        # the bundle dv generators sit at positions 2, 3
        assert u.coefficient((2, 3)) == pytest.approx(model.coefficient((0, 1)))
        for key in u.terms:
            if key != (2, 3):
                assert abs(u.terms[key]) < 1e-15


def test_zero_section_pullback_equals_curvature_density():
    b = make_plane_bundle(2)
    rng = np.random.default_rng(1)
    for _ in range(25):
        r = rng.uniform(0.3, 2.0)
        th = rng.uniform(0, 2 * math.pi)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        zs = mq_zero_section_density(b, "north", x[None, :])[0]
        tr = euler_form_transition_batch(b, "north", x[None, :])[0]
        assert abs(zs - tr) < 1e-10 * (1 + abs(tr))


def test_berezin_pfaffian_bridge_pointwise():
    b = make_plane_bundle(2)
    rng = np.random.default_rng(2)
    for _ in range(100):
        r = rng.uniform(0.3, 2.2)
        th = rng.uniform(0, 2 * math.pi)
        x = [r * math.cos(th), r * math.sin(th)]
        assert berezin_vs_pfaffian_residual(b, "north", x) < 1e-12


def test_fiber_integral_base_point_independent():
    b = make_plane_bundle(2)
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(10):
        r = rng.uniform(0.2, 1.8)
        th = rng.uniform(0, 2 * math.pi)
        x = [r * math.cos(th), r * math.sin(th)]
        vals.append(mq_fiber_integral(b, "north", x, nodes=40))
    vals = np.array(vals)
    assert np.abs(vals - 1.0).max() < 1e-8
    assert vals.std() < 1e-8


def test_euler_number_k2():
    res = mq_euler_number(make_plane_bundle(2), resolution=96)
    assert res.euler_number == pytest.approx(2.0, abs=1e-5)


def test_euler_number_trivial():
    res = mq_euler_number(make_plane_bundle(0), resolution=32)
    assert res.euler_number == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- structural probes

def test_contraction_operator_signs():
    # a(s) on 1 (x) e1^e2 with s = e1: +(deg 0, k=1) -> e2; s = e2 -> -e1
    el = BigradedElement(2, 2, {((), (0, 1)): 1.0})
    out = contraction([1.0, 0.0], el)
    assert out.terms == {((), (1,)): 1.0}
    out = contraction([0.0, 1.0], el)
    assert out.terms == {((), (0,)): -1.0}
    # odd base degree flips the sign
    el = BigradedElement(2, 2, {((0,), (0,)): 1.0})
    out = contraction([1.0, 0.0], el)
    assert out.terms == {((0,), ()): -1.0}


def test_contraction_is_antiderivation_square_zero():
    rng = np.random.default_rng(4)
    s = rng.normal(size=2)
    terms = {}
    for _ in range(6):
        tb = tuple(sorted(rng.choice(4, size=rng.integers(0, 3), replace=False)))
        tf = tuple(sorted(rng.choice(2, size=rng.integers(0, 3), replace=False)))
        terms[(tb, tf)] = rng.normal()
    el = BigradedElement(4, 2, terms)
    assert contraction(s, contraction(s, el)).max_abs() < 1e-14


def test_covariant_q_identity():
    """(nabla - i a(x)) Q = 0 at sample points of the k = 2 bundle."""
    b = make_plane_bundle(2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = rng.uniform(0.3, 2.0)
        th = rng.uniform(0, 2 * math.pi)
        x = [r * math.cos(th), r * math.sin(th)]
        v = rng.uniform(-1.5, 1.5, 2)
        assert covariant_q_residual(b, "north", x, v) < 1e-12


def test_thom_form_closed():
    """d(u) vanishes numerically at random points of the k = 2 bundle."""
    b = make_plane_bundle(2)
    rng = np.random.default_rng(6)
    for _ in range(5):
        r = rng.uniform(0.5, 1.6)
        th = rng.uniform(0, 2 * math.pi)
        x = [r * math.cos(th), r * math.sin(th)]
        v = rng.uniform(-0.8, 0.8, 2)
        assert closedness_residual(b, "north", x, v) < 1e-7
