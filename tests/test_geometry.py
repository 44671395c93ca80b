"""Curvature, geodesics, transport and normal coordinates on model charts."""

import math
import zlib

import numpy as np
import pytest

from gaussbonnet import geometry
from gaussbonnet.expr import eval_jet
from gaussbonnet.library import build_manifold
from gaussbonnet.geometry import (
    Chart, GeometryError, NormalCoordinates, _christoffels, _connection_jets, christoffels_at,
    geodesic, geodesic_batch, geodesic_transport, metric_jets, parallel_transport,
    point_geometry, point_geometry_batch,
)


def polar_sphere(radius=1.0):
    return Chart.from_strings(
        "polar", 2, [(0.0, math.pi), (0.0, 2 * math.pi)], [False, True],
        {(0, 0): "r^2", (1, 1): "r^2*sin(x1)^2"}, params={"r": radius})


def stereo_sphere():
    # unit sphere, conformal factor 4/(1+|w|^2)^2
    conf = "4/(1+x1^2+x2^2)^2"
    return Chart.from_strings(
        "stereo", 2, [(-4.0, 4.0), (-4.0, 4.0)], [False, False],
        {(0, 0): conf, (1, 1): conf})


def flat_torus(d=2):
    return Chart.from_strings(
        "flat", d, [(0.0, 1.0)] * d, [True] * d,
        {(i, i): "1" for i in range(d)})


def bumpy_sphere(eps):
    factor = f"exp(2*{eps}*cos(x1))"
    return Chart.from_strings(
        "bumpy", 2, [(0.0, math.pi), (0.0, 2 * math.pi)], [False, True],
        {(0, 0): factor, (1, 1): f"{factor}*sin(x1)^2"})


def embed(x):
    """Polar chart point to R^3 on the unit sphere."""
    th, ph = x
    return np.array([math.sin(th) * math.cos(ph),
                     math.sin(th) * math.sin(ph), math.cos(th)])


# --------------------------------------------------------------- curvature

def test_flat_torus_is_flat():
    pg = point_geometry(flat_torus(), [0.3, 0.8])
    assert np.abs(pg.gamma).max() == 0.0
    assert np.abs(pg.riemann).max() == 0.0
    assert np.abs(pg.riemann_frame).max() == 0.0


def test_unit_sphere_sectional_curvature():
    pg = point_geometry(polar_sphere(), [math.pi / 3, 0.5])
    # R_{1212} = sin^2(theta) for the round metric (hand-derived oracle)
    assert pg.riemann[0, 1, 0, 1] == pytest.approx(math.sin(math.pi / 3) ** 2, rel=1e-10)
    assert pg.riemann[0, 1, 0, 1] / np.linalg.det(pg.g) == pytest.approx(1.0, rel=1e-10)


def test_sphere_radius_scaling_law():
    r = 2.0
    chart = polar_sphere(r)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = [rng.uniform(0.3, math.pi - 0.3), rng.uniform(0, 2 * math.pi)]
        pg = point_geometry(chart, x)
        assert pg.riemann_frame[0, 1, 0, 1] == pytest.approx(1 / r**2, rel=1e-9)


@pytest.mark.parametrize("make,where", [
    (polar_sphere, [1.0, 2.0]),
    (stereo_sphere, [0.4, -0.7]),
    (lambda: bumpy_sphere(0.25), [1.2, 0.3]),
    (flat_torus, [0.25, 0.5]),
])
def test_point_geometry_invariants(make, where):
    pg = point_geometry(make(), where)
    d = len(where)
    # Gamma symmetric in lower indices, exactly
    assert np.array_equal(pg.gamma, pg.gamma.transpose(0, 2, 1))
    r = pg.riemann
    scale = max(np.abs(r).max(), 1e-30)
    assert np.abs(r + r.transpose(1, 0, 2, 3)).max() <= 1e-8 * scale
    assert np.abs(r + r.transpose(0, 1, 3, 2)).max() <= 1e-8 * scale
    assert np.abs(r - r.transpose(2, 3, 0, 1)).max() <= 1e-8 * scale
    bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
    assert np.abs(bianchi).max() <= 1e-8 * scale
    # frame orthonormality and orientation
    assert np.abs(pg.frame.T @ pg.g @ pg.frame - np.eye(d)).max() < 1e-10
    assert np.linalg.det(pg.frame) * pg.sqrt_det_g > 0
    # omega2 is exactly skew
    om = pg.omega2
    for a in range(d):
        for b in range(d):
            assert (om.entries[a][b] + om.entries[b][a]).max_abs() == 0


@pytest.mark.parametrize("name", ["sphere2", "torus2", "bumpy_sphere",
                                  "sphere3", "sphere4", "s2xs2", "torus4",
                                  "cp2"])
def test_batch_invariants_every_builtin(name):
    """Curvature symmetries, Bianchi¹ and frame orthonormality at 100
    random interior points of every built-in manifold."""
    from gaussbonnet.library import build_manifold
    manifold = build_manifold(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for chart in manifold.atlas.charts:
        cols = []
        for (lo, hi), per in zip(chart.ranges, chart.periodic):
            pad = 0.0 if per else 0.15 * (hi - lo)
            cols.append(rng.uniform(lo + pad, hi - pad, 100))
        pts = np.column_stack(cols)
        b = point_geometry_batch(chart, pts)
        r = b.riemann
        scale = max(np.abs(r).max(), 1e-30)
        assert np.abs(r + r.transpose(0, 2, 1, 3, 4)).max() <= 1e-8 * scale
        assert np.abs(r + r.transpose(0, 1, 2, 4, 3)).max() <= 1e-8 * scale
        assert np.abs(r - r.transpose(0, 3, 4, 1, 2)).max() <= 1e-8 * scale
        bianchi = r + r.transpose(0, 1, 3, 4, 2) + r.transpose(0, 1, 4, 2, 3)
        assert np.abs(bianchi).max() <= 1e-8 * scale
        d = chart.dim
        frame_check = np.einsum("nia,nij,njb->nab", b.frame, b.g, b.frame)
        assert np.abs(frame_check - np.eye(d)).max() < 1e-9
        assert np.all(np.linalg.det(b.frame) * b.sqrt_det_g > 0)


BUILTINS = ["sphere2", "torus2", "bumpy_sphere", "sphere3", "sphere4", "s2xs2", "torus4",
            "cp2"]


def interior_points(chart, rng, count, pad):
    """Uniform points with a margin of `pad` of each non-periodic extent."""
    cols = []
    for (lo, hi), per in zip(chart.ranges, chart.periodic):
        margin = 0.0 if per else pad * (hi - lo)
        cols.append(rng.uniform(lo + margin, hi - margin, count))
    return np.column_stack(cols)


def curvature_by_dgamma(chart, points):
    """The d Gamma route, written out as the oracle: R^r_smv from the
    Christoffel jets, lowered with g, the frame tensor by four one-index
    contractions and scal = g^ik g^jl R_ijkl."""
    n, d = points.shape
    g, dg, d2g = metric_jets(chart, points, order=2)
    g_inv = np.linalg.inv(g)
    gamma, dgamma = _connection_jets(g_inv, dg, d2g)
    # R^r_smv = d_m Gamma^r_vs - d_v Gamma^r_ms + Gamma^r_ml Gamma^l_vs - Gamma^r_vl Gamma^l_ms
    r_up = (np.einsum("nmrvs->nrsmv", dgamma) - np.einsum("nvrms->nrsmv", dgamma)
            + np.einsum("nrml,nlvs->nrsmv", gamma, gamma)
            - np.einsum("nrvl,nlms->nrsmv", gamma, gamma))
    riemann = np.einsum("nir,nrjkl->nijkl", g, r_up)
    frame = np.linalg.inv(np.linalg.cholesky(g)).transpose(0, 2, 1)
    rf = riemann
    for _ in range(4):  # contract the first index, roll the frame index to the back
        rf = np.einsum("nia,nijkl->njkla", frame, rf)
    scal = np.einsum("nik,njl,nijkl->n", g_inv, g_inv, riemann)
    return riemann, rf, scal


@pytest.mark.parametrize("name", BUILTINS)
def test_pair_block_matches_the_dgamma_route(name):
    """The curvature block from the metric 2-jet, and the 4-tensors and the
    scalar curvature derived from it, agree with the d Gamma route at 100
    interior points of every chart of every built-in manifold."""
    rng = np.random.default_rng(11)
    for chart in build_manifold(name).atlas.charts:
        pts = interior_points(chart, rng, 100, 0.02)
        b = point_geometry_batch(chart, pts)
        riemann, rf, scal = curvature_by_dgamma(chart, pts)
        pairs = np.array([(a, c) for a in range(chart.dim) for c in range(a + 1, chart.dim)])
        block = rf[:, pairs[:, 0, None], pairs[:, 1, None], pairs[None, :, 0], pairs[None, :, 1]]
        # the largest gaps, 2.2e-11 (cp2 block, scale 4) and 1.5e-11 (sphere4
        # frame tensor), are round-off of the charts near their edges
        for got, want in ((b.curvature, block), (b.riemann_frame, rf),
                          (b.scalar_curvature, scal), (b.riemann, riemann)):
            assert np.abs(got - want).max() <= 5e-11 * max(np.abs(want).max(), 1.0)


def test_sphere4_frame_curvature_is_the_unit_sphere_tensor():
    """On the round 4-sphere R(e_a, e_b, e_c, e_e) = d_ac d_be - d_ae d_bc to
    1e-9 at 5 x 20,000 random points with 2 % padding.  The d Gamma route
    read 1.24e-9 at seed 4 (this route 5.8e-10); exactly at the padded
    corners both exceed 1e-9 (3.5e-9 here, 4.3e-9 there)."""
    chart = build_manifold("sphere4").atlas.charts[0]
    eye = np.eye(4)
    want = np.einsum("ac,be->abce", eye, eye) - np.einsum("ae,bc->abce", eye, eye)
    for seed in range(1, 6):
        pts = interior_points(chart, np.random.default_rng(seed), 20000, 0.02)
        got = point_geometry_batch(chart, pts).riemann_frame
        assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("name", ["cp2", "sphere4"])
def test_curvature_block_rows_are_one_row_calls_bitwise(name):
    chart = build_manifold(name).atlas.charts[0]
    pts = interior_points(chart, np.random.default_rng(6), 40, 0.05)
    block = point_geometry_batch(chart, pts).curvature
    for k in range(len(pts)):
        assert np.array_equal(point_geometry_batch(chart, pts[k:k + 1]).curvature[0], block[k])


def test_curvature_tensors_are_built_when_first_read():
    chart = build_manifold("cp2").atlas.charts[0]
    b = point_geometry_batch(chart, interior_points(chart, np.random.default_rng(7), 5, 0.1))
    lazy = {"riemann", "riemann_frame", "scalar_curvature"}
    assert b.curvature.shape == (5, 6, 6) and not lazy & set(vars(b))
    b.riemann_frame
    assert set(vars(b)) & lazy == {"riemann_frame"}
    assert b.scalar_curvature.shape == (5,) and b.riemann.shape == (5, 4, 4, 4, 4)
    assert lazy <= set(vars(b))


def test_frame_curvature_chart_independent():
    """Sectional curvature of the bumpy sphere agrees across polar and
    stereographic presentations at matched points."""
    eps = 0.2
    polar = bumpy_sphere(eps)
    # same metric pushed to the north stereographic chart:
    # cos(theta) = (1-|w|^2)/(1+|w|^2), conformal to the round stereo metric
    czw = "(1-x1^2-x2^2)/(1+x1^2+x2^2)"
    factor = f"exp(2*{eps}*{czw})"
    stereo = Chart.from_strings(
        "stereo", 2, [(-4.0, 4.0), (-4.0, 4.0)], [False, False],
        {(0, 0): f"{factor}*4/(1+x1^2+x2^2)^2",
         (1, 1): f"{factor}*4/(1+x1^2+x2^2)^2"})
    rng = np.random.default_rng(2)
    for _ in range(10):
        th = rng.uniform(0.6, math.pi - 0.6)
        ph = rng.uniform(0.0, 2 * math.pi)
        w = math.tan(th / 2)
        x_st = [w * math.cos(ph), w * math.sin(ph)]
        k_polar = point_geometry(polar, [th, ph]).riemann_frame[0, 1, 0, 1]
        k_st = point_geometry(stereo, x_st).riemann_frame[0, 1, 0, 1]
        assert k_st == pytest.approx(k_polar, abs=1e-7)


def test_conformal_scalar_curvature_law():
    """R~ = e^{-2f}(R - 2 div grad f) for g~ = e^{2f} g in dimension 2."""
    eps = 0.2
    round_chart = polar_sphere()
    bumpy = bumpy_sphere(eps)
    from gaussbonnet.expr import parse
    f_expr = parse(f"{eps}*cos(x1)", round_chart.var_names)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = np.array([rng.uniform(0.4, math.pi - 0.4), rng.uniform(0, 2 * math.pi)])
        pg = point_geometry(round_chart, x)
        jet = eval_jet(f_expr, x[None, :], order=2)
        grad, hess = jet.grad[0], jet.hess[0]
        # analyst's Laplacian (div grad) on the round metric from jets
        lap = float(np.einsum("ij,ij->", pg.g_inv, hess)
                    - np.einsum("ij,kij,k->", pg.g_inv, pg.gamma, grad))
        f_val = eps * math.cos(x[0])
        want = math.exp(-2 * f_val) * (pg.scalar_curvature - 2 * lap)
        got = point_geometry(bumpy, x).scalar_curvature
        assert got == pytest.approx(want, abs=1e-5)


def test_metric_not_positive_definite_raises():
    bad = Chart.from_strings("bad", 2, [(0, 1), (0, 1)], [False, False],
                             {(0, 0): "x1 - 0.5", (1, 1): "1"})
    with pytest.raises(GeometryError):
        point_geometry(bad, [0.2, 0.5])


# --------------------------------------------------------------- geodesics

def test_flat_geodesics_are_straight():
    chart = flat_torus()
    path = geodesic(chart, [0.2, 0.2], [1.0, 0.5], 0.4, steps=100)
    x_end, v_end = path[-1]
    direction = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    assert np.allclose(x_end, np.array([0.2, 0.2]) + 0.4 * direction, atol=1e-12)
    assert np.allclose(v_end, 0.4 * direction, atol=1e-12)


def test_great_circle_quarter_turn():
    chart = polar_sphere()
    # from the equator heading north (decreasing theta), quarter circle
    path = geodesic(chart, [math.pi / 2, 1.0], [-1.0, 0.0], math.pi / 2 - 1e-3)
    th_end = path[-1][0][0]
    assert th_end == pytest.approx(1e-3, abs=1e-8)
    # |v|_g drift along the path
    for x, v in path[::100]:
        g = metric_jets(chart, np.asarray(x)[None, :], order=0)[0][0]
        assert abs(v @ g @ v - (math.pi / 2 - 1e-3) ** 2) < 1e-10


def test_closed_equator_geodesic():
    chart = polar_sphere()
    path = geodesic(chart, [math.pi / 2, 0.5], [0.0, 1.0], 2 * math.pi, steps=2048)
    x_end = path[-1][0]
    assert x_end[0] == pytest.approx(math.pi / 2, abs=1e-8)
    assert math.remainder(x_end[1] - 0.5, 2 * math.pi) == pytest.approx(0.0, abs=1e-8)


def test_geodesic_exits_chart():
    chart = Chart.from_strings("box", 2, [(0, 1), (0, 1)], [False, False],
                               {(0, 0): "1", (1, 1): "1"})
    with pytest.raises(GeometryError):
        geodesic(chart, [0.5, 0.5], [1.0, 0.0], 2.0)


def test_geodesic_batch_rows_match_scalar_geodesic():
    chart = bumpy_sphere(0.15)
    x0 = np.array([[1.0, 0.3], [1.6, 2.0], [2.1, 6.0]])
    v0 = np.array([[0.3, -0.4], [-0.2, 0.5], [0.1, 0.2]])
    xs, vs = geodesic_batch(chart, x0, v0, 200)
    for x, v, x_end, v_end in zip(x0, v0, xs, vs):
        speed = float(np.sqrt(v @ metric_jets(chart, x[None, :], order=0)[0][0] @ v))
        want_x, want_v = geodesic(chart, x, v, speed, steps=200)[-1]
        assert np.abs(x_end - want_x).max() <= 1e-14
        assert np.abs(v_end - want_v).max() <= 1e-14


def test_geodesic_batch_checks_every_step():
    """A straight line in flat polar coordinates dips below r = 0.5 and,
    by symmetry, ends back on r = 1.5: its endpoint is inside, yet the batch
    must raise."""
    chart = Chart.from_strings("annulus", 2, [(0.5, 2.0), (0.0, 2 * math.pi)],
                               [False, True], {(0, 0): "1", (1, 1): "x1^2"})
    sin_a = 0.2  # closest approach 1.5 * sin_a = 0.3 from the origin
    cos_a = math.sqrt(1 - sin_a ** 2)
    length = 2 * 1.5 * cos_a
    dipping = length * np.array([-cos_a, sin_a / 1.5])
    x0 = np.array([[1.5, 0.0], [1.0, 1.0], [1.5, 0.0]])
    v0 = np.array([[0.1, 0.2], [0.2, -0.1], dipping])
    x_end, _ = geodesic_batch(chart, x0[:2], v0[:2], 400)
    assert chart.contains(x_end)
    with pytest.raises(GeometryError):
        geodesic_batch(chart, x0, v0, 400)


# --------------------------------------------------------------- transport

def test_flat_transport_is_constant():
    chart = flat_torus()
    w = parallel_transport(chart, lambda t: ([0.1 + 0.5 * t, 0.2], [0.5, 0.0]),
                           [0.3, -0.8], steps=50)
    assert np.allclose(w, [0.3, -0.8], atol=1e-14)


def test_latitude_holonomy():
    """Transport around theta = theta0 rotates by 2 pi cos(theta0)."""
    chart = polar_sphere()
    th0 = 1.1

    def path(t):
        return np.array([th0, 2 * math.pi * t]), np.array([0.0, 2 * math.pi])

    w0 = np.array([1.0, 0.0])
    w1 = parallel_transport(chart, path, w0, steps=2000)
    # compare angles in the orthonormal frame at the base point
    pg = point_geometry(chart, [th0, 0.0])
    comp0 = np.linalg.solve(pg.frame, w0)
    comp1 = np.linalg.solve(pg.frame, w1)
    turn = math.atan2(comp1[1], comp1[0]) - math.atan2(comp0[1], comp0[0])
    expected = -2 * math.pi * math.cos(th0)  # holonomy angle, sign from orientation
    diff = math.remainder(turn - expected, 2 * math.pi)
    assert abs(diff) < 1e-6


def test_transport_preserves_norm_random_paths():
    chart = bumpy_sphere(0.15)
    rng = np.random.default_rng(8)
    for _ in range(50):
        th0 = rng.uniform(0.7, math.pi - 0.7)
        ph0 = rng.uniform(0, 2 * math.pi)
        v = rng.normal(size=2)
        w0 = rng.normal(size=2)
        x1, v1, w1 = geodesic_transport(chart, [th0, ph0], v, 0.25, w0, steps=256)
        g0 = metric_jets(chart, np.array([[th0, ph0]]), order=0)[0][0]
        g1 = metric_jets(chart, x1[None, :], order=0)[0][0]
        assert abs(w1 @ g1 @ w1 - w0 @ g0 @ w0) < 1e-9 * max(1.0, w0 @ g0 @ w0)


def test_cotangent_transport_pairs_with_tangent():
    """<alpha, w> is invariant when alpha moves as a cotangent vector."""
    chart = polar_sphere()
    x0, v = [1.0, 0.3], [0.4, 0.8]
    w0 = np.array([0.7, -0.2])
    a0 = np.array([0.5, 1.1])
    x1, _, w1 = geodesic_transport(chart, x0, v, 0.5, w0, steps=512)
    _, _, a1 = geodesic_transport(chart, x0, v, 0.5, a0, steps=512, cotangent=True)
    assert a1 @ w1 == pytest.approx(a0 @ w0, rel=1e-9)


# The one-row RK4 loops that the batched integrators replace, written out
# as oracles: classic RK4 with t += h, Gamma from a one-row order-1 metric
# jet at every stage, and the Jacobi fields interleaved with the geodesic.

def _rk4_oracle(rhs, state, steps, project=lambda state: state):
    h = 1.0 / steps
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, state)
        k2 = rhs(t + 0.5 * h, tuple(s + 0.5 * h * k for s, k in zip(state, k1)))
        k3 = rhs(t + 0.5 * h, tuple(s + 0.5 * h * k for s, k in zip(state, k2)))
        k4 = rhs(t + h, tuple(s + h * k for s, k in zip(state, k3)))
        state = project(tuple(s + h / 6.0 * (a + 2 * b + 2 * c + e)
                              for s, a, b, c, e in zip(state, k1, k2, k3, k4)))
        t += h
        yield state


def _one_row_gamma(chart, x):
    g, dg, _ = metric_jets(chart, x, order=1)
    return _christoffels(np.linalg.inv(g), dg)[1]


def _per_stage_transport(chart, path, w0, steps, cotangent):
    def rhs(t, state):
        x, xd = path(t)
        gamma = _one_row_gamma(chart, np.asarray(x, dtype=float)[None, :])
        xd = np.asarray(xd, dtype=float)[None, :]
        if cotangent:
            return (np.einsum("nkij,ni,nk->nj", gamma, xd, state[0]),)
        return (-np.einsum("nkij,ni,nj->nk", gamma, xd, state[0]),)

    for (w,) in _rk4_oracle(rhs, (np.array(w0, dtype=float)[None, :],), steps):
        pass
    return w[0]


def _interleaved_jacobi_flow(chart, x, v, steps, jacobi):
    def rhs(t, state):
        x, v, j, jp = state
        g, dg, d2g = metric_jets(chart, x)
        gamma, dgamma = _connection_jets(np.linalg.inv(g), dg, d2g)
        jpp = (-np.einsum("nmkab,na,nb,nmc->nkc", dgamma, v, v, j)
               - 2 * np.einsum("nkab,na,nbc->nkc", gamma, v, jp))
        return v, -np.einsum("nkij,ni,nj->nk", gamma, v, v), jp, jpp

    def project(state):
        x = chart.wrap(state[0])
        assert chart.contains(x)
        return (x,) + state[1:]

    return _rk4_oracle(rhs, (x, v, np.zeros_like(jacobi), jacobi), steps, project)


def _straight_path(chart, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(chart.ranges).T
    x0 = lo + (hi - lo) * (0.4 + 0.2 * rng.random(chart.dim))
    step = 0.3 * rng.normal(size=chart.dim)
    return (lambda t: (x0 + t * step, step)), rng.normal(size=chart.dim)


@pytest.mark.parametrize("name", ["sphere4", "cp2"])
@pytest.mark.parametrize("cotangent", [False, True])
def test_parallel_transport_is_the_per_stage_loop_bitwise(name, cotangent):
    chart = build_manifold(name).atlas.charts[0]
    path, w0 = _straight_path(chart, zlib.crc32(name.encode()))
    for steps in (1, 7, 100):
        want = _per_stage_transport(chart, path, w0, steps, cotangent)
        assert np.array_equal(parallel_transport(chart, path, w0, steps, cotangent), want)


def test_parallel_transport_reads_gamma_in_one_batch(monkeypatch):
    chart = build_manifold("cp2").atlas.charts[0]
    path, w0 = _straight_path(chart, 4)
    calls = []

    def counted(chart, points):
        calls.append(len(points))
        return christoffels_at(chart, points)

    monkeypatch.setattr(geometry, "christoffels_at", counted)
    parallel_transport(chart, path, w0, steps=16)
    assert calls == [2 * 16 + 1]


# ------------------------------------------------------ normal coordinates

def test_normal_coordinates_center():
    nc = NormalCoordinates(polar_sphere(), [math.pi / 3, 1.0])
    assert nc.distance([math.pi / 3, 1.0]) == 0.0
    assert np.allclose(nc.pulled_back_metrics([[0.0, 0.0]])[0], np.eye(2), atol=1e-6)


def test_sphere_distance_matches_embedding():
    chart = polar_sphere()
    nc = NormalCoordinates(chart, [0.9, 0.8])
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = [rng.uniform(0.8, 1.4), rng.uniform(0.5, 1.2)]
        want = math.acos(float(np.clip(embed([0.9, 0.8]) @ embed(y), -1, 1)))
        assert nc.distance(y) == pytest.approx(want, abs=1e-7)


def test_sphere_normal_det_g():
    """det g = (sin r / r)^2 in sphere normal coordinates."""
    nc = NormalCoordinates(polar_sphere(), [math.pi / 2, 1.0])
    for r in (0.3, 0.6, 0.9):
        u = np.array([r / math.sqrt(2), r / math.sqrt(2)])
        want = (math.sin(r) / r) ** 2
        det_g = np.linalg.det(nc.pulled_back_metrics(u[None, :]))[0]
        assert det_g == pytest.approx(want, rel=1e-10)


def test_sphere_normal_exp_is_the_great_circle():
    """exp's step density (100 per unit radius) keeps its endpoint within
    1e-9 of the great circle (measured 3.3e-11 at r = 0.9; 2.6e-10 at 60
    steps per unit radius)."""
    x = [math.pi / 2, 1.0]
    nc = NormalCoordinates(polar_sphere(), x)
    e_theta, e_phi = np.array([0.0, 0.0, -1.0]), np.array([-math.sin(1.0), math.cos(1.0), 0.0])
    for r in (0.1, 0.3, 0.5, 0.9):
        for angle in (0.0, 0.7, 2.0):
            direction = math.cos(angle) * e_theta + math.sin(angle) * e_phi
            want = math.cos(r) * embed(x) + math.sin(r) * direction
            got = nc.exp([r * math.cos(angle), r * math.sin(angle)])
            assert np.abs(embed(got) - want).max() <= 1e-9


def test_flat_normal_coordinates_trivial():
    nc = NormalCoordinates(flat_torus(), [0.5, 0.5])
    assert np.allclose(nc.pulled_back_metrics([[0.1, 0.05]])[0], np.eye(2), atol=1e-9)
    assert nc.distance([0.62, 0.45]) == pytest.approx(math.hypot(0.12, -0.05), abs=1e-9)


def test_radial_lines_are_geodesics():
    nc = NormalCoordinates(polar_sphere(), [1.2, 0.7])
    u = np.array([0.3, 0.2])
    mid = nc.exp(u / 2)
    end = nc.exp(u)
    # chain: distance along the radial line is additive
    assert nc.distance(mid) == pytest.approx(np.linalg.norm(u) / 2, abs=1e-7)
    assert nc.distance(end) == pytest.approx(np.linalg.norm(u), abs=1e-7)


def test_scalar_normal_maps_are_batch_rows():
    nc = NormalCoordinates(bumpy_sphere(0.15), [1.2, 0.7])
    # each row takes its step count from its own radius, so rows of a
    # mixed-radius batch agree bit for bit with one-row calls
    us = np.array([[0.3, 0.0], [0.18, 0.24], [-0.4, 0.3], [0.05, -0.1], [0.0, 0.0]])
    pts = nc.exp_batch(us)
    metrics = nc.pulled_back_metrics(us)
    dets = np.linalg.det(metrics)
    for k, u in enumerate(us):
        assert np.array_equal(nc.exp(u), nc.exp_batch(u[None, :])[0])
        assert np.array_equal(nc.exp(u), pts[k])
        assert np.array_equal(nc.pulled_back_metrics(u[None, :])[0], metrics[k])
        assert np.linalg.det(nc.pulled_back_metrics(u[None, :]))[0] == dets[k]
    # shot alone and shot with a longer row (the two differed by 9.8e-12
    # when a batch took its step count from its largest radius)
    nc = NormalCoordinates(polar_sphere(), [math.pi / 2, 1.0])
    assert (np.linalg.det(nc.pulled_back_metrics([[0.5, 0.0]]))[0]
            == np.linalg.det(nc.pulled_back_metrics([[0.5, 0.0], [1.0, 0.0]]))[0])


def test_jacobi_fields_match_difference_quotients_of_exp():
    nc = NormalCoordinates(bumpy_sphere(0.3), [1.2, 0.7])
    u, fd = np.array([0.3, 0.2]), 1e-4
    dexp = nc._shoot(u[None, :], geometry._EXP_STEPS, True)[2][0]  # log's Jacobian
    pts = nc.exp_batch(u + fd * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    quotient = (pts[:2] - pts[2:]).T / (2 * fd)
    assert np.abs(dexp - quotient).max() <= 1e-9


def test_normal_det_g_deficit_is_a_third_of_gauss_curvature():
    """det g = 1 - K r^2 / 3 + O(r^3) in dimension 2 (Ric = K g)."""
    chart = bumpy_sphere(0.3)
    x = [1.2, 0.7]
    k = point_geometry(chart, x).scalar_curvature / 2
    nc = NormalCoordinates(chart, x)
    # along x1, where K varies, so the O(r^3) term halves with r
    direction = np.array([1.0, 0.0])
    gaps = [(1 - np.linalg.det(nc.pulled_back_metrics(r * direction[None, :]))[0])
            / r ** 2 / (k / 3) - 1 for r in (0.02, 0.01, 0.005)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 0.4 <= fine / coarse <= 0.6
def test_normal_radius_guard():
    nc = NormalCoordinates(flat_torus(), [0.5, 0.5], radius=0.2)
    with pytest.raises(GeometryError):
        nc.exp([0.3, 0.0])


def test_log_map_nonconvergence_reports():
    # a target beyond the safe radius cannot be reached by the clamped Newton
    nc = NormalCoordinates(polar_sphere(), [math.pi / 2, 1.0], radius=0.3)
    with pytest.raises(GeometryError):
        nc.log([math.pi / 2, 2.2])


@pytest.mark.parametrize("name", ["cp2", "sphere4"])
def test_christoffels_at_equals_batch_gamma_bitwise(name):
    chart = build_manifold(name).atlas.charts[0]
    rng = np.random.default_rng(5)
    lo, hi = np.array(chart.ranges).T
    pts = lo + (hi - lo) * (0.05 + 0.9 * rng.random((40, chart.dim)))
    want = point_geometry_batch(chart, pts).gamma
    assert np.array_equal(christoffels_at(chart, pts), want)
    for k in range(3):
        assert np.array_equal(christoffels_at(chart, pts[k:k + 1])[0], want[k])


@pytest.mark.parametrize("name", ["polar", "bumpy", "cp2"])
def test_jacobi_pass_is_the_interleaved_flow_bitwise(name, monkeypatch):
    """Jacobi fields as a second, linear pass along the finished geodesic
    give the bits of integrating them jointly with it, one row per stage."""
    if name == "cp2":
        chart, x0 = build_manifold("cp2").atlas.charts[0], [0.7, 0.8, 1.0, 2.0]
    else:
        chart, x0 = (polar_sphere() if name == "polar" else bumpy_sphere(0.3)), [1.2, 0.7]
    d = chart.dim
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    directions = rng.normal(size=(5, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # two rows share radius 0.3 (one integration of two rows), one is 0
    us = np.array([0.3, 0.3, 0.12, 0.0, 0.05])[:, None] * directions
    nc = NormalCoordinates(chart, x0)

    def shoots():
        return [*nc._shoot(us, geometry._EXP_STEPS, True),
                np.linalg.det(nc.pulled_back_metrics(us)),
                np.linalg.det(nc.pulled_back_metrics(us[:3])),
                *nc.radial_det_g(directions[:2], [0.05, 0.12, 0.3])]

    got = shoots()
    flow = geometry._geodesic_flow

    def interleaved(chart, x, v, steps, w=None, cotangent=False, jacobi=None):
        if jacobi is None:
            return flow(chart, x, v, steps, w, cotangent)
        return _interleaved_jacobi_flow(chart, x, v, steps, jacobi)

    monkeypatch.setattr(geometry, "_geodesic_flow", interleaved)
    for a, b in zip(got, shoots(), strict=True):
        assert np.array_equal(a, b)


def test_jacobi_shoot_range_check():
    chart = Chart.from_strings("box", 2, [(0, 1), (0, 1)], [False, False],
                               {(0, 0): "1 + x1^2", (1, 1): "1"})
    nc = NormalCoordinates(chart, [0.1, 0.5])
    with pytest.raises(GeometryError):
        nc.pulled_back_metrics([[-0.3, 0.0]])
