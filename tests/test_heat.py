"""Spectral traces, supertraces, asymptotics and the short-time parametrix."""

import math
import warnings

import numpy as np
import pytest

from gaussbonnet.geometry import Chart, NormalCoordinates, point_geometry
from gaussbonnet.heat import (
    FlatTorusSpectrum, RadialParametrix, RoundSphereSpectrum, asymptotic_fit,
    parametrix_kernel, parametrix_u0, parametrix_u1, parametrix_u1_diag,
    spectral_kernel_s2, supertrace_fit, supertrace_heat, torus_image_kernel,
)


def polar_sphere(radius=1.0):
    return Chart.from_strings(
        "polar", 2, [(0, math.pi), (0, 2 * math.pi)], [False, True],
        {(0, 0): "r^2", (1, 1): "r^2*sin(x1)^2"}, params={"r": radius})


def flat_torus_chart():
    return Chart.from_strings("flat", 2, [(0, 1), (0, 1)], [True, True],
                              {(0, 0): "1", (1, 1): "1"})


# ---------------------------------------------------------------- spectra

def test_torus_trace_direct_summation():
    model = FlatTorusSpectrum((1.0,))
    direct = sum(math.exp(-4 * math.pi ** 2 * m * m) for m in range(-80, 81))
    assert model.heat_trace(0, 1.0).value == pytest.approx(direct, abs=1e-15)


def test_sphere_trace_direct_summation():
    model = RoundSphereSpectrum(1.0)
    direct = sum((2 * l + 1) * math.exp(-l * (l + 1) * 0.5) for l in range(300))
    got = model.heat_trace(0, 0.5, tail_tol=1e-12)
    assert got.value == pytest.approx(direct, abs=1e-12)
    assert got.tail_bound < 1e-12


def test_long_time_limit_is_kernel_dimension():
    t2 = FlatTorusSpectrum((1.0, 1.0))
    for p, dim in [(0, 1), (1, 2), (2, 1)]:
        assert t2.heat_trace(p, 60.0).value == pytest.approx(dim, abs=1e-12)
        assert t2.kernel_dim(p) == dim
    s2 = RoundSphereSpectrum(1.0)
    for p, dim in [(0, 1), (1, 0), (2, 1)]:
        assert s2.heat_trace(p, 60.0).value == pytest.approx(dim, abs=1e-12)


def test_positive_time_required():
    with pytest.raises(ValueError):
        FlatTorusSpectrum((1.0,)).heat_trace(0, 0.0)
    with pytest.raises(ValueError):
        RoundSphereSpectrum().heat_trace(0, -1.0)


def test_hodge_duality_identical_enumerators():
    s2 = RoundSphereSpectrum(1.0)
    for t in (0.05, 0.3, 1.7):
        assert s2.heat_trace(0, t).value == s2.heat_trace(2, t).value  # bitwise


# ------------------------------------------ grid-discretization oracles

def _circulant_laplacian_1d(n, length):
    """Fourth-order periodic finite-difference Laplacian eigenvalues."""
    h = length / n
    main = 5.0 / 2.0
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = main
        for off, c in ((1, -4.0 / 3.0), (2, 1.0 / 12.0)):
            mat[i, (i + off) % n] += c
            mat[i, (i - off) % n] += c
    return np.linalg.eigvalsh(mat / h ** 2)


def test_torus_spectrum_against_grid_discretization():
    """Lattice-mode eigenvalues from a dense grid Laplacian, d = 1 and 2.

    p-form multiplicities are C(d, p) copies of the scalar spectrum on a
    flat torus, so the scalar check pins the enumerators.
    """
    evs = _circulant_laplacian_1d(256, 1.0)
    for m in (1, 2, 3):
        lam = 4 * math.pi ** 2 * m * m
        close = np.sort(np.abs(evs - lam))[:2]
        assert np.all(close < 1e-3 * lam)  # doubly degenerate, both found
    # d = 2: kron-sum structure of the discretized operator
    evs2 = np.sort(np.add.outer(evs, evs).reshape(-1))
    for mx, my, mult in [(1, 0, 4), (1, 1, 4)]:
        lam = 4 * math.pi ** 2 * (mx * mx + my * my)
        close = np.abs(evs2 - lam) < 1e-3 * lam
        assert close.sum() >= mult


def test_sphere_spectrum_against_grid_discretization():
    """Associated-Legendre sector matrices reproduce l(l+1), l <= 3."""
    n = 900
    h = math.pi / n
    theta = (np.arange(n) + 0.5) * h
    sin_t = np.sin(theta)
    sin_half = np.sin(np.arange(1, n) * h)  # flux points, zero at both poles
    found = {}
    for m in range(4):
        lower = -sin_half / np.sqrt(sin_t[:-1] * sin_t[1:]) / h ** 2
        diag = np.zeros(n)
        diag[:-1] += sin_half / sin_t[:-1] / h ** 2
        diag[1:] += sin_half / sin_t[1:] / h ** 2
        diag += m * m / sin_t ** 2
        mat = np.diag(diag) + np.diag(lower, 1) + np.diag(lower, -1)
        evs = np.sort(np.linalg.eigvalsh(mat))
        found[m] = evs[:6]
    for l in range(4):
        lam = l * (l + 1)
        for m in range(l + 1):
            idx = l - m
            assert found[m][idx] == pytest.approx(lam, abs=2e-3 * max(lam, 1.0))


# ------------------------------------------------------------ supertraces

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_flat_torus_supertrace_vanishes(d):
    model = FlatTorusSpectrum((1.0,) * d)
    for t in (0.05, 0.3, 1.0, 2.0):
        assert abs(supertrace_heat(model, t).value) < 1e-14


def test_sphere_supertrace_is_two():
    model = RoundSphereSpectrum(1.0)
    values = []
    for t in np.linspace(0.05, 2.0, 20):
        st = supertrace_heat(model, t, tail_tol=1e-12)
        assert abs(st.value - 2.0) <= max(st.tail_bound, 1e-12)
        assert st.tail_bound <= 1e-10
        values.append(st.value)
    assert max(values) - min(values) < 1e-10


def test_sphere_supertrace_fit_constant():
    fit = supertrace_fit(RoundSphereSpectrum(1.0), np.linspace(0.02, 0.18, 12))
    assert fit.a0 == pytest.approx(2.0, abs=1e-8)
    assert np.abs(fit.coefficients[1:]).max() < 1e-8


# ------------------------------------------------------------- asymptotics

def test_sphere_heat_coefficients():
    fit = asymptotic_fit(RoundSphereSpectrum(1.0), 0, np.linspace(0.02, 0.18, 12))
    assert fit.a0 == pytest.approx(4 * math.pi, rel=0.01)       # area
    assert fit.a1 == pytest.approx(4 * math.pi / 3, rel=0.02)   # integral of R/6


def test_torus_heat_coefficients():
    fit = asymptotic_fit(FlatTorusSpectrum((1.0, 1.0)), 0,
                         np.linspace(0.002, 0.01, 8))
    assert fit.a0 == pytest.approx(1.0, abs=1e-6)
    assert abs(fit.a1) < 1e-6


def test_fit_guards():
    with pytest.raises(ValueError):
        asymptotic_fit(RoundSphereSpectrum(1.0), 0, [0.05, 0.1])  # too few
    with pytest.raises(ValueError):
        asymptotic_fit(RoundSphereSpectrum(1.0), 0, np.linspace(0.1, 0.6, 8))


# -------------------------------------------------------------- parametrix

def test_u0_initial_condition():
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    assert parametrix_u0(chart, x, x) == 1.0


def test_u0_sphere_closed_form():
    """u0 = (r / sin r)^{1/2} on the unit sphere."""
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    nc = NormalCoordinates(chart, x)
    for r in (0.3, 0.5):
        y = nc.exp([r, 0.0])
        assert parametrix_u0(chart, x, y) == pytest.approx(
            (r / math.sin(r)) ** 0.5, abs=1e-5)


def test_u0_flat_torus_identically_one():
    chart = flat_torus_chart()
    x = [0.5, 0.5]
    for delta in ([0.1, 0.0], [0.07, -0.12]):
        y = [x[0] + delta[0], x[1] + delta[1]]
        assert parametrix_u0(chart, x, y) == pytest.approx(1.0, abs=1e-9)


def test_u0_radial_transport_residual():
    """g^{1/4} u0 is constant along radial geodesics (the order-0 equation)."""
    nc = NormalCoordinates(polar_sphere(), [math.pi / 2, 1.0])
    rp = RadialParametrix(nc, [[0.6, 0.8]], (0.6, 0.3))
    values = rp.det_g ** 0.25 * rp.u0
    assert np.abs(values - 1.0).max() < 1e-6


@pytest.mark.parametrize("x", [[math.pi / 2, 1.0], [1.1, 0.4]])
def test_radial_record_rays_are_independent_bitwise(x):
    """Row i of a two-ray record is the one-ray record along ray i."""
    nc = NormalCoordinates(polar_sphere(), x)
    both = RadialParametrix(nc, np.eye(2), (0.15, 0.075))
    both_jacobi = nc.radial_det_g(np.eye(2), both.s)
    for i, direction in enumerate(np.eye(2)):
        one = RadialParametrix(nc, [direction], (0.15, 0.075))
        for a, b in zip(both_jacobi, nc.radial_det_g([direction], both.s), strict=True):
            assert np.array_equal(a[i], b[0])
        assert np.array_equal(both.det_g[i], one.det_g[0])
        assert np.array_equal(both.u0[i], one.u0[0])
        assert np.array_equal(both.u1[i], one.u1[0])


def test_one_log_solve_and_one_shoot_per_call(monkeypatch):
    calls = {"log": 0, "radial_det_g": 0}
    for name in calls:
        method = getattr(NormalCoordinates, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(NormalCoordinates, name, counted)
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    y = NormalCoordinates(chart, x).exp([0.3, 0.2])
    for n_terms, z, shoots in ((1, y, 1), (0, y, 1), (1, x, 1), (0, x, 0)):
        calls.update(log=0, radial_det_g=0)
        parametrix_kernel(chart, n_terms, 0.01, x, z)
        assert calls == {"log": 1, "radial_det_g": shoots}
    calls.update(log=0, radial_det_g=0)
    parametrix_u1_diag(chart, x)
    assert calls == {"log": 0, "radial_det_g": 1}


def test_u1_diagonal_values():
    assert parametrix_u1_diag(flat_torus_chart(), [0.5, 0.5]) == pytest.approx(
        0.0, abs=1e-6)
    # Richardson on u1(r) = u1(0) + c r^2 + O(r^4): measured 3.9e-7 and 6.1e-9
    got = parametrix_u1_diag(polar_sphere(), [math.pi / 2, 1.0])
    assert got == pytest.approx(1.0 / 3.0, abs=1e-5)  # R/6 with R = 2
    got = parametrix_u1_diag(polar_sphere(2.0), [math.pi / 2, 1.0])
    assert got == pytest.approx(1.0 / 12.0, abs=1e-5)  # R = 2/r^2 scaling


def test_u1_diag_matches_scalar_curvature_over_six():
    chart = polar_sphere()
    x = [1.1, 0.4]
    want = point_geometry(chart, x).scalar_curvature / 6.0
    assert parametrix_u1_diag(chart, x) == pytest.approx(want, abs=1e-5)


def test_torus_kernel_nearest_image():
    """H_0 is the nearest-image Gaussian; the rest is the image tail."""
    t = 0.02
    x, y = [0.3, 0.4], [0.42, 0.47]
    h0 = parametrix_kernel(flat_torus_chart(), 0, t, x, y)
    nearest = math.exp(-(0.12 ** 2 + 0.07 ** 2) / (4 * t)) / (4 * math.pi * t)
    assert h0 == pytest.approx(nearest, rel=1e-8)
    spectral = torus_image_kernel((1.0, 1.0), t, x, y)
    assert abs(spectral - h0) < math.exp(-1 / (8 * t))


def test_sphere_kernel_short_time_expansion():
    """4 pi t K(t, x, x) = 1 + t/3 + O(t^2) on the unit sphere."""
    t = 0.05
    val = spectral_kernel_s2(t, 0.0) * 4 * math.pi * t
    assert val == pytest.approx(1 + t / 3, rel=0.02)


def test_parametrix_vs_spectral_kernel():
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    nc = NormalCoordinates(chart, x)
    y = nc.exp([0.5, 0.0])
    errors = {}
    for t in (0.02, 0.01, 0.005):
        h1 = parametrix_kernel(chart, 1, t, x, y)
        k = spectral_kernel_s2(t, 0.5)
        errors[t] = abs(h1 / k - 1.0)
    assert errors[0.01] < 0.05
    assert errors[0.005] < errors[0.01] < errors[0.02]


def test_parametrix_error_is_second_order_in_t():
    """The first-order parametrix has relative error O(t^2) at fixed r, so
    each halving of t divides it by about 4 (measured 3.995 and 3.999 at
    r = 0.5); a wrong transport term leaves a first-order part and a ratio
    near 2."""
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    y = NormalCoordinates(chart, x).exp([0.5, 0.0])
    errors = [abs(parametrix_kernel(chart, 1, t, x, y) / spectral_kernel_s2(t, 0.5) - 1.0)
              for t in (0.02, 0.01, 0.005)]
    assert errors[1] < 1e-4  # measured 6.7e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.7


def _sphere_u1_closed_form(r, nodes=40):
    """u1 on the unit sphere at geodesic distance r, from
    u1(r) = -(u0(r) / r) int_0^r u0^-1 Delta u0 ds with u0 = (s / sin s)^{1/2}
    and, for radial f, Delta f = -(f'' + cot s f'), so that with
    p = log u0: u0^-1 Delta u0 = -(p'' + p'^2 + cot s p').  Gauss-Legendre
    on (0, r), analytic derivatives."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    s, w = 0.5 * r * (s + 1.0), 0.5 * r * w
    p1 = 0.5 * (1.0 / s - 1.0 / np.tan(s))
    p2 = 0.5 * (1.0 / np.sin(s) ** 2 - 1.0 / s ** 2)
    integral = float(w @ -(p2 + p1 * p1 + p1 / np.tan(s)))
    return -math.sqrt(r / math.sin(r)) / r * integral


def test_u1_matches_the_unit_sphere_closed_form():
    want = _sphere_u1_closed_form(0.5)
    assert want == pytest.approx(0.3418636854, abs=1e-9)
    assert _sphere_u1_closed_form(0.5, nodes=20) == pytest.approx(want, rel=1e-13)
    assert _sphere_u1_closed_form(math.hypot(0.3, 0.2)) == pytest.approx(
        0.33771930837, abs=1e-10)
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    nc = NormalCoordinates(chart, x)
    # measured 5.2e-9, 2.6e-10 and 1.3e-9 relative: the record's 32 RK4
    # steps; at r = 1 its 64 steps give 1.8e-8, where 32 would give 2.8e-7
    for u in ([0.5, 0.0], [0.15, 0.0], [0.3, 0.2], [1.0, 0.0]):
        want = _sphere_u1_closed_form(math.hypot(*u))
        assert parametrix_u1(chart, x, nc.exp(u)) == pytest.approx(want, rel=1e-7)


def test_parametrix_order_guard():
    with pytest.raises(ValueError):
        parametrix_kernel(flat_torus_chart(), 2, 0.01, [0.5, 0.5], [0.6, 0.5])


def test_parametrix_kernel_is_its_terms_bitwise():
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    nc = NormalCoordinates(chart, x)
    y = nc.exp([0.3, 0.2])
    r = nc.distance(y)
    u0, u1 = parametrix_u0(chart, x, y), parametrix_u1(chart, x, y)
    for t in (0.02, 0.005):
        want = (4 * math.pi * t) ** -1 * math.exp(-r * r / (4 * t)) * (u0 + t * u1)
        assert parametrix_kernel(chart, 1, t, x, y) == want


def test_parametrix_on_the_diagonal():
    """At r = 0, u1 is its diagonal limit and H_1 = (1 + t u1) / (4 pi t)."""
    chart = polar_sphere()
    x = [math.pi / 2, 1.0]
    u1 = parametrix_u1_diag(chart, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parametrix_u1(chart, x, x) == u1
        for t in (0.02, 0.01, 0.005):
            h1 = parametrix_kernel(chart, 1, t, x, x)
            assert h1 == (4 * math.pi * t) ** -1 * (1.0 + t * u1)
            assert h1 == pytest.approx(spectral_kernel_s2(t, 0.0), rel=1e-4)
