"""Curvature integrand (both routes) and chi-recovery on built-in spaces."""

import itertools
import math
import zlib

import numpy as np
import pytest

from gaussbonnet import gbc
from gaussbonnet.exterior import perm_sign
from gaussbonnet.gbc import (
    gb_density_aw_batch, gb_density_pfaffian_batch, gb_density_pfaffian_reference, verify_gbc,
)
from gaussbonnet.geometry import Atlas, Chart, point_geometry_batch
from gaussbonnet.library import build_manifold
from gaussbonnet.quadrature import chart_nodes, integrate_atlas
from gaussbonnet.specfile import load_manifold_spec


def interior_points(rng, chart, n):
    cols = []
    for (lo, hi), per in zip(chart.ranges, chart.periodic):
        pad = 0.0 if per else 0.15 * (hi - lo)
        cols.append(rng.uniform(lo + pad, hi - pad, n))
    return np.column_stack(cols)


def test_unit_sphere_density_calibration():
    """The frozen sign convention: the unit 2-sphere Euler form is
    +1/(2 pi) dvol, so its dtheta ^ dphi coefficient is sin(theta)/(2 pi)."""
    chart = build_manifold("sphere2").atlas.charts[0]
    rng = np.random.default_rng(0)
    for x in interior_points(rng, chart, 8):
        want = math.sin(x[0]) / (2 * math.pi)
        assert gb_density_pfaffian_batch(chart, x[None, :])[0] == pytest.approx(want, rel=1e-10)
        assert gb_density_aw_batch(chart, x[None, :])[0] == pytest.approx(want, rel=1e-10)


def test_flat_density_zero():
    chart = build_manifold("torus2").atlas.charts[0]
    assert gb_density_pfaffian_batch(chart, [[0.3, 0.4]])[0] == 0.0
    assert gb_density_aw_batch(chart, [[0.3, 0.4]])[0] == 0.0


def test_radius_two_sphere4_density_constant():
    chart = build_manifold("sphere4", radius=2.0).atlas.charts[0]
    rng = np.random.default_rng(1)
    pts = interior_points(rng, chart, 12)
    # the frame value: the Euler form against the Riemannian volume
    vals = gb_density_pfaffian_batch(chart, pts) / point_geometry_batch(chart, pts).sqrt_det_g
    assert np.ptp(vals) < 1e-12 * abs(vals[0])
    # its integral must give chi = 2 (quadrature oracle below)
    atlas = build_manifold("sphere4", radius=2.0).atlas
    res = verify_gbc(atlas, resolution=10)
    assert res.integral == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_cp2_frame_density_constant_at_gauss_nodes(n):
    """Fubini-Study CP^2 is homogeneous: the frame value of its Euler form
    is chi / volume = 3 / (pi^2 / 2) = 6 / pi^2 at every node of the n^4
    Gauss grid, the nodes nearest the chart edges included (evaluated in
    chunks of 4096)."""
    chart = build_manifold("cp2").atlas.charts[0]
    nodes, _ = chart_nodes(chart, [n] * 4)
    for lo in range(0, len(nodes), 4096):
        pts = nodes[lo:lo + 4096]
        vals = gb_density_pfaffian_batch(chart, pts) / point_geometry_batch(chart, pts).sqrt_det_g
        assert np.abs(vals - 6 / math.pi ** 2).max() < 1e-6


@pytest.mark.parametrize("name", ["sphere2", "bumpy_sphere", "sphere4", "s2xs2"])
def test_pfaffian_aw_pointwise_agreement(name):
    manifold = build_manifold(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for chart in manifold.atlas.charts:
        for x in interior_points(rng, chart, 50):
            pf = gb_density_pfaffian_batch(chart, x[None, :])[0]
            aw = gb_density_aw_batch(chart, x[None, :])[0]
            # 1e-9 (1 + |pf|) on the frame values, both scaled by sqrt(det g)
            sqrt_det_g = point_geometry_batch(chart, x[None, :]).sqrt_det_g[0]
            assert abs(pf - aw) < 1e-9 * (sqrt_det_g + abs(pf))


def test_pfaffian_aw_agreement_in_dimension_six():
    """A bumpy S^2 x S^2 x squashed S^2 chart: at d = 6 the Pfaffian is cubic
    in the curvature and the aw constant carries (d/2)! = 6, not d/2 = 3."""
    bump = "exp(0.6*cos(x1))"
    chart = Chart.from_strings(
        "product", 6, [(0.0, math.pi), (0.0, 2 * math.pi)] * 3, [False, True] * 3,
        {(0, 0): bump, (1, 1): f"{bump}*sin(x1)^2", (2, 2): "1", (3, 3): "sin(x3)^2",
         (4, 4): "1 + 0.3*sin(x5)^2", (5, 5): "sin(x5)^2"})
    pts = interior_points(np.random.default_rng(6), chart, 8)
    pf = gb_density_pfaffian_batch(chart, pts)
    aw = gb_density_aw_batch(chart, pts)
    sqrt_det_g = point_geometry_batch(chart, pts).sqrt_det_g
    assert np.all(np.abs(pf - aw) < 1e-12 * (sqrt_det_g + np.abs(pf)))


@pytest.mark.parametrize("name", ["sphere2", "bumpy_sphere", "sphere4", "cp2"])
def test_batch_pfaffian_matches_form_algebra(name):
    """The vectorized expansion agrees with the generic FormElement Pfaffian."""
    manifold = build_manifold(name)
    chart = manifold.atlas.charts[0]
    rng = np.random.default_rng(7)
    for x in interior_points(rng, chart, 6):
        fast = gb_density_pfaffian_batch(chart, x[None, :])[0]
        slow = gb_density_pfaffian_reference(chart, x)
        assert fast == pytest.approx(slow, rel=1e-11, abs=1e-14)


def test_verify_gbc_sphere2():
    res = verify_gbc(build_manifold("sphere2").atlas, resolution=64)
    assert abs(res.integral - 2) < 1e-6


def test_verify_gbc_torus2():
    res = verify_gbc(build_manifold("torus2").atlas, resolution=8)
    assert abs(res.integral) < 1e-12


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_metric_independence_bumpy_sphere(eps):
    """Same topological value under a conformal change of metric."""
    res = verify_gbc(build_manifold("bumpy_sphere", eps=eps).atlas, resolution=96)
    assert res.integral == pytest.approx(2.0, abs=1e-4)


def test_s2xs2_product():
    res = verify_gbc(build_manifold("s2xs2").atlas, resolution=10)
    assert res.integral == pytest.approx(4.0, abs=1e-3)


def test_isometry_invariance_shifted_phi():
    base = verify_gbc(build_manifold("sphere2").atlas, resolution=48).integral
    shifted_chart = Chart.from_strings(
        "polar", 2, [(0.0, math.pi), (1.0, 1.0 + 2 * math.pi)], [False, True],
        {(0, 0): "1", (1, 1): "sin(x1)^2"})
    shifted = verify_gbc(Atlas((shifted_chart,)), resolution=48)
    assert shifted.integral == pytest.approx(base, abs=1e-9)


def test_odd_dimension_rejected():
    chart = Chart.from_strings("odd", 3, [(0, 1)] * 3, [True] * 3,
                               {(i, i): "1" for i in range(3)})
    with pytest.raises(ValueError):
        verify_gbc(Atlas((chart,)), resolution=4)
    with pytest.raises(ValueError):
        gb_density_pfaffian_batch(chart, [[0.5, 0.5, 0.5]])


def test_convergence_table_recorded():
    res = verify_gbc(build_manifold("sphere2").atlas, resolution=32,
                     extrapolate=True)
    assert len(res.resolutions) == 3
    assert res.error_estimate is not None
    assert [n for n, _ in res.resolutions] == sorted(n for n, _ in res.resolutions)


@pytest.mark.parametrize("name, res", [
    ("sphere4", 4), ("sphere4", 5), ("sphere4", 8), ("sphere4", 12),
    ("cp2", 20), ("s2xs2", 24), ("sphere2", 2),
])
def test_error_estimate_bounds_finest_level(name, res):
    """The ladder reports its finest level, and error_estimate bounds its
    actual distance from chi (metadata, never computed by the pipeline)."""
    manifold = build_manifold(name)
    result = verify_gbc(manifold.atlas, resolution=res, extrapolate=True)
    assert len(result.resolutions) >= 2
    assert result.integral == result.resolutions[-1][1]
    assert result.error_estimate >= abs(result.integral - manifold.expected_chi)


def _aw_density_loop(chart, points):
    """The double permutation sum written out as a loop over (s1, s2)."""
    d = chart.dim
    perms = list(itertools.permutations(range(d)))
    geo = point_geometry_batch(chart, points)
    rf = geo.riemann_frame
    total = np.zeros(len(points))
    for s1 in perms:
        for s2 in perms:
            prod = rf[:, s1[0], s1[1], s2[0], s2[1]].copy()
            for m in range(1, d // 2):
                prod *= rf[:, s1[2 * m], s1[2 * m + 1], s2[2 * m], s2[2 * m + 1]]
            total += (perm_sign(s1) * perm_sign(s2)) * prod
    const = (2 * math.pi) ** (-d / 2) / (2 ** d * math.factorial(d // 2))
    return gbc.CALIBRATED_SIGN * const * total * geo.sqrt_det_g


@pytest.mark.parametrize("name", ["sphere2", "torus2", "sphere4", "s2xs2", "cp2"])
def test_aw_batch_matches_permutation_loop(name):
    chart = build_manifold(name).atlas.charts[0]
    pts = interior_points(np.random.default_rng(3), chart, 200)
    got = gb_density_aw_batch(chart, pts)
    want = _aw_density_loop(chart, pts)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # same bits


# ------------------------------------- integration over the chart support

@pytest.mark.parametrize("name, res", [
    ("sphere4", 8), ("s2xs2", 10), ("cp2", 10), ("sphere2", 32), ("bumpy_sphere", 32),
])
def test_collapsed_ladder_matches_full_grid(name, res):
    """The full tensor grid is the oracle for every collapsed ladder value."""
    atlas = build_manifold(name).atlas
    result = verify_gbc(atlas, resolution=res, extrapolate=True)
    assert len(result.resolutions) == 3
    for n, value in result.resolutions:
        full = integrate_atlas(atlas, gb_density_pfaffian_batch, n, axes=None)
        assert abs(value - full) <= 1e-13 * abs(full), (n, value, full)


@pytest.mark.parametrize("name", ["sphere4", "cp2"])
def test_collapsed_result_deterministic(name, monkeypatch):
    atlas = build_manifold(name).atlas
    a = verify_gbc(atlas, resolution=8, extrapolate=True, chunk=50)
    b = verify_gbc(atlas, resolution=8, extrapolate=True, chunk=10 ** 6)
    monkeypatch.setenv("GBC_THREADS", "2")
    c = verify_gbc(atlas, resolution=8, extrapolate=True, chunk=50)
    assert a.resolutions == b.resolutions == c.resolutions  # bitwise
    assert a.integral == b.integral == c.integral


def _counting_density(monkeypatch):
    rows = []
    inner = gbc.gb_density_pfaffian_batch

    def density(chart, points):
        rows.append(len(points))
        return inner(chart, points)

    monkeypatch.setattr(gbc, "gb_density_pfaffian_batch", density)
    return rows


def _spec_chart(tmp_path, g11, g22):
    path = tmp_path / "t.mspec"
    path.write_text("schema: 1\nname: t\ndim: 2\nexpected_chi: 0\n"
                    "chart c:\n  range x1: 0 2*pi periodic\n"
                    "  range x2: 0 2*pi periodic\n"
                    f"  g 1 1: {g11}\n  g 2 2: {g22}\nend\n")
    return load_manifold_spec(str(path)).manifold.atlas


def test_spec_metric_reading_every_axis_uses_full_grid(tmp_path, monkeypatch):
    atlas = _spec_chart(tmp_path, "exp(0.2*sin(x2))", "exp(0.2*cos(x1))")
    assert atlas.charts[0].support == {0, 1}
    rows = _counting_density(monkeypatch)
    res = verify_gbc(atlas, resolution=12)
    assert sum(rows) == 12 ** 2
    assert res.integral == pytest.approx(0.0, abs=1e-10)


def test_spec_metric_missing_an_axis_is_collapsed(tmp_path, monkeypatch):
    atlas = _spec_chart(tmp_path, "1", "(2 + cos(x1))^2")  # torus of revolution
    assert atlas.charts[0].support == {0}
    rows = _counting_density(monkeypatch)
    res = verify_gbc(atlas, resolution=12)
    assert sum(rows) == 12
    assert res.integral == pytest.approx(0.0, abs=1e-10)
