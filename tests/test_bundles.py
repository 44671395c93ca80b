"""Plane-bundle Euler numbers: transition route vs connection route."""

import dataclasses
import math

import numpy as np
import pytest

from gaussbonnet.bundles import (
    PlaneBundle, connection_form, curvature_density_batch, euler_form_transition_batch,
    generalized_gbc, make_plane_bundle, winding_of_phi,
)
from gaussbonnet.expr import BinOp, Num, eval_jet
from gaussbonnet.geometry import Atlas, metric_jets
from gaussbonnet.library import stereo_pair_atlas
from gaussbonnet.mq import mq_zero_section_density
from gaussbonnet.quadrature import integrate_chart


def annulus_points(rng, n, lo=0.7, hi=1.4):
    r = rng.uniform(lo, hi, n)
    th = rng.uniform(0, 2 * math.pi, n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def to_south(pts):
    """The atlas's north-to-south transition: images and Jacobians."""
    return stereo_pair_atlas().transition("north", "south", pts, 1)


def overlap_jacobian_closed_form(x):
    """Jacobian of w~ = 1/w at north-chart points (N, 2): multiplication by
    the complex derivative -1/w^2, written out as the transition's oracle."""
    a, b = x[:, 0], x[:, 1]
    r2 = a * a + b * b
    return np.stack([np.stack([b * b - a * a, -2 * a * b], -1),
                     np.stack([2 * a * b, b * b - a * a], -1)], 1) / r2[:, None, None] ** 2


def sqrt_det_g(chart, pts):
    """The Riemannian volume form's coefficient: integrates to the area."""
    return np.sqrt(np.linalg.det(metric_jets(chart, pts, order=0)[0]))


@pytest.mark.parametrize("sharpness", [0, -3])
def test_nonpositive_sharpness_rejected(sharpness):
    """rho = 1/(1 + r^(2s)) must decay inside the chart box."""
    with pytest.raises(ValueError, match="sharpness"):
        stereo_pair_atlas(sharpness=sharpness)
    with pytest.raises(ValueError, match="sharpness"):
        make_plane_bundle(2, sharpness=sharpness)


def test_partition_of_unity_exact():
    b = make_plane_bundle(2)
    rng = np.random.default_rng(0)
    pts = annulus_points(rng, 50, 0.3, 2.5)
    rho_n = b.atlas.chart("north").weight_values(pts)
    rho_s = b.atlas.chart("south").weight_values(to_south(pts)[0])
    assert np.abs(rho_n + rho_s - 1.0).max() < 1e-12
    assert np.all((0 <= rho_n) & (rho_n <= 1))


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3, 360, 400, 720, -500,
                               6000, -6000, 100000])
def test_winding_matches_clutching_degree(k):
    # the clutching degree integrates d phi / d theta = k from phi's 1-jet,
    # so no turning rate is too fast; the largest k are judged relative to k
    expected = (pytest.approx(k, abs=1e-12) if abs(k) <= 720
                else pytest.approx(k, rel=1e-12))
    assert winding_of_phi(make_plane_bundle(k)) == expected


def test_trivial_bundle_flat():
    b = make_plane_bundle(0)
    rng = np.random.default_rng(1)
    pts = annulus_points(rng, 20, 0.2, 2.8)
    assert np.abs(euler_form_transition_batch(b, "north", pts)).max() == 0.0
    theta = connection_form(b, "north")(pts)
    assert np.abs(theta).max() == 0.0
    res = generalized_gbc(b, resolution=48)
    assert res.pf_integral == res.transition_integral == 0.0


def test_k1_integral_is_plus_one():
    """Counterclockwise k = 1 integrates to +1 (orientation pin)."""
    res = generalized_gbc(make_plane_bundle(1), resolution=96)
    assert res.transition_integral == pytest.approx(1.0, abs=1e-6)
    assert res.pf_integral == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("k", [-2, -1, 1, 2, 3])
def test_both_integrals_equal_k(k):
    res = generalized_gbc(make_plane_bundle(k), resolution=96)
    assert res.pf_integral == pytest.approx(k, abs=1e-5)
    assert res.transition_integral == pytest.approx(k, abs=1e-5)


def test_overlap_form_agreement():
    """The transition 2-form is global: the south coefficient pulls back to
    the north one through the orientation-preserving overlap map."""
    b = make_plane_bundle(2)
    rng = np.random.default_rng(2)
    pts = annulus_points(rng, 40)
    pts_s, jac = to_south(pts)
    en = euler_form_transition_batch(b, "north", pts)
    es = euler_form_transition_batch(b, "south", pts_s)
    assert es * np.linalg.det(jac) == pytest.approx(en, rel=1e-9, abs=1e-12)


def test_connection_compatibility():
    """theta_alpha = d phi_gamma,alpha + theta_gamma on the overlap."""
    b = make_plane_bundle(3)
    rng = np.random.default_rng(3)
    pts = annulus_points(rng, 100)
    pts_s, jac = to_south(pts)
    tn = connection_form(b, "north")(pts)
    ts = connection_form(b, "south")(pts_s)
    pulled = np.einsum("nji,nj->ni", jac, ts)  # 1-form pullback to north coords
    dphi_sn = -eval_jet(b.phi, pts, order=1).grad
    assert np.linalg.norm(tn - (dphi_sn + pulled), axis=1).max() < 1e-10


def test_curvature_globality():
    """d theta_north = d theta_south on overlaps (d^2 phi = 0)."""
    b = make_plane_bundle(3)
    rng = np.random.default_rng(4)
    pts = annulus_points(rng, 40)
    pts_s, jac = to_south(pts)
    cn = curvature_density_batch(b, "north", pts)
    cs = curvature_density_batch(b, "south", pts_s)
    assert cs * np.linalg.det(jac) == pytest.approx(cn, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_euler_coefficients_read_no_metric(k):
    """The Euler forms are built from the clutching data alone: on a base
    whose conformal factor is scaled by 4, every dx1 ^ dx2 coefficient keeps
    its bits."""
    atlas = stereo_pair_atlas()
    scaled = Atlas(tuple(dataclasses.replace(c, metric={ij: BinOp("*", Num(4.0), e)
                                                        for ij, e in c.metric.items()})
                         for c in atlas.charts), atlas.identifications)
    b, b4 = PlaneBundle(k, atlas), PlaneBundle(k, scaled)
    pts = annulus_points(np.random.default_rng(7), 30, 0.2, 2.8)
    for name in ("north", "south"):
        assert not np.array_equal(metric_jets(b.atlas.chart(name), pts, order=0)[0],
                                  metric_jets(b4.atlas.chart(name), pts, order=0)[0])
        for density in (euler_form_transition_batch, curvature_density_batch,
                        mq_zero_section_density):
            assert density(b, name, pts).tobytes() == density(b4, name, pts).tobytes()


def test_partition_profile_independence():
    """Two bump profiles give the same integrals (class invariance)."""
    a = generalized_gbc(make_plane_bundle(2, sharpness=6), resolution=128)
    b = generalized_gbc(make_plane_bundle(2, sharpness=10), resolution=160)
    assert a.transition_integral == pytest.approx(b.transition_integral, abs=2e-5)
    assert a.pf_integral == pytest.approx(b.pf_integral, abs=2e-5)


def test_chart_swap_symmetry():
    """Listing the south chart first relabels nothing: phi reads k theta in
    either chart, so the chart order is the one relabeling left, and it
    does not move the integrals."""
    b = make_plane_bundle(2)
    swapped = PlaneBundle(2, Atlas(b.atlas.charts[::-1], b.atlas.identifications))
    assert [c.name for c in swapped.atlas.charts] == ["south", "north"]
    ra = generalized_gbc(b, resolution=96)
    rb = generalized_gbc(swapped, resolution=96)
    assert rb.transition_integral == pytest.approx(ra.transition_integral, abs=1e-9)
    assert rb.pf_integral == pytest.approx(ra.pf_integral, abs=1e-9)


def test_section_degree_matches_bundle_integral():
    """k = 2: section degree sum equals both curvature integrals."""
    from gaussbonnet.index import index_sum
    from gaussbonnet.library import build_field
    res = generalized_gbc(make_plane_bundle(2), resolution=96)
    deg = index_sum(build_field("section_zk", k=2), scan_resolution=32)
    assert deg.total == 2
    assert res.pf_integral == pytest.approx(deg.total, abs=1e-5)
    assert res.transition_integral == pytest.approx(deg.total, abs=1e-5)


def test_weighted_sphere_area():
    """Two-chart weighted atlas recovers the round area."""
    b = make_plane_bundle(0)
    total = sum(integrate_chart(b.atlas.chart(n), sqrt_det_g, 96)
                for n in ("north", "south"))
    assert total == pytest.approx(4 * math.pi, abs=1e-6)


def test_weight_violation_detected():
    """Scaled weights break the partition and visibly shift the area."""
    from gaussbonnet.geometry import Chart
    conf = "4/(1+x1^2+x2^2)^2"
    bad_weight = "0.6/(1+(x1^2+x2^2)^6)"  # rho_n + rho_s = 0.6 < 1
    mk = lambda name: Chart.from_strings(
        name, 2, [(-3.0, 3.0), (-3.0, 3.0)], [False, False],
        {(0, 0): conf, (1, 1): conf}, weight=bad_weight)
    total = sum(integrate_chart(mk(n), sqrt_det_g, 64) for n in ("north", "south"))
    assert abs(total - 4 * math.pi) > 1.0
    # and the invariant check flags it
    rng = np.random.default_rng(5)
    pts = annulus_points(rng, 20)
    wn = mk("north").weight_values(pts)
    ws = mk("south").weight_values(to_south(pts)[0])
    assert np.abs(wn + ws - 1.0).max() > 0.1


def test_overlap_maps_mutually_inverse():
    atlas = stereo_pair_atlas()
    pts = annulus_points(np.random.default_rng(6), 30, 0.3, 2.5)
    back = atlas.transition("south", "north", atlas.transition("north", "south", pts, 0), 0)
    assert np.linalg.norm(back - pts, axis=1).max() < 1e-10


def test_overlap_jacobian_is_the_closed_form():
    """The transition's 1-jet is multiplication by -1/w^2."""
    pts = annulus_points(np.random.default_rng(8), 200, 0.3, 2.5)
    jac = to_south(pts)[1]
    oracle = overlap_jacobian_closed_form(pts)
    scale = np.abs(oracle).max(axis=(1, 2))
    assert (np.abs(jac - oracle).max(axis=(1, 2)) / scale).max() < 1e-13


def test_chart_origin_has_no_image():
    """w~ = 1/w is undefined at the chart origin: no image, not inf."""
    atlas = stereo_pair_atlas()
    assert atlas.other_coords("north", [0.0, 0.0]) == []
    (name, y), = atlas.other_coords("south", [0.5, -2.0])
    assert name == "north" and np.allclose(y, [0.5, 2.0] / np.float64(4.25))
