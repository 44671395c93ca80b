"""Plane-bundle Euler numbers: transition route vs connection route."""

import dataclasses
import math

import numpy as np
import pytest

from gaussbonnet.bundles import (
    PlaneBundle, connection_form, curvature_density_batch, euler_form_transition,
    euler_form_transition_batch, generalized_gbc, make_plane_bundle,
    winding_of_phi,
)
from gaussbonnet.expr import BinOp, Num, eval_jet
from gaussbonnet.geometry import Atlas, metric_jets
from gaussbonnet.library import (
    overlap_jacobian, stereo_overlap_maps, stereo_pair_atlas,
)
from gaussbonnet.mq import mq_zero_section_density
from gaussbonnet.quadrature import integrate_chart


def annulus_points(rng, n, lo=0.7, hi=1.4):
    r = rng.uniform(lo, hi, n)
    th = rng.uniform(0, 2 * math.pi, n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


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
    ab, _ = stereo_overlap_maps()
    rng = np.random.default_rng(0)
    pts = annulus_points(rng, 50, 0.3, 2.5)
    rho_n = eval_jet(b.parsed_rho["north"], pts, order=0).val
    pts_s = np.array([ab(x) for x in pts])
    rho_s = eval_jet(b.parsed_rho["south"], pts_s, order=0).val
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
    ab, _ = stereo_overlap_maps()
    rng = np.random.default_rng(2)
    for x in annulus_points(rng, 40):
        en = euler_form_transition(b, "north", x)
        es = euler_form_transition(b, "south", ab(x))
        assert es * np.linalg.det(overlap_jacobian(x)) == pytest.approx(en, rel=1e-9, abs=1e-12)


def test_connection_compatibility():
    """theta_alpha = d phi_gamma,alpha + theta_gamma on the overlap."""
    b = make_plane_bundle(3)
    ab, _ = stereo_overlap_maps()
    rng = np.random.default_rng(3)
    theta_n = connection_form(b, "north")
    theta_s = connection_form(b, "south")
    for x in annulus_points(rng, 100):
        tn = theta_n(x[None, :])[0]
        ts = theta_s(ab(x)[None, :])[0]
        pulled = overlap_jacobian(x).T @ ts  # 1-form pullback to north coords
        dphi_sn = -eval_jet(b.parsed_phi["north"], x[None, :], order=1).grad[0]
        assert np.linalg.norm(tn - (dphi_sn + pulled)) < 1e-10


def test_curvature_globality():
    """d theta_north = d theta_south on overlaps (d^2 phi = 0)."""
    b = make_plane_bundle(3)
    ab, _ = stereo_overlap_maps()
    rng = np.random.default_rng(4)
    for x in annulus_points(rng, 40):
        cn = curvature_density_batch(b, "north", x[None, :])[0]
        cs = curvature_density_batch(b, "south", ab(x)[None, :])[0]
        assert cs * np.linalg.det(overlap_jacobian(x)) == pytest.approx(cn, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_euler_coefficients_read_no_metric(k):
    """The Euler forms are built from the clutching data alone: on a base
    whose conformal factor is scaled by 4, every dx1 ^ dx2 coefficient keeps
    its bits."""
    atlas = stereo_pair_atlas()
    scaled = Atlas(tuple(dataclasses.replace(c, metric={ij: BinOp("*", Num(4.0), e)
                                                        for ij, e in c.metric.items()})
                         for c in atlas.charts), atlas.identifications)
    clutching = make_plane_bundle(k)
    b, b4 = (PlaneBundle(k, a, clutching.phi, clutching.rho) for a in (atlas, scaled))
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
    """Swapping the chart roles relabels phi -> -phi without moving integrals."""
    b = make_plane_bundle(2)
    swapped = make_plane_bundle(2)
    swapped.parsed_phi = {"north": swapped.parsed_phi["south"],
                          "south": swapped.parsed_phi["north"]}
    ra = generalized_gbc(b, resolution=96)
    rb = generalized_gbc(swapped, resolution=96)
    assert rb.transition_integral == pytest.approx(ra.transition_integral, abs=1e-9)


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
    ab, _ = stereo_overlap_maps()
    rng = np.random.default_rng(5)
    pts = annulus_points(rng, 20)
    wn = mk("north").weight_values(pts)
    ws = mk("south").weight_values(np.array([ab(x) for x in pts]))
    assert np.abs(wn + ws - 1.0).max() > 0.1


def test_overlap_maps_mutually_inverse():
    ab, ba = stereo_overlap_maps()
    rng = np.random.default_rng(6)
    for x in annulus_points(rng, 30, 0.3, 2.5):
        assert np.linalg.norm(ba(ab(x)) - x) < 1e-10
