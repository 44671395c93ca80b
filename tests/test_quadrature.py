"""Quadrature rules, determinism and axis collapse."""

import math

import numpy as np
import pytest

from gaussbonnet.geometry import Chart, metric_jets
from gaussbonnet.library import build_manifold, stereo_pair_atlas
from gaussbonnet.quadrature import (
    QuadratureError, axis_rule, chart_nodes, gauss_rule, integrate_chart,
    pairwise_sum, product_rule,
)


def flat_unit_torus():
    return Chart.from_strings("t2", 2, [(0, 1), (0, 1)], [True, True],
                              {(0, 0): "1", (1, 1): "1"})


def polar_sphere():
    return Chart.from_strings("s2", 2, [(0, math.pi), (0, 2 * math.pi)],
                              [False, True],
                              {(0, 0): "1", (1, 1): "sin(x1)^2"})


def one(chart, pts):
    return np.ones(len(pts))


def sqrt_det_g(chart, pts):
    """The Riemannian volume form's coefficient: integrates to the area."""
    return np.sqrt(np.linalg.det(metric_jets(chart, pts, order=0)[0]))


def test_constant_on_flat_torus_exact():
    for n in (2, 5, 16):
        assert integrate_chart(flat_unit_torus(), one, n) == pytest.approx(1.0, abs=1e-15)


def test_sphere_area():
    got = integrate_chart(polar_sphere(), sqrt_det_g, 64)
    assert got == pytest.approx(4 * math.pi, abs=1e-8)


def test_gauss_exactness_low_degree():
    chart = Chart.from_strings("box", 1, [(0, 1)], [False], {(0, 0): "1"})
    got = integrate_chart(chart, lambda c, p: p[:, 0] ** 2, 2)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_open_nodes_avoid_endpoints():
    x, _ = axis_rule(0.0, math.pi, 48, periodic=False)
    assert x.min() > 0 and x.max() < math.pi
    x, _ = axis_rule(0.0, 1.0, 9, periodic=True)
    assert x.min() > 0 and x.max() < 1


def test_gauss_rules_are_built_once_and_read_only():
    for family, build in (("legendre", np.polynomial.legendre.leggauss),
                          ("hermite", np.polynomial.hermite.hermgauss)):
        x, w = gauss_rule(family, 12)
        assert gauss_rule(family, 12)[0] is x
        for part, fresh in zip((x, w), build(12)):
            assert part.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0


@pytest.mark.parametrize("lo, hi, n", [(0.0, math.pi, 48), (-3.0, 3.0, 96),
                                       (0.25, 0.5, 1), (-1.0, 2.0, 7)])
def test_axis_rule_is_the_uncached_legendre_mapping_bitwise(lo, hi, n):
    t, v = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for _ in range(2):  # the first call fills the cache, the second reads it
        x, w = axis_rule(lo, hi, n, False)
        assert x.tobytes() == (mid + half * t).tobytes()
        assert w.tobytes() == (half * v).tobytes()
        x[0] = w[0] = 0.0  # the mapped rule is the caller's own copy


def test_trapezoid_superalgebraic_on_trig():
    chart = flat_unit_torus()

    def dens(c, p):
        return np.cos(2 * math.pi * p[:, 0]) ** 2 * np.sin(2 * math.pi * p[:, 1]) ** 2

    got = integrate_chart(chart, dens, 32)
    assert got == pytest.approx(0.25, abs=1e-12)


def test_density_error_carries_node_context():
    def bad(chart, pts):
        raise ValueError("boom")

    with pytest.raises(QuadratureError) as err:
        integrate_chart(flat_unit_torus(), bad, 4)
    assert "first node" in str(err.value)


def test_pairwise_sum_matches_math_fsum():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=1537) * 10.0 ** rng.integers(-8, 8, size=1537)
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-12)


def test_determinism_across_chunking_and_threads(monkeypatch):
    chart = polar_sphere()

    def dens(c, p):
        return np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]) + 1.0

    a = integrate_chart(chart, dens, 48, chunk=50)
    b = integrate_chart(chart, dens, 48, chunk=10 ** 6)
    assert a == b  # bitwise
    monkeypatch.setenv("GBC_THREADS", "4")
    c = integrate_chart(chart, dens, 48, chunk=50)
    assert c == a  # scheduling cannot change the reduction order


def test_weighted_chart_integral():
    chart = Chart.from_strings("w", 1, [(0, 1)], [False], {(0, 0): "1"},
                               weight="x1")
    got = integrate_chart(chart, one, 16)
    assert got == pytest.approx(0.5, abs=1e-14)


def test_chart_nodes_count_validation():
    """One count >= 1 per axis: a one-node axis is the midpoint rule."""
    chart = polar_sphere()
    pts, w = chart_nodes(chart, (4, 8))
    assert pts.shape == (32, 2)
    pts, w = chart_nodes(chart, [1, 1])
    assert pts.tolist() == [[math.pi / 2, math.pi]]
    assert w[0] == pytest.approx(2 * math.pi ** 2)
    for counts in ([16], [16, 8, 4], [0, 4]):
        with pytest.raises(ValueError, match="node counts"):
            chart_nodes(chart, counts)
        with pytest.raises(ValueError, match="node counts"):
            integrate_chart(chart, one, counts)


def test_chart_nodes_ascending_multi_index():
    chart = flat_unit_torus()
    pts, w = chart_nodes(chart, [2, 3])
    # C-order: second axis fastest
    assert pts.shape == (6, 2)
    assert np.all(np.diff(pts[:3, 1]) > 0)
    assert pts[0, 0] == pts[1, 0] == pts[2, 0]
    assert w.sum() == pytest.approx(1.0)


def test_product_rule_multiplies_axis_weights_in_order():
    rules = [axis_rule(0.0, 1.0, 3, False), axis_rule(0.0, 2.0, 4, True),
             axis_rule(-1.0, 1.0, 2, False)]
    pts, w = product_rule(rules)
    assert pts.shape == (24, 3) and w.shape == (24,)
    k = 0
    for a in range(3):
        for b in range(4):
            for c in range(2):
                assert pts[k].tolist() == [rules[0][0][a], rules[1][0][b], rules[2][0][c]]
                assert w[k] == 1.0 * rules[0][1][a] * rules[1][1][b] * rules[2][1][c]
                k += 1
    chart = polar_sphere()
    got = chart_nodes(chart, [5, 6])
    want = product_rule([axis_rule(0, math.pi, 5, False), axis_rule(0, 2 * math.pi, 6, True)])
    assert all(np.array_equal(g, h) for g, h in zip(got, want))


# ------------------------------------------------------- collapsed axes

@pytest.mark.parametrize("name, support", [
    ("sphere2", {0}), ("bumpy_sphere", {0}), ("torus2", set()),
    ("sphere4", {0, 1, 2}), ("s2xs2", {0, 2}), ("cp2", {0, 1}), ("torus4", set()),
])
def test_chart_support_builtins(name, support):
    (chart,) = build_manifold(name).atlas.charts
    assert chart.support == support


def test_chart_support_reads_the_weight():
    north = stereo_pair_atlas().chart("north")
    assert north.support == {0, 1}
    flat = Chart.from_strings("w", 2, [(0, 1), (0, 1)], [True, True],
                              {(0, 0): "1", (1, 1): "1"}, weight="x2")
    assert flat.support == {1}


def test_chart_nodes_collapse_to_midpoint():
    chart = polar_sphere()
    pts, w = chart_nodes(chart, [5, 7], axes={0})
    full_pts, full_w = chart_nodes(chart, [5, 7])
    assert pts.shape == (5, 2)
    assert np.array_equal(pts[:, 0], full_pts[::7, 0])  # ascending order kept
    assert np.all(pts[:, 1] == math.pi)
    assert w.sum() == pytest.approx(full_w.sum(), rel=1e-14)
    pts, w = chart_nodes(chart, [5, 7], axes=())
    assert pts.tolist() == [[0.5 * math.pi, math.pi]] and w.tolist() == [2 * math.pi ** 2]
    with pytest.raises(ValueError):
        chart_nodes(chart, [5, 7], axes={2})


def test_collapsed_integral_matches_full_grid():
    chart = polar_sphere()  # nothing depends on x2

    def dens(c, p):
        return np.cos(p[:, 0]) ** 2 + 0.5

    full = integrate_chart(chart, dens, 40)
    collapsed = integrate_chart(chart, dens, 40, axes=chart.support)
    assert collapsed == pytest.approx(full, rel=1e-14)
