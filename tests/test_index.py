"""Zero finding, mapping degrees and index sums."""

import math

import numpy as np
import pytest

from gaussbonnet.geometry import Atlas, Chart
from gaussbonnet.index import (
    DegreeError, VectorFieldSpec, _grid, field_consistency_residual, find_zeros,
    index_sum, local_degree,
)
from gaussbonnet.library import build_field, overlap_jacobian, stereo_pair_atlas


def disk_chart(half=2.0, name="disk"):
    return Chart.from_strings(name, 2, [(-half, half), (-half, half)],
                              [False, False], {(0, 0): "1", (1, 1): "1"})


def disk_atlas(half=2.0):
    return Atlas((disk_chart(half),))


def flat_field(components, half=2.0, expected=None):
    atlas = disk_atlas(half)
    return VectorFieldSpec("test", "vector", {"disk": components}, atlas,
                           expected=expected)


def torus_field(components):
    """A field on the flat torus [0, 2 pi)^2, one periodic chart."""
    chart = Chart.from_strings("flat", 2, [(0.0, 2 * math.pi)] * 2, [True, True],
                               {(0, 0): "1", (1, 1): "1"})
    return VectorFieldSpec("test", "vector", {"flat": components}, Atlas((chart,)))


# ------------------------------------------------------------ local degree

def test_source_degree_plus_one():
    f = flat_field(("x1", "x2"))
    rec = local_degree(f, "disk", [0.0, 0.0], 0.5)
    assert rec.local_degree == 1
    assert abs(rec.raw_degree - 1) < 1e-9


def test_saddle_degree_minus_one():
    f = flat_field(("x1", "-x2"))
    rec = local_degree(f, "disk", [0.0, 0.0], 0.5)
    assert rec.local_degree == -1


def test_z_squared_degree_two():
    f = flat_field(("x1^2 - x2^2", "2*x1*x2"))
    rec = local_degree(f, "disk", [0.0, 0.0], 0.4)
    assert rec.local_degree == 2


def test_degree_against_dense_angle_accumulation():
    """High-resolution angle-accumulation oracle for a nonlinear field."""
    comps = ("x1^3 - 3*x1*x2^2", "3*x1^2*x2 - x2^3")  # z^3
    f = flat_field(comps)
    theta = np.linspace(0, 2 * math.pi, 10 ** 4, endpoint=False)
    r = 0.3
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    vals = f.values("disk", pts)
    ang = np.unwrap(np.arctan2(vals[:, 1], vals[:, 0]))
    oracle = (ang[-1] - ang[0] + (ang[1] - ang[0])) / (2 * math.pi)
    rec = local_degree(f, "disk", [0.0, 0.0], r)
    assert rec.local_degree == int(round(oracle)) == 3


def test_degree_scale_invariance():
    for lam in (0.1, 7.0):
        f = flat_field((f"{lam}*x1", f"{lam}*(-x2)"))
        assert local_degree(f, "disk", [0.0, 0.0], 0.5).local_degree == -1


def test_degree_radius_independence():
    f = flat_field(("x1 + 0.2*x2^2", "x2 - 0.1*x1^2"))
    a = local_degree(f, "disk", [0.0, 0.0], 0.6).local_degree
    b = local_degree(f, "disk", [0.0, 0.0], 0.3).local_degree
    assert a == b == 1


def test_vanishing_on_circle_rejected():
    f = flat_field(("x1^2 + x2^2 - 0.25", "0"))
    with pytest.raises(DegreeError):
        local_degree(f, "disk", [0.0, 0.0], 0.5)


def test_degree_dimension_three():
    chart = Chart.from_strings("box", 3, [(-1, 1)] * 3, [False] * 3,
                               {(i, i): "1" for i in range(3)})
    atlas = Atlas((chart,))
    identity = VectorFieldSpec("id", "vector", {"box": ("x1", "x2", "x3")},
                               atlas)
    rec = local_degree(identity, "box", [0.0, 0.0, 0.0], 0.4)
    assert rec.local_degree == 1
    antipodal = VectorFieldSpec("anti", "vector",
                                {"box": ("-x1", "-x2", "-x3")}, atlas)
    rec = local_degree(antipodal, "box", [0.0, 0.0, 0.0], 0.4)
    assert rec.local_degree == -1  # (-1)^3
    twist = VectorFieldSpec("twist", "vector",
                            {"box": ("x1", "-x2", "-x3")}, atlas)
    rec = local_degree(twist, "box", [0.0, 0.0, 0.0], 0.4)
    assert rec.local_degree == 1


def test_fast_turning_field_degree():
    """6000 turns on one circle: the sphere integral has no sampling limit."""
    f = flat_field(("cos(6000*atan2(x2, x1))", "sin(6000*atan2(x2, x1))"))
    assert local_degree(f, "disk", [0.0, 0.0], 0.5).local_degree == 6000


def test_degree_next_to_a_second_zero():
    """z (z - 0.3) at radius 0.25: the other zero is 1.2 radii away."""
    f = flat_field(("x1^2 - x2^2 - 0.3*x1", "2*x1*x2 - 0.3*x2"))
    rec = local_degree(f, "disk", [0.0, 0.0], 0.25)
    assert abs(rec.raw_degree - 1) < 1e-6


@pytest.mark.parametrize("zero", [(0.0, 0.9), (-0.9, 0.0)])
def test_circle_leaving_chart_rejected(zero):
    """The range guard looks along every axis, both ways."""
    f = flat_field((f"x1 - {zero[0]}", f"x2 - {zero[1]}"), half=1.0)
    with pytest.raises(DegreeError, match="leaves chart"):
        local_degree(f, "disk", zero, 0.5)


# ------------------------------------------------------------- find_zeros

def test_nowhere_zero_field_empty():
    field = build_field("constant")
    zeros, dropped = find_zeros(field, scan_resolution=24)
    assert zeros == [] and dropped == []


def test_two_chart_zeros_of_z_field():
    field = build_field("z")
    zeros, _ = find_zeros(field, scan_resolution=32)
    assert len(zeros) == 2
    for cname, x in zeros:
        assert np.linalg.norm(x) < 1e-10
    assert {cname for cname, _ in zeros} == {"north", "south"}


def test_algebraic_roots_on_disk():
    f = flat_field(("x1^2 - 0.25", "x2"))
    zeros, _ = find_zeros(f, scan_resolution=40)
    found = sorted(round(x[0], 6) for _, x in zeros)
    assert found == [-0.5, 0.5]
    for _, x in zeros:
        assert abs(abs(x[0]) - 0.5) < 1e-10 and abs(x[1]) < 1e-10


def test_near_zero_without_root_is_dropped_with_report():
    """A deep |X| minimum that is not a zero must be reported, not hidden."""
    f = flat_field(("x1^2 + 1e-7", "x2"))
    zeros, dropped = find_zeros(f, scan_resolution=40)
    assert zeros == []
    assert len(dropped) >= 1
    assert abs(dropped[0][1][0]) < 0.2  # near the fake minimum at the origin


def test_zero_on_a_periodic_seam_found_once():
    """x2 = 0 and x2 = 2 pi are one point; its zeros are found once each."""
    f = torus_field(("sin(x1 - 1)", "sin(x2)"))
    zeros, _ = find_zeros(f, scan_resolution=48)
    assert len(zeros) == 4
    result = index_sum(f, scan_resolution=48)
    assert sorted(rec.local_degree for rec in result.zeros) == [-1, -1, 1, 1]


def test_periodic_scan_axis_has_one_point_per_cell():
    """Each periodic axis of the scan grid holds n distinct points one scan
    cell (hi - lo) / n apart, across the seam too, so the seam row is
    scanned once."""
    chart = torus_field(("1", "1")).atlas.charts[0]
    n = 48
    cell = 2 * math.pi / n  # find_zeros' scan cell
    pts, shape = _grid(chart, n)
    assert shape == [n, n]
    for axis in range(2):
        values = np.unique(pts[:, axis])
        assert len(values) == n
        gaps = np.diff(np.append(values, values[0] + 2 * math.pi))
        assert np.abs(gaps - cell).max() < 1e-12


def test_morse_field_index_two():
    field = build_field("morse")
    result = index_sum(field, scan_resolution=48)
    assert result.total == 2 == field.expected
    degrees = sorted(rec.local_degree for rec in result.zeros)
    assert degrees == [-1, 1, 1, 1]


def test_constant_field_torus_zero():
    field = build_field("constant")
    result = index_sum(field, scan_resolution=16)
    assert result.total == 0 == field.expected


def test_rotation_field_index_two():
    result = index_sum(build_field("rotation"), scan_resolution=32)
    assert result.total == 2
    assert sorted(r.local_degree for r in result.zeros) == [1, 1]


@pytest.mark.parametrize("name,total", [("z", 2), ("z2", 2)])
def test_sphere_polynomial_fields(name, total):
    result = index_sum(build_field(name), scan_resolution=32)
    assert result.total == total


@pytest.mark.parametrize("k", [1, 2, 3])
def test_section_degree_sum(k):
    """z^k sections of the k-clutched bundle: one zero of degree k."""
    field = build_field("section_zk", k=k)
    result = index_sum(field, scan_resolution=32)
    assert result.total == k == field.expected
    assert len(result.zeros) == 1 and result.zeros[0].chart == "north"


@pytest.mark.parametrize("comps,total", [
    (("x1^2 - x2^2 - 0.22*x1", "2*x1*x2 - 0.22*x2"), 2),  # z (z - 0.22)
    (("x1^2 - 0.22*x1 + x2^2", "-0.22*x2"), 0),  # z conj(z - 0.22)
])
def test_index_sum_radius_stays_clear_of_neighbouring_zeros(comps, total):
    result = index_sum(flat_field(comps), scan_resolution=48)
    assert result.total == total
    assert len(result.zeros) == 2
    assert all(rec.radius < 0.5 * 0.22 for rec in result.zeros)


def test_index_sum_neighbours_across_a_periodic_seam():
    """Zeros at x1 = +-0.12 (mod 2 pi) are 0.24 apart through the seam."""
    result = index_sum(torus_field(("cos(x1) - cos(0.12)", "sin(x2 - 1)")),
                       scan_resolution=48)
    assert result.total == 0
    assert sorted(rec.local_degree for rec in result.zeros) == [-1, -1, 1, 1]
    assert all(rec.radius < 0.5 * 0.24 for rec in result.zeros)


def test_index_sum_neighbours_in_another_chart():
    """(z - 0.9)(z - 1.12) on the sphere: the zero at 1.12 is kept in the
    south chart (at 1/1.12), 0.22 from the other one in north coordinates."""
    p, q = 0.9, 1.12
    north = (f"x1^2 - x2^2 - {p + q}*x1 + {p * q}", f"2*x1*x2 - {p + q}*x2")
    # the pushforward -X / z^2 by w = 1/z reads -(1 - p w)(1 - q w)
    south = (f"-(1 - {p + q}*x1 + {p * q}*(x1^2 - x2^2))",
             f"{p + q}*x2 - {2 * p * q}*x1*x2")
    f = VectorFieldSpec("pair", "vector", {"north": north, "south": south},
                        stereo_pair_atlas())
    assert field_consistency_residual(f, overlap_jacobian) < 1e-10
    result = index_sum(f, scan_resolution=48)
    assert result.total == 2
    assert sorted(rec.chart for rec in result.zeros) == ["north", "south"]
    assert all(rec.radius < 0.5 * (q - p) for rec in result.zeros)


def test_scan_refinement_stability():
    field = build_field("morse")
    a = index_sum(field, scan_resolution=32)
    b = index_sum(field, scan_resolution=64)
    assert a.total == b.total == 2


# ------------------------------------------------- transition consistency

def test_vector_fields_push_forward_exactly():
    for name in ("morse", "rotation", "z", "z2"):
        field = build_field(name)
        residual = field_consistency_residual(field, overlap_jacobian)
        assert residual < 1e-10, name


def test_section_direction_consistency():
    k = 2
    field = build_field("section_zk", k=k)

    def clutch(x):
        # south components = R(-k theta) north components, directions only
        th = math.atan2(x[1], x[0])
        c, s = math.cos(k * th), math.sin(k * th)
        return np.array([[c, s], [-s, c]])

    residual = field_consistency_residual(field, clutch)
    assert residual < 1e-10


def _local_minima_loop(grid, periodic, lower_index_wins_ties=False):
    """The cell-by-cell scan that `_local_minima` replaced, kept as its oracle."""
    shape = grid.shape
    out = []
    for flat_idx in range(grid.size):
        idx = np.unravel_index(flat_idx, shape)
        val = grid[idx]
        is_min = True
        spread = 0.0
        for axis in range(len(shape)):
            for step in (-1, 1):
                j = list(idx)
                j[axis] += step
                if periodic[axis]:
                    j[axis] %= shape[axis]
                elif not 0 <= j[axis] < shape[axis]:
                    continue
                other = grid[tuple(j)]
                spread = max(spread, other - val)
                if other < val or (lower_index_wins_ties and other == val
                                   and np.ravel_multi_index(j, shape) < flat_idx):
                    is_min = False
                    break
            if not is_min:
                break
        if is_min and val < 4.0 * spread + 1e-9:
            out.append(flat_idx)
    return out


def test_local_minima_match_cell_loop():
    from gaussbonnet.index import _local_minima
    rng = np.random.default_rng(3)
    for trial in range(300):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(n) for n in rng.integers(1, 7, size=ndim))
        periodic = [bool(p) for p in rng.integers(0, 2, size=ndim)]
        grid = rng.uniform(0.0, 2.0, size=shape)
        if trial % 2:
            grid = np.round(grid * 2) / 2  # ties
        minima, tied = _local_minima(grid, periodic)
        assert tied == _local_minima_loop(grid, periodic)
        assert minima == _local_minima_loop(grid, periodic, lower_index_wins_ties=True)
