"""Gauss-Bonnet integrand, evaluated two independent ways, and the
curvature-integral checker.

Route one takes the Pfaffian of the skew matrix of frame curvature
2-forms, whose (a, b) entry is row (a, b) of the frame curvature block on
Lambda^2 (`point_geometry_batch(...).curvature`); route two evaluates the
double-permutation curvature sum over the full frame curvature tensor.
Each multiplies its frame value by the Cholesky sqrt(det g) of the same
`point_geometry_batch` call: a density is a dx^1 ^ ... ^ dx^d coefficient.
Both carry the same global constant, calibrated once so the unit 2-sphere
Euler form is +1/(2 pi) dvol; with this package's curvature sign
convention (riemann_frame[0,1,0,1] = +1 on the unit sphere) the calibrated
constant is +(2 pi)^{-d/2}, frozen for all dimensions.

The checker reports the finest level, with a bound on its error from a
resolution ladder; it never extrapolates past the finest level.  It
returns numbers only: comparing them with chi is the caller's business
(`report.Report.finalize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exterior import killing_double_sum, pfaffian, pfaffian_terms
from .geometry import curvature_pairs, point_geometry, point_geometry_batch
from .quadrature import integrate_atlas

__all__ = [
    "CALIBRATED_SIGN", "gb_density_pfaffian_batch", "gb_density_aw_batch",
    "verify_gbc", "GbcResult",
]

# Sign calibrated on the unit 2-sphere (the Euler form must come out
# +1/(2 pi) dvol, so that the integral is +2); frozen for every even dimension.
CALIBRATED_SIGN = 1.0


def gb_density_pfaffian_batch(chart, points):
    """Scalars s (N,) with integrand = s dx^1 ^ ... ^ dx^d at (N, d) points,
    via the Pfaffian route.

    Cross-checked against the generic exterior-algebra Pfaffian of the
    omega2 matrix (`gb_density_pfaffian_reference`); both run
    exterior.pfaffian_terms, this path on (N,) coefficient arrays taken
    straight from the curvature block.
    """
    points = np.asarray(points, dtype=float)
    d = chart.dim
    if d % 2:
        raise ValueError("even dimension required")
    geo = point_geometry_batch(chart, points)
    block = geo.curvature
    pairs = curvature_pairs(d)
    row = {pair: k for k, pair in enumerate(pairs)}
    coeff = pfaffian_terms(lambda a, b: {pair: block[:, row[a, b], col]
                                         for col, pair in enumerate(pairs)},
                           d)[tuple(range(d))]
    return CALIBRATED_SIGN * (2 * math.pi) ** (-d / 2) * coeff * geo.sqrt_det_g


def gb_density_pfaffian_reference(chart, x):
    """Same density through the generic FormElement Pfaffian (slow path)."""
    d = chart.dim
    pg = point_geometry(chart, x)
    coeff = pfaffian(pg.omega2).coefficient(tuple(range(d)))
    return CALIBRATED_SIGN * (2 * math.pi) ** (-d / 2) * float(np.real(coeff)) * pg.sqrt_det_g


def gb_density_aw_batch(chart, points):
    """Double permutation sum over frame curvature components.

    (2 pi)^{-d/2} / (2^d (d/2)!) sum_{s1, s2} sgn(s1) sgn(s2)
        prod_m Rf[s1(2m), s1(2m+1), s2(2m), s2(2m+1)]
    (exterior.killing_double_sum, "blocks" pairing) with the calibrated
    global sign shared with the Pfaffian route, times sqrt(det g).
    """
    points = np.asarray(points, dtype=float)
    d = chart.dim
    if d % 2:
        raise ValueError("even dimension required")
    geo = point_geometry_batch(chart, points)
    const = (2 * math.pi) ** (-d / 2) / (2 ** d * math.factorial(d // 2))
    return (CALIBRATED_SIGN * const * killing_double_sum(geo.riemann_frame, "blocks")
            * geo.sqrt_det_g)


@dataclass
class GbcResult:
    integral: float
    resolutions: list = field(default_factory=list)  # (node count, value)
    error_estimate: float | None = None  # None when no ladder ran


def _resolution_ladder(res):
    """res//2, 3*res//4 and res, each at least one node (the midpoint rule)."""
    return sorted({max(1, res // 2), max(1, 3 * res // 4)} - {res}) + [res]


def _error_bound(table):
    """Conservative bound on the finest level's error from the level differences.

    Twice the larger of the last two differences, floored at the round-off
    level n * eps * |v| of the finest level (n nodes per axis).
    """
    (n, v), values = table[-1], [v for _, v in table[-3:]]
    step = max(abs(b - a) for a, b in zip(values, values[1:]))
    return max(2.0 * step, n * np.finfo(float).eps * abs(v))


def verify_gbc(atlas, resolution=32, extrapolate=False, chunk=65536):
    """Integrate the curvature density over the atlas.

    Returns a GbcResult whose integral is the value at `resolution`.  With
    `extrapolate` set, the ladder res//2, 3*res//4, res runs and
    `error_estimate` bounds the finest level's error (see _error_bound).
    Gauss-Legendre and the periodic rule converge geometrically on these
    analytic integrands, so no level beats the finest one.

    The density (which carries sqrt(det g)) and the partition weight read
    nothing but the chart's metric and weight expressions, so each chart is integrated only
    over its `support`: an axis that no expression reads is a coordinate
    Killing field and gets a single node.
    """
    if atlas.dim % 2:
        raise ValueError("odd dimension: the curvature integrand vanishes identically")
    ladder = _resolution_ladder(resolution) if extrapolate else [resolution]
    table = [(n, integrate_atlas(atlas, gb_density_pfaffian_batch, n, chunk,
                                 axes=lambda chart: chart.support))
             for n in ladder]
    estimate = _error_bound(table) if len(table) >= 2 else None
    return GbcResult(table[-1][1], table, estimate)
