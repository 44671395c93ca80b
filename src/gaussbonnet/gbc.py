"""Gauss-Bonnet integrand, evaluated two independent ways, and the
curvature-integral checker.

Route one builds the skew matrix of frame curvature 2-forms and takes its
Pfaffian; route two evaluates the double-permutation curvature sum in
orthonormal-frame components (where the metric determinant factor is 1).
Both carry the same global constant, calibrated once so the unit 2-sphere
density is +1/(2 pi); with this package's curvature sign convention
(riemann_frame[0,1,0,1] = +1 on the unit sphere) the calibrated constant
is +(2 pi)^{-d/2}, frozen for all dimensions.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .exterior import perm_sign, pfaffian, pfaffian_terms
from .geometry import point_geometry, point_geometry_batch
from .quadrature import integrate_atlas, richardson

__all__ = [
    "CALIBRATED_SIGN", "gb_density_pfaffian", "gb_density_aw",
    "gb_density_pfaffian_batch", "gb_density_aw_batch",
    "integrand_report", "IntegrandReport", "verify_gbc", "GbcResult",
]

# Sign calibrated on the unit 2-sphere (density must come out +1/(2 pi),
# so that the integral is +2); frozen for every even dimension.
CALIBRATED_SIGN = 1.0


def gb_density_pfaffian_batch(chart, points):
    points = np.asarray(points, dtype=float)
    d = chart.dim
    if d % 2:
        raise ValueError("even dimension required")
    rf = point_geometry_batch(chart, points).riemann_frame
    pairs = [(k, l) for k in range(d) for l in range(k + 1, d)]
    coeff = pfaffian_terms(lambda a, b: {(k, l): rf[:, a, b, k, l] for k, l in pairs},
                           d)[tuple(range(d))]
    return CALIBRATED_SIGN * (2 * math.pi) ** (-d / 2) * coeff


def gb_density_pfaffian(chart, x):
    """Scalar s with integrand = s * dvol at x, via the Pfaffian route.

    Cross-checked against the generic exterior-algebra Pfaffian of the
    omega2 matrix in the test suite; both run exterior.pfaffian_terms, this
    path on (N,) coefficient arrays taken straight from riemann_frame.
    """
    return float(gb_density_pfaffian_batch(chart, np.asarray(x, dtype=float)[None, :])[0])


def gb_density_pfaffian_reference(chart, x):
    """Same density through the generic FormElement Pfaffian (slow path)."""
    d = chart.dim
    pg = point_geometry(chart, x)
    coeff = pfaffian(pg.omega2).coefficient(tuple(range(d)))
    return CALIBRATED_SIGN * (2 * math.pi) ** (-d / 2) * float(np.real(coeff))


@functools.lru_cache(maxsize=None)
def _signed_perms(d):
    perms = tuple(itertools.permutations(range(d)))
    return perms, tuple(perm_sign(sigma) for sigma in perms)


def gb_density_aw_batch(chart, points):
    """Double permutation sum over frame curvature components.

    (2 pi)^{-d/2} / (2^d (d/2)!) sum_{s1, s2} sgn(s1) sgn(s2)
        prod_m Rf[s1(2m), s1(2m+1), s2(2m), s2(2m+1)]
    with the calibrated global sign shared with the Pfaffian route.
    """
    points = np.asarray(points, dtype=float)
    d = chart.dim
    if d % 2:
        raise ValueError("even dimension required")
    perms, signs = _signed_perms(d)
    rf = point_geometry_batch(chart, points).riemann_frame
    n = rf.shape[0]
    total = np.zeros(n)
    half = d // 2
    for s1, sg1 in zip(perms, signs):
        for s2, sg2 in zip(perms, signs):
            prod = rf[:, s1[0], s1[1], s2[0], s2[1]].copy()
            for m in range(1, half):
                prod *= rf[:, s1[2 * m], s1[2 * m + 1], s2[2 * m], s2[2 * m + 1]]
            total += (sg1 * sg2) * prod
    const = (2 * math.pi) ** (-d / 2) / (2 ** d * math.factorial(half))
    return CALIBRATED_SIGN * const * total


def gb_density_aw(chart, x):
    return float(gb_density_aw_batch(chart, np.asarray(x, dtype=float)[None, :])[0])


@dataclass
class IntegrandReport:
    pfaffian_density: float
    aw_density: float
    discrepancy: float


def integrand_report(chart, x):
    pf = gb_density_pfaffian(chart, x)
    aw = gb_density_aw(chart, x)
    return IntegrandReport(pf, aw, abs(pf - aw))


@dataclass
class GbcResult:
    integral: float
    expected_chi: float | None
    abs_error: float | None
    resolutions: list = field(default_factory=list)  # (node count, value)
    extrapolated: bool = False
    wall_time: float = 0.0
    error_estimate: float | None = None  # Richardson's; None without extrapolation


def _resolution_ladder(res, levels):
    if levels <= 1:
        return [res]
    ladder = sorted({max(4, res * k // (levels + 1)) for k in range(2, levels + 1)})
    return [n for n in ladder if n < res] + [res]


def verify_gbc(atlas, resolution=32, extrapolate=False, levels=3, chunk=65536):
    """Integrate the curvature density over the atlas and compare with chi.

    Returns a GbcResult with the per-resolution convergence table; when
    `extrapolate` is set the reported integral is the Richardson limit of
    `levels` increasing resolutions ending at `resolution`, and
    `error_estimate` is Richardson's estimate of its error.

    The density, sqrt(det g) and the partition weight read nothing but the
    chart's metric and weight expressions, so each chart is integrated only
    over its `support`: an axis that no expression reads is a coordinate
    Killing field and gets a single node.
    """
    if atlas.dim % 2:
        raise ValueError("odd dimension: the curvature integrand vanishes identically")
    t0 = time.perf_counter()
    ladder = _resolution_ladder(resolution, levels) if extrapolate else [resolution]
    table = []
    for n in ladder:
        val = integrate_atlas(atlas, gb_density_pfaffian_batch, n, chunk,
                              axes=lambda chart: chart.support)
        table.append((n, val))
    if extrapolate and len(table) >= 2:
        integral, estimate = richardson(table)
        extrapolated = True
    else:
        integral, estimate, extrapolated = table[-1][1], None, False
    expected = atlas.expected_chi
    err = abs(integral - expected) if expected is not None else None
    return GbcResult(integral, expected, err, table, extrapolated,
                     time.perf_counter() - t0, estimate)
