"""Spectral heat traces on model spaces and the short-time parametrix.

Exact form-Laplacian spectra replace any kernel-construction machinery:
on a flat torus every lattice mode carries multiplicity C(d, p) on
p-forms, so traces factor into one-dimensional theta sums; on the round
2-sphere the 0- and 2-form spectra are l(l+1)/rho^2 with multiplicity
2l+1 and the 1-form spectrum is the same with multiplicity doubled (no
zero mode).  Supertraces are then t-independent integers by exact
per-eigenvalue cancellation.

The parametrix block implements the degree-0, dimension-2 short-time
kernel H_N = (4 pi t)^{-1} e^{-r^2/4t} (u0 + t u1) on the model charts
(flat tori and round spheres, whose pointwise isotropy makes u0 and the
transport integrand radial):

* u0(x, y) = det(g)^{-1/4} in normal coordinates centered at x;
* u1(x, y) = -(u0(y) / r) int_0^r u0^{-1} Delta u0 ds along the radial
  geodesic, where for the radial u0 = e^{-l/4}, l = log det(g), the
  Laplacian -(f'' + ((d-1)/s + l'/2) f') gives
  u0^{-1} Delta u0 = -(l'^2/16 - l''/4) + ((d-1)/s + l'/2) l'/4;
* the diagonal value u1(x, x) is the r -> 0 limit of that integral and
  must equal scalar_curvature / 6.

u0, u1 and H_N at one (x, y) are read from one record: one Newton solve of
u = log_x(y), r = |u|, and one integration of the geodesics to the
Gauss-Legendre nodes of (0, r) and to r along the ray u / r, whose Jacobi
fields give det(g), l' and l'' exactly at each of them (no difference
stencils).  On the diagonal (r = 0) u0 = 1 and u1 is the limit above,
(4 u1(r/2) - u1(r)) / 3 at r = 0.15 (Richardson, which cancels the r^2
term), from one record along the two coordinate rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import NormalCoordinates
from .quadrature import axis_rule, product_rule

__all__ = [
    "FlatTorusSpectrum", "RoundSphereSpectrum", "HeatValue",
    "supertrace_heat", "asymptotic_fit", "supertrace_fit",
    "FitResult", "RadialParametrix", "parametrix_u0", "parametrix_u1",
    "parametrix_u1_diag", "parametrix_kernel", "spectral_kernel_s2",
    "torus_image_kernel",
]


class HeatValue(NamedTuple):
    value: float
    tail_bound: float


@dataclass(frozen=True)
class FlatTorusSpectrum:
    """Form-Laplacian spectrum of a flat torus with the given periods."""

    periods: tuple

    def __post_init__(self):
        if not self.periods:
            raise ValueError("need at least one period")

    @property
    def d(self):
        return len(self.periods)

    @staticmethod
    def _theta(t, period, tail_tol):
        """sum_m exp(-4 pi^2 m^2 t / L^2) with a geometric tail bound."""
        a = 4 * math.pi ** 2 * t / period ** 2
        total = 1.0
        m = 1
        while True:
            term = 2 * math.exp(-a * m * m)
            total += term
            ratio = math.exp(-a * (2 * m + 3))
            bound = 2 * math.exp(-a * (m + 1) ** 2) / max(1 - ratio, 1e-300)
            if bound < tail_tol or m > 10_000:
                return total, bound
            m += 1

    def heat_trace(self, p, t, tail_tol=1e-12):
        if t <= 0:
            raise ValueError("t must be positive")
        if not 0 <= p <= self.d:
            raise ValueError("form degree out of range")
        mult = math.comb(self.d, p)
        # truncation independent of p: every degree sees the identical
        # theta product, so the alternating supertrace cancels to round-off
        value, bound = 1.0, 0.0
        per_axis = tail_tol / self.d
        for period in self.periods:
            theta, tb = self._theta(t, period, per_axis)
            bound = bound * theta + tb * value  # running product error
            value *= theta
        return HeatValue(mult * value, mult * bound)

    def kernel_dim(self, p):
        return math.comb(self.d, p)


@dataclass(frozen=True)
class RoundSphereSpectrum:
    """Form-Laplacian spectrum of the round 2-sphere of the given radius.

    0- and 2-forms: lambda = l(l+1)/rho^2 with multiplicity 2l+1, l >= 0;
    1-forms: the same eigenvalues for l >= 1 with multiplicity 2(2l+1)
    (exact and coexact halves pair up; no harmonic 1-forms).
    """

    radius: float = 1.0

    @property
    def d(self):
        return 2

    def heat_trace(self, p, t, tail_tol=1e-12):
        if t <= 0:
            raise ValueError("t must be positive")
        if p not in (0, 1, 2):
            raise ValueError("form degree out of range")
        rho2 = self.radius ** 2
        mult = 2.0 if p == 1 else 1.0
        lmin = 1 if p == 1 else 0
        total = 0.0
        l = lmin
        while True:
            lam = l * (l + 1) / rho2
            total += mult * (2 * l + 1) * math.exp(-lam * t)
            # decreasing-term comparison: tail after l is below the integral
            # of (2l+1) e^{-l(l+1)t} taken from the current l
            bound = mult * (rho2 / t) * math.exp(-l * (l + 1) * t / rho2)
            if bound < tail_tol or l > 100_000:
                return HeatValue(total, bound)
            l += 1

    def kernel_dim(self, p):
        return 1 if p in (0, 2) else 0


def supertrace_heat(model, t, tail_tol=1e-12):
    """Alternating sum of form-degree traces; integer for all t."""
    value, bound = 0.0, 0.0
    for p in range(model.d + 1):
        tv = model.heat_trace(p, t, tail_tol)
        value += (-1) ** p * tv.value
        bound += tv.tail_bound
    return HeatValue(value, bound)


# the asymptotic fits: polynomial degree in t, the largest condition number
# of the scaled Vandermonde matrix, and the spectral tail bound of each
# trace (also the truncation bound of `spectral_kernel_s2`)
_FIT_DEGREE = 3
_FIT_COND_LIMIT = 1e12
_TAIL_TOL = 1e-14


class FitResult(NamedTuple):
    a0: float
    a1: float
    coefficients: np.ndarray
    condition: float


def asymptotic_fit(model, p, t_list):
    """Least-squares fit of (4 pi t)^{d/2} tr e^{-t Laplacian} to a cubic
    in t; returns the constant and linear coefficients."""
    t = np.asarray(sorted(t_list), dtype=float)
    if len(t) < _FIT_DEGREE + 1:
        raise ValueError("need at least 4 time samples")
    if t.max() > 0.2:
        raise ValueError("fit window must stay in the small-t regime (<= 0.2)")
    d = model.d
    y = np.array([model.heat_trace(p, ti, _TAIL_TOL).value for ti in t])
    y = y * (4 * math.pi * t) ** (d / 2)
    return _poly_fit(t, y)


def supertrace_fit(model, t_list):
    """Fit the (unscaled) supertrace to a cubic in t.

    The constant term is the topological integer; every t-coefficient must
    vanish since the supertrace is t-independent.
    """
    t = np.asarray(sorted(t_list), dtype=float)
    y = np.array([supertrace_heat(model, ti, _TAIL_TOL).value for ti in t])
    return _poly_fit(t, y)


def _poly_fit(t, y):
    vander = np.vander(t, _FIT_DEGREE + 1, increasing=True)
    scale = np.abs(vander).max(axis=0)
    scaled = vander / scale
    cond = np.linalg.cond(scaled)
    if cond > _FIT_COND_LIMIT:
        raise ArithmeticError(f"fit matrix ill-conditioned: {cond:.2e}")
    coeffs, *_ = np.linalg.lstsq(scaled, y, rcond=None)
    coeffs = coeffs / scale
    return FitResult(float(coeffs[0]), float(coeffs[1]), coeffs, float(cond))


# --------------------------------------------------------------------------
# Parametrix (p = 0, d = 2, model charts)
# --------------------------------------------------------------------------

# Gauss-Legendre nodes of the transport integral on (0, r): 3e-12 relative
# on the unit sphere for r <= 1, where 4 nodes give 1.0e-8
_GAUSS_NODES = 6


class RadialParametrix:
    """u0 and u1 at target radii along k radial geodesics from the center
    of one set of normal coordinates, from one exact Jacobi record.

    For each target radius r the record holds the Gauss-Legendre nodes of
    (0, r) and then r itself; one `radial_det_g` integration gives det G,
    l' and l'' (l = log det G) at all of them on every ray, and with them
    u0 and u0^-1 Delta u0 (module docstring), whose Gauss sum over (0, r)
    is the transport integral.  Restricted to the pointwise-isotropic model
    charts, where u0 is a function of the radius alone.

    Row i of every array belongs to directions[i]: `det_g` and `u0` are
    (k, m) at the m sample radii `s`, `u1` (k, len(radii)) at the target
    radii.
    """

    def __init__(self, nc, directions, radii):
        directions = np.asarray(directions, dtype=float)
        directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)
        rules = [axis_rule(0.0, r, _GAUSS_NODES, False) for r in radii]
        self.s = np.concatenate([np.append(nodes, r) for (nodes, _), r in zip(rules, radii)])
        self.det_g, dl, d2l = nc.radial_det_g(directions, self.s)
        self.u0 = self.det_g ** -0.25
        d = directions.shape[1]
        ratio = -(dl * dl / 16 - d2l / 4) + ((d - 1) / self.s + dl / 2) * dl / 4
        blocks = ratio.reshape(len(directions), len(radii), _GAUSS_NODES + 1)
        # a row-wise sum, not a matmul, so that each ray keeps its bits
        integrals = (blocks[:, :, :-1] * np.stack([w for _, w in rules])).sum(axis=2)
        u0_at = self.u0[:, _GAUSS_NODES::_GAUSS_NODES + 1]
        self.u1 = -u0_at / np.asarray(radii, dtype=float) * integrals


def _u1_diag(nc):
    """r -> 0 limit of u1 by Richardson extrapolation, (4 u1(r/2) - u1(r)) / 3
    at r = 0.15, averaged over the two coordinate rays of one record."""
    u1 = RadialParametrix(nc, np.eye(2), (0.15, 0.075)).u1
    return float(np.mean((4 * u1[:, 1] - u1[:, 0]) / 3))


def _terms(chart, x, y, n_terms):
    """(r, u0, u1) at (x, y) from one log solve and one radial record at r;
    u1 is None when n_terms is 0."""
    nc = NormalCoordinates(chart, x)
    u = nc.log(y)
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return r, 1.0, _u1_diag(nc) if n_terms else None
    rp = RadialParametrix(nc, u[None, :] / r, (r,))
    return r, float(rp.u0[0, -1]), float(rp.u1[0, 0]) if n_terms else None


def parametrix_u0(chart, x, y):
    """det(g)^{-1/4} at y in normal coordinates centered at x; u0(x, x) = 1."""
    return _terms(chart, x, y, 0)[1]


def parametrix_u1(chart, x, y):
    """Off-diagonal u1(x, y) via the radial transport integral.

    On the diagonal this is the limit parametrix_u1_diag(chart, x).
    """
    return _terms(chart, x, y, 1)[2]


def parametrix_u1_diag(chart, x):
    """Diagonal u1(x, x): small-radius limit of the transport integral.

    Richardson's (4 u1(0.075) - u1(0.15)) / 3, averaged over the two
    coordinate rays; the limit must equal scalar_curvature(x) / 6.
    """
    return _u1_diag(NormalCoordinates(chart, x))


def parametrix_kernel(chart, n_terms, t, x, y):
    """H_N(t, x, y) = (4 pi t)^{-1} e^{-r^2/4t} (u0 + t u1), N <= 1, d = 2."""
    if n_terms not in (0, 1):
        raise ValueError("parametrix implemented to first order only")
    r, total, u1 = _terms(chart, x, y, n_terms)
    if n_terms == 1:
        total += t * u1
    return (4 * math.pi * t) ** -1 * math.exp(-r * r / (4 * t)) * total


def spectral_kernel_s2(t, r):
    """Exact scalar heat kernel on the unit sphere at geodesic distance r.

    sum_l (2l+1)/(4 pi) P_l(cos r) e^{-l(l+1)t}, Legendre values by the
    three-term recurrence; |P_l| <= 1 gives the truncation bound.
    """
    x = math.cos(r)
    p_prev, p_curr = 1.0, x
    total = 1.0 / (4 * math.pi)
    l = 1
    while True:
        total += (2 * l + 1) / (4 * math.pi) * p_curr * math.exp(-l * (l + 1) * t)
        bound = (1 / t) * math.exp(-l * (l + 1) * t) / (4 * math.pi)
        if bound < _TAIL_TOL:
            return total
        p_prev, p_curr = p_curr, ((2 * l + 1) * x * p_curr - l * p_prev) / (l + 1)
        l += 1


def torus_image_kernel(periods, t, x, y):
    """Flat-torus scalar kernel by the method of images (exact identity),
    summed over the shifts -4..4 periods along each axis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = len(periods)
    ks = np.arange(-4, 5)
    shifts = product_rule([(ks * L, np.ones(len(ks))) for L in periods])[0]
    diffs = (y - x)[None, :] + shifts
    return float(np.sum(np.exp(-np.sum(diffs ** 2, axis=1) / (4 * t)))
                 / (4 * math.pi * t) ** (d / 2))
