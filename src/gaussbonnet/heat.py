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
* u1(x, y) = -(1/ r) g^{-1/4}(y) int_0^r g^{1/4} Delta_y u0 ds along the
  radial geodesic, with the Laplacian of a radial function evaluated as
  -(h'' + ((d-1)/r + g'/(2g)) h');
* the diagonal value u1(x, x) is the r -> 0 limit of that integral and
  must equal scalar_curvature / 6.

u0, u1 and H_N at one (x, y) are read from one record: one Newton solve of
u = log_x(y), r = |u|, and one batched det(g) shoot along the ray u / r
on a grid with a node at r.  On the diagonal (r = 0) u0 = 1 and u1 is the
limit above, from one shoot along both coordinate rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import NormalCoordinates
from .quadrature import product_rule

__all__ = [
    "FlatTorusSpectrum", "RoundSphereSpectrum", "HeatValue",
    "heat_trace", "supertrace_heat", "asymptotic_fit",
    "supertrace_fit",
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


def heat_trace(model, p, t, tail_tol=1e-12):
    return model.heat_trace(p, t, tail_tol).value


def supertrace_heat(model, t, tail_tol=1e-12):
    """Alternating sum of form-degree traces; integer for all t."""
    value, bound = 0.0, 0.0
    for p in range(model.d + 1):
        tv = model.heat_trace(p, t, tail_tol)
        value += (-1) ** p * tv.value
        bound += tv.tail_bound
    return HeatValue(value, bound)


class FitResult(NamedTuple):
    a0: float
    a1: float
    coefficients: np.ndarray
    condition: float


def asymptotic_fit(model, p, t_list, degree=3, cond_limit=1e12, tail_tol=1e-14):
    """Least-squares fit of (4 pi t)^{d/2} tr e^{-t Laplacian} to a
    polynomial in t; returns the constant and linear coefficients."""
    t = np.asarray(sorted(t_list), dtype=float)
    if len(t) < max(3, degree + 1):
        raise ValueError("need at least degree+1 (and 3) time samples")
    if t.max() > 0.2:
        raise ValueError("fit window must stay in the small-t regime (<= 0.2)")
    d = model.d
    y = np.array([heat_trace(model, p, ti, tail_tol) for ti in t])
    y = y * (4 * math.pi * t) ** (d / 2)
    return _poly_fit(t, y, degree, cond_limit)


def supertrace_fit(model, t_list, degree=3, cond_limit=1e12, tail_tol=1e-14):
    """Fit the (unscaled) supertrace to a polynomial in t.

    The constant term is the topological integer; every t-coefficient must
    vanish since the supertrace is t-independent.
    """
    t = np.asarray(sorted(t_list), dtype=float)
    y = np.array([supertrace_heat(model, ti, tail_tol).value for ti in t])
    return _poly_fit(t, y, degree, cond_limit)


def _poly_fit(t, y, degree, cond_limit):
    vander = np.vander(t, degree + 1, increasing=True)
    scale = np.abs(vander).max(axis=0)
    scaled = vander / scale
    cond = np.linalg.cond(scaled)
    if cond > cond_limit:
        raise ArithmeticError(f"fit matrix ill-conditioned: {cond:.2e}")
    coeffs, *_ = np.linalg.lstsq(scaled, y, rcond=None)
    coeffs = coeffs / scale
    return FitResult(float(coeffs[0]), float(coeffs[1]), coeffs, float(cond))


# --------------------------------------------------------------------------
# Parametrix (p = 0, d = 2, model charts)
# --------------------------------------------------------------------------

class RadialParametrix:
    """u0 and the transport integrand along k radial geodesics from the
    center of one set of normal coordinates.

    Shoots det(g) on a uniform radial grid along every ray in one
    `det_g_batch` call; row i of every array belongs to directions[i].
    Restricted to the pointwise-isotropic model charts, where u0 is a
    function of the radius alone.
    """

    def __init__(self, nc, directions, r_max, grid=33):
        directions = np.asarray(directions, dtype=float)
        self.directions = directions / np.linalg.norm(directions, axis=1,
                                                      keepdims=True)
        # one extra step past r_max keeps central differences centered
        self.h = r_max / (grid - 1)
        self.r = np.arange(grid + 2) * self.h
        k, d = self.directions.shape
        us = self.r[None, 1:, None] * self.directions[:, None, :]
        dets = nc.det_g_batch(us.reshape(-1, d)).reshape(k, grid + 1)
        self.detg = np.concatenate([np.ones((k, 1)), dets], axis=1)
        self.u0 = self.detg ** -0.25

    def laplacian_u0(self):
        """Geometer's Laplacian of the radial u0 at nodes 0..grid, (k, grid + 1)."""
        f, g, h = self.u0, self.detg, self.h
        # radial limit Delta f(0) = -d f''(0); symmetric stencil, f'(0) = 0
        at0 = -2.0 * 2.0 * (f[:, 1] - f[:, 0]) / h ** 2
        f1 = (f[:, 2:] - f[:, :-2]) / (2 * h)
        f2 = (f[:, 2:] - 2 * f[:, 1:-1] + f[:, :-2]) / h ** 2
        gp = (g[:, 2:] - g[:, :-2]) / (2 * h)
        rest = -(f2 + (1.0 / self.r[1:-1] + gp / (2.0 * g[:, 1:-1])) * f1)
        return np.concatenate([at0[:, None], rest], axis=1)

    def u1_at(self, r_target):
        """Transport integral u1 at radius r_target along every ray, (k,)."""
        j = int(round(r_target / self.h))
        if not 1 <= j <= len(self.r) - 2:
            raise ValueError("target radius off the parametrix grid")
        integrand = self.detg[:, :j + 1] ** 0.25 * self.laplacian_u0()[:, :j + 1]
        integral = np.trapezoid(integrand, dx=self.h, axis=1)
        return -integral / self.r[j] * self.detg[:, j] ** -0.25


def _u1_diag(nc):
    """r -> 0 limit of u1: the transport integral at radius 0.15, averaged
    over the two coordinate rays of one record."""
    rp = RadialParametrix(nc, np.eye(2), r_max=1.25 * 0.15, grid=41)
    return float(np.mean(rp.u1_at(0.15)))


def _terms(chart, x, y, n_terms):
    """(r, u0, u1) at (x, y) from one log solve and one radial record on
    the grid whose node grid - 1 is r; u1 is None when n_terms is 0."""
    nc = NormalCoordinates(chart, x)
    u = nc.log(y)
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return r, 1.0, _u1_diag(nc) if n_terms else None
    grid = 33
    rp = RadialParametrix(nc, u[None, :] / r, r_max=r, grid=grid)
    return r, float(rp.u0[0, grid - 1]), float(rp.u1_at(r)[0]) if n_terms else None


def parametrix_u0(chart, x, y):
    """det(g)^{-1/4} at y in normal coordinates centered at x; u0(x, x) = 1."""
    return _terms(chart, x, y, 0)[1]


def parametrix_u1(chart, x, y):
    """Off-diagonal u1(x, y) via the radial transport integral.

    The grid is aligned so the target radius lands exactly on a node.  On
    the diagonal this is the limit parametrix_u1_diag(chart, x).
    """
    return _terms(chart, x, y, 1)[2]


def parametrix_u1_diag(chart, x):
    """Diagonal u1(x, x): small-radius limit of the transport integral.

    Averages the integral at radius 0.15 over the two coordinate rays;
    the limit must equal scalar_curvature(x) / 6.
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


def spectral_kernel_s2(t, r, lmax=None, tail_tol=1e-14):
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
        if lmax is not None and l >= lmax:
            return total
        bound = (1 / t) * math.exp(-l * (l + 1) * t) / (4 * math.pi)
        if lmax is None and bound < tail_tol:
            return total
        p_prev, p_curr = p_curr, ((2 * l + 1) * x * p_curr - l * p_prev) / (l + 1)
        l += 1


def torus_image_kernel(periods, t, x, y, images=4):
    """Flat-torus scalar kernel by the method of images (exact identity)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = len(periods)
    ks = np.arange(-images, images + 1)
    shifts = product_rule([(ks * L, np.ones(len(ks))) for L in periods])[0]
    diffs = (y - x)[None, :] + shifts
    return float(np.sum(np.exp(-np.sum(diffs ** 2, axis=1) / (4 * t)))
                 / (4 * math.pi * t) ** (d / 2))
