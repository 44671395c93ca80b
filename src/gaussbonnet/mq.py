"""Rapid-decay Thom form via Berezin integrals of a fermionic Gaussian.

On a trivial rank-n fiber the form is

    u = eps(n) (2 pi)^{-n/2} B_fiber( exp(-|x|^2/2 - i dx) )
      = (2 pi)^{-n/2} e^{-|x|^2/2} dx^1 ^ ... ^ dx^n,

with total fiber integral 1.  Over a plane bundle with metric connection
theta the same recipe applies to Q = |x|^2/2 + i nabla x + T:

* nabla x^a = dv^a + theta (J v)^a   (J the standard complex rotation),
* T = (d theta) (x) e_1 ^ e_2        (curvature block, A^{2,2}),

and the zero-section pullback reproduces the curvature Euler density
-(1/2 pi) d theta.  The exponential is exact by nilpotency; realness of
every asserted output follows from eps(n) = 1 for even n (odd fibers are
excluded).

One private path, `_thom`, evaluates the form on many total-space points
at once: the exterior algebra carries (N,)-array coefficients, so a batch
of base points, the Gauss-Hermite fiber plane or a difference stencil is
one pass through exp and the Berezin integral.  Single-point entry points
are the same path on scalar coefficients.

Generators of the one exterior algebra: 0..3 = (dx1, dx2, dv1, dv2) on
the total space, then the fiber 4, 5 = (e1, e2).  A term is written
(base tuple, fiber tuple), with fiber generator e_a as index a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundles import connection_and_curvature
from .exterior import (BigradedElement, berezin_fiber, exp_nilpotent,
                       merge_indices, pfaffian_numeric)
# metric_jets and integrate_chart are not called here; perfbench/smoke_test.py
# checks that tracing rebinds this module's references to them
from .geometry import metric_jets  # noqa: F401
from .quadrature import (gauss_rule, integrate_atlas, integrate_chart,  # noqa: F401
                         pairwise_sum, product_rule)

__all__ = ["epsilon", "mq_form_point", "mq_fiber_integral_point",
           "mq_form_bundle", "mq_fiber_integral", "mq_zero_section_density",
           "mq_euler_number", "contraction", "covariant_q_residual",
           "closedness_residual", "berezin_vs_pfaffian_residual",
           "MqEulerResult"]


def epsilon(n):
    if n % 2:
        raise ValueError("odd fiber rank excluded: eps(n) would be imaginary")
    return 1.0


def _berezin_gaussian(q, n):
    """eps(n) (2 pi)^{-n/2} B_fiber(exp(-q)) for a rank-n fiber."""
    return berezin_fiber(exp_nilpotent(-1 * q)) * (epsilon(n) * (2 * math.pi) ** (-n / 2))


def _hermite_plane(nodes):
    """Fiber-plane nodes v = sqrt(2) (t_i, t_j), ascending (i, j), and weights
    for the integral of f(v) dv; the integrands carry their own Gaussian,
    so the Hermite weight exp(-|t|^2) is divided out."""
    rule = gauss_rule("hermite", nodes)
    t, w = product_rule([rule, rule])
    return math.sqrt(2.0) * t, 2.0 * w * np.exp(t[:, 0] ** 2 + t[:, 1] ** 2)


def mq_form_point(n, x):
    """Thom form of a trivial rank-n fiber at fiber point x, (n,) or (N, n).

    Returns the degree-n FormElement over the dx generators; the
    coefficient equals (2 pi)^{-n/2} exp(-|x|^2/2) with imaginary residue
    below 1e-12 (asserted by the caller's tests, not silently dropped).
    """
    x = np.asarray(x, dtype=float)
    terms = {((), ()): 0.5 * np.vecdot(x, x)}
    terms.update({((k,), (k,)): 1j for k in range(n)})  # i dx^k (x) e_k
    return _berezin_gaussian(BigradedElement(n, n, terms), n)


def mq_fiber_integral_point(nodes=40):
    """Gauss-Hermite integral of the rank-2 point-model Thom form over the
    fiber."""
    v, weights = _hermite_plane(nodes)
    return pairwise_sum(weights * mq_form_point(2, v).coefficient((0, 1)).real)


# --------------------------------------------------------------------------
# Plane-bundle version
# --------------------------------------------------------------------------

_NB = 4  # total-space 1-form generators: dx1, dx2, dv1, dv2
_NF = 2


def _connection(bundle, chart_name, points):
    """theta components (..., 2) and the dx1^dx2 coefficient of d theta (...)
    at base points (..., 2), one point or a batch."""
    points = np.asarray(points, dtype=float)
    theta, curvature = connection_and_curvature(bundle, chart_name, points.reshape(-1, 2))
    return theta.reshape(points.shape), curvature.reshape(points.shape[:-1])


def _mq_q(theta, curvature, v):
    """Q = |v|^2/2 + i nabla v + T, row by row over the leading axes."""
    terms = {((), ()): 0.5 * np.vecdot(v, v)}
    # nabla x^a = dv^a + theta (Jv)^a, J e1 = e2, J e2 = -e1
    jv = (-v[..., 1], v[..., 0])
    for a in range(2):
        terms[((2 + a,), (a,))] = 1j  # i dv^a (x) e_a
        for mu in range(2):
            terms[((mu,), (a,))] = 1j * (theta[..., mu] * jv[a])
    # curvature block T = (d theta) (x) e1 ^ e2
    terms[((0, 1), (0, 1))] = curvature
    return BigradedElement(_NB, _NF, terms)


def _thom(theta, curvature, v):
    """eps (2 pi)^{-1} B_fiber(exp(-Q)) over (dx, dv) generators; theta
    (..., 2), curvature (...) and fiber points v (..., 2) broadcast."""
    return _berezin_gaussian(_mq_q(theta, curvature, v), _NF)


def mq_form_bundle(bundle, chart_name, base_x, fiber_v):
    """Thom form at a total-space point, as a form over (dx, dv) generators."""
    return _thom(*_connection(bundle, chart_name, base_x), np.asarray(fiber_v, dtype=float))


def mq_fiber_integral(bundle, chart_name, base_x, nodes=40):
    """Fiber integral of the bundle Thom form at one base point."""
    v, weights = _hermite_plane(nodes)
    u = mq_form_bundle(bundle, chart_name, base_x, v)
    return pairwise_sum(weights * u.coefficient((2, 3)).real)  # pure dv1 ^ dv2


def mq_zero_section_density(bundle, chart_name, points):
    """dx1 ^ dx2 coefficient of the zero-section pullback of u.

    Pulled back along v = 0 the dv-terms die; what remains is the
    (dx1, dx2) coefficient, computed through the Berezin/exponential
    algebra (not through the Pfaffian shortcut).
    """
    c = mq_form_bundle(bundle, chart_name, points, np.zeros(2)).coefficient((0, 1))
    residue = np.abs(np.imag(c)) > 1e-12 * (1 + np.abs(c))
    if np.any(residue):
        raise ArithmeticError(
            f"imaginary residue {np.imag(c)[residue][0]} in Euler density")
    return np.real(c)


def berezin_vs_pfaffian_residual(bundle, chart_name, base_x):
    """|B(exp(-T)) - Pf(-M_T)| at one point: the algebra/Pfaffian bridge."""
    theta, curvature = _connection(bundle, chart_name, base_x)
    via_algebra = _thom(theta, curvature, np.zeros(2)).coefficient((0, 1)).real
    m = np.array([[0.0, curvature], [-curvature, 0.0]])
    via_pfaffian = (2 * math.pi) ** (-1) * pfaffian_numeric(-m)
    return float(abs(via_algebra - via_pfaffian))


@dataclass
class MqEulerResult:
    euler_number: float


def mq_euler_number(bundle, resolution=96):
    """Base integral of the zero-section pullback; equals the clutching k."""
    total = integrate_atlas(bundle.atlas,
                            lambda c, p: mq_zero_section_density(bundle, c.name, p), resolution)
    return MqEulerResult(total)


# --------------------------------------------------------------------------
# Structural probes: the contraction operator and closedness
# --------------------------------------------------------------------------

def contraction(s, element):
    """Interior product a(s) on the fiber generators.

    a(s)(w (x) e_{j1}^...^e_{jq}) =
        sum_k (-1)^{deg w + k - 1} <s, e_{jk}> w (x) (... without e_{jk}),
    that is, (-1)^position of e_{jk} in the flat key.
    """
    s = np.asarray(s, dtype=float)
    nb = element.n_base
    terms = {}
    for key, c in element.terms.items():
        for pos, gen in enumerate(key):
            if gen < nb or s[gen - nb] == 0.0:
                continue
            rest = key[:pos] + key[pos + 1:]
            terms[rest] = terms.get(rest, 0) + (-1) ** pos * s[gen - nb] * c
    return element._new(terms)


def covariant_q_residual(bundle, chart_name, base_x, fiber_v):
    """Max coefficient of (nabla - i a(x)) Q at a total-space point.

    Assembled term by term: nabla(|v|^2/2) = sum v^a dv^a; nabla(nabla x)
    is the curvature applied to the tautological section; nabla T vanishes
    (Bianchi plus a 2-dimensional base); the contraction terms come from
    the a(s) operator above.  Zero residual pins every sign convention.
    """
    theta, curvature = _connection(bundle, chart_name, base_x)
    v = np.asarray(fiber_v, dtype=float)
    q = _mq_q(theta, curvature, v)

    # nabla Q
    grad = BigradedElement(_NB, _NF, {((2,), ()): v[0], ((3,), ()): v[1]})
    # nabla(nabla x) = Theta x: Theta = curvature * J
    theta_x = np.array([-curvature * v[1], curvature * v[0]])
    for a in range(2):
        if theta_x[a] != 0.0:
            grad = grad + BigradedElement(
                _NB, _NF, {((0, 1), (a,)): 1j * theta_x[a]})
    # nabla T = 0 exactly (top base degree in the dx directions)
    residual = grad - 1j * contraction(v, q)
    return residual.max_abs()


def closedness_residual(bundle, chart_name, base_x, fiber_v):
    """Max coefficient of the numerically assembled d(u) at a point.

    Coefficient functions of u over the 4 total-space generators are
    differentiated by central differences in (x1, x2, v1, v2); the
    3-form d(u) must vanish since B(exp(-Q)) is closed.  The whole
    stencil, rows z0 + h e_c then z0 - h e_c, is one batch.
    """
    h = 1e-4
    z0 = np.concatenate([np.asarray(base_x, dtype=float),
                         np.asarray(fiber_v, dtype=float)])
    z = z0 + h * np.vstack([np.eye(4), -np.eye(4)])
    u = mq_form_bundle(bundle, chart_name, z[:, :2], z[:, 2:])
    residual = {}
    for c in range(4):
        for key, coef in u.terms.items():
            dcoef = (coef[c] - coef[4 + c]) / (2 * h)
            sign, merged = merge_indices((c,), key)
            if sign:
                residual[merged] = residual.get(merged, 0) + sign * dcoef
    return max((abs(val) for val in residual.values()), default=0.0)
