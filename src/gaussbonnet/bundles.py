"""Oriented Riemannian plane bundles over the two-chart sphere.

A bundle is the clutching integer k on the north/south stereographic
atlas: rho is the atlas's chart weight, and the transition angle phi (k
times the polar angle, counterclockwise) is one expression in either chart.
A section's chart-a components turn to chart b's by R(-phi)
(`PlaneBundle.transition`).  One Euler 2-form, reached by two code paths,
integrates to k:

* transition path: -(1/2pi) d(rho_other d phi_other,this) assembled from
  1-jets of rho and phi;
* connection path: theta_this = sum_gamma rho_gamma d phi_gamma,this is
  a metric connection by construction, and -(1/2pi) d theta is the same
  2-form (the d = 2 Pfaffian is the single curvature 2-form).

Both paths multiply the same rho and phi 1-jets, so their densities agree
bit for bit: they are one computation, not two checks of each other.  The
reads of k that do not go through this 2-form are the degree of the
clutching map (cos phi, sin phi) on the unit circle (`winding_of_phi`),
computed by `index.sphere_degree`, the rule that gives every local degree
of a field, and the index sum of the section z^k (`index --field z^K`).

Sign convention: counterclockwise winding, fixed by requiring the k = 1
bundle to integrate to +1; the sign agrees with the curvature-density
calibration used for the tangent-bundle integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import eval_jet, parse
from .index import sphere_degree
from .library import stereo_pair_atlas
# metric_jets and integrate_chart are not called here; perfbench/smoke_test.py
# checks that tracing rebinds this module's references to them
from .geometry import metric_jets  # noqa: F401
from .quadrature import integrate_atlas, integrate_chart  # noqa: F401

__all__ = ["PlaneBundle", "make_plane_bundle", "euler_form_transition_batch",
           "connection_form", "connection_and_curvature", "curvature_density_batch",
           "generalized_gbc", "winding_of_phi", "GeneralizedGbcResult"]


@dataclass(frozen=True)
class PlaneBundle:
    """The k-clutched plane bundle; its atlas's chart weights are rho."""

    k: int
    atlas: object

    @cached_property
    def phi(self):
        """phi_{this,other} = k theta in either chart's own coordinates: theta
        flips sign across w~ = 1/w, phi_{other,this} = -phi_{this,other}."""
        return parse(f"{self.k}*atan2(x2, x1)", self.atlas.charts[0].var_names)

    def transition(self, a, b, points):
        """Rotations R(-phi) (N, 2, 2) at (N, 2) chart-a points that take a
        section's chart-a components to its chart-b components."""
        if not any({a, b} == {x, y} for x, y, *_ in self.atlas.identifications):
            raise KeyError(f"charts {a!r} and {b!r} are not identified")
        phi = eval_jet(self.phi, points, self.atlas.chart(a).params, order=0).val
        c, s = np.cos(phi), np.sin(phi)
        return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], 1)


def make_plane_bundle(k, sharpness=6):
    """k-clutched bundle on `stereo_pair_atlas(sharpness)`, whose weights
    are an exact analytic partition of unity; s <= 0 raises ValueError."""
    return PlaneBundle(k, stereo_pair_atlas(sharpness=sharpness))


def _rho_other_jets(bundle, name, points):
    """Value and gradient of the other chart's partition factor in this chart.

    rho_alpha + rho_beta = 1 exactly, so the other factor is 1 - rho_this
    with negated derivatives.
    """
    chart = bundle.atlas.chart(name)
    jet = eval_jet(chart.weight, points, chart.params, order=1)
    return 1.0 - jet.val, -jet.grad


def euler_form_transition_batch(bundle, name, points):
    """dx1 ^ dx2 coefficient of the transition-function Euler 2-form.

    e|_alpha = -(1/2pi) d(rho_beta d phi_beta,alpha); the coefficient is
    the Jacobian-style pairing of the two gradients.
    """
    chart = bundle.atlas.chart(name)
    points = np.asarray(points, dtype=float)
    phi_jet = eval_jet(bundle.phi, points, chart.params, order=1)
    # phi reads phi_{this,other}; the formula needs
    # phi_{other,this} = -phi_{this,other}
    dphi = -phi_jet.grad
    _, drho = _rho_other_jets(bundle, name, points)
    coeff = drho[:, 0] * dphi[:, 1] - drho[:, 1] * dphi[:, 0]
    return -(1.0 / (2 * math.pi)) * coeff


def connection_and_curvature(bundle, name, points):
    """theta_alpha (N, 2) and the dx1 ^ dx2 coefficient of d theta_alpha (N,)
    at (N, 2) points, from one evaluation of the phi and rho jets.

    theta_alpha = sum_gamma rho_gamma d phi_gamma,alpha, an SO(2) connection
    by construction (single angle entry of the skew matrix).  d theta =
    d rho_beta ^ d phi_beta,alpha because d^2 phi = 0; assembled from 1-jets
    of theta's ingredients, the same jets and products as the transition
    route, so the two Euler densities are equal bit for bit.
    """
    chart = bundle.atlas.chart(name)
    points = np.asarray(points, dtype=float)
    phi_jet = eval_jet(bundle.phi, points, chart.params, order=1)
    rho_val, drho = _rho_other_jets(bundle, name, points)
    theta = -rho_val[:, None] * phi_jet.grad  # d phi_other,this = -d phi_this,other
    dphi = -phi_jet.grad
    # d(rho dphi) coefficient of dx^dy:
    #   d_x(rho phi_y) - d_y(rho phi_x) = rho_x phi_y - rho_y phi_x,
    # the term rho (phi_yx - phi_xy) being exactly 0: eval_jet's Hessian is
    # symmetric to the bit
    return theta, drho[:, 0] * dphi[:, 1] - drho[:, 1] * dphi[:, 0]


def connection_form(bundle, name):
    """theta_alpha of `connection_and_curvature` as a callable of (N, 2) points."""
    return lambda points: connection_and_curvature(bundle, name, points)[0]


def curvature_density_batch(bundle, name, points):
    """dx1 ^ dx2 coefficient of -(1/2pi) d theta_alpha."""
    return -(1.0 / (2 * math.pi)) * connection_and_curvature(bundle, name, points)[1]


@dataclass
class GeneralizedGbcResult:
    pf_integral: float
    transition_integral: float


def generalized_gbc(bundle, resolution=96):
    """Both Euler-number routes at one resolution; each should equal the
    clutching integer, which the caller compares."""

    def route(density):
        return integrate_atlas(bundle.atlas, lambda c, p: density(bundle, c.name, p),
                               resolution)

    pf = route(curvature_density_batch)
    tr = route(euler_form_transition_batch)
    return GeneralizedGbcResult(pf, tr)


def winding_of_phi(bundle):
    """Degree of the clutching map (cos phi, sin phi) on the north chart's
    unit circle, by `index.sphere_degree` with the Jacobian from phi's 1-jet.

    Must come out as k (counterclockwise in this chart).
    """
    chart = bundle.atlas.chart("north")

    def clutching_jet(points):
        jet = eval_jet(bundle.phi, points, chart.params, order=1)
        c, s = np.cos(jet.val), np.sin(jet.val)
        return (np.column_stack([c, s]),
                np.stack([-s[:, None] * jet.grad, c[:, None] * jet.grad], axis=1))

    return sphere_degree(clutching_jet, np.zeros(2), 1.0)
