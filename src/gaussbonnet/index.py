"""Poincare-Hopf machinery: zero finding, local degrees, index sums.

Local degree at an isolated zero, in every dimension d >= 2: the mapping
degree of X/|X| as the integral of the pulled-back normalized volume form
of the unit sphere over a small coordinate sphere (`sphere_degree`, the
one degree rule; `bundles.winding_of_phi` applies it to the clutching
map).  Degrees are accepted only when integer-stable across two radii.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .expr import eval_jet, parse, shared_program
from .quadrature import axis_rule, product_rule

__all__ = ["VectorFieldSpec", "ZeroRecord", "IndexResult", "DegreeError",
           "find_zeros", "local_degree", "sphere_degree", "index_sum",
           "field_consistency_residual"]

log = logging.getLogger(__name__)

_NEWTON_MAX_ITER = 60
_NEWTON_TOL = 1e-12  # |X| at an accepted zero
_SPHERE_NODES = 48  # Gauss nodes per polar angle of a sphere degree


class DegreeError(RuntimeError):
    pass


@dataclass
class VectorFieldSpec:
    """Per-chart component expressions of a vector field or bundle section.

    kind is "vector" (components transform by chart Jacobians) or
    "section" (components transform by the bundle transition rotation, and
    only up to positive rescaling: zeros and degrees are scale-invariant).
    """

    name: str
    kind: str
    components: dict
    atlas: object
    expected: int | None = None
    parsed: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("vector", "section"):
            raise ValueError("kind must be 'vector' or 'section'")
        for chart_name, comps in self.components.items():
            chart = self.atlas.chart(chart_name)
            exprs = tuple(
                parse(c, chart.var_names, chart.params) if isinstance(c, str) else c
                for c in comps)
            if len(exprs) != chart.dim:
                raise ValueError(f"{chart_name}: need {chart.dim} components")
            self.parsed[chart_name] = exprs

    @cached_property
    def programs(self):
        """One jet program per chart over its components, compiled on first
        use, once per process for equal components."""
        return {name: shared_program(exprs) for name, exprs in self.parsed.items()}

    def values(self, chart_name, points, order=0):
        chart = self.atlas.chart(chart_name)
        points = np.asarray(points, dtype=float)
        jet = eval_jet(self.programs[chart_name], points, chart.params, order)
        if order == 0:
            return jet.val
        return jet.val, jet.grad.transpose(0, 2, 1)  # grads[n, component, axis]


@dataclass
class ZeroRecord:
    chart: str
    x: np.ndarray
    local_degree: int
    raw_degree: float
    radius: float


@dataclass
class IndexResult:
    total: int
    zeros: list
    dropped: list = field(default_factory=list)


# --------------------------------------------------------------------------
# Zero finding
# --------------------------------------------------------------------------

def _newton_refine(fieldspec, chart_name, x0):
    x = np.array(x0, dtype=float)
    chart = fieldspec.atlas.chart(chart_name)
    for _ in range(_NEWTON_MAX_ITER):
        vals, grads = fieldspec.values(chart_name, x[None, :], order=1)
        f = vals[0]
        nrm = np.linalg.norm(f)
        if nrm < _NEWTON_TOL:
            return x
        jac = grads[0]
        if not np.all(np.isfinite(jac)):
            return None  # the field is not differentiable here
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, f, rcond=None)
        lam = 1.0
        for _ in range(25):
            cand = x - lam * step
            if chart.contains(cand, margin=1e-9):
                cand_n = np.linalg.norm(fieldspec.values(chart_name, cand[None, :])[0])
                if cand_n < nrm:
                    x = cand
                    break
            lam *= 0.5
        else:
            return None
    vals = fieldspec.values(chart_name, x[None, :])[0]
    return x if np.linalg.norm(vals) < _NEWTON_TOL else None


def _grid(chart, n):
    """n scan points per axis, one cell (hi - lo) / n apart: cell midpoints
    on a bounded axis, and on a periodic axis lo, ..., hi - cell, so the
    seam is scanned once."""
    axes = []
    for (lo, hi), per in zip(chart.ranges, chart.periodic):
        pad = 0.0 if per else (hi - lo) / (2 * n)
        axes.append((np.linspace(lo + pad, hi - pad, n, endpoint=not per), np.ones(n)))
    return product_rule(axes)[0], [n] * chart.dim


def find_zeros(fieldspec, scan_resolution=48):
    """Grid scan for |X|^2 minima, Newton refinement, cross-chart dedup.

    Zeros closer than half a scan cell (periodic axes wrapped, so a zero
    on a seam is found once) are indistinguishable at scan resolution and
    are merged (Newton stalls at that scale for degenerate
    zeros anyway; the two-radius degree check guards correctness).  Two
    distinct zeros of one chart within 1.5 scan cells on every axis mean
    the scan does not isolate them (a curve or surface of zeros refines
    to one zero per scan point): DegreeError.
    An exact tie between neighbouring scan points goes to the lower flat
    index; the tied points are Newton starts too only on a chart where a
    tie-broken start found a zero, so a plateau of a nowhere-zero field
    costs one failed start.
    Returns (zeros, dropped) where dropped collects Newton failures
    (reported, not silently ignored).
    """
    atlas = fieldspec.atlas
    candidates = []
    dropped = []
    cell = {}  # scan cell widths per axis
    for chart in atlas.charts:
        if chart.name not in fieldspec.parsed:
            continue
        cell[chart.name] = np.array([hi - lo for lo, hi in chart.ranges]) / scan_resolution
        pts, shape = _grid(chart, scan_resolution)
        norms = np.linalg.norm(fieldspec.values(chart.name, pts), axis=1)
        grid = norms.reshape(shape)
        # local minima over the scan grid (interior in non-periodic axes)
        minima, tied = _local_minima(grid, chart.periodic)
        refined = {i: _newton_refine(fieldspec, chart.name, pts[i]) for i in minima}
        if any(x is not None for x in refined.values()):
            # a zero on this chart: start from every tied minimum as well, so
            # coincident and non-isolated zeros still show
            refined.update((i, _newton_refine(fieldspec, chart.name, pts[i]))
                           for i in tied if i not in refined)
        for flat_idx in sorted(refined):
            x0 = pts[flat_idx]
            if refined[flat_idx] is None:
                dropped.append((chart.name, x0))
                log.warning("Newton did not converge from %s on %s; "
                            "candidate dropped", x0, chart.name)
                continue
            candidates.append((chart.name, refined[flat_idx]))
    zeros = []
    for cname, x in candidates:
        chart = atlas.chart(cname)
        tol = 0.45 * cell[cname].min()
        images = [(cname, x), *atlas.other_coords(cname, x)]
        if any(zname == name and np.linalg.norm(_chart_offset(atlas.chart(name), zx, y)) < tol
               for zname, zx in zeros for name, y in images):
            continue  # duplicate
        if any(zname == cname
               and np.all(np.abs(_chart_offset(chart, zx, x)) <= 1.5 * cell[cname])
               for zname, zx in zeros):
            raise DegreeError(f"zeros near {x} on chart {cname!r} are not "
                              f"isolated at scan resolution {scan_resolution}")
        zeros.append((cname, x))
    # prefer the representative closer to its chart origin
    deduped = []
    for cname, x in zeros:
        best = (cname, x)
        for oname, ox in atlas.other_coords(cname, x):
            if oname in fieldspec.parsed and np.linalg.norm(ox) < np.linalg.norm(x):
                refined = _newton_refine(fieldspec, oname, ox)
                if refined is not None:
                    best = (oname, refined)
        deduped.append(best)
    return deduped, dropped


def _chart_offset(chart, y, x):
    """y - x in one chart's coordinates, periodic axes wrapped into
    [-period / 2, period / 2)."""
    diff = np.array(y - x, dtype=float)
    for i, (lo, hi) in enumerate(chart.ranges):
        if chart.periodic[i]:
            diff[i] = (diff[i] + (hi - lo) / 2) % (hi - lo) - (hi - lo) / 2
    return diff


def _local_minima(grid, periodic):
    """Local minima that are plausibly near a zero, as two lists of
    ascending flat indices: ``(minima, tied)``.

    ``tied`` holds every point that no neighbour undercuts; ``minima``
    breaks exact ties between neighbours toward the lower flat index, so a
    plateau of equal |X| gives one candidate, not one per scan point.
    A candidate must also be small compared to the spread across its own
    neighborhood, which rejects the everywhere-flat profile of a
    nowhere-zero field without losing steep genuine zeros.  Periodic axes
    wrap; on the others an out-of-range neighbour is NaN, so it enters
    neither the comparison nor the spread.
    """
    is_min = np.ones(grid.shape, dtype=bool)
    wins_ties = np.ones(grid.shape, dtype=bool)
    spread = np.zeros(grid.shape)
    flat = np.arange(grid.size).reshape(grid.shape)
    for axis in range(grid.ndim):
        for step in (-1, 1):
            other = np.roll(grid, -step, axis=axis)  # other[i] = grid[i + step]
            if not periodic[axis]:
                edge = [slice(None)] * grid.ndim
                edge[axis] = -1 if step == 1 else 0
                other[tuple(edge)] = np.nan
            is_min &= ~(other < grid)
            wins_ties &= ~((other == grid) & (np.roll(flat, -step, axis=axis) < flat))
            spread = np.fmax(spread, other - grid)
    tied = is_min & (grid < 4.0 * spread + 1e-9)
    return np.flatnonzero(tied & wins_ties).tolist(), np.flatnonzero(tied).tolist()


# --------------------------------------------------------------------------
# Local degree
# --------------------------------------------------------------------------

def sphere_degree(jet, center, radius):
    """Mapping degree of u = X/|X| on the (d-1)-sphere |x - center| = radius.

    `jet(points)` gives X (N, d) and its Jacobians (N, d, d), indexed
    [point, component, axis], at (N, d) points.  Integrates the pullback
    of the normalized volume form: the integrand is
    det[u, du/dphi_1, ..., du/dphi_{d-1}] over a latitude-longitude
    product grid with open nodes; derivatives of u come from the jet and
    the exact chart of the sphere parametrization.  For d = 2 this is the
    periodic rule on 2 * _SPHERE_NODES circle nodes.
    """
    d = len(center)
    m = d - 1
    # angles: phi_1..phi_{m-1} in (0, pi) Gauss, phi_m in (0, 2 pi) uniform
    rules = [axis_rule(0.0, math.pi, _SPHERE_NODES, False) for _ in range(m - 1)]
    rules.append(axis_rule(0.0, 2 * math.pi, 2 * _SPHERE_NODES, True))
    angles, w = product_rule(rules)
    n = len(angles)

    # embedding of S^{d-1}: component k is prod_{j<k} sin(phi_j) times
    # cos(phi_k) for k < m, and prod_{j<m} sin(phi_j) for the last one
    def component(k, diff_at=None):
        out = np.ones(n)
        stop = k if k < m else m
        for j in range(stop):
            out = out * (np.cos(angles[:, j]) if j == diff_at else np.sin(angles[:, j]))
        if k < m:
            out = out * (-np.sin(angles[:, k]) if diff_at == k else np.cos(angles[:, k]))
        return out

    e = np.column_stack([component(k) for k in range(d)])
    de = np.zeros((n, m, d))
    for a in range(m):
        for k in range(d):
            if (k < m and a <= k) or (k == m and a < m):
                de[:, a, k] = component(k, diff_at=a)

    pts = center[None, :] + radius * e
    vals, grads = jet(pts)
    norms = np.linalg.norm(vals, axis=1)
    if norms.min() < 1e-13:
        raise DegreeError("field vanishes on the test sphere")
    u = vals / norms[:, None]
    # du/dphi_a = (I - u u^T) (dX/dx) (dx/dphi_a) / |X|; u is a row of the
    # determinant, so the -u u^T part is a row operation and is left out
    dx = radius * de  # (n, m, d)
    du = np.einsum("nca,nma->nmc", grads, dx) / norms[:, None, None]
    mats = np.concatenate([u[:, None, :], du], axis=1)  # rows: u, du_1.., du_m
    dets = np.linalg.det(mats)
    total = float(np.sum(dets * w))
    sphere_vol = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
    return total / sphere_vol


def local_degree(fieldspec, chart_name, zero, radius):
    """Degree of X/|X| around a zero, with the two-radius stability guard."""
    center = np.asarray(zero, dtype=float)
    chart = fieldspec.atlas.chart(chart_name)
    # the sphere's extreme points on every axis; the radius / 2 sphere lies inside
    offsets = radius * np.eye(len(center))
    if not chart.contains(np.concatenate([center + offsets, center - offsets])):
        raise DegreeError(f"radius {radius} leaves chart {chart_name!r}")
    jet = partial(fieldspec.values, chart_name, order=1)
    results = []
    for r in (radius, radius / 2):
        raw = sphere_degree(jet, center, r)
        rounded = int(round(raw))
        if abs(raw - rounded) >= 0.1:
            raise DegreeError(
                f"degree {raw:.4f} at radius {r} is not within 0.1 of an integer")
        results.append((rounded, raw))
    if results[0][0] != results[1][0]:
        raise DegreeError(
            f"degree not integer-stable: {results[0][0]} at r={radius}, "
            f"{results[1][0]} at r={radius / 2}")
    return ZeroRecord(chart_name, center, results[0][0], results[0][1], radius)


def _default_radius(chart, x):
    room = []
    for i, (lo, hi) in enumerate(chart.ranges):
        if chart.periodic[i]:
            room.append((hi - lo) / 4)
        else:
            room.append(min(x[i] - lo, hi - x[i]))
    return 0.6 * min(room)


def _neighbour_distance(atlas, zeros, i):
    """Distance from zero i to the nearest other zero in zero i's chart
    coordinates, periodic axes wrapped; images of the other zeros under the
    atlas's identifications count, non-finite ones are skipped."""
    cname, x = zeros[i]
    chart = atlas.chart(cname)
    nearest = math.inf
    for j, (zname, zx) in enumerate(zeros):
        if j == i:
            continue
        for name, y in ((zname, zx), *atlas.other_coords(zname, zx)):
            if name == cname and np.all(np.isfinite(y)):
                nearest = min(nearest, float(np.linalg.norm(_chart_offset(chart, y, x))))
    return nearest


def index_sum(fieldspec, scan_resolution=48):
    """Sum of local degrees over all zeros (the caller compares it with the
    field's declared `expected`).  Each sphere stays within its chart and
    reaches less than half way to the nearest other zero."""
    zeros, dropped = find_zeros(fieldspec, scan_resolution)
    records = []
    for i, (cname, x) in enumerate(zeros):
        chart = fieldspec.atlas.chart(cname)
        radius = min(0.25, _default_radius(chart, x),
                     0.45 * _neighbour_distance(fieldspec.atlas, zeros, i))
        records.append(local_degree(fieldspec, cname, x, radius))
    total = sum(rec.local_degree for rec in records)
    return IndexResult(total, records, dropped)


# --------------------------------------------------------------------------
# Transition consistency of built-in fields
# --------------------------------------------------------------------------

def field_consistency_residual(fieldspec, transition_fn):
    """Largest overlap mismatch of the field seen from both charts, at 40
    seeded points of the annulus 0.7 <= |x| <= 1.4.

    `transition_fn(x)` is the 2x2 matrix carrying first-chart components
    into second-chart components: the chart Jacobian for vector fields,
    the clutching rotation for sections.  Vector fields must match
    exactly; sections are compared as directions only (zeros and degrees
    are invariant under positive rescaling).
    """
    atlas = fieldspec.atlas
    if not atlas.identifications:
        return 0.0
    a_name, b_name, ab, _ = atlas.identifications[0]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(40):
        r = rng.uniform(0.7, 1.4)
        th = rng.uniform(0, 2 * math.pi)
        xa = np.array([r * math.cos(th), r * math.sin(th)])
        xb = ab(xa)
        va = fieldspec.values(a_name, xa[None, :])[0]
        vb = fieldspec.values(b_name, xb[None, :])[0]
        pushed = transition_fn(xa) @ va
        if fieldspec.kind == "vector":
            worst = max(worst, float(np.linalg.norm(pushed - vb)))
        else:
            pn, vn = np.linalg.norm(pushed), np.linalg.norm(vb)
            if pn == 0 or vn == 0:
                worst = max(worst, abs(pn - vn))
            else:
                worst = max(worst, float(np.linalg.norm(pushed / pn - vb / vn)))
    return worst
