"""Poincare-Hopf machinery: zero finding, local degrees, index sums.

Local degree at an isolated zero: in dimension 2, the winding number of
X/|X| around a small circle (angle accumulation with increments kept
below pi); in dimension >= 3, the mapping degree as the integral of the
pulled-back normalized volume form of the unit sphere over a small
coordinate sphere.  Degrees are accepted only when integer-stable across
two radii.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import eval_jet, parse, shared_program
from .quadrature import axis_rule, product_rule

__all__ = ["VectorFieldSpec", "ZeroRecord", "IndexResult", "DegreeError",
           "find_zeros", "local_degree", "index_sum", "field_consistency_residual"]

log = logging.getLogger(__name__)


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
    section_degree: int | None = None
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

def _newton_refine(fieldspec, chart_name, x0, max_iter=60, tol=1e-12):
    x = np.array(x0, dtype=float)
    chart = fieldspec.atlas.chart(chart_name)
    for _ in range(max_iter):
        vals, grads = fieldspec.values(chart_name, x[None, :], order=1)
        f = vals[0]
        nrm = np.linalg.norm(f)
        if nrm < tol:
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
    return x if np.linalg.norm(vals) < tol else None


def _grid(chart, n):
    axes = []
    for (lo, hi), per in zip(chart.ranges, chart.periodic):
        pad = 0.0 if per else (hi - lo) / (2 * n)
        axes.append((np.linspace(lo + pad, hi - pad, n), np.ones(n)))
    return product_rule(axes)[0], [n] * chart.dim


def find_zeros(fieldspec, scan_resolution=48, merge_tol=None):
    """Grid scan for |X|^2 minima, Newton refinement, cross-chart dedup.

    Zeros closer than half a scan cell are indistinguishable at scan
    resolution and are merged (Newton stalls at that scale for degenerate
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
        tol = merge_tol if merge_tol is not None else 0.45 * cell[cname].min()
        images = [(cname, x), *atlas.other_coords(cname, x)]
        if any(zname == name and np.linalg.norm(zx - y) < tol
               for zname, zx in zeros for name, y in images):
            continue  # duplicate
        if any(zname == cname and np.all(np.abs(zx - x) <= 1.5 * cell[cname])
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

def _winding_2d(fieldspec, chart_name, center, radius, n_samples=720):
    for attempt in range(6):
        theta = np.linspace(0.0, 2 * math.pi, n_samples, endpoint=False)
        pts = np.column_stack([center[0] + radius * np.cos(theta),
                               center[1] + radius * np.sin(theta)])
        vals = fieldspec.values(chart_name, pts)
        norms = np.linalg.norm(vals, axis=1)
        if norms.min() < 1e-13:
            raise DegreeError("field vanishes on the test circle")
        ang = np.arctan2(vals[:, 1], vals[:, 0])
        inc = np.diff(np.concatenate([ang, ang[:1]]))
        inc = (inc + math.pi) % (2 * math.pi) - math.pi
        if np.abs(inc).max() < math.pi - 1e-9:
            return float(inc.sum() / (2 * math.pi))
        n_samples *= 2  # enforce increments < pi
    raise DegreeError("winding increments stayed too large after refinement")


def _sphere_degree(fieldspec, chart_name, center, radius, n_nodes=48):
    """Mapping degree of X/|X| on a small (d-1)-sphere, d >= 3.

    Integrates the pullback of the normalized volume form: the integrand
    is det[u, du/dphi_1, ..., du/dphi_{d-1}] over a latitude-longitude
    product grid with open nodes; derivatives of u come from field jets
    and the exact chart of the sphere parametrization.
    """
    d = len(center)
    m = d - 1
    # angles: phi_1..phi_{m-1} in (0, pi) Gauss, phi_m in (0, 2 pi) uniform
    rules = [axis_rule(0.0, math.pi, n_nodes, False) for _ in range(m - 1)]
    rules.append(axis_rule(0.0, 2 * math.pi, 2 * n_nodes, True))
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
    vals, grads = fieldspec.values(chart_name, pts, order=1)
    norms = np.linalg.norm(vals, axis=1)
    if norms.min() < 1e-13:
        raise DegreeError("field vanishes on the test sphere")
    u = vals / norms[:, None]
    # du/dphi_a = (I - u u^T) (dX/dx) (dx/dphi_a) / |X|
    dx = radius * de  # (n, m, d)
    du = np.einsum("nca,nma->nmc", grads, dx) / norms[:, None, None]
    du = du - np.einsum("nmc,nc,nk->nmk", du, u, u)
    mats = np.concatenate([u[:, None, :], du], axis=1)  # rows: u, du_1.., du_m
    dets = np.linalg.det(mats)
    total = float(np.sum(dets * w))
    sphere_vol = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
    return total / sphere_vol


def local_degree(fieldspec, chart_name, zero, radius, n_samples=720):
    """Degree of X/|X| around a zero, with the two-radius stability guard."""
    center = np.asarray(zero, dtype=float)
    d = len(center)
    chart = fieldspec.atlas.chart(chart_name)
    for r in (radius, radius / 2):
        probe = center.copy()
        probe[0] += r
        if not chart.contains(probe, margin=0.0):
            raise DegreeError(f"radius {r} leaves chart {chart_name!r}")
    results = []
    for r in (radius, radius / 2):
        if d == 2:
            raw = _winding_2d(fieldspec, chart_name, center, r, n_samples)
        else:
            raw = _sphere_degree(fieldspec, chart_name, center, r)
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


def index_sum(fieldspec, scan_resolution=48, radius=None):
    """Sum of local degrees over all zeros (the caller compares it with the
    field's declared `expected`)."""
    zeros, dropped = find_zeros(fieldspec, scan_resolution)
    records = []
    for cname, x in zeros:
        chart = fieldspec.atlas.chart(cname)
        r = radius if radius is not None else min(0.25, _default_radius(chart, x))
        records.append(local_degree(fieldspec, cname, x, r))
    total = sum(rec.local_degree for rec in records)
    return IndexResult(total, records, dropped)


# --------------------------------------------------------------------------
# Transition consistency of built-in fields
# --------------------------------------------------------------------------

def field_consistency_residual(fieldspec, transition_fn, samples=40, seed=0,
                               annulus=(0.7, 1.4)):
    """Largest overlap mismatch of the field seen from both charts.

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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r = rng.uniform(*annulus)
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
