"""Chart-based Riemannian geometry.

A Chart is a coordinate box with metric entries given as expressions; all
curvature data is derived from exact 2-jets of the metric.  The sign
conventions, fixed once and consumed by the curvature-integral modules:

* R^r_{smn} = d_m Gamma^r_{ns} - d_n Gamma^r_{ms}
              + Gamma^r_{ml} Gamma^l_{ns} - Gamma^r_{nl} Gamma^l_{ms}
* riemann[i,j,k,l] = g_{ir} R^r_{jkl}; both index pairs antisymmetric,
  pair-symmetric, and riemann[0,1,0,1] = +sin^2(theta) on the unit sphere
  (sectional curvature +1).
* The orthonormal frame is Gram-Schmidt on the coordinate basis in order,
  equivalently the inverse transpose Cholesky factor of g; it is upper
  triangular with positive diagonal, hence positively oriented.
* omega2[a][b] = sum_{k<l} Rf[a,b,k,l] w^k ^ w^l in frame indices.

Curvature lives on Lambda^2: `point_geometry_batch` builds the lowered
tensor only on the index pairs a < b (`curvature_pairs`), a P x P block
with P = d(d-1)/2, straight from the metric 2-jet and Gamma, and moves it
to the frame with the second exterior power of the frame.  The densities
read that block; the full 4-tensors are scattered from it when first read.

Batched functions operate on (N, d) point arrays and return stacked
tensors; `point_geometry`, the full record at one point that the oracle
routes read, is row 0 of a one-point batch.  Geodesics and parallel
transport share one batched RK4 integrator: geodesic, geodesic_transport
and parallel_transport are batch-of-one wrappers around it, and every
geodesic row is wrapped on periodic axes and range-checked after every
step.  Each integration evaluates in one batch what it knows before
stepping: parallel_transport follows a prescribed path, so Gamma at all
of its stage points is one christoffels_at call; a geodesic's own stages
depend on its state, so each costs one run of the chart's order-1 metric
program, bound once per integration.  Normal coordinates carry Jacobi
fields, so dexp is exact rather than a difference quotient of exp.  The
Jacobi equation is linear along a known geodesic, so the fields are a
second pass: one order-2 metric jet batch on the finished geodesic's
stage points, then RK4 on (J, J').  Each row takes its step count from
its own radius, at a density per consumer chosen from its measured error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .expr import Expr, Num, eval_jet, parse, shared_program, variable_support
from .exterior import FormElement, SkewFormMatrix

__all__ = [
    "Chart", "Atlas", "PointGeometry", "GeometryError",
    "metric_jets", "point_geometry", "point_geometry_batch", "curvature_pairs",
    "christoffels_at", "geodesic", "geodesic_batch", "geodesic_transport",
    "parallel_transport", "NormalCoordinates",
]


class GeometryError(RuntimeError):
    pass


@dataclass(frozen=True)
class Chart:
    """Coordinate box with expression-valued metric entries.

    metric maps (i, j) with i <= j (upper triangle, 0-based) to Expr;
    weight is an optional partition-of-unity factor (default 1).
    """

    name: str
    dim: int
    ranges: tuple          # ((lo, hi), ...) per coordinate
    periodic: tuple        # (bool, ...) per coordinate
    metric: dict
    weight: Expr | None = None
    params: dict = field(default_factory=dict)
    var_names: tuple = ()

    def __post_init__(self):
        if len(self.ranges) != self.dim or len(self.periodic) != self.dim:
            raise ValueError("ranges/periodic must match dim")
        if not self.var_names:
            object.__setattr__(self, "var_names",
                               tuple(f"x{i + 1}" for i in range(self.dim)))

    @classmethod
    def from_strings(cls, name, dim, ranges, periodic, metric_entries,
                     weight=None, params=None, var_names=None):
        """Build a chart from expression strings (upper-triangle metric)."""
        params = dict(params or {})
        var_names = tuple(var_names or (f"x{i + 1}" for i in range(dim)))
        metric = {}
        for (i, j), text in metric_entries.items():
            if i > j:
                raise ValueError("give the upper triangle only")
            metric[(i, j)] = parse(text, var_names, params) \
                if isinstance(text, str) else text
        w = parse(weight, var_names, params) if isinstance(weight, str) else weight
        return cls(name, dim, tuple(tuple(r) for r in ranges), tuple(periodic),
                   metric, w, params, var_names)

    def contains(self, x, margin=0.0):
        """True when the point x, or every row of an (N, d) array, lies
        strictly inside the non-periodic ranges."""
        x = np.asarray(x)
        for i, (lo, hi) in enumerate(self.ranges):
            if self.periodic[i]:
                continue
            if not np.all((lo + margin < x[..., i]) & (x[..., i] < hi - margin)):
                return False
        return True

    def wrap(self, x):
        """Wrap periodic coordinates back into their fundamental interval."""
        x = np.array(x, dtype=float)
        for i, (lo, hi) in enumerate(self.ranges):
            if self.periodic[i]:
                x[..., i] = lo + np.mod(x[..., i] - lo, hi - lo)
        return x

    def weight_values(self, points):
        if self.weight is None:
            return np.ones(len(points))
        return eval_jet(self.weight, points, self.params, order=0).val

    @cached_property
    def support(self):
        """Axes that the metric entries or the weight read (a frozenset).

        Every other axis is a coordinate Killing field, along which the
        curvature density, sqrt(det g) and the weight are all constant.
        Computed on first use, so building a chart stays as cheap as parsing.
        """
        exprs = list(self.metric.values())
        if self.weight is not None:
            exprs.append(self.weight)
        return frozenset().union(*map(variable_support, exprs))

    @cached_property
    def metric_program(self):
        """One jet program over the d x d grid of metric entries in row-major
        order, (j, i) the node of (i, j) and an absent entry Num(0.0);
        compiled on first evaluation, once per process for equal entries."""
        zero, d = Num(0.0), self.dim
        return shared_program(tuple(self.metric.get((min(i, j), max(i, j)), zero)
                                    for i in range(d) for j in range(d)))


@dataclass(frozen=True)
class Atlas:
    """Charts plus optional overlap identifications.

    identifications: list of (name_a, name_b, map_ab, map_ba) where map_ab
    sends chart-a coordinates to chart-b coordinates on the overlap.
    """

    charts: tuple
    identifications: tuple = ()

    @property
    def dim(self):
        return self.charts[0].dim

    def chart(self, name):
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(f"no chart named {name!r}")

    def other_coords(self, chart_name, x):
        """Map a point to every other chart that contains its image."""
        out = []
        for (a, b, ab, ba) in self.identifications:
            if a == chart_name:
                out.append((b, ab(np.asarray(x, dtype=float))))
            elif b == chart_name:
                out.append((a, ba(np.asarray(x, dtype=float))))
        return out


@dataclass
class PointGeometry:
    """Metric, connection and curvature data at a single chart point."""

    x: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray          # gamma[k, i, j] = Gamma^k_{ij}, symmetric in (i, j)
    riemann: np.ndarray        # fully lowered, both index pairs antisymmetric
    frame: np.ndarray          # columns are the orthonormal frame in coordinates
    riemann_frame: np.ndarray  # curvature in orthonormal frame indices
    scalar_curvature: float
    sqrt_det_g: float

    @property
    def omega2(self):
        """Curvature 2-forms as a skew matrix of FormElements over the coframe."""
        d = len(self.x)
        zero = FormElement(d)
        ent = [[zero for _ in range(d)] for _ in range(d)]
        for a in range(d):
            for b in range(a + 1, d):
                terms = {}
                for k in range(d):
                    for l in range(k + 1, d):
                        c = self.riemann_frame[a, b, k, l]
                        if c != 0.0:
                            terms[(k, l)] = complex(c)
                ent[a][b] = FormElement(d, terms)
                ent[b][a] = -1 * ent[a][b]  # skew exactly, by construction
        return SkewFormMatrix(d, ent)


def metric_jets(chart, points, order=2):
    """Metric values and derivatives at a batch of points.

    Returns (g, dg, d2g) with dg[n,a,i,j] = d_a g_ij and
    d2g[n,a,b,i,j] = d_a d_b g_ij; higher entries are None below `order`.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    jet = eval_jet(chart.metric_program, points, chart.params, order)
    return (jet.val.reshape(n, d, d),
            None if jet.grad is None else jet.grad.reshape(n, d, d, d),
            None if jet.hess is None else jet.hess.reshape(n, d, d, d, d))


def _cholesky_psd(g, chart, points):
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        bad = None
        for k in range(len(g)):
            try:
                np.linalg.cholesky(g[k])
            except np.linalg.LinAlgError:
                bad = points[k]
                break
        raise GeometryError(
            f"metric not positive definite on chart {chart.name!r} at {bad}")


def _christoffels(g_inv, dg):
    """(t, gamma): t[n,l,i,j] = d_i g_jl + d_j g_il - d_l g_ij and
    gamma[n,k,i,j] = 0.5 g^{kl} t[l,i,j], one batched matmul."""
    n, d = g_inv.shape[:2]
    t = dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg
    return t, 0.5 * np.matmul(g_inv, t.reshape(n, d, d * d)).reshape(n, d, d, d)


def _christoffel_function(chart):
    """Gamma at (N, d) rows: one program run, one inv and one `_christoffels`.

    The chart's order-1 metric program is resolved once, here, so an RK4
    stage that calls the result resolves nothing.  `christoffels_at` is
    this function; every integrator stage uses it.
    """
    program = chart.metric_program.variant(1, chart.params)

    def gamma(points):
        n, d = points.shape
        jet = program(points)
        return _christoffels(np.linalg.inv(jet.val.reshape(n, d, d)),
                             jet.grad.reshape(n, d, d, d))[1]

    return gamma


def christoffels_at(chart, points):
    """Batched Christoffel symbols Gamma^k_{ij} (order-1 metric jets only)."""
    return _christoffel_function(chart)(np.asarray(points, dtype=float))


def _connection_jets(g_inv, dg, d2g):
    """(gamma, dgamma) with dgamma[n,m,k,i,j] = d_m Gamma^k_{ij}, for the
    Jacobi right-hand side of `_geodesic_flow`; curvature does not use it.

    The contractions are batched matmuls on reshaped tensors (the einsum
    equivalents are kept in comments; matmul is 2-3x faster here).
    """
    n, d = g_inv.shape[:2]
    t, gamma = _christoffels(g_inv, dg)
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.matmul(np.matmul(g_inv[:, None], dg), g_inv[:, None])
    dt = (d2g.transpose(0, 1, 4, 2, 3) + d2g.transpose(0, 1, 4, 3, 2)
          - d2g.transpose(0, 1, 2, 3, 4))
    # dgamma[n,m,k,i,j] = 0.5 (dginv[m,k,l] t[l,i,j] + g^{kl} dt[m,l,i,j])
    dgamma = 0.5 * (np.matmul(dginv, t.reshape(n, 1, d, d * d))
                    + np.matmul(g_inv[:, None], dt.reshape(n, d, d, d * d))
                    ).reshape(n, d, d, d, d)
    return gamma, dgamma


@lru_cache(maxsize=None)
def curvature_pairs(d):
    """The index pairs (a, b), a < b, in row-major order: the rows and
    columns of a curvature block in dimension d."""
    return tuple((a, b) for a in range(d) for b in range(a + 1, d))


class _PairTables(NamedTuple):
    """Read-only index tables of the curvature block in dimension d, with
    rows (r, s) and columns (m, v) from `curvature_pairs`."""
    hess: np.ndarray     # (4, P, P) flat (d, d, d, d) Hessian positions of
    #                      d_s d_m g_rv, d_r d_v g_sm, d_s d_v g_rm, d_r d_m g_sv
    sym: np.ndarray      # (Q,) flat d x d positions (i, j), i <= j
    quad: np.ndarray     # (2, P, P) flat (Q, Q) positions of q[ms, vr], q[vs, mr]
    wedge: np.ndarray    # (4, P, P) flat d x d positions of F_rm, F_sv, F_rv, F_sm
    scatter: np.ndarray  # (d, d) pair index of (a, b) or (b, a); P on the diagonal
    sign: np.ndarray     # (d, d) 1.0 for a <= b, -1.0 for a > b


@lru_cache(maxsize=None)
def _pair_tables(d):
    pairs = np.array(curvature_pairs(d), dtype=np.intp).reshape(-1, 2)
    p = len(pairs)
    r, s = pairs[:, 0, None], pairs[:, 1, None]
    m, v = pairs[None, :, 0], pairs[None, :, 1]
    lo, hi = np.triu_indices(d)
    sym = np.empty((d, d), dtype=np.intp)
    sym[lo, hi] = sym[hi, lo] = np.arange(len(lo))
    scatter = np.full((d, d), p, dtype=np.intp)
    scatter[pairs[:, 0], pairs[:, 1]] = scatter[pairs[:, 1], pairs[:, 0]] = np.arange(p)
    tables = _PairTables(
        hess=np.stack([((s * d + m) * d + r) * d + v, ((r * d + v) * d + s) * d + m,
                       ((s * d + v) * d + r) * d + m, ((r * d + m) * d + s) * d + v]),
        sym=lo * d + hi,
        quad=np.stack([sym[m, s] * len(lo) + sym[v, r], sym[v, s] * len(lo) + sym[m, r]]),
        wedge=np.stack([r * d + m, s * d + v, r * d + v, s * d + m]),
        scatter=scatter,
        sign=np.where(np.arange(d)[:, None] <= np.arange(d), 1.0, -1.0))
    for table in tables:
        table.setflags(write=False)
    return tables


def _scatter_pairs(block, d):
    """The (N, d, d, d, d) tensor of a pair block:
    t[a,b,c,e] = sign(a,b) sign(c,e) block[(a,b), (c,e)], 0 where a = b or c = e."""
    tables = _pair_tables(d)
    n, p = block.shape[:2]
    padded = np.zeros((n, p + 1, p + 1))
    padded[:, :p, :p] = block
    idx, sign = tables.scatter, tables.sign
    return (padded[:, idx[:, :, None, None], idx[None, None, :, :]]
            * (sign[:, :, None, None] * sign[None, None, :, :]))


@dataclass
class _BatchGeometry:
    """Batched geometry.  The densities read the frame block `curvature`;
    the 4-tensors and the scalar curvature are built when first read."""
    x: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    frame: np.ndarray
    sqrt_det_g: np.ndarray
    coordinate_curvature: np.ndarray  # (N, P, P): R_rsmv, r < s, m < v
    curvature: np.ndarray             # (N, P, P): R(e_a, e_b, e_c, e_e), a < b, c < e

    @cached_property
    def riemann(self):
        return _scatter_pairs(self.coordinate_curvature, self.x.shape[1])

    @cached_property
    def riemann_frame(self):
        return _scatter_pairs(self.curvature, self.x.shape[1])

    @cached_property
    def scalar_curvature(self):
        # scal = sum_{a,b} Rf[a,b,a,b] = 2 sum_{a<b} Rf[a,b,a,b]
        return 2.0 * np.trace(self.curvature, axis1=1, axis2=2)


def point_geometry_batch(chart, points):
    """Metric, frame and curvature at a batch of chart points.

    The curvature block comes straight from the metric 2-jet, on index
    pairs r < s, m < v only:
    R_rsmv = 1/2 (d_s d_m g_rv + d_r d_v g_sm - d_s d_v g_rm - d_r d_m g_sv)
             + 1/2 sum_h (t_hms Gamma^h_vr - t_hvs Gamma^h_mr),
    with t from `_christoffels`; the sum is one matmul over the symmetric
    pairs of its two index pairs.  The frame block is W^T R W with
    W = Lambda^2 F, W[(r,s),(a,b)] = F_ra F_sb - F_rb F_sa.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    g, dg, d2g = metric_jets(chart, points, order=2)
    l = _cholesky_psd(g, chart, points)
    g_inv = np.linalg.inv(g)
    sqrt_det_g = np.prod(np.diagonal(l, axis1=1, axis2=2), axis=1)
    t, gamma = _christoffels(g_inv, dg)
    tables = _pair_tables(d)

    h = d2g.reshape(n, d ** 4).take(tables.hess, axis=1)
    # q[n, (m,s), (v,r)] = sum_h t[h,m,s] Gamma^h_{vr}
    q = np.matmul(t.reshape(n, d, d * d).take(tables.sym, axis=2).transpose(0, 2, 1),
                  gamma.reshape(n, d, d * d).take(tables.sym, axis=2))
    q = q.reshape(n, -1).take(tables.quad, axis=1)
    coordinate = (0.5 * (h[:, 0] + h[:, 1] - h[:, 2] - h[:, 3])
                  + 0.5 * (q[:, 0] - q[:, 1]))

    frame = np.linalg.inv(l).transpose(0, 2, 1)
    f = frame.reshape(n, d * d).take(tables.wedge, axis=1)
    wedge = f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]
    curvature = np.matmul(np.matmul(wedge.transpose(0, 2, 1), coordinate), wedge)
    return _BatchGeometry(points, g, g_inv, gamma, frame, sqrt_det_g,
                          coordinate, curvature)


def point_geometry(chart, x):
    """Full connection/curvature bundle at one interior chart point."""
    x = np.asarray(x, dtype=float)
    if not chart.contains(x):
        raise GeometryError(f"point {x} outside chart {chart.name!r}")
    b = point_geometry_batch(chart, x[None, :])
    return PointGeometry(x, b.g[0], b.g_inv[0], b.gamma[0], b.riemann[0],
                         b.frame[0], b.riemann_frame[0],
                         float(b.scalar_curvature[0]), float(b.sqrt_det_g[0]))


# --------------------------------------------------------------------------
# Geodesics and parallel transport (fixed-step classic RK4)
# --------------------------------------------------------------------------

def _stage_times(steps):
    """The 2 steps + 1 times at which `_rk4` evaluates rhs: t_i, then
    t_i + h/2 (twice) and t_i + h, which is t_{i+1} bit for bit (t += h)."""
    h = 1.0 / steps
    times = [0.0]
    for _ in range(steps):
        t = times[-1]
        times += (t + 0.5 * h, t + h)
    return times


def _rk4(rhs, state, steps, project=None):
    """Classic RK4 over unit time on a tuple of (N, .) arrays.

    rhs(t, state) returns the tuple of time derivatives; it is called four
    times per step, at the `_stage_times` t_i, t_i + h/2, t_i + h/2 and
    t_{i+1}, in that order.  `project`, when given, maps every new state
    back onto the domain (or raises).  Yields the state after each step.
    """
    h = 1.0 / steps
    times = _stage_times(steps)
    for i in range(steps):
        t, mid, end = times[2 * i:2 * i + 3]
        k1 = rhs(t, state)
        k2 = rhs(mid, tuple(s + 0.5 * h * k for s, k in zip(state, k1)))
        k3 = rhs(mid, tuple(s + 0.5 * h * k for s, k in zip(state, k2)))
        k4 = rhs(end, tuple(s + h * k for s, k in zip(state, k3)))
        state = tuple(s + h / 6.0 * (a + 2 * b + 2 * c + e)
                      for s, a, b, c, e in zip(state, k1, k2, k3, k4))
        if project is not None:
            state = project(state)
        yield state


def _final(states):
    for state in states:
        pass
    return state


def _transport_rate(gamma, xdot, w, cotangent=False):
    """Rows of dw/dt for w parallel along paths with velocities xdot.

    Vectors obey wdot^k = -Gamma^k_ij xdot^i w^j; covectors the sign-flipped
    transpose, wdot_j = Gamma^k_ij xdot^i w_k.
    """
    if cotangent:
        return np.einsum("nkij,ni,nk->nj", gamma, xdot, w)
    return -np.einsum("nkij,ni,nj->nk", gamma, xdot, w)


def _jacobi_rate(gamma, dgamma, v, j, jp):
    """Rows of J'' for Jacobi fields J with derivative J' along geodesics
    with velocities v, the variation of the geodesic equation:
    J''^k = -(d_m Gamma^k_ab) J^m v^a v^b - 2 Gamma^k_ab v^a J'^b."""
    return (-np.einsum("nmkab,na,nb,nmc->nkc", dgamma, v, v, j)
            - 2 * np.einsum("nkab,na,nbc->nkc", gamma, v, jp))


def _geodesic_flow(chart, x, v, steps, w=None, cotangent=False, jacobi=None):
    """Geodesics from the rows of (x, v) over unit parameter time, optionally
    transporting the rows of w along them; yields (x, v[, w]) per step.
    Periodic axes are wrapped and every row is range-checked after every
    step.

    With `jacobi` (N, d, d) it carries Jacobi fields instead and yields
    (x, v, J, J'): the columns of J start at J(0) = 0, J'(0) = the columns
    of `jacobi` and obey `_jacobi_rate`, so that J(t) = (dx(t) / dv(0))
    jacobi.  That equation is linear in (J, J') with coefficients read off
    the geodesic, so it is a second pass: the geodesic is integrated first
    (with its range check) and the (x, v) of
    its every RK4 stage recorded; one order-2 metric jet batch on those
    4 * steps * N rows gives Gamma and d Gamma, whose Gamma has the bits of
    christoffels_at; then (J, J') run through the same RK4 steps on row
    slices of that batch.  The result is the one-pass integration's, bit
    for bit.
    """
    gamma_at = _christoffel_function(chart)

    def rhs(t, state):
        x, v, *w = state
        gamma = gamma_at(x)
        return (v, _transport_rate(gamma, v, v)) + tuple(
            _transport_rate(gamma, v, ww, cotangent) for ww in w)

    def project(state):
        x = chart.wrap(state[0])
        if not chart.contains(x):
            raise GeometryError(f"path exits chart {chart.name!r} range at {x}")
        return (x,) + state[1:]

    if jacobi is None:
        return _rk4(rhs, (x, v) if w is None else (x, v, w), steps, project)

    stages = []  # the (x, v) of every rhs call, in call order

    def recorded(t, state):
        stages.append(state)
        return rhs(t, state)

    path = list(_rk4(recorded, (x, v), steps, project))
    xs, vs = (np.concatenate(part) for part in zip(*stages))
    g, dg, d2g = metric_jets(chart, xs)
    gamma, dgamma = _connection_jets(np.linalg.inv(g), dg, d2g)
    starts = iter(range(0, len(xs), len(x)))

    def jacobi_rhs(t, state):
        j, jp = state
        rows = slice(start := next(starts), start + len(x))
        return jp, _jacobi_rate(gamma[rows], dgamma[rows], vs[rows], j, jp)

    fields = _rk4(jacobi_rhs, (np.zeros_like(jacobi), jacobi), steps)
    return (state + field for state, field in zip(path, fields))


def _arc_length_start(chart, x0, v0, arc_length, steps):
    """(1, d) start rows with v0 rescaled to cover arc_length in unit time,
    and the step count (default 256 per unit arc length, at least 64)."""
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    g0 = metric_jets(chart, x[None, :], order=0)[0][0]
    speed = float(np.sqrt(v @ g0 @ v))
    if speed == 0.0:
        raise GeometryError("zero initial velocity")
    if steps is None:
        steps = max(64, int(256 * abs(arc_length)))
    return x[None, :], v[None, :] * (arc_length / speed), steps


def geodesic(chart, x0, v0, arc_length, steps=None):
    """Integrate the geodesic equation; returns [(x, v)] at uniform steps.

    v0 is rescaled so that the path has the requested arc length over unit
    parameter time; |v|_g is conserved by the equation.
    """
    x, v, steps = _arc_length_start(chart, x0, v0, arc_length, steps)
    return [(x[0], v[0])] + [(x[0], v[0]) for x, v in
                             _geodesic_flow(chart, x, v, steps)]


def geodesic_batch(chart, x0, v0, steps):
    """Integrate many geodesics jointly over unit parameter time.

    x0, v0 are (N, d) and share one step count; the Christoffel
    evaluations are batched.  Returns the endpoints (x, v).
    """
    return _final(_geodesic_flow(chart, np.array(x0, dtype=float),
                                 np.array(v0, dtype=float), steps))


def geodesic_transport(chart, x0, v0, arc_length, w0, steps=None, cotangent=False):
    """Jointly integrate a geodesic and parallel transport of w along it."""
    x, v, steps = _arc_length_start(chart, x0, v0, arc_length, steps)
    w = np.array(w0, dtype=float)[None, :]
    x, v, w = _final(_geodesic_flow(chart, x, v, steps, w, cotangent))
    return x[0], v[0], w[0]


def parallel_transport(chart, path, w0, steps=1000, cotangent=False):
    """Transport w0 along an explicit path t -> (x, xdot), t in [0, 1].

    Solves wdot^k + Gamma^k_ij xdot^i w^j = 0 (sign-flipped for cotangent
    vectors) with classic RK4; the path parametrization carries the speed.
    The path is known in advance, so it is read at the 2 steps + 1 stage
    times first and Gamma comes from one christoffels_at call on them.
    """
    times = _stage_times(steps)
    xs, xds = (np.array(part, dtype=float) for part in zip(*map(path, times)))
    gamma = christoffels_at(chart, xs)  # every stage point, one batch
    rows = {t: k for k, t in enumerate(times)}

    def rhs(t, state):
        k = rows[t]
        return (_transport_rate(gamma[k:k + 1], xds[k:k + 1], state[0], cotangent),)

    (w,) = _final(_rk4(rhs, (np.array(w0, dtype=float)[None, :],), steps))
    return w[0]


# --------------------------------------------------------------------------
# Normal coordinates
# --------------------------------------------------------------------------

# tolerance and iteration budget of log's Newton solve
_LOG_TOL = 1e-12
_LOG_MAX_ITER = 50

# RK4 steps per unit normal radius, one density per consumer of a shoot
# (their measured errors are in the NormalCoordinates docstring); every
# shoot takes at least _MIN_STEPS
_MIN_STEPS = 32
_EXP_STEPS = 100       # exp, log and log's dexp
_METRIC_STEPS = 300    # the pulled-back metric
_RECORD_STEPS = 64     # radial_det_g


class NormalCoordinates:
    """Exponential-map coordinates centered at a chart point.

    exp is geodesic shooting.  Its differential is exact: the Jacobi fields
    J with J(0) = 0 and J'(0) = the frame vectors ride along the same
    geodesic, and dexp at t u is J(t) / t.  They give the pulled-back
    metric J^T g J, the Jacobian of log's damped Newton inversion of the
    shooting map and, with J'' from the Jacobi equation, the radial
    derivatives of log det of the pulled-back metric (`radial_det_g`).

    A shoot of radius r takes max(32, int(n r)) RK4 steps, with n per unit
    radius chosen for each consumer from its measured error on the unit
    sphere (polar chart, center on the equator):
    * exp, log and log's dexp: n = 100; exp's endpoint is within 3.3e-11
      of the great circle for r <= 0.9;
    * the pulled-back metric (`pulled_back_metrics`):
      n = 300; det g is within 1e-10 relative of (sin r / r)^2 for
      r <= 0.9, where n = 100 gives 6.1e-10 and n = 200 3.8e-11;
    * `radial_det_g`: n = 64, so 32 steps for r <= 0.5, where the heat
      parametrix's u1 built on it is 5.2e-9 from its closed form; at r = 1
      its 64 steps give 1.8e-8 (32 steps: 2.8e-7).
    A row's step count depends on its own radius (in `radial_det_g`, on the
    largest radius of the record), so a row never depends on the rows it is
    shot with.  The radius guard keeps targets inside the configured
    injectivity-safe ball (default 0.4 of the smallest range extent).
    """

    def __init__(self, chart, x0, radius=None):
        self.chart = chart
        self.x0 = np.asarray(x0, dtype=float)
        if not chart.contains(self.x0):
            raise GeometryError("center outside chart")
        extents = [hi - lo for lo, hi in chart.ranges]
        self.radius = radius if radius is not None else 0.4 * min(extents)
        g0 = metric_jets(chart, self.x0[None, :], order=0)[0][0]
        self.g0 = g0
        # columns: orthonormal frame at the center; normal coordinates are
        # components in this frame, so the pulled-back metric at 0 is I
        self.frame0 = np.linalg.inv(np.linalg.cholesky(g0)).T

    def _shoot(self, us, per_unit, jacobi, reach=None):
        """Geodesics t -> exp(t u), t in [0, 1], from the rows u of us:
        the final (x, v), and with `jacobi` also (J, J'), the Jacobi fields
        with J(0) = 0 and J'(0) = frame0, so that J(1) is dexp at u.

        Row k takes max(_MIN_STEPS, int(per_unit * reach[k])) steps, reach
        its own radius by default; rows with equal counts share one
        integration.
        """
        us = np.asarray(us, dtype=float)
        radii = np.linalg.norm(us, axis=1)
        r = radii.max()
        if r > self.radius:
            raise GeometryError(f"normal radius {r:.3g} exceeds safe {self.radius:.3g}")
        reach = radii if reach is None else reach
        steps = np.maximum(_MIN_STEPS, (per_unit * reach).astype(int))
        final = None
        for count in np.unique(steps):
            rows = np.flatnonzero(steps == count)
            v = us[rows] @ self.frame0.T  # rows: frame0 @ u, so |v|_g = |u|
            jp = np.tile(self.frame0, (len(rows), 1, 1)) if jacobi else None
            state = _final(_geodesic_flow(self.chart, np.tile(self.x0, (len(rows), 1)),
                                          v, int(count), jacobi=jp))
            if final is None:
                final = [np.empty((len(us),) + part.shape[1:]) for part in state]
            for whole, part in zip(final, state):
                whole[rows] = part
        final[0][radii == 0.0] = self.x0
        return final

    def exp(self, u):
        """Map normal coordinates u (frame components) to chart coordinates."""
        return self.exp_batch(np.asarray(u, dtype=float)[None, :])[0]

    def exp_batch(self, us):
        """Batched exponential map, one shoot per row (no Jacobi fields)."""
        return self._shoot(us, _EXP_STEPS, False)[0]

    def pulled_back_metrics(self, us):
        """Pulled-back metrics dexp^T g dexp (N, d, d) at the rows u of us,
        from one Jacobi shoot."""
        x, _, dexp, _ = self._shoot(us, _METRIC_STEPS, True)
        g = metric_jets(self.chart, x, order=0)[0]
        return dexp.swapaxes(1, 2) @ g @ dexp

    def radial_det_g(self, directions, radii):
        """det G of the pulled-back metric and the first two arc-length
        derivatives of l = log det G along unit rays: (det, dl, d2l), each
        (k, m), at radius radii[j] > 0 on the ray of the unit frame vector
        directions[i].

        One integration: row (i, j) is shot with velocity radii[j]
        directions[i] over unit time, every row with the step count of the
        largest radius, and Gamma, d Gamma and J'' (from the Jacobi
        equation) come from one order-2 jet batch at the endpoints.  With J
        the unit-speed Jacobi field at arc length s, read off the shoot as
        J = s J(1), J' = J'(1), J'' = J''(1) / s and velocity v(1) / s:
            det G = det(J)^2 det g / s^(2d),
            l'  = 2 tr(J^-1 J') + 2 Gamma^m_mk dx^k - 2d / s,
            l'' = 2 [tr(J^-1 J'') - tr((J^-1 J')^2)] + 2 d_l Gamma^m_mk dx^l dx^k
                  + 2 Gamma^m_mk ddx^k + 2d / s^2,
        with dx the unit velocity and ddx = -Gamma(dx, dx) its acceleration.
        """
        directions = np.asarray(directions, dtype=float)
        radii = np.asarray(radii, dtype=float)
        (k, d), m = directions.shape, len(radii)
        s = np.tile(radii, k)
        x, v, j1, jp = self._shoot(np.repeat(directions, m, axis=0) * s[:, None],
                                   _RECORD_STEPS, True, reach=np.full(k * m, radii.max()))
        g, dg, d2g = metric_jets(self.chart, x)
        gamma, dgamma = _connection_jets(np.linalg.inv(g), dg, d2g)
        jpp = _jacobi_rate(gamma, dgamma, v, j1, jp) / s[:, None, None]
        j = s[:, None, None] * j1
        dx = v / s[:, None]
        a = np.linalg.solve(j, jp)   # J^-1 J'
        b = np.linalg.solve(j, jpp)  # J^-1 J''
        trace_gamma = np.einsum("nmmk->nk", gamma)
        ddx = -np.einsum("nkab,na,nb->nk", gamma, dx, dx)
        det = np.linalg.det(j1) ** 2 * np.linalg.det(g)
        dl = (2 * np.trace(a, axis1=1, axis2=2) + 2 * np.einsum("nk,nk->n", trace_gamma, dx)
              - 2 * d / s)
        d2l = (2 * (np.trace(b, axis1=1, axis2=2) - np.einsum("nij,nji->n", a, a))
               + 2 * np.einsum("nlmmk,nl,nk->n", dgamma, dx, dx)
               + 2 * np.einsum("nk,nk->n", trace_gamma, ddx) + 2 * d / s ** 2)
        return tuple(part.reshape(k, m) for part in (det, dl, d2l))

    def log(self, y):
        """Invert the shooting map by damped Newton; returns normal coordinates.

        Each Newton step solves with dexp at the current iterate; the line
        search tries plain exp shoots.
        """
        y = np.asarray(y, dtype=float)
        u = np.linalg.solve(self.frame0, y - self.x0)  # flat first guess
        nrm = np.linalg.norm(u)
        if nrm > 0.95 * self.radius:
            u *= 0.95 * self.radius / nrm

        err = self.exp(u) - y
        for _ in range(_LOG_MAX_ITER):
            if np.linalg.norm(err) < _LOG_TOL:
                return u
            jac = self._shoot(u[None, :], _EXP_STEPS, True)[2][0]
            try:
                step = np.linalg.solve(jac, err)
            except np.linalg.LinAlgError:
                raise GeometryError("singular shooting Jacobian")
            lam = 1.0
            for _ in range(30):
                cand = u - lam * step
                if np.linalg.norm(cand) <= self.radius:
                    cand_err = self.exp(cand) - y
                    if np.linalg.norm(cand_err) < np.linalg.norm(err):
                        u, err = cand, cand_err
                        break
                lam *= 0.5
            else:
                raise GeometryError("Newton line search stalled in log map")
        if np.linalg.norm(err) >= _LOG_TOL:
            raise GeometryError(f"log map did not converge in {_LOG_MAX_ITER} iterations")
        return u

    def distance(self, y):
        """Geodesic distance r(x0, y) = |log(y)|."""
        return float(np.linalg.norm(self.log(y)))
