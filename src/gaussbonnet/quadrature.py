"""Deterministic quadrature over charts and atlases.

A density returns the dx^1 ^ ... ^ dx^d coefficient of a top-degree form;
no metric is read here, so a volume integral passes sqrt(det g) itself.

Gauss-Legendre on non-periodic axes (nodes are interior, never on range
endpoints), shifted uniform rule on periodic axes (spectrally accurate for
smooth periodic integrands).  Sums are reduced by a fixed pairwise tree in
ascending multi-index order, so results are bitwise reproducible no matter
how node evaluation is scheduled.

The keyword `axes` of `integrate_chart` and `integrate_atlas` names the
coordinate axes along which the integrand density(chart, X) * weight
varies; None (the default) means every axis.  Each other axis gets the
one-node rule: its midpoint, with weight hi - lo.  That rule is exact
only if the integrand really is constant along the axis, and the caller
vouches for it: `Chart.support` does, for any density that reads nothing
but the chart's metric and weight, since each axis outside it is a
coordinate Killing field of the metric.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# metric_jets is not called here; perfbench/smoke_test.py checks that
# tracing rebinds this module's reference to it
from .geometry import metric_jets  # noqa: F401

__all__ = ["gauss_rule", "axis_rule", "product_rule", "chart_nodes", "integrate_chart",
           "integrate_atlas", "pairwise_sum", "worker_count", "QuadratureError"]


def worker_count():
    """Worker pool size for node evaluation, capped by GBC_THREADS."""
    try:
        return max(1, int(os.environ.get("GBC_THREADS", "1")))
    except ValueError:
        return 1


_GAUSS = {"legendre": np.polynomial.legendre.leggauss,
          "hermite": np.polynomial.hermite.hermgauss}


@functools.lru_cache(maxsize=None)
def gauss_rule(family, n):
    """Read-only reference nodes and weights of the n-point Gauss rule of
    `family`, "legendre" on [-1, 1] or "hermite" for the weight exp(-t^2).

    Built on first use and shared by every later call in the process.
    """
    rule = _GAUSS[family](n)
    for part in rule:
        part.setflags(write=False)
    return rule


def axis_rule(lo, hi, n, periodic):
    """Nodes and weights on one axis; open nodes in both rule families."""
    if periodic:
        h = (hi - lo) / n
        x = lo + (np.arange(n) + 0.5) * h
        w = np.full(n, h)
        return x, w
    x, w = gauss_rule("legendre", n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def chart_nodes(chart, counts, axes=None):
    """Tensor-product nodes (N, d) and weights (N,) in ascending multi-index order.

    `counts` holds one node count >= 1 per axis.  Axes not in `axes`
    (None: every axis) get one node, the axis midpoint, with weight hi - lo.
    """
    counts = list(counts)
    if len(counts) != chart.dim or any(n < 1 for n in counts):
        raise ValueError(f"need {chart.dim} node counts >= 1 on chart "
                         f"{chart.name!r}, got {counts}")
    if axes is not None and not set(axes) <= set(range(chart.dim)):
        raise ValueError(f"axes {sorted(axes)} outside 0..{chart.dim - 1}")
    rules = [axis_rule(lo, hi, n, per) if axes is None or i in axes
             else (np.array([0.5 * (lo + hi)]), np.array([hi - lo]))
             for i, ((lo, hi), per, n)
             in enumerate(zip(chart.ranges, chart.periodic, counts))]
    return product_rule(rules)


def product_rule(rules):
    """Tensor product of per-axis (nodes, weights) rules: nodes (N, d) and
    weights (N,) in ascending multi-index order, each weight the product
    of its axis weights taken in axis order."""
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    points = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    weights = np.ones(len(points))
    for w in wgrids:
        weights = weights * w.reshape(-1)
    return points, weights


def pairwise_sum(values):
    """Fixed pairwise-tree reduction; deterministic for a fixed input order."""
    a = np.asarray(values, dtype=float).ravel().copy()
    n = len(a)
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        a[:half] = a[:half] + a[half:2 * half]
        if n % 2:
            a[half] = a[2 * half]
            n = half + 1
        else:
            n = half
    return float(a[0])


class QuadratureError(RuntimeError):
    pass


def integrate_chart(chart, density, spec_or_nodes, chunk=65536, *, axes=None):
    """Integrate density(chart, X) * weight over the chart box.

    `density` is a batched callable mapping (chart, (N, d) points) to the
    (N,) dx^1 ^ ... ^ dx^d coefficients of a top-degree form.  Node
    evaluation may be chunked and threaded; the reduction order never
    changes.  `axes`: the axes the integrand varies along (None: all);
    every other axis is collapsed to one node (see the module docstring).
    """
    counts = ([spec_or_nodes] * chart.dim if isinstance(spec_or_nodes, int)
              else spec_or_nodes)
    points, weights = chart_nodes(chart, counts, axes)
    values = np.empty(len(points))
    spans = [(s, min(s + chunk, len(points))) for s in range(0, len(points), chunk)]

    def eval_span(span):
        s, e = span
        pts = points[s:e]
        try:
            dens = np.asarray(density(chart, pts), dtype=float)
            weight = chart.weight_values(pts)
        except Exception as exc:
            raise QuadratureError(
                f"integrand evaluation failed on chart {chart.name!r} "
                f"(first node of block: {pts[0]}): {exc}") from exc
        values[s:e] = dens * weight * weights[s:e]

    workers = worker_count()
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # each span runs in a copy of this context, so a worker sees the
            # caller's numpy error state (a context variable)
            futures = [pool.submit(contextvars.copy_context().run, eval_span, span)
                       for span in spans]
            for future in futures:
                future.result()
    else:
        for span in spans:
            eval_span(span)
    return pairwise_sum(values)


def integrate_atlas(atlas, density, spec_or_nodes, chunk=65536, *, axes=None):
    """Sum of chart integrals; chart weights realize the partition of unity.

    `axes` is None (all axes) or a callable giving each chart's axes,
    e.g. ``lambda c: c.support``.
    """
    return sum(integrate_chart(c, density, spec_or_nodes, chunk,
                               axes=None if axes is None else axes(c))
               for c in atlas.charts)
