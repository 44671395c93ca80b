"""Span tracing from outside the package, for the benchmark's traced run.

``Tracer`` wraps the public functions of each ``gaussbonnet`` module and
records one span per call: its group (the per-layer metric prefix),
start, end, parent span, check id and point count.  Spans stay in memory
and are written out when the run ends.

The package imports functions by name (``from .geometry import
metric_jets``), so every importing module holds its own reference.
Installing therefore rebinds every ``gaussbonnet.*`` module attribute that
holds the original function object, not only the defining one; methods
are patched on their classes.  ``restore`` puts every original back.

A target missing from the package (renamed or deleted by a later change)
is skipped and listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "gaussbonnet"
CHECK = "check"  # group of the root span the harness opens around each check


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _points_at(pos, name="points"):
    def count(args, kwargs):
        return len(_arg(args, kwargs, pos, name))
    return count


def _quadrature_nodes(args, kwargs):
    chart = _arg(args, kwargs, 0, "chart")
    spec = _arg(args, kwargs, 2, "spec_or_nodes")
    if isinstance(spec, int):
        return spec ** chart.dim
    counts = spec.per_axis(chart.dim) if hasattr(spec, "per_axis") else spec
    return math.prod(int(n) for n in counts)


def _count_chunks(tracer, span, args, kwargs):
    """Route the density through a counter: one call per evaluated chunk.

    A density running on a pool thread starts with an empty span stack;
    it is parented to the integrate_chart span that scheduled it.
    """
    args = list(args)
    density = _arg(args, kwargs, 1, "density")

    def counted(*a, **k):
        tracer.bump("quadrature.chunks")
        stack = tracer.stack()
        adopted = not stack
        if adopted:
            stack.append(span)
        try:
            return density(*a, **k)
        finally:
            if adopted:
                stack.pop()

    if len(args) > 1:
        args[1] = counted
    else:
        kwargs = dict(kwargs, density=counted)
    return tuple(args), kwargs


def _tensor_mb(tracer, args, kwargs, result):
    # computed, not measured: one (N, d, d, d, d) float64 temporary
    chart, points = args[0], _arg(args, kwargs, 1, "points")
    tracer.maximum("geometry.point_geometry_batch.tensor_mb",
                   len(points) * chart.dim ** 4 * 8 / 1e6)


def _workers(tracer, args, kwargs, result):
    tracer.maximum("quadrature.workers", result)


def _newton(tracer, args, kwargs, result):
    tracer.bump("index.newton_dropped" if result is None else "index.newton_kept")


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``attr`` is a module attribute, ``Class.method`` or ``Class.*`` (every
    function in the class body).  ``points(args, kwargs)`` gives the work
    size of a call; ``before(tracer, span, args, kwargs)`` may replace the
    arguments; ``after(tracer, args, kwargs, result)`` records counters.
    With ``span=False`` the call is only observed through ``after``.
    """

    group: str
    module: str
    attr: str
    points: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None
    span: bool = True


def _t(group, module, attr, **kw):
    return Target(group, f"{PACKAGE}.{module}", attr, **kw)


TARGETS = (
    _t("expr.parse", "expr", "parse"),
    _t("expr.eval_jet", "expr", "eval_jet", points=_points_at(1)),
    _t("geometry.metric_jets", "geometry", "metric_jets"),
    _t("geometry.point_geometry_batch", "geometry", "point_geometry_batch",
       points=_points_at(1), after=_tensor_mb),
    _t("geometry.christoffels_at", "geometry", "christoffels_at"),
    _t("geometry.transport", "geometry", "geodesic"),
    _t("geometry.transport", "geometry", "geodesic_transport"),
    _t("geometry.transport", "geometry", "geodesic_batch"),
    _t("geometry.transport", "geometry", "parallel_transport"),
    _t("geometry.normal_coords", "geometry", "NormalCoordinates.*"),
    _t("gbc.density", "gbc", "gb_density_pfaffian_batch", points=_points_at(1)),
    _t("gbc.density_aw", "gbc", "gb_density_aw_batch", points=_points_at(1)),
    _t("gbc.verify_gbc", "gbc", "verify_gbc"),
    _t("quadrature.integrate_chart", "quadrature", "integrate_chart",
       points=_quadrature_nodes, before=_count_chunks),
    _t("quadrature.pairwise_sum", "quadrature", "pairwise_sum"),
    _t("quadrature.worker_count", "quadrature", "worker_count",
       after=_workers, span=False),
    _t("exterior.exp_nilpotent", "exterior", "exp_nilpotent"),
    _t("exterior.bigraded_mul", "exterior", "BigradedElement.__mul__"),
    _t("exterior.berezin_fiber", "exterior", "berezin_fiber"),
    _t("exterior.dp_extend", "exterior", "dp_extend"),
    _t("exterior.pfaffian_numeric", "exterior", "pfaffian_numeric"),
    _t("mq.mq_form_bundle", "mq", "mq_form_bundle"),
    _t("mq.mq_fiber_integral", "mq", "mq_fiber_integral"),
    _t("mq.mq_zero_section_density", "mq", "mq_zero_section_density",
       points=_points_at(2)),
    _t("bundles.curvature_density_batch", "bundles", "curvature_density_batch",
       points=_points_at(2)),
    _t("bundles.euler_form_transition_batch", "bundles",
       "euler_form_transition_batch", points=_points_at(2)),
    _t("bundles.connection_form", "bundles", "connection_form"),
    _t("index.find_zeros", "index", "find_zeros"),
    _t("index.field_values", "index", "VectorFieldSpec.values",
       points=_points_at(2)),
    _t("index.local_degree", "index", "local_degree"),
    _t("index.newton_refine", "index", "_newton_refine", after=_newton, span=False),
    _t("heat.supertrace_heat", "heat", "supertrace_heat"),
    _t("heat.parametrix", "heat", "parametrix_u0"),
    _t("heat.parametrix", "heat", "parametrix_u1"),
    _t("heat.parametrix", "heat", "parametrix_u1_diag"),
    _t("heat.parametrix", "heat", "parametrix_kernel"),
    _t("heat.asymptotic_fit", "heat", "asymptotic_fit"),
    _t("cli.main", "cli", "main"),
    _t("library.build", "library", "build_manifold"),
    _t("library.build", "library", "build_field"),
    _t("library.build", "bundles", "make_plane_bundle"),
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("expr.parse.self_s", "s", "lower"),
    ("expr.eval_jet.calls", "count", "lower"),
    ("expr.eval_jet.points", "count", "lower"),
    ("expr.eval_jet.self_s", "s", "lower"),
    ("expr.points_per_call", "points/call", "higher"),
    ("geometry.metric_jets.calls", "count", "lower"),
    ("geometry.metric_jets.self_s", "s", "lower"),
    ("geometry.point_geometry_batch.calls", "count", "lower"),
    ("geometry.point_geometry_batch.points", "count", "lower"),
    ("geometry.point_geometry_batch.self_s", "s", "lower"),
    ("geometry.point_geometry_batch.tensor_mb", "MB", "lower"),
    ("geometry.christoffels_at.calls", "count", "lower"),
    ("geometry.christoffels_at.self_s", "s", "lower"),
    ("geometry.transport.calls", "count", "lower"),
    ("geometry.transport.self_s", "s", "lower"),
    ("geometry.normal_coords.self_s", "s", "lower"),
    ("gbc.density.calls", "count", "lower"),
    ("gbc.density.points", "count", "lower"),
    ("gbc.density.self_s", "s", "lower"),
    ("gbc.density_aw.self_s", "s", "lower"),
    ("gbc.verify_gbc.calls", "count", "lower"),
    ("quadrature.integrate_chart.calls", "count", "lower"),
    ("quadrature.integrate_chart.nodes", "count", "lower"),
    ("quadrature.integrate_chart.self_s", "s", "lower"),
    ("quadrature.chunks", "count", "lower"),
    ("quadrature.workers", "count", "higher"),
    ("quadrature.pairwise_sum.self_s", "s", "lower"),
    ("exterior.exp_nilpotent.calls", "count", "lower"),
    ("exterior.exp_nilpotent.self_s", "s", "lower"),
    ("exterior.bigraded_mul.calls", "count", "lower"),
    ("exterior.bigraded_mul.self_s", "s", "lower"),
    ("exterior.berezin_fiber.calls", "count", "lower"),
    ("exterior.berezin_fiber.self_s", "s", "lower"),
    ("exterior.dp_extend.calls", "count", "lower"),
    ("exterior.dp_extend.self_s", "s", "lower"),
    ("exterior.pfaffian_numeric.self_s", "s", "lower"),
    ("mq.mq_form_bundle.calls", "count", "lower"),
    ("mq.mq_form_bundle.self_s", "s", "lower"),
    ("mq.mq_fiber_integral.calls", "count", "lower"),
    ("mq.mq_fiber_integral.self_s", "s", "lower"),
    ("mq.mq_zero_section_density.calls", "count", "lower"),
    ("mq.mq_zero_section_density.points", "count", "lower"),
    ("mq.mq_zero_section_density.self_s", "s", "lower"),
    ("bundles.curvature_density_batch.calls", "count", "lower"),
    ("bundles.curvature_density_batch.points", "count", "lower"),
    ("bundles.curvature_density_batch.self_s", "s", "lower"),
    ("bundles.euler_form_transition_batch.calls", "count", "lower"),
    ("bundles.euler_form_transition_batch.points", "count", "lower"),
    ("bundles.euler_form_transition_batch.self_s", "s", "lower"),
    ("bundles.connection_form.calls", "count", "lower"),
    ("index.find_zeros.self_s", "s", "lower"),
    ("index.field_values.calls", "count", "lower"),
    ("index.field_values.points", "count", "lower"),
    ("index.local_degree.calls", "count", "lower"),
    ("index.local_degree.self_s", "s", "lower"),
    ("index.newton_kept", "count", "higher"),
    ("index.newton_dropped", "count", "lower"),
    ("index.useful_ratio", "ratio", "higher"),
    ("heat.supertrace_heat.calls", "count", "lower"),
    ("heat.supertrace_heat.self_s", "s", "lower"),
    ("heat.parametrix.self_s", "s", "lower"),
    ("heat.asymptotic_fit.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("library.build.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass(frozen=True)
class Span:
    index: int
    group: str
    start: float
    end: float
    parent: int | None
    check: str | None
    points: int
    self_s: float


class Tracer:
    """Install with ``with Tracer() as tracer:``; open ``tracer.check(id)``
    around each check so its spans share the check id."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing = []
        self._records = []  # [group, start, end, parent record, check, points]
        self._saved = []    # (owner, attribute name, original object)
        self._counters = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._check = None

    # ---------------------------------------------------------------- state

    def stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bump(self, name, amount=1):
        with self._lock:
            self._counters[name] += amount

    def maximum(self, name, value):
        with self._lock:
            self._counters[name] = max(self._counters[name], value)

    # ------------------------------------------------------- install/restore

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise

    def _install(self, target):
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(f"{target.module}.{target.attr}")
            return
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            cls = getattr(module, cls_name, None)
            if not inspect.isclass(cls):
                self.missing.append(f"{target.module}.{target.attr}")
                return
            body = vars(cls)
            names = ([n for n, v in body.items() if inspect.isfunction(v)]
                     if method == "*" else [method])
            for name in names:
                original = body.get(name)
                if not inspect.isfunction(original):
                    self.missing.append(f"{target.module}.{cls_name}.{name}")
                    continue
                # aliases in the class body (__rmul__ = __mul__) share the wrapper
                self._rebind([cls], original, self._wrap(target, original))
            return
        original = getattr(module, target.attr, None)
        if not callable(original):
            self.missing.append(f"{target.module}.{target.attr}")
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self._rebind(modules, original, self._wrap(target, original))

    def _rebind(self, owners, original, wrapper):
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # --------------------------------------------------------------- spans

    def _wrap(self, target, fn):
        group, points = target.group, target.points
        before, after = target.before, target.after
        records, clock = self._records, time.perf_counter

        if not target.span:
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self, args, kwargs, result)
                return result
            return observed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack()
            span = [group, 0.0, 0.0, stack[-1] if stack else None, self._check, 0]
            if before is not None:
                args, kwargs = before(self, span, args, kwargs)
            if points is not None:
                span[5] = points(args, kwargs)
            records.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def check(self, check_id):
        """Root span around one check; every span inside carries its id."""
        stack = self.stack()
        if stack:
            raise RuntimeError("checks do not nest")
        span = [CHECK, 0.0, 0.0, None, check_id, 0]
        self._check = check_id
        self._records.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            self._check = None

    def spans(self):
        """Every recorded span with its self time: its duration minus the
        part of that interval its child spans cover."""
        index = {id(rec): i for i, rec in enumerate(self._records)}
        children = defaultdict(list)
        for rec in self._records:
            if rec[3] is not None:
                children[index[id(rec[3])]].append((rec[1], rec[2]))
        return [Span(i, rec[0], rec[1], rec[2],
                     None if rec[3] is None else index[id(rec[3])], rec[4], rec[5],
                     (rec[2] - rec[1]) - _covered(children[i]))
                for i, rec in enumerate(self._records)]

    def layer_metrics(self):
        """Every PER_LAYER metric except trace.overhead_frac, which needs an
        untraced run to compare with."""
        calls, points, self_s = defaultdict(int), defaultdict(int), defaultdict(float)
        for span in self.spans():
            calls[span.group] += 1
            points[span.group] += span.points
            self_s[span.group] += span.self_s
        counters = self._counters
        kept, dropped = counters["index.newton_kept"], counters["index.newton_dropped"]
        jets = calls["expr.eval_jet"]
        special = {
            "expr.points_per_call": points["expr.eval_jet"] / jets if jets else 0.0,
            "index.useful_ratio": kept / (kept + dropped) if kept + dropped else 0.0,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            group, _, field = name.rpartition(".")
            if name in special:
                out[name] = special[name]
            elif field not in ("calls", "points", "nodes", "self_s"):
                out[name] = counters[name]
            elif field == "calls":
                out[name] = calls[group]
            elif field == "self_s":
                out[name] = self_s[group]
            else:
                out[name] = points[group]
        out.pop("trace.overhead_frac")
        return out

    def write(self, path):
        """Spans as gzip-compressed JSON; times in microseconds from the first span."""
        spans = self.spans()
        t0 = spans[0].start if spans else 0.0
        groups = sorted({s.group for s in spans})
        checks = sorted({s.check for s in spans if s.check is not None})
        gi = {g: i for i, g in enumerate(groups)}
        ci = {c: i for i, c in enumerate(checks)}
        us = lambda t: round(t * 1e6, 3)
        doc = {
            "columns": ["group", "start_us", "end_us", "parent", "check", "points", "self_us"],
            "groups": groups,
            "checks": checks,
            "missing_targets": self.missing,
            "spans": [[gi[s.group], us(s.start - t0), us(s.end - t0), s.parent,
                       ci.get(s.check), s.points, us(s.self_s)] for s in spans],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))
