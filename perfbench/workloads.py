"""The benchmark's workloads: what each one builds and the checks it runs.

A workload function builds every manifold, field and bundle it uses,
draws its random inputs from the seed, and returns the list of checks
one pass runs.  A check is either a CLI subcommand run in-process
through ``gaussbonnet.cli.main`` (what users run) or the core call of an
acceptance criterion where no subcommand exists.  Expected values come
from topology metadata (``library`` entries, bundle ``k``, field
``expected``, Euler characteristics of the heat model spaces), never
from the pipeline under test.

``size="small"`` runs the same checks at reduced resolution for the
smoke tests; the timed benchmark always uses ``size="full"``.

The caller puts the checkout's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gaussbonnet.cli
from gaussbonnet import bundles, exterior, gbc, geometry, heat, library, mq

# Euler characteristics of the heat model spaces: flat tori and the round
# 2-sphere.  These are topology, stated here, not read from the program.
HEAT_SPACE_CHI = {"t1": 0, "t2": 0, "t4": 0, "s2": 2}


@dataclass(frozen=True)
class Outcome:
    """One check's result: ``value`` must lie within ``tol`` of ``expected``.

    ``payload`` is everything the call produced; its ``repr`` feeds the
    workload's result digest, so any change in result bits shows.
    """

    value: float
    expected: float
    tol: float
    payload: object

    @property
    def passed(self):
        # written so that a NaN value fails
        return bool(abs(self.value - self.expected) <= self.tol)


@dataclass(frozen=True)
class Check:
    id: str
    run: Callable[[], Outcome]


class CheckError(RuntimeError):
    """A check could not produce a value (for example a nonzero exit code)."""


def _rng(seed, salt):
    # one stream per (seed, input family): adding a check never shifts the
    # inputs of another
    return np.random.default_rng([int(seed), salt])


def _floats(values):
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def cli_check(argv, expected, tol):
    """Run one subcommand with byte-stable output and compare its value."""
    argv = list(argv) + ["--no-wall-time"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = gaussbonnet.cli.main(argv)
        if code != 0:
            raise CheckError(f"exit code {code}: {err.getvalue()[-400:]!r}")
        text = out.getvalue()
        return Outcome(float(json.loads(text)["value"]), float(expected), tol, text)

    return Check("cli " + " ".join(argv[:-1]), run)


def verify_gbc_check(manifold, res, extrapolate, tol):
    argv = ["verify-gbc", "--manifold", manifold.name, "--res", str(res),
            "--tol", repr(tol)]
    if extrapolate:
        argv.append("--extrapolate")
    return cli_check(argv, manifold.expected_chi, tol)


def interior_points(rng, chart, n, pad_frac=0.12):
    cols = []
    for (lo, hi), per in zip(chart.ranges, chart.periodic):
        pad = 0.0 if per else pad_frac * (hi - lo)
        cols.append(rng.uniform(lo + pad, hi - pad, n))
    return np.column_stack(cols)


# --------------------------------------------------------------------------
# curvature4: batched jets, dimension-4 curvature tensors, the Pfaffian
# recursion and multi-chunk quadrature
# --------------------------------------------------------------------------

# (manifold, full resolution, full extrapolate).  The sphere4 finest level
# has 17^4 = 83,521 nodes: two chunks at the default 65,536-node chunk.
_CURVATURE4_RUNS = (("sphere4", 17, True), ("s2xs2", 12, True),
                    ("cp2", 10, True), ("torus4", 4, False))


def curvature4(seed, size="full"):
    manifolds = {name: library.build_manifold(name)
                 for name, _, _ in _CURVATURE4_RUNS}
    checks = []
    for name, res, extrapolate in _CURVATURE4_RUNS:
        m = manifolds[name]
        if size == "full":
            checks.append(verify_gbc_check(m, res, extrapolate, m.default_tol))
        else:
            checks.append(verify_gbc_check(m, m.quick_res, m.extrapolate,
                                           m.quick_tol))

    n_points = 200 if size == "full" else 20
    rng = _rng(seed, 3)
    for name in ("sphere4", "s2xs2", "cp2"):
        for chart in manifolds[name].atlas.charts:
            pts = interior_points(rng, chart, n_points)
            checks.append(Check(f"criterion3 {name}/{chart.name}",
                                _cross_check(chart, pts)))
    return checks


def _cross_check(chart, pts):
    """Pfaffian vs double-permutation-sum densities at the given points."""

    def run():
        pf = gbc.gb_density_pfaffian_batch(chart, pts)
        aw = gbc.gb_density_aw_batch(chart, pts)
        worst = float(np.max(np.abs(pf - aw) / (1.0 + np.abs(pf))))
        return Outcome(worst, 0.0, 1e-9, (_floats(pf), _floats(aw)))

    return run


# --------------------------------------------------------------------------
# thom: the sparse exterior algebra behind Mathai-Quillen, one point at a time
# --------------------------------------------------------------------------

# mq_euler_number resolution and its declared tolerance.  The acceptance
# configuration (res 96, 1e-5) takes ~24 s per pass, too long for the
# run budget; at res 48 the Gauss-Legendre error is 1.6e-3.
_THOM_EULER = {"full": (48, 1e-2), "small": (32, 1e-1)}


def thom(seed, size="full"):
    bundle = bundles.make_plane_bundle(2)
    rng = _rng(seed, 8)
    checks = []
    for i in range(3 if size == "full" else 1):
        r, th = rng.uniform(0.3, 1.8), rng.uniform(0, 2 * math.pi)
        x = [r * math.cos(th), r * math.sin(th)]
        checks.append(Check(f"mq_fiber_integral #{i}",
                            _fiber_check(bundle, x)))

    pts = []
    for _ in range(40 if size == "full" else 8):
        r, th = rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi)
        pts.append([r * math.cos(th), r * math.sin(th)])
    checks.append(Check("berezin_vs_pfaffian_residual",
                        _pullback_check(bundle, pts)))

    res, tol = _THOM_EULER[size]
    checks.append(Check(f"mq_euler_number k={bundle.k} res={res}",
                        _mq_euler_check(bundle, res, tol)))

    count = 1 if size == "full" else 10
    rng = _rng(seed, 4)
    sq_mats = [_skew(rng, d) for d in (2, 4, 6, 8) for _ in range(250 // count)]
    bz_mats = [_skew(rng, d) for d in (2, 4, 6) for _ in range(67 // count)]
    checks.append(Check("criterion4 Pf^2=det", _pf_squared_check(sq_mats)))
    checks.append(Check("criterion4 B(exp)=Pf", _berezin_exp_check(bz_mats)))
    return checks


def _skew(rng, d):
    m = rng.normal(size=(d, d))
    return m - m.T


def _fiber_check(bundle, x):
    def run():
        val = mq.mq_fiber_integral(bundle, "north", x, nodes=40)
        return Outcome(val, 1.0, 1e-8, val)

    return run


def _pullback_check(bundle, pts):
    def run():
        vals = [mq.berezin_vs_pfaffian_residual(bundle, "north", x) for x in pts]
        return Outcome(max(vals), 0.0, 1e-10, vals)

    return run


def _mq_euler_check(bundle, res, tol):
    def run():
        val = mq.mq_euler_number(bundle, resolution=res).euler_number
        return Outcome(val, float(bundle.k), tol, val)

    return run


def _pf_squared_check(mats):
    def run():
        pfs = [exterior.pfaffian_numeric(m) for m in mats]
        dets = [float(np.linalg.det(m)) for m in mats]
        worst = max(abs(pf * pf - det) / max(1.0, abs(det))
                    for pf, det in zip(pfs, dets))
        return Outcome(worst, 0.0, 1e-10, (pfs, dets))

    return run


def _berezin_exp_check(mats):
    def run():
        bzs = [complex(exterior.berezin(exterior.exp_nilpotent(exterior.two_vector(m))))
               for m in mats]
        pfs = [exterior.pfaffian_numeric(m) for m in mats]
        worst = max(abs(bz - pf) / max(1.0, abs(pf)) for bz, pf in zip(bzs, pfs))
        return Outcome(worst, 0.0, 1e-12, (bzs, pfs))

    return run


# --------------------------------------------------------------------------
# pointwise: surfaces, clutching, index sums, heat, and N = 1 geometry calls
# --------------------------------------------------------------------------

_INDEX_FIELDS = ("morse", "rotation", "constant", "z", "z2", "z^1", "z^2", "z^3")

# seeded start boxes for the transport checks.  Each box keeps the whole
# path, at the stated arc length, away from the coordinate singularities.
_TRANSPORT_STARTS = {
    "sphere4": ([1.2, 1.2, 1.2, 0.0], [1.95, 1.95, 1.95, 2 * math.pi], 0.5),
    "cp2": ([0.6, 0.65, 0.0, 0.0], [1.0, 0.92, 2 * math.pi, 2 * math.pi], 0.25),
}


def pointwise(seed, size="full"):
    full = size == "full"
    surfaces = [library.build_manifold(n) for n in ("sphere2", "bumpy_sphere", "torus2")]
    fields = {f: library.build_field(f) for f in _INDEX_FIELDS}
    plane = {k: bundles.make_plane_bundle(k) for k in range(-2, 4)}
    spaces = {"t1": heat.FlatTorusSpectrum((1.0,)),
              "t2": heat.FlatTorusSpectrum((1.0, 1.0)),
              "t4": heat.FlatTorusSpectrum((1.0,) * 4),
              "s2": heat.RoundSphereSpectrum(1.0)}
    polar = geometry.Chart.from_strings(
        "polar", 2, [(0, math.pi), (0, 2 * math.pi)], [False, True],
        {(0, 0): "1", (1, 1): "sin(x1)^2"})
    charts = {n: library.build_manifold(n).atlas.charts[0] for n in _TRANSPORT_STARTS}

    checks = []
    for m in surfaces:
        res = m.default_res if full else m.quick_res
        tol = m.default_tol if full else m.quick_tol
        checks.append(verify_gbc_check(m, res, False, tol))
    res, tol = (96, 1e-5) if full else (64, 1e-2)
    for k, bundle in plane.items():
        checks.append(cli_check(["euler-class", "--bundle", f"k={k}", "--res", str(res),
                                 "--tol", repr(tol)], bundle.k, tol))
    for name, spec in fields.items():
        argv = ["index", "--field", name]
        if not full:
            argv += ["--scan", "32"]
        checks.append(cli_check(argv, spec.expected, 0.0))

    rng = _rng(seed, 9)
    for name in spaces:
        times = ",".join(repr(float(t)) for t in np.sort(rng.uniform(0.05, 2.0, 3)))
        checks.append(cli_check(["heat", "--space", name, "--t", times],
                                HEAT_SPACE_CHI[name], 1e-10))

    checks.extend(_criterion10_checks(spaces["s2"], polar,
                                      [math.pi / 2, _rng(seed, 10).uniform(0.5, 5.5)]))

    rng = _rng(seed, 11)
    steps = 256 if full else 64
    for name, (lo, hi, arc) in _TRANSPORT_STARTS.items():
        chart = charts[name]
        x0 = rng.uniform(lo, hi)
        v, w = rng.normal(size=chart.dim), rng.normal(size=chart.dim)
        checks.append(Check(f"geodesic_transport {name}",
                            _geodesic_transport_check(chart, x0, v, arc, w, steps)))
        x0 = rng.uniform(lo, hi)
        step = rng.normal(size=chart.dim)
        step *= arc / np.linalg.norm(step)
        w = rng.normal(size=chart.dim)
        checks.append(Check(f"parallel_transport {name}",
                            _parallel_transport_check(chart, x0, step, w, steps)))

    checks.extend(_criterion5_checks(_rng(seed, 5), 25 if full else 5))
    return checks


def _criterion10_checks(sphere, polar, x):
    """Heat asymptotics on the unit 2-sphere: area 4 pi, total scalar
    curvature / 6 = 4 pi / 3, diagonal u1 = R / 6 = 1/3, and a first-order
    parametrix whose error shrinks as t does."""

    def fit():
        return heat.asymptotic_fit(sphere, 0, np.linspace(0.02, 0.18, 12))

    def a0():
        f = fit()
        return Outcome(f.a0 / (4 * math.pi), 1.0, 0.01, _floats(f.coefficients))

    def a1():
        f = fit()
        return Outcome(f.a1 / (4 * math.pi / 3), 1.0, 0.02, _floats(f.coefficients))

    def u1():
        val = heat.parametrix_u1_diag(polar, x)
        return Outcome(val, 1.0 / 3.0, 1e-3, val)

    def kernel():
        y = geometry.NormalCoordinates(polar, x).exp([0.5, 0.0])
        errs = [abs(heat.parametrix_kernel(polar, 1, t, x, y)
                    / heat.spectral_kernel_s2(t, 0.5) - 1.0)
                for t in (0.02, 0.01, 0.005)]
        if not errs[0] > errs[1] > errs[2]:
            raise CheckError(f"parametrix error does not shrink with t: {errs}")
        return Outcome(errs[1], 0.0, 0.05, errs)

    return [Check("criterion10 a0", a0), Check("criterion10 a1", a1),
            Check("criterion10 u1_diag", u1), Check("criterion10 kernel", kernel)]


def _norm2(chart, x, w):
    g = geometry.metric_jets(chart, np.asarray(x, dtype=float)[None, :], order=0)[0][0]
    return float(w @ g @ w)


def _geodesic_transport_check(chart, x0, v, arc, w, steps):
    """Parallel transport is an isometry: |w|_g is conserved along the geodesic."""

    def run():
        x1, v1, w1 = geometry.geodesic_transport(chart, x0, v, arc, w, steps=steps)
        before, after = _norm2(chart, x0, w), _norm2(chart, x1, w1)
        drift = abs(after - before) / max(1.0, before)
        return Outcome(drift, 0.0, 1e-9, (_floats(x1), _floats(v1), _floats(w1)))

    return run


def _parallel_transport_check(chart, x0, step, w, steps):
    """Transport along the coordinate segment x0 + t * step conserves |w|_g."""

    def run():
        w1 = geometry.parallel_transport(chart, lambda t: (x0 + t * step, step),
                                         w, steps=steps)
        before, after = _norm2(chart, x0, w), _norm2(chart, x0 + step, w1)
        drift = abs(after - before) / max(1.0, before)
        return Outcome(drift, 0.0, 1e-9, _floats(w1))

    return run


def _criterion5_checks(rng, trials):
    """Dense Lambda^p derivation extensions: the cancellation lemmas."""

    def compose(mats, p):
        out = np.eye(math.comb(mats[0].shape[0], p))
        for m in mats:
            out = out @ exterior.dp_extend(m, p)
        return out

    vanish, top = [], []
    for d in (2, 3, 4, 5):
        for _ in range(trials):
            mats = [rng.normal(size=(d, d)) for _ in range(rng.integers(1, d))]
            vanish.append((mats, max(np.prod([np.abs(m).max() for m in mats])
                                     * math.factorial(d), 1.0)))
            top.append([rng.normal(size=(d, d)) for _ in range(d)])
    few = []
    for d in (4, 6):
        # dp_extend4 at d = 6 is the costly family; fewer trials keep the
        # pass short
        for _ in range(max(1, trials // 3)):
            tensors = [rng.normal(size=(d,) * 4) for _ in range(rng.integers(1, d // 2))]
            few.append((d, tensors, max(np.prod([np.abs(a).max() for a in tensors])
                                        * math.factorial(d) * d ** 2, 1.0)))
    half = [rng.normal(size=(d,) * 4) for d in (2, 4) for _ in range(2 * trials)]

    def run_vanish():
        vals = [abs(exterior.supertrace(lambda p: compose(mats, p), mats[0].shape[0]))
                / scale for mats, scale in vanish]
        return Outcome(max(vals), 0.0, 1e-12, vals)

    def run_top():
        vals = []
        for mats in top:
            d = len(mats)
            st = exterior.supertrace(lambda p: compose(mats, p), d)
            want = (-1) ** d * exterior.patodi_coefficient(mats)
            vals.append(abs(st - want) / max(1.0, abs(want)))
        return Outcome(max(vals), 0.0, 1e-10, vals)

    def run_few():
        vals = []
        for d, tensors, scale in few:
            def ops(p):
                out = np.eye(math.comb(d, p))
                for tensor in tensors:
                    out = out @ exterior.dp_extend4(tensor, p)
                return out
            vals.append(abs(exterior.supertrace(ops, d)) / scale)
        return Outcome(max(vals), 0.0, 1e-12, vals)

    def run_half():
        vals = []
        for tensor in half:
            d = tensor.shape[0]

            def ops(p):
                m = exterior.dp_extend4(tensor, p)
                out = np.eye(m.shape[0])
                for _ in range(d // 2):
                    out = out @ m
                return out
            got = exterior.supertrace(ops, d)
            want = exterior.killing_double_sum(tensor, "interleaved")
            vals.append(abs(got - want) / max(1.0, abs(want)))
        return Outcome(max(vals), 0.0, 1e-10, vals)

    return [Check("criterion5 k<d vanish", run_vanish),
            Check("criterion5 k=d top", run_top),
            Check("criterion5 few-factor vanish", run_few),
            Check("criterion5 half-power identity", run_half)]


WORKLOADS = {"curvature4": curvature4, "thom": thom, "pointwise": pointwise}
