"""Acceptance criteria, one test per criterion at its declared tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.  Every expected value is an exact topological integer; the
tolerances are pure numerics.
"""

import math
import time
import zlib

import numpy as np

from gaussbonnet.bundles import generalized_gbc, make_plane_bundle
from gaussbonnet.exterior import (
    berezin, dp_extend, dp_extend4, exp_nilpotent, killing_double_sum,
    patodi_coefficient, pfaffian_numeric, supertrace, two_vector,
)
from gaussbonnet.gbc import (
    gb_density_aw_batch, gb_density_pfaffian_batch, verify_gbc,
)
from gaussbonnet.heat import (
    FlatTorusSpectrum, RoundSphereSpectrum, asymptotic_fit, parametrix_kernel,
    parametrix_u1_diag, spectral_kernel_s2, supertrace_heat,
)
from gaussbonnet.index import index_sum
from gaussbonnet.library import build_field, build_manifold
from gaussbonnet.mq import (
    berezin_vs_pfaffian_residual, mq_euler_number, mq_fiber_integral,
)
from gaussbonnet.geometry import Chart, NormalCoordinates, point_geometry_batch


def announce(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def interior_points(rng, chart, n, pad_frac=0.12):
    cols = []
    for (lo, hi), per in zip(chart.ranges, chart.periodic):
        pad = 0.0 if per else pad_frac * (hi - lo)
        cols.append(rng.uniform(lo + pad, hi - pad, n))
    return np.column_stack(cols)


def test_criterion_1_gbc_surfaces():
    t0 = time.perf_counter()
    sphere = verify_gbc(build_manifold("sphere2").atlas, resolution=128)
    sphere_time = time.perf_counter() - t0
    torus = verify_gbc(build_manifold("torus2").atlas, resolution=8)
    bumpy = verify_gbc(build_manifold("bumpy_sphere", eps=0.3).atlas,
                       resolution=128)
    ok = (abs(sphere.integral - 2) < 1e-6 and sphere_time < 2.0
          and abs(torus.integral) < 1e-12
          and abs(bumpy.integral - 2) < 1e-4)
    announce("criterion 1 (surface integrals)", ok,
             f"sphere2={sphere.integral:.9f} ({sphere_time:.2f}s) "
             f"torus2={torus.integral:.2e} bumpy={bumpy.integral:.7f}")


def test_criterion_2_gbc_dimension_4():
    t0 = time.perf_counter()
    s4 = verify_gbc(build_manifold("sphere4").atlas, resolution=32,
                    extrapolate=True)
    s4_time = time.perf_counter() - t0
    prod = verify_gbc(build_manifold("s2xs2").atlas, resolution=24,
                      extrapolate=True)
    t4 = verify_gbc(build_manifold("torus4").atlas, resolution=4)
    cp = verify_gbc(build_manifold("cp2").atlas, resolution=20,
                    extrapolate=True)
    ok = (abs(s4.integral - 2) < 1e-3 and s4_time < 10.0
          and abs(prod.integral - 4) < 1e-3
          and abs(t4.integral) < 1e-12
          and abs(cp.integral - 3) < 1e-2)
    announce("criterion 2 (dimension-4 integrals)", ok,
             f"sphere4={s4.integral:.9f} ({s4_time:.0f}s) "
             f"s2xs2={prod.integral:.9f} torus4={t4.integral:.2e} "
             f"cp2={cp.integral:.9f}")


def test_criterion_3_integrand_cross_check():
    worst = 0.0
    for name in ("sphere2", "bumpy_sphere", "sphere4", "s2xs2"):
        manifold = build_manifold(name)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for chart in manifold.atlas.charts:
            pts = interior_points(rng, chart, 200)
            pf = gb_density_pfaffian_batch(chart, pts)
            aw = gb_density_aw_batch(chart, pts)
            sqrt_det_g = point_geometry_batch(chart, pts).sqrt_det_g
            rel = np.abs(pf - aw) / (sqrt_det_g + np.abs(pf))
            worst = max(worst, float(rel.max()))
    announce("criterion 3 (Pfaffian vs permutation-sum densities)",
             worst < 1e-9, f"worst relative discrepancy {worst:.2e}")


def test_criterion_4_pfaffian_berezin_algebra():
    rng = np.random.default_rng(4)
    worst_sq = 0.0
    for d in (2, 4, 6, 8):
        for _ in range(250):
            m = rng.normal(size=(d, d))
            m = m - m.T
            pf = pfaffian_numeric(m)
            det = np.linalg.det(m)
            worst_sq = max(worst_sq, abs(pf * pf - det) / max(1.0, abs(det)))
    worst_bz = 0.0
    for d in (2, 4, 6):
        for _ in range(67):
            m = rng.normal(size=(d, d))
            m = m - m.T
            bz = berezin(exp_nilpotent(two_vector(m)))
            pf = pfaffian_numeric(m)
            worst_bz = max(worst_bz, abs(bz - pf) / max(1.0, abs(pf)))
    ok = worst_sq < 1e-10 and worst_bz < 1e-12
    announce("criterion 4 (Pfaffian/Berezin algebra)", ok,
             f"1000 trials Pf^2=det rel {worst_sq:.2e}; "
             f"200 trials B(exp)=Pf rel {worst_bz:.2e}")


def test_criterion_5_cancellation_lemmas():
    rng = np.random.default_rng(5)

    def compose(mats, p):
        out = np.eye(math.comb(mats[0].shape[0], p))
        for m in mats:
            out = out @ dp_extend(m, p)
        return out

    worst_vanish = 0.0
    worst_top = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(25):
            k = rng.integers(1, d)
            mats = [rng.normal(size=(d, d)) for _ in range(k)]
            scale = max(np.prod([np.abs(m).max() for m in mats])
                        * math.factorial(d), 1.0)
            st = supertrace(lambda p: compose(mats, p), d)
            worst_vanish = max(worst_vanish, abs(st) / scale)
            mats = [rng.normal(size=(d, d)) for _ in range(d)]
            st = supertrace(lambda p: compose(mats, p), d)
            want = (-1) ** d * patodi_coefficient(mats)
            worst_top = max(worst_top,
                            abs(st - want) / max(1.0, abs(want)))
    worst_few = 0.0
    for d in (4, 6):
        for _ in range(25):
            n_ops = rng.integers(1, d // 2)
            tensors = [rng.normal(size=(d,) * 4) for _ in range(n_ops)]

            def ops(p):
                out = np.eye(math.comb(d, p))
                for tensor in tensors:
                    out = out @ dp_extend4(tensor, p)
                return out

            scale = max(np.prod([np.abs(a).max() for a in tensors])
                        * math.factorial(d) * d ** 2, 1.0)
            worst_few = max(worst_few, abs(supertrace(ops, d)) / scale)
    worst_half = 0.0
    for d in (2, 4):
        for _ in range(50):
            tensor = rng.normal(size=(d,) * 4)

            def ops(p):
                m = dp_extend4(tensor, p)
                out = np.eye(m.shape[0])
                for _ in range(d // 2):
                    out = out @ m
                return out

            got = supertrace(ops, d)
            want = killing_double_sum(tensor, "interleaved")
            worst_half = max(worst_half, abs(got - want) / max(1.0, abs(want)))
    ok = (worst_vanish < 1e-12 and worst_top < 1e-10
          and worst_few < 1e-12 and worst_half < 1e-10)
    announce("criterion 5 (cancellation lemmas)", ok,
             f"k<d vanish {worst_vanish:.1e}; k=d match {worst_top:.1e}; "
             f"few-factor vanish {worst_few:.1e}; "
             f"half-power identity {worst_half:.1e}")


def test_criterion_6_poincare_hopf():
    morse = index_sum(build_field("morse"), scan_resolution=48)
    const = index_sum(build_field("constant"), scan_resolution=16)
    z1 = index_sum(build_field("z"), scan_resolution=32)
    z2 = index_sum(build_field("z2"), scan_resolution=32)
    # local_degree enforces two-radius integer stability internally
    ok = (morse.total == 2 and const.total == 0
          and z1.total == 2 and z2.total == 2)
    announce("criterion 6 (index sums)", ok,
             f"morse={morse.total} constant={const.total} "
             f"z={z1.total} z2={z2.total}")


def test_criterion_7_bundles():
    detail = []
    ok = True
    for k in (-2, -1, 0, 1, 2, 3):
        res = generalized_gbc(make_plane_bundle(k), resolution=96)
        ok &= abs(res.transition_integral - k) < 1e-5
        ok &= abs(res.pf_integral - k) < 1e-5
        if k > 0:
            deg = index_sum(build_field("section_zk", k=k), scan_resolution=32)
            ok &= deg.total == k
        detail.append(f"k={k}:{res.pf_integral:+.6f}")
    announce("criterion 7 (bundle Euler numbers)", ok, " ".join(detail))


def test_criterion_8_mathai_quillen():
    t0 = time.perf_counter()
    bundle = make_plane_bundle(2)
    rng = np.random.default_rng(8)
    worst_fiber = 0.0
    for _ in range(10):
        r = rng.uniform(0.3, 1.8)
        th = rng.uniform(0, 2 * math.pi)
        val = mq_fiber_integral(bundle, "north", [r * math.cos(th),
                                                  r * math.sin(th)], nodes=40)
        worst_fiber = max(worst_fiber, abs(val - 1.0))
    worst_pull = 0.0
    for _ in range(40):
        r = rng.uniform(0.3, 2.0)
        th = rng.uniform(0, 2 * math.pi)
        worst_pull = max(worst_pull, berezin_vs_pfaffian_residual(
            bundle, "north", [r * math.cos(th), r * math.sin(th)]))
    euler = mq_euler_number(bundle, resolution=96)
    mq_time = time.perf_counter() - t0
    ok = (worst_fiber < 1e-8 and worst_pull < 1e-10
          and abs(euler.euler_number - 2) < 1e-5 and mq_time < 2.0)
    announce("criterion 8 (Thom form)", ok,
             f"fiber integral err {worst_fiber:.1e}; "
             f"pullback residual {worst_pull:.1e}; "
             f"Euler number {euler.euler_number:.7f} ({mq_time:.2f}s)")


def test_criterion_9_spectral_supertraces():
    worst_torus = 0.0
    for d in (1, 2, 3, 4):
        model = FlatTorusSpectrum((1.0,) * d)
        for t in (0.05, 0.3, 1.0, 2.0):
            worst_torus = max(worst_torus, abs(supertrace_heat(model, t).value))
    sphere = RoundSphereSpectrum(1.0)
    values, bounds = [], []
    for t in np.linspace(0.05, 2.0, 20):
        st = supertrace_heat(sphere, t, tail_tol=1e-12)
        values.append(st.value)
        bounds.append(st.tail_bound)
    spread = max(values) - min(values)
    worst_sphere = max(abs(v - 2.0) for v in values)
    ok = (worst_torus < 1e-13 and worst_sphere <= max(max(bounds), 1e-10)
          and max(bounds) <= 1e-10 and spread < 1e-10)
    announce("criterion 9 (spectral supertraces)", ok,
             f"torus residue {worst_torus:.1e}; sphere err {worst_sphere:.1e} "
             f"(bound {max(bounds):.1e}); spread {spread:.1e}")


def test_criterion_10_heat_asymptotics():
    fit = asymptotic_fit(RoundSphereSpectrum(1.0), 0, np.linspace(0.02, 0.18, 12))
    a0_ok = abs(fit.a0 - 4 * math.pi) < 0.01 * 4 * math.pi
    a1_ok = abs(fit.a1 - 4 * math.pi / 3) < 0.02 * 4 * math.pi / 3
    chart = Chart.from_strings(
        "polar", 2, [(0, math.pi), (0, 2 * math.pi)], [False, True],
        {(0, 0): "1", (1, 1): "sin(x1)^2"})
    x = [math.pi / 2, 1.0]
    u1 = parametrix_u1_diag(chart, x)
    u1_ok = abs(u1 - 1.0 / 3.0) < 1e-5
    y = NormalCoordinates(chart, x).exp([0.5, 0.0])
    errors = {}
    for t in (0.02, 0.01, 0.005):
        h1 = parametrix_kernel(chart, 1, t, x, y)
        errors[t] = abs(h1 / spectral_kernel_s2(t, 0.5) - 1.0)
    kernel_ok = (errors[0.01] < 0.05
                 and errors[0.005] < errors[0.01] < errors[0.02])
    ok = a0_ok and a1_ok and u1_ok and kernel_ok
    announce("criterion 10 (heat asymptotics)", ok,
             f"a0={fit.a0:.6f} a1={fit.a1:.6f} u1_diag={u1:.6f} "
             f"kernel errs {errors[0.02]:.1e}>{errors[0.01]:.1e}>"
             f"{errors[0.005]:.1e}")
