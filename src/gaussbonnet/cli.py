"""Command-line front end.

Subcommands: verify-gbc, index, euler-class, mq, heat, selftest.  Every
command emits a JSON report on stdout and exits 0 on pass, 1 on a numeric
failure, 2 on input errors.  GBC_THREADS caps the quadrature worker pool.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import bundles as bundles_mod
from . import gbc as gbc_mod
from . import heat as heat_mod
from . import index as index_mod
from . import library, mq as mq_mod
from .quadrature import QuadratureError
from .report import Report, report_to_csv, report_to_json
from .specfile import SpecFileError, load_manifold_spec

EXIT_PASS, EXIT_NUMERIC, EXIT_INPUT = 0, 1, 2


class InputError(ValueError):
    pass


def _load_spec(path, unreadable):
    """Parse a manifold-spec file, mapping every user-caused failure to
    InputError: `unreadable` (plus the OS reason) when the file cannot be
    read, the positioned SpecFileError message when it is malformed."""
    try:
        return load_manifold_spec(path)
    except OSError as exc:
        raise InputError(f"{unreadable} ({exc.strerror})") from None
    except SpecFileError as exc:
        raise InputError(str(exc)) from None


def _load_manifold(spec):
    """Built-in name or path to a manifold-spec file."""
    if spec in library.MANIFOLDS:
        return library.build_manifold(spec)
    doc = _load_spec(spec, f"unknown manifold {spec!r} (not a built-in, not a file); "
                           f"built-ins: {library.manifold_names()}")
    if doc.manifold is None:
        raise InputError(f"{spec}: file declares no charts")
    return doc.manifold


def _parse_bundle(text):
    if text.startswith("k="):
        try:
            return bundles_mod.make_plane_bundle(int(text[2:]))
        except ValueError:
            raise InputError(f"bad bundle spec {text!r}; expected k=<integer>")
    doc = _load_spec(text, f"bundle spec {text!r} is neither k=<int> nor a file")
    if doc.bundle is None:
        raise InputError(f"{text}: file has no bundle block")
    return doc.bundle


def _int_at_least(lo):
    """argparse type: an integer >= lo."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {lo}")
        return value

    return parse


# quadrature and scan node counts: QuadratureSpec.per_axis requires >= 2
_node_count = _int_at_least(2)


def _bundle_res(text):
    """argparse type for bundle resolutions: an even node count."""
    value = _node_count(text)
    if value % 2:
        raise argparse.ArgumentTypeError(
            f"{value} is odd; an odd Gauss-Legendre count puts a node at the "
            "chart origin, where the clutching angle atan2(x2, x1) is undefined")
    return value


def cmd_verify_gbc(args):
    manifold = _load_manifold(args.manifold)
    if manifold.atlas.dim % 2:
        raise InputError(f"odd dimension {manifold.atlas.dim}: "
                         "the curvature integrand vanishes identically")
    res = args.res or manifold.default_res
    tol = args.tol if args.tol is not None else manifold.default_tol
    extrapolate = args.extrapolate or manifold.extrapolate
    t0 = time.perf_counter()
    try:
        result = gbc_mod.verify_gbc(manifold.atlas, resolution=res,
                                    extrapolate=extrapolate)
    except QuadratureError as exc:
        if args.manifold in library.MANIFOLDS:
            raise
        # a spec-file metric that cannot be evaluated is bad input
        raise InputError(f"{args.manifold}: {exc}") from None
    report = Report(
        command="verify-gbc",
        inputs={"manifold": args.manifold, "res": res,
                "extrapolate": extrapolate, "tol": tol},
        resolutions=result.resolutions,
        value=result.integral,
        expected=manifold.expected_chi,
        tolerance=tol,
        wall_time=time.perf_counter() - t0,
        extra={"error_estimate": result.error_estimate},
    ).finalize()
    return report


def cmd_index(args):
    t0 = time.perf_counter()
    if args.manifold and args.manifold not in library.MANIFOLDS:
        doc = _load_spec(args.manifold, f"cannot read manifold-spec file {args.manifold!r}")
        if args.field not in doc.fields:
            raise InputError(f"{args.manifold}: no field {args.field!r}")
        fieldspec = doc.fields[args.field]
    else:
        try:
            fieldspec = library.build_field(args.field)
        except (KeyError, ValueError) as exc:
            raise InputError(f"--field {args.field!r}: {exc}")
    result = index_mod.index_sum(fieldspec, scan_resolution=args.scan)
    report = Report(
        command="index",
        inputs={"field": args.field, "scan": args.scan,
                "manifold": args.manifold},
        value=float(result.total),
        expected=(None if fieldspec.expected is None
                  else float(fieldspec.expected)),
        tolerance=0.5,  # integer comparison
        wall_time=time.perf_counter() - t0,
        extra={"zeros": [
            {"chart": z.chart, "x": [float(v) for v in z.x],
             "degree": z.local_degree, "raw_degree": z.raw_degree}
            for z in result.zeros],
            "dropped": [{"chart": chart, "x": [float(v) for v in x]}
                        for chart, x in result.dropped]},
    ).finalize()
    return report


def cmd_euler_class(args):
    bundle = _parse_bundle(args.bundle)
    t0 = time.perf_counter()
    result = bundles_mod.generalized_gbc(bundle, resolution=args.res)
    report = Report(
        command="euler-class",
        inputs={"bundle": args.bundle, "res": args.res, "tol": args.tol},
        resolutions=[(n, pf) for n, pf, _ in result.resolutions],
        value=result.pf_integral,
        expected=float(bundle.k),
        tolerance=args.tol,
        wall_time=time.perf_counter() - t0,
        extra={"transition_integral": result.transition_integral,
               "pfaffian_integral": result.pf_integral},
    ).finalize()
    if abs(result.transition_integral - bundle.k) >= args.tol:
        report.passed = False
    return report


def cmd_mq(args):
    bundle = _parse_bundle(args.bundle)
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    fiber_integrals = []
    for _ in range(args.base_points):
        r = rng.uniform(0.3, 1.8)
        th = rng.uniform(0, 2 * np.pi)
        x = [r * np.cos(th), r * np.sin(th)]
        fiber_integrals.append(
            mq_mod.mq_fiber_integral(bundle, "north", x, nodes=args.fiber_nodes))
    euler = mq_mod.mq_euler_number(bundle, resolution=args.res)
    worst_fiber = max(abs(v - 1.0) for v in fiber_integrals)
    report = Report(
        command="mq",
        inputs={"bundle": args.bundle, "fiber_nodes": args.fiber_nodes,
                "res": args.res, "base_points": args.base_points},
        value=euler.euler_number,
        expected=float(bundle.k),
        tolerance=args.tol,
        wall_time=time.perf_counter() - t0,
        extra={"fiber_integrals": fiber_integrals,
               "worst_fiber_error": worst_fiber},
    ).finalize()
    if worst_fiber >= 1e-8:
        report.passed = False
    return report


_SPACES = {
    "t1": lambda: heat_mod.FlatTorusSpectrum((1.0,)),
    "t2": lambda: heat_mod.FlatTorusSpectrum((1.0, 1.0)),
    "t4": lambda: heat_mod.FlatTorusSpectrum((1.0,) * 4),
    "s2": lambda: heat_mod.RoundSphereSpectrum(1.0),
}

_SPACE_CHI = {"t1": 0.0, "t2": 0.0, "t4": 0.0, "s2": 2.0}


def cmd_heat(args):
    if args.space not in _SPACES:
        raise InputError(f"unknown space {args.space!r}; have {sorted(_SPACES)}")
    try:
        t_values = [float(v) for v in args.t.split(",") if v]
    except ValueError:
        raise InputError(f"bad --t list {args.t!r}")
    if not t_values or any(t <= 0 for t in t_values):
        raise InputError("--t needs positive comma-separated times")
    model = _SPACES[args.space]()
    t0 = time.perf_counter()
    rows = []
    worst = 0.0
    for t in t_values:
        st = heat_mod.supertrace_heat(model, t, tail_tol=args.tail_tol)
        rows.append({"t": t, "supertrace": st.value, "tail_bound": st.tail_bound})
        worst = max(worst, abs(st.value - _SPACE_CHI[args.space]))
    report = Report(
        command="heat",
        inputs={"space": args.space, "t": t_values, "tail_tol": args.tail_tol},
        value=rows[-1]["supertrace"],
        expected=_SPACE_CHI[args.space],
        tolerance=args.tol,
        wall_time=time.perf_counter() - t0,
        extra={"supertraces": rows, "worst_error": worst},
    ).finalize()
    report.passed = bool(worst < args.tol)
    return report


def cmd_selftest(args):
    """Quick-tier pass/fail matrix across every built-in object."""
    t0 = time.perf_counter()
    rows = []

    def record(name, value, expected, tol):
        ok = abs(value - expected) < tol
        rows.append({"check": name, "value": value, "expected": expected,
                     "tolerance": tol, "passed": bool(ok)})
        return ok

    ok = True
    for name in library.manifold_names():
        manifold = library.build_manifold(name)
        if manifold.atlas.dim % 2:
            continue  # curvature integrand vanishes identically in odd dim
        res = gbc_mod.verify_gbc(manifold.atlas, resolution=manifold.quick_res,
                                 extrapolate=manifold.extrapolate)
        ok &= record(f"gbc:{name}", res.integral, manifold.expected_chi,
                     manifold.quick_tol)
    for fname in ("morse", "rotation", "constant", "z", "z2"):
        result = index_mod.index_sum(library.build_field(fname),
                                     scan_resolution=32)
        ok &= record(f"index:{fname}", float(result.total),
                     float(result.expected), 0.5)
    for k in (-2, -1, 0, 1, 2, 3):
        bundle = bundles_mod.make_plane_bundle(k)
        res = bundles_mod.generalized_gbc(bundle, resolution=96)
        ok &= record(f"bundle:k={k}", res.pf_integral, float(k), 1e-4)
        if k in (1, 2, 3):
            deg = index_mod.index_sum(library.build_field("section_zk", k=k),
                                      scan_resolution=32)
            ok &= record(f"section:z^{k}", float(deg.total), float(k), 0.5)
    ok &= record("mq:fiber", mq_mod.mq_fiber_integral(
        bundles_mod.make_plane_bundle(2), "north", [0.8, 0.3], nodes=24), 1.0, 1e-8)
    for space in ("t2", "s2"):
        model = _SPACES[space]()
        st = heat_mod.supertrace_heat(model, 0.25)
        ok &= record(f"heat:{space}", st.value, _SPACE_CHI[space], 1e-10)
    for row in rows:
        mark = "pass" if row["passed"] else "FAIL"
        print(f"[{mark}] {row['check']:>16}: {row['value']:+.6f} "
              f"(expected {row['expected']:+g}, tol {row['tolerance']:g})",
              file=sys.stderr)
    report = Report(
        command="selftest",
        inputs={},
        value=float(sum(r["passed"] for r in rows)),
        expected=float(len(rows)),
        tolerance=0.5,
        wall_time=time.perf_counter() - t0,
        extra={"checks": rows},
    ).finalize()
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussbonnet",
        description="Numerical verification of curvature-topology identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-gbc", help="integrate the curvature density "
                       "over a manifold and compare with its Euler characteristic")
    p.add_argument("--manifold", required=True,
                   help="built-in name or manifold-spec file")
    p.add_argument("--res", type=_node_count, default=None)
    p.add_argument("--extrapolate", action="store_true",
                   help="run the ladder res/2, 3*res/4, res and report "
                        "error_estimate, a bound on the finest level's error")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify_gbc)

    p = sub.add_parser("index", help="sum local degrees of a field's zeros")
    p.add_argument("--field", required=True,
                   help="built-in field name (morse, rotation, constant, z, "
                        "z2, z^K) or a field in a spec file")
    p.add_argument("--manifold", default=None, help="spec file for file fields")
    p.add_argument("--scan", type=_node_count, default=48)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("euler-class", help="transition-function and "
                       "Pfaffian-connection integrals of a plane bundle")
    p.add_argument("--bundle", required=True, help="k=<int> or spec file")
    p.add_argument("--res", type=_bundle_res, default=96)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_euler_class)

    p = sub.add_parser("mq", help="Thom-form fiber integrals and Euler number")
    p.add_argument("--bundle", required=True, help="k=<int> or spec file")
    p.add_argument("--fiber-nodes", type=_node_count, default=40)
    p.add_argument("--base-points", type=_int_at_least(1), default=10)
    p.add_argument("--res", type=_bundle_res, default=96)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_mq)

    p = sub.add_parser("heat", help="spectral heat supertraces")
    p.add_argument("--space", required=True, help="t1 | t2 | t4 | s2")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--tail-tol", type=float, default=1e-12)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("selftest", help="quick pass/fail matrix over all built-ins")
    p.set_defaults(func=cmd_selftest)

    for sp in sub.choices.values():
        sp.add_argument("--csv", default=None,
                        help="write the convergence table as CSV")
        sp.add_argument("--no-wall-time", action="store_true",
                        help="omit wall_time (byte-stable output)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(report_to_json(report, include_wall_time=not args.no_wall_time))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(report_to_csv(report))
    return EXIT_PASS if report.passed else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
