"""Command-line front end.

Subcommands: verify-gbc, index, euler-class, mq, heat, selftest.  Every
command returns a Report whose expected values come from topology
metadata; `Report.finalize` alone decides pass/fail.  `main` prints it
as JSON on stdout and exits 0 on pass or when nothing was declared to
compare (passed null), 1 on a numeric failure (a NaN fails), 2 on input
errors and 3 on an internal error, each error as one stderr line.
GBC_THREADS caps the quadrature worker pool.
"""

from __future__ import annotations

import argparse
import functools
import math
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

EXIT_PASS, EXIT_NUMERIC, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3


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


# quadrature and scan node counts
_node_count = _int_at_least(2)


def _positive_float(text):
    """argparse type: a finite number > 0 (tolerances and times)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


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
    try:
        result = gbc_mod.verify_gbc(manifold.atlas, resolution=res,
                                    extrapolate=extrapolate)
    except QuadratureError as exc:
        if args.manifold in library.MANIFOLDS:
            raise
        # a spec-file metric or weight that cannot be evaluated is bad input
        raise InputError(f"{args.manifold}: {exc}") from None
    return Report(
        command="verify-gbc",
        inputs={"manifold": args.manifold, "res": res,
                "extrapolate": extrapolate, "tol": tol},
        resolutions=result.resolutions,
        value=result.integral,
        expected=manifold.expected_chi,
        tolerance=tol,
        extra={"error_estimate": result.error_estimate},
    ).finalize()


def cmd_index(args):
    from_file = bool(args.manifold) and args.manifold not in library.MANIFOLDS
    if from_file:
        doc = _load_spec(args.manifold, f"cannot read manifold-spec file {args.manifold!r}")
        if args.field not in doc.fields:
            raise InputError(f"{args.manifold}: no field {args.field!r}")
        fieldspec = doc.fields[args.field]
    else:
        try:
            fieldspec = library.build_field(args.field)
        except (KeyError, ValueError) as exc:
            raise InputError(f"--field {args.field!r}: {exc}")
    try:
        result = index_mod.index_sum(fieldspec, scan_resolution=args.scan)
    except (ArithmeticError, index_mod.DegreeError) as exc:
        # zeros not isolated at this --scan, or a spec-file component that
        # leaves its domain, are bad input; a built-in's domain error is not
        if not (from_file or isinstance(exc, index_mod.DegreeError)):
            raise
        where = f"{args.manifold}: field" if from_file else "--field"
        raise InputError(f"{where} {args.field!r}: {exc}") from None
    return Report(
        command="index",
        inputs={"field": args.field, "scan": args.scan,
                "manifold": args.manifold},
        value=float(result.total),
        expected=(None if fieldspec.expected is None
                  else float(fieldspec.expected)),
        tolerance=0.5,  # integer comparison
        extra={"zeros": [
            {"chart": z.chart, "x": [float(v) for v in z.x],
             "degree": z.local_degree, "raw_degree": z.raw_degree}
            for z in result.zeros],
            "dropped": [{"chart": chart, "x": [float(v) for v in x]}
                        for chart, x in result.dropped]},
    ).finalize()


def cmd_euler_class(args):
    bundle = _parse_bundle(args.bundle)
    result = bundles_mod.generalized_gbc(bundle, resolution=args.res)
    return Report(
        command="euler-class",
        inputs={"bundle": args.bundle, "res": args.res, "tol": args.tol},
        resolutions=[(args.res, result.pf_integral)],
        value=result.pf_integral,
        expected=float(bundle.k),
        tolerance=args.tol,
        extra={"transition_integral": result.transition_integral,
               "pfaffian_integral": result.pf_integral},
    ).finalize((result.transition_integral, bundle.k, args.tol))


def cmd_mq(args):
    bundle = _parse_bundle(args.bundle)
    rng = np.random.default_rng(0)
    fiber_integrals = []
    for _ in range(args.base_points):
        r = rng.uniform(0.3, 1.8)
        th = rng.uniform(0, 2 * np.pi)
        x = [r * np.cos(th), r * np.sin(th)]
        fiber_integrals.append(
            mq_mod.mq_fiber_integral(bundle, "north", x, nodes=args.fiber_nodes))
    euler = mq_mod.mq_euler_number(bundle, resolution=args.res)
    return Report(
        command="mq",
        inputs={"bundle": args.bundle, "fiber_nodes": args.fiber_nodes,
                "res": args.res, "base_points": args.base_points},
        value=euler.euler_number,
        expected=float(bundle.k),
        tolerance=args.tol,
        extra={"fiber_integrals": fiber_integrals,
               "worst_fiber_error": max(abs(v - 1.0) for v in fiber_integrals)},
    ).finalize(*((v, 1.0, 1e-8) for v in fiber_integrals))  # each fiber integrates to 1


# heat model spaces: (spectrum, Euler characteristic as topology metadata)
_SPACES = {
    "t1": (heat_mod.FlatTorusSpectrum((1.0,)), 0.0),
    "t2": (heat_mod.FlatTorusSpectrum((1.0, 1.0)), 0.0),
    "t4": (heat_mod.FlatTorusSpectrum((1.0,) * 4), 0.0),
    "s2": (heat_mod.RoundSphereSpectrum(1.0), 2.0),
}


def cmd_heat(args):
    if args.space not in _SPACES:
        raise InputError(f"unknown space {args.space!r}; have {sorted(_SPACES)}")
    try:
        t_values = [_positive_float(v) for v in args.t.split(",") if v]
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"bad --t list {args.t!r}: {exc}") from None
    if not t_values:
        raise InputError("--t needs positive comma-separated times")
    model, chi = _SPACES[args.space]
    rows = []
    for t in t_values:
        st = heat_mod.supertrace_heat(model, t, tail_tol=args.tail_tol)
        rows.append({"t": t, "supertrace": st.value, "tail_bound": st.tail_bound})
    return Report(
        command="heat",
        inputs={"space": args.space, "t": t_values, "tail_tol": args.tail_tol},
        value=rows[-1]["supertrace"],
        expected=chi,
        tolerance=args.tol,
        extra={"supertraces": rows,
               "worst_error": max(abs(r["supertrace"] - chi) for r in rows)},
    ).finalize(*((r["supertrace"], chi, args.tol) for r in rows))


def _selftest_argvs():
    """The quick tier: each built-in object through its own subcommand."""
    argvs = []
    for name in library.manifold_names():
        manifold = library.build_manifold(name)
        if manifold.atlas.dim % 2:
            continue  # curvature integrand vanishes identically in odd dim
        argvs.append(["verify-gbc", "--manifold", name, "--res", str(manifold.quick_res),
                      "--tol", repr(manifold.quick_tol)]
                     + ["--extrapolate"] * manifold.extrapolate)
    argvs += [["index", "--field", name, "--scan", "32"]
              for name in ("morse", "rotation", "constant", "z", "z2", "z^1", "z^2", "z^3")]
    argvs += [["euler-class", "--bundle", f"k={k}", "--tol", "1e-4"] for k in range(-2, 4)]
    argvs.append(["mq", "--bundle", "k=2", "--fiber-nodes", "24", "--base-points", "1"])
    argvs += [["heat", "--space", space, "--t", "0.25"] for space in ("t2", "s2")]
    return argvs


def cmd_selftest(args):
    """Quick-tier pass/fail matrix: one row per subcommand report."""
    rows = []
    for argv in _selftest_argvs():
        sub = build_parser().parse_args(argv)
        report = sub.func(sub)
        rows.append({"check": argv, "value": report.value, "expected": report.expected,
                     "tolerance": report.tolerance, "passed": report.passed})
        mark = "pass" if report.passed else "FAIL"
        print(f"[{mark}] {' '.join(argv)}: {report.value:+.6f} "
              f"(expected {report.expected:+g}, tol {report.tolerance:g})",
              file=sys.stderr)
    return Report(
        command="selftest",
        inputs={},
        value=float(sum(row["passed"] is True for row in rows)),
        expected=float(len(rows)),
        tolerance=0.5,
        extra={"checks": rows},
    ).finalize()


@functools.lru_cache(maxsize=None)
def build_parser():
    """The one parser of every CLI call, built on first use; parse_args
    keeps no state between calls, each fills a fresh namespace."""
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
    p.add_argument("--tol", type=_positive_float, default=None)
    p.set_defaults(func=cmd_verify_gbc)

    p = sub.add_parser("index", help="sum local degrees of a field's zeros")
    p.add_argument("--field", required=True,
                   help="built-in field name (morse, rotation, constant, z, "
                        "z2, z^K) or a field in a spec file")
    p.add_argument("--manifold", default=None, help="spec file for file fields")
    p.add_argument("--scan", type=_node_count, default=48)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("euler-class", help="integral of a plane bundle's "
                       "Euler 2-form, by its transition and connection code paths")
    p.add_argument("--bundle", required=True, help="k=<int> or spec file")
    p.add_argument("--res", type=_bundle_res, default=96)
    p.add_argument("--tol", type=_positive_float, default=1e-5)
    p.set_defaults(func=cmd_euler_class)

    p = sub.add_parser("mq", help="Thom-form fiber integrals and Euler number")
    p.add_argument("--bundle", required=True, help="k=<int> or spec file")
    p.add_argument("--fiber-nodes", type=_node_count, default=40)
    p.add_argument("--base-points", type=_int_at_least(1), default=10)
    p.add_argument("--res", type=_bundle_res, default=96)
    p.add_argument("--tol", type=_positive_float, default=1e-5)
    p.set_defaults(func=cmd_mq)

    p = sub.add_parser("heat", help="spectral heat supertraces")
    p.add_argument("--space", required=True, help="t1 | t2 | t4 | s2")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--tail-tol", type=_positive_float, default=1e-12)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
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
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, never of the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.wall_time = time.perf_counter() - t0
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(report_to_csv(report))
        except OSError as exc:
            print(f"error: --csv {args.csv}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT
    print(report_to_json(report, include_wall_time=not args.no_wall_time))
    return EXIT_NUMERIC if report.passed is False else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
