"""Spec-file loading, report determinism, CLI dispatch and exit codes."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussbonnet
from gaussbonnet import cli
from gaussbonnet.cli import main
from gaussbonnet.gbc import verify_gbc
from gaussbonnet.index import index_sum
from gaussbonnet.specfile import SpecFileError, load_manifold_spec

SPHERE_SPEC = """\
schema: 1
name: file-sphere
dim: 2
expected_chi: 2
param r: 1.0

chart polar:
  range x1: 0 pi
  range x2: 0 2*pi periodic
  g 1 1: r^2
  g 2 2: r^2*sin(x1)^2
end
"""

FIELD_SPEC = """\
schema: 1
name: disk-with-field
dim: 2

chart disk:
  range x1: -2 2
  range x2: -2 2
  g 1 1: 1
  g 2 2: 1
end

field saddle:
  type: vector
  expected: -1
  component disk 1: x1
  component disk 2: -x2
end
"""

BUNDLE_SPEC = """\
schema: 1
name: clutched
dim: 2
expected_chi: 2

bundle:
  k: 2
  sharpness: 6
  expected_euler: 2
end
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- specfile

def test_load_sphere_spec(tmp_path):
    doc = load_manifold_spec(write(tmp_path, "s.mspec", SPHERE_SPEC))
    assert doc.manifold.name == "file-sphere"
    assert doc.manifold.expected_chi == 2
    res = verify_gbc(doc.manifold.atlas, resolution=48)
    assert res.integral == pytest.approx(2.0, abs=1e-8)


def test_load_field_spec(tmp_path):
    doc = load_manifold_spec(write(tmp_path, "f.mspec", FIELD_SPEC))
    field = doc.fields["saddle"]
    result = index_sum(field, scan_resolution=24)
    assert result.total == -1 == field.expected


def test_load_bundle_spec(tmp_path):
    doc = load_manifold_spec(write(tmp_path, "b.mspec", BUNDLE_SPEC))
    assert doc.bundle.k == 2


def test_schema_header_required(tmp_path):
    path = write(tmp_path, "bad.mspec", "name: x\ndim: 2\n")
    with pytest.raises(SpecFileError) as err:
        load_manifold_spec(path)
    assert "schema" in str(err.value)


def test_parse_error_carries_line(tmp_path):
    bad = SPHERE_SPEC.replace("g 2 2: r^2*sin(x1)^2", "g 2 2: r^2*sin(x1")
    path = write(tmp_path, "broken.mspec", bad)
    with pytest.raises(SpecFileError) as err:
        load_manifold_spec(path)
    assert ".mspec:" in str(err.value)


def test_missing_metric_entry(tmp_path):
    bad = SPHERE_SPEC.replace("  g 2 2: r^2*sin(x1)^2\n", "")
    with pytest.raises(SpecFileError) as err:
        load_manifold_spec(write(tmp_path, "m.mspec", bad))
    assert "upper triangle" in str(err.value)


def test_unterminated_block(tmp_path):
    bad = SPHERE_SPEC.replace("end\n", "")
    with pytest.raises(SpecFileError) as err:
        load_manifold_spec(write(tmp_path, "u.mspec", bad))
    assert "unterminated" in str(err.value)


# --------------------------------------------------------------------- cli

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    run_cli.err = captured.err
    return code, doc


def test_cli_verify_gbc_sphere(capsys):
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", "sphere2",
                        "--res", "48", "--tol", "1e-6", "--no-wall-time")
    assert code == 0
    assert doc["passed"] is True
    assert doc["value"] == pytest.approx(2.0, abs=1e-6)


def test_cli_verify_gbc_torus(capsys):
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", "torus2",
                        "--no-wall-time")
    assert code == 0 and doc["value"] == 0.0


def test_cli_odd_dimension_is_input_error(capsys):
    code, _ = run_cli(capsys, "verify-gbc", "--manifold", "sphere3")
    assert code == 2
    assert "odd dimension" in run_cli.err


def test_cli_unknown_manifold(capsys):
    code, _ = run_cli(capsys, "verify-gbc", "--manifold", "nope")
    assert code == 2


def test_cli_numeric_failure_exit_code(capsys):
    # impossible tolerance turns a correct value into a numeric failure
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", "sphere2",
                        "--res", "8", "--tol", "1e-18", "--no-wall-time")
    assert code == 1
    assert doc["passed"] is False


def test_cli_index_builtins(capsys):
    code, doc = run_cli(capsys, "index", "--field", "morse", "--no-wall-time")
    assert code == 0 and doc["value"] == 2.0
    code, doc = run_cli(capsys, "index", "--field", "constant", "--no-wall-time")
    assert code == 0 and doc["value"] == 0.0
    code, doc = run_cli(capsys, "index", "--field", "z^3", "--no-wall-time")
    assert code == 0 and doc["value"] == 3.0


def test_cli_index_reports_dropped_candidates(tmp_path, capsys):
    """A deep |X| minimum that Newton cannot refine is listed under
    "dropped", byte-stable under --no-wall-time."""
    spec = FIELD_SPEC.replace("expected: -1", "expected: 0").replace(
        "component disk 1: x1", "component disk 1: x1^2 + 1e-7").replace(
        "component disk 2: -x2", "component disk 2: x2")
    argv = ["index", "--field", "saddle", "--manifold",
            write(tmp_path, "f.mspec", spec), "--scan", "40", "--no-wall-time"]
    outs = []
    for _ in range(2):
        main(argv)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["zeros"] == [] and len(doc["dropped"]) >= 1
    assert doc["dropped"][0]["chart"] == "disk"
    assert abs(doc["dropped"][0]["x"][0]) < 0.2  # near the fake minimum
    code, doc = run_cli(capsys, "index", "--field", "morse", "--no-wall-time")
    assert code == 0 and doc["dropped"] == []


def test_cli_index_plateau_gives_one_candidate(tmp_path, capsys):
    """A nowhere-zero field whose |X| varies along x4 only: the lowest scan
    layer is a plateau of exact ties, and it yields one Newton candidate."""
    spec = """\
schema: 1
name: flat4
dim: 4

chart unit:
  range x1: 0 1
  range x2: 0 1
  range x3: 0 1
  range x4: 0 2*pi
  g 1 1: 1
  g 2 2: 1
  g 3 3: 1
  g 4 4: 1
end

field plateau:
  type: vector
  component unit 1: exp(x4)*exp(x4)
  component unit 2: exp(0.5)
  component unit 3: -1
  component unit 4: 1
end
"""
    code, doc = run_cli(capsys, "index", "--field", "plateau", "--manifold",
                        write(tmp_path, "f.mspec", spec), "--scan", "8", "--no-wall-time")
    assert code == 0 and doc["value"] == 0.0 and doc["zeros"] == []
    assert len(doc["dropped"]) == 1


def test_python_m_gaussbonnet_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gaussbonnet", "index", "--field", "z",
                           "--no-wall-time"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 2.0


def test_every_export_resolves():
    """Each name in a module's __all__ is defined there, and each public name
    that a package module (the package __init__ included) imports from a
    module with an __all__ is listed in it, so a deletion leaves no stale
    export and no unlisted public name."""
    package = Path(gaussbonnet.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):  # __main__ runs the CLI
            module = importlib.import_module(f"gaussbonnet.{path.stem}")
            missing = [name for name in getattr(module, "__all__", ())
                       if not hasattr(module, name)]
            assert not missing, (path.stem, missing)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                source = importlib.import_module(f"gaussbonnet.{node.module}")
                exports = getattr(source, "__all__", None)
                unlisted = [alias.name for alias in node.names
                            if exports is not None and not alias.name.startswith("_")
                            and alias.name not in exports]
                assert not unlisted, (path.stem, node.module, unlisted)


def test_cli_euler_class(capsys):
    code, doc = run_cli(capsys, "euler-class", "--bundle", "k=2",
                        "--res", "96", "--no-wall-time")
    assert code == 0
    assert doc["pfaffian_integral"] == pytest.approx(2.0, abs=1e-5)
    assert doc["transition_integral"] == pytest.approx(2.0, abs=1e-5)


def test_cli_mq(capsys):
    code, doc = run_cli(capsys, "mq", "--bundle", "k=2", "--fiber-nodes", "24",
                        "--base-points", "3", "--res", "64", "--tol", "1e-3",
                        "--no-wall-time")
    assert code == 0
    assert doc["worst_fiber_error"] < 1e-8
    assert doc["value"] == pytest.approx(2.0, abs=1e-3)


def test_cli_heat(capsys):
    code, doc = run_cli(capsys, "heat", "--space", "s2",
                        "--t", "0.05,0.2,1", "--no-wall-time")
    assert code == 0
    assert all(abs(r["supertrace"] - 2) < 1e-10 for r in doc["supertraces"])
    code, doc = run_cli(capsys, "heat", "--space", "t4", "--t", "0.5",
                        "--no-wall-time")
    assert code == 0 and abs(doc["value"]) < 1e-12


def test_cli_heat_bad_inputs(capsys):
    assert run_cli(capsys, "heat", "--space", "s9", "--t", "1")[0] == 2
    assert run_cli(capsys, "heat", "--space", "s2", "--t", "-1")[0] == 2
    for t in ("nan", "inf", "0", "0.1,nan"):
        assert run_cli(capsys, "heat", "--space", "s2", "--t", t) == (2, None)


@pytest.mark.parametrize("argv, message", [
    (["index", "--field", "z", "--manifold", "/missing.mspec"], "cannot read"),
    (["index", "--field", "z^x"], "--field 'z^x'"),
    (["euler-class", "--bundle", "/missing.mspec"], "neither k=<int> nor a file"),
    (["index", "--field", "z^-1"], "--field 'z^-1': z^K needs K >= 0"),
    (["verify-gbc", "--manifold", "torus2", "--csv", "/nonexistent/dir/t.csv"],
     "error: --csv /nonexistent/dir/t.csv: No such file or directory"),
], ids=["index-missing-spec", "index-bad-field", "euler-class-missing-spec",
        "index-negative-power", "verify-gbc-unwritable-csv"])
def test_cli_bad_spec_is_input_error(capsys, argv, message):
    code, doc = run_cli(capsys, *argv)
    assert code == 2 and doc is None
    assert message in run_cli.err


@pytest.mark.parametrize("argv, message", [
    (["euler-class", "--bundle", "k=1", "--res", "3"], "odd"),
    (["mq", "--bundle", "k=1", "--res", "95"], "odd"),
    (["euler-class", "--bundle", "k=1", "--res", "1"], "minimum 2"),
    (["index", "--field", "z", "--scan", "0"], "minimum 2"),
    (["mq", "--bundle", "k=1", "--fiber-nodes", "1"], "minimum 2"),
    (["mq", "--bundle", "k=1", "--base-points", "0"], "minimum 1"),
    (["verify-gbc", "--manifold", "sphere2", "--res", "0"], "minimum 2"),
    (["verify-gbc", "--manifold", "sphere2", "--res", "x"], "not an integer"),
    (["heat", "--space", "s2", "--t", "1", "--tol", "nan"], "positive finite"),
    (["heat", "--space", "s2", "--t", "1", "--tail-tol", "inf"], "positive finite"),
    (["verify-gbc", "--manifold", "sphere2", "--tol", "0"], "positive finite"),
    (["euler-class", "--bundle", "k=1", "--tol=-1e-5"], "positive finite"),
    (["mq", "--bundle", "k=1", "--tol", "x"], "'x' is not a number"),
], ids=["euler-class-odd-res", "mq-odd-res", "euler-class-res-1", "index-scan-0",
        "mq-fiber-nodes-1", "mq-base-points-0", "verify-gbc-res-0", "verify-gbc-res-x",
        "heat-tol-nan", "heat-tail-tol-inf", "verify-gbc-tol-0", "euler-class-tol-negative",
        "mq-tol-x"])
def test_cli_rejects_bad_node_counts(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


_NON_INTEGER_CASES = [
    ("dim", SPHERE_SPEC, "dim: 2", "dim: two"),
    ("expected_chi", SPHERE_SPEC, "expected_chi: 2", "expected_chi: 2.0"),
    ("metric-index", SPHERE_SPEC, "g 1 1: r^2", "g 1 x: r^2"),
    ("field-expected", FIELD_SPEC, "expected: -1", "expected: minus one"),
    ("component-index", FIELD_SPEC, "component disk 2:", "component disk two:"),
    ("bundle-k", BUNDLE_SPEC, "  k: 2", "  k: 2.5"),
    ("bundle-sharpness", BUNDLE_SPEC, "sharpness: 6", "sharpness: six"),
    ("bundle-expected", BUNDLE_SPEC, "expected_euler: 2", "expected_euler: 2x"),
]
_COMMAND_FOR = {SPHERE_SPEC: ["verify-gbc", "--manifold"],
                FIELD_SPEC: ["index", "--field", "saddle", "--manifold"],
                BUNDLE_SPEC: ["euler-class", "--bundle"]}


@pytest.mark.parametrize("spec, old, new", [c[1:] for c in _NON_INTEGER_CASES],
                         ids=[c[0] for c in _NON_INTEGER_CASES])
def test_cli_non_integer_spec_value_is_input_error(tmp_path, capsys, spec, old, new):
    assert spec.count(old) == 1
    text = spec.replace(old, new)
    line = text[:text.index(new)].count("\n") + 1
    path = write(tmp_path, "bad.mspec", text)
    code, doc = run_cli(capsys, *_COMMAND_FOR[spec], path)
    assert code == 2 and doc is None
    assert f"{path}:{line}: " in run_cli.err and "must be an integer" in run_cli.err


def test_cli_non_utf8_spec_is_input_error(tmp_path, capsys):
    path = tmp_path / "noise.mspec"
    path.write_bytes(b"schema: 1\nname: x\n" + bytes(range(128, 256)))
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", str(path))
    assert code == 2 and doc is None
    assert f"{path}:3: not UTF-8" in run_cli.err
    assert "Traceback" not in run_cli.err


_OUT_OF_RANGE_CASES = [
    ("dim-zero", "schema: 1\nname: x\ndim: 0\nchart c:\nend\n", "dim: 0",
     ["verify-gbc", "--manifold"], "dim must be at least 1"),
    ("dim-negative", SPHERE_SPEC.replace("dim: 2", "dim: -2"), "dim: -2",
     ["verify-gbc", "--manifold"], "dim must be at least 1"),
    ("sharpness-zero", BUNDLE_SPEC.replace("sharpness: 6", "sharpness: 0"),
     "sharpness: 0", ["euler-class", "--res", "8", "--bundle"], "must be positive"),
    ("sharpness-negative", BUNDLE_SPEC.replace("sharpness: 6", "sharpness: -3"),
     "sharpness: -3", ["euler-class", "--res", "8", "--bundle"], "must be positive"),
    ("range-empty", SPHERE_SPEC.replace("range x1: 0 pi", "range x1: 1 1"),
     "range x1: 1 1", ["verify-gbc", "--manifold"], "range needs finite lo < hi"),
    ("range-overflow", SPHERE_SPEC.replace("range x1: 0 pi", "range x1: -2*1e308 0"),
     "range x1: -2*1e308 0", ["verify-gbc", "--manifold"], "range needs finite lo < hi"),
]


@pytest.mark.parametrize("text, bad_line, command, message",
                         [c[1:] for c in _OUT_OF_RANGE_CASES],
                         ids=[c[0] for c in _OUT_OF_RANGE_CASES])
def test_cli_out_of_range_spec_value_is_input_error(tmp_path, capsys, text, bad_line,
                                                    command, message):
    line = text[:text.index(bad_line)].count("\n") + 1
    path = write(tmp_path, "bad.mspec", text)
    code, doc = run_cli(capsys, *command, path)
    assert code == 2 and doc is None
    assert f"{path}:{line}: " in run_cli.err and message in run_cli.err
    assert "Traceback" not in run_cli.err
    assert run_cli.err.count("\n") == 1 and run_cli.err.endswith("\n")  # one stderr line


def test_cli_overflowing_spec_constant_writes_one_stderr_line(tmp_path):
    """Folding 2*1e308 to inf prints no numpy warning ahead of the error."""
    path = write(tmp_path, "bad.mspec",
                 SPHERE_SPEC.replace("range x1: 0 pi", "range x1: -2*1e308 0"))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gaussbonnet", "verify-gbc", "--manifold",
                           path], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}:8: range needs finite lo < hi")


def test_cli_spec_metric_not_positive_definite_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "neg.mspec", SPHERE_SPEC.replace("g 1 1: r^2", "g 1 1: -1"))
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", path, "--res", "8")
    assert code == 2 and doc is None
    assert run_cli.err.startswith(f"error: {path}: ")


def test_cli_spec_file_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "s.mspec", SPHERE_SPEC)
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", path,
                        "--res", "48", "--tol", "1e-6", "--no-wall-time")
    assert code == 0 and doc["passed"]


def test_cli_csv_output(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, _ = run_cli(capsys, "verify-gbc", "--manifold", "sphere2",
                      "--res", "32", "--extrapolate", "--csv", str(csv_path),
                      "--no-wall-time")
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "nodes,value"
    assert len(lines) == 4  # header + three refinement levels


def test_cli_calls_in_a_row_share_one_parser_and_no_arguments(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, first = run_cli(capsys, "heat", "--space", "t2", "--t", "0.25", "--tol", "0.5",
                          "--csv", str(csv_path), "--no-wall-time")
    assert code == 0 and csv_path.exists() and "wall_time" not in first
    csv_path.unlink()
    parser = cli.build_parser()
    code, second = run_cli(capsys, "heat", "--space", "t2", "--t", "0.25")
    assert code == 0 and cli.build_parser() is parser
    assert not csv_path.exists() and "wall_time" in second
    assert first["tolerance"] == 0.5 and second["tolerance"] == 1e-10  # the default


def test_cli_selftest_all_builtins_pass(capsys):
    """Each built-in object runs through its own subcommand: one row each."""
    code, doc = run_cli(capsys, "selftest", "--no-wall-time")
    assert code == 0
    assert all(row["passed"] for row in doc["checks"])
    assert doc["value"] == doc["expected"] == 24.0
    rows = doc["checks"]
    assert [sorted(row) for row in rows] == [
        ["check", "expected", "passed", "tolerance", "value"]] * 24
    objects = [tuple(row["check"][:3]) for row in rows]
    assert len(set(objects)) == 24
    assert {argv[0] for argv in objects} == {"verify-gbc", "index", "euler-class",
                                             "mq", "heat"}
    assert sum(argv[0] == "verify-gbc" for argv in objects) == 7  # even built-ins
    assert sum(argv[0] == "index" for argv in objects) == 8
    assert [argv[2] for argv in objects if argv[0] == "euler-class"] == [
        f"k={k}" for k in range(-2, 4)]


def test_cli_verify_gbc_error_estimate(capsys):
    base = ["verify-gbc", "--manifold", "sphere2", "--res", "32", "--no-wall-time"]
    code, doc = run_cli(capsys, *base, "--extrapolate")
    assert code == 0
    assert math.isfinite(doc["error_estimate"]) and doc["error_estimate"] >= 0.0
    code, doc = run_cli(capsys, *base)
    assert code == 0 and doc["error_estimate"] is None
    outs = []
    for _ in range(2):
        main(base + ["--extrapolate"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and '"error_estimate": ' in outs[0]


def test_report_determinism(capsys):
    outs = []
    for _ in range(2):
        main(["verify-gbc", "--manifold", "sphere2", "--res", "32",
              "--no-wall-time"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]  # byte-identical


def test_report_wall_time_excluded_from_determinism(capsys):
    docs = []
    for _ in range(2):
        main(["verify-gbc", "--manifold", "sphere2", "--res", "32"])
        docs.append(json.loads(capsys.readouterr().out))
    for doc in docs:
        assert doc.pop("wall_time") >= 0.0
    assert docs[0] == docs[1]


# ------------------------------------------------------ one verdict rule

def _nan_on_call(original, which, patch):
    """Wrap `original` so that call number `which` (0-based) returns
    patch(result) instead of result."""
    calls = []

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(None)
        return patch(result) if len(calls) - 1 == which else result

    return wrapped


@pytest.mark.parametrize("argv, target, which, patch", [
    (["heat", "--space", "s2", "--t", "0.1,0.5"], "heat_mod.supertrace_heat", 0,
     lambda st: st._replace(value=math.nan)),
    (["euler-class", "--bundle", "k=2", "--res", "32", "--tol", "1"],
     "bundles_mod.generalized_gbc", 0,
     lambda r: type(r)(r.pf_integral, math.nan)),
    (["mq", "--bundle", "k=2", "--fiber-nodes", "24", "--base-points", "2",
      "--res", "32", "--tol", "1"], "mq_mod.mq_fiber_integral", 1, lambda v: math.nan),
], ids=["heat-supertrace", "euler-class-transition", "mq-second-fiber"])
def test_cli_nan_anywhere_fails(capsys, monkeypatch, argv, target, which, patch):
    """A NaN in any compared number is a numeric failure, never a pass."""
    from gaussbonnet import cli

    module, name = target.split(".")
    original = getattr(getattr(cli, module), name)
    monkeypatch.setattr(getattr(cli, module), name, _nan_on_call(original, which, patch))
    code, doc = run_cli(capsys, *argv, "--no-wall-time")
    assert code == 1 and doc["passed"] is False


def test_cli_nothing_declared_passes_with_null_verdict(tmp_path, capsys):
    """Without expected_chi or a field's expected there is nothing to compare:
    expected and passed are null and the exit code is 0."""
    path = write(tmp_path, "s.mspec", SPHERE_SPEC.replace("expected_chi: 2\n", ""))
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", path, "--res", "16",
                        "--no-wall-time")
    assert code == 0
    assert doc["expected"] is None and doc["abs_error"] is None and doc["passed"] is None
    assert doc["value"] == pytest.approx(2.0, abs=1e-6)
    path = write(tmp_path, "f.mspec", FIELD_SPEC.replace("  expected: -1\n", ""))
    code, doc = run_cli(capsys, "index", "--field", "saddle", "--manifold", path,
                        "--scan", "24", "--no-wall-time")
    assert code == 0
    assert doc["expected"] is None and doc["passed"] is None and doc["value"] == -1.0


def test_cli_internal_error_exit_code(capsys, monkeypatch):
    """A fault of the program exits 3 with one stderr line, no traceback."""
    from gaussbonnet import cli

    def boom(*args, **kwargs):
        raise MemoryError("cannot allocate the node grid")

    monkeypatch.setattr(cli.gbc_mod, "verify_gbc", boom)
    code, doc = run_cli(capsys, "verify-gbc", "--manifold", "sphere2")
    assert code == 3 and doc is None
    assert run_cli.err == "error: internal: MemoryError: cannot allocate the node grid\n"


# ----------------------------------------- bad input exits 2, named

_DOMAIN_WEIGHT = SPHERE_SPEC.replace("  g 2 2: r^2*sin(x1)^2\n",
                                     "  g 2 2: r^2*sin(x1)^2\n  weight: log(x1-1)\n")
_DOMAIN_COMPONENT = FIELD_SPEC.replace("component disk 1: x1", "component disk 1: log(x1)")
_ZERO_PLANE = FIELD_SPEC.replace("component disk 1: x1", "component disk 1: 0")
_DOMAIN_METRIC = SPHERE_SPEC.replace(
    "  g 1 1: r^2\n  g 2 2: r^2*sin(x1)^2\n",
    "  g 1 1: 2 + sin(x2)*log(x1 - 1)\n  g 2 2: sqrt(x1 - 1.5) + log(x1 - 1)\n")
_NAN_EXPONENT = FIELD_SPEC.replace("component disk 1: x1", "component disk 1: x1^(1e999-1e999)")
_INF_EXPONENT = FIELD_SPEC.replace("component disk 1: x1", "component disk 1: x1^1e999")
_ROW_MAJOR_METRIC = SPHERE_SPEC.replace(  # entries compile in row-major order
    "  g 1 1: r^2\n  g 2 2: r^2*sin(x1)^2\n",
    "  g 2 2: sqrt(x1 - 1.5) + 1\n  g 1 1: 2 + log(x1 - 1)\n")


@pytest.mark.parametrize("text, argv, message", [
    (_DOMAIN_WEIGHT, ["verify-gbc", "--res", "8", "--manifold"], "log of nonpositive"),
    (_DOMAIN_COMPONENT, ["index", "--field", "saddle", "--scan", "8", "--manifold"],
     "log of nonpositive"),
    (_ZERO_PLANE, ["index", "--field", "saddle", "--scan", "8", "--manifold"],
     "not isolated"),
    (_DOMAIN_METRIC, ["verify-gbc", "--res", "8", "--manifold"],
     "log of nonpositive value in subexpression 'log(x1-1)'"),
    (_ROW_MAJOR_METRIC, ["verify-gbc", "--res", "8", "--manifold"],
     "log of nonpositive value in subexpression 'log(x1-1)'"),
    (_NAN_EXPONENT, ["index", "--field", "saddle", "--scan", "8", "--manifold"],
     "finite constant exponent in subexpression 'x1^(1e999-1e999)'"),
    (_INF_EXPONENT, ["index", "--field", "saddle", "--scan", "8", "--manifold"],
     "finite constant exponent in subexpression 'x1^1e999'"),
], ids=["weight-log", "component-log", "zero-line", "metric-first-entry", "metric-row-major",
        "nan-exponent", "inf-exponent"])
def test_cli_spec_expression_outside_domain_is_input_error(tmp_path, capsys, text,
                                                           argv, message):
    path = write(tmp_path, "bad.mspec", text)
    code, doc = run_cli(capsys, *argv, path)
    assert code == 2 and doc is None
    assert run_cli.err.startswith(f"error: {path}: ") and message in run_cli.err
    assert run_cli.err.count("\n") == 1
