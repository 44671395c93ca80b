"""Smoke tests of the benchmark itself (not of the package).

    python3 -m pytest -q perfbench/smoke_test.py

Every workload runs at reduced size; the traced run must leave a well
formed span tree, account for each check's wall time and restore every
binding it patched.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

SLACK_S = 1e-6


def bindings():
    """Identity of every attribute of every gaussbonnet module and class."""
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "gaussbonnet" or name.startswith("gaussbonnet.")):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for member, obj in vars(value).items():
                    snapshot[(name, attr, member)] = id(obj)
    return snapshot


@pytest.fixture(scope="module")
def traced():
    """One traced reduced-size pass per workload, plus its untraced twin."""
    out = {}
    for name, build in workloads.WORKLOADS.items():
        checks = build(3, "small")
        _, plain = run.run_pass(checks)
        before = bindings()
        with spantrace.Tracer() as tracer:
            with tracer.check("setup"):
                build(3, "small")
            _, rows = run.run_pass(checks, tracer)
        out[name] = (plain, rows, tracer, before, bindings())
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_size_passes_every_check(name, traced):
    plain, rows, *_ = traced[name]
    failed = [(r["id"], r.get("error") or (r["value"], r["expected"], r["tol"]))
              for r in plain + rows if not r["passed"]]
    assert not failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_digest_equals_untraced(name, traced):
    plain, rows, *_ = traced[name]
    assert run.digest(plain) == run.digest(rows)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_span_tree_well_formed(name, traced):
    tracer = traced[name][2]
    spans = tracer.spans()
    assert spans and not tracer.missing
    for span in spans:
        assert span.end >= span.start
        assert span.self_s >= -SLACK_S
        if span.parent is None:
            assert span.group == spantrace.CHECK
        else:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.check == span.check


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_sum_to_check_wall_time(name, traced):
    spans = traced[name][2].spans()
    roots = {s.check: s for s in spans if s.group == spantrace.CHECK}
    totals = dict.fromkeys(roots, 0.0)
    for span in spans:
        totals[span.check] += span.self_s
    for check, root in roots.items():
        assert totals[check] == pytest.approx(root.end - root.start, abs=SLACK_S)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bindings_restored(name, traced):
    *_, before, after = traced[name]
    assert before == after


def test_every_layer_metric_is_reported(traced):
    expected = {name for name, _, _ in spantrace.PER_LAYER} - {"trace.overhead_frac"}
    for _, _, tracer, _, _ in traced.values():
        assert set(tracer.layer_metrics()) == expected


def test_named_layers_are_exercised(traced):
    """Each workload moves the layers its prediction names."""
    def metrics(name):
        return traced[name][2].layer_metrics()

    assert metrics("curvature4")["gbc.density.calls"] > 0
    assert metrics("curvature4")["geometry.point_geometry_batch.points"] > 0
    assert metrics("thom")["exterior.bigraded_mul.calls"] > 0
    assert metrics("thom")["mq.mq_form_bundle.calls"] > 0
    point = metrics("pointwise")
    for key in ("geometry.christoffels_at.calls", "exterior.dp_extend.calls",
                "index.local_degree.calls", "heat.supertrace_heat.calls",
                "index.newton_kept"):
        assert point[key] > 0, key
    for m in map(metrics, workloads.WORKLOADS):
        assert m["expr.eval_jet.calls"] > 0 and m["library.build.self_s"] > 0


def test_rebinding_reaches_importing_modules():
    """Calls through `from .x import f` references are traced too."""
    from gaussbonnet import bundles, gbc, geometry, index, mq, quadrature

    with spantrace.Tracer():
        assert hasattr(gbc.point_geometry_batch, "__wrapped__")
        for module in (quadrature, mq, bundles):
            assert hasattr(module.metric_jets, "__wrapped__")
        for module in (bundles, mq):
            assert hasattr(module.integrate_chart, "__wrapped__")
        for module in (geometry, bundles, index):
            assert hasattr(module.eval_jet, "__wrapped__")
    assert not hasattr(gbc.point_geometry_batch, "__wrapped__")


def test_benchmark_json_matches_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in spantrace.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in spantrace.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "solve_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "thom",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
