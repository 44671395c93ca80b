"""Manifold-spec files: a small line-based format with nested blocks.

The schema (version 1) is documented in docs/manifold_spec.md; briefly::

    schema: 1
    name: round-sphere
    dim: 2
    expected_chi: 2
    param r: 1.0

    chart polar:
      range x1: 0 pi
      range x2: 0 2*pi periodic
      g 1 1: r^2
      g 2 2: r^2*sin(x1)^2
      weight: 1
    end

    field spin:
      type: vector
      expected: 2
      component polar 1: -x2
      component polar 2: x1
    end

    bundle:
      k: 2
      sharpness: 6
    end

`#` starts a comment; range bounds are constant expressions without
spaces; metric indices are 1-based upper triangle.  Parse errors carry
the file name and line number.  `expected_chi` and a field's `expected`
are optional topology metadata: without them a report has nothing to
compare, and its `expected` and `passed` are null.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import eval_jet, parse
from .geometry import Atlas, Chart
from .library import Manifold

__all__ = ["SpecFileError", "SpecDocument", "load_manifold_spec"]

SCHEMA_VERSION = 1


class SpecFileError(ValueError):
    def __init__(self, message, path, line_no):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass
class SpecDocument:
    """A loaded spec file; `manifold` is None for a file without charts."""

    manifold: Manifold | None
    fields: dict = field(default_factory=dict)
    bundle: object = None


def _const(text, path, line_no):
    """Evaluate a constant expression (no variables)."""
    try:
        return float(eval_jet(parse(text, ()), np.zeros((1, 0)), order=0).val[0])
    except Exception as exc:
        raise SpecFileError(f"bad constant expression {text!r}: {exc}",
                            path, line_no)


def _int(text, what, path, line_no):
    """An integer entry, or a positioned SpecFileError."""
    try:
        return int(text)
    except ValueError:
        raise SpecFileError(f"{what} must be an integer, got {text!r}",
                            path, line_no) from None


def load_manifold_spec(path):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        raw_lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"not UTF-8 text (byte {exc.start})", path,
                            data.count(b"\n", 0, exc.start) + 1) from None

    lines = []
    for i, line in enumerate(raw_lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped))

    if not lines or not lines[0][1].startswith("schema:"):
        raise SpecFileError("file must start with a 'schema: 1' header", path, 1)
    schema = lines[0][1].split(":", 1)[1].strip()
    if schema != str(SCHEMA_VERSION):
        raise SpecFileError(f"unsupported schema {schema!r}", path, lines[0][0])

    top = {"name": None, "dim": None, "expected_chi": None}
    params = {}
    charts = []
    fields_raw = {}
    bundle_raw = None

    idx = 1
    while idx < len(lines):
        line_no, text = lines[idx]
        if text.startswith(("chart ", "field ", "bundle")):
            block_kind, _, rest = text.partition(" ")
            if not text.endswith(":"):
                raise SpecFileError("block header must end with ':'", path, line_no)
            block_name = rest[:-1].strip() if rest else ""
            if block_kind == "bundle:":
                block_kind, block_name = "bundle", ""
            body = []
            idx += 1
            while idx < len(lines) and lines[idx][1] != "end":
                body.append(lines[idx])
                idx += 1
            if idx >= len(lines):
                raise SpecFileError(f"unterminated {block_kind} block", path, line_no)
            idx += 1  # consume 'end'
            if block_kind == "chart":
                charts.append((line_no, block_name, body))
            elif block_kind == "field":
                fields_raw[block_name] = (line_no, body)
            else:
                bundle_raw = (line_no, body)
            continue
        if ":" not in text:
            raise SpecFileError(f"expected 'key: value', got {text!r}", path, line_no)
        key, _, value = text.partition(":")
        key, value = key.strip(), value.strip()
        if key == "name":
            top["name"] = value
        elif key == "dim":
            top["dim"] = _int(value, "dim", path, line_no)
            if top["dim"] < 1:
                raise SpecFileError(f"dim must be at least 1, got {top['dim']}",
                                    path, line_no)
        elif key == "expected_chi":
            top["expected_chi"] = _int(value, "expected_chi", path, line_no)
        elif key.startswith("param "):
            params[key.split(None, 1)[1]] = _const(value, path, line_no)
        else:
            raise SpecFileError(f"unknown top-level key {key!r}", path, line_no)
        idx += 1

    if top["dim"] is None:
        raise SpecFileError("missing 'dim'", path, 1)
    dim = top["dim"]
    name = top["name"] or "unnamed"

    built_charts = []
    for line_no, chart_name, body in charts:
        built_charts.append(_build_chart(chart_name, dim, params, body, path, line_no))
    if not built_charts and bundle_raw is None:
        raise SpecFileError("no charts declared", path, 1)

    atlas = Atlas(tuple(built_charts)) if built_charts else None
    doc = SpecDocument(Manifold(name, atlas, top["expected_chi"]) if atlas else None)

    for field_name, (line_no, body) in fields_raw.items():
        doc.fields[field_name] = _build_field(field_name, atlas, body, path, line_no)

    if bundle_raw is not None:
        doc.bundle = _build_bundle(bundle_raw, path)
    return doc


def _build_chart(chart_name, dim, params, body, path, header_line):
    var_names = tuple(f"x{i + 1}" for i in range(dim))
    ranges = [None] * dim
    periodic = [False] * dim
    metric = {}
    weight = None
    for line_no, text in body:
        key, _, value = text.partition(":")
        key, value = key.strip(), value.strip()
        words = key.split()
        if words[0] == "range" and len(words) == 2:
            if words[1] not in var_names:
                raise SpecFileError(f"unknown variable {words[1]!r}", path, line_no)
            axis = var_names.index(words[1])
            parts = value.split()
            if len(parts) not in (2, 3):
                raise SpecFileError("range needs 'lo hi [periodic]'", path, line_no)
            lo, hi = _const(parts[0], path, line_no), _const(parts[1], path, line_no)
            if len(parts) == 3:
                if parts[2] != "periodic":
                    raise SpecFileError(f"unknown range flag {parts[2]!r}", path, line_no)
                periodic[axis] = True
            if not -math.inf < lo < hi < math.inf:
                raise SpecFileError(f"range needs finite lo < hi, got {lo!r} {hi!r}",
                                    path, line_no)
            ranges[axis] = (lo, hi)
        elif words[0] == "g" and len(words) == 3:
            i, j = (_int(w, "metric index", path, line_no) - 1 for w in words[1:])
            if not (0 <= i <= j < dim):
                raise SpecFileError("metric indices must be an upper-triangle pair",
                                    path, line_no)
            metric[(i, j)] = value
        elif key == "weight":
            weight = value
        else:
            raise SpecFileError(f"unknown chart key {key!r}", path, line_no)
    missing = [var_names[i] for i, r in enumerate(ranges) if r is None]
    if missing:
        raise SpecFileError(f"chart {chart_name!r} missing ranges for {missing}",
                            path, header_line)
    for i in range(dim):
        if (i, i) not in metric:
            raise SpecFileError(
                f"chart {chart_name!r} metric upper triangle incomplete: "
                f"missing g {i + 1} {i + 1}", path, header_line)
    try:
        return Chart.from_strings(chart_name, dim, ranges, periodic, metric,
                                  weight=weight, params=params,
                                  var_names=var_names)
    except Exception as exc:
        raise SpecFileError(f"chart {chart_name!r}: {exc}", path, header_line)


def _build_field(field_name, atlas, body, path, header_line):
    from .index import VectorFieldSpec

    if atlas is None:
        raise SpecFileError("field declared without charts", path, header_line)
    kind = "vector"
    expected = None
    components = {}
    for line_no, text in body:
        key, _, value = text.partition(":")
        key, value = key.strip(), value.strip()
        words = key.split()
        if key == "type":
            kind = value
        elif key == "expected":
            expected = _int(value, "field 'expected'", path, line_no)
        elif words[0] == "component" and len(words) == 3:
            chart_name = words[1]
            comp_idx = _int(words[2], "component index", path, line_no) - 1
            comps = components.setdefault(chart_name, {})
            comps[comp_idx] = value
        else:
            raise SpecFileError(f"unknown field key {key!r}", path, line_no)
    resolved = {}
    for chart_name, comps in components.items():
        try:
            chart = atlas.chart(chart_name)
        except KeyError:
            raise SpecFileError(
                f"field {field_name!r} references unknown chart {chart_name!r}",
                path, header_line)
        if sorted(comps) != list(range(chart.dim)):
            raise SpecFileError(
                f"field {field_name!r} on {chart_name!r} needs components "
                f"1..{chart.dim}", path, header_line)
        resolved[chart_name] = tuple(comps[i] for i in range(chart.dim))
    try:
        return VectorFieldSpec(field_name, kind, resolved, atlas, expected=expected)
    except Exception as exc:
        raise SpecFileError(f"field {field_name!r}: {exc}", path, header_line)


def _build_bundle(bundle_raw, path):
    from .bundles import make_plane_bundle

    header_line, body = bundle_raw
    k = None
    sharpness = 6
    expected = None
    for line_no, text in body:
        key, _, value = text.partition(":")
        key, value = key.strip(), value.strip()
        if key == "k":
            k = _int(value, "bundle 'k'", path, line_no)
        elif key == "sharpness":
            sharpness = _int(value, "bundle 'sharpness'", path, line_no)
            if sharpness <= 0:
                raise SpecFileError(
                    f"bundle 'sharpness' must be positive, got {sharpness}",
                    path, line_no)
        elif key == "expected_euler":
            expected = _int(value, "bundle 'expected_euler'", path, line_no)
        else:
            raise SpecFileError(f"unknown bundle key {key!r}", path, line_no)
    if k is None:
        raise SpecFileError("bundle block needs 'k'", path, header_line)
    bundle = make_plane_bundle(k, sharpness=sharpness)
    if expected is not None and expected != k:
        raise SpecFileError(
            f"expected_euler {expected} contradicts clutching degree {k}",
            path, header_line)
    return bundle
