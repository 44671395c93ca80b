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
    end

Field and bundle blocks are read the same way.  `#` starts a comment;
range bounds are constant expressions without spaces; metric indices
are 1-based upper triangle.  Each line is one `key: value` entry (a
block header has an empty value), and a key appears once per block.
Each error names the file and the line at fault.  `expected_chi` and a
field's `expected` are optional topology metadata: without them a report
has nothing to compare, and its `expected` and `passed` are null.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalDomainError, ParseError, Var, eval_jet, parse
from .geometry import Atlas, Chart
from .library import Manifold

__all__ = ["SpecFileError", "SpecDocument", "load_manifold_spec"]

SCHEMA_VERSION = 1
_BLOCKS = {"chart": True, "field": True, "bundle": False}  # kind: takes a name


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


def _word_id(word):
    """A key word as the integer it reads, else as text: `g 01 1` is `g 1 1`."""
    try:
        return int(word)
    except ValueError:
        return word


def _entries(lines, path, blocks=()):
    """Yield (line_no, key words, value) for each `key: value` line; a
    repeated key is an error at its own line.  A header whose first word is
    in `blocks` yields as its value the (line_no, text) lines up to `end`."""
    seen = {}
    lines = iter(lines)
    for line_no, text in lines:
        key, colon, value = text.partition(":")
        words, value = tuple(key.split()), value.strip()
        if not colon or not words:
            raise SpecFileError(f"expected 'key: value', got {text!r}", path, line_no)
        first = seen.setdefault(tuple(map(_word_id, words)), line_no)
        if first != line_no:
            raise SpecFileError(f"repeated {' '.join(words)!r} (first on line {first})",
                                path, line_no)
        if words[0] in blocks:
            if value:
                raise SpecFileError("block header must end with ':'", path, line_no)
            value = []
            for item in lines:
                if item[1] == "end":
                    break
                value.append(item)
            else:
                raise SpecFileError(f"unterminated {words[0]} block", path, line_no)
        yield line_no, words, value


def _expr(text, variables, params, path, line_no):
    """A parsed expression, or a SpecFileError at its line."""
    try:
        return parse(text, variables, params)
    except ParseError as exc:
        raise SpecFileError(f"bad expression {text!r}: {exc}", path, line_no) from None


def _const(text, path, line_no):
    """Evaluate a constant expression (no variables)."""
    node = _expr(text, (), (), path, line_no)
    try:
        return float(eval_jet(node, np.zeros((1, 0)), order=0).val[0])
    except EvalDomainError as exc:
        raise SpecFileError(f"bad constant expression {text!r}: {exc}",
                            path, line_no) from None


def _int(text, what, path, line_no):
    """An integer entry, or a positioned SpecFileError."""
    try:
        return int(text)
    except ValueError:
        raise SpecFileError(f"{what} must be an integer, got {text!r}",
                            path, line_no) from None


def _lines(path):
    """The (line_no, text) lines of a file that hold more than a comment."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        raw_lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"not UTF-8 text (byte {exc.start})", path,
                            data.count(b"\n", 0, exc.start) + 1) from None
    lines = [(i, line.split("#", 1)[0].strip()) for i, line in enumerate(raw_lines, 1)]
    return [(i, text) for i, text in lines if text]


def load_manifold_spec(path):
    lines = _lines(path)
    if not lines or not lines[0][1].startswith("schema:"):
        raise SpecFileError("file must start with a 'schema: 1' header", path, 1)
    name, dim, expected_chi = None, None, None
    params, param_lines = {}, {}
    blocks = {kind: [] for kind in _BLOCKS}
    for line_no, words, value in _entries(lines, path, _BLOCKS):
        if words == ("schema",):
            if value != str(SCHEMA_VERSION):
                raise SpecFileError(f"unsupported schema {value!r}", path, line_no)
        elif words == ("name",):
            name = value
        elif words == ("dim",):
            dim = _int(value, "dim", path, line_no)
            if dim < 1:
                raise SpecFileError(f"dim must be at least 1, got {dim}", path, line_no)
        elif words == ("expected_chi",):
            expected_chi = _int(value, "expected_chi", path, line_no)
        elif words[0] == "param" and len(words) == 2:
            params[words[1]] = _const(value, path, line_no)
            param_lines[words[1]] = line_no
        elif words[0] in _BLOCKS and (len(words) > 1) == _BLOCKS[words[0]]:
            blocks[words[0]].append((line_no, " ".join(words[1:]), value))
        else:
            raise SpecFileError(f"unknown top-level key {' '.join(words)!r}",
                                path, line_no)

    if dim is None:
        raise SpecFileError("missing 'dim'", path, 1)
    var_names = tuple(f"x{i + 1}" for i in range(dim))
    for param, line_no in param_lines.items():
        try:  # a free name reads back as itself, a parameter
            free = parse(param, var_names, (param,)) == Var(param, -1)
        except ValueError:  # a reserved word, or not a name
            free = False
        if not free:
            raise SpecFileError(f"param name {param!r} must be an identifier other "
                                "than a coordinate or a reserved word", path, line_no)

    charts = [_build_chart(chart_name, var_names, params, body, path, line_no)
              for line_no, chart_name, body in blocks["chart"]]
    if not charts and not blocks["bundle"]:
        raise SpecFileError("no charts declared", path, 1)

    atlas = Atlas(tuple(charts)) if charts else None
    doc = SpecDocument(Manifold(name or "unnamed", atlas, expected_chi) if atlas else None)
    for line_no, field_name, body in blocks["field"]:
        doc.fields[field_name] = _build_field(field_name, atlas, body, path, line_no)
    for line_no, _, body in blocks["bundle"]:
        doc.bundle = _build_bundle(body, path, line_no)
    return doc


def _build_chart(chart_name, var_names, params, body, path, header_line):
    dim = len(var_names)
    ranges, periodic = [None] * dim, [False] * dim
    metric, weight = {}, None
    for line_no, words, value in _entries(body, path):
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
            metric[(i, j)] = _expr(value, var_names, params, path, line_no)
        elif words == ("weight",):
            weight = _expr(value, var_names, params, path, line_no)
        else:
            raise SpecFileError(f"unknown chart key {' '.join(words)!r}", path, line_no)
    missing = [var_names[i] for i, r in enumerate(ranges) if r is None]
    if missing:
        raise SpecFileError(f"chart {chart_name!r} missing ranges for {missing}",
                            path, header_line)
    for i in range(dim):
        if (i, i) not in metric:
            raise SpecFileError(f"chart {chart_name!r} metric upper triangle incomplete: "
                                f"missing g {i + 1} {i + 1}", path, header_line)
    return Chart.from_strings(chart_name, dim, ranges, periodic, metric,
                              weight=weight, params=params, var_names=var_names)


def _build_field(field_name, atlas, body, path, header_line):
    from .index import VectorFieldSpec

    if atlas is None:
        raise SpecFileError("field declared without charts", path, header_line)
    expected, components = None, {}
    for line_no, words, value in _entries(body, path):
        if words == ("type",):  # a file's charts carry no bundle: both build one field
            if value not in ("vector", "section"):
                raise SpecFileError("field type must be 'vector' or 'section', "
                                    f"got {value!r}", path, line_no)
        elif words == ("expected",):
            expected = _int(value, "field 'expected'", path, line_no)
        elif words[0] == "component" and len(words) == 3:
            comp_idx = _int(words[2], "component index", path, line_no) - 1
            try:
                chart = atlas.chart(words[1])
            except KeyError:
                raise SpecFileError(f"field {field_name!r} references unknown chart "
                                    f"{words[1]!r}", path, line_no) from None
            if not 0 <= comp_idx < chart.dim:
                raise SpecFileError(f"component index must be 1..{chart.dim}",
                                    path, line_no)
            components.setdefault(chart.name, {})[comp_idx] = _expr(
                value, chart.var_names, chart.params, path, line_no)
        else:
            raise SpecFileError(f"unknown field key {' '.join(words)!r}", path, line_no)
    for chart_name, comps in components.items():
        if len(comps) != atlas.dim:
            raise SpecFileError(f"field {field_name!r} on {chart_name!r} needs "
                                f"components 1..{atlas.dim}", path, header_line)
        components[chart_name] = tuple(comps[i] for i in range(atlas.dim))
    return VectorFieldSpec(field_name, components, atlas, expected=expected)


def _build_bundle(body, path, header_line):
    from .bundles import make_plane_bundle

    k, sharpness, expected = None, 6, None
    for line_no, words, value in _entries(body, path):
        if words == ("k",):
            k = _int(value, "bundle 'k'", path, line_no)
        elif words == ("sharpness",):
            sharpness = _int(value, "bundle 'sharpness'", path, line_no)
            if sharpness <= 0:
                raise SpecFileError(f"bundle 'sharpness' must be positive, got {sharpness}",
                                    path, line_no)
        elif words == ("expected_euler",):
            expected = (_int(value, "bundle 'expected_euler'", path, line_no), line_no)
        else:
            raise SpecFileError(f"unknown bundle key {' '.join(words)!r}", path, line_no)
    if k is None:
        raise SpecFileError("bundle block needs 'k'", path, header_line)
    if expected is not None and expected[0] != k:
        raise SpecFileError(f"expected_euler {expected[0]} contradicts clutching "
                            f"degree {k}", path, expected[1])
    return make_plane_bundle(k, sharpness=sharpness)
