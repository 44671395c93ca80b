"""The CLI contract under arbitrary spec files and arguments.

Whatever the input, `main` exits 0 (pass, or nothing declared to
compare), 1 (numeric failure) or 2 (bad input); it never prints a
traceback, and on 0 and 1 stdout is one JSON report.  Exit 3 (internal
error) must not be reachable from input alone.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gaussbonnet.cli import main

# domain edges on purpose: log and sqrt of nonpositive values, division
# by zero, fractional powers of negatives, overflow
_UNARY = ("log({})", "sqrt({})", "1/{}", "{}^0.5", "sin({})", "exp({})", "({})^2")
_BINARY = ("{}+{}", "{}*{}", "{}-{}")
_CONSTANTS = ("0", "1", "2", "-1", "0.5", "pi", "1e308")
# mostly valid (lo, hi) pairs, then an empty, an inverted and an overflowing one
_RANGES = (("0", "1"), ("0", "pi"), ("-1", "1"), ("0", "2*pi"), ("-2", "-1"),
           ("0", "1e308"), ("1", "1"), ("pi", "0"), ("0", "2*1e308"))


def _expressions(dim):
    atoms = st.sampled_from(_CONSTANTS + tuple(f"x{i + 1}" for i in range(dim)))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(str.format, st.sampled_from(_UNARY), inner),
            st.builds(lambda form, a, b: form.format(a, b),
                      st.sampled_from(_BINARY), inner, inner)),
        max_leaves=4)


@st.composite
def _spec_and_argv(draw):
    dim = draw(st.integers(1, 4))
    expr = _expressions(dim)
    # a diagonal metric entry: mostly positive, sometimes anything
    diagonal = st.one_of(st.sampled_from(("1", "2", "0.5")),
                         expr.map(lambda e: f"1+({e})^2"), expr)
    lines = ["schema: 1", "name: fuzz", f"dim: {dim}"]
    if draw(st.booleans()):
        lines.append(f"expected_chi: {draw(st.integers(-1, 4))}")
    lines.append("chart c:")
    for i in range(dim):
        lo, hi = draw(st.sampled_from(_RANGES))
        lines.append(f"  range x{i + 1}: {lo} {hi}" + " periodic" * draw(st.booleans()))
        lines.append(f"  g {i + 1} {i + 1}: {draw(diagonal)}")
    if dim > 1 and draw(st.booleans()):
        lines.append(f"  g 1 2: {draw(expr)}")
    if draw(st.booleans()):
        lines.append(f"  weight: {draw(expr)}")
    lines += ["end", "field f:"]
    if draw(st.booleans()):
        lines.append(f"  expected: {draw(st.integers(-2, 2))}")
    lines += [f"  component c {i + 1}: {draw(expr)}" for i in range(dim)]
    lines.append("end")
    if draw(st.booleans()):
        argv = ["verify-gbc", "--res", str(draw(st.integers(2, 4)))]
        argv += ["--extrapolate"] * draw(st.booleans())
    else:
        argv = ["index", "--field", "f", "--scan", "8"]
    return "\n".join(lines) + "\n", argv


def _run(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.mspec")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv + ["--manifold", path, "--no-wall-time"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    return code, out.getvalue(), err.getvalue()


_WEIGHT_LOG = """\
schema: 1
name: s
dim: 2
expected_chi: 2
chart polar:
  range x1: 0 pi
  range x2: 0 2*pi periodic
  g 1 1: 1
  g 2 2: sin(x1)^2
  weight: log(x1-1)
end
field f:
  component polar 1: x1
  component polar 2: x2
end
"""

_COMPONENT_LOG = """\
schema: 1
name: d
dim: 2
chart disk:
  range x1: -2 2
  range x2: -2 2
  g 1 1: 1
  g 2 2: 1
end
field f:
  component disk 1: log(x1)
  component disk 2: -x2
end
"""

_NAN_EXPONENT = _COMPONENT_LOG.replace("log(x1)", "x1^(1e999-1e999)")

_SQRT_ZERO = """\
schema: 1
name: d
dim: 2
chart c:
  range x1: 0 1
  range x2: 0 1
  g 1 1: 1
  g 2 2: 1
end
field f:
  component c 1: x2
  component c 2: sqrt(x2*0)
end
"""

_ZERO_4D = """\
schema: 1
name: z
dim: 4
chart c:
  range x1: 0 1
  range x2: 0 1
  range x3: 0 1
  range x4: 0 1
  g 1 1: 1
  g 2 2: 1
  g 3 3: 1
  g 4 4: 1
end
field f:
  component c 1: 0
  component c 2: 0
  component c 3: 0
  component c 4: 0
end
"""


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_spec_and_argv())
@example((_WEIGHT_LOG, ["verify-gbc", "--res", "4"]))
@example((_COMPONENT_LOG, ["index", "--field", "f", "--scan", "8"]))
@example((_NAN_EXPONENT, ["index", "--field", "f", "--scan", "8"]))
@example((_SQRT_ZERO, ["index", "--field", "f", "--scan", "8"]))  # infinite Jacobian
@example((_ZERO_4D, ["index", "--field", "f", "--scan", "8"]))  # zeros everywhere
def test_cli_contract_holds_for_any_spec(case):
    text, argv = case
    code, out, err = _run(text, argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code in (0, 1):
        doc = json.loads(out)
        assert (code == 1) == (doc["passed"] is False)
    else:
        assert "error: " in err and out == ""
