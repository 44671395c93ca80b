"""Verification reports with deterministic JSON serialization.

`Report.finalize` is the one pass/fail rule of every command.  Key order
is fixed by construction and floats serialize through Python's
shortest-roundtrip repr, so identical inputs produce byte-identical
documents (wall_time is reported but excluded from determinism claims).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Report", "report_to_json", "report_to_csv"]


@dataclass
class Report:
    command: str
    inputs: dict
    resolutions: list = field(default_factory=list)  # (node count, value)
    value: float | None = None
    expected: float | None = None
    abs_error: float | None = None
    tolerance: float | None = None
    passed: bool | None = None
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def finalize(self, *also):
        """Set abs_error and passed from the declared expected value.

        passed holds when |v - e| < tol for the headline (value, expected,
        tolerance) and for every (v, e, tol) triple in `also`, so a NaN
        fails.  With nothing declared (expected None) both stay None.
        """
        if self.expected is not None:
            self.abs_error = abs(self.value - self.expected)
            self.passed = all(abs(v - e) < tol for v, e, tol in
                              [(self.value, self.expected, self.tolerance), *also])
        return self


def report_to_json(report, include_wall_time=True):
    doc = {
        "command": report.command,
        "inputs": report.inputs,
        "resolutions": [[int(n), v] for n, v in report.resolutions],
        "value": report.value,
        "expected": report.expected,
        "abs_error": report.abs_error,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    doc.update(report.extra)
    if include_wall_time:
        doc["wall_time"] = report.wall_time
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=True)


def report_to_csv(report):
    lines = ["nodes,value"]
    for n, v in report.resolutions:
        lines.append(f"{n},{v!r}")
    return "\n".join(lines) + "\n"
