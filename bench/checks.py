"""Output checks against references that share no code with hyplobe.

Each check takes one request's inputs and outputs and returns None when the
output is right, else a short reason. They run after the timed loop.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import mpmath

# The tolerances verify already uses for the same quantities.
AREA_REL_TOL = 1e-9
ALPHA_STAR_TOL = 1e-9
CERTIFICATE_TOL = 1e-9
REFERENCE_DIGITS = 50


def triangle_reference(b: float, c: float, alpha: float):
    """(area, maximizing apex angle) from the half-angle formula, in 50-digit arithmetic.

    tan(area / 2) = u sin(alpha) / (1 - u cos(alpha)) with
    u = tanh(b/2) tanh(c/2); the area is largest at alpha* = arccos(u).
    """
    with mpmath.workdps(REFERENCE_DIGITS):
        u = mpmath.tanh(mpmath.mpf(b) / 2) * mpmath.tanh(mpmath.mpf(c) / 2)
        a = mpmath.mpf(alpha)
        area = 2 * mpmath.atan(u * mpmath.sin(a) / (1 - u * mpmath.cos(a)))
        return float(area), float(mpmath.acos(u))


def check_triangle(inp, out) -> str | None:
    """Area and alpha* against the half-angle reference, and the three certificates."""
    b, c, alpha = inp
    area, alpha_star, acb_angle, tangency_gap, residual = out
    ref_area, ref_alpha_star = triangle_reference(b, c, alpha)
    if not abs(area - ref_area) <= AREA_REL_TOL * ref_area:
        return "inaccurate area"
    if not abs(alpha_star - ref_alpha_star) <= ALPHA_STAR_TOL:
        return "inaccurate alpha*"
    if not max(abs(acb_angle - math.pi / 2), tangency_gap, residual) <= CERTIFICATE_TOL:
        return "certificate above tolerance"
    return None


def _floats(rows, columns) -> None:
    for row in rows:
        for k in columns:
            float(row[k])


def parse_cli_output(kind: str, stdout: bytes, trace_csv: bytes | None) -> str | None:
    """None if the CLI output parses as the format its subcommand promises."""
    text = stdout.decode("utf-8")
    try:
        if kind in ("triangle", "optimize", "steiner"):
            report = json.loads(text)
            if not isinstance(report, dict):
                return "JSON report is not an object"
            if kind == "steiner":
                if trace_csv is None:
                    return "no trace CSV written"
                rows = list(csv.reader(io.StringIO(trace_csv.decode("utf-8"))))
                if rows[0] != ["iter", "vertex", "area", "perimeter", "residual"]:
                    return "bad trace CSV header"
                _floats(rows[1:], range(5))
        elif kind == "triangle_svg":
            if not ET.fromstring(text).tag.endswith("svg"):
                return "root element is not svg"
        elif kind == "isoperimetric":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["n", "area", "deficit"] or rows[-1][0] != "circle":
                return "bad sweep CSV layout"
            _floats(rows[1:], (1, 2))
        elif kind == "verify":
            lines = text.splitlines()
            if lines[-1] != "all properties passed" or not all(
                line.startswith("PASS ") for line in lines[1:-1]
            ):
                return "verify report does not show every property passing"
        else:
            return f"unknown kind {kind}"
    except (ValueError, IndexError, ET.ParseError) as exc:
        return f"unparsable output: {exc}"
    return None


def check_cli(record, first=None) -> str | None:
    """Exit code 0, parsable output, and the same bytes as ``first``, an earlier run of it."""
    if record["returncode"] != 0:
        return f"exit code {record['returncode']}"
    reason = parse_cli_output(record["kind"], record["stdout"], record["csv"])
    if reason is None and first is not None and (
        (record["stdout"], record["csv"]) != (first["stdout"], first["csv"])
    ):
        return "repeated request gave different bytes"
    return reason
