"""Acceptance suite: the ten headline properties, one printed line each.

Each test prints ``ACCEPTANCE <k> <name>: PASS/FAIL (<measurement>)`` before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist. Properties 1-3, 5, 8 and 9 run `verify`'s checks, the single
implementation of each, on fixed seeds and sample counts; 4 judges its two
clauses apart, alpha* as `verify` does and the sides against a 50-digit law
of cosines; 6, 7 and 10 check what `verify` does not. Tolerances are fixed;
measurements are the observed worst cases.
"""

import json
import math
import subprocess
import sys
import time
from random import Random

import numpy as np
import pytest

from hyplobe import isoperimetric_deficit, optimal_alpha, solve_sas, verify
from hyplobe.polygon import (
    circle_for_circumference,
    polygon_perimeter,
    random_convex_polygon,
    regular_polygon_for_perimeter,
    steiner_optimize,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status} ({detail})")


# (k, check, seed, samples, wall-time bound in s or None); each check draws
# from random.Random(seed), the generator run_all uses. Checks 2 and 3 share
# seed 2023, so they judge the same 200 (b, c) pairs
VERIFY_CHECKS = [
    (1, verify.check_area_equivalence, 101, 1000, 1.0),
    (2, verify.check_theorem1_grid, 2023, 2000, 30.0),
    (3, verify.check_certificates, 2023, 2000, None),
    (5, verify.check_inversion_identity, 105, 1000, None),
    (8, verify.check_isometry_invariance, 108, 1000, None),
    (9, verify.check_metric_oracle, 109, 2000, None),
]


@pytest.mark.parametrize(
    "num, check, seed, samples, max_s",
    VERIFY_CHECKS,
    ids=[f"{k:02d}-{check.__name__.removeprefix('check_')}" for k, check, *_ in VERIFY_CHECKS],
)
def test_verify_check(num, check, seed, samples, max_s):
    start = time.perf_counter()
    result = check(Random(seed), samples)
    elapsed = time.perf_counter() - start
    in_time = max_s is None or elapsed < max_s
    detail = result.detail if max_s is None else f"{result.detail}, {elapsed:.2f} s"
    report(num, result.name, result.passed and in_time, detail)
    assert result.passed
    assert in_time


def test_04a_euclidean_limit_alpha():
    gap = abs(optimal_alpha(1e-3, 1e-3).alpha_star - math.pi / 2)
    ok = gap < 1e-3
    report(4, "euclidean-limit-alpha", ok, f"|alpha*(1e-3, 1e-3) - pi/2| = {gap:.3e}")
    assert gap < 1e-3


def test_04b_euclidean_limit_sides():
    # The flat side a_E = sqrt(b^2 + c^2 - 2 b c cos alpha) misses the
    # hyperbolic side by (b c sin alpha)^2 / (6 a_E^2) relative, up to
    # b^2 cos^2(alpha/2) / 6 ~ 1.6e-7 at b = c = 1e-3: that is curvature, not
    # solver error, so the flat gap is only reported. The side is judged
    # against the 50-digit law of cosines, in ulps of a.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(104)
    worst_flat = 0.0
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(200):
            b = float(rng.uniform(5e-4, 1e-3))
            c = float(rng.uniform(5e-4, 1e-3))
            alpha = float(rng.uniform(0.1, math.pi - 0.1))
            a = solve_sas(b, c, alpha).a
            a_flat = math.sqrt(b * b + c * c - 2.0 * b * c * math.cos(alpha))
            mb, mc, ma = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(alpha)
            a_ref = mpmath.acosh(
                mpmath.cosh(mb) * mpmath.cosh(mc)
                - mpmath.sinh(mb) * mpmath.sinh(mc) * mpmath.cos(ma)
            )
            worst_flat = max(worst_flat, abs(a - a_flat) / a_flat)
            worst = max(worst, float(abs(a - a_ref)) / math.ulp(a))
    ok = worst <= 4
    report(
        4, "euclidean-limit-sides", ok,
        f"max relative flat side gap = {worst_flat:.3e}, "
        f"max |a - law of cosines| in ulps of a = {worst:.3e}",
    )
    assert worst <= 4


def test_06_steiner_run():
    start = time.perf_counter()
    poly = random_convex_polygon(8, 42)
    perim0 = polygon_perimeter(poly)
    deficit0 = isoperimetric_deficit(perim0, poly.area)
    result = steiner_optimize(poly, tol=1e-8)
    elapsed = time.perf_counter() - start

    drift = max((abs(s.perimeter - perim0) for s in result.trace), default=0.0)
    areas = [poly.area, *(s.area_after for s in result.trace)]
    monotone = all(a2 >= a1 - 1e-12 for a1, a2 in zip(areas, areas[1:]))
    perim1, area1 = polygon_perimeter(result.polygon), result.polygon.area
    deficit1 = isoperimetric_deficit(perim1, area1)
    bound = 1e-8 * perim0 / 8
    regular = regular_polygon_for_perimeter(8, perim1).area
    gap_ulps = abs(regular - area1) / math.ulp(regular)
    ok = (
        drift < 1e-9
        and monotone
        and result.residual <= bound
        and gap_ulps <= 16
        and -1e-9 <= deficit1 < deficit0
        and elapsed < 10.0
    )
    report(
        6, "steiner-run", ok,
        f"perimeter drift = {drift:.3e}, monotone = {monotone}, "
        f"residual = {result.residual:.3e}, gap to A_reg = {gap_ulps:.0f} ulps, "
        f"deficit {deficit0:.3f} -> {deficit1:.3f}, {elapsed:.2f} s",
    )
    assert drift < 1e-9
    assert monotone
    assert result.residual <= bound
    assert gap_ulps <= 16
    assert -1e-9 <= deficit1 < deficit0
    assert elapsed < 10.0


def test_07_regular_polygon_sweep():
    perimeter = 2.0 * math.pi * math.sinh(1.0)  # circle of radius 1
    deficits = []
    area96 = 0.0
    for n in range(3, 97):
        stats = regular_polygon_for_perimeter(n, perimeter)
        deficits.append(isoperimetric_deficit(stats.perimeter, stats.area))
        area96 = stats.area
    decreasing = all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:]))
    _, L, circle_area = circle_for_circumference(perimeter)
    circle_deficit = abs(isoperimetric_deficit(L, circle_area))
    rel_gap = abs(area96 - circle_area) / circle_area
    ok = decreasing and circle_deficit < 1e-9 and rel_gap < 0.002
    report(
        7, "regular-polygon-sweep", ok,
        f"decreasing = {decreasing}, circle deficit = {circle_deficit:.3e}, "
        f"area(96) relative gap = {rel_gap:.3e}",
    )
    assert decreasing
    assert circle_deficit < 1e-9
    assert rel_gap < 0.002


def test_10_determinism(tmp_path):
    artifacts = []
    for k in range(2):
        trace = tmp_path / f"trace{k}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "hyplobe", "steiner", "--n", "8",
             "--seed", "42", "--trace-csv", str(trace)],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0
        report_json = json.loads(res.stdout)
        artifacts.append((trace.read_bytes(), res.stdout))
    identical = artifacts[0] == artifacts[1]
    report(
        10, "determinism", identical,
        f"{len(artifacts[0][0])} trace bytes, converged = {report_json['converged']}",
    )
    assert identical
