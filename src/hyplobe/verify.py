"""Self-check suite: every library property re-verified against the oracles.

Each check draws its own inputs from a seeded generator, compares the primary
implementation against an independent reference, and is judged by one
function from its terms: each measured worst case beside the bound it must
stay below (or above), printed as ``max |d_back - d| = 4.245e-13 < 1e-12``.
Check k draws from its own ``random.Random``, seeded by ``(seed << 8) | k``.
Python keeps the stream of ``random()`` the same across versions, and the
checks draw through it alone: ``uniform(a, b)`` is documented as
a + (b - a) random(), and integers are formed from ``random()`` here, since
``randrange``'s algorithm carries no such promise.
The `fault` argument deliberately corrupts one quantity so the harness itself
can be shown to catch regressions.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import partial
from random import Random

from . import disk, oracle, polygon, triangle
from .errors import DomainError

FAULT_TAU_SIGN = "tau-sign"


CheckResult = namedtuple("CheckResult", "name passed detail")

_SIDES = {"<": operator.lt, ">": operator.gt}


def _judge(name: str, *terms) -> CheckResult:
    """A check's line from its terms, each (label, value, "<" or ">", bound).

    It passes when every value lies on its bound's side (a NaN on neither),
    and its detail prints each term as ``label = value < bound``.
    """
    passed = all(_SIDES[side](value, bound) for _, value, side, bound in terms)
    return CheckResult(name, passed, ", ".join(
        f"{label} = {value:.3e} {side} {bound}" for label, value, side, bound in terms
    ))


def _integer(rng, lo: int, hi: int) -> int:
    """A draw from lo, ..., hi - 1, made from one ``random()``."""
    return lo + int((hi - lo) * rng.random())


def _random_sides_angles(rng, count: int):
    bs = [rng.uniform(0.1, 3.0) for _ in range(count)]
    cs = [rng.uniform(0.1, 3.0) for _ in range(count)]
    alphas = [rng.uniform(0.05, math.pi - 0.05) for _ in range(count)]
    return bs, cs, alphas


def check_area_equivalence(rng, samples: int, fault: str | None = None) -> CheckResult:
    """Defect area equals twice the Euclidean tau angle, the kernel's and the oracle's."""
    worst = 0.0
    for b, c, alpha in zip(*_random_sides_angles(rng, samples)):
        area = triangle.solve_sas(b, c, alpha).area
        tau = triangle.build_figure1(b, c, alpha).tau
        tau = -tau if fault == FAULT_TAU_SIGN else tau
        for t in (tau, oracle.figure1_by_construction(b, c, alpha).tau):
            worst = max(worst, abs(area - 2.0 * t))
    return _judge("area-equivalence", ("max |defect - 2 tau|", worst, "<", 1e-9))


def check_theorem1_grid(rng, samples: int) -> CheckResult:
    """Root of alpha - beta - gamma coincides with the grid-search argmax."""
    pairs = max(10, samples // 10)
    worst_gap = 0.0
    worst_root = 0.0
    worst_area = 0.0
    for _ in range(pairs):
        b = rng.uniform(0.1, 3.0)
        c = rng.uniform(0.1, 3.0)
        opt = triangle.optimal_alpha(b, c)
        grid = oracle.grid_search_max_area(b, c, 100_000)
        worst_gap = max(worst_gap, abs(opt.alpha_star - grid.alpha_hat) / grid.grid_step)
        sol = opt.solution
        worst_root = max(worst_root, abs(sol.alpha - sol.beta - sol.gamma))
        worst_area = max(worst_area, abs(sol.area - (math.pi - 2.0 * opt.alpha_star)))
    return _judge(
        "theorem1-grid-cross-check",
        (f"max gap in grid steps over {pairs} pairs", worst_gap, "<", 2),
        ("max |alpha - beta - gamma|", worst_root, "<", 1e-12),
        ("max |area - (pi - 2 alpha*)|", worst_area, "<", 1e-12),
    )


def check_certificates(rng, samples: int) -> CheckResult:
    """All three optimality witnesses vanish at the optimum and not at alpha/2."""
    pairs = max(10, samples // 10)
    worst = 0.0
    min_neg = math.inf
    for _ in range(pairs):
        b = rng.uniform(0.1, 3.0)
        c = rng.uniform(0.1, 3.0)
        a_star = triangle.optimal_alpha(b, c).alpha_star
        cert = triangle.optimality_certificate(triangle.build_figure1(b, c, a_star))
        worst = max(
            worst, abs(cert.acb_angle - math.pi / 2), cert.tangency_gap, cert.residual
        )
        off = triangle.optimality_certificate(
            triangle.build_figure1(b, c, 0.5 * a_star)
        )
        min_neg = min(min_neg, abs(off.acb_angle - math.pi / 2))
    return _judge(
        "optimality-certificates",
        ("max residual at optimum", worst, "<", 1e-9),
        ("min off-optimum gap", min_neg, ">", 1e-3),
    )


def check_euclidean_limit(rng, samples: int) -> CheckResult:
    """Side a at small scales against the flat side with its curvature term restored."""
    opt = triangle.optimal_alpha(1e-3, 1e-3)
    gap_alpha = abs(opt.alpha_star - math.pi / 2)
    worst_rel = 0.0
    for _ in range(max(10, samples // 10)):
        b = rng.uniform(1e-4, 1.5e-3)
        c = rng.uniform(1e-4, 1.5e-3)
        alpha = rng.uniform(0.1, math.pi - 0.1)
        a = triangle.solve_sas(b, c, alpha).a
        a_ref = oracle.curvature_corrected_side(b, c, alpha)
        worst_rel = max(worst_rel, abs(a - a_ref) / a_ref)
    return _judge(
        "euclidean-limit",
        ("|alpha* - pi/2| at sides 1e-3", gap_alpha, "<", 1e-3),
        ("max relative corrected side residual", worst_rel, "<", 1e-8),
    )


def check_inversion_identity(rng, samples: int) -> CheckResult:
    """|B| |B'| = 1, the power of the center with respect to omega, on both figures."""
    worst = 0.0
    for b, c, alpha in zip(*_random_sides_angles(rng, samples)):
        fig = triangle.build_figure1(b, c, alpha)
        for b_prime in (fig.b_prime, oracle.figure1_by_construction(b, c, alpha).b_prime):
            worst = max(worst, abs(math.hypot(*fig.B) * math.hypot(*b_prime) - 1.0))
    return _judge("inversion-identity", ("max | |B||B'| - 1 |", worst, "<", 1e-10))


def check_metric_oracle(rng, samples: int) -> CheckResult:
    """hyp_distance against the 64-segment Klein-chord sum of the oracle.

    The oracle sums each chord by sinh(d / 2) = |u - w| / sqrt(g_u g_w),
    which is hyp_distance's own identity, so this checks the Klein sampling,
    the g's and additivity, not the identity itself.
    """
    pairs = max(10, samples // 40)
    worst = 0.0
    for _ in range(pairs):
        pts = []
        while len(pts) < 2:
            x, y = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
            if math.hypot(x, y) <= 0.9:
                pts.append(disk.DiskPoint(x, y))
        direct = disk.hyp_distance(pts[0], pts[1])
        sampled = oracle.geodesic_length_by_sampling(pts[0], pts[1], 64)
        worst = max(worst, abs(direct - sampled))
    return _judge("metric-oracle", ("max |closed form - polyline|", worst, "<", 1e-13))


def _measures(A, B, C) -> tuple[float, ...]:
    """|AB|, |AC|, |BC|, the angles at A, B and C, and the area, pi minus
    the angle sum."""
    angles = (
        disk.angle_at_vertex(A, B, C), disk.angle_at_vertex(B, A, C),
        disk.angle_at_vertex(C, A, B),
    )
    return (
        disk.hyp_distance(A, B), disk.hyp_distance(A, C), disk.hyp_distance(B, C),
        *angles, math.pi - sum(angles),
    )


def check_isometry_invariance(rng, samples: int) -> CheckResult:
    """Sides, angles and area against those of a random isometry's image; absolute bound."""
    count = max(10, samples // 2)
    worst = 0.0
    for _ in range(count):
        b = rng.uniform(0.1, 3.0)
        c = rng.uniform(0.1, 3.0)
        alpha = rng.uniform(0.05, math.pi - 0.05)
        A, B, C = oracle.embed_triangle(b, c, alpha)
        r = 0.9 * math.sqrt(rng.uniform(0.0, 1.0))
        t = rng.uniform(0.0, 2.0 * math.pi)
        m = disk.DiskIsometry(
            disk.DiskPoint(r * math.cos(t), r * math.sin(t)), rng.uniform(0.0, 2.0 * math.pi)
        )
        moved = _measures(m(A), m(B), m(C))
        worst = max(worst, *(abs(x - y) for x, y in zip(_measures(A, B, C), moved)))
    return _judge("isometry-invariance", ("max measurement drift", worst, "<", 1e-10))


def check_deficit_nonnegative(rng, samples: int) -> CheckResult:
    """Isoperimetric deficit of random convex polygons against zero; absolute bound."""
    count = max(5, samples // 40)
    worst = math.inf
    for k in range(count):
        n = _integer(rng, 4, 10)
        poly = polygon.random_convex_polygon(n, _integer(rng, 0, 2**32))
        d = polygon.isoperimetric_deficit(polygon.polygon_perimeter(poly), poly.area)
        worst = min(worst, d)
    return _judge("deficit-nonnegativity", ("min polygon deficit", worst, ">", -1e-9))


def check_polar_round_trip(rng, samples: int) -> CheckResult:
    """hyp_distance from the centre to point_from_polar(d, theta) against d; absolute bound."""
    worst = 0.0
    for _ in range(samples):
        d = rng.uniform(0.0, 9.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = disk.point_from_polar(d, theta)
        worst = max(worst, abs(disk.hyp_distance(disk.ORIGIN, p) - d))
    return _judge("polar-round-trip", ("max |d_back - d|", worst, "<", 1e-12))


def run_all(samples: int = 200, seed: int = 0, fault: str | None = None) -> list[CheckResult]:
    """Run every check with independent seeded streams; deterministic per seed."""
    seed = polygon._seed(seed)
    samples = operator.index(samples)
    if samples < 1:
        raise DomainError("samples must be at least 1")
    checks = [
        partial(check_area_equivalence, fault=fault), check_theorem1_grid,
        check_certificates, check_euclidean_limit, check_inversion_identity,
        check_metric_oracle, check_isometry_invariance, check_deficit_nonnegative,
        check_polar_round_trip,
    ]
    return [fn(Random(seed << 8 | k), samples) for k, fn in enumerate(checks)]
