"""Independent brute-force references used by tests and the verify command.

Nothing here is called from production code paths: these routines re-derive
quantities by grid search, polyline integration, or Euclidean small-scale
limits so that the primary implementations can be judged against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import DiskPoint, direction_toward, geodesic_through
from .errors import DomainError
from .triangle import ALPHA_EPS


@dataclass(frozen=True)
class GridSearchResult:
    alpha_hat: float  # the argmax: apex angle, hinge side t or diagonal angle phi
    area_hat: float
    grid_step: float
    samples: int


def _area_grid(b: float, c: float, alphas: np.ndarray) -> np.ndarray:
    """Vectorized defect area of the SAS triangle over a grid of apex angles.

    Written directly against the law of cosines, independent of the scalar
    solver under test.
    """
    # cosh a - 1 in the cancellation-free form, then cosh a cosh x - cosh y
    # expanded in (cosh - 1) terms; keeps tiny triangles accurate.
    mb = 2.0 * math.sinh(0.5 * b) ** 2
    mc = 2.0 * math.sinh(0.5 * c) ** 2
    ma = (
        2.0 * math.sinh(0.5 * (b - c)) ** 2
        + 2.0 * math.sinh(b) * math.sinh(c) * np.sin(0.5 * alphas) ** 2
    )
    a = np.log1p(ma + np.sqrt(ma * (ma + 2.0)))
    sinh_a = np.sinh(a)
    cos_beta = (ma + mc - mb + ma * mc) / (sinh_a * math.sinh(c))
    cos_gamma = (ma + mb - mc + ma * mb) / (sinh_a * math.sinh(b))
    beta = np.arccos(np.clip(cos_beta, -1.0, 1.0))
    gamma = np.arccos(np.clip(cos_gamma, -1.0, 1.0))
    return math.pi - (alphas + beta + gamma)


def grid_search_max_area(b: float, c: float, samples: int) -> GridSearchResult:
    """Argmax of the triangle area over an even apex-angle grid."""
    if samples < 1000:
        raise DomainError("grid search needs at least 1000 samples")
    lo = ALPHA_EPS * (1.0 + 1e-9)
    hi = math.pi - ALPHA_EPS * (1.0 + 1e-9)
    alphas = np.linspace(lo, hi, samples)
    areas = _area_grid(b, c, alphas)
    k = int(np.argmax(areas))  # ties resolve to the smaller alpha
    return GridSearchResult(
        alpha_hat=float(alphas[k]),
        area_hat=float(areas[k]),
        grid_step=(hi - lo) / samples,
        samples=samples,
    )


def count_local_maxima(b: float, c: float, samples: int) -> int:
    """Strict local maxima of the area on the grid (unimodality witness)."""
    lo = ALPHA_EPS * (1.0 + 1e-9)
    hi = math.pi - ALPHA_EPS * (1.0 + 1e-9)
    areas = _area_grid(b, c, np.linspace(lo, hi, samples))
    interior = areas[1:-1]
    return int(np.sum((interior > areas[:-2]) & (interior > areas[2:])))


def _grid_argmax(args: np.ndarray, areas: np.ndarray) -> GridSearchResult:
    k = int(np.argmax(areas))
    return GridSearchResult(
        alpha_hat=float(args[k]),
        area_hat=float(areas[k]),
        grid_step=float(args[1] - args[0]),
        samples=len(args),
    )


def _defect_from_sides(a, b, c):
    """Vectorized area of the triangle with sides a, b, c.

    Pi minus the three angles of the plain law of cosines; adequate for sides
    of order one.
    """

    def angle(x, y, z):
        cos_x = (np.cosh(y) * np.cosh(z) - np.cosh(x)) / (np.sinh(y) * np.sinh(z))
        return np.arccos(np.clip(cos_x, -1.0, 1.0))

    return math.pi - (angle(a, b, c) + angle(b, c, a) + angle(c, a, b))


def grid_search_hinge(s: float, base: float, samples: int) -> GridSearchResult:
    """Argmax over t of the area of the triangle with sides t, s - t and base.

    The grid spans the open interval allowed by the triangle inequality; it
    witnesses the isosceles optimum t = s / 2 of the polygon hinge move.
    """
    if samples < 1000:
        raise DomainError("grid search needs at least 1000 samples")
    ts = np.linspace(0.5 * (s - base), 0.5 * (s + base), samples + 2)[1:-1]
    return _grid_argmax(ts, _defect_from_sides(ts, s - ts, base))


def quadrilateral_area(s1: float, s2: float, s3: float, diag: float, phi):
    """Area of the quadrilateral ABCD with |AB| = s1, |BC| = s2, |CD| = s3,
    |DA| = diag and angle phi at A, as the sum of triangles ABD and BCD;
    -inf where the cross diagonal BD leaves no triangle BCD.
    """
    x = np.cosh(s1) * np.cosh(diag) - np.sinh(s1) * np.sinh(diag) * np.cos(phi)
    bd = np.arccosh(np.maximum(1.0, x))
    area = _defect_from_sides(s1, diag, bd) + _defect_from_sides(s2, s3, bd)
    return np.where((bd > abs(s2 - s3)) & (bd < s2 + s3), area, -np.inf)


def grid_search_quadrilateral(
    s1: float, s2: float, s3: float, diag: float, samples: int
) -> GridSearchResult:
    """Argmax of quadrilateral_area over phi in (0, pi).

    Witnesses the polygon diagonal move, which solves for the concyclic
    position instead of searching.
    """
    if samples < 1000:
        raise DomainError("grid search needs at least 1000 samples")
    phis = np.linspace(0.0, math.pi, samples + 2)[1:-1]
    return _grid_argmax(phis, quadrilateral_area(s1, s2, s3, diag, phis))


def geodesic_length_by_sampling(p: DiskPoint, q: DiskPoint, segments: int) -> float:
    """Length of the geodesic arc p-q as a sum of short chordal distances.

    Places ``segments + 1`` evenly spaced samples on the arc (or diameter
    segment) from p to q, in Euclidean arc length, and sums the hyperbolic
    distances 2 artanh(|u - w| / |1 - conj(u) w|) of consecutive samples,
    all at once in numpy. Every chord is shorter than its arc, so the sum
    converges to the distance from below. Raises DomainError if a sample
    leaves the open disk or a chord's length overflows, as DiskPoint and
    hyp_distance would.
    """
    if segments < 10_000:
        raise DomainError("use at least 10^4 segments")
    if abs(p.z - q.z) < 1e-15:
        return 0.0
    g = geodesic_through(p, q)
    k = np.arange(segments + 1)
    if g.is_diameter:
        z = (p.x + (q.x - p.x) * k / segments) + 1j * (p.y + (q.y - p.y) * k / segments)
    else:
        c = g.circle
        a0 = math.atan2(p.y - c.cy, p.x - c.cx)
        a1 = math.atan2(q.y - c.cy, q.x - c.cx)
        sweep = math.remainder(a1 - a0, math.tau)  # the short way around
        z = c.center + c.radius * np.exp(1j * (a0 + sweep * k / segments))
    if not np.all(z.real * z.real + z.imag * z.imag < 1.0):
        raise DomainError("a sample of the geodesic left the unit disk")
    u, w = z[:-1], z[1:]
    t = np.abs(u - w) / np.abs(1.0 - u.conj() * w)
    if not np.all(t < 1.0):
        raise DomainError("distance overflow: points too close to the boundary")
    return float(np.sum(np.log1p(2.0 * t / (1.0 - t))))


def intrinsic_convex_ccw(vertices) -> bool:
    """Whether the polygon is strictly convex with counterclockwise vertices.

    The defining test, O(n^2) and model-free: every other vertex must lie
    strictly left of each edge, i.e. its direction from the edge's first
    vertex must lie strictly between the edge's direction and the reverse.
    Directions are measured intrinsically with ``direction_toward``, with no
    Klein map and no area formula.
    """
    vs = list(vertices)
    n = len(vs)
    for i in range(n):
        base, ahead = vs[i], direction_toward(vs[i], vs[(i + 1) % n])
        for j in range(n):
            if j != i and j != (i + 1) % n:
                turn = math.remainder(direction_toward(base, vs[j]) - ahead, math.tau)
                if not 0.0 < turn < math.pi:
                    return False
    return True


@dataclass(frozen=True)
class EuclideanTriangle:
    a: float
    beta: float
    gamma: float
    area: float


def euclidean_limit_triangle(b: float, c: float, alpha: float) -> EuclideanTriangle:
    """Flat-plane SAS solution for comparison at small scales."""
    if b > 0.01 or c > 0.01:
        raise DomainError("Euclidean-limit reference is only valid for sides <= 0.01")
    a = math.sqrt(b * b + c * c - 2.0 * b * c * math.cos(alpha))
    beta = math.acos(min(1.0, max(-1.0, (a * a + c * c - b * b) / (2.0 * a * c))))
    gamma = math.pi - alpha - beta
    return EuclideanTriangle(a=a, beta=beta, gamma=gamma, area=0.5 * b * c * math.sin(alpha))


def curvature_corrected_side(b: float, c: float, alpha: float) -> float:
    """SAS side a at small scales, with the leading curvature term restored.

    Expanding cosh a = cosh b cosh c - sinh b sinh c cos alpha to fourth order
    gives a^2 = a_E^2 + (b c sin alpha)^2 / 3 + O(s^6), where a_E is the flat
    side. The flat side alone is short by about (b c sin alpha)^2 / (6 a_E^2)
    relative (~1.6e-7 at sides 1e-3); this form is off by O(s^4) relative
    (~1e-14 at sides 1e-3), so it can judge the solver to well below 1e-8.
    """
    a_flat = euclidean_limit_triangle(b, c, alpha).a
    return math.sqrt(a_flat * a_flat + (b * c * math.sin(alpha)) ** 2 / 3.0)
