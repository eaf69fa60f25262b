"""Independent brute-force references used by tests, the verify command and
the grid cross-check that ``optimize`` prints.

No solver or certificate calls them: these routines re-derive quantities by
grid search, chord sums along the geodesic, Euclidean small-scale limits or
Figure 1 step by step, so the primary implementations can be judged against
them. The metric oracle samples each geodesic where it is straight, on its
Klein-model chord, so a few dozen segments give the distance to about an ulp.
The apex-angle grid search bisects the grid for the first point not below its
successor, on the points where ``numpy.linspace`` would put them. Everything
here is pure Python and the standard library: nothing imports numpy.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import accumulate, repeat

from .disk import _TINY, D_MAX, ORIGIN, DiskPoint, EuclideanCircle, _check_ends
from .disk import _orthogonal_circle, direction_toward, point_from_polar
from .errors import DegenerateInputError, DomainError
from .triangle import ALPHA_EPS, Figure1, _check_b_prime, _check_sas_domain


GridSearchResult = namedtuple("GridSearchResult", "alpha_hat area_hat grid_step")
GridSearchResult.__doc__ = "alpha_hat is the argmax apex angle."


def _apex_area(b: float, c: float):
    """The defect area of the SAS triangle with sides b, c, as a function of
    the apex angle.

    Uses the triple-product form tan(area / 2) = sinh b sinh c sin alpha /
    (1 + cosh a + cosh b + cosh c), with each cosh x - 1 written without
    cancellation: cosh b - 1 = 2 sinh^2(b / 2), and the law of cosines gives
    cosh a - 1 = 2 sinh^2((b - c) / 2) + 2 sinh b sinh c sin^2(alpha / 2).
    Every term of the denominator is non-negative, so small and thin
    triangles keep full relative accuracy; the solver's half-angle form in
    u = tanh(b / 2) tanh(c / 2) shares none of it.
    """
    sinh_bc = math.sinh(b) * math.sinh(c)
    fixed = 4.0 + 2.0 * (
        math.sinh(0.5 * b) ** 2 + math.sinh(0.5 * c) ** 2 + math.sinh(0.5 * (b - c)) ** 2
    )

    def area(alpha: float) -> float:
        half = math.sin(0.5 * alpha)
        return 2.0 * math.atan2(sinh_bc * math.sin(alpha), fixed + 2.0 * sinh_bc * half * half)

    return area


# the apex-angle grid, a hair inside the solver's (ALPHA_EPS, pi - ALPHA_EPS)
_ALPHA_LO = ALPHA_EPS * (1.0 + 1e-9)
_ALPHA_HI = math.pi - _ALPHA_LO


def grid_search_max_area(b: float, c: float, samples: int) -> GridSearchResult:
    """Argmax of the triangle area over an even grid of ``samples`` apex angles.

    The area is ``_apex_area``'s triple-product form, accurate to a few ulps
    over the whole domain and independent of the solver's formulas. Point k
    of the grid is ``numpy.linspace``'s, bit for bit: k * step + lo, the last
    point exactly hi. A bisection finds the first k whose area is not below
    that of point k + 1, or the last point if there is none, in at most
    2 ceil(log2 samples) + 1 evaluations (21, 29 and 35 at 1000, 10,000 and
    100,000 samples). That is the first maximum, which ``numpy.argmax``
    picks, whenever the sampled area rises strictly to one top (a point or
    a run of equal values) and then falls strictly. The true area does,
    since d/d alpha tan(area / 2) has the sign of cos alpha - u
    (``triangle.optimal_alpha``); that the sampled area keeps the shape is
    witnessed by ``TestOneTopPremise`` in tests/test_oracle.py on grids of
    1000, 10,000 and 100,000 points. Refuses sides outside (0, D_MAX], as
    ``solve_sas`` does, and fewer than 1000 samples; a count that is not an
    integer raises TypeError.
    """
    _check_sas_domain(b, c, None)
    if samples < 1000:
        raise DomainError("grid search needs at least 1000 samples")
    last = operator.index(samples) - 1
    area = _apex_area(b, c)
    step = (_ALPHA_HI - _ALPHA_LO) / last

    def point(k: int) -> float:
        return _ALPHA_HI if k == last else k * step + _ALPHA_LO

    first, stop = 0, last
    while first < stop:
        mid = (first + stop) // 2
        if area(point(mid)) >= area(point(mid + 1)):
            stop = mid
        else:
            first = mid + 1
    alpha = point(first)
    return GridSearchResult(alpha, area(alpha), step)


# |z| of a point D_MAX from the centre, with room for a few ulps of rounding:
# point_from_polar(D_MAX, theta) lands up to one ulp above tanh(D_MAX / 2)
_R_MAX = math.tanh(0.5 * D_MAX) + 4e-16


def geodesic_length_by_sampling(p: DiskPoint, q: DiskPoint, segments: int) -> float:
    """Length of the geodesic p-q as a sum of hyperbolic chord lengths.

    Samples the geodesic where it is a straight chord: in the Klein model,
    k = 2z / (1 + |z|^2). The ``segments + 1`` samples are evenly spaced on
    the Klein chord from k_p to k_q, each mapped back to the disk by
    z = k / (1 + s) with s = sqrt(1 - |k|^2), and the two ends are pinned
    to p and q. math.fsum adds the distances d of consecutive samples u, w
    from sinh(d / 2) = |u - w| / sqrt(g_u g_w), with g_z = 1 - |z|^2. No
    1 - |k|^2 or 1 - |z|^2 is taken by subtraction: a point d from the
    centre has |k| = tanh d, so the difference would lose about six digits
    at d = 8 and all of them near d = 19, where |k| rounds to 1. Instead:

    - at the ends, g_z = (1 - |z|) (1 + |z|) and 1 - |k|^2 = (g_z / (2 - g_z))^2;
    - on the chord, 1 - |k_t|^2 = (1 - t) (1 - |k_p|^2) + t (1 - |k_q|^2)
      + t (1 - t) |k_q - k_p|^2, an exact identity;
    - at each sample, g_z = 2 s / (1 + s), taken as 1 / g_z = (1 + 1 / s) / 2.

    So every sample lies inside the disk, and on the geodesic up to
    rounding. By additivity the chord lengths sum to the distance for any
    number of segments; ``hyp_distance`` shares only the sinh(d / 2)
    identity, on its two ends. On verify's pairs (|z| <= 0.9) it is within
    about 1e-15 of a 60-digit mpmath distance; with both ends up to 12 from
    the centre, within about 3e-13 relative. Raises DomainError for fewer
    than one segment, an end that is not a DiskPoint, or an end more than
    D_MAX from the centre, where |z| is too close to 1 to carry the distance.
    """
    if segments < 1:
        raise DomainError("use at least one segment")
    _check_ends("distance ends", p, q)
    rp, rq = math.hypot(*p), math.hypot(*q)
    if not max(rp, rq) <= _R_MAX:
        raise DomainError(f"an end lies more than D_MAX = {D_MAX} from the centre")
    if p == q:
        return 0.0
    gp, gq = (1.0 - rp) * (1.0 + rp), (1.0 - rq) * (1.0 + rq)
    kp, kq = 2.0 * p.z / (2.0 - gp), 2.0 * q.z / (2.0 - gq)
    ep, eq = (gp / (2.0 - gp)) ** 2, (gq / (2.0 - gq)) ** 2  # 1 - |k|^2
    cc = abs(kq - kp) ** 2
    hp, hd = 0.5 * kp, 0.5 * (kq - kp)
    sqrt = math.sqrt
    # t = j / segments up to rounding, summed in C: the samples are most of the cost
    ts = list(accumulate(repeat(1.0 / segments, segments - 1)))
    # 1 / sqrt(g) = sqrt((1 + s) / (2 s)), and z = k / (1 + s) = (k / 2) (2 - g)
    irs = [sqrt(0.5 + 0.5 / sqrt((1.0 - t) * (ep + cc * t) + eq * t)) for t in ts]
    zs = [(hp + hd * t) * (2.0 - 1.0 / (r * r)) for t, r in zip(ts, irs)]
    zs.insert(0, p.z)
    zs.append(q.z)
    irs.insert(0, 1.0 / sqrt(gp))
    irs.append(1.0 / sqrt(gq))
    return 2.0 * math.fsum(map(math.asinh, [
        abs(u - w) * iu * iw for u, w, iu, iw in zip(zs, zs[1:], irs, irs[1:])
    ]))


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
    if n < 3:
        return False
    for i in range(n):
        base, ahead = vs[i], direction_toward(vs[i], vs[(i + 1) % n])
        for j in range(n):
            if j != i and j != (i + 1) % n:
                turn = math.remainder(direction_toward(base, vs[j]) - ahead, math.tau)
                if not 0.0 < turn < math.pi:
                    return False
    return True


EuclideanTriangle = namedtuple("EuclideanTriangle", "a beta gamma area")


def euclidean_limit_triangle(b: float, c: float, alpha: float) -> EuclideanTriangle:
    """Flat-plane SAS solution for comparison at small scales.

    Sides must lie in (0, 0.01] and alpha in solve_sas's
    (ALPHA_EPS, pi - ALPHA_EPS). Below the smallest normal float, a * c
    (beta's denominator, 0 at sides of 1e-200) or the area has lost bits:
    a DomainError.
    """
    if not (0.0 < b <= 0.01 and 0.0 < c <= 0.01):
        raise DomainError("Euclidean-limit reference is only valid for sides in (0, 0.01]")
    _check_sas_domain(b, c, alpha)
    a = math.sqrt(b * b + c * c - 2.0 * b * c * math.cos(alpha))
    area = 0.5 * b * c * math.sin(alpha)
    if min(a * c, area) < _TINY:
        raise DomainError("flat triangle too small: a * c or its area is subnormal")
    beta = math.acos(min(1.0, max(-1.0, (a * a + c * c - b * b) / (2.0 * a * c))))
    gamma = math.pi - alpha - beta
    return EuclideanTriangle(a=a, beta=beta, gamma=gamma, area=area)


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


def embed_triangle(b: float, c: float, alpha: float) -> tuple[DiskPoint, DiskPoint, DiskPoint]:
    """Place the triangle with A at the center, B on the positive x-axis."""
    _check_sas_domain(b, c, alpha)
    return ORIGIN, point_from_polar(c, 0.0), point_from_polar(b, alpha)


def omega_circle(B: DiskPoint, C: DiskPoint) -> EuclideanCircle:
    """The Euclidean circle containing the geodesic BC (A at the center)."""
    circle = _orthogonal_circle(B, C)
    if circle is None:
        raise DegenerateInputError("B, C and the center are collinear: the triangle is degenerate")
    return circle


def b_prime_point(B: DiskPoint, omega: EuclideanCircle) -> tuple[float, float]:
    """Second intersection of the Euclidean line through the center and B with omega.

    Points of the line are t * B / |B|; they lie on omega where
    t^2 - 2 m t + power = 0, with m the projection of omega's center on the
    line and power = |center|^2 - radius^2. B itself is the root t = |B|, so
    by Vieta's sum the far root is 2 m - |B|. This needs neither a square
    root nor the power, which cancels when omega's center lies far out (B
    near the center, or BC nearly through it); the textbook root
    m + sqrt(m^2 - power) also cancels as B approaches the boundary. Since
    omega is orthogonal to the unit circle, power is 1 and the result
    coincides with the inversion of B in the unit circle, build_figure1's B'.
    """
    bx, by = B
    cx, cy, radius = omega
    nb = math.hypot(bx, by)
    if nb == 0.0:
        raise DegenerateInputError("B at the center: the line AB is undefined")
    # rounding in |B - center| grows like eps * radius, and omega's radius
    # grows without bound as B nears the center or BC nears a diameter
    if abs(math.hypot(bx - cx, by - cy) - radius) > 1e-9 * max(1.0, radius):
        raise DomainError("B does not lie on the given circle")
    direction = complex(bx, by) / nb
    m = (direction.conjugate() * complex(cx, cy)).real
    t = 2.0 * m - nb  # the root beyond B
    if t <= nb:
        raise DegenerateInputError("line AB does not meet the circle twice")
    _check_b_prime(t)
    w = t * direction
    return (w.real, w.imag)


def _euclidean_angle(vx: float, vy: float, px: float, py: float, qx: float, qy: float) -> float:
    """Unsigned Euclidean angle at (vx, vy) between the rays to (px, py) and (qx, qy)."""
    x1, y1 = px - vx, py - vy
    x2, y2 = qx - vx, qy - vy
    return abs(math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2))


def tau_angle(fig: Figure1) -> float:
    """Euclidean angle at B' in the Euclidean triangle A-B'-C."""
    return _euclidean_angle(*fig.b_prime, *fig.A, *fig.C)


def figure1_by_construction(b: float, c: float, alpha: float) -> Figure1:
    """``triangle.build_figure1``'s witness, Figure 1 step by step: embed_triangle,
    omega_circle (geodesic_through's circle solve), b_prime_point and tau_angle,
    each refusing as it does alone; psi, the circle C traces, has radius tanh(b/2)."""
    A, B, C = embed_triangle(b, c, alpha)
    omega = omega_circle(B, C)
    psi = EuclideanCircle(0.0, 0.0, math.tanh(0.5 * b))
    fig = Figure1(A, B, C, omega, psi, b_prime_point(B, omega), None)
    return fig._replace(tau=tau_angle(fig))
