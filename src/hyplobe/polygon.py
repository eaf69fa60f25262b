"""Convex hyperbolic polygons and perimeter-preserving area improvement.

The improver realizes the Steiner program for polygons: local moves that keep
the perimeter fixed and never decrease the area. One move is used, in
round-robin sweeps: the window move at V_i keeps the side from V_{i-2} to
V_{i-1} and the perimeter, and puts the other n - 2 vertices where the
polygon's area is largest: the n - 1 sides of the window from A = V_{i-1}
round to D = V_{i-2} equal, and all n vertices on one circle, horocycle or
hypercycle (see _window_move).

Fixed points of the move are equilateral and cyclic, so the sweeps drive any
convex polygon toward the regular polygon of the same perimeter, which
witnesses the isoperimetric inequality numerically. The per-vertex residual
max(|s_{k-1} - s_k|, |BD* - BD|) measures how far V_k is from such a fixed
point and vanishes on regular polygons (see max_optimality_residual). A
move is planned only where it changes a side or a distance to D by more
than STEP_TOL relative, and a run stops, converged, as soon as the largest
residual is at most tol times the mean side.

Every step is a formula or a bracketed root. On a circle, horocycle or
hypercycle the half-sinhs sinh(dist / 2) of the sides and diagonals obey
Ptolemy's relations as Euclidean chords do, so the cross diagonal has a
closed form (see _cyclic_cross_diagonal), and so does every distance along a
chain of equal sides, once one root fixes the chain's curve. Lengths and
angles are read to about an ulp anywhere in the disk, so far polygons
converge as near ones do. circumcircle_fit, which no run calls, fits a
linear least-squares Euclidean circle, and regular polygons follow from the
right triangles cut out by their apothems.
Convexity and counterclockwise orientation are hyperbolic, decided from the
signed interior angles and the turns of the fan from V_0, whose triangles'
areas sum to the polygon's area (see _measure).

A polygon is one record, HyperbolicPolygon, which carries its DiskPoint
vertices, sides, angles and area. It is measured once, where it is made:
from_vertices measures a new polygon and steiner_move each move's, and
every other function reads the record as it is. Inside, the walks take the
vertices and their directions as complex numbers, so a quarter turn
(x, y) -> (-y, x) of the input turns the run bit for bit.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple

from .disk import _TINY, D_MAX, DiskPoint, _direction, _distance, _step, _turn, point_from_polar
from .errors import DegenerateInputError, DomainError, NonConvexError

# Smallest first-order step, relative to the quantity it changes, for which a
# move is planned: a smaller one moves the vertices by roundoff only.
STEP_TOL = 1e-13


class HyperbolicPolygon(
    namedtuple("HyperbolicPolygon", "vertices side_lengths interior_angles area")
):
    """Strictly convex polygon, vertices in counterclockwise order: the
    hyperbolic orientation, read from the signed interior angles (_measure).

    ``vertices`` is a tuple of DiskPoints; ``side_lengths[i]`` is the side
    from vertex i to vertex i + 1 and ``interior_angles[i]`` the angle at
    vertex i, both tuples of floats, and ``area`` is the sum of the fan
    triangles' areas, to 2e-15 relative. A polygon is measured once, where
    it is made: from_vertices measures its vertices (DiskPoints, or (x, y)
    pairs of real numbers it makes DiskPoints of Python floats), and the
    constructor measures them again and refuses fields that differ by a
    bit. _make and _replace are unchecked.
    """

    __slots__ = ()

    def __new__(cls, vertices, side_lengths, interior_angles, area) -> "HyperbolicPolygon":
        poly = cls.from_vertices(vertices)
        if poly[1:] != (tuple(side_lengths), tuple(interior_angles), area):
            raise DomainError("sides, angles or area disagree with the vertices")
        return poly

    @property
    def n(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_vertices(cls, vertices) -> "HyperbolicPolygon":
        vs = tuple(
            v if isinstance(v, DiskPoint) else DiskPoint(*map(_coordinate, v)) for v in vertices
        )
        if len(vs) < 3:
            raise DomainError("a polygon needs at least three vertices")
        return _measure(vs)


def _coordinate(x) -> float:
    """x as a Python float, exactly; unlike float(x), a string is a TypeError."""
    return math.ldexp(x, 0)


def _measure(vs: tuple[DiskPoint, ...]) -> HyperbolicPolygon:
    """Check and measure the polygon with vertices vs.

    Each interior angle, the signed _turn(V_k, V_{k-1}, V_{k+1}) read in the
    chart centred at V_k, must lie in (0, pi). So must the turn at V_0 of
    each fan triangle V_0 V_k V_{k+1}; these turns sum to the angle at V_0
    modulo 2 pi, and may not exceed it by more than pi, as a pentagram's
    exceed it by 2 pi. The fan triangles then lie in disjoint sectors
    at V_0 and tile a simple polygon, whose true angles, in (0, 2 pi) and
    equal to the measured ones modulo 2 pi, are the measured ones, below pi.
    It bounds a locally convex set, convex by the Tietze-Nakajima theorem.
    Fan turns are _turn's, defined however far apart the vertices lie.
    The fan that proves convexity also gives the area: with turn theta and
    radii r_k = |V_0 V_k|, each fan triangle's is triangle.solve_sas's
    2 atan2(u sin theta, (1 - u) + 2 u sin^2(theta / 2)), u = t_k t_{k+1},
    t_k = tanh(r_k / 2), 1 - u = (1 - t_k) + t_k (1 - t_{k+1}) and
    1 - t_k = 2 / (e^{r_k} + 1): no term cancels at any scale or offset.
    A fan triangle's area below _TINY, subnormal and bits short, is refused:
    regular 3-, 8- and 64-gons build from circumradius 1e-152, not 1e-155.
    """
    zs = [v.z for v in vs]
    n = len(zs)
    sides = tuple(_distance(zs[i], zs[(i + 1) % n]) for i in range(n))
    angles = []
    for i in range(n):
        angles.append(_turn(zs[i], zs[i - 1], zs[(i + 1) % n]))
        if not 0.0 < angles[i] < math.pi:
            raise NonConvexError("polygon is not strictly convex and counterclockwise")
    turns = [_turn(zs[0], zs[k + 1], zs[k]) for k in range(1, n - 1)]
    if not all(0.0 < t < math.pi for t in turns) or sum(turns) > angles[0] + math.pi:
        raise NonConvexError("polygon winds around more than once")
    radii = [sides[0], *(_distance(zs[0], z) for z in zs[2:-1]), sides[-1]]  # |V_0 V_k|
    ts = [math.tanh(0.5 * r) for r in radii]
    es = [2.0 / (math.exp(r) + 1.0) for r in radii]  # 1 - tanh(r / 2)
    fan = [
        2.0 * math.atan2(ts[k] * ts[k + 1] * math.sin(t), es[k] + ts[k] * es[k + 1]
                         + 2.0 * ts[k] * ts[k + 1] * math.sin(0.5 * t) ** 2)
        for k, t in enumerate(turns)
    ]
    if min(fan) < _TINY:
        raise DegenerateInputError("polygon too small: a fan triangle's area is subnormal")
    return HyperbolicPolygon._make((vs, sides, tuple(angles), math.fsum(fan)))


def polygon_perimeter(poly: HyperbolicPolygon) -> float:
    return sum(poly.side_lengths)


class MoveResult(namedtuple("MoveResult", "polygon accepted rejected")):
    """``rejected`` counts planned moves whose result _measure refused: not
    convex, or degenerate."""

    __slots__ = ()


def _window_move(poly: HyperbolicPolygon, i: int) -> dict[int, complex] | None:
    """The largest-area position of the window at V_i; the new positions of
    its inner vertices, or None if the move is not planned.

    The window is the m = n - 1 sides from A = V_{i-1} round to D = V_{i-2},
    every side but DA; A, D and the window's total length m s stay fixed. A
    largest-area position exists inside the range where the polygon stays
    convex: at any end of that range an angle flattens, and the area grows as
    the square root of the distance from that end, so it rises into the range
    with infinite slope. At that maximum no sub-move gains area. Sliding one
    inner vertex with its two sides' sum fixed gains nothing only where the
    two sides are equal, so all m sides equal s. Moving the middle two of
    four consecutive vertices with their three sides fixed gains nothing only
    where the four lie on one circle, horocycle or hypercycle, where the
    opposite angle sums agree; any three vertices fix that curve, so all n
    vertices lie on one. With h = sinh(s / 2),
    rho = sinh(|AD| / 2) / h and V_0 = A, ..., V_m = D along the chain, the
    half-sinh Ptolemy relations (J. E. Valentine, Pacific J. Math. 34, 1970;
    see _cyclic_cross_diagonal) give sinh(|V_j V_k| / 2) = h U_{k-j} with
    U_k = f(k t) / f(t) and f(m t) / f(t) = rho: f = sin and t in
    (0, pi / m) on a circle (rho < m), f = sinh and t > 0 on a hypercycle
    (rho > m), and U_k = k on a horocycle (rho = m). The ratio falls on the
    circle's bracket and rises on the hypercycle's, where
    sinh(m t) / sinh(t) >= e^{(m - 1) t} bounds t, and the root is bisected to
    the last bit. Each V_k in turn is walked one side s on from V_{k-1}, on
    the polygon's side of the line to D: its image in V_{k-1}'s chart is
    tanh(s / 2) times D's direction there, turned clockwise by the angle of
    the triangle (V_{k-1}, V_k, D) whose sides the chain fixes, both unit
    complex numbers (see _unturn). So no walk is longer than s, and each aims at D afresh,
    which keeps one walk's rounding from carrying along the chain. At m = 2
    (a triangle) V_1 is the apex of the isosceles triangle on AD; at m = 3,
    U_2^2 = 1 + rho gives sinh^2(|V_1 D| / 2) = h (h + sinh(|AD| / 2)).

    The move is planned only where a window side differs from s by more
    than STEP_TOL s, or some |V_k D| from its target by more than
    STEP_TOL |V_k D|. A window whose mean side s exceeds D_MAX, farther
    than point_from_polar reaches, is refused.
    """
    zs, sides = [v.z for v in poly.vertices], poly.side_lengths
    n = len(zs)
    m = n - 1
    window = [sides[(i - 1 + k) % n] for k in range(m)]
    s = sum(window) / m
    if s > D_MAX:
        raise DomainError(f"window mean side {s} exceeds D_MAX = {D_MAX}: no step can walk it")
    chain = [zs[(i - 1 + k) % n] for k in range(n)]  # A = V_0, ..., V_m = D
    d, diag = chain[m], sides[i - 2]  # DA, the side the move keeps
    h = math.sinh(0.5 * s)
    ratios = _chain_ratios(m, math.sinh(0.5 * diag) / h)
    reach = [0.0, s, *(2.0 * math.asinh(h * u) for u in ratios), diag]  # j sides apart
    if all(abs(x - s) <= STEP_TOL * s for x in window) and all(
        abs(reach[m - k] - e) <= STEP_TOL * e
        for k, e in enumerate((_distance(z, d) for z in chain[1:m]), 1)
    ):
        return None
    updates, z, t = {}, chain[0], math.tanh(0.5 * s)
    for k in range(1, m):  # V_k one side on from V_{k-1}, aimed by the triangle with D
        w = _direction(z, d)
        z = _step(z, t * (w / abs(w)) * _unturn(s, reach[m - k + 1], reach[m - k]))
        updates[(i - 1 + k) % n] = z
    return updates


def _chain_ratios(m: int, rho: float) -> list[float]:
    """U_2, ..., U_{m-1} for the chain of m equal sides whose ends are rho
    sides apart in half-sinhs (see _window_move)."""
    if m <= 2 or rho == m:
        return [float(k) for k in range(2, m)]
    rising = rho > m
    f, hi = (math.sinh, math.log(rho) / (m - 1)) if rising else (math.sin, math.pi / m)
    lo, t = 0.0, 0.5 * hi
    while lo < t < hi:
        if (f(m * t) / f(t) < rho) == rising:
            lo = t
        else:
            hi = t
        t = 0.5 * (lo + hi)
    return [f(k * t) / f(t) for k in range(2, m)]


def _unturn(x: float, y: float, z: float) -> complex:
    """e^{-i phi} = c^2, phi the angle between the sides x and y of the triangle
    with sides x, y, z, by the half-angle formula: c = (X - i Y) / |X - i Y|,
    X^2 = sinh(p) sinh(p - z), Y^2 = sinh(p - x) sinh(p - y), p the half
    perimeter, accurate near 0 and pi as asin and acos are not. A triangle
    inequality that fails by roundoff reads as flat, which convexity refuses."""
    c = complex(
        math.sqrt(max(0.0, math.sinh(0.5 * (x + y + z)) * math.sinh(0.5 * (x + y - z)))),
        -math.sqrt(max(0.0, math.sinh(0.5 * (z + y - x)) * math.sinh(0.5 * (z + x - y)))),
    )
    c /= abs(c)
    return c * c


def _cyclic_cross_diagonal(s1: float, s2: float, s3: float, diag: float) -> float:
    """|BD| of the quadrilateral ABCD with |AB| = s1, |BC| = s2, |CD| = s3 and
    |DA| = diag whose vertices lie on one circle, horocycle or hypercycle.

    On a circle of radius R, a chord subtending the central angle theta has
    sinh(dist / 2) = sinh(R) sin(theta / 2), so the half-sinhs of the sides
    and diagonals are the chords of a Euclidean cyclic quadrilateral, with
    the same central angles. On a hypercycle at distance h from its axis,
    sinh(dist / 2) = cosh(h) sinh(t / 2) for axis separation t, and the
    identities behind Ptolemy's theorems hold for sinh as they do for sin;
    on a horocycle the half-sinh is proportional to arc length, as for
    collinear points. With a, b, c, d the half-sinhs of s1, s2, s3, diag,
    Ptolemy's theorems give pq = ac + bd and p / q = (ad + bc) / (ab + cd)
    for the diagonals p = |AC| and q = |BD|, hence
    sinh^2(|BD| / 2) = (ab + cd)(ac + bd) / (ad + bc), formed with a, b, c, d
    scaled exactly by a power of two near the largest, so no product underflows.
    """
    a, b, c, d = (math.sinh(0.5 * x) for x in (s1, s2, s3, diag))
    e = math.frexp(max(a, b, c, d))[1]
    a, b, c, d = (math.ldexp(x, -e) for x in (a, b, c, d))
    q = math.sqrt((a * b + c * d) * (a * c + b * d) / (a * d + b * c))
    return 2.0 * math.asinh(math.ldexp(q, e))


def max_optimality_residual(poly: HyperbolicPolygon) -> float:
    """The largest of max(|s_{k-1} - s_k|, |BD* - BD|) at each V_k, for A B C D =
    V_{k-1} V_k V_{k+1} V_{k+2} and BD* the concyclic |BD|; zero on regular
    polygons. A triangle has no cross diagonal, so only sides count."""
    zs, sides = [v.z for v in poly.vertices], poly.side_lengths
    n = len(zs)
    worst = max(abs(sides[k - 1] - sides[k]) for k in range(n))
    if n == 3:
        return worst
    for k in range(n):
        diag = _distance(zs[k - 1], zs[(k + 2) % n])
        bd_star = _cyclic_cross_diagonal(sides[k - 1], sides[k], sides[(k + 1) % n], diag)
        worst = max(worst, abs(bd_star - _distance(zs[k], zs[(k + 2) % n])))
    return worst


def steiner_move(poly: HyperbolicPolygon, i: int) -> MoveResult:
    """One Steiner step at vertex i, 0 <= i < n, the one steiner_optimize takes.

    Keeps V_{i-2}, V_{i-1} and the perimeter, and moves the other n - 2
    vertices to the largest-area position: the n - 1 sides from V_{i-1} round
    to V_{i-2} equal, and every vertex on one circle, horocycle or hypercycle
    (see _window_move). The input is used as it is, and comes back itself
    when the move is not planned, because it would change no side or
    distance to V_{i-2} by more than STEP_TOL relative, or when _measure
    refuses its result: not convex, or degenerate (coincident chart images or
    a subnormal fan area); ``rejected`` counts the latter. A planned move's
    polygon is measured once, and its area less the input's is the move's
    gain; near a fixed point that is roundoff, of either sign. A window whose
    mean side exceeds D_MAX raises DomainError.
    """
    i = operator.index(i)
    if not 0 <= i < poly.n:
        raise DomainError(f"vertex index {i} outside 0..{poly.n - 1}")
    updates = _window_move(poly, i)
    if updates is None:
        return MoveResult(poly, False, 0)
    vs = list(poly.vertices)
    for k, z in updates.items():
        vs[k] = DiskPoint._make((z.real, z.imag))
    try:
        return MoveResult(_measure(tuple(vs)), True, 0)
    except DomainError:
        return MoveResult(poly, False, 1)


class TraceStep(namedtuple("TraceStep", "iteration vertex area_after residual perimeter")):
    __slots__ = ()


class SteinerResult(
    namedtuple("SteinerResult", "polygon trace converged sweeps residual moves_rejected")
):
    """``trace`` is a tuple of TraceSteps, ``residual`` the largest residual
    the run stopped on, and ``moves_rejected`` counts planned moves whose
    result _measure refused: not convex, or degenerate."""

    __slots__ = ()


def steiner_optimize(poly: HyperbolicPolygon, tol: float = 1e-8) -> SteinerResult:
    """Round-robin sweeps of steiner_move until the residual is below tol.

    max_optimality_residual is measured again after every accepted move. A
    run stops as soon as it is at most tol * perimeter / n, even within a
    sweep, or after a sweep that does not lower it (one that accepts no move,
    too), so every run ends; ``converged`` is exactly the residual test, and
    ``sweeps`` counts the sweeps begun. After the first move each move
    divides the residual by n - 1: a move leaves n - 1 equal sides s on one
    curve and the kept side d, and the next keeps one s and sets the other
    n - 1 to ((n - 2) s + d) / (n - 1), so s - d becomes -(s - d) / (n - 1).
    Along the trace the perimeter is conserved and the area falls by a few
    ulps at most. tol must be positive and finite. A window whose mean side
    exceeds D_MAX raises DomainError, as in steiner_move.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    trace, moves_rejected, sweeps = [], 0, 0
    n = poly.n
    worst = max_optimality_residual(poly)
    bound = tol * polygon_perimeter(poly) / n
    while True:
        start = worst
        for i in range(n):
            updated, accepted, rejected = steiner_move(poly, i)
            moves_rejected += rejected
            if accepted:
                poly, worst = updated, max_optimality_residual(updated)
                trace.append(TraceStep(
                    iteration=sweeps * n + i, vertex=i, area_after=poly.area,
                    residual=worst, perimeter=polygon_perimeter(poly),
                ))
            if worst <= bound:
                break
        sweeps += 1
        if not bound < worst < start:
            break
    return SteinerResult(poly, tuple(trace), worst <= bound, sweeps, worst, moves_rejected)


class CircumcircleFit(namedtuple("CircumcircleFit", "center radius spread")):
    __slots__ = ()


def circumcircle_fit(poly: HyperbolicPolygon) -> CircumcircleFit:
    """Best-fit hyperbolic circumcircle and the spread of the vertex radii.

    Hyperbolic circles are the Euclidean circles inside the disk, so a
    Euclidean circle is fitted to the vertices by linear least squares:
    relative to the vertex mean, |v|^2 = 2 k.v + const is linear in the
    center offset k. The hyperbolic center lies on the ray from the origin
    through the Euclidean center, at the hyperbolic midpoint of the two
    points where that ray meets the circle. If the vertices lie on one
    Euclidean line (det <= 0), the fitted circle leaves the disk or its
    center lies beyond D_MAX, the vertex mean is the center instead.
    Radius and spread are the middle and the range of the vertex distances
    from the center.
    """
    n = poly.n
    mx = sum(v.x for v in poly.vertices) / n
    my = sum(v.y for v in poly.vertices) / n
    us = [v.x - mx for v in poly.vertices]
    vs = [v.y - my for v in poly.vertices]
    ws = [u * u + v * v for u, v in zip(us, vs)]
    suu = sum(u * u for u in us)
    svv = sum(v * v for v in vs)
    suv = sum(u * v for u, v in zip(us, vs))
    suw = sum(u * w for u, w in zip(us, ws))
    svw = sum(v * w for v, w in zip(vs, ws))
    det = suu * svv - suv * suv
    # no hyperbolic circle fits (the vertices lie on a line, or nearer a
    # horocycle or a hypercycle); any center bounds the spread from above
    center = DiskPoint(mx, my)
    if det > 0.0:
        kx = 0.5 * (suw * svv - svw * suv) / det
        ky = 0.5 * (svw * suu - suw * suv) / det
        cx, cy = mx + kx, my + ky
        r = math.sqrt(sum(ws) / n + kx * kx + ky * ky)
        dist = math.hypot(cx, cy)
        if dist + r < 1.0:
            h = math.atanh(dist - r) + math.atanh(dist + r)
            if h <= D_MAX:
                center = point_from_polar(h, math.atan2(cy, cx))
    radii = [_distance(center.z, v.z) for v in poly.vertices]
    return CircumcircleFit(
        center=center,
        radius=0.5 * (max(radii) + min(radii)),
        spread=max(radii) - min(radii),
    )


class RegularPolygonSpec(namedtuple("RegularPolygonSpec", "n circumradius")):
    __slots__ = ()

    def __new__(cls, n: int, circumradius: float) -> "RegularPolygonSpec":
        n = operator.index(n)
        if n < 3:
            raise DomainError("a regular polygon needs n >= 3")
        if not (0.0 < circumradius <= D_MAX / 2):
            raise DomainError(f"circumradius outside (0, {D_MAX / 2}]")
        return tuple.__new__(cls, (n, circumradius))


class RegularPolygonStats(
    namedtuple("RegularPolygonStats", "side interior_angle perimeter area")
):
    __slots__ = ()


def regular_polygon(spec: RegularPolygonSpec) -> RegularPolygonStats:
    """Side, interior angle, perimeter and area of the regular n-gon.

    The apothem cuts the central isosceles triangle (legs R, apex 2 pi / n)
    into two right triangles, so sinh(side / 2) = sinh(R) sin(pi / n) and the
    base angle beta satisfies cot(beta) = cosh(R) tan(pi / n). The polygon
    area is n times the central triangle's area, from the half-angle formula
    tan(area / 2) = u sin(apex) / ((1 - u) + 2 u sin^2(apex / 2)) with
    u = tanh^2(R / 2); scaled by cosh^2(R / 2) it reads
    tan(area / 2) = h sin(apex) / (1 + 2 h sin^2(apex / 2)), h = sinh^2(R / 2).
    No term cancels, so the area keeps its relative accuracy for any n. An
    area below _TINY, subnormal and bits short, is refused, as in _measure.
    """
    n, R = spec.n, spec.circumradius
    sin_half, cos_half = math.sin(math.pi / n), math.cos(math.pi / n)
    h = math.sinh(0.5 * R) ** 2
    side = 2.0 * math.asinh(math.sinh(R) * sin_half)
    area = 2.0 * n * math.atan2(  # n central triangles
        2.0 * h * sin_half * cos_half, 1.0 + 2.0 * h * sin_half * sin_half
    )
    if area < _TINY:
        raise DegenerateInputError("regular polygon too small: its area is subnormal")
    return RegularPolygonStats(
        side=side,
        interior_angle=2.0 * math.atan2(cos_half, math.cosh(R) * sin_half),
        perimeter=n * side,
        area=area,
    )


def regular_polygon_vertices(spec: RegularPolygonSpec) -> HyperbolicPolygon:
    """Explicit embedding of the regular polygon, centered at the origin."""
    pts = [
        point_from_polar(spec.circumradius, 2.0 * math.pi * k / spec.n)
        for k in range(spec.n)
    ]
    return HyperbolicPolygon.from_vertices(pts)


def regular_polygon_for_perimeter(n: int, perimeter: float) -> RegularPolygonSpec:
    """Circumradius of the regular n-gon with the given perimeter.

    Inverts sinh(side / 2) = sinh(R) sin(pi / n) in closed form:
    R = asinh(sinh(perimeter / 2n) / sin(pi / n)).
    """
    n = operator.index(n)
    if n < 3:
        raise DomainError("a regular polygon needs n >= 3")
    if perimeter <= 0.0:
        raise DomainError("perimeter must be positive")
    half_side = perimeter / (2 * n)
    # R >= side / 2, so this refuses every out-of-range case before sinh overflows
    if not half_side <= D_MAX / 2:
        raise DomainError("perimeter outside the representable range")
    R = math.asinh(math.sinh(half_side) / math.sin(math.pi / n))
    return RegularPolygonSpec(n=n, circumradius=R)


def circle_geometry(r: float) -> tuple[float, float]:
    """(circumference, area) of the hyperbolic circle of radius r; the area
    2 pi (cosh r - 1) is taken as 4 pi sinh^2(r/2), which does not cancel.
    An area below _TINY, subnormal and bits short, is refused."""
    if not (0.0 < r <= D_MAX / 2):
        raise DomainError(f"radius outside (0, {D_MAX / 2}]")
    s = math.sinh(0.5 * r)
    area = 4.0 * math.pi * (s * s)
    if area < _TINY:
        raise DegenerateInputError("circle too small: its area is subnormal")
    return 2.0 * math.pi * math.sinh(r), area


def circle_radius_for_circumference(L: float) -> float:
    """Radius of the hyperbolic circle of circumference L, at most D_MAX / 2."""
    if not 0.0 < L < math.inf:
        raise DomainError("circumference must be positive and finite")
    r = math.asinh(L / (2.0 * math.pi))
    if r > D_MAX / 2:
        raise DomainError(f"radius outside (0, {D_MAX / 2}]")
    return r


def isoperimetric_deficit(L: float, A: float) -> float:
    """L^2 - 4 pi A - A^2; nonnegative for admissible figures, zero for circles."""
    if not (0.0 < L < math.inf and 0.0 < A < math.inf):
        raise DomainError("perimeter and area must be positive and finite")
    return L * L - 4.0 * math.pi * A - A * A


def random_convex_polygon(n: int, seed: int) -> HyperbolicPolygon:
    """Seeded random convex polygon: n vertices on an ellipse in the Klein model.

    Klein convexity is Euclidean, and distinct points of an ellipse in
    parameter order are a convex counterclockwise polygon, so no draw is
    refused. The parameter gaps are exponential spacings above pi / (2n).
    The seed is a non-negative integer; every number is drawn through
    ``random()`` of ``random.Random(seed)``, whose stream Python keeps the
    same across versions and platforms, so a seed always gives the same polygon.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    if seed < 0:
        raise DomainError("the seed must be a non-negative integer")
    seed = operator.index(seed)  # Random would hash a float seed
    from random import Random  # loaded only by the commands that draw

    rng = Random(seed)
    rho = math.tanh(rng.uniform(0.5, 1.5))  # Klein radius of a hyperbolic radius
    q = rng.uniform(0.7, 1.0)  # axis ratio
    axis = cmath.rect(rho, rng.uniform(0.0, 2.0 * math.pi))
    floor = 0.5 * math.pi / n
    ws = [-math.log(1.0 - rng.random()) for _ in range(n)]
    scale = (2.0 * math.pi - n * floor) / sum(ws)
    t = rng.uniform(0.0, 2.0 * math.pi)
    vertices = []
    for w in ws:  # one vertex per gap, mapped from Klein to the disk
        k = axis * complex(math.cos(t), q * math.sin(t))
        r = abs(k)
        z = k / (1.0 + math.sqrt((1.0 - r) * (1.0 + r)))
        vertices.append(DiskPoint(z.real, z.imag))
        t += floor + scale * w
    return HyperbolicPolygon.from_vertices(vertices)
