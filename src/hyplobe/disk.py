"""Primitives of the Poincare disk model.

Points are Euclidean coordinates strictly inside the unit disk, geodesics are
diameters or circles orthogonal to the unit circle, and orientation-preserving
isometries are Mobius maps z -> e^{i phi} (z - a) / (1 - conj(a) z).
Curvature is fixed at -1. All values are immutable and all operations pure:
the records are named tuples, compared and hashed by value.

The point primitives wrap helpers on complex numbers, which the polygon path
calls directly; they make DiskPoint's checks on every point they form. There
a direction is a chart image, which _direction returns and _step walks to, so
no angle rounds. Angles and directions are read off _chart's images
unchecked, so they are defined for any two distinct points, however far apart.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .errors import DegenerateInputError, DomainError

# The documented range of lengths: sides, radii and distances from the centre.
D_MAX = 20.0

_COLLINEAR_TOL = 1e-12
_COINCIDENT_TOL = 1e-12  # relative: coincident if one length is at most this times another
_TINY = sys.float_info.min  # the one floor: below the smallest normal float, bits are lost


class DiskPoint(namedtuple("DiskPoint", "x y")):
    """A point of the hyperbolic plane in disk coordinates, |p| < 1."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "DiskPoint":
        _check_inside(x, y)
        return tuple.__new__(cls, (x, y))

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _check_inside(x: float, y: float) -> None:
    if not x * x + y * y < 1.0:  # DiskPoint's checks; infinite or NaN coordinates land here
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError("disk point coordinates must be finite")
        raise DomainError(f"point ({x}, {y}) is not strictly inside the unit disk")


ORIGIN = DiskPoint(0.0, 0.0)


class EuclideanCircle(namedtuple("EuclideanCircle", "cx cy radius")):
    """A circle in the Euclidean plane of the model (center may leave the disk)."""

    __slots__ = ()

    def __new__(cls, cx: float, cy: float, radius: float) -> "EuclideanCircle":
        if not (math.isfinite(radius) and radius > 0.0):
            raise DomainError("circle radius must be positive and finite")
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise DomainError("circle center must be finite")
        return tuple.__new__(cls, (cx, cy, radius))


Geodesic = namedtuple("Geodesic", "direction circle")
Geodesic.__doc__ = """A hyperbolic line: a diameter, or an arc of a circle orthogonal
to the boundary.

``direction`` is the unit complex direction of a diameter and ``circle``
the EuclideanCircle of an arc; the other one is None. A circle with center
c and radius r meets the boundary at its ideal endpoints c (1 +- i r) / |c|^2.
"""


class DiskIsometry(namedtuple("DiskIsometry", "target phi")):
    """Orientation-preserving disk automorphism: z -> e^{i phi} (z - a)/(1 - conj(a) z).

    ``target`` is the DiskPoint a carried to the origin and ``phi`` the rotation
    applied afterwards, a finite angle; the constructor raises DomainError on others.
    """

    __slots__ = ()

    def __new__(cls, target: DiskPoint, phi: float = 0.0) -> "DiskIsometry":
        if not isinstance(target, DiskPoint):
            raise DomainError(f"isometry target {target!r} is not a DiskPoint")
        if not math.isfinite(phi):
            raise DomainError(f"rotation angle {phi} is not finite")
        return tuple.__new__(cls, (target, phi))

    def __call__(self, p: DiskPoint) -> DiskPoint:
        if not isinstance(p, DiskPoint):
            raise DomainError(f"isometry argument {p!r} is not a DiskPoint")
        w = _carry(self.target.z, p.z)
        if self.phi != 0.0:
            w *= cmath.exp(1j * self.phi)
        return DiskPoint(w.real, w.imag)

    def inverse(self) -> "DiskIsometry":
        a = self.target.z
        b = -a * cmath.exp(1j * self.phi)
        return DiskIsometry(DiskPoint(b.real, b.imag), -self.phi)


def _split(x: float) -> tuple[float, float]:
    """x as hi + lo, each of 26 bits or fewer, so that a product of two parts is
    exact (Veltkamp's split; Dekker, Numer. Math. 18, 1971)."""
    cx = 134217729.0 * x  # 2^27 + 1
    hi = cx - (cx - x)
    return hi, x - hi


def _g(z: complex) -> float:
    """1 - |z|^2, correctly rounded however close to 1 |z| is."""
    (xh, xl), (yh, yl) = _split(z.real), _split(z.imag)
    return math.fsum((1.0, -xh * xh, -2.0 * xh * xl, -xl * xl,
                      -yh * yh, -2.0 * yh * yl, -yl * yl))


def _den(a: complex, z: complex) -> complex:
    """1 - conj(a) z, each part correctly rounded, so nothing cancels."""
    (ah, al), (bh, bl) = _split(a.real), _split(a.imag)
    (xh, xl), (yh, yl) = _split(z.real), _split(z.imag)
    return complex(math.fsum((1.0, -ah * xh, -ah * xl, -al * xh, -al * xl,
                              -bh * yh, -bh * yl, -bl * yh, -bl * yl)),
                   math.fsum((0.0, bh * xh, bh * xl, bl * xh, bl * xl,
                              -ah * yh, -ah * yl, -al * yh, -al * yl)))


def _chart(a: complex, z: complex) -> complex:
    """z in the chart of a, (z - a) / (1 - conj(a) z), which translates a to
    the center; accurate relative to its modulus, as directions need.
    Unchecked: about 37 apart the modulus rounds to 1, but not the direction."""
    return (z - a) / _den(a, z)


def _carry(a: complex, z: complex) -> complex:
    """_chart(a, z) as a point, g_a / (1 - conj(a) z) z - a: near -a, where steps
    end, as accurate as its rounding, not a few ulps off as _chart's quotient."""
    return _g(a) / _den(a, z) * z - a


def point_from_polar(d: float, theta: float) -> DiskPoint:
    """Point at hyperbolic distance d from the origin in direction theta."""
    if not (0.0 <= d <= D_MAX):
        raise DomainError(f"hyperbolic distance {d} outside [0, {D_MAX}]")
    if not math.isfinite(theta):
        raise DomainError(f"direction angle {theta} is not finite")
    r = math.tanh(0.5 * d)
    return DiskPoint(r * math.cos(theta), r * math.sin(theta))


def _distance(p: complex, q: complex, gp: float, gq: float) -> float:
    return 2.0 * math.asinh(abs(p - q) / math.sqrt(gp * gq))


def hyp_distance(p: DiskPoint, q: DiskPoint) -> float:
    """Hyperbolic distance 2 asinh(|p - q| / sqrt((1 - |p|^2)(1 - |q|^2))), each
    factor correctly rounded: within 4e-16 relative of 80-digit mpmath on the
    same doubles out to D_MAX from the centre; any two points get their length."""
    _check_ends("distance ends", p, q)
    p, q = p.z, q.z
    return _distance(p, q, _g(p), _g(q))


def _check_ends(role: str, p: DiskPoint, q: DiskPoint) -> None:
    """The two-point functions' check: both ends, named by role, are DiskPoints."""
    if not (isinstance(p, DiskPoint) and isinstance(q, DiskPoint)):
        raise DomainError(f"{role} {p!r} and {q!r} are not both DiskPoints")


def _orthogonal_circle(p: DiskPoint, q: DiskPoint) -> EuclideanCircle | None:
    """The circle through p and q orthogonal to the unit circle, or None when
    |sin pOq| <= 1e-12, read from unit factors so that it cannot underflow (the
    origin lies on every diameter). Solved from the end nearer the center and
    d = q - p, so no numerator cancels: within 8.9 times the circle's one-ulp
    conditioning of 80-digit mpmath, near the center and far out alike."""
    _check_ends("geodesic endpoints", p, q)
    p, q = sorted((p.z, q.z), key=abs)  # base at the nearer end, whose bits d would round away
    d = q - p
    if abs(d) <= _COINCIDENT_TOL * abs(q):
        raise DegenerateInputError("cannot build a geodesic through coincident points")
    if p == 0 or abs(((p / abs(p)).conjugate() * (d / abs(q))).imag) <= _COLLINEAR_TOL:
        return None
    cross = p.real * d.imag - p.imag * d.real  # Im(conj(p) q), with nothing left to cancel
    if abs(cross) < _TINY:  # the center, |d| / (2 cross) or so, loses bits
        raise DomainError("points too near the center: the circle's products underflow")
    # Orthogonality to the unit circle means the power of the origin is 1, which
    # linearizes to c.p = (1 + |p|^2) / 2 and, less that, c.d = d.(q + p) / 2.
    rp = 0.5 * (1.0 + p.real * p.real + p.imag * p.imag)
    delta = 0.5 * (d.conjugate() * (q + p)).real
    c = 1j * (delta * p - rp * d) / cross
    return EuclideanCircle(c.real, c.imag, abs(c - p))


def geodesic_through(p: DiskPoint, q: DiskPoint) -> Geodesic:
    """The hyperbolic line through two distinct points.

    Returns the diameter when |sin pOq| <= 1e-12, otherwise the unique
    Euclidean circle through p and q orthogonal to the unit circle, within
    8.9 times its conditioning (its largest relative change as one input
    coordinate moves an ulp) and with _orthogonal_circle's refusals. The one
    refusal of its own is a diameter whose direction q - p is subnormal or zero.
    """
    circle = _orthogonal_circle(p, q)
    if circle is not None:
        return Geodesic(None, circle)
    direction = q.z - p.z
    mod = abs(direction)  # finite: both points lie inside the disk
    if mod < _TINY:
        raise DegenerateInputError("diameter direction must be a nonzero vector")
    return Geodesic(direction / mod, None)


def _turn(v: complex, p: complex, q: complex) -> float:
    """Signed angle at v from the geodesic vq counterclockwise to vp, in [-pi, pi].
    Refused as coincident, at any scale, when the nearer chart image is at most
    _COINCIDENT_TOL times the farther, or when their moduli's product is below
    _TINY, where u conj(w) is subnormal: sides of about 3e-154 are the shortest."""
    u, w = _chart(v, p), _chart(v, q)
    a, b = abs(u), abs(w)
    if min(a, b) <= _COINCIDENT_TOL * max(a, b) or a * b < _TINY:
        raise DegenerateInputError("angle undefined: vertex coincides with an endpoint")
    return cmath.phase(u * w.conjugate())


def angle_at_vertex(v: DiskPoint, p: DiskPoint, q: DiskPoint) -> float:
    """Unsigned hyperbolic angle at v between the geodesics vp and vq, in [0, pi].

    The model is conformal, so after translating v to the center both
    geodesics become straight rays; the angle is read off however far p and q lie.
    """
    if not all(isinstance(point, DiskPoint) for point in (v, p, q)):
        raise DomainError(f"angle vertex {v!r} and ends {p!r}, {q!r} are not all DiskPoints")
    return abs(_turn(v.z, p.z, q.z))


def _direction(p: complex, q: complex) -> complex:
    w = _chart(p, q)
    if abs(w) < _TINY:  # a normal image gives its direction to an ulp (see _chart)
        raise DegenerateInputError("direction undefined for coincident points")
    return w


def direction_toward(p: DiskPoint, q: DiskPoint) -> float:
    """Initial direction (radians) of the geodesic from p to any other point q.

    Directions at p are measured in the chart DiskIsometry(p), which translates
    p to the origin; DiskIsometry(p).inverse() carries a chart image, such as
    point_from_polar(d, theta), back, so the two compose consistently.
    """
    _check_ends("direction ends", p, q)
    return cmath.phase(_direction(p.z, q.z))


def _step(a: complex, w: complex) -> complex:
    """The point whose image in the chart of a is w, checked inside the disk."""
    # undo a's chart by -a's, with the signed zeros of DiskIsometry.inverse's e^{i 0}
    z = _carry(-a * (1 + 0j), w)
    _check_inside(z.real, z.imag)
    return z

