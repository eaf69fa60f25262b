"""Tests for the disk-model primitives."""

import cmath
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplobe import (
    ORIGIN,
    DegenerateInputError,
    DiskIsometry,
    DiskPoint,
    DomainError,
    angle_at_vertex,
    geodesic_through,
    hyp_distance,
    point_from_polar,
)
from hyplobe import disk
from hyplobe.disk import direction_toward

LN3 = 1.0986122886681098
# tanh(1), frozen from a 50-digit mpmath evaluation
TANH_1 = 0.7615941559557649


def random_point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.uniform())
    t = rng.uniform(0.0, 2.0 * math.pi)
    return DiskPoint(r * math.cos(t), r * math.sin(t))


def random_isometry(rng, rmax=0.9):
    return DiskIsometry(random_point(rng, rmax), rng.uniform(0.0, 2.0 * math.pi))


def _far_pair(rng):
    """Ends 10-20 out along one direction, 1e-9 to 1e-1 rad apart."""
    t = rng.uniform(0.0, math.tau)
    return (point_from_polar(rng.uniform(10.0, 20.0), t),
            point_from_polar(rng.uniform(10.0, 20.0), t + 10.0 ** rng.uniform(-9.0, -1.0)))


def _near_pair(rng):
    """Ends 1e-3 to 3 out, in any directions."""
    return tuple(point_from_polar(rng.uniform(1e-3, 3.0), rng.uniform(0.0, math.tau))
                 for _ in range(2))


def _mixed_pair(rng):
    """Ends log-uniform 1e-6 to 20 out; half the pairs 1e-9 to 1 rad apart,
    the others in any directions."""
    d1, d2 = (math.exp(rng.uniform(math.log(1e-6), math.log(20.0))) for _ in range(2))
    t = rng.uniform(0.0, math.tau)
    u = t + 10.0 ** rng.uniform(-9.0, 0.0) if rng.random() < 0.5 else rng.uniform(0.0, math.tau)
    return point_from_polar(d1, t), point_from_polar(d2, u)


def _exact_circle(mp, x):
    """Centre and radius of the circle orthogonal to the unit circle through
    (x[0], x[1]) and (x[2], x[3]), by Cramer's rule at mp's precision."""
    px, py, qx, qy = (mp.mpf(v) for v in x)
    rp, rq = (1 + px * px + py * py) / 2, (1 + qx * qx + qy * qy) / 2
    c = mp.mpc(rp * qy - rq * py, px * rq - qx * rp) / (px * qy - py * qx)
    return c, abs(c - mp.mpc(px, py))


def _error_over_conditioning(mp, p, q, circle):
    """The circle's worst relative error in centre and radius against the exact
    circle through the same doubles, over the largest such change of the exact
    circle as one of the four coordinates moves an ulp."""
    x = (*p, *q)
    with mp.workdps(80):
        c, r = _exact_circle(mp, x)

        def change(c2, r2):
            return max(abs(c2 - c) / abs(c), abs(r2 - r) / r)

        conditioning = max(
            change(*_exact_circle(mp, x[:i] + (math.nextafter(x[i], to),) + x[i + 1:]))
            for i in range(4) for to in (-math.inf, math.inf)
        )
        return float(change(mp.mpc(circle.cx, circle.cy), mp.mpf(circle.radius)) / conditioning)


disk_points = st.builds(
    lambda r, t: DiskPoint(
        0.95 * math.sqrt(r) * math.cos(t), 0.95 * math.sqrt(r) * math.sin(t)
    ),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)


class TestDiskPoint:
    def test_rejects_boundary_and_outside(self):
        with pytest.raises(DomainError):
            DiskPoint(1.0, 0.0)
        with pytest.raises(DomainError):
            DiskPoint(0.8, 0.7)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            DiskPoint(math.nan, 0.0)
        with pytest.raises(DomainError):
            DiskPoint(math.inf, 0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda p, q: hyp_distance(p, q), "distance ends {p} and {q} are not both DiskPoints"),
        (lambda p, q: angle_at_vertex(ORIGIN, p, q),
         "angle vertex DiskPoint(x=0.0, y=0.0) and ends {p}, {q} are not all DiskPoints"),
        (lambda p, q: direction_toward(p, q), "direction ends {p} and {q} are not both DiskPoints"),
        (lambda p, q: DiskIsometry(DiskPoint(0.1, 0.2))(q), "isometry argument {q} is not a DiskPoint"),
    ], ids=["hyp_distance", "angle_at_vertex", "direction_toward", "DiskIsometry"])
    def test_functions_of_points_refuse_other_values(self, call, message):
        # a tuple is not checked inside the disk and has no complex form
        p, q = (0.1, 0.2), (0.3, 0.1)
        with pytest.raises(DomainError) as exc:
            call(p, q)
        assert str(exc.value) == message.format(p=p, q=q)


class TestPointFromPolar:
    def test_zero_distance_is_origin(self):
        p = point_from_polar(0.0, 1.234)
        assert p == ORIGIN

    def test_ln3_lands_at_half(self):
        p = point_from_polar(LN3, 0.0)
        assert p.x == pytest.approx(0.5, abs=1e-15)
        assert p.y == 0.0

    def test_unit_distance_up(self):
        p = point_from_polar(2.0, math.pi / 2)
        assert p.x == pytest.approx(0.0, abs=1e-16)
        assert p.y == pytest.approx(TANH_1, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            point_from_polar(-0.1, 0.0)
        with pytest.raises(DomainError):
            point_from_polar(20.5, 0.0)

    def test_refuses_a_non_finite_angle(self):
        # unchecked, cos(inf) raises libm's bare ValueError and a NaN angle
        # is refused for the point's coordinates, not for itself
        for theta in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="direction angle"):
                point_from_polar(1.0, theta)

    def test_round_trip_moderate_range(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            d = rng.uniform(0.0, 9.0)
            p = point_from_polar(d, rng.uniform(0.0, 2 * math.pi))
            assert hyp_distance(ORIGIN, p) == pytest.approx(d, abs=1e-12)

    def test_round_trip_relative_up_to_dmax(self):
        # past d ~ 10 the representation 1 - tanh(d/2) loses absolute
        # precision; round trips stay good in relative terms
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = rng.uniform(9.0, 20.0)
            p = point_from_polar(d, rng.uniform(0.0, 2 * math.pi))
            assert hyp_distance(ORIGIN, p) == pytest.approx(d, rel=1e-7)


class TestHypDistance:
    def test_identity(self):
        p = DiskPoint(0.3, -0.2)
        assert hyp_distance(p, p) == 0.0

    def test_half_radius_is_ln3(self):
        assert hyp_distance(ORIGIN, DiskPoint(0.5, 0.0)) == pytest.approx(LN3, abs=1e-15)

    @given(disk_points, disk_points)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_nonnegativity(self, p, q):
        d = hyp_distance(p, q)
        assert d >= 0.0
        assert d == hyp_distance(q, p)

    @given(disk_points, disk_points, disk_points)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        assert hyp_distance(p, r) <= hyp_distance(p, q) + hyp_distance(q, r) + 1e-12

    def test_accurate_at_any_distance_from_the_centre(self):
        # 300 pairs per band of distance of both ends from the centre, against
        # an 80-digit distance between the same doubles: no term cancels
        # (2.9e-16 measured)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(32)
        for lo, hi in ((0.0, 3.0), (3.0, 8.0), (8.0, 12.0), (12.0, 16.0), (16.0, 20.0)):
            worst = 0.0
            for _ in range(300):
                p, q = (point_from_polar(rng.uniform(lo, hi), rng.uniform(0.0, 7.0))
                        for _ in range(2))
                with mpmath.workdps(80):
                    px, py, qx, qy = (mpmath.mpf(x) for x in (*p, *q))
                    ref = 2 * mpmath.asinh(mpmath.sqrt(
                        ((px - qx) ** 2 + (py - qy) ** 2)
                        / ((1 - px * px - py * py) * (1 - qx * qx - qy * qy))
                    ))
                    worst = max(worst, float(abs(hyp_distance(p, q) - ref) / ref))
            assert worst <= 4e-16, (lo, hi, worst)


class TestGeodesicThrough:
    def test_through_origin_gives_a_diameter(self):
        g = geodesic_through(ORIGIN, DiskPoint(0.5, 0.0))
        assert g.circle is None
        assert g.direction.real == pytest.approx(1.0)
        assert g.direction.imag == pytest.approx(0.0)

    def test_collinear_with_origin_gives_a_diameter(self):
        g = geodesic_through(DiskPoint(0.3, 0.0), DiskPoint(0.7, 0.0))
        assert g.circle is None

    def test_known_arc(self):
        # solving (c - p)^2 = r^2, |c|^2 = 1 + r^2 by hand gives c = (1.25, 1.25)
        g = geodesic_through(DiskPoint(0.5, 0.0), DiskPoint(0.0, 0.5))
        assert g.circle is not None
        assert g.circle.cx == pytest.approx(1.25, abs=1e-14)
        assert g.circle.cy == pytest.approx(1.25, abs=1e-14)
        assert g.circle.radius == pytest.approx(math.sqrt(2.125), abs=1e-14)

    def test_coincident_points_rejected(self):
        p = DiskPoint(0.1, 0.2)
        with pytest.raises(DegenerateInputError):
            geodesic_through(p, DiskPoint(0.1, 0.2))

    def test_subnormal_diameter_direction_refused(self):
        # p, q and the center are collinear, so the line is a diameter whose
        # direction q - p is subnormal; the oracle's omega_circle, which has no
        # diameter to return, refuses the pair as collinear first
        # (tests/test_oracle.py), so the two stay apart
        p, q = DiskPoint(0.0, 1.49252020513e-312), DiskPoint(0.0, 7.3588586708e-313)
        with pytest.raises(DegenerateInputError) as exc:
            geodesic_through(p, q)
        assert str(exc.value) == "diameter direction must be a nonzero vector"

    @pytest.mark.parametrize("p, q", [
        ((2.0, 0.5), (0.3, 0.1)),
        ((0.2, 0.0), (0.6, 0.0)),
        (DiskPoint(0.2, 0.0), (0.6, 0.0)),
        (DiskPoint(0.1, 0.2), 0.5 + 0.5j),
    ])
    def test_endpoints_that_are_not_disk_points_refused(self, p, q):
        # a tuple is not checked inside the disk, and (2.0, 0.5) lies outside it
        with pytest.raises(DomainError) as exc:
            geodesic_through(p, q)
        assert str(exc.value) == f"geodesic endpoints {p!r} and {q!r} are not both DiskPoints"

    @pytest.mark.parametrize("s, builds", [
        (1e-150, True), (1e-160, False), (1e-170, False), (1e-200, False),
    ])
    def test_collinearity_is_read_at_any_scale(self, s, builds):
        # (s, 0) and (0, s) lie a right angle apart at the center however
        # small s is: they get their circle or, where s * s underflows, the
        # underflow refusal, never a diameter; (s, 0) and (2 s, 0) are collinear
        if builds:
            assert geodesic_through(DiskPoint(s, 0.0), DiskPoint(0.0, s)).direction is None
        else:
            with pytest.raises(DomainError) as exc:
                geodesic_through(DiskPoint(s, 0.0), DiskPoint(0.0, s))
            assert str(exc.value) == "points too near the center: the circle's products underflow"
        assert geodesic_through(DiskPoint(s, 0.0), DiskPoint(2.0 * s, 0.0)) == (1.0, None)

    @pytest.mark.parametrize("sampler, seed", [(_far_pair, 3), (_near_pair, 4), (_mixed_pair, 5)])
    def test_circle_holds_to_its_inputs_conditioning(self, sampler, seed):
        # 1,000 pairs against 80-digit mpmath of the circle through the same
        # doubles, none refused: at most 6.4, 8.9 and 4.3 times the circle's
        # own one-ulp conditioning (far, near, mixed). Cramer's rule on p and q
        # read 4.7e8 on the far pairs and refused 277 of 3,000 as collapsed
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(seed)
        worst = max(
            _error_over_conditioning(mpmath, p, q, geodesic_through(p, q).circle)
            for p, q in (sampler(rng) for _ in range(1000))
        )
        assert worst <= 16.0, worst

    @pytest.mark.parametrize("d, apart", [(20.0, 1e-8), (20.0, 1e-9), (18.0, 1e-7)])
    def test_tiny_far_circles_are_built(self, d, apart):
        # Cramer's rule on p and q gave (20, 1e-9) a radius of 6.5e-8, not
        # 4.15e-9, and refused (18, 1e-7) as collapsed
        mpmath = pytest.importorskip("mpmath")
        p, q = point_from_polar(d, 0.3), point_from_polar(d, 0.3 + apart)
        assert _error_over_conditioning(mpmath, p, q, geodesic_through(p, q).circle) <= 16.0

    def test_orthogonality_invariant(self):
        # the relative residual measured 2.2 eps (2.5 with Cramer's rule on p and q)
        eps = sys.float_info.epsilon
        rng = np.random.default_rng(11)
        for _ in range(300):
            g = geodesic_through(random_point(rng), random_point(rng))
            if g.circle is not None:
                cx, cy, r = g.circle
                assert abs(cx * cx + cy * cy - 1.0 - r * r) < 1e-10
                assert abs(cx * cx + cy * cy - 1.0 - r * r) <= 3.0 * eps * (cx * cx + cy * cy)


class TestIsometries:
    def test_origin_gives_identity(self):
        m = DiskIsometry(ORIGIN)
        p = DiskPoint(0.3, 0.4)
        assert m(p) == p

    def test_maps_target_to_origin(self):
        p = DiskPoint(0.4, 0.0)
        q = DiskIsometry(p)(p)
        assert abs(q.z) < 1e-14

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_isometry(rng)
            p = random_point(rng)
            back = m.inverse()(m(p))
            assert abs(back.z - p.z) < 1e-13

    def test_distance_preservation(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = random_isometry(rng)
            p, q = random_point(rng), random_point(rng)
            assert abs(
                hyp_distance(p, q) - hyp_distance(m(p), m(q))
            ) < 1e-12


class TestAngleAtVertex:
    def test_at_origin_matches_euclidean(self):
        p = DiskPoint(0.5, 0.0)
        q = DiskPoint(0.3, 0.3)
        assert angle_at_vertex(ORIGIN, p, q) == pytest.approx(math.pi / 4, abs=1e-14)

    def test_straight_angle_on_diameter(self):
        v = DiskPoint(0.1, 0.0)
        assert angle_at_vertex(v, DiskPoint(-0.4, 0.0), DiskPoint(0.6, 0.0)) == pytest.approx(
            math.pi, abs=1e-14
        )

    def test_degenerate_rejected(self):
        v = DiskPoint(0.1, 0.1)
        with pytest.raises(DegenerateInputError):
            angle_at_vertex(v, v, DiskPoint(0.3, 0.0))

    def test_accurate_at_any_distance_from_the_centre(self):
        # at a vertex 0-19 from the centre, between two points 1 away: within
        # two ulps of pi of a 60-digit angle on the same doubles (3.8e-16
        # measured)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(35)
        for lo, hi in ((0.0, 3.0), (3.0, 8.0), (8.0, 12.0), (12.0, 16.0), (16.0, 19.0)):
            for _ in range(300):
                v = point_from_polar(rng.uniform(lo, hi), rng.uniform(0.0, 7.0))
                p, q = (DiskIsometry(v).inverse()(point_from_polar(1.0, rng.uniform(-3.0, 3.0)))
                        for _ in range(2))
                with mpmath.workdps(60):
                    a, u, w = (mpmath.mpc(*x) for x in (v, p, q))
                    u, w = ((x - a) / (1 - mpmath.conj(a) * x) for x in (u, w))
                    ref = abs(mpmath.arg(u * mpmath.conj(w)))
                    assert abs(angle_at_vertex(v, p, q) - ref) <= 2 * 4.45e-16, (lo, hi)

    def test_conformal_invariance_under_isometry(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v, p, q = (random_point(rng) for _ in range(3))
            if abs(v.z - p.z) < 1e-6 or abs(v.z - q.z) < 1e-6:
                continue
            m = random_isometry(rng)
            assert abs(
                angle_at_vertex(v, p, q) - angle_at_vertex(m(v), m(p), m(q))
            ) < 1e-9


def _bits(compute):
    """compute() with every float as its hex form, which tells -0.0 from 0.0,
    or "!" and the class and message of the error it raised."""
    try:
        value = compute()
    except DomainError as exc:
        return f"!{type(exc).__name__}: {exc}"
    if isinstance(value, complex):
        value = (value.real, value.imag)
    if isinstance(value, tuple):
        return tuple(v.hex() for v in value)
    return value.hex()


class TestComplexHelpers:
    """The point primitives wrap the complex helpers the polygon path calls.

    On seeded points up to |z| = 1 - 1e-9 and near-coincident pairs, each
    primitive equals its helper bit for bit and refuses the same inputs with
    the same error, and both equal a reference written here: a copy of the
    distance and chart formulas (see _g and _chart below), read unchecked
    for angles and directions, since a direction needs no image inside the
    disk, or the DiskIsometry composition a step was first written as.
    """

    OUTSIDE = "!DomainError: point (#, #) is not strictly inside the unit disk"

    @pytest.fixture(scope="class")
    def triples(self):
        rng = np.random.default_rng(2024)

        def point():
            r = 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)  # |z| from 0 to 1 - 1e-9
            t = rng.uniform(-math.pi, math.pi)
            return DiskPoint(r * math.cos(t), r * math.sin(t))

        def near(p):
            z = p.z + 10.0 ** rng.uniform(-16.0, -8.0) * cmath.exp(1j * rng.uniform(0.0, 7.0))
            return DiskPoint(z.real, z.imag) if abs(z) < 1.0 else p

        out = []
        for k in range(2000):
            v, p = point(), point()
            if k % 4 == 0:
                p = near(v)
            out.append((v, p, near(p) if k % 4 == 1 else point()))
        # signed zeros, which the chart maps must carry as the isometries do
        out += [(ORIGIN, DiskPoint(0.0, 0.5), DiskPoint(-0.0, -0.5)),
                (DiskPoint(-0.0, 0.5), DiskPoint(0.0, -0.25), ORIGIN)]
        # exact repeats, which angles and directions must refuse at any scale
        out += [(v, v, q) for v, _, q in out[:12]]
        return out

    @pytest.fixture(scope="class")
    def tiny_triples(self):
        # points near the origin whose chart images' products (odd k) or
        # the images themselves (even k) straddle the smallest normal float
        rng = np.random.default_rng(2025)
        out = []
        for k in range(24):
            r = 10.0 ** (rng.uniform(-160.0, -145.0) if k % 2 else rng.uniform(-318.0, -300.0))
            r *= 10.0 ** rng.uniform(-1.0, 0.0, 3)
            t = rng.uniform(-math.pi, math.pi, 3)
            out.append(tuple(DiskPoint(r[j] * math.cos(t[j]), r[j] * math.sin(t[j]))
                             for j in range(3)))
        return out

    @staticmethod
    def _refusals(results):
        """How often each refusal occurs, with the numbers in its message as #."""
        kinds = [re.sub(r"-?\d[\d.e+-]*", "#", r) for r in results if r[0] == "!"]
        return {k: kinds.count(k) for k in kinds}

    @staticmethod
    def _dot(c, *pairs):
        """c + sum of x y, from the exact parts hi hi', hi lo', lo hi', lo lo'
        of each product, hi the top 26 bits of a factor and lo the rest."""
        parts = [c]
        for x, y in pairs:
            xh = 134217729.0 * x - (134217729.0 * x - x)
            yh = 134217729.0 * y - (134217729.0 * y - y)
            parts += (xh * yh, xh * (y - yh), (x - xh) * yh, (x - xh) * (y - yh))
        return math.fsum(parts)

    def _g(self, z):
        return self._dot(1.0, (z.real, -z.real), (z.imag, -z.imag))

    def test_g(self):
        # correctly rounded, so within half an ulp of the 60-digit value: on
        # 20,000 seeded points up to 21 from the centre, the last double
        # below 1 on both axes and the diagonal, and signed zeros
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(33)
        last = 1.0 - 2.0**-53
        diagonal = last / math.sqrt(2.0)
        zs = [complex(last, 0.0), complex(-0.0, -last), complex(diagonal, diagonal),
              complex(0.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 0.5)]
        for _ in range(20000):
            zs.append(cmath.rect(math.tanh(0.5 * rng.uniform(0.0, 21.0)), rng.uniform(0.0, 7.0)))
        for z in zs:
            assert disk._g(z) == self._g(z)
            with mpmath.workdps(60):
                ref = 1 - mpmath.mpf(z.real) ** 2 - mpmath.mpf(z.imag) ** 2
                assert abs(disk._g(z) - ref) <= 2.0**-53 * ref, z

    def test_den(self):
        # each part correctly rounded, so within half an ulp of the 60-digit
        # 1 - conj(a) z: on 10,000 seeded pairs up to 21 from the centre,
        # every fourth a near repeat, where the real part cancels most
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(34)

        def point():
            return cmath.rect(math.tanh(0.5 * rng.uniform(0.0, 21.0)), rng.uniform(0.0, 7.0))

        for k in range(10000):
            a = point()
            z = a + 10.0 ** rng.uniform(-16.0, -8.0) * cmath.exp(1j * rng.uniform(0.0, 7.0))
            if k % 4 or not abs(z) < 1.0:
                z = point()
            den = disk._den(a, z)
            with mpmath.workdps(60):
                exact = 1 - mpmath.mpc(a.real, -a.imag) * mpmath.mpc(z.real, z.imag)
                for part, ref in ((den.real, exact.real), (den.imag, exact.imag)):
                    assert abs(part - ref) <= 0.5 * math.ulp(part), (a, z)

    def test_distance(self, triples):
        # within 4.5e-16 relative of a 60-digit distance between the same
        # doubles (3.9e-16 measured)
        mpmath = pytest.importorskip("mpmath")

        def ref(p, q):
            return 2.0 * math.asinh(abs(p.z - q.z) / math.sqrt(self._g(p.z) * self._g(q.z)))

        for v, p, _ in triples:
            want = _bits(lambda: ref(v, p))
            assert _bits(lambda: hyp_distance(v, p)) == want
            assert _bits(lambda: disk._distance(v.z, p.z, disk._g(v.z), disk._g(p.z))) == want
            with mpmath.workdps(60):
                vx, vy, px, py = (mpmath.mpf(x) for x in (*v, *p))
                exact = 2 * mpmath.asinh(mpmath.sqrt(
                    ((vx - px) ** 2 + (vy - py) ** 2)
                    / ((1 - vx * vx - vy * vy) * (1 - px * px - py * py))
                ))
                assert abs(hyp_distance(v, p) - exact) <= 4.5e-16 * exact, (v, p)

    def _chart(self, v, p):
        """p in the chart of v, unchecked: (p - v) / (1 - conj(v) p), each part
        of the denominator summed exactly from its products, then rounded."""
        a, z = v.z, p.z
        den = complex(self._dot(1.0, (a.real, -z.real), (a.imag, -z.imag)),
                      self._dot(0.0, (a.imag, z.real), (a.real, -z.imag)))
        return (z - a) / den

    def _outside(self, v, *points):
        """Whether DiskIsometry(v) refuses a point's image as outside the disk."""
        m = DiskIsometry(v)
        return self.OUTSIDE in self._refusals([_bits(lambda: tuple(m(p).x for p in points))])

    def test_angle(self, triples, tiny_triples):
        # coincidence is relative: the nearer image at most 1e-12 times the
        # farther one's modulus; and a product of the moduli below the
        # smallest normal float is refused too
        def ref(v, p, q):
            u, w = self._chart(v, p), self._chart(v, q)
            a, b = abs(u), abs(w)
            if min(a, b) <= 1e-12 * max(a, b) or a * b < sys.float_info.min:
                raise DegenerateInputError("angle undefined: vertex coincides with an endpoint")
            return abs(cmath.phase(u * w.conjugate()))

        wants, far = [], 0
        for v, p, q in [*triples, *tiny_triples]:
            wants.append(_bits(lambda: ref(v, p, q)))
            assert _bits(lambda: angle_at_vertex(v, p, q)) == wants[-1]
            assert _bits(lambda: abs(disk._turn(v.z, p.z, q.z))) == wants[-1]
            if self._outside(v, p, q) and wants[-1][0] != "!":
                far += 1
                assert math.isfinite(angle_at_vertex(v, p, q))
        refusals = self._refusals(wants)
        coincident = "!DegenerateInputError: angle undefined: vertex coincides with an endpoint"
        assert refusals[coincident] >= 10
        assert set(refusals) == {coincident}
        assert far >= 10
        tiny = [w[0] == "!" for w in wants[len(triples):]]
        assert 0 < sum(tiny) < len(tiny)

    def test_direction(self, triples, tiny_triples):
        # only an exact repeat, or an image too small to be a normal
        # float, has no direction
        def ref(p, q):
            w = self._chart(p, q)
            if abs(w) < sys.float_info.min:
                raise DegenerateInputError("direction undefined for coincident points")
            return cmath.phase(w)

        wants, far = [], 0
        for p, q, _ in [*triples, *tiny_triples]:
            wants.append(_bits(lambda: ref(p, q)))
            assert _bits(lambda: direction_toward(p, q)) == wants[-1]
            assert _bits(lambda: cmath.phase(disk._direction(p.z, q.z))) == wants[-1]
            if self._outside(p, q):
                far += 1
                assert math.isfinite(direction_toward(p, q))
        refusals = self._refusals(wants)
        coincident = "!DegenerateInputError: direction undefined for coincident points"
        assert refusals[coincident] >= 10
        assert set(refusals) == {coincident}
        assert far >= 10
        tiny = [w[0] == "!" for w in wants[len(triples):]]
        assert 0 < sum(tiny) < len(tiny)

    def test_step(self, triples):
        rng = np.random.default_rng(7)
        cases = []
        for k, (p, _, _) in enumerate(triples):
            # outward from p, half the time, so that many steps reach the boundary
            theta = rng.uniform(-4.0, 4.0) if k % 2 else cmath.phase(p.z) + rng.uniform(-1, 1)
            d = (-0.1, 20.5, 0.0)[k % 3] if k % 50 == 0 else rng.uniform(0.0, 20.0)
            cases.append((p, theta, d))
        # the inverse chart can turn -0.0 into 0.0 here
        cases += [(DiskPoint(-0.0, 0.0), -0.0, 0.7), (DiskPoint(-0.0, 0.0), -0.0, 0.0)]
        wants = []
        for p, theta, d in cases:
            back = DiskIsometry(p).inverse()
            wants.append(_bits(lambda: back(point_from_polar(d, theta))))
            assert _bits(lambda: disk._step(p.z, point_from_polar(d, theta).z)) == wants[-1]
        refusals = self._refusals(wants)
        assert refusals["!DomainError: hyperbolic distance # outside [#, #]"] >= 10
        assert refusals[self.OUTSIDE] >= 10

    def test_far_steps_end_at_the_rounded_point(self):
        # a walk of 12-16 from 17-20 out, as the Steiner move takes on far
        # polygons, ends near its start: _carry, which _step calls,
        # returns the image of the same doubles rounded from 50 digits (300
        # of 300 measured; _chart's quotient, a few ulps off, 63 of 300)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(34)
        rounded = 0
        for _ in range(300):
            p = point_from_polar(rng.uniform(17.0, 20.0), rng.uniform(0.0, 7.0))
            q = point_from_polar(rng.uniform(12.0, 16.0), rng.uniform(-4.0, 4.0))
            with mpmath.workdps(50):
                a, z = mpmath.mpc(*p), mpmath.mpc(*q)
                want = complex((z + a) / (1 + mpmath.conj(a) * z))
            rounded += disk._carry(-p.z, q.z) == want
        assert rounded >= 295
