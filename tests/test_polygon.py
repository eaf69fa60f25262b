"""Tests for polygons, the perimeter-preserving improver and isoperimetry."""

import cmath
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from hyplobe import (
    DegenerateInputError,
    DiskPoint,
    DomainError,
    HyperbolicPolygon,
    NonConvexError,
    circle_for_circumference,
    circumcircle_fit,
    isoperimetric_deficit,
    polygon_perimeter,
    random_convex_polygon,
    regular_polygon,
    regular_polygon_for_perimeter,
    regular_polygon_vertices,
    solve_sas,
    steiner_move,
    steiner_optimize,
)
from hyplobe import oracle, verify
from hyplobe.disk import (
    ORIGIN,
    DiskIsometry,
    _distance,
    _g,
    direction_toward,
    hyp_distance,
    point_from_polar,
)
from hyplobe.polygon import (
    _chain_ratios,
    _cyclic_cross_diagonal,
    _measure,
    _window_move,
    max_optimality_residual,
)

# a hexagon, as (x, y) hex pairs, with V_3 = V_0; see
# test_coincident_vertices_refused_as_degenerate
REPEATING_HEXAGON = [
    ("0x1.5ce2cdd35d593p-3", "0x1.c1aff716a0474p-2"),
    ("-0x1.8f6d869f724adp-2", "0x1.278ac04103b45p-3"),
    ("-0x1.a9824d6194af8p-5", "0x1.2efe9302903c5p-6"),
    ("0x1.5ce2cdd35d593p-3", "0x1.c1aff716a0474p-2"),
    ("-0x1.3fe2b3385b2b8p-3", "-0x1.c721e9e2a2620p-5"),
    ("0x1.61deae9ca427ep-1", "-0x1.82e6ecc73add0p-4"),
]


def high_precision_measures(vertices):
    """(perimeter, area) of the polygon on these DiskPoints at 60 digits: the
    sides and angles read in each vertex's chart, the area as (n - 2) pi
    minus the angles."""
    mpmath = pytest.importorskip("mpmath")
    n = len(vertices)
    with mpmath.workdps(60):
        zs = [mpmath.mpc(*v) for v in vertices]

        def chart(a, z):
            return (z - a) / (1 - mpmath.conj(a) * z)

        perimeter = sum(2 * mpmath.atanh(abs(chart(zs[k - 1], zs[k]))) for k in range(n))
        angles = sum(
            abs(mpmath.arg(chart(zs[k], zs[k - 1]) * mpmath.conj(chart(zs[k], zs[(k + 1) % n]))))
            for k in range(n)
        )
        return perimeter, (n - 2) * mpmath.pi - angles


class TestPolygonConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(DomainError):
            HyperbolicPolygon.from_vertices([DiskPoint(0.1, 0.0), DiskPoint(0.0, 0.1)])

    def test_clockwise_rejected(self):
        # the second triangle is thin: its disk coordinates run clockwise,
        # but its geodesic sides counterclockwise, as its interior angles,
        # each read in the chart centred at its vertex, show
        for pts in (
            [DiskPoint(0.3, 0.0), DiskPoint(0.0, 0.3), DiskPoint(-0.3, 0.0)],
            [
                DiskPoint(-0.3715, -0.6989),
                DiskPoint(-0.2607, -0.6252),
                DiskPoint(0.5413, -0.2888),
            ],
        ):
            HyperbolicPolygon.from_vertices(pts)
            with pytest.raises(NonConvexError):
                HyperbolicPolygon.from_vertices(list(reversed(pts)))

    def test_nonconvex_rejected(self):
        dented = [
            DiskPoint(0.4, 0.0),
            DiskPoint(0.0, 0.4),
            DiskPoint(-0.4, 0.0),
            DiskPoint(0.0, 0.02),  # dents the quadrilateral
        ]
        # every turn of the pentagram is a left turn, but it winds twice
        pentagram = [point_from_polar(1.0, 4.0 * math.pi * k / 5) for k in range(5)]
        for pts in (dented, pentagram):
            with pytest.raises(NonConvexError):
                HyperbolicPolygon.from_vertices(pts)

    def test_vertices_may_be_plain_pairs(self):
        # each vertex that is not a DiskPoint is made one, with its checks:
        # pairs build the record DiskPoints build, bit for bit, and a pair
        # outside the disk or not finite is a DomainError
        pairs = [(0.1, 0.0), (0.0, 0.1), (-0.1, 0.0)]
        poly = HyperbolicPolygon.from_vertices(pairs)
        assert repr(poly) == repr(HyperbolicPolygon.from_vertices([DiskPoint(*p) for p in pairs]))
        assert all(type(v) is DiskPoint for v in poly.vertices)
        for bad in ((1.0, 0.0), (0.6, 0.9), (math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(DomainError):
                HyperbolicPolygon.from_vertices([*pairs[:2], bad])
        # a pair's coordinates are stored as Python floats, whatever real
        # number type they come in, and a string is still refused
        for same in (np.array(pairs), [(0.1, 0), (0, 0.1), (-0.1, 0)]):
            built = HyperbolicPolygon.from_vertices(same)
            assert repr(built) == repr(poly)
            assert all(type(x) is float for v in built.vertices for x in v)
        with pytest.raises(TypeError):
            HyperbolicPolygon.from_vertices([*pairs[:2], ("-0.1", "0.0")])
        # a steiner report's vertices, read back from its JSON, are the run's
        # final polygon again, and measure to the area and perimeter it reports
        path = Path(__file__).resolve().parent / "golden" / "cli" / "steiner_n8_seed42.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        back = HyperbolicPolygon.from_vertices(report["vertices"])
        final = steiner_optimize(random_convex_polygon(8, 42)).polygon
        assert repr(back) == repr(final)
        assert (back.area, polygon_perimeter(back)) == (
            report["final"]["area"], report["final"]["perimeter"]
        )

    def test_coincident_vertices_refused_as_degenerate(self):
        # a quadrilateral with one vertex repeated, exactly or 1e-13 away:
        # the angle at the repeat is undefined, not a turn either way
        tri = [DiskPoint(0.4, 0.0), DiskPoint(0.0, 0.4), DiskPoint(-0.4, -0.1)]
        for gap in (0.0, 1e-13):
            for k, v in enumerate(tri):
                quad = [*tri[:k + 1], DiskPoint(v.x + gap, v.y), *tri[k + 1:]]
                with pytest.raises(DegenerateInputError, match="coincides"):
                    HyperbolicPolygon.from_vertices(quad)
        # V_3 repeats V_0 but neither of its neighbours: only the fan from
        # V_0 meets the repeat, and refuses it as one all the same
        hexagon = [DiskPoint(float.fromhex(x), float.fromhex(y)) for x, y in REPEATING_HEXAGON]
        with pytest.raises(DegenerateInputError, match="coincides"):
            HyperbolicPolygon.from_vertices(hexagon)

    def test_off_centre_polygons_build(self):
        # regular polygons carried up to 16 from the centre, their farthest
        # vertex 19.0 out, inside D_MAX: the perimeter is within 4e-15
        # relative of a 60-digit one over the same doubles at every offset
        # (7.9e-16 measured), and the area within 2e-15 (3.8e-16 measured)
        for n in (8, 64):
            for R in (0.01, 1.0, 3.0):
                base = regular_polygon_vertices(n, R).vertices
                for d in (0.0, 8.0, 12.0, 16.0):
                    move = DiskIsometry(point_from_polar(d, 0.7), 0.0).inverse()
                    vs = [move(v) for v in base]
                    poly = HyperbolicPolygon.from_vertices(vs)
                    assert oracle.intrinsic_convex_ccw(vs), (n, R, d)
                    perimeter, area = high_precision_measures(vs)
                    assert abs(polygon_perimeter(poly) - perimeter) <= 4e-15 * perimeter
                    assert abs(poly.area - area) <= 2e-15 * area, (n, R, d)

    def test_polygons_wider_than_a_chart_build(self):
        # vertices 19 to 20 from the centre, so opposite ones lie so far apart
        # (about 37) that their chart images round onto the unit circle: the
        # fan from V_0 and the witness read only those images' directions, and
        # both accept them
        for n, d in ((8, 19.0), (16, 19.5), (64, 20.0)):
            vs = [point_from_polar(d, 2.0 * math.pi * k / n) for k in range(n)]
            assert HyperbolicPolygon.from_vertices(vs).n == n
            assert oracle.intrinsic_convex_ccw(vs), (n, d)

    def test_sides_far_from_the_centre_are_read(self):
        # regular squares 18.6 to 19.3 from the centre have sides of 36.5 to
        # 37.9, where |p - q| / |1 - conj(p) q| is one of the last doubles
        # below 1; 1 - |z|^2 is read to an ulp, so each square builds with
        # four equal sides within 1e-15 relative of 60-digit ones over the
        # same doubles (9.5e-17 measured)
        mpmath = pytest.importorskip("mpmath")
        for d in (18.6, 18.8, 19.1, 19.3):
            vs = [point_from_polar(d, 0.5 * math.pi * k) for k in range(4)]
            sides = HyperbolicPolygon.from_vertices(vs).side_lengths
            assert len(set(sides)) == 1, d
            with mpmath.workdps(60):
                for p, q, side in zip(vs, vs[1:] + vs[:1], sides):
                    px, py, qx, qy = (mpmath.mpf(x) for x in (*p, *q))
                    ref = 2 * mpmath.asinh(mpmath.sqrt(
                        ((px - qx) ** 2 + (py - qy) ** 2)
                        / ((1 - px * px - py * py) * (1 - qx * qx - qy * qy))
                    ))
                    assert abs(side - ref) <= 1e-15 * ref, d
        far = [point_from_polar(19.1, 0.5 * math.pi * k) for k in range(2)]
        assert hyp_distance(*far) == pytest.approx(37.5068528, rel=1e-8)

    def test_verdict_matches_intrinsic_witness(self):
        # seeded polygons with vertex radii up to 3: angle-sorted (either
        # direction), unsorted, and stars visiting the sorted vertices with
        # a stride of 2 or more; counts the draws on which a shoelace over
        # the disk coordinates gets the orientation of a convex polygon wrong
        rng = np.random.default_rng(6)
        verdicts = {True: 0, False: 0}
        misoriented = 0
        for k in range(6000):
            kind = k % 3
            n = int(rng.choice([5, 7, 8])) if kind == 2 else int(rng.integers(3, 7))
            thetas = rng.uniform(0.0, 2.0 * math.pi, n)
            radii = rng.uniform(0.0, 3.0, n)
            order = np.argsort(thetas)
            if kind == 0 and rng.uniform() < 0.5:
                order = order[::-1]
            elif kind == 1:
                order = np.arange(n)
            elif kind == 2:
                stride = rng.choice([s for s in range(2, n - 1) if math.gcd(s, n) == 1])
                order = order[np.arange(n) * stride % n]
            vs = [point_from_polar(float(radii[j]), float(thetas[j])) for j in order]
            try:
                HyperbolicPolygon.from_vertices(vs)
                accepted = True
            except NonConvexError:
                accepted = False
            witness = oracle.intrinsic_convex_ccw(vs)
            assert accepted == witness
            verdicts[accepted] += 1
            shoelace = sum(vs[i - 1].x * v.y - v.x * vs[i - 1].y for i, v in enumerate(vs))
            if witness != (shoelace > 0.0) and (
                witness or oracle.intrinsic_convex_ccw(vs[::-1])
            ):
                misoriented += 1
        assert min(verdicts.values()) >= 100
        assert misoriented >= 20

    def test_sides_and_angles_measured(self):
        poly = regular_polygon_vertices(5, 1.0)
        stats = regular_polygon(5, 1.0)
        for s in poly.side_lengths:
            assert s == pytest.approx(stats.side, abs=1e-12)
        for a in poly.interior_angles:
            assert a == pytest.approx(stats.interior_angle, abs=1e-12)


def klein_ellipse_polygon(n, q, seed):
    """The generator's polygon with its size and shape fixed: n vertices on
    an ellipse of Klein semi-axes tanh(1) and q tanh(1), hyperbolic radius 1
    and axis ratio q, turned and spaced by random.Random(seed) as
    random_convex_polygon spaces its vertices."""
    rng = random.Random(seed)
    axis = cmath.rect(math.tanh(1.0), rng.uniform(0.0, 2.0 * math.pi))
    floor = 0.5 * math.pi / n
    ws = [-math.log(1.0 - rng.random()) for _ in range(n)]
    scale = (2.0 * math.pi - n * floor) / sum(ws)
    t = rng.uniform(0.0, 2.0 * math.pi)
    vertices = []
    for w in ws:
        t += floor + scale * w
        k = axis * complex(math.cos(t), q * math.sin(t))
        z = k / (1.0 + math.sqrt((1.0 - abs(k)) * (1.0 + abs(k))))
        vertices.append(DiskPoint(z.real, z.imag))
    return HyperbolicPolygon.from_vertices(vertices)


def fan_area_60(vertices):
    """The area of the fan from V_0 over these DiskPoints at 60 digits: the
    sides of each fan triangle from the disk metric, its area by L'Huilier."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        zs = [mpmath.mpc(*v) for v in vertices]

        def d(z, w):
            return 2 * mpmath.atanh(abs(z - w) / abs(1 - mpmath.conj(z) * w))

        return sum(
            lhuilier_60(d(zs[0], zs[k]), d(zs[k], zs[k + 1]), d(zs[0], zs[k + 1]))
            for k in range(1, len(zs) - 1)
        )


class TestAreaAndPerimeter:
    def test_regular_polygons_at_every_scale(self):
        # centred regular 3-, 8- and 64-gons from circumradius 1e-150 up to 9:
        # _turn's coincidence guard is relative to the points' scale, so each
        # builds, and its fan area is within 2e-15 relative of the closed form
        # (9.4e-16 measured; 5.9e-16 below 1e-8). From 1e-155 down, where
        # the area is subnormal, each is refused, by the closed form as by
        # the measured path, not given a few bits off
        for n in (3, 8, 64):
            for R in [10.0**e for e in range(-150, 1)] + [3.0, 9.0]:
                area = regular_polygon(n, R).area
                poly = regular_polygon_vertices(n, R)
                assert abs(poly.area - area) <= 2e-15 * area, (n, R)
            for e in range(-155, -324, -1):
                with pytest.raises(DegenerateInputError, match="area is subnormal"):
                    regular_polygon(n, 10.0**e)
                with pytest.raises(DegenerateInputError):
                    regular_polygon_vertices(n, 10.0**e)

    def test_subnormal_fan_triangle_refused(self):
        # the triangle on the base from -1e-150 to 1e-150 with its apex h
        # above has area 4e-150 h to 2 ulps while that is normal; below, its
        # one fan triangle's area is subnormal, and it is refused although
        # every angle is read to the bit
        base = (DiskPoint(1e-150, 0.0), DiskPoint(-1e-150, 0.0))
        for h in (1e-150, 1e-155, 1e-158):
            poly = HyperbolicPolygon.from_vertices([base[0], DiskPoint(0.0, h), base[1]])
            assert abs(poly.area - 4e-150 * h) <= 4.5e-16 * 4e-150 * h, h
        for h in (1e-159, 1e-162, 1e-165):
            with pytest.raises(DegenerateInputError, match="subnormal"):
                HyperbolicPolygon.from_vertices([base[0], DiskPoint(0.0, h), base[1]])

    def test_matches_high_precision_reference(self):
        # the regular polygons above from circumradius 1e-11 (1e-10 for the
        # 64-gon) at every other exponent, centred and carried 4 and 8 out,
        # and generator polygons: the area is within 2e-15 relative of
        # (n - 2) pi minus the interior angles at 60 digits over the same
        # doubles (8.8e-16 measured); 60 digits resolve no smaller defect
        polygons = [random_convex_polygon(n, seed) for n in (3, 4, 7, 16, 64) for seed in range(4)]
        for n, floor in ((3, -11), (8, -11), (64, -10)):
            for R in [10.0**e for e in range(floor, 1, 2)] + [3.0, 9.0]:
                base = regular_polygon_vertices(n, R).vertices
                for d in (0.0, 4.0, 8.0):
                    move = DiskIsometry(point_from_polar(d, 0.7), 0.0).inverse()
                    polygons.append(HyperbolicPolygon.from_vertices([move(v) for v in base]))
        for poly in polygons:
            area = high_precision_measures(poly.vertices)[1]
            assert abs(poly.area - area) <= 2e-15 * area, poly.vertices[:2]

    def test_thin_polygons_are_off_by_ulps_over_the_aspect(self):
        # a fan turn is about the polygon's aspect q (width over diameter),
        # read from chart images an ulp off, so a thin polygon's area is off
        # by about an ulp over q, not 2e-15: on Klein ellipses of hyperbolic
        # radius 1 and axis ratio q, seeds 0-9 and n = 4, 8 and 32, against
        # the 60-digit fan of the same doubles, at most 0.39, 0.52 and 1.03
        # ulp / q measured at q = 0.1, 1e-3 and 1e-5 (1.57 over seeds 0-99)
        for q in (0.1, 1e-3, 1e-5):
            for n in (4, 8, 32):
                for seed in range(10):
                    poly = klein_ellipse_polygon(n, q, seed)
                    area = fan_area_60(poly.vertices)
                    assert abs(poly.area - area) <= 2.0 * 2.0**-52 / q * area, (q, n, seed)

    def test_triangle_reduces_to_defect(self):
        sol = solve_sas(1.0, 1.2, 0.9)
        from hyplobe.oracle import embed_triangle

        poly = HyperbolicPolygon.from_vertices(embed_triangle(1.0, 1.2, 0.9))
        assert poly.area == pytest.approx(sol.area, abs=1e-12)
        assert polygon_perimeter(poly) == pytest.approx(
            sol.a + sol.b + sol.c, abs=1e-12
        )

    def test_isometry_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            poly = random_convex_polygon(6, int(rng.integers(0, 2**32)))
            r = 0.5 * math.sqrt(rng.uniform())
            t = rng.uniform(0.0, 2 * math.pi)
            m = DiskIsometry(
                DiskPoint(r * math.cos(t), r * math.sin(t)),
                rng.uniform(0.0, 2 * math.pi),
            )
            moved = HyperbolicPolygon.from_vertices([m(v) for v in poly.vertices])
            assert moved.area == pytest.approx(poly.area, abs=1e-10)
            assert polygon_perimeter(moved) == pytest.approx(
                polygon_perimeter(poly), abs=1e-10
            )

    def test_euclidean_limit_area(self):
        # circumradius 1e-3: area -> (n/2) R^2 sin(2 pi / n)
        n, R = 7, 1e-3
        poly = regular_polygon_vertices(n, R)
        flat = 0.5 * n * R * R * math.sin(2.0 * math.pi / n)
        assert poly.area == pytest.approx(flat, rel=1e-5)


def lhuilier_60(a, b, c):
    """Area of the triangle with sides a, b, c by L'Huilier's formula
    tan^2(area / 4) = tanh(p / 2) tanh((p - a) / 2) tanh((p - b) / 2)
    tanh((p - c) / 2), p the semi-perimeter, in mpmath's working precision;
    None where the sides break the triangle inequality."""
    mpmath = pytest.importorskip("mpmath")
    a, b, c = (mpmath.mpf(x) for x in (a, b, c))
    p = (a + b + c) / 2
    if min(p - a, p - b, p - c) <= 0:
        return None
    tanh = mpmath.tanh
    tan2 = tanh(p / 2) * tanh((p - a) / 2) * tanh((p - b) / 2) * tanh((p - c) / 2)
    return 4 * mpmath.atan(mpmath.sqrt(tan2))


def cyclic_cross_diagonal_60(s1, s2, s3, diag):
    """|BD| of the quadrilateral ABCD with |AB| = s1, |BC| = s2, |CD| = s3
    and |DA| = diag whose vertices lie on one circle, horocycle or
    hypercycle: Ptolemy's relation on the half-sinhs, in mpmath's working
    precision."""
    mpmath = pytest.importorskip("mpmath")
    a, b, c, d = (mpmath.sinh(mpmath.mpf(x) / 2) for x in (s1, s2, s3, diag))
    return 2 * mpmath.asinh(mpmath.sqrt((a * b + c * d) * (a * c + b * d) / (a * d + b * c)))


def cyclic_area_60(s1, s2, s3, diag):
    """A_cyc: the area of the concyclic quadrilateral ABCD with these sides,
    the largest of any ABCD with them, as the L'Huilier areas of ABD and
    BCD on the Ptolemy diagonal BD."""
    bd = cyclic_cross_diagonal_60(s1, s2, s3, diag)
    return lhuilier_60(s1, diag, bd) + lhuilier_60(s2, s3, bd)


class TestSteinerMove:
    def test_preserves_perimeter_and_gains_area(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            poly = random_convex_polygon(6, int(rng.integers(0, 2**32)))
            perim = polygon_perimeter(poly)
            area = poly.area
            for i in range(poly.n):
                mv = steiner_move(poly, i)
                if mv.accepted:
                    assert polygon_perimeter(mv.polygon) == pytest.approx(
                        perim, abs=1e-10
                    )
                    assert mv.polygon.area - area > 0.0

    def test_triangle_window_matches_hinge_grid_argmax(self):
        # on a triangle the window is the hinge at V_i, whose sides t and
        # s - t span the fixed base: the move makes both s / 2, where
        # L'Huilier's area of (t, s - t, base) is stationary and tops a
        # 400-point sweep of the t the triangle inequality allows, at 60 digits
        mpmath = pytest.importorskip("mpmath")
        accepted = 0
        for seed in range(20):
            poly = random_convex_polygon(3, seed)
            for i in range(poly.n):
                f1, f2 = poly.vertices[i - 1], poly.vertices[(i + 1) % poly.n]
                updates = _window_move(poly, i)
                mv = steiner_move(poly, i)
                if not mv.accepted:
                    continue
                accepted += 1
                assert set(updates) == {i}
                with mpmath.workdps(60):
                    s = mpmath.mpf(poly.side_lengths[i - 1]) + poly.side_lengths[i]
                    base = mpmath.mpf(hyp_distance(f1, f2))
                    half = s / 2
                    for k in (i - 1, i):
                        assert abs(mv.polygon.side_lengths[k] - half) <= 4e-15 * half, (seed, i)

                    def area(t):
                        return lhuilier_60(t, s - t, base)

                    assert abs(mpmath.diff(area, half)) < 1e-50, (seed, i)
                    lo, width, top = (s - base) / 2, base, area(half)
                    assert all(area(lo + width * k / 401) <= top for k in range(1, 401)), (seed, i)
        assert accepted >= 30

    def test_window_move_reaches_grid_maximum(self):
        # on a quadrilateral the window is three sides, from A = V_{i-1} to
        # D = V_{i+2}: the move reaches A_cyc of three equal sides s, the
        # closed-form maximum over quadrilaterals with these sides and DA, and
        # no split (3s u1, 3s u2, 3s (1 - u1 - u2)) of the same total, with
        # u1 and u2 multiples of 1/6 summing to at most 5/6, has a larger
        # A_cyc; A_cyc at 60 digits
        mpmath = pytest.importorskip("mpmath")
        splits = [(k1 / 6, k2 / 6) for k1 in range(1, 5) for k2 in range(1, 6 - k1)]
        accepted = 0
        for seed in range(10):
            poly = random_convex_polygon(4, seed)
            n = poly.n
            for i in range(n):
                a, d = poly.vertices[i - 1], poly.vertices[(i + 2) % n]
                total = sum(poly.side_lengths[k % n] for k in (i - 1, i, i + 1))
                diag = hyp_distance(a, d)
                mv = steiner_move(poly, i)
                if not mv.accepted:
                    continue
                accepted += 1
                area = mv.polygon.area
                with mpmath.workdps(60):
                    s = mpmath.mpf(total) / 3
                    best = cyclic_area_60(s, s, s, diag)
                    assert abs(area - best) <= 4e-15 * best, (seed, i)
                    for u1, u2 in splits:
                        sides = (total * u1, total * u2, total * (1.0 - u1 - u2))
                        if 2.0 * max(*sides, diag) >= total + diag:
                            continue  # no quadrilateral has these sides
                        split = cyclic_area_60(*sides, diag)
                        assert split <= area * (1.0 + 4e-15), (seed, i, u1, u2)
        assert accepted >= 30

    def test_regular_polygon_is_fixed_point(self):
        poly = regular_polygon_vertices(8, 0.9)
        for i in range(poly.n):
            mv = steiner_move(poly, i)
            assert not mv.accepted
            assert mv.polygon is poly

    def test_regular_quadrilateral_is_fixed_point(self):
        # the diagonal V_{i-1} V_{i+2} of a 4-gon is a side, so the cross
        # diagonal's feasible range starts at about 0
        for R in (1e-3, 0.1, 0.5, 1.0, 2.0, 3.0):
            poly = regular_polygon_vertices(4, R)
            for i in range(poly.n):
                mv = steiner_move(poly, i)
                assert not mv.accepted
                assert mv.polygon is poly

    def test_every_move_changes_the_window_inner_vertices(self):
        # the window move at V_i moves every vertex but V_{i-2} and V_{i-1}:
        # the n - 2 inner vertices V_i ... V_{i-3}; moves from each polygon
        # while they are planned, every planned move accepted
        built = {n: 0 for n in (3, 4, 6, 8, 12)}
        for n in built:
            for seed in range(10):
                poly = random_convex_polygon(n, seed)
                for step in range(2 * n):
                    i = step % n
                    mv = steiner_move(poly, i)
                    if not mv.accepted:
                        assert mv.polygon is poly and mv.rejected == 0, (n, seed, step)
                        assert max_optimality_residual(poly) < 1e-11, (n, seed, step)
                        continue
                    moved = {k for k in range(n) if mv.polygon.vertices[k] != poly.vertices[k]}
                    assert mv.rejected == 0, (n, seed, step)
                    assert moved == {(i + k) % n for k in range(n - 2)}, (n, seed, step)
                    built[n] += 1
                    poly = mv.polygon
        assert min(built.values()) >= 40, built

    @pytest.mark.parametrize("regime, closing", [
        ("circle", 2.0),
        ("horocycle", 2.0 * math.asinh(5.0 * math.sinh(0.5))),
        ("hypercycle", 4.9),
    ])
    def test_chain_lies_on_its_curve(self, regime, closing):
        # a hexagon whose five sides of 1 from A = V_0 to D = V_5 turn
        # unevenly, and whose side DA is ``closing``: rho = sinh(|AD| / 2) /
        # sinh(1 / 2) is 2.25 < 5, 5 and 11.0 > 5. After the move at V_1 the
        # five sides are equal and, in 60-digit arithmetic on the new doubles,
        # sinh(|A V_k| / 2) = sinh(s / 2) U_k, with U_k = f(k t) / f(t) and
        # f(5 t) / f(t) = rho: f = sin on a circle, sinh on a hypercycle, and
        # U_k = k on a horocycle
        mpmath = pytest.importorskip("mpmath")

        def chain(c):
            vs = [ORIGIN, DiskIsometry(ORIGIN).inverse()(point_from_polar(1.0, 0.0))]
            for turn in (1.0, 3.0, 2.0, 1.0):
                ahead = direction_toward(vs[-1], vs[-2]) + math.pi
                vs.append(DiskIsometry(vs[-1]).inverse()(point_from_polar(1.0, ahead + c * turn)))
            return vs

        lo, hi = 0.0, 0.7  # the ends are 5 apart at c = 0, and 0.53 at 0.7
        for _ in range(60):
            c = 0.5 * (lo + hi)
            lo, hi = (c, hi) if hyp_distance(*chain(c)[::5]) > closing else (lo, c)
        poly = HyperbolicPolygon.from_vertices(chain(lo))
        mv = steiner_move(poly, 1)
        assert mv.accepted and mv.polygon.area > poly.area
        assert mv.polygon.vertices[0] == poly.vertices[0]
        assert mv.polygon.vertices[5] == poly.vertices[5]
        with mpmath.workdps(60):
            zs = [mpmath.mpc(v.x, v.y) for v in mv.polygon.vertices]

            def dist(p, q):
                return 2 * mpmath.atanh(abs(p - q) / abs(1 - mpmath.conj(p) * q))

            sides = [dist(zs[k], zs[k + 1]) for k in range(5)]
            s = sum(sides) / 5
            assert max(abs(x - s) for x in sides) <= 1e-14 * s
            h = mpmath.sinh(s / 2)
            rho = mpmath.sinh(dist(zs[0], zs[5]) / 2) / h
            assert abs(rho - mpmath.sinh(closing / 2) / mpmath.sinh(0.5)) <= 1e-12 * rho
            if regime == "horocycle":
                assert abs(rho - 5) <= 1e-13
                ratios = list(range(6))
            else:
                assert (rho < 5) == (regime == "circle")
                f = mpmath.sin if regime == "circle" else mpmath.sinh
                end = mpmath.pi / 5 if regime == "circle" else mpmath.log(rho) / 4
                t = mpmath.findroot(
                    lambda t: f(5 * t) / f(t) - rho, (end / 10**6, end), solver="anderson"
                )
                ratios = [f(k * t) / f(t) for k in range(6)]
            for k in range(1, 5):
                want = h * ratios[k]
                assert abs(mpmath.sinh(dist(zs[0], zs[k]) / 2) - want) <= 1e-13 * want, k

    def test_chain_ratios_meet_at_the_horocycle(self):
        # U_k = k on the horocycle, rho = m, and the circle's and the
        # hypercycle's roots tend to it from either side
        assert _chain_ratios(5, 5.0) == [2.0, 3.0, 4.0]
        assert _chain_ratios(2, 0.5) == []
        for rho in (math.nextafter(5.0, 0.0), math.nextafter(5.0, 6.0), 5.0 - 1e-9, 5.0 + 1e-9):
            for k, u in enumerate(_chain_ratios(5, rho), 2):
                assert abs(u - k) <= 1e-9 * k, (rho, k)

    def test_no_length_preserving_perturbation_gains_area(self):
        # after the move at V_i, move the inner vertices by up to 1e-5 in
        # random directions, then slide the middle one along its angle
        # bisector until the perimeter is the move's again (bisection to the
        # last bit). A and D stay put, and the area falls, by 8e-13 relative
        # at least: about the square of the perturbation, above the area's
        # rounding. A move whose U_k were 3e-5 relative off would gain
        rng = random.Random(15)

        def slide(p, theta, d):
            back = DiskIsometry(p).inverse()
            if d >= 0.0:
                return back(point_from_polar(d, theta))
            return back(point_from_polar(-d, theta + math.pi))

        trials = 0
        for n in (5, 6, 8, 12):
            for seed in range(3):
                poly = random_convex_polygon(n, seed)
                i = rng.randrange(n)
                best = steiner_move(poly, i).polygon
                perimeter, area = polygon_perimeter(best), best.area
                inner = [(i + k) % n for k in range(n - 2)]
                j = inner[len(inner) // 2]
                for _ in range(10):
                    vs = list(best.vertices)
                    for k in inner:
                        theta, d = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 1e-5)
                        vs[k] = DiskIsometry(vs[k]).inverse()(point_from_polar(d, theta))
                    u = cmath.exp(1j * direction_toward(vs[j], vs[j - 1]))
                    u += cmath.exp(1j * direction_toward(vs[j], vs[(j + 1) % n]))
                    inward, base = cmath.phase(u), vs[j]

                    def trial(d):
                        vs[j] = slide(base, inward, d)
                        return HyperbolicPolygon.from_vertices(vs)

                    lo, hi = -1e-2, 1e-2  # sliding inward shortens the perimeter
                    while lo < 0.5 * (lo + hi) < hi:
                        mid = 0.5 * (lo + hi)
                        lo, hi = (mid, hi) if polygon_perimeter(trial(mid)) > perimeter else (lo, mid)
                    moved = trial(lo)
                    assert abs(polygon_perimeter(moved) - perimeter) <= 1e-14 * perimeter
                    assert moved.area < area, (n, seed, i)
                    trials += 1
        assert trials == 120

    def test_flat_triangles_are_refused_not_crashed(self):
        # triangles with the apex 1e-17 to 1e-9 off the diameter through the
        # other two: |AD| can round to twice the mean side or above, so the
        # apex's triangle fails its inequality by roundoff; _unturn reads it
        # as flat, the move lands on AD and is refused as not convex
        rng = random.Random(3)
        refused = 0
        for _ in range(300):
            a, c = sorted(rng.uniform(-0.9, 0.9) for _ in range(2))
            if c - a < 0.1:
                continue
            apex = DiskPoint(rng.uniform(a, c), 10.0 ** rng.uniform(-17.0, -9.0))
            try:
                poly = HyperbolicPolygon.from_vertices([DiskPoint(a, 0.0), DiskPoint(c, 0.0), apex])
            except NonConvexError:  # an angle reads 0 or pi: not strictly convex
                continue
            for i in range(3):
                mv = steiner_move(poly, i)
                assert mv.accepted != (mv.rejected == 1)
                refused += mv.rejected
            assert steiner_optimize(poly).converged
        assert refused >= 50

    def test_vertex_index_is_checked(self):
        poly = random_convex_polygon(5, 0)
        for i in (5, 6, -1, -5, -6):
            with pytest.raises(DomainError, match="vertex index"):
                steiner_move(poly, i)
        for i in (2.0, 0.5, "1"):
            with pytest.raises(TypeError):
                steiner_move(poly, i)

    def test_window_move_is_planned_at_any_scale(self):
        # a jittered quadrilateral of circumradius 1e-10: the move's margin
        # is relative to the sides, so it still plans there.
        # The moved window's sides equal their mean s to 4.5 ulps (4.25
        # measured), the side outside the window keeps every bit, and the new
        # |BD| is Ptolemy's value for sides s, s, s
        jitter = ((1.0, 0.1), (1.1, 1.9), (0.9, 3.0), (1.05, 4.6))
        zs = tuple(1e-10 * r * cmath.exp(1j * t) for r, t in jitter)
        n = len(zs)

        def dist(p, q):
            return _distance(p, q, _g(p), _g(q))

        poly = _measure(tuple(DiskPoint(z.real, z.imag) for z in zs))
        sides = poly.side_lengths
        for i in range(n):
            updates = _window_move(poly, i)
            assert updates is not None and set(updates) == {i, (i + 1) % n}
            moved = list(zs)
            for k, z in updates.items():
                moved[k] = z
            s = sum(sides[k % n] for k in (i - 1, i, i + 1)) / 3
            for k in (i - 1, i, i + 1):
                side = dist(moved[k % n], moved[(k + 1) % n])
                assert abs(side - s) <= 4.5 * sys.float_info.epsilon * s
            assert dist(moved[(i + 2) % n], moved[i - 1]) == sides[(i + 2) % n]
            diag = dist(zs[i - 1], zs[(i + 2) % n])
            bd_star = _cyclic_cross_diagonal(s, s, s, diag)
            bd = dist(moved[i], moved[(i + 2) % n])
            assert abs(bd - bd_star) <= 1e-12 * bd_star


def _hypercycle_point(t: float, h: float) -> DiskPoint:
    """The point at distance h to the left of the real diameter, above the
    axis point at signed distance t from the origin."""
    foot = point_from_polar(abs(t), 0.0 if t >= 0.0 else math.pi)
    return DiskIsometry(foot).inverse()(point_from_polar(h, 0.5 * math.pi))


def _horocycle_point(r: float, psi: float) -> DiskPoint:
    """A point of the horocycle tangent to the unit circle at 1, radius r."""
    z = (1.0 - r) + r * complex(math.cos(psi), math.sin(psi))
    return DiskPoint(z.real, z.imag)


def _hypercycle_quadrilateral(h: float, spanning: str) -> list[DiskPoint]:
    """A, B, C, D on a hypercycle, the two ends of side ``spanning`` being
    the first and last of the four along the curve."""
    along = [_hypercycle_point(t, h) for t in (-1.5, -0.4, 0.3, 1.6)]
    k = {"DA": 0, "CD": 1, "BC": 2, "AB": 3}[spanning]
    return along[k:] + along[:k]


# Quadrilaterals A, B, C, D in order on a circle (center inside and outside),
# a horocycle and hypercycles.
_CIRCLE = [point_from_polar(1.2, t) for t in (0.1, 1.3, 2.9, 4.4)]
_CIRCLE_OFF_CENTER = [point_from_polar(1.2, t) for t in (0.1, 0.5, 1.0, 1.6)]
_HOROCYCLE = [_horocycle_point(0.6, psi) for psi in (-2.5, -1.2, 0.8, 2.2)]
_HYPERCYCLES = {
    spanning: _hypercycle_quadrilateral(h, spanning)
    for spanning, h in (("DA", 0.3), ("AB", 1.0), ("BC", 0.3), ("CD", 1.0))
}


def _quadrilateral_sides(A, B, C, D):
    return hyp_distance(A, B), hyp_distance(B, C), hyp_distance(C, D), hyp_distance(D, A)


class TestCyclicCrossDiagonal:
    def _regimes(self):
        yield "circle", _CIRCLE
        yield "circle", _CIRCLE_OFF_CENTER
        yield "horocycle", _HOROCYCLE
        for spanning, quad in _HYPERCYCLES.items():
            yield "hypercycle", quad

    def test_regimes_are_told_apart_by_half_sinhs(self):
        for regime, quad in self._regimes():
            halves = [math.sinh(0.5 * s) for s in _quadrilateral_sides(*quad)]
            excess = (2.0 * max(halves) - sum(halves)) / sum(halves)
            if regime == "circle":
                assert excess < -1e-3
            elif regime == "horocycle":
                assert abs(excess) < 1e-14
            else:
                assert excess > 1e-3
        for spanning, quad in _HYPERCYCLES.items():
            sides = dict(zip(("AB", "BC", "CD", "DA"), _quadrilateral_sides(*quad)))
            assert max(sides, key=sides.get) == spanning

    def test_scales_by_powers_of_two_down_to_the_floor(self):
        # below sides of about 1e-8 the half-sinhs are the half sides, so
        # scaling the sides by 2^-k scales |BD| by 2^-k, bit for bit, as long
        # as no product underflows: the scaled Ptolemy products never do,
        # down to sides near the smallest normal float (their raw products
        # underflowed below sides of about 1e-78)
        sides = (3e-20, 4e-20, 5e-20, 6e-20)
        bd = _cyclic_cross_diagonal(*sides)
        for k in range(0, 950, 3):
            scaled = (math.ldexp(s, -k) for s in sides)
            assert _cyclic_cross_diagonal(*scaled) == math.ldexp(bd, -k), k
        # the small square's diagonal, sqrt(2) sides, at every scale
        for e in range(-8, -301, -1):
            s = 10.0**e
            assert _cyclic_cross_diagonal(s, s, s, s) == pytest.approx(math.sqrt(2) * s, rel=4e-16)

    def test_exact_on_inscribed_quadrilaterals(self):
        for _, (A, B, C, D) in self._regimes():
            bd = _cyclic_cross_diagonal(*_quadrilateral_sides(A, B, C, D))
            assert abs(bd - hyp_distance(B, D)) <= 1e-14 * bd

    def test_matches_high_precision_root_of_opposite_angle_gap(self):
        # the opposite angle sums of ABCD agree at the concyclic |BD|;
        # angles by the law of cosines at 50 digits, root bracketed by the
        # range in which both triangles ABD and BCD exist
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for _, quad in self._regimes():
                s1, s2, s3, diag = (mpmath.mpf(s) for s in _quadrilateral_sides(*quad))

                def angle(opposite, x, y):
                    cos = (mpmath.cosh(x) * mpmath.cosh(y) - mpmath.cosh(opposite)) / (
                        mpmath.sinh(x) * mpmath.sinh(y)
                    )
                    return mpmath.acos(max(-1, min(1, cos)))

                def gap(bd):
                    a = angle(bd, s1, diag)
                    c = angle(bd, s2, s3)
                    b = angle(diag, s1, bd) + angle(s3, s2, bd)
                    d = angle(s1, diag, bd) + angle(s2, s3, bd)
                    return (a + c) - (b + d)

                lo = max(abs(s2 - s3), abs(diag - s1))
                hi = min(s2 + s3, diag + s1)
                width = hi - lo
                ref = mpmath.findroot(
                    gap, (lo + width / 10**6, hi - width / 10**6), solver="anderson"
                )
                bd = _cyclic_cross_diagonal(*(float(s) for s in (s1, s2, s3, diag)))
                assert abs(bd - ref) <= 1e-12 * ref

    def test_reaches_grid_maximum(self):
        # the angle phi at A that the closed-form |BD| gives is the concyclic
        # angle of 60-digit Ptolemy, where the area of ABCD, with its three
        # sides and DA fixed, is stationary; on a 512-point sweep of (0, pi)
        # the area rises strictly to one top and then falls strictly across
        # the one run of phi that leaves a triangle BCD, and no point of it
        # tops the concyclic area
        mpmath = pytest.importorskip("mpmath")
        for _, quad in self._regimes():
            s1, s2, s3, diag = _quadrilateral_sides(*quad)
            bd = _cyclic_cross_diagonal(s1, s2, s3, diag)
            # the angle at A of the triangle ABD
            phi = math.acos(
                (math.cosh(s1) * math.cosh(diag) - math.cosh(bd))
                / (math.sinh(s1) * math.sinh(diag))
            )
            with mpmath.workdps(60):
                m1, md = mpmath.mpf(s1), mpmath.mpf(diag)
                # the law of cosines: sinh^2(|BD| / 2) = h2 + k sin^2(phi / 2)
                h2 = mpmath.sinh((m1 - md) / 2) ** 2
                k = mpmath.sinh(m1) * mpmath.sinh(md)
                bd_star = cyclic_cross_diagonal_60(s1, s2, s3, diag)
                phi_star = 2 * mpmath.asin(mpmath.sqrt((mpmath.sinh(bd_star / 2) ** 2 - h2) / k))

                def area(x):
                    bd_x = 2 * mpmath.asinh(mpmath.sqrt(h2 + k * mpmath.sin(x / 2) ** 2))
                    abd, bcd = lhuilier_60(s1, diag, bd_x), lhuilier_60(s2, s3, bd_x)
                    return None if bcd is None else abd + bcd

                assert abs(phi - phi_star) <= 4e-15, quad
                assert abs(mpmath.diff(area, phi_star)) < 1e-50, quad
                sweep = [area(mpmath.pi * j / 513) for j in range(1, 513)]
                feasible = [j for j, a in enumerate(sweep) if a is not None]
                first, last = feasible[0], feasible[-1]
                assert len(feasible) == last - first + 1, quad
                run = sweep[first : last + 1]
                top = run.index(max(run))
                assert all(x < y for x, y in zip(run[:top], run[1 : top + 1])), quad
                assert all(x > y for x, y in zip(run[top:], run[top + 1 :])), quad
                assert run[top] <= area(phi_star), quad


def refuse_once(monkeypatch):
    """Patch polygon._window_move so that its first call returns a reflex
    position: V_i reflected through the Euclidean midpoint of V_{i-1} V_{i+1},
    across that chord. steiner_optimize and steiner_move each make one call
    per step, so a fresh patch replays a run's refusal."""
    from hyplobe import polygon

    move, calls = polygon._window_move, []

    def patched(poly, i):
        calls.append(i)
        if len(calls) > 1:
            return move(poly, i)
        zs = [v.z for v in poly.vertices]
        return {i: zs[i - 1] + zs[(i + 1) % len(zs)] - zs[i]}

    monkeypatch.setattr(polygon, "_window_move", patched)


def test_degenerate_move_is_counted_as_rejected(monkeypatch):
    # rejected counts every result _measure refuses, not only non-convex
    # ones: a move that puts V_2 on V_1 makes coincident chart images
    from hyplobe import polygon

    poly = random_convex_polygon(6, 3)
    vs = list(poly.vertices)
    monkeypatch.setattr(polygon, "_window_move", lambda p, i: {2: vs[1].z})
    with pytest.raises(DegenerateInputError):
        _measure(tuple(vs[:2] + vs[1:2] + vs[3:]))
    mv = steiner_move(poly, 2)
    assert mv == (poly, False, 1)
    assert mv.polygon is poly


# the vertices of a thin triangle far out, as (x, y) hex pairs; see
# test_falls_back_to_vertex_mean_beyond_d_max
FAR_THIN_TRIANGLE = [
    ("-0x1.628d872e55e1dp-2", "-0x1.e054851d00a41p-1"),
    ("-0x1.628d82a4ed828p-2", "-0x1.e0548561b4ffap-1"),
    ("-0x1.628d869b3ca73p-2", "-0x1.e054844ff5765p-1"),
]


TRAPPED_HEXAGON = [
    (0.10320248266824636, 0.21488463940666566),
    (-0.08335807567454992, -0.032561909675262395),
    (-0.22175718169108422, -0.2948708406087077),
    (-0.010147346219535456, -0.08699712707458253),
    (0.17286971409148066, 0.1632092847273097),
    (0.2963728114755524, 0.4027391151696485),
]


def assert_regular_area(result):
    """A converged run's area is the regular polygon's of its perimeter to
    min(2 n, 10) ulps, a bound that does not grow with n: A_reg - A is the
    report's area_gap_to_regular. Measured on the 95 runs of this module that
    call it, |A_reg - A| is at most 8 ulps (n = 6), and at most 5 on
    generator runs from n = 8 to 2,048."""
    poly = result.polygon
    regular = regular_polygon_for_perimeter(poly.n, polygon_perimeter(poly)).area
    assert abs(regular - poly.area) <= min(2 * poly.n, 10) * math.ulp(regular)


class TestSteinerOptimize:
    def test_octagon_run(self):
        poly = random_convex_polygon(8, 42)
        perim0 = polygon_perimeter(poly)
        d0 = isoperimetric_deficit(perim0, poly.area)
        result = steiner_optimize(poly, tol=1e-8)
        assert result.converged
        # trace invariants: conserved perimeter, monotone area from the input's
        for step in result.trace:
            assert abs(step.perimeter - perim0) < 1e-9
        areas = [poly.area, *(s.area_after for s in result.trace)]
        assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(areas, areas[1:]))
        assert result.residual <= 1e-8 * perim0 / 8
        assert_regular_area(result)
        perim1 = polygon_perimeter(result.polygon)
        d1 = isoperimetric_deficit(perim1, result.polygon.area)
        assert -1e-9 <= d1 < d0

    def test_limit_is_regular_polygon(self):
        poly = random_convex_polygon(8, 42)
        perim = polygon_perimeter(poly)
        result = steiner_optimize(poly, tol=1e-8)
        ref = regular_polygon_for_perimeter(8, perim)
        assert result.polygon.area == pytest.approx(ref.area, abs=1e-9)
        for s in result.polygon.side_lengths:
            assert s == pytest.approx(ref.side, abs=1e-6)

    def test_regular_input_stops_immediately(self):
        poly = regular_polygon_vertices(6, 0.8)
        result = steiner_optimize(poly, tol=1e-8)
        assert result.converged
        assert result.sweeps == 1
        assert len(result.trace) == 0

    def test_rejects_bad_tol(self):
        poly = random_convex_polygon(5, 1)
        for tol in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(DomainError, match="tol"):
                steiner_optimize(poly, tol=tol)

    def test_moves_beyond_d_max_refused_before_any_step(self):
        # a move walks its window's mean side: the regular 16-gon 18 from the
        # centre has sides of 32.74, which no step can walk, while the 11-gon
        # 10.5 out has its longest side past D_MAX but every window's mean in
        # range, and converges
        far = [point_from_polar(18.0, 2.0 * math.pi * k / 16) for k in range(16)]
        poly = HyperbolicPolygon.from_vertices(far)
        for run in (lambda: steiner_move(poly, 0), lambda: steiner_optimize(poly)):
            with pytest.raises(DomainError, match=r"window mean side 32\.73.* exceeds D_MAX = 20\.0"):
                run()
        wide = [point_from_polar(10.5, math.pi * k / 10) for k in range(11)]
        poly = HyperbolicPolygon.from_vertices(wide)
        assert max(poly.side_lengths) > 20.0
        assert steiner_optimize(poly).converged
        near = [point_from_polar(11.0, 2.0 * math.pi * k / 16) for k in range(16)]
        poly = HyperbolicPolygon.from_vertices(near)
        assert 18.0 < max(poly.side_lengths) < 20.0
        assert steiner_optimize(poly).converged

    def test_large_polygons_converge_without_drift(self):
        # every move moves n - 2 vertices by walks of one side, and takes its
        # window's mean side by fsum, so no trace step's perimeter leaves the
        # input's by more than 8 ulps at any n (at most 4 measured from n = 8
        # to 2,048; 98 and 210 at n = 512 and 2,048 with a plain sum, whose
        # rounding grows with n), and the run ends at the regular polygon of
        # its perimeter
        for n, seeds in ((64, range(3)), (128, range(2)), (512, range(2)), (2048, range(2))):
            for seed in seeds:
                poly = random_convex_polygon(n, seed)
                perimeter = polygon_perimeter(poly)
                result = steiner_optimize(poly)
                assert result.converged and result.moves_rejected == 0, (n, seed)
                for step in result.trace:
                    drift = abs(step.perimeter - perimeter) / math.ulp(perimeter)
                    assert drift <= 8, (n, seed, step.iteration, drift)
                ref = regular_polygon_for_perimeter(n, perimeter)
                assert result.polygon.area == pytest.approx(ref.area, rel=1e-12)

    def test_large_polygons_keep_the_isoperimetric_inequality(self):
        # A_reg(n, P) - A >= 0 by the polygon isoperimetric theorem. With the
        # perimeter and each window's mean side summed by fsum the converged
        # gap at n = 2,048 is -4 and +5 ulps of A for seeds 0 and 1 (measured;
        # +270 and -210 with a plain perimeter sum, whose rounding grows with
        # n); the bound does not grow with n
        for seed in (0, 1):
            result = steiner_optimize(random_convex_polygon(2048, seed))
            area = result.polygon.area
            regular = regular_polygon_for_perimeter(2048, polygon_perimeter(result.polygon))
            gap = regular.area - area
            assert result.converged, seed
            assert gap >= -4 * math.ulp(area), (seed, gap / math.ulp(area))

    def test_move_counts_do_not_regress(self):
        # counts moves, not seconds: every generator polygon with n = 3-12
        # and seeds 0-29 converges with no move refused, in at most 30 moves
        # (28 measured, at n = 3, where a move moves one vertex), and n = 64
        # in at most 10 (6 measured)
        most = 0
        for n in range(3, 13):
            for seed in range(30):
                result = steiner_optimize(random_convex_polygon(n, seed))
                assert result.converged and result.moves_rejected == 0, (n, seed)
                most = max(most, len(result.trace))
        assert most <= 30
        for seed in range(3):
            result = steiner_optimize(random_convex_polygon(64, seed))
            assert result.converged and len(result.trace) <= 10, seed

    def test_far_polygons_converge(self):
        # jittered R = 9 polygons (radii 9 (1 + u), u uniform on [-0.1, 0.1]
        # from random.Random(0-2)) carried 0-11 from the centre, off any
        # vertex's ray, their farthest vertex up to 20.7 out: read in the
        # disk, each run converges in at most 2 sweeps (2 measured), with no
        # move refused
        for n in (8, 16):
            for seed in range(3):
                rng = random.Random(seed)
                jitter = [rng.uniform(-0.1, 0.1) for _ in range(n)]
                for d in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0):
                    for direction in (0.3, 1.0, 2.0):
                        carry = DiskIsometry(point_from_polar(d, direction))
                        poly = HyperbolicPolygon.from_vertices([
                            carry(point_from_polar(9.0 * (1.0 + u), 2.0 * math.pi * k / n))
                            for k, u in enumerate(jitter)
                        ])
                        result = steiner_optimize(poly)
                        assert result.converged and result.moves_rejected == 0, (n, seed, d)
                        assert result.sweeps <= 2, (n, seed, d, direction)

    def test_residual_contracts_by_n_minus_1_per_move(self):
        # after the first move each move divides the largest residual by
        # n - 1 (see steiner_optimize), to 1e-4 relative (1.2e-5 measured)
        # while it is above 1e-13 times the longest side. So every run at the
        # defaults ends, converged, within 12 sweeps (10 measured, at n = 3),
        # and one at a tol below what doubles reach stops, unconverged,
        # within 20 (16 measured)
        cases = [(n, seed) for n in range(3, 17) for seed in range(10)]
        cases += [(n, seed) for n in (24, 32, 64) for seed in range(3)]
        pairs = 0
        for n, seed in cases:
            poly = random_convex_polygon(n, seed)
            result = steiner_optimize(poly)
            assert result.converged and result.sweeps <= 12, (n, seed)
            floor = 1e-13 * max(poly.side_lengths)
            residuals = [step.residual for step in result.trace]
            for k, (a, b) in enumerate(zip(residuals, residuals[1:])):
                if b > floor:
                    assert a / b == pytest.approx(n - 1, rel=1e-4), (n, seed, k)
                    pairs += 1
            result = steiner_optimize(poly, tol=1e-30)
            assert not result.converged and result.sweeps <= 20, (n, seed)
        assert pairs > 1000

    def test_run_stops_after_a_sweep_that_does_not_lower_the_residual(self):
        # at tol = 1e-16, below what doubles reach, every run ends unconverged
        # within 15 sweeps (15 measured, at n = 3): every sweep but the last
        # lowered the largest residual, and the last did not
        for n in (3, 5, 8, 16, 64):
            for seed in range(3):
                poly = random_convex_polygon(n, seed)
                result = steiner_optimize(poly, tol=1e-16)
                assert not result.converged and result.sweeps <= 15, (n, seed)
                worst = []  # at the start of each sweep, then at the end
                for sweep in range(result.sweeps + 1):
                    before = [s.residual for s in result.trace if s.iteration < sweep * n]
                    worst.append(before[-1] if before else max_optimality_residual(poly))
                assert all(b < a for a, b in zip(worst[:-2], worst[1:-1])), (n, seed)
                assert worst[-1] >= worst[-2], (n, seed)

    def test_residual_vanishes_on_regular_polygons(self):
        for n in (3, 4, 8, 64):
            for R in (0.1, 1.0, 3.0):
                poly = regular_polygon_vertices(n, R)
                assert max_optimality_residual(poly) <= 1e-12, (n, R)

    def test_converged_runs_end_near_a_fixed_point(self):
        # the residual measures what the moves drive to zero: equal sides at
        # each vertex and concyclic cross diagonals; the area is then the
        # regular polygon's of the same perimeter
        # n = 6 and 8 are the steiner command's sizes in the benchmark
        cases = [(n, seed) for n in (4, 12) for seed in range(5)] + [(16, 0), (16, 1)]
        cases += [(n, seed) for n in (6, 8) for seed in range(40)]
        for n, seed in cases:
            poly = random_convex_polygon(n, seed)
            result = steiner_optimize(poly, tol=1e-8)
            assert result.converged, (n, seed)
            bound = 1e-8 * polygon_perimeter(poly) / n
            assert max_optimality_residual(result.polygon) <= bound, (n, seed)
            assert_regular_area(result)

    def test_jittered_octagon_converges_at_every_scale(self):
        # the regular octagon's vertices pushed to radii R (1 + u), with u
        # uniform on [-0.15, 0.15] from random.Random(1): the run converges
        # from R = 1 down to 1e-153, and no smaller copy takes more sweeps or
        # moves, as the step reads only lengths, the guards are relative and
        # the Ptolemy products are scaled clear of underflow (10 moves at
        # R = 1, 9 at every smaller R). The fan area keeps its relative
        # accuracy at every R, so the final polygon never has more area than
        # the regular octagon of its perimeter beyond 2 n ulps (5 measured).
        # From R = 1e-154 down the chart images' product at a vertex is
        # subnormal, and the polygon is refused as degenerate
        rng = random.Random(1)
        jitter = [rng.uniform(-0.15, 0.15) for _ in range(8)]

        def octagon(R):
            return HyperbolicPolygon.from_vertices([
                point_from_polar(R * (1.0 + u), 2.0 * math.pi * k / 8)
                for k, u in enumerate(jitter)
            ])

        for R in [10.0**e for e in range(-154, -161, -1)]:
            with pytest.raises(DegenerateInputError):
                octagon(R)
        sweeps, moves = {}, {}
        for R in [10.0**e for e in range(0, -154, -1)]:
            poly = octagon(R)
            result = steiner_optimize(poly, tol=1e-8)
            assert result.converged, R
            sweeps[R], moves[R] = result.sweeps, len(result.trace)
            regular = regular_polygon_for_perimeter(8, polygon_perimeter(result.polygon)).area
            assert result.polygon.area <= regular + 16 * math.ulp(regular), R
        assert max(sweeps.values()) == sweeps[1.0], sweeps
        assert all(m == moves[1e-1] <= moves[1.0] for R, m in moves.items() if R < 1.0), moves

    def test_trace_never_loses_area(self):
        # on every generator polygon with n = 3-64, seeds 0-9, no step of a
        # run loses more than 2 n ulps of area (at most 0.71 n measured,
        # 5 ulps at n = 7)
        for n in range(3, 65):
            for seed in range(10):
                poly = random_convex_polygon(n, seed)
                trace = steiner_optimize(poly).trace
                areas = [poly.area, *(s.area_after for s in trace)]
                for before, step in zip(areas, trace):
                    floor = before - 2 * n * math.ulp(before)
                    assert step.area_after >= floor, (n, seed, step.iteration)

    def test_converged_is_the_residual_test(self):
        # converged says exactly whether the final residual is within tol
        # times the mean side, whichever way the run stopped; the last tol
        # is below what doubles reach, so that run stops after a sweep that
        # does not lower the residual and is unconverged
        for n, seed in ((3, 2), (6, 5), (9, 1)):
            poly = random_convex_polygon(n, seed)
            mean_side = polygon_perimeter(poly) / n
            stops = []
            for tol in (1e-2, 1e-6, 1e-8, 1e-14):
                result = steiner_optimize(poly, tol=tol)
                residual = max_optimality_residual(result.polygon)
                assert result.residual == residual == result.trace[-1].residual
                assert result.converged == (residual <= tol * mean_side), (n, seed, tol)
                stops.append(len(result.trace))
            # a tighter tol takes more moves: tol bounds the residual, and a
            # run stops at the first move that meets it, within a sweep
            assert stops == sorted(set(stops)), (n, seed, stops)
            assert not result.converged

    def test_quadrilaterals_converge(self):
        for seed in range(5):
            poly = random_convex_polygon(4, seed)
            perim = polygon_perimeter(poly)
            result = steiner_optimize(poly, tol=1e-8)
            assert result.converged
            ref = regular_polygon_for_perimeter(4, perim)
            assert result.polygon.area == pytest.approx(ref.area, abs=1e-9)

    def test_polygon_without_circumcircle_is_reported(self):
        # the least-squares circle through this triangle leaves the disk
        # (dist + r ~ 1.06), and its residual is far above tol times the
        # mean side; the run converges to the regular triangle
        tri = HyperbolicPolygon.from_vertices(
            [
                point_from_polar(1.725, 0.0),
                point_from_polar(1.275, math.pi / 6),
                point_from_polar(1.725, math.pi),
            ]
        )
        assert 0.1 < circumcircle_fit(tri).spread < math.inf
        assert max_optimality_residual(tri) > 1e-8 * polygon_perimeter(tri) / 3
        result = steiner_optimize(tri, tol=1e-8)
        assert result.converged
        assert_regular_area(result)

    def test_euclidean_collinear_triangle_is_reported(self):
        # convex in the Klein model, but its vertices lie on one Euclidean
        # line, where the least-squares circle is singular
        tri = HyperbolicPolygon.from_vertices(
            [DiskPoint(0.1, 0.5), DiskPoint(0.0, 0.5), DiskPoint(-0.1, 0.5)]
        )
        fit = circumcircle_fit(tri)
        assert fit.center == DiskPoint(0.0, 0.5)
        assert 0.1 < fit.spread < math.inf
        assert max_optimality_residual(tri) > 1e-8 * polygon_perimeter(tri) / 3
        result = steiner_optimize(tri)
        assert result.converged
        assert_regular_area(result)

    def test_trapped_hexagon_converges_to_the_regular_hexagon(self):
        # an equilateral hexagon with interior angles (2.949, 2.949, 0.274)
        # twice, on which every planned move of a window of three sides is
        # not convex; the window of n - 1 sides reaches the regular hexagon
        # of its perimeter
        poly = HyperbolicPolygon.from_vertices([DiskPoint(x, y) for x, y in TRAPPED_HEXAGON])
        result = steiner_optimize(poly, tol=1e-8)
        assert result.converged
        assert result.moves_rejected == 0
        assert len(result.trace) <= 6
        ref = regular_polygon_for_perimeter(6, polygon_perimeter(poly))
        assert result.polygon.area == pytest.approx(ref.area, rel=1e-13)
        for side in result.polygon.side_lengths:
            assert side == pytest.approx(ref.side, rel=1e-8)

    def test_trace_matches_replayed_moves(self, monkeypatch):
        # replaying steiner_move up to the last trace step's iteration: every
        # trace step is the replayed move's bit for bit, each moved polygon
        # is what measuring its vertices afresh gives (the constructor
        # refuses any other), and the refusals add up. The first step's move
        # is patched to a reflex position, which both refuse and count
        poly = random_convex_polygon(8, 0)
        refuse_once(monkeypatch)
        result = steiner_optimize(poly, tol=1e-8)
        assert result.converged
        refuse_once(monkeypatch)
        steps = iter(result.trace)
        rejected = 0
        for it in range(result.trace[-1].iteration + 1):
            mv = steiner_move(poly, it % poly.n)
            rejected += mv.rejected
            if mv.accepted:
                step = next(steps)
                assert HyperbolicPolygon(*mv.polygon) == mv.polygon
                assert step == (
                    it,
                    it % poly.n,
                    mv.polygon.area,
                    max_optimality_residual(mv.polygon),
                    polygon_perimeter(mv.polygon),
                )
                poly = mv.polygon
            else:
                assert mv.polygon is poly
        assert next(steps, None) is None
        assert poly == result.polygon
        assert result.moves_rejected == rejected == 1

    def test_each_polygon_is_measured_once(self, monkeypatch):
        # a polygon is measured where it is made: by from_vertices, by the
        # checked constructor once more, and by each planned move (11 in the
        # run on the generator's octagon, seed 42); an unplanned move and the
        # residual read the record and measure nothing
        from hyplobe import polygon

        calls = []
        measure = polygon._measure
        monkeypatch.setattr(polygon, "_measure", lambda vs: calls.append(vs) or measure(vs))

        def count(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        poly = random_convex_polygon(8, 42)
        regular = regular_polygon_vertices(8, 0.5)
        assert count(HyperbolicPolygon.from_vertices, poly.vertices) == 1
        assert count(HyperbolicPolygon, *poly) == 1
        assert count(max_optimality_residual, poly) == 0
        assert steiner_move(poly, 0).accepted and count(steiner_move, poly, 0) == 1
        assert steiner_move(regular, 0) == (regular, False, 0)
        assert count(steiner_move, regular, 0) == 0
        assert len(steiner_optimize(poly).trace) == count(steiner_optimize, poly) == 11

    def test_deterministic(self):
        r1 = steiner_optimize(random_convex_polygon(6, 7), tol=1e-8)
        r2 = steiner_optimize(random_convex_polygon(6, 7), tol=1e-8)
        assert r1.trace == r2.trace
        assert r1.polygon.vertices == r2.polygon.vertices

    def test_quarter_turned_copy_gives_the_turned_run(self):
        # (x, y) -> (-y, x) is exact, and under z -> iz the chart, distance
        # and turn only permute exact terms; the walks aim by chart images and
        # unit complex numbers, not by an angle, whose phase plus pi / 2
        # would round, so the run turns with its input bit for bit
        def turned(vertices):
            return tuple(DiskPoint(-v.y, v.x) for v in vertices)

        cases = [(n, seed) for n in range(3, 17) for seed in range(20)]
        cases += [(n, seed) for n in (24, 32, 64) for seed in range(3)]
        moves = 0
        for n, seed in cases:
            poly = random_convex_polygon(n, seed)
            run = steiner_optimize(poly)
            copy = steiner_optimize(HyperbolicPolygon.from_vertices(turned(poly.vertices)))
            assert copy.trace == run.trace, (n, seed)
            assert copy.polygon.vertices == turned(run.polygon.vertices), (n, seed)
            moves += len(run.trace)
        assert moves >= 3000


class TestCircumcircleFit:
    def test_exact_on_regular_polygon(self):
        poly = regular_polygon_vertices(7, 1.1)
        fit = circumcircle_fit(poly)
        assert fit.spread < 1e-8
        assert fit.radius == pytest.approx(1.1, abs=1e-8)
        assert math.hypot(*fit.center) < 1e-7

    def test_exact_on_moved_regular_polygon(self):
        rng = np.random.default_rng(17)
        for n, R in ((5, 0.4), (7, 1.1), (12, 2.0)):
            for _ in range(5):
                r = 0.6 * math.sqrt(rng.uniform())
                t = rng.uniform(0.0, 2 * math.pi)
                m = DiskIsometry(
                    DiskPoint(r * math.cos(t), r * math.sin(t)),
                    rng.uniform(0.0, 2 * math.pi),
                )
                poly = regular_polygon_vertices(n, R)
                fit = circumcircle_fit(
                    HyperbolicPolygon.from_vertices([m(v) for v in poly.vertices])
                )
                center = m(ORIGIN)
                assert abs(fit.center.z - center.z) < 1e-12
                assert fit.radius == pytest.approx(R, abs=1e-12)
                assert fit.spread < 1e-12

    def test_falls_back_to_vertex_mean_outside_disk(self):
        # a hyperbolic triangle near the boundary with no circumcircle: its
        # Euclidean circumcircle has center (0, -3.03) and radius 3.08
        thin = HyperbolicPolygon.from_vertices(
            [DiskPoint(-0.95, -0.1), DiskPoint(0.95, -0.1), DiskPoint(0.0, 0.05)]
        )
        fit = circumcircle_fit(thin)
        assert abs(fit.center.z - complex(0.0, -0.05)) < 1e-15
        radii = [hyp_distance(fit.center, v) for v in thin.vertices]
        assert fit.spread == max(radii) - min(radii)
        assert fit.radius == pytest.approx(0.5 * (max(radii) + min(radii)), abs=1e-15)

    def test_falls_back_to_vertex_mean_beyond_d_max(self):
        # a valid thin triangle 17.6-18.3 from the centre whose least-squares
        # circle is centred 20.4 from it, past D_MAX
        thin = HyperbolicPolygon.from_vertices([
            DiskPoint(float.fromhex(x), float.fromhex(y)) for x, y in FAR_THIN_TRIANGLE
        ])
        fit = circumcircle_fit(thin)
        mean = sum(v.z for v in thin.vertices) / 3
        assert abs(fit.center.z - mean) < 1e-15
        radii = [hyp_distance(fit.center, v) for v in thin.vertices]
        assert fit.spread == max(radii) - min(radii)
        assert fit.spread == pytest.approx(0.545, abs=1e-3)
        assert max_optimality_residual(thin) > 1e-8 * polygon_perimeter(thin) / 3
        assert steiner_optimize(thin).converged

    def test_positive_spread_off_circle(self):
        poly = random_convex_polygon(6, 5)
        assert circumcircle_fit(poly).spread > 1e-4


class TestRegularPolygons:
    def test_embedding_matches_formulas(self):
        stats = regular_polygon(5, 1.0)
        poly = regular_polygon_vertices(5, 1.0)
        assert polygon_perimeter(poly) == pytest.approx(stats.perimeter, abs=1e-11)
        assert poly.area == pytest.approx(stats.area, abs=1e-10)

    def test_euclidean_angle_limit(self):
        # small polygons look flat: interior angle -> (n - 2) pi / n
        stats = regular_polygon(6, 1e-3)
        assert stats.interior_angle == pytest.approx(4.0 * math.pi / 6.0, abs=1e-6)

    def test_perimeter_root_find(self):
        for n in (3, 8, 96):
            regular = regular_polygon_for_perimeter(n, 5.0)
            assert regular.perimeter == pytest.approx(5.0, abs=1e-12)
            assert regular == regular_polygon(n, regular.circumradius)

    def test_perimeter_matches_high_precision_root(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for n in (3, 4, 7, 8, 96, 1000):
                for perimeter in (1e-3, 0.5, 5.0, 30.0):
                    R = regular_polygon_for_perimeter(n, perimeter).circumradius
                    apex = 2 * mpmath.pi / n

                    def excess(x):
                        side = mpmath.acosh(
                            mpmath.cosh(x) ** 2 - mpmath.sinh(x) ** 2 * mpmath.cos(apex)
                        )
                        return n * side - perimeter

                    ref = mpmath.findroot(excess, mpmath.mpf(R))
                    assert abs(R - ref) <= 1e-15 * ref

    def test_matches_high_precision_reference(self):
        # side and base angle by the law of cosines at 50 digits, area as
        # (n - 2) pi minus the interior angles; the 1e5-gon has an apex angle
        # far below ALPHA_EPS
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for R in (1e-3, 0.3, 1.0, 4.0, 10.0):
                mR = mpmath.mpf(R)
                for n in [*range(3, 97), 10**3, 10**5]:
                    stats = regular_polygon(n, R)
                    side = mpmath.acosh(
                        mpmath.cosh(mR) ** 2
                        - mpmath.sinh(mR) ** 2 * mpmath.cos(2 * mpmath.pi / n)
                    )
                    base = mpmath.acos(
                        (mpmath.cosh(mR) * mpmath.cosh(side) - mpmath.cosh(mR))
                        / (mpmath.sinh(mR) * mpmath.sinh(side))
                    )
                    area = (n - 2) * mpmath.pi - 2 * n * base
                    assert abs(stats.area - area) <= 1e-14 * area
                    assert abs(stats.side - side) <= 1e-14 * side
                    assert abs(stats.interior_angle - 2 * base) <= 1e-14

    def test_argument_validation(self):
        for make in (regular_polygon, regular_polygon_vertices):
            with pytest.raises(DomainError, match="a polygon needs at least three vertices"):
                make(2, 1.0)
            for R in (0.0, -1.0, 11.0, math.nan):
                with pytest.raises(DomainError, match="circumradius outside"):
                    make(5, R)
        with pytest.raises(DomainError):
            regular_polygon_for_perimeter(4, -1.0)
        for perimeter in (61.0, 1e9, math.inf):
            with pytest.raises(DomainError):
                regular_polygon_for_perimeter(3, perimeter)
        for n in (0, 1, 2, -3):
            with pytest.raises(DomainError):
                regular_polygon_for_perimeter(n, 5.0)
        # the half side is in range, the circumradius it gives is not: above
        # D_MAX / 2, or 0 where the half side underflows
        for perimeter in (60.0, 5e-324):
            with pytest.raises(DomainError, match="circumradius outside"):
                regular_polygon_for_perimeter(3, perimeter)
        # a whole-number float is refused too, as for seeds
        for n in (3.5, 4.0):
            for make in (regular_polygon, regular_polygon_vertices, regular_polygon_for_perimeter):
                with pytest.raises(TypeError):
                    make(n, 1.0)


class TestIsoperimetry:
    def test_circle_has_zero_deficit(self):
        for r in (0.1, 1.0, 5.0):
            _, L, A = circle_for_circumference(2.0 * math.pi * math.sinh(r))
            assert abs(isoperimetric_deficit(L, A)) < 1e-9 * max(1.0, L * L)

    def test_circle_radius_round_trip(self):
        L = 2.0 * math.pi * math.sinh(1.3)
        r, circumference, _ = circle_for_circumference(L)
        assert r == pytest.approx(1.3, abs=1e-14)
        assert circumference == pytest.approx(L, rel=1e-15)

    def test_small_circle_matches_flat_values(self):
        r, L, A = circle_for_circumference(2.0 * math.pi * 1e-4)
        assert r == pytest.approx(1e-4, rel=1e-8)
        assert L == pytest.approx(2.0 * math.pi * 1e-4, rel=1e-8)
        assert A == pytest.approx(math.pi * 1e-8, rel=1e-8)

    def test_circle_area_matches_high_precision_reference(self):
        # 4 pi sinh^2(r/2) keeps its digits where 2 pi (cosh r - 1) cancels:
        # that is off by 7.8e-7 relative at L = 1e-4, and 0 at L = 1e-8
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for L in np.geomspace(1e-12, 6e4, 400):
                r, circumference, A = circle_for_circumference(float(L))
                ref = 4 * mpmath.pi * mpmath.sinh(mpmath.mpf(r) / 2) ** 2
                assert abs(A - ref) <= 1e-15 * ref, L
                deficit = isoperimetric_deficit(circumference, A)
                assert abs(deficit) <= 2e-15 * circumference * circumference, L

    def test_polygon_deficits_positive_and_decreasing(self):
        perimeter = 7.0
        deficits = []
        for n in range(3, 20):
            stats = regular_polygon_for_perimeter(n, perimeter)
            deficits.append(isoperimetric_deficit(stats.perimeter, stats.area))
        assert all(d > 0.0 for d in deficits)
        assert all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:]))

    def test_random_polygon_deficit_positive(self):
        for seed in range(10):
            poly = random_convex_polygon(5, seed)
            d = isoperimetric_deficit(polygon_perimeter(poly), poly.area)
            assert d > 0.0

    def test_deficit_validation(self):
        for L, A in ((-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                     (1.0, math.inf)):
            with pytest.raises(DomainError, match="perimeter and area"):
                isoperimetric_deficit(L, A)
        # finite inputs whose deficit is not: A^2 overflows, or L^2 and A^2 both do
        for L, A in ((5e-324, 1e308), (1e200, 1e200)):
            with pytest.raises(DomainError, match="overflows"):
                isoperimetric_deficit(L, A)
        for L in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="circumference must be positive"):
                circle_for_circumference(L)
        # 2 pi sinh(10) = 69198.18... is the circumference at radius D_MAX / 2;
        # below 2 pi 5e-324 the radius L / 2 pi underflows to 0
        for L in (7e4, 1e10, 5e-324):
            with pytest.raises(DomainError, match="radius outside"):
                circle_for_circumference(L)
        # 4 pi sinh^2(r / 2) is subnormal, bits short, below r = 8.4e-155
        for r in (1e-155, 1e-300, 1e-320):
            with pytest.raises(DegenerateInputError, match="area is subnormal"):
                circle_for_circumference(2.0 * math.pi * r)


class TestRandomPolygon:
    def test_deterministic_per_seed(self):
        p1 = random_convex_polygon(7, 123)
        p2 = random_convex_polygon(7, 123)
        assert p1.vertices == p2.vertices

    def test_different_seeds_differ(self):
        assert random_convex_polygon(7, 1).vertices != random_convex_polygon(7, 2).vertices

    def test_validation(self):
        with pytest.raises(DomainError):
            random_convex_polygon(2, 0)

    def test_negative_seed_refused(self):
        for seed in (-1, -(2**64)):
            with pytest.raises(DomainError, match="non-negative"):
                random_convex_polygon(6, seed)

    def test_non_integer_seed_refused(self):
        # random.Random would hash a float seed rather than refuse it
        for seed in (1.0, 0.5, "1"):
            with pytest.raises(TypeError):
                random_convex_polygon(6, seed)

    def test_every_size_builds(self):
        # convex by construction, with nothing refused; for n <= 32 the
        # intrinsic witness, which tests every vertex against every edge
        # rather than the interior angles and the fan, confirms each polygon
        for n in range(3, 129):
            for seed in range(10):
                poly = random_convex_polygon(n, seed)
                assert poly.n == n
                if n <= 32:
                    assert oracle.intrinsic_convex_ccw(poly.vertices), (n, seed)

    def test_steiner_converges_on_seeded_polygons(self):
        # seeds 0-49, then 50 random 32-bit seeds per size, drawn as the
        # benchmark's cli-cold workload draws its steiner seeds (n = 6 and 8),
        # where an unconverged run exits 3 and fails the request
        rng = np.random.default_rng(20261018)
        for n in (6, 8):
            drawn = rng.integers(0, 2**32, 50).tolist()
            for seed in [*range(50), *drawn]:
                result = steiner_optimize(random_convex_polygon(n, seed))
                assert result.converged, (n, seed)


def _refusals():
    """(entry, arguments, class, message) for every public entry that takes a
    vertex count, a seed, a positive quantity or a radius, fed the same bad
    values: each rule has one owner in polygon, so the refusal is the same
    wherever the input enters."""
    count = (DomainError, "a polygon needs at least three vertices")
    not_an_int = (TypeError, "'float' object cannot be interpreted as an integer")
    seed = (DomainError, "the seed must be a non-negative integer")

    def positive(name):
        return DomainError, f"{name} must be positive and finite"

    def radius(name):
        return DomainError, f"{name} outside (0, 10.0]"

    poly = random_convex_polygon(5, 1)
    rows = [(HyperbolicPolygon.from_vertices, ([DiskPoint(0.1, 0.0), DiskPoint(0.0, 0.1)],),
             *count)]
    for n, refusal in ((2, count), (2.5, not_an_int), (3.0, not_an_int)):
        rows += [
            (random_convex_polygon, (n, 0), *refusal),
            (regular_polygon, (n, 1.0), *refusal),
            (regular_polygon_vertices, (n, 1.0), *refusal),
            (regular_polygon_for_perimeter, (n, 5.0), *refusal),
        ]
    for bad_seed, refusal in ((-1, seed), (0.5, not_an_int)):
        rows += [
            (random_convex_polygon, (6, bad_seed), *refusal),
            (verify.run_all, (1, bad_seed), *refusal),
        ]
    for x in (0.0, -1.0, math.nan, math.inf, -math.inf):
        rows += [
            (regular_polygon_for_perimeter, (4, x), *positive("perimeter")),
            (circle_for_circumference, (x,), *positive("circumference")),
            (isoperimetric_deficit, (x, 1.0), *positive("perimeter and area")),
            (isoperimetric_deficit, (1.0, x), *positive("perimeter and area")),
            (steiner_optimize, (poly, x), *positive("tol")),
        ]
    # radii 0 and 11, given or reached: a perimeter whose half side, which R is
    # at least, underflows to 0 or is 11, and a circumference 2 pi sinh(r)
    for r, perimeter, circumference in ((0.0, 5e-324, 5e-324),
                                        (11.0, 88.0, 2.0 * math.pi * math.sinh(11.0))):
        rows += [
            (regular_polygon, (5, r), *radius("circumradius")),
            (regular_polygon_vertices, (5, r), *radius("circumradius")),
            (regular_polygon_for_perimeter, (4, perimeter), *radius("circumradius")),
            (circle_for_circumference, (circumference,), *radius("radius")),
        ]
    return [
        pytest.param(entry, args, cls, message, id=f"{entry.__name__}({labels})")
        for entry, args, cls, message in rows
        for labels in [",".join(
            repr(a) if isinstance(a, (int, float)) else type(a).__name__ for a in args
        )]
    ]


@pytest.mark.parametrize("entry, args, cls, message", _refusals())
def test_each_input_rule_refuses_alike_at_every_entry(entry, args, cls, message):
    with pytest.raises(cls) as info:
        entry(*args)
    assert (type(info.value), str(info.value)) == (cls, message)
