"""Tests for the brute-force reference implementations."""

import math

import numpy as np
import pytest

from hyplobe import (
    ALPHA_EPS,
    D_MAX,
    DegenerateInputError,
    DiskIsometry,
    DiskPoint,
    DomainError,
    EuclideanCircle,
    angle_at_vertex,
    build_figure1,
    geodesic_through,
    hyp_distance,
    optimal_alpha,
    point_from_polar,
    solve_sas,
)
from hyplobe import oracle
from hyplobe.oracle import (
    b_prime_point,
    embed_triangle,
    geodesic_length_by_sampling,
    grid_search_max_area,
    omega_circle,
)
from hyplobe.triangle import _check_sas_domain


class TestGridSearch:
    def test_needs_enough_samples(self):
        for samples in (999, 1, 0, -1):
            with pytest.raises(DomainError, match="at least 1000 samples"):
                grid_search_max_area(1.0, 1.0, samples)

    def test_refuses_a_sample_count_that_is_not_an_integer(self):
        for samples in (1000.0, 100_000.5):
            with pytest.raises(TypeError):
                grid_search_max_area(1.0, 1.0, samples)

    def test_bisects_the_grid(self, monkeypatch):
        calls = 0
        apex_area = oracle._apex_area

        def counting_apex_area(b, c):
            area = apex_area(b, c)

            def counted(alpha):
                nonlocal calls
                calls += 1
                return area(alpha)

            return counted

        monkeypatch.setattr(oracle, "_apex_area", counting_apex_area)
        for samples in (1000, 10_000, 100_000):
            for b, c in ((0.9, 1.4), (1e-6, 20.0), (20.0, 20.0), (1e-6, 1e-6)):
                calls = 0
                grid_search_max_area(b, c, samples)
                assert calls <= 2 * math.ceil(math.log2(samples - 1)) + 1, (b, c, samples)

    def test_refuses_sides_outside_the_domain(self):
        # as solve_sas does: unchecked, these give a negative, zero or NaN
        # area, a triangle beyond D_MAX, or overflow in sinh
        for side in (-1.0, 0.0, math.nan, 25.0, 800.0):
            for b, c in ((side, 1.0), (1.0, side)):
                with pytest.raises(DomainError, match=r"sides must lie in \(0, 20"):
                    grid_search_max_area(b, c, 1000)

    def test_grid_step_is_the_spacing_of_the_grid(self):
        # the grid runs from lo to pi - lo in samples - 1 steps
        for samples in (1000, 10_000, 100_000):
            res = grid_search_max_area(0.9, 1.4, samples)
            lo = ALPHA_EPS * (1.0 + 1e-9)
            assert res.grid_step * (samples - 1) == pytest.approx(math.pi - 2.0 * lo, rel=1e-15)
            steps = (res.alpha_hat - lo) / res.grid_step
            assert abs(steps - round(steps)) < 1e-6

    def test_tiny_sides_peak_near_right_angle(self):
        res = grid_search_max_area(1e-3, 1e-3, 10_000)
        assert abs(res.alpha_hat - math.pi / 2) <= 2.0 * res.grid_step + 1e-3

    def test_grid_area_matches_solver(self):
        res = grid_search_max_area(0.9, 1.4, 10_000)
        sol = solve_sas(0.9, 1.4, res.alpha_hat)
        assert res.area_hat == pytest.approx(sol.area, abs=1e-11)

    def test_cross_validates_root_finder(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.1, 3.0)
            res = grid_search_max_area(b, c, 50_000)
            assert abs(res.alpha_hat - optimal_alpha(b, c).alpha_star) <= 2.0 * res.grid_step

    def test_area_matches_high_precision_half_angle(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(53)
        with mpmath.workdps(50):
            for _ in range(400):
                b, c = np.exp(rng.uniform(math.log(1e-6), math.log(20.0), 2))
                alpha = rng.uniform(0.01, math.pi - 0.01)
                u = mpmath.tanh(mpmath.mpf(b) / 2) * mpmath.tanh(mpmath.mpf(c) / 2)
                exact = 2 * mpmath.atan2(
                    u * mpmath.sin(alpha), 1 - u * mpmath.cos(alpha)
                )
                area = oracle._apex_area(float(b), float(c))(float(alpha))
                assert abs(area - exact) <= 1e-14 * exact, (b, c, alpha)

    def test_argmax_within_one_step_across_domain(self):
        pairs = [(1e-6, 1e-6), (1e-6, 20.0), (20.0, 20.0)] + _log_uniform_pairs(54, 400)
        for b, c in pairs:
            res = grid_search_max_area(b, c, 100_000)
            gap = abs(res.alpha_hat - optimal_alpha(b, c).alpha_star)
            assert gap <= res.grid_step, (b, c, gap / res.grid_step)


# tiny sides whose sampled area tops out in a tie of two grid points
TIED_TOP_PAIRS = [
    (1e-6, 1e-6),
    (4.844753201912817e-06, 1.6105187168293835e-06),
    (2.2484863198393345e-06, 3.329651894798128e-06),
]


def _areas_on_linspace(b, c, samples=100_000):
    """The oracle's area at every point of numpy's grid, in order."""
    lo = ALPHA_EPS * (1.0 + 1e-9)
    alphas = np.linspace(lo, math.pi - lo, samples).tolist()
    area = oracle._apex_area(b, c)
    return alphas, [area(alpha) for alpha in alphas]


def _log_uniform_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [
        tuple(float(x) for x in np.exp(rng.uniform(math.log(1e-6), math.log(20.0), 2)))
        for _ in range(count)
    ]


def _one_top(values, case):
    """Asserts that the values rise strictly to a single top (a point or a
    run of equal values) and then fall strictly."""
    v = np.array(values)
    top = int(np.argmax(v))
    end = top
    while end + 1 < len(v) and v[end + 1] == v[top]:
        end += 1
    assert np.all(v[:top] < v[1 : top + 1]), case
    assert np.all(v[end:-1] > v[end + 1 :]), case


class TestOneTopPremise:
    """The bisection equals the exhaustive first maximum when the sampled
    area rises strictly to one top run and then falls strictly."""

    def test_equals_exhaustive_first_max(self):
        pairs = TIED_TOP_PAIRS + [(1e-6, 20.0), (20.0, 1e-6), (20.0, 20.0), (0.8, 1.7)]
        pairs += _log_uniform_pairs(55, 23)
        for samples in (1000, 10_000, 100_000):
            for b, c in pairs:
                alphas, areas = _areas_on_linspace(b, c, samples)
                k = areas.index(max(areas))
                if samples == 100_000 and (b, c) in TIED_TOP_PAIRS:
                    assert areas[k + 1] == areas[k]
                res = grid_search_max_area(b, c, samples)
                assert (res.alpha_hat, res.area_hat) == (alphas[k], areas[k]), (b, c, samples)

    def test_area_rises_to_one_top_then_falls(self):
        pairs = TIED_TOP_PAIRS[:1] + [(20.0, 20.0)] + _log_uniform_pairs(56, 20)
        rng = np.random.default_rng(51)
        moderate = [tuple(float(rng.uniform(0.1, 3.0)) for _ in "bc") for _ in range(20)]
        cases = [(b, c, n) for n in (1000, 10_000, 100_000) for b, c in pairs]
        cases += [(b, c, 10_000) for b, c in moderate]
        for b, c, samples in cases:
            _, areas = _areas_on_linspace(b, c, samples)
            _one_top(areas, (b, c, samples))


def _verify_style_pairs(rng, count):
    """Pairs drawn as ``verify``'s metric-oracle check draws them, |z| <= 0.9."""
    pairs = []
    while len(pairs) < count:
        pts = []
        while len(pts) < 2:
            x, y = rng.uniform(-0.9, 0.9, 2)
            if math.hypot(x, y) <= 0.9:
                pts.append(DiskPoint(x, y))
        pairs.append(tuple(pts))
    return pairs


class TestGeodesicSampling:
    def test_needs_enough_segments(self):
        for segments in (0, -1):
            with pytest.raises(DomainError):
                geodesic_length_by_sampling(DiskPoint(0.1, 0.0), DiskPoint(0.5, 0.0), segments)

    def test_coincident_points(self):
        p = DiskPoint(0.2, 0.3)
        assert geodesic_length_by_sampling(p, DiskPoint(0.2, 0.3), 10_000) == 0.0

    def test_diameter_case(self):
        p, q = DiskPoint(-0.4, 0.0), DiskPoint(0.6, 0.0)
        sampled = geodesic_length_by_sampling(p, q, 10_000)
        assert abs(sampled - hyp_distance(p, q)) <= 1e-13

    def test_arc_case_converges_from_below(self):
        p, q = DiskPoint(0.5, 0.1), DiskPoint(-0.1, 0.6)
        direct = hyp_distance(p, q)
        sampled = geodesic_length_by_sampling(p, q, 10_000)
        assert abs(sampled - direct) <= 1e-13

    def test_any_number_of_segments_gives_the_same_length(self):
        # the samples lie on the geodesic, so by additivity the chord sum does
        # not depend on how many there are
        for p, q in _verify_style_pairs(np.random.default_rng(17), 50):
            lengths = [geodesic_length_by_sampling(p, q, n) for n in (1, 8, 64, 10_000)]
            assert max(lengths) - min(lengths) <= 4e-15, (p, q, lengths)

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def exact(p, q):
            with mpmath.workdps(60):
                a, b = mpmath.mpc(p.x, p.y), mpmath.mpc(q.x, q.y)
                return 2 * mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b))

        for p, q in _verify_style_pairs(np.random.default_rng(61), 200):
            sampled = geodesic_length_by_sampling(p, q, 64)
            assert abs(sampled - exact(p, q)) <= 4e-15, (p, q)
        # both ends up to 12 from the centre, where 1 - |k|^2 by subtraction
        # would lose up to six digits
        rng = np.random.default_rng(62)
        for _ in range(200):
            d1, d2, t1, t2 = rng.uniform(0.0, 12.0, 2).tolist() + rng.uniform(0.0, 6.3, 2).tolist()
            p, q = point_from_polar(d1, t1), point_from_polar(d2, t2)
            ref = exact(p, q)
            sampled = geodesic_length_by_sampling(p, q, 64)
            assert abs(sampled - ref) <= 1e-12 * ref, (p, q)
        # short geodesics 12 to 19.5 from the centre: the whole Klein chord lies
        # within 1e-10 of the circle, where 1 - |k|^2 by subtraction keeps at
        # most six digits and near 19 none
        rng = np.random.default_rng(64)
        for _ in range(200):
            d1, t1, d, t = rng.uniform((12.0, 0.0, 0.1, 0.0), (19.5, 6.3, 3.0, 6.3)).tolist()
            p = point_from_polar(d1, t1)
            q = DiskIsometry(p).inverse()(point_from_polar(d, t))
            if math.hypot(*q) > math.tanh(0.5 * D_MAX):
                continue
            ref = exact(p, q)
            sampled = geodesic_length_by_sampling(p, q, 64)
            assert abs(sampled - ref) <= 5e-8 * ref, (p, q)

    def test_domain_ends_at_d_max(self):
        rng = np.random.default_rng(63)
        for t1, t2 in rng.uniform(0.0, 2.0 * math.pi, (200, 2)).tolist():
            p, q = point_from_polar(D_MAX, t1), point_from_polar(D_MAX, t2)
            assert geodesic_length_by_sampling(p, q, 64) > 0.0
        beyond = DiskPoint(math.tanh(0.5 * (D_MAX + 0.5)), 0.0)
        with pytest.raises(DomainError):
            geodesic_length_by_sampling(DiskPoint(0.1, 0.2), beyond, 64)
        with pytest.raises(DomainError):
            geodesic_length_by_sampling(beyond, DiskPoint(0.1, 0.2), 64)

    def test_refuses_ends_that_are_not_disk_points(self):
        # a tuple is not checked inside the disk, as hyp_distance refuses it
        p, q = (0.1, 0.2), (0.3, 0.1)
        for ends in ((p, q), (DiskPoint(*p), q), (p, DiskPoint(*q))):
            with pytest.raises(DomainError) as exc:
                geodesic_length_by_sampling(*ends, 8)
            assert str(exc.value) == (
                f"distance ends {ends[0]!r} and {ends[1]!r} are not both DiskPoints"
            )


def _scalar_chord_sum(p: DiskPoint, q: DiskPoint, segments: int) -> float:
    """The polyline length one DiskPoint and one hyp_distance at a time."""
    g = geodesic_through(p, q)
    if g.circle is None:
        pts = [
            DiskPoint(
                p.x + (q.x - p.x) * k / segments, p.y + (q.y - p.y) * k / segments
            )
            for k in range(segments + 1)
        ]
    else:
        c = g.circle
        a0 = math.atan2(p.y - c.cy, p.x - c.cx)
        sweep = math.remainder(math.atan2(q.y - c.cy, q.x - c.cx) - a0, math.tau)
        pts = [
            DiskPoint(
                c.cx + c.radius * math.cos(a0 + sweep * k / segments),
                c.cy + c.radius * math.sin(a0 + sweep * k / segments),
            )
            for k in range(segments + 1)
        ]
    return sum(hyp_distance(pts[k], pts[k + 1]) for k in range(segments))


class TestGeodesicSamplingReference:
    def test_matches_scalar_chord_sum(self):
        rng = np.random.default_rng(52)
        pairs = []
        for _ in range(8):
            x, y = rng.uniform(-0.65, 0.65, (2, 2))
            pairs.append((DiskPoint(*x), DiskPoint(*y)))  # arcs
            t = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(-0.9, 0.9, 2)
            pairs.append(  # diameters
                tuple(DiskPoint(ri * math.cos(t), ri * math.sin(t)) for ri in r)
            )
        for p, q in pairs:
            sampled = geodesic_length_by_sampling(p, q, 10_000)
            reference = _scalar_chord_sum(p, q, 10_000)
            assert abs(sampled - reference) <= 1e-12 * reference
            assert sampled <= hyp_distance(p, q) + 1e-12

    def test_sample_outside_disk_is_refused(self):
        # both ends are inside, but a sample of the arc rounds onto or past
        # the unit circle. A sample c + r e^{i theta} rounds by a few ulps of
        # |c| and r, so that needs ends within a few ulps of the boundary, far
        # beyond D_MAX (here |c| is 42 and 1 - |p| is 2.4e-15): no pair
        # with both ends 5-20 out did (2,000 drawn as below, random.Random(7)).
        # This is the first pair of random.Random(8) that the helper refuses,
        # drawn as ends tanh(d / 2) e^{i t} with d uniform in [20, 36], the
        # second direction 0.3 to pi past the first: ends 34.3 and 34.8 out
        p = DiskPoint(-0.3557170814952432, -0.9345936860114675)
        q = DiskPoint(0.39948136443308807, 0.9167413154596422)
        with pytest.raises(DomainError):
            _scalar_chord_sum(p, q, 10_000)
        with pytest.raises(DomainError):
            geodesic_length_by_sampling(p, q, 10_000)


def _refusal(call, *args):
    """The class and message of the DomainError a call raises, or None."""
    try:
        call(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


def test_sas_domain_refusals_are_the_solvers_word_for_word():
    # the grid search's sides are refused by solve_sas's own check, in its
    # class and its exact words
    outside = (0.0, -1.0, math.nan, math.inf, -math.inf, D_MAX * (1.0 + 2.0**-52))
    for side in outside:
        for b, c in ((side, 1.0), (1.0, side)):
            want = _refusal(_check_sas_domain, b, c, 1.0)
            assert want is not None
            assert _refusal(grid_search_max_area, b, c, 1000) == want


class TestConvexityWitness:
    def test_fewer_than_three_vertices_bound_no_polygon(self):
        vs = [point_from_polar(1.0, 0.0), point_from_polar(1.0, 2.0), point_from_polar(1.0, 4.0)]
        assert oracle.intrinsic_convex_ccw(vs)
        assert not any(oracle.intrinsic_convex_ccw(vs[:k]) for k in range(3))


def random_triangles(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (
            rng.uniform(0.1, 3.0),
            rng.uniform(0.1, 3.0),
            rng.uniform(0.05, math.pi - 0.05),
        )


class TestEmbedding:
    def test_canonical_placement(self):
        A, B, C = embed_triangle(1.0, 1.0, math.pi / 2)
        t = math.tanh(0.5)
        assert A.x == 0.0 and A.y == 0.0
        assert B.x == pytest.approx(t, abs=1e-15) and B.y == 0.0
        assert C.x == pytest.approx(0.0, abs=1e-16)
        assert C.y == pytest.approx(t, abs=1e-15)

    def test_embedding_realizes_solution(self):
        for b, c, alpha in random_triangles(5, 100):
            sol = solve_sas(b, c, alpha)
            A, B, C = embed_triangle(b, c, alpha)
            assert hyp_distance(A, B) == pytest.approx(c, abs=1e-12)
            assert hyp_distance(A, C) == pytest.approx(b, abs=1e-12)
            assert hyp_distance(B, C) == pytest.approx(sol.a, abs=1e-12)
            assert angle_at_vertex(A, B, C) == pytest.approx(alpha, abs=1e-12)
            assert angle_at_vertex(B, A, C) == pytest.approx(sol.beta, abs=1e-9)
            assert angle_at_vertex(C, A, B) == pytest.approx(sol.gamma, abs=1e-9)

    def test_refusals_are_the_solvers_word_for_word(self):
        # sides and apex angles are refused by solve_sas's own check, in its
        # class and its exact words
        outside = (0.0, -1.0, math.nan, math.inf, -math.inf, D_MAX * (1.0 + 2.0**-52))
        for side in outside:
            for b, c in ((side, 1.0), (1.0, side)):
                want = _refusal(_check_sas_domain, b, c, 1.0)
                assert want is not None
                assert _refusal(embed_triangle, b, c, 1.0) == want
        for alpha in (*outside, ALPHA_EPS, math.pi - ALPHA_EPS):
            want = _refusal(_check_sas_domain, 1e-3, 1e-3, alpha)
            assert want is not None
            assert _refusal(embed_triangle, 1e-3, 1e-3, alpha) == want

    def test_small_side_matches_high_precision_law_of_cosines(self):
        # verify's euclidean-limit reference, d(B, C) of the embedded triangle
        # on its side range 1e-4..1.5e-3; worst 3.94 ulps of d
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(52)
        with mpmath.workdps(50):
            for _ in range(50):
                b = rng.uniform(1e-4, 1.5e-3)
                c = rng.uniform(1e-4, 1.5e-3)
                alpha = rng.uniform(0.1, math.pi - 0.1)
                mb, mc, ma = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(alpha)
                exact = mpmath.acosh(
                    mpmath.cosh(mb) * mpmath.cosh(mc)
                    - mpmath.sinh(mb) * mpmath.sinh(mc) * mpmath.cos(ma)
                )
                _, B, C = embed_triangle(b, c, alpha)
                d = hyp_distance(B, C)
                assert float(abs(d - exact)) <= 8 * math.ulp(d)


class TestConstruction:
    def test_omega_contains_both_vertices(self):
        for b, c, alpha in random_triangles(6, 100):
            _, B, C = embed_triangle(b, c, alpha)
            omega = omega_circle(B, C)
            for p in (B, C):
                on = math.hypot(p.x - omega.cx, p.y - omega.cy)
                assert on == pytest.approx(omega.radius, abs=1e-12)
            cx, cy, r = omega
            assert abs(cx * cx + cy * cy - 1.0 - r * r) < 1e-10

    def test_omega_rejects_collinear(self):
        with pytest.raises(DegenerateInputError):
            omega_circle(DiskPoint(0.2, 0.0), DiskPoint(0.6, 0.0))

    def test_omega_refuses_a_subnormal_diameter_pair_as_collinear(self):
        # p, q and the center are collinear and q - p is subnormal:
        # geodesic_through refuses the diameter's direction (tests/test_disk.py),
        # and omega_circle, which has no diameter to return, refuses the pair
        # as collinear first, so the two stay apart
        p, q = DiskPoint(0.0, 1.49252020513e-312), DiskPoint(0.0, 7.3588586708e-313)
        with pytest.raises(DegenerateInputError) as exc:
            omega_circle(p, q)
        assert str(exc.value) == "B, C and the center are collinear: the triangle is degenerate"

    @pytest.mark.parametrize("p, q", [
        ((2.0, 0.5), (0.3, 0.1)),
        ((0.2, 0.0), (0.6, 0.0)),
        (DiskPoint(0.2, 0.0), (0.6, 0.0)),
        (DiskPoint(0.1, 0.2), 0.5 + 0.5j),
    ])
    def test_omega_refuses_endpoints_that_are_not_disk_points(self, p, q):
        # a tuple is not checked inside the disk, and (2.0, 0.5) lies outside it
        with pytest.raises(DomainError) as exc:
            omega_circle(p, q)
        assert str(exc.value) == f"geodesic endpoints {p!r} and {q!r} are not both DiskPoints"

    def test_b_prime_input_validation(self):
        omega = build_figure1(1.0, 1.0, 1.0).omega
        for B, circle, error, message in [
            (DiskPoint(0.01, 0.01), omega, DomainError, "B does not lie on the given circle"),
            (DiskPoint(0.0, 0.0), EuclideanCircle(0.5, 0.0, 0.5), DegenerateInputError,
             "B at the center: the line AB is undefined"),
            # the circle passes through the center, so the other root is t = 0, short of B
            (DiskPoint(0.5, 0.0), EuclideanCircle(0.25, 0.0, 0.25), DegenerateInputError,
             "line AB does not meet the circle twice"),
        ]:
            with pytest.raises(error) as exc:
                b_prime_point(B, circle)
            assert str(exc.value) == message
