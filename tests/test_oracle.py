"""Tests for the brute-force reference implementations."""

import math

import numpy as np
import pytest

from hyplobe import (
    DiskPoint,
    DomainError,
    geodesic_through,
    hyp_distance,
    optimal_alpha,
    solve_sas,
)
from hyplobe.oracle import (
    count_local_maxima,
    curvature_corrected_side,
    euclidean_limit_triangle,
    geodesic_length_by_sampling,
    grid_search_max_area,
)


class TestGridSearch:
    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            grid_search_max_area(1.0, 1.0, 999)

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

    def test_area_is_unimodal(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.1, 3.0)
            assert count_local_maxima(b, c, 10_000) == 1


class TestGeodesicSampling:
    def test_needs_enough_segments(self):
        with pytest.raises(DomainError):
            geodesic_length_by_sampling(DiskPoint(0.1, 0.0), DiskPoint(0.5, 0.0), 100)

    def test_coincident_points(self):
        p = DiskPoint(0.2, 0.3)
        assert geodesic_length_by_sampling(p, DiskPoint(0.2, 0.3), 10_000) == 0.0

    def test_diameter_case(self):
        p, q = DiskPoint(-0.4, 0.0), DiskPoint(0.6, 0.0)
        sampled = geodesic_length_by_sampling(p, q, 10_000)
        assert sampled == pytest.approx(hyp_distance(p, q), abs=1e-8)

    def test_arc_case_converges_from_below(self):
        p, q = DiskPoint(0.5, 0.1), DiskPoint(-0.1, 0.6)
        direct = hyp_distance(p, q)
        sampled = geodesic_length_by_sampling(p, q, 10_000)
        assert sampled <= direct + 1e-12
        assert direct - sampled < 1e-6


def _scalar_chord_sum(p: DiskPoint, q: DiskPoint, segments: int) -> float:
    """The polyline length one DiskPoint and one hyp_distance at a time."""
    g = geodesic_through(p, q)
    if g.is_diameter:
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
        # both ends are inside, but near the boundary a sample of the arc
        # rounds onto or past the unit circle
        p = DiskPoint(-0.995674171030598, 0.09291364343397163)
        q = DiskPoint(0.9926845952024933, -0.12073646693378298)
        with pytest.raises(DomainError):
            _scalar_chord_sum(p, q, 10_000)
        with pytest.raises(DomainError):
            geodesic_length_by_sampling(p, q, 10_000)


class TestEuclideanLimit:
    def test_rejects_large_sides(self):
        with pytest.raises(DomainError):
            euclidean_limit_triangle(0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            curvature_corrected_side(0.5, 0.5, 1.0)

    def test_flat_triangle_identities(self):
        euc = euclidean_limit_triangle(3e-3, 4e-3, math.pi / 2)
        assert euc.a == pytest.approx(5e-3, rel=1e-14)
        assert euc.beta + euc.gamma == pytest.approx(math.pi / 2, abs=1e-14)
        assert euc.area == pytest.approx(6e-6, rel=1e-14)

    def test_defect_vanishes_at_small_scale(self):
        hyp = solve_sas(1e-3, 1e-3, 1.0)
        assert hyp.area < 1e-6  # defect of order sides^2

    def test_corrected_side_matches_high_precision_law_of_cosines(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(52)
        with mpmath.workdps(50):
            for _ in range(50):
                b = rng.uniform(5e-4, 1e-3)
                c = rng.uniform(5e-4, 1e-3)
                alpha = rng.uniform(0.1, math.pi - 0.1)
                mb, mc, ma = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(alpha)
                exact = mpmath.acosh(
                    mpmath.cosh(mb) * mpmath.cosh(mc)
                    - mpmath.sinh(mb) * mpmath.sinh(mc) * mpmath.cos(ma)
                )
                # truncation error is O(sides^4) relative: ~1e-14 at 1e-3
                rel = abs(curvature_corrected_side(b, c, alpha) - exact) / exact
                assert rel < 5e-14
