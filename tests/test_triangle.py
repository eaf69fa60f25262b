"""Tests for the SAS solver, the disk construction and the area maximizer."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hyplobe import (
    ALPHA_EPS,
    DiskPoint,
    DomainError,
    EuclideanCircle,
    Figure1,
    HyplobeError,
    TriangleSolution,
    build_figure1,
    optimal_alpha,
    optimality_certificate,
    point_from_polar,
    solve_sas,
)
from hyplobe.triangle import (
    D_MAX,
    OptimalityCertificate,
    OptimalTriangle,
    _check_sas_domain,
    _check_solution,
)
from hyplobe.oracle import (
    _euclidean_angle,
    embed_triangle,
    figure1_by_construction,
    grid_search_max_area,
    tau_angle,
)

# acosh(cosh(1)^2), frozen from a 50-digit mpmath evaluation: the hypotenuse
# of the right isoceles triangle with legs 1
PYTHAGORAS_A = 1.513374006596504


def golden_kernel_inputs():
    """The inputs of the triangle-kernel golden, edge cases and refusals included."""
    path = Path(__file__).resolve().parent / "golden" / "regen.py"
    spec = importlib.util.spec_from_file_location("golden_regen", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen.kernel_inputs()


def random_triangles(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (
            rng.uniform(0.1, 3.0),
            rng.uniform(0.1, 3.0),
            rng.uniform(0.05, math.pi - 0.05),
        )


class TestSolveSas:
    def test_hyperbolic_pythagoras(self):
        sol = solve_sas(1.0, 1.0, math.pi / 2)
        assert sol.a == pytest.approx(PYTHAGORAS_A, abs=1e-14)
        assert math.cosh(sol.a) == pytest.approx(math.cosh(1.0) ** 2, rel=1e-15)

    def test_isoceles_symmetry(self):
        for b, c, alpha in random_triangles(1, 50):
            sol = solve_sas(b, b, alpha)
            assert sol.beta == pytest.approx(sol.gamma, abs=1e-13)

    def test_swap_symmetry(self):
        for b, c, alpha in random_triangles(2, 50):
            s1 = solve_sas(b, c, alpha)
            s2 = solve_sas(c, b, alpha)
            assert s1.a == pytest.approx(s2.a, abs=1e-14)
            assert s1.beta == pytest.approx(s2.gamma, abs=1e-13)

    def test_angle_defect_consistency(self):
        # the area comes from the half-angle formula, not from the defect, so
        # the two agree to a few ulps of pi rather than bit for bit
        for b, c, alpha in random_triangles(3, 100):
            sol = solve_sas(b, c, alpha)
            assert abs(sol.area - (math.pi - (sol.alpha + sol.beta + sol.gamma))) <= 4e-15
            assert sol.area > 0.0

    def test_matches_high_precision_reference(self):
        # the reference shares no formula with the solver: side a from the
        # law of cosines, the base angles from the law of cosines on (a, b, c),
        # the area as the defect and alpha* as the root of alpha = beta + gamma,
        # all at 80 digits so that the defect and acos near 0 keep enough
        mpmath = pytest.importorskip("mpmath")

        def angles(b, c, alpha):
            a = mpmath.acosh(
                mpmath.cosh(b) * mpmath.cosh(c) - mpmath.sinh(b) * mpmath.sinh(c) * mpmath.cos(alpha)
            )

            def opposite(x, y, z):
                # the angle opposite side x
                return mpmath.acos(
                    (mpmath.cosh(y) * mpmath.cosh(z) - mpmath.cosh(x))
                    / (mpmath.sinh(y) * mpmath.sinh(z))
                )

            return opposite(b, a, c), opposite(c, a, b)

        rng = np.random.default_rng(30)
        worst = 0.0
        with mpmath.workdps(80):
            for _ in range(500):
                b, c = np.exp(rng.uniform(math.log(1e-6), math.log(20.0), 2))
                alpha = rng.uniform(0.01, math.pi - 0.01)
                sol = solve_sas(float(b), float(c), float(alpha))
                alpha_star = optimal_alpha(float(b), float(c)).alpha_star
                mb, mc, ma = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(alpha)
                beta, gamma = angles(mb, mc, ma)
                area = mpmath.pi - (ma + beta + gamma)
                ref_star = mpmath.findroot(
                    lambda x: x - sum(angles(mb, mc, x)), mpmath.mpf(alpha_star)
                )
                for got, ref in (
                    (sol.area, area),
                    (sol.beta, beta),
                    (sol.gamma, gamma),
                    (alpha_star, ref_star),
                ):
                    worst = max(worst, float(abs(got - ref) / ref))
        assert worst <= 1e-14

    def test_tiny_triangle_matches_euclidean(self):
        # the side against the 50-digit law of cosines, to 4 ulps of a; beta
        # only against the flat triangle's, atan2(b sin alpha, c - b cos alpha),
        # where the genuine hyperbolic/Euclidean gap scales as sides^2
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        with mpmath.workdps(50):
            for _ in range(100):
                b = rng.uniform(1e-4, 1e-3)
                c = rng.uniform(1e-4, 1e-3)
                alpha = rng.uniform(0.1, math.pi - 0.1)
                hyp = solve_sas(b, c, alpha)
                a = _sas_reference(b, c, alpha)[0]
                assert abs(hyp.a - a) <= 4 * math.ulp(hyp.a)
                flat_beta = math.atan2(b * math.sin(alpha), c - b * math.cos(alpha))
                assert hyp.beta == pytest.approx(flat_beta, rel=1e-5)

    def test_defect_vanishes_at_small_scale(self):
        hyp = solve_sas(1e-3, 1e-3, 1.0)
        assert hyp.area < 1e-6  # defect of order sides^2

    def test_small_right_triangle_is_nearly_flat(self):
        # the 3-4-5 right triangle at scale 1e-3: the hypotenuse is long by
        # (b c)^2 / (6 a_E^2) ~ 9.6e-7 relative, the area short by ~2.1e-6,
        # and beta + gamma falls short of pi/2 by the area
        hyp = solve_sas(3e-3, 4e-3, math.pi / 2)
        assert hyp.a == pytest.approx(5e-3, rel=2e-6)
        assert hyp.area == pytest.approx(6e-6, rel=5e-6)
        assert hyp.beta + hyp.gamma == pytest.approx(math.pi / 2, abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            solve_sas(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            solve_sas(1.0, 21.0, 1.0)
        with pytest.raises(DomainError):
            solve_sas(1.0, 1.0, 0.5 * ALPHA_EPS)
        with pytest.raises(DomainError):
            solve_sas(1.0, 1.0, math.pi)

    def test_a_missing_apex_angle_is_refused_as_build_figure1_refuses_it(self):
        # optimal_alpha selects its maximizer with a private sentinel, so None
        # is an apex angle like any other and fails the comparison with floats
        for kernel in (solve_sas, build_figure1):
            with pytest.raises(TypeError):
                kernel(1.0, 1.2, None)

    def test_solution_validation(self):
        with pytest.raises(DomainError):
            TriangleSolution(a=1, b=1, c=1, alpha=1.2, beta=1.2, gamma=1.2, area=0.1)
        with pytest.raises(DomainError):
            TriangleSolution(a=1, b=1, c=1, alpha=0.5, beta=0.5, gamma=0.5, area=1.0)


def _composed_sas(b, c, alpha, u, one_minus_u):
    """The SAS core as a composition of its steps: sinh(a / 2) as the hypot of
    sinh((b - c) / 2) and sqrt(sinh b) sqrt(sinh c) sin(alpha / 2), the
    normal-float floor on the area and the base angles, then _check_solution."""
    half_sin = math.sin(0.5 * alpha)
    one_minus_cos = 2.0 * half_sin * half_sin
    sin_alpha = math.sin(alpha)
    sinh_b = math.sinh(b)
    sinh_c = math.sinh(c)
    half_sinh_a = math.hypot(
        math.sinh(0.5 * (b - c)), math.sqrt(sinh_b) * math.sqrt(sinh_c) * half_sin
    )
    a = 2.0 * math.asinh(half_sinh_a)
    beta = math.atan2(
        sin_alpha * sinh_b, math.sinh(c - b) + math.cosh(c) * sinh_b * one_minus_cos
    )
    gamma = math.atan2(
        sin_alpha * sinh_c, math.sinh(b - c) + math.cosh(b) * sinh_c * one_minus_cos
    )
    area = 2.0 * math.atan2(u * sin_alpha, one_minus_u + u * one_minus_cos)
    if min(area, beta, gamma) < sys.float_info.min:
        raise DomainError(
            f"triangle too small: its area or an angle is below {sys.float_info.min}"
        )
    _check_solution((a,), (beta, gamma), alpha + beta + gamma, area)
    return tuple.__new__(TriangleSolution, (a, b, c, alpha, beta, gamma, area))


def _tanh_half_product(b, c):
    tb = math.tanh(0.5 * b)
    tc = math.tanh(0.5 * c)
    return tb * tc, 2.0 / (math.exp(b) + 1.0) + tb * 2.0 / (math.exp(c) + 1.0)


def _composed_solve_sas(b, c, alpha):
    _check_sas_domain(b, c, alpha)
    return _composed_sas(b, c, alpha, *_tanh_half_product(b, c))


def _composed_optimal_alpha(b, c):
    if not (0.0 < b <= D_MAX and 0.0 < c <= D_MAX):
        raise DomainError(f"sides must lie in (0, {D_MAX}]")
    u, one_minus_u = _tanh_half_product(b, c)
    alpha_star = 2.0 * math.atan(math.sqrt(one_minus_u / (1.0 + u)))
    _check_sas_domain(b, c, alpha_star)
    return OptimalTriangle(alpha_star, _composed_sas(b, c, alpha_star, u, one_minus_u))


def _composed_certificate(fig):
    bx, by = fig.b_prime
    cx, cy = fig.C
    hx, hy = cx - bx, cy - by
    dist = abs(bx * hy - by * hx) / abs(complex(hx, hy))
    return OptimalityCertificate(
        _euclidean_angle(cx, cy, *fig.A, bx, by),
        abs(dist - fig.psi.radius),
        abs(abs(math.atan2(cy, cx)) + fig.tau - 0.5 * math.pi),
    )


def _outcome(kernel, *args):
    """The repr of a kernel's result (reprs tell signed zeros apart), or its
    refusal's class and message."""
    try:
        return repr(kernel(*args))
    except HyplobeError as exc:
        return f"{type(exc).__name__}: {exc}"


def _edge_sweep(seed, count):
    """Seeded inputs mixing the domain with its edges and beyond: sides <= 0
    or > D_MAX, apex angles at and past (ALPHA_EPS, pi - ALPHA_EPS), NaN and
    infinities."""
    sides = [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-12, 20.0, math.nextafter(20.0, 21.0), 25.0]
    angles = [
        ALPHA_EPS,
        math.nextafter(ALPHA_EPS, 1.0),
        math.pi - ALPHA_EPS,
        math.nextafter(math.pi - ALPHA_EPS, 0.0),
        0.0,
        -0.1,
        math.pi,
        math.pi + 0.1,
    ]
    odd = [math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        b, c = (float(x) for x in np.exp(rng.uniform(math.log(1e-9), math.log(25.0), 2)))
        alpha = float(rng.uniform(-0.1, math.pi + 0.1))
        pick = rng.integers(4)
        if pick == 1:
            b = sides[rng.integers(len(sides))]
        elif pick == 2:
            alpha = angles[rng.integers(len(angles))]
        elif pick == 3:
            which = rng.integers(3)
            x = odd[rng.integers(3)]
            b, c, alpha = (x if k == which else v for k, v in enumerate((b, c, alpha)))
        yield b, c, alpha


def _figure_outcome(build, *args):
    """The repr of a built figure, or its refusal's class and message."""
    try:
        fig = build(*args)
    except HyplobeError as exc:
        return f"{type(exc).__name__}: {exc}"
    assert type(fig) is Figure1
    assert [type(v) for v in fig[:5]] == [DiskPoint] * 3 + [EuclideanCircle] * 2
    return repr(fig)


def _absolute_threshold_scans(seed, count, steps):
    """Apex angles stepped an ulp at a time across |C - B| = 1e-12, just above
    ALPHA_EPS: the absolute bound the coincident-points guard once had.

    Each scan has sides b and c of 6e-7 to 2e-6 and 2 * steps + 1 consecutive
    floats centred on the crossing. C - B leaves B at an angle phi to the
    x-axis: phi = pi/2 in every other scan, the isosceles case b = c, where
    C - B is nearly vertical; elsewhere phi is drawn, so that both of its
    components count in |C - B|.
    """
    dist = 1e-12
    rng = np.random.default_rng(seed)
    for n in range(count):
        phi = math.pi / 2 if n % 2 else rng.uniform(0.3, 1.3)
        alpha = ALPHA_EPS * (1.0 + rng.uniform(1e-9, 1e-8))
        rb = dist * math.sin(phi) / math.sin(alpha)
        b = 2.0 * math.atanh(rb)
        c = b if n % 2 else 2.0 * math.atanh(rb - dist * math.cos(phi))
        # the crossing for B and C as rounded: |C - B|^2 = x^2 + (rb sin alpha)^2
        rb, px = math.tanh(0.5 * b), math.tanh(0.5 * c)
        for _ in range(2):
            x = rb * math.cos(alpha) - px
            alpha = math.asin(math.sqrt(dist**2 - x * x) / rb)
        for _ in range(steps):
            alpha = math.nextafter(alpha, 0.0)
        scan = []
        for _ in range(2 * steps + 1):
            scan.append(alpha)
            alpha = math.nextafter(alpha, 1.0)
        yield b, c, scan


def _subnormal_side_scans(steps):
    """(b, c, alpha) with c subnormal and b the 2 * steps + 1 floats centred
    on c, at apex angles at both bounds and between: where B and C round to
    one point or onto one line through the center."""
    alphas = [
        math.nextafter(ALPHA_EPS, 1.0), 1e-3, 0.5, 1.0, math.pi / 2, 2.0, 3.0,
        math.nextafter(math.pi - ALPHA_EPS, 0.0),
    ]
    for c in (5e-324, 1e-323, 2e-323, 1e-322, 1e-320, 1e-315, 1e-310):
        b = c
        for _ in range(steps):
            b = math.nextafter(b, 0.0)
        for _ in range(2 * steps + 1):
            yield from ((b, c, alpha) for alpha in alphas)
            b = math.nextafter(b, 1.0)


def _sas_domain_corners():
    """Inputs at the SAS domain's corners, where build_figure1's arithmetic is
    closest to its guards.

    Sides within 1e-9 of D_MAX, each with the other; b from 5e-324 up to
    D_MAX, with c of 1e-12, 1e-5 and 1; every pair at apex angles a float
    inside either bound and within a relative 1e-9 to 1e-3 of it.
    """
    rel = (1e-9, 1e-7, 1e-5, 1e-3)
    alphas = [
        math.nextafter(ALPHA_EPS, 1.0),
        *(ALPHA_EPS * (1.0 + r) for r in rel),
        *((math.pi - ALPHA_EPS) * (1.0 - r) for r in rel),
        math.nextafter(math.pi - ALPHA_EPS, 0.0),
    ]
    far = (D_MAX - 1e-9, math.nextafter(D_MAX, 0.0), D_MAX)
    pairs = [(b, c) for b in far for c in far]
    rising = [5e-324, 1e-323, 1e-320, *(10.0**k for k in range(-318, 1, 6)), 5.0, D_MAX]
    pairs += [(b, c) for b in rising for c in (1e-12, 1e-5, 1.0)]
    return [(b, c, alpha) for b, c in pairs for alpha in alphas]


def _sas_reference(b, c, alpha):
    """(a, beta, gamma, area) of the SAS triangle at mpmath's working precision:
    a from the law of cosines, the base angles from the law of cosines on
    (a, b, c), the area as the angle defect. It shares no formula with the
    solver."""
    import mpmath

    ch, sh = mpmath.cosh, mpmath.sinh
    a = mpmath.acosh(ch(b) * ch(c) - sh(b) * sh(c) * mpmath.cos(alpha))

    def opposite(x, y, z):
        return mpmath.acos((ch(y) * ch(z) - ch(x)) / (sh(y) * sh(z)))

    beta, gamma = opposite(b, a, c), opposite(c, a, b)
    return a, beta, gamma, mpmath.pi - (alpha + beta + gamma)


def _figure_errors(fig, b, c, alpha):
    """build_figure1's fields against the exact construction from (b, c, alpha)
    at 80 digits, in eps: cx, cy relative to the sum of the magnitudes of its
    two terms, (px - rb)(1 - u)/(2u) and 2 cx sin^2(alpha/2), over sin(alpha),
    the radius, B' and tau. The reference solves 2 center.P = 1 + |P|^2 at B
    and C by Cramer's rule, takes the radius as the center's distance from B
    and tau as the Euclidean angle at B' = 1/px, so it shares no formula with
    the kernel but px and rb."""
    import mpmath

    with mpmath.workdps(80):
        mb, mc, ma = (mpmath.mpf(x) for x in (b, c, alpha))
        px, rb = mpmath.tanh(mc / 2), mpmath.tanh(mb / 2)
        qx, qy = rb * mpmath.cos(ma), rb * mpmath.sin(ma)
        rp, rq = (1 + px * px) / 2, (1 + rb * rb) / 2
        cx, cy = rp / px, (px * rq - qx * rp) / (px * qy)
        u = px * rb
        cy_terms = abs(px - rb) * (1 - u) / (2 * u) + 2 * cx * mpmath.sin(ma / 2) ** 2
        radius = mpmath.hypot(cx - px, cy)
        bp = 1 / px
        tau = abs(mpmath.arg((mpmath.mpc(qx, qy) - bp) / -bp))
        errors = {
            "cx": abs(fig.omega.cx - cx) / cx,
            "cy": abs(fig.omega.cy - cy) / (cy_terms / mpmath.sin(ma)),
            "radius": abs(fig.omega.radius - radius) / radius,
            "b_prime": abs(fig.b_prime[0] - bp) / bp,
            "tau": abs(fig.tau - tau) / tau,
        }
    return {k: float(v) / sys.float_info.epsilon for k, v in errors.items()}


def _tiny_dps(b, c):
    """Digits for _sas_reference on sides b and c: the cosines of the law
    cancel to O(b c), and pi minus the angle sum to the area, O(b c) again;
    keep 40 digits beyond both."""
    return 40 - 2 * math.floor(math.log10(b) + math.log10(c))


def _assert_refused_by_the_floor(exc, ref):
    """A refusal by the normal-float floor, where _sas_reference's area or an
    angle is below it; never for side a, nor for the angle sum."""
    assert f"its area or an angle is below {sys.float_info.min}" in str(exc), exc
    assert min(ref[1:]) < sys.float_info.min * (1.0 + 1e-15), ref


class TestStraightLineKernels:
    def test_kernels_match_their_composed_helpers_bit_for_bit(self):
        # solve_sas, optimal_alpha and optimality_certificate inline the work
        # of their helpers; they must return what the composition returns, in
        # every bit, or refuse with the same class and message
        inputs = [*golden_kernel_inputs(), *_edge_sweep(14, 3000)]
        # sides at the bottom of the float range, where side a rounds to 0
        tiny = (5e-324, 1e-310, 1e-160)
        inputs += [(b, c, alpha) for b in tiny for c in tiny for alpha in (1e-5, 1.0, 3.0)]
        refusals = set()
        for b, c, alpha in inputs:
            got = _outcome(solve_sas, b, c, alpha)
            assert got == _outcome(_composed_solve_sas, b, c, alpha), (b, c, alpha)
            opt = _outcome(optimal_alpha, b, c)
            assert opt == _outcome(_composed_optimal_alpha, b, c), (b, c)
            refusals.update(r for r in (got, opt) if "Error: " in r)
            angles = [alpha]
            if "Error: " not in opt:
                angles.append(optimal_alpha(b, c).alpha_star)
            for a in angles:
                try:
                    fig = build_figure1(b, c, a)
                except HyplobeError:
                    continue
                assert _outcome(optimality_certificate, fig) == _outcome(
                    _composed_certificate, fig
                ), (b, c, a)
        # every check of the core was reached: side a underflows only where
        # the area is below the floor, which refuses first
        for message in ("sides must lie", "apex angle", "triangle too small"):
            assert any(message in r for r in refusals), message
        # and no refusal is the angle sum's, which rounds to pi on tiny triangles
        assert not any("angle defect" in r or "angle sum" in r for r in refusals)


    def test_tiny_triangles_are_accurate_or_refused_as_domain_errors(self):
        # sides log-uniform on [1e-160, 1e-6], past the floor near sides of
        # 2e-154 where the area leaves the normal floats: solve_sas and
        # optimal_alpha are within 1e-15 of a law-of-cosines reference or
        # refuse the floor, and then only where the reference's area or an
        # angle is below the smallest normal float, never the angle sum;
        # build_figure1 is within 1e-15 of the exact construction,
        # compared as points, or refuses as a DomainError below sides of 1e-147
        mpmath = pytest.importorskip("mpmath")
        beyond = ("triangle too small", "B' lies too far out")

        def err(got, ref):
            return float(abs(got - ref) / abs(ref))

        rng = np.random.default_rng(34)
        worst = 0.0
        counts = {"solved": 0, "optimal": 0, "built": 0}
        for _ in range(1000):
            b, c = (float(x) for x in np.exp(rng.uniform(math.log(1e-160), math.log(1e-6), 2)))
            alpha = float(rng.uniform(0.01, math.pi - 0.01))
            with mpmath.workdps(_tiny_dps(b, c)):
                mb, mc, ma = (mpmath.mpf(x) for x in (b, c, alpha))
                tb, tc = mpmath.tanh(mb / 2), mpmath.tanh(mc / 2)
                ref = _sas_reference(mb, mc, ma)
                try:
                    sol = solve_sas(b, c, alpha)
                except DomainError as exc:
                    _assert_refused_by_the_floor(exc, ref)
                else:
                    worst = max(worst, *map(err, (sol.a, sol.beta, sol.gamma, sol.area), ref))
                    counts["solved"] += 1
                try:
                    opt = optimal_alpha(b, c)
                except DomainError as exc:
                    # at alpha* = acos(u)
                    _assert_refused_by_the_floor(exc, _sas_reference(mb, mc, mpmath.acos(tb * tc)))
                else:
                    sol, ref = opt.solution, _sas_reference(mb, mc, mpmath.mpf(opt.alpha_star))
                    worst = max(
                        worst,
                        err(opt.alpha_star, mpmath.acos(tb * tc)),
                        *map(err, (sol.a, sol.beta, sol.gamma, sol.area), ref),
                    )
                    counts["optimal"] += 1
                C = tb * mpmath.expj(ma)
                try:
                    fig = build_figure1(b, c, alpha)
                except DomainError as exc:
                    assert any(m in str(exc) for m in beyond), (b, c, alpha)
                    assert min(b, c) < 1e-147, (b, c, alpha)
                    continue
                counts["built"] += 1
                # omega's center from the exact orthogonal-circle formula
                rp, rq = (1 + tc * tc) / 2, (1 + tb * tb) / 2
                center = mpmath.mpc(rp * C.imag, tc * rq - C.real * rp) / (tc * C.imag)
                radius = mpmath.sqrt(abs(center) ** 2 - 1)
                u = tb * tc
                area = 2 * mpmath.atan2(u * mpmath.sin(ma), 1 - u * mpmath.cos(ma))
                for got, ref in (
                    (fig.B.x, tc),
                    (complex(*fig.C), C),
                    (complex(fig.omega.cx, fig.omega.cy), center),
                    (fig.omega.radius, radius),
                    (fig.psi.radius, tb),
                    (fig.b_prime[0], 1 / tc),
                    (fig.tau, area / 2),
                ):
                    worst = max(worst, err(got, ref))
                assert fig.B.y == 0.0 and fig.b_prime[1] == 0.0
        assert worst <= 1e-15, worst
        assert min(counts.values()) >= 900, counts

    def test_thin_tiny_triangle_is_solved(self):
        # its area (5e-305) and angles are normal floats, but cosh a - 1
        # (5e-311) is not, and a floor on it once refused the triangle
        mpmath = pytest.importorskip("mpmath")
        b = c = 1e-149
        alpha = 1.000001e-6
        sol = solve_sas(b, c, alpha)
        with mpmath.workdps(_tiny_dps(b, c)):
            ref = _sas_reference(*(mpmath.mpf(x) for x in (b, c, alpha)))
        for got, want in zip((sol.a, sol.beta, sol.gamma, sol.area), ref):
            assert abs(got - want) <= 4 * math.ulp(float(want)), (got, want)

    def test_thin_tiny_isoceles_triangles_are_solved_down_to_the_floor(self):
        # b = c on a log grid across the floor, apex angles from the smallest
        # in the domain up, and alpha*: each triangle is solved within 1e-15
        # of the reference, or refused where the reference's area or an
        # angle is below the smallest normal float
        mpmath = pytest.importorskip("mpmath")
        alphas = [math.nextafter(ALPHA_EPS, 1.0), *(10.0 ** k for k in range(-5, 1)), 2.0, 3.0]
        worst, counts = 0.0, {"solved": 0, "refused": 0}
        for b in (float(x) for x in np.logspace(-155, -145, 21)):
            with mpmath.workdps(_tiny_dps(b, b)):
                mb = mpmath.mpf(b)
                for alpha in [*alphas, None]:
                    try:
                        if alpha is None:
                            sol = optimal_alpha(b, b).solution
                        else:
                            sol = solve_sas(b, b, alpha)
                    except DomainError as exc:
                        if alpha is None:  # alpha* = acos(tanh^2(b / 2))
                            alpha = mpmath.acos(mpmath.tanh(mb / 2) ** 2)
                        _assert_refused_by_the_floor(exc, _sas_reference(mb, mb, alpha))
                        counts["refused"] += 1
                        continue
                    ref = _sas_reference(mb, mb, mpmath.mpf(sol.alpha))
                    got = (sol.a, sol.beta, sol.gamma, sol.area)
                    worst = max(worst, *(float(abs(g - r) / r) for g, r in zip(got, ref)))
                    counts["solved"] += 1
        assert worst <= 1e-15, worst
        assert min(counts.values()) >= 50, counts


class TestConstruction:
    def test_b_prime_is_unit_inversion(self):
        for b, c, alpha in random_triangles(7, 200):
            fig = build_figure1(b, c, alpha)
            nb = math.hypot(*fig.B)
            assert nb * math.hypot(*fig.b_prime) == pytest.approx(1.0, abs=1e-10)
            # B' lies on the ray from the center through B, outside the disk
            cross = fig.B.x * fig.b_prime[1] - fig.B.y * fig.b_prime[0]
            assert abs(cross) < 1e-12
            assert math.hypot(*fig.b_prime) > 1.0

    def test_b_prime_on_omega(self):
        for b, c, alpha in random_triangles(8, 100):
            fig = build_figure1(b, c, alpha)
            d = math.hypot(fig.b_prime[0] - fig.omega.cx, fig.b_prime[1] - fig.omega.cy)
            assert d == pytest.approx(fig.omega.radius, abs=1e-10)

    def test_b_prime_near_center_matches_high_precision_reference(self):
        # B close to the center puts omega's center about 1 / (2|B|) out,
        # where its power with respect to the center cancels; B' must still
        # be the inversion of B, and tau the angle at coth(c/2) from 50 digits.
        # The last three have omega radii of 1e8, 2e7 and 1.7e7, where
        # rounding alone moves |B - center| by more than 1e-9.
        mpmath = pytest.importorskip("mpmath")
        cases = [(1.0, 1e-6, alpha) for alpha in np.linspace(0.1, 3.0, 12)]
        cases += [(3e-6, 3e-6, math.pi - 1e-3), (1.76e-6, 18.8, 1.570795)]
        cases += [
            (1.0, 1e-8, 1.5),
            (1.0, 1e-6, math.pi - 0.05),
            (0.1415081408154316, 3.903265774395751e-06, 3.126439646976721),
        ]
        with mpmath.workdps(50):
            for b, c, alpha in cases:
                fig = build_figure1(b, c, float(alpha))
                nb = math.hypot(*fig.B)
                assert nb * math.hypot(*fig.b_prime) == pytest.approx(1.0, rel=1e-14)
                assert 2.0 * fig.tau == pytest.approx(solve_sas(b, c, alpha).area, rel=1e-14)
                bp = mpmath.coth(mpmath.mpf(c) / 2)
                C = mpmath.tanh(mpmath.mpf(b) / 2) * mpmath.expj(mpmath.mpf(float(alpha)))
                tau = abs(mpmath.arg((C - bp) / -bp))
                assert fig.tau == pytest.approx(float(tau), rel=1e-13)

    def test_b_next_to_the_center_builds_or_refuses_as_a_domain_error(self):
        # B = (tanh(c/2), 0) is never refused for being near the center: down
        # to |B| ~ 1e-154 the figure is built and 2 tau is the area to 50
        # digits; below that B' squared overflows, or smaller still the area
        # is below the normal floor, each a DomainError
        mpmath = pytest.importorskip("mpmath")
        cs = [2e-12, *(10.0**-k for k in range(12, 324)), 5e-324]
        worst = 0.0
        built = 0
        with mpmath.workdps(50):
            for b in (1.0, 5.0, 19.0):
                for c in cs:
                    for alpha in (1e-3, 1.0, math.pi / 2, 3.0):
                        try:
                            fig = build_figure1(b, c, alpha)
                        except DomainError as exc:
                            assert type(exc) is DomainError and c < 2e-154, (b, c, alpha)
                            continue
                        built += 1
                        mb, mc, ma = (mpmath.mpf(x) for x in (b, c, alpha))
                        u = mpmath.tanh(mb / 2) * mpmath.tanh(mc / 2)
                        area = 2 * mpmath.atan2(u * mpmath.sin(ma), 1 - u * mpmath.cos(ma))
                        # solve_sas solves it too: its area is far above the floor
                        assert solve_sas(b, c, alpha).area >= 1e-160, (b, c, alpha)
                        worst = max(worst, float(abs(2.0 * fig.tau - area) / area))
                        bp = fig.b_prime[0]
                        assert fig.B.x * bp == pytest.approx(1.0, rel=1e-15)
        assert built > 1000
        assert worst <= 4e-16

    def test_pinned_right_isoceles_figure(self):
        # all values frozen from the verified implementation (regression pins)
        fig = build_figure1(1.0, 1.0, math.pi / 2)
        assert fig.omega.cx == pytest.approx(1.3130352854993312, abs=1e-12)
        assert fig.omega.cy == pytest.approx(1.3130352854993312, abs=1e-12)
        assert fig.omega.radius == pytest.approx(1.5646479865875969, abs=1e-12)
        assert fig.b_prime[0] == pytest.approx(2.1639534137386525, abs=1e-12)
        assert fig.b_prime[1] == pytest.approx(0.0, abs=1e-15)
        assert fig.tau == pytest.approx(0.21039198081903648, abs=1e-12)
        # b_prime = 1 / tanh(1/2) = coth(1/2) on the x-axis
        assert fig.b_prime[0] == pytest.approx(1.0 / math.tanh(0.5), abs=1e-13)

    def test_area_equals_two_tau(self):
        # tau is the half-angle area, bit for bit; tau_angle reads it off the
        # figure's B' and C to a few ulps
        worst = 0.0
        for b, c, alpha in random_triangles(9, 300):
            sol = solve_sas(b, c, alpha)
            fig = build_figure1(b, c, alpha)
            assert sol.area == 2.0 * fig.tau
            worst = max(worst, abs(tau_angle(fig) - fig.tau) / math.ulp(fig.tau))
        assert worst <= 4, worst

    def test_figure_holds_to_the_exact_construction_wherever_the_primitives_build(self):
        # B and C are embed_triangle's, bit for bit; omega, B' and tau are
        # within 5 eps of the exact construction from (b, c, alpha) (cy of
        # its terms; 3.95 measured), and the kernel refuses no input that the
        # oracle's step-by-step construction builds
        pytest.importorskip("mpmath")
        inputs = [*golden_kernel_inputs(), *random_triangles(12, 200), *_sas_domain_corners()]
        # B next to the center: built down to |B| ~ 1e-154, refused below
        inputs += [
            (b, c, alpha)
            for b in (1e-20, 1e-6, 1.0)
            for c in (5e-324, 1e-310, 1e-300, 1e-160, 1e-154, 1e-12, 2e-12)
            for alpha in (1e-5, 1.0, 3.0)
        ]
        for b, c, _ in inputs[:]:
            try:
                inputs.append((b, c, optimal_alpha(b, c).alpha_star))
            except DomainError:
                pass
        refusals = set()
        worst = 0.0
        for b, c, alpha in inputs:
            got = _figure_outcome(build_figure1, b, c, alpha)
            if not got.startswith("Figure1("):
                assert not _figure_outcome(figure1_by_construction, b, c, alpha).startswith(
                    "Figure1("
                ), (b, c, alpha)
                refusals.add(got)
                continue
            fig = build_figure1(b, c, alpha)
            assert (fig.B, fig.C) == (point_from_polar(c, 0.0), point_from_polar(b, alpha))
            assert fig.psi == (0.0, 0.0, point_from_polar(b, 0.0).x)
            assert fig.b_prime[1] == 0.0
            worst = max(worst, *_figure_errors(fig, b, c, alpha).values())
        assert worst <= 5.0, worst
        # beyond the domain, the area below the normal floor, and B' beyond the floats
        assert {r.split(":")[1] for r in refusals if "sides" not in r and "apex angle" not in r} == {
            " triangle too small", " B' lies too far out"
        }

    def test_omega_passes_through_b_c_and_b_prime_at_the_domain_corners(self):
        # B, C and B' lie on omega to 2 eps of the larger of 1 and its radius
        # (0.99 measured), the rounding of the points and of their distance
        # from its center, at the domain's corners and on draws with b and c
        # in [8, 20] and alpha near either end, where the Cramer solve's
        # center was up to 1e-4 of the radius off
        inputs = _sas_domain_corners()
        rng = np.random.default_rng(37)
        for _ in range(2000):
            b, c = rng.uniform(8.0, D_MAX, 2)
            r = 10.0 ** rng.uniform(-9.0, -1.0)
            near_pi = (math.pi - ALPHA_EPS) * (1.0 - r)
            alpha = ALPHA_EPS * (1.0 + r) if rng.random() < 0.5 else near_pi
            inputs.append((float(b), float(c), alpha))
        inputs.append((17.75151285041243, 17.602277432969405, 1.0062372029023055e-06))
        worst = 0.0
        built = 0
        for b, c, alpha in inputs:
            try:
                fig = build_figure1(b, c, alpha)
            except DomainError:
                continue
            built += 1
            cx, cy, radius = fig.omega
            for x, y in (fig.B, fig.C, fig.b_prime):
                worst = max(worst, abs(math.hypot(x - cx, y - cy) - radius) / max(1.0, radius))
        assert built >= 3600, built
        assert worst <= 2 * sys.float_info.epsilon, worst / sys.float_info.epsilon

    def test_tiny_figures_are_built_wherever_solve_sas_solves(self):
        # a figure is refused where solve_sas solves only when B' squared
        # overflows (c below ~1.6e-154). Every built figure holds to 3 eps of
        # the exact construction from (b, c, alpha) at 80 digits (2.2
        # measured): cx, the radius, B' and tau, and cy relative to its
        # terms; 2 tau is the area, bit for bit
        pytest.importorskip("mpmath")
        built = 0
        for b in (1e-300, 1e-200, 1e-160, 1e-154, 1e-150, 1e-20, 1e-6, 1.0):
            for c in (5e-324, 1e-310, 1e-300, 1e-160, 1e-154, 1e-150, 1e-12, 1.0):
                for alpha in (1e-5, 1.0, 3.0):
                    try:
                        sol = solve_sas(b, c, alpha)
                    except DomainError:
                        continue
                    try:
                        fig = build_figure1(b, c, alpha)
                    except DomainError as exc:
                        assert str(exc) == "B' lies too far out: its products overflow"
                        assert c < 2e-154, (b, c, alpha)
                        continue
                    built += 1
                    assert 2.0 * fig.tau == sol.area, (b, c, alpha)
                    errors = _figure_errors(fig, b, c, alpha)
                    assert max(errors.values()) <= 3.0, (b, c, alpha, errors)
        # 25 of the 84 triangles solve_sas solves have B' overflow
        assert built == 59

    def test_figures_with_an_area_below_twice_the_floor_are_built(self):
        # the area is about 2 px qy; a kernel that divided by px qy refused
        # areas in [_TINY, 2 _TINY). b is stepped across that band at each c
        # and alpha; wherever solve_sas solves, the figure is built, 2 tau is
        # the area and every field holds to 3 eps (1.7 measured). At c = 10
        # solve_sas refuses the whole band (beta is below the floor).
        pytest.importorskip("mpmath")
        tiny = sys.float_info.min
        built = 0
        for c in (1e-150, 1e-100, 1e-12, 1.0, 10.0):
            for alpha in (1e-5, 1.0, 3.0):
                b0 = tiny / (math.tanh(0.5 * c) * math.sin(alpha))
                for k in range(41):
                    b = b0 * (0.9 + 0.03 * k)
                    try:
                        sol = solve_sas(b, c, alpha)
                    except DomainError:
                        continue
                    if not sol.area < 2.0 * tiny:
                        continue
                    fig = build_figure1(b, c, alpha)
                    assert 2.0 * fig.tau == sol.area, (b, c, alpha)
                    errors = _figure_errors(fig, b, c, alpha)
                    assert max(errors.values()) <= 3.0, (b, c, alpha, errors)
                    built += 1
        assert built == 396, built

    def test_omega_radius_at_the_far_corner(self):
        # With b and c far out and alpha small, the Cramer solve's cy
        # cancelled, and the radius, its center's distance from B, was off
        # by up to 9.3e-5 relative on these draws. From the closed forms
        # every field holds to 3 eps of the exact construction (cy of its
        # terms, 2.3; the radius 2.6; tau 2.1)
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        worst = {}
        for _ in range(1000):
            b, c = (float(x) for x in rng.uniform(10.0, D_MAX, 2))
            alpha = float(10.0 ** rng.uniform(-6.0, 0.0))
            for key, err in _figure_errors(build_figure1(b, c, alpha), b, c, alpha).items():
                worst[key] = max(worst.get(key, 0.0), err)
        assert max(worst.values()) <= 3.0, worst

    def test_figure_holds_to_a_few_eps_across_the_domain(self):
        # sides log-uniform on [1e-6, 20] with any apex angle, and b = c or
        # within 1e-6 relative, where px - rb cancels unless taken as
        # sinh((c - b)/2) sech(b/2) sech(c/2): every field within 5 eps of
        # the exact construction, cy of its terms (3.7 and 3.3 measured; 4.4
        # at most on 20,000 draws of the first kind)
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(55)
        inputs = []
        for _ in range(2000):
            b, c = (float(x) for x in np.exp(rng.uniform(math.log(1e-6), math.log(D_MAX), 2)))
            inputs.append((b, c, float(rng.uniform(1.01 * ALPHA_EPS, math.pi - 1.01 * ALPHA_EPS))))
        for _ in range(1000):
            b = float(np.exp(rng.uniform(math.log(1e-6), math.log(D_MAX))))
            c = b if rng.random() < 0.5 else min(D_MAX, b * (1.0 + rng.uniform(-1e-6, 1e-6)))
            inputs.append((b, c, float(10.0 ** rng.uniform(-6.0, math.log10(3.1)))))
        worst = {}
        for b, c, alpha in inputs:
            for key, err in _figure_errors(build_figure1(b, c, alpha), b, c, alpha).items():
                worst[key] = max(worst.get(key, 0.0), err)
        assert max(worst.values()) <= 5.0, worst

    def test_kernel_builds_across_the_coincident_threshold(self):
        # Stepped across the absolute 1e-12 the coincident-points guard once
        # had, every scan builds, by the kernel and by the oracle's
        # construction, whose relative guard reads |C - B| <= 1e-12 of the
        # larger of |B| and |C|
        for b, c, scan in _absolute_threshold_scans(18, 400, 16):
            for alpha in scan:
                assert alpha > ALPHA_EPS
                assert _figure_outcome(build_figure1, b, c, alpha).startswith("Figure1(")
                assert _figure_outcome(figure1_by_construction, b, c, alpha).startswith("Figure1(")
        # C - B is at least rb sin(ALPHA_EPS), 1e6 times the bound, until the
        # sides are subnormal: there the construction crosses the guard where
        # B and C round to one point, reads them collinear only where B rounds
        # to the center or C onto B's axis, and otherwise refuses them because
        # B x C underflows; the kernel refuses every such triangle by the
        # normal floor on its area
        coincident = "DegenerateInputError: cannot build a geodesic through coincident points"
        collinear = (
            "DegenerateInputError: B, C and the center are collinear: the triangle is degenerate"
        )
        underflow = "DomainError: points too near the center: the circle's products underflow"
        sides = f"DomainError: sides must lie in (0, {D_MAX}]"
        floor = f"DomainError: triangle too small: its area or an angle is below {sys.float_info.min}"
        seen = set()
        for b, c, alpha in _subnormal_side_scans(40):
            composed = _figure_outcome(figure1_by_construction, b, c, alpha)
            seen.add(composed)
            if composed in (coincident, collinear):
                _, B, C = embed_triangle(b, c, alpha)
                assert B == C if composed == coincident else 0.0 in (B.x, C.y), (b, c, alpha)
            got = _figure_outcome(build_figure1, b, c, alpha)
            assert got == (sides if composed == sides else floor), (b, c, alpha)
        assert seen == {coincident, collinear, underflow, sides}

    def test_psi_passes_through_c(self):
        for b, c, alpha in random_triangles(10, 50):
            fig = build_figure1(b, c, alpha)
            assert math.hypot(*fig.C) == pytest.approx(fig.psi.radius, abs=1e-15)
            assert fig.psi.cx == 0.0 and fig.psi.cy == 0.0


class TestOptimalAlpha:
    def test_theorem_condition_holds(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.1, 3.0)
            opt = optimal_alpha(b, c)
            sol = opt.solution
            assert abs(sol.alpha - sol.beta - sol.gamma) < 1e-12
            assert sol.area == pytest.approx(math.pi - 2.0 * opt.alpha_star, abs=1e-12)

    def test_isoceles_doubles_base_angle(self):
        opt = optimal_alpha(1.0, 1.0)
        assert opt.alpha_star == pytest.approx(2.0 * opt.solution.beta, abs=1e-12)
        assert opt.alpha_star == pytest.approx(1.3555866559926322, abs=1e-11)

    def test_swap_symmetry(self):
        assert optimal_alpha(0.7, 2.1).alpha_star == pytest.approx(
            optimal_alpha(2.1, 0.7).alpha_star, abs=1e-12
        )

    def test_matches_grid_argmax(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.1, 3.0)
            opt = optimal_alpha(b, c)
            grid = grid_search_max_area(b, c, 100_000)
            assert abs(opt.alpha_star - grid.alpha_hat) <= 2.0 * grid.grid_step

    def test_tiny_sides_approach_right_angle(self):
        assert optimal_alpha(1e-3, 1e-3).alpha_star == pytest.approx(
            math.pi / 2, abs=1e-3
        )

    def test_theorem_in_the_sides(self):
        # the paper's alpha = beta + gamma reads
        # sinh^2(a/2) = sinh^2(b/2) + sinh^2(c/2) in the sides; side a at
        # alpha* against that identity at 60 digits, sides log-uniform, and b = c
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(41)
        worst = 0.0
        with mpmath.workdps(60):
            for lo, hi in ((1e-6, 20.0), (1e-150, 1e-100)):
                for _ in range(500):
                    b, c = (float(x) for x in np.exp(rng.uniform(math.log(lo), math.log(hi), 2)))
                    for sides in ((b, c), (b, b)):
                        half = (mpmath.sinh(mpmath.mpf(x) / 2) for x in sides)
                        ref = 2 * mpmath.asinh(mpmath.hypot(*half))
                        a = optimal_alpha(*sides).solution.a
                        worst = max(worst, float(abs(a - ref) / ref))
        assert worst <= 8e-16, worst

    def test_solution_is_solve_sas_at_the_maximizer(self):
        for b, c, _ in [*random_triangles(13, 200), (20.0, 20.0, 1.0), (1e-6, 20.0, 1.0)]:
            opt = optimal_alpha(b, c)
            assert opt.solution == solve_sas(b, c, opt.alpha_star)
            assert TriangleSolution(*opt.solution) == opt.solution  # passes every check

    def test_domain_error(self):
        with pytest.raises(DomainError):
            optimal_alpha(-1.0, 1.0)


class TestCertificates:
    def test_all_residuals_vanish_at_optimum(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.1, 3.0)
            a_star = optimal_alpha(b, c).alpha_star
            cert = optimality_certificate(build_figure1(b, c, a_star))
            assert abs(cert.acb_angle - math.pi / 2) < 1e-9
            assert cert.tangency_gap < 1e-9
            assert cert.residual < 1e-9

    def test_residuals_vanish_across_the_domain(self):
        # sides up to D_MAX, where alpha* falls to about 1e-4 and B sits
        # within 1e-8 of the boundary. tau is the half-angle area, so
        # alpha* + tau - pi/2 is a few ulps of pi/2 (4.4e-16 at most on the
        # grid, 2.2e-16 at b = 18, c = 20, the optimize golden's case); the
        # right angle at C is read from the rounded coordinates of C and B',
        # 1.42e-12 at most on the grid and 7.02e-13 at b = 18, c = 20
        def worst(b, c):
            cert = optimality_certificate(build_figure1(b, c, optimal_alpha(b, c).alpha_star))
            return max(abs(cert.acb_angle - math.pi / 2), cert.tangency_gap), cert.residual

        grid = np.linspace(0.5, 20.0, 40).tolist()
        right_angle, residual = (max(w) for w in zip(*(worst(b, c) for b in grid for c in grid)))
        assert right_angle <= 2e-12
        assert residual <= 1e-15
        right_angle, residual = worst(18.0, 20.0)
        assert right_angle <= 1e-12
        assert residual <= 4.5e-16

    def test_negative_control_off_optimum(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.1, 3.0)
            a_star = optimal_alpha(b, c).alpha_star
            off = optimality_certificate(build_figure1(b, c, 0.5 * a_star))
            assert abs(off.acb_angle - math.pi / 2) > 1e-3

    def test_optimum_dominates_grid(self):
        b, c = 0.8, 1.7
        best = optimal_alpha(b, c).solution.area
        for alpha in np.linspace(0.05, math.pi - 0.05, 400):
            assert solve_sas(b, c, float(alpha)).area <= best + 1e-12
