"""Hyperbolic triangle trigonometry and the maximal-area construction.

Implements the SAS solver, the omega-circle / B' figure in the disk (with A at
the center), the tau angle whose double equals the triangle area, and the
maximal-area apex angle characterized by alpha = beta + gamma.

The area is the angle defect pi - (alpha + beta + gamma), but it is only
ever computed in half-angle form from the sides and the apex angle (see
solve_sas): once the angles are rounded, the defect of a small or thin
triangle is lost to cancellation, and no function of the angles alone can
give it back.

solve_sas and optimal_alpha are closed forms evaluated without cancelling
subtractions. Side a comes from the half-sinh law of cosines, a sum of
squares, and with u = tanh(b/2) tanh(c/2) the area from
tan(area/2) = u sin(alpha) / (1 - u cos(alpha)); the maximizing apex angle
is arccos(u), and the base angles come from the atan2 form of the four-part
formula. build_figure1 takes Figure 1 from closed forms in the same u (see
build_figure1), and 2 tau is solve_sas's area bit for bit. Against 80-digit
mpmath of the exact construction from (b, c, alpha), every field holds to
5 eps, cy relative to the sum of its two terms: on 2,000 draws with sides
log-uniform on [1e-6, 20], on 1,000 at the far corner (b, c in [10, 20],
alpha log-uniform in [1e-6, 1]) and on 1,000 with b = c or nearly.

The four kernels, solve_sas, build_figure1, optimal_alpha and
optimality_certificate, are straight-line float code: each record is built
once, in its final form, no value is computed twice, and each check is an
inline comparison that calls its helper only on the failing path, so the order,
class and message of every refusal are the helper's: for _sas, which solve_sas
and optimal_alpha share, _check_sas_domain and _check_solution; for
build_figure1, _check_sas_domain, _sas's floor and _check_b_prime. Tests pin
the other three to their compositions, bit for bit and refusal for refusal;
build_figure1's witness is oracle.figure1_by_construction.

A value below disk._TINY, the smallest normal float, has lost bits and is
refused, as on the polygon path. The angle sum, which rounds to pi on tiny
triangles, is not judged. Corner probes of the SAS domain find refusals of tiny
triangles only: from _sas where the area or an angle is below the floor (both
sides below ~2.3e-154 at alpha = 1, ~6.7e-153 at alpha = 1e-3 and ~2.1e-151 at
the smallest apex angle; one below ~6e-308 against 1); from build_figure1 where
the area is below it, or where B' squared overflows (c below ~1.6e-154).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .disk import _TINY, D_MAX, ORIGIN, DiskPoint, EuclideanCircle
from .errors import DomainError

# Apex angles are kept this far away from 0 and pi; closer in, the triangle
# is numerically degenerate.
ALPHA_EPS = 1e-6
_ALPHA_MAX = math.pi - ALPHA_EPS
_AT_MAXIMUM = object()  # _sas's apex angle for optimal_alpha's maximizer

# The kernels build their records through this alias, which saves a lookup
# of tuple.__new__ per record.
_new = tuple.__new__


class TriangleSolution(namedtuple("TriangleSolution", "a b c alpha beta gamma area")):
    """Sides and angles of a hyperbolic triangle; side a is opposite alpha."""

    __slots__ = ()

    def __new__(
        cls, a: float, b: float, c: float, alpha: float, beta: float, gamma: float, area: float
    ) -> "TriangleSolution":
        # b and c are domain-limited by the solver; the derived side a may
        # legitimately exceed D_MAX (up to about 2 * D_MAX).
        _check_solution((a, b, c), (alpha, beta, gamma), alpha + beta + gamma, area)
        return tuple.__new__(cls, (a, b, c, alpha, beta, gamma, area))


def _check_solution(
    sides: tuple[float, ...], angles: tuple[float, ...], angle_sum: float, area: float
) -> None:
    """TriangleSolution's checks on the given sides and angles, the angle sum
    and the stored area, a normal float (the angle sum may round to pi)."""
    for s in sides:
        if not (0.0 < s and math.isfinite(s)):
            raise DomainError(f"triangle side {s} must be positive and finite")
    for ang in angles:
        if not (0.0 < ang < math.pi):
            raise DomainError(f"triangle angle {ang} outside (0, pi)")
    if not area >= _TINY:
        raise DomainError(f"triangle area {area} below the smallest normal float")
    if abs(area - (math.pi - angle_sum)) > 1e-14:
        raise DomainError("stored area disagrees with the angle defect")


Figure1 = namedtuple("Figure1", "A B C omega psi b_prime tau")
Figure1.__doc__ = """The full disk construction for a triangle with apex A at the center.

The frame: A is the origin, B lies on the positive x-axis, and C lies
above it, at the apex angle alpha = atan2(C.y, C.x) in (0, pi).
A, B and C are DiskPoints; ``omega`` is the EuclideanCircle containing
geodesic BC, ``psi`` the EuclideanCircle traced by C as the apex angle
varies (center the origin, radius tanh(b/2)), ``b_prime`` the (x, y)
second intersection of line AB with omega, and ``tau`` the Euclidean
angle at b_prime in triangle A-b_prime-C.
"""

OptimalTriangle = namedtuple("OptimalTriangle", "alpha_star solution")

OptimalityCertificate = namedtuple("OptimalityCertificate", "acb_angle tangency_gap residual")
OptimalityCertificate.__doc__ = "Three equivalent witnesses that the apex angle is the maximizer."


def _check_sas_domain(b: float, c: float, alpha: float | None) -> None:
    """The SAS domain's checks: the sides, then the apex angle unless it is None."""
    if not (0.0 < b <= D_MAX and 0.0 < c <= D_MAX):
        raise DomainError(f"sides must lie in (0, {D_MAX}]")
    if alpha is not None and not (ALPHA_EPS < alpha < _ALPHA_MAX):
        raise DomainError(f"apex angle {alpha} outside ({ALPHA_EPS}, pi - {ALPHA_EPS})")


def solve_sas(b: float, c: float, alpha: float) -> TriangleSolution:
    """Solve the triangle with sides b = |AC|, c = |AB| and included angle alpha.

    Side a comes from the half-sinh law of cosines as
    a = 2 asinh(hypot(sinh((b - c)/2), sqrt(sinh b) sqrt(sinh c) sin(alpha/2))),
    a sum of squares whose two roots keep tiny sides' product from
    underflowing; at optimal_alpha's maximizer it reads
    sinh^2(a/2) = sinh^2(b/2) + sinh^2(c/2), the paper's alpha = beta + gamma.
    The base angles use the four-part formula
    cot(gamma) sin(alpha) = sinh(b) coth(c) - cosh(b) cos(alpha), written as
    gamma = atan2(sin(alpha) sinh(c),
                  sinh(b - c) + 2 cosh(b) sinh(c) sin^2(alpha/2)),
    and beta likewise with b and c swapped; unlike acos of the law of
    cosines, this keeps full relative accuracy for angles near 0. The area is
    the angle defect, but computed from the half-angle formula
    area = 2 atan2(u sin(alpha), (1 - u) + 2 u sin^2(alpha/2)) with
    u = tanh(b/2) tanh(c/2) rather than as pi minus the angle sum, which
    loses every digit once the triangle is small or thin. Below the smallest
    normal float an area or an angle has lost bits: a DomainError.
    """
    return _sas(b, c, alpha)


def _sas(b: float, c: float, alpha: float | object) -> TriangleSolution:
    """solve_sas, or with alpha _AT_MAXIMUM the solution at optimal_alpha's maximizer.

    u = tanh(b/2) tanh(c/2) and 1 - u = (1 - t_b) + t_b (1 - t_c), with
    t_x = tanh(x/2) and 1 - tanh(x/2) = 2 / (e^x + 1), so 1 - u keeps its
    relative accuracy even when u rounds to within a few ulps of 1 (both
    sides near D_MAX).
    """
    if not (0.0 < b <= D_MAX and 0.0 < c <= D_MAX):
        _check_sas_domain(b, c, alpha)
    tb = math.tanh(0.5 * b)
    u = tb * math.tanh(0.5 * c)
    one_minus_u = 2.0 / (math.exp(b) + 1.0) + tb * 2.0 / (math.exp(c) + 1.0)
    if alpha is _AT_MAXIMUM:
        alpha = 2.0 * math.atan(math.sqrt(one_minus_u / (1.0 + u)))
    if not (ALPHA_EPS < alpha < _ALPHA_MAX):
        _check_sas_domain(b, c, alpha)
    half_sin = math.sin(0.5 * alpha)
    one_minus_cos = 2.0 * half_sin * half_sin
    sin_alpha = math.sin(alpha)
    sinh_b = math.sinh(b)
    sinh_c = math.sinh(c)
    # the half-sinh law of cosines (see solve_sas)
    a = 2.0 * math.asinh(
        math.hypot(math.sinh(0.5 * (b - c)), math.sqrt(sinh_b) * math.sqrt(sinh_c) * half_sin)
    )
    # sinh(b - c) is -sinh(c - b) bit for bit, libm's sinh being odd
    sinh_cb = math.sinh(c - b)
    beta = math.atan2(sin_alpha * sinh_b, sinh_cb + math.cosh(c) * sinh_b * one_minus_cos)
    gamma = math.atan2(sin_alpha * sinh_c, math.cosh(b) * sinh_c * one_minus_cos - sinh_cb)
    area = 2.0 * math.atan2(u * sin_alpha, one_minus_u + u * one_minus_cos)
    if not (area >= _TINY and beta >= _TINY and gamma >= _TINY):
        raise DomainError(f"triangle too small: its area or an angle is below {_TINY}")
    angle_sum = alpha + beta + gamma
    # TriangleSolution's checks not made above, nor implied by the floor and domain
    if not (beta < math.pi and gamma < math.pi and abs(area - (math.pi - angle_sum)) <= 1e-14):
        _check_solution((a,), (beta, gamma), angle_sum, area)
    return _new(TriangleSolution, (a, b, c, alpha, beta, gamma, area))


def _check_b_prime(t: float) -> None:
    """B' at t from the center: t, about 1/|B|, is finite for every |B| > 0, but
    below |B| ~ 1e-154 its square overflows, and tau, the angle at B', with it."""
    if t * t == math.inf:
        raise DomainError("B' lies too far out: its products overflow")


def build_figure1(b: float, c: float, alpha: float) -> Figure1:
    """Assemble the whole construction for the triangle (b, c, alpha), in closed form.

    With px = tanh(c/2), rb = tanh(b/2) and u = px rb: B = (px, 0) and
    C = rb e^{i alpha}, as oracle.embed_triangle places them; B' = (1/px, 0), the
    inversion of B; omega's center solves 2 center.P = 1 + |P|^2 at P = B
    and P = C, so cx = (px + 1/px)/2 and
    cy = ((px - rb)(1 - u)/(2u) + 2 cx sin^2(alpha/2)) / sin(alpha), with
    px - rb = sinh((c - b)/2) sech(b/2) sech(c/2), which does not cancel at
    b = c; the radius is hypot(cx - px, cy), cx - px = (1 - px)(1 + px)/(2 px)
    with 1 - px = 2/(e^c + 1), as _sas forms 1 - u; and
    tau = atan2(u sin(alpha), (1 - u) + 2 u sin^2(alpha/2)), formed as _sas
    forms the half area, so that 2 tau is solve_sas's area bit for bit.

    It refuses through the owners of the rules: the SAS domain, an area below
    the normal floor (before 1/px and 1/u, which a subnormal side makes
    infinite) and B' squared overflowing, where c is below ~1.6e-154.
    """
    if not (0.0 < b <= D_MAX and 0.0 < c <= D_MAX and ALPHA_EPS < alpha < _ALPHA_MAX):
        _check_sas_domain(b, c, alpha)
    px = math.tanh(0.5 * c)
    rb = math.tanh(0.5 * b)
    u = rb * px
    ec = math.exp(c) + 1.0
    one_minus_rb = 2.0 / (math.exp(b) + 1.0)
    one_minus_u = one_minus_rb + rb * 2.0 / ec
    half_sin = math.sin(0.5 * alpha)
    one_minus_cos = 2.0 * half_sin * half_sin
    sin_alpha = math.sin(alpha)
    tau = math.atan2(u * sin_alpha, one_minus_u + u * one_minus_cos)
    if not 2.0 * tau >= _TINY:
        _sas(b, c, alpha)  # refused by its floor: its area is 2 tau
    t = 1.0 / px
    if t * t == math.inf:
        _check_b_prime(t)
    cx = 0.5 * (px + t)
    sech2_c = 2.0 / ec * (1.0 + px)
    # px - rb from sinh((c - b)/2), c - b = d + e exactly (Knuth's TwoSum); e enters
    # to first order, as cosh(d/2) sech(b/2) sech(c/2) e/2 = (1 - u) e/2
    d = c - b
    e = (c - (d + (c - d))) - (b - (c - d))
    sech_bc = math.sqrt(one_minus_rb * (1.0 + rb) * sech2_c)
    px_minus_rb = math.sinh(0.5 * d) * sech_bc + 0.5 * e * one_minus_u
    cy = (px_minus_rb * one_minus_u / (2.0 * u) + cx * one_minus_cos) / sin_alpha
    B = _new(DiskPoint, (px, 0.0))
    C = _new(DiskPoint, (rb * math.cos(alpha), rb * sin_alpha))
    omega = _new(EuclideanCircle, (cx, cy, math.hypot(sech2_c / (2.0 * px), cy)))
    psi = _new(EuclideanCircle, (0.0, 0.0, rb))
    return _new(Figure1, (ORIGIN, B, C, omega, psi, (t, 0.0), tau))


def optimal_alpha(b: float, c: float) -> OptimalTriangle:
    """Apex angle maximizing the area for fixed sides b and c.

    With u = tanh(b/2) tanh(c/2) the area obeys
    tan(area/2) = u sin(alpha) / (1 - u cos(alpha)). Its derivative in alpha
    has the sign of cos(alpha) - u, so the area rises strictly up to
    alpha* = arccos(u) and falls after it: the maximizer is unique, lies in
    (0, pi/2), and there area = pi - 2 alpha*, i.e. alpha* = beta + gamma.
    It is evaluated as alpha* = 2 atan(sqrt((1 - u) / (1 + u))), with 1 - u
    formed without cancellation, which stays accurate as u approaches 1.
    """
    sol = _sas(b, c, _AT_MAXIMUM)
    return _new(OptimalTriangle, (sol[3], sol))


def optimality_certificate(fig: Figure1) -> OptimalityCertificate:
    """Numerical witnesses of maximality for the configured apex angle.

    At the maximizer the Euclidean angle at C in A-C-B' is right, the line
    B'C is tangent to psi, and alpha + tau = pi/2; all three residuals
    vanish together.
    """
    (ax, ay), _, (cx, cy), _, (_, _, rb), (bx, by), tau = fig
    hx, hy = cx - bx, cy - by
    # distance from the origin to the line through b_prime and C; abs(complex)
    # is libm's hypot, whose bits tangency_gap reports
    dist = abs(bx * hy - by * hx) / abs(complex(hx, hy))
    # the unsigned Euclidean angle at C between the rays to A and to b_prime
    x1, y1 = ax - cx, ay - cy
    x2, y2 = bx - cx, by - cy
    return _new(OptimalityCertificate, (
        abs(math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)),
        abs(dist - rb),
        abs(abs(math.atan2(cy, cx)) + tau - 0.5 * math.pi),  # alpha: Figure1's frame
    ))
