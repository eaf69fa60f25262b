"""Self-contained SVG rendering of the disk construction.

The unit disk is mapped onto a 1000 x 1000 viewBox with the y-axis flipped to
mathematical orientation; the viewBox grows symmetrically when the B' point
falls outside the disk so the whole figure stays visible.
"""

from __future__ import annotations

from .triangle import Figure1


def figure1_svg(fig: Figure1) -> str:
    """Render the construction: unit circle, omega, psi, triangle, B', tau."""
    B, C, omega, psi = fig.B, fig.C, fig.omega, fig.psi
    bpx, bpy = fig.b_prime
    # the half-width of the drawn region in model units
    extent = 1.1 * max(
        1.0,
        abs(bpx),
        abs(bpy),
        abs(omega.cx) + omega.radius,
        abs(omega.cy) + omega.radius,
    )
    scale = 500.0 / extent
    points = ((0.0, 0.0), fig.A, B, C, fig.b_prime, (omega.cx, omega.cy), (psi.cx, psi.cy))
    centre, a, b, c, bp, o, p = [(500.0 + scale * x, 500.0 - scale * y) for x, y in points]

    def circle(at, r, stroke, dash=""):
        return (f'<circle cx="{at[0]:.3f}" cy="{at[1]:.3f}" r="{r * scale:.3f}" '
                f'fill="none" stroke="{stroke}" stroke-width="1.5"{dash}/>')

    def line(p1, p2, stroke):
        return (f'<line x1="{p1[0]:.3f}" y1="{p1[1]:.3f}" x2="{p2[0]:.3f}" '
                f'y2="{p2[1]:.3f}" stroke="{stroke}" stroke-width="1.5"/>')

    def dot(at, label):
        return (f'<circle cx="{at[0]:.3f}" cy="{at[1]:.3f}" r="4" fill="#000"/>',
                f'<text x="{at[0] + 10.0:.3f}" y="{at[1] - 10.0:.3f}" '
                f'font-family="serif" font-size="28">{label}</text>')

    rr = f"{omega.radius * scale:.3f}"
    dashed = ' stroke-dasharray="6,4"'
    elements = [
        circle(centre, 1.0, "#000"),
        circle(o, omega.radius, "#888", dashed),
        circle(p, psi.radius, "#2a7", dashed),
        # triangle sides: AB and AC are diameters through the center, BC is an arc of omega
        line(a, b, "#00a"),
        line(a, c, "#00a"),
        # sweep flag 1: in Figure1's frame, B -> C runs clockwise about omega's centre
        f'<path d="M {b[0]:.3f} {b[1]:.3f} A {rr} {rr} 0 0 1 '
        f'{c[0]:.3f} {c[1]:.3f}" fill="none" stroke="#00a" stroke-width="1.5"/>',
        # the extension of AB to B' and the chord B'C
        line(b, bp, "#a00"),
        line(bp, c, "#a00"),
        *dot(a, "A"),
        *dot(b, "B"),
        *dot(c, "C"),
        *dot(bp, "B&#8242;"),
        f'<text x="{bp[0] + 10:.3f}" y="{bp[1] + 34:.3f}" '
        f'font-family="serif" font-size="24">&#964; = {fig.tau:.6f}</text>',
    ]
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000" '
        'width="1000" height="1000">\n  '
        '<rect x="0" y="0" width="1000" height="1000" fill="#fff"/>\n  '
        + "\n  ".join(elements) + "\n</svg>\n"
    )
