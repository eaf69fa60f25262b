"""Self-contained SVG rendering of the disk construction.

The unit disk is mapped onto a 1000 x 1000 viewBox with the y-axis flipped to
mathematical orientation; the viewBox grows symmetrically when the B' point
falls outside the disk so the whole figure stays visible.
"""

from __future__ import annotations

from .triangle import Figure1


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Canvas:
    def __init__(self, extent: float) -> None:
        # `extent` is the half-width of the drawn region in model units.
        self.scale = 500.0 / extent
        self.elements: list[str] = []

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return 500.0 + self.scale * x, 500.0 - self.scale * y

    def circle(self, cx: float, cy: float, r: float, stroke: str, dash: str | None = None) -> None:
        px, py = self.to_px(cx, cy)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r * self.scale)}" '
            f'fill="none" stroke="{stroke}" stroke-width="1.5"{dash_attr}/>'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str) -> None:
        p1 = self.to_px(x1, y1)
        p2 = self.to_px(x2, y2)
        self.elements.append(
            f'<line x1="{_fmt(p1[0])}" y1="{_fmt(p1[1])}" x2="{_fmt(p2[0])}" '
            f'y2="{_fmt(p2[1])}" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def arc(self, cx: float, cy: float, r: float, x1: float, y1: float,
            x2: float, y2: float, stroke: str) -> None:
        # Geodesic arcs between interior points always subtend less than pi,
        # so the sign of the cross product of the two radii gives the sense.
        sweep_ccw = (x1 - cx) * (y2 - cy) - (y1 - cy) * (x2 - cx) > 0.0
        # y-flip inverts the rotation sense in pixel coordinates
        sweep_flag = 0 if sweep_ccw else 1
        p1 = self.to_px(x1, y1)
        p2 = self.to_px(x2, y2)
        rr = _fmt(r * self.scale)
        self.elements.append(
            f'<path d="M {_fmt(p1[0])} {_fmt(p1[1])} A {rr} {rr} 0 0 {sweep_flag} '
            f'{_fmt(p2[0])} {_fmt(p2[1])}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def dot(self, x: float, y: float, label: str) -> None:
        px, py = self.to_px(x, y)
        self.elements.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#000"/>'
        )
        self.elements.append(
            f'<text x="{_fmt(px + 10.0)}" y="{_fmt(py - 10.0)}" '
            f'font-family="serif" font-size="28">{label}</text>'
        )

    def render(self) -> str:
        body = "\n  ".join(self.elements)
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000" '
            'width="1000" height="1000">\n  '
            '<rect x="0" y="0" width="1000" height="1000" fill="#fff"/>\n  '
            f"{body}\n</svg>\n"
        )


def figure1_svg(fig: Figure1) -> str:
    """Render the construction: unit circle, omega, psi, triangle, B', tau."""
    bpx, bpy = fig.b_prime
    extent = 1.1 * max(
        1.0,
        abs(bpx),
        abs(bpy),
        abs(fig.omega.cx) + fig.omega.radius,
        abs(fig.omega.cy) + fig.omega.radius,
    )
    cv = _Canvas(extent)
    cv.circle(0.0, 0.0, 1.0, "#000")
    cv.circle(fig.omega.cx, fig.omega.cy, fig.omega.radius, "#888", dash="6,4")
    cv.circle(fig.psi.cx, fig.psi.cy, fig.psi.radius, "#2a7", dash="6,4")
    # triangle sides: AB and AC are diameters through the center, BC is an arc of omega
    cv.line(fig.A.x, fig.A.y, fig.B.x, fig.B.y, "#00a")
    cv.line(fig.A.x, fig.A.y, fig.C.x, fig.C.y, "#00a")
    cv.arc(fig.omega.cx, fig.omega.cy, fig.omega.radius,
           fig.B.x, fig.B.y, fig.C.x, fig.C.y, "#00a")
    # the extension of AB to B' and the chord B'C
    cv.line(fig.B.x, fig.B.y, bpx, bpy, "#a00")
    cv.line(bpx, bpy, fig.C.x, fig.C.y, "#a00")
    cv.dot(fig.A.x, fig.A.y, "A")
    cv.dot(fig.B.x, fig.B.y, "B")
    cv.dot(fig.C.x, fig.C.y, "C")
    cv.dot(bpx, bpy, "B&#8242;")
    tau_label = f"&#964; = {fig.tau:.6f}"
    px, py = cv.to_px(bpx, bpy)
    cv.elements.append(
        f'<text x="{_fmt(px + 10)}" y="{_fmt(py + 34)}" '
        f'font-family="serif" font-size="24">{tau_label}</text>'
    )
    return cv.render()
