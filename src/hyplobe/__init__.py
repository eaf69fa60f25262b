"""Numerical toolkit for the Poincare disk model of the hyperbolic plane.

Core surfaces: disk primitives (points, distances, geodesics, isometries),
maximal-area triangle machinery with its optimality certificates, and a
perimeter-preserving polygon improver for isoperimetric experiments.
"""

import importlib

__version__ = "0.1.0"

# Public names resolve on first use (PEP 562), so each command imports only the
# modules it runs: `import hyplobe` alone loads no submodule.
_EXPORTS = {
    "disk": (
        "D_MAX", "ORIGIN", "DiskIsometry", "DiskPoint", "EuclideanCircle", "Geodesic",
        "angle_at_vertex", "geodesic_through", "hyp_distance", "point_from_polar",
    ),
    "errors": (
        "DegenerateInputError", "DomainError", "HyplobeError", "NonConvexError",
    ),
    "polygon": (
        "HyperbolicPolygon", "circle_for_circumference", "circumcircle_fit",
        "isoperimetric_deficit", "polygon_perimeter",
        "random_convex_polygon", "regular_polygon", "regular_polygon_for_perimeter",
        "regular_polygon_vertices", "steiner_move", "steiner_optimize",
    ),
    "triangle": (
        "ALPHA_EPS", "Figure1", "TriangleSolution", "build_figure1", "optimal_alpha",
        "optimality_certificate", "solve_sas",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

