"""Exception types shared across the package."""


class HyplobeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HyplobeError, ValueError):
    """An input lies outside the documented domain of an operation."""


class DegenerateInputError(DomainError):
    """Coincident or collinear inputs that make a construction undefined."""


class NonConvexError(DomainError):
    """A polygon is not strictly convex, or its vertices are not counterclockwise.

    Both are hyperbolic notions, decided from the polygon's signed interior
    angles, each measured in the chart centred at its vertex.
    """
