"""Exception types raised across the library.

Every geometric precondition failure derives from GeometryError, itself a
ValueError, so callers can catch broadly or by specific condition.
"""


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class NonFinite(GeometryError):
    """Input contains NaN or infinite coordinates."""


class DegenerateInput(GeometryError):
    """Input collapses below the dimension the operation needs."""


class Unsupported(GeometryError):
    """Operation is not defined for this domain kind."""


class NotOnBoundary(GeometryError):
    """Point is farther than the tolerance from the boundary."""


class CoincidentPoints(GeometryError):
    """Two points expected to be distinct coincide."""


class PointNotInterior(GeometryError):
    """Point is not in the (relative) interior of the domain."""


class NotOpposite(GeometryError):
    """The two faces do not see each other through the interior."""


class EmptyIntersection(GeometryError):
    """The affine subspace misses the domain's relative interior."""


class DimensionOutOfRange(GeometryError):
    """Requested dimension is outside the supported range."""


class OriginNotInterior(GeometryError):
    """Gauge body does not contain the origin in its relative interior."""


class NotCollinear(GeometryError):
    """Four points expected on one line are not collinear."""


class DegenerateDenominator(GeometryError):
    """A cross-ratio denominator vanishes."""


class XNotInteriorOfCone(GeometryError):
    """Reference element of a cone ratio is not interior."""


class PointAtInfinity(GeometryError):
    """Projective image has no affine representative in this chart."""


class DegenerateBasis(GeometryError):
    """Point family fails to be a projective basis."""


class NotInSimplex(GeometryError):
    """Point is not in the open standard simplex."""


class ImageEscapedDomain(GeometryError):
    """A mapped sample left the target domain."""


class ParseError(ValueError):
    """Malformed JSON input; carries line and column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """Well-formed JSON that violates a domain invariant."""

    def __init__(self, message, invariant=None):
        super().__init__(message)
        self.invariant = invariant
