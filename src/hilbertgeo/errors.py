"""Exception types raised across the library.

Every geometric precondition failure derives from GeometryError, itself a
ValueError, so callers can catch broadly or by specific condition.
"""


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class _NamedPoint(GeometryError):
    """A failure of one named point.  point is its name ("x", "y",
    "start", ...) and index its row in a batch of pairs, as the message
    names it (x[3] is point "x", index 3); both are None when unknown."""

    def __init__(self, message, point=None, index=None):
        super().__init__(message)
        self.point = point
        self.index = index


class NonFinite(_NamedPoint):
    """Input contains NaN or infinite coordinates."""


class DegenerateInput(GeometryError):
    """Input collapses below the dimension the operation needs."""


class Unsupported(GeometryError):
    """Operation is not defined for this domain kind."""


class NotOnBoundary(GeometryError):
    """Point is farther than the tolerance from the boundary.  slack, when
    a slack decided it, is the point's least facet slack (1 - |w| in an
    ellipsoid's whitened coordinates), a fraction of the domain's size."""

    def __init__(self, message, slack=None):
        super().__init__(message)
        self.slack = slack


class CoincidentPoints(GeometryError):
    """Two points expected to be distinct coincide."""


class PointNotInterior(_NamedPoint):
    """Point is not in the (relative) interior of the domain.  min_slack,
    when a slack decided it, is the point's least slack, a fraction of the
    domain's size."""

    def __init__(self, message, point=None, index=None, min_slack=None):
        super().__init__(message, point, index)
        self.min_slack = min_slack


class NotOpposite(GeometryError):
    """The two faces do not see each other through the interior."""


class EmptyIntersection(GeometryError):
    """The affine subspace misses the domain's relative interior."""


class DimensionOutOfRange(GeometryError):
    """Requested dimension is outside the supported range."""


class OriginNotInterior(GeometryError):
    """Gauge body does not contain the origin in its relative interior."""


class NotCollinear(GeometryError):
    """Four points expected on one line are not collinear.  residual is
    the first stray point's distance off the line as a fraction of the
    points' span, None when all four coincide."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateDenominator(GeometryError):
    """A cross-ratio denominator vanishes.  length is the vanishing
    length, |a - x| or else |b - y|."""

    def __init__(self, message, length=None):
        super().__init__(message)
        self.length = length


class XNotInteriorOfCone(_NamedPoint):
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
