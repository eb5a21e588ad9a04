"""Hilbert metric on bounded convex domains.

The distance between interior points x, y is the natural log of the cross
ratio of (alpha, x, y, beta) where alpha, beta are the boundary endpoints
of the chord through x and y, alpha on the x side.  With facet slacks s it
is the sum of the two Funk distances, log max s(x)/s(y) + log max s(y)/s(x)
(Papadopoulos & Troyanov 2014), for polytopes and polyhedral cones alike.

distances(domain, X, Y) takes N pairs as the rows of two N x ambient
arrays and returns their N distances in one batch of array operations:
the Funk sum on polytopes, on ellipsoids twice the Beltrami-Klein
distance of the whitened points in the unit ball, in closed form.  All
2N points are checked before any distance is taken.  distance is its
one-pair wrapper: the same code on one row, so a scalar distance and its
row of distances are equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .convex import Chord, _as_array, _eps
from .errors import (
    DegenerateDenominator,
    DegenerateInput,
    NonFinite,
    NotCollinear,
    NotOnBoundary,
)

__all__ = [
    "cross_ratio",
    "distance",
    "distances",
    "gromov_product",
    "Rigidity",
    "is_rigid_chord",
    "AsymptoticProfile",
    "asymptotic_profile",
    "hilbert_ball",
]


def cross_ratio(a, x, y, b, eps=None):
    """Cross ratio (|a-y| |b-x|) / (|a-x| |b-y|) of four collinear points.

    The points must lie on one line within eps of its span, the length of
    the diagonal of their bounding box; a vanishing denominator (a == x or
    b == y, within 1e-14 of the span) is rejected rather than returned as
    inf.  NotCollinear carries the stray point's residual off the line, a
    fraction of the span, and DegenerateDenominator the vanishing length.
    """
    eps_v = _eps(eps)
    a, x, y, b = (_as_array(p) for p in (a, x, y, b))
    pts = np.array([a, x, y, b])
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    d = b - a
    nd = np.linalg.norm(d)
    if nd <= eps_v * scale:
        # a and b coincide; check collinearity against x -> y instead
        d = y - x
        nd = np.linalg.norm(d)
    if nd == 0.0:
        raise NotCollinear("all four points coincide")
    u = d / nd
    base = pts[0]
    for p in pts:
        r = p - base
        off = float(np.linalg.norm(r - (r @ u) * u))
        if off > eps_v * scale:
            raise NotCollinear("points are not collinear within tolerance",
                               residual=off / scale)
    ax = float(np.linalg.norm(a - x))
    by = float(np.linalg.norm(b - y))
    if ax <= 1e-14 * scale or by <= 1e-14 * scale:
        raise DegenerateDenominator("cross ratio denominator vanishes",
                                    length=ax if ax <= 1e-14 * scale else by)
    return float((np.linalg.norm(a - y) * np.linalg.norm(b - x)) / (ax * by))


def _funk_sum(S, D):
    """log max_i sy_i/sx_i + log max_j sx_j/sy_j of each of n pairs, from
    the slacks S = [sx; sy] and D = [sy - sx; sx - sy] (2n rows each),
    both differences taken from the points' difference so that close
    pairs keep their digits: both ratios less 1 are the one division
    D / S."""
    r = np.log1p(np.maximum.reduce(D / S, axis=-1))
    n = len(r) // 2
    return r[:n] + r[n:]


def distances(domain, X, Y, eps=None):
    """Hilbert distances d(X[i], Y[i]) between rows of interior points.

    X and Y are N x ambient arrays, or single points; returns N distances.
    Every point is checked before any distance is taken: NonFinite for a
    NaN or infinite coordinate, PointNotInterior for a point farther than
    eps of the domain's size from the affine hull or not strictly
    interior.  Polytopes take the Funk sum of the facet slacks, ellipsoids
    the closed form of the unit ball after whitening (_ball_distances).

    Everything comes from one stacked product (ConvexDomain._stacked),
    [X - o; Y - o; X - Y; Y - X] @ M, o and M a polytope's chart origin
    and facet rates per ambient unit (basis @ A.T) or an ellipsoid's
    center and whitening: the slacks of X and Y, whose one reduction
    accepts the query, and on a polytope the Funk differences sy - sx and
    sx - sy, the facet rates along X - Y and Y - X, so close pairs keep
    their digits; on an ellipsoid the whitened X - c and Y - X, with
    1 - |w|^2 of X and Y from the acceptance pass.  A scalar query runs
    the same code on one row, and BLAS sums a product of two or more rows
    the same way whatever their number, so distance(x, y) equals its row
    of distances bit for bit.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim == 1:
        X, Y = X[None], Y[None]
    S, R, _ = domain._stacked(X, Y, _eps(eps))
    n = len(X)
    if domain.kind == "polytope":
        return _funk_sum(S, R[2 * n:, :len(domain._b)])
    return _ball_distances(R[:n], R[3 * n:], S)


def _ball_distances(w, dw, s):
    """Hilbert distances in the open unit ball from the points w to
    w + dw (or rows of them), given s = 1 - |w|^2 of the n points and
    then of their n partners.  The distance is twice the Beltrami-Klein
    one, 2 asinh(sqrt((|dw|^2 + (w.dw)^2 / sx) / sy)): both terms of the
    numerator are >= 0, so close pairs keep their digits, and dw = 0
    gives 0."""
    n = len(w)
    b = np.add.reduce(w * dw, axis=-1)
    return 2.0 * np.arcsinh(np.sqrt(
        (np.add.reduce(dw * dw, axis=-1) + b * b / s[:n]) / s[n:]))


def distance(domain, x, y, eps=None):
    """Hilbert distance between two interior points; see distances."""
    return float(distances(domain, x, y, eps)[0])


def gromov_product(domain, p, x, y, eps=None):
    """(d(p,x) + d(p,y) - d(x,y)) / 2."""
    d = distances(domain, [p, p, x], [x, y, y], eps)
    return float(0.5 * (d[0] + d[1] - d[2]))


@dataclass(eq=False)
class Rigidity:
    """Outcome of the chord rigidity test.

    rigid means the open chord is the unique geodesic between its interior
    points.  When not rigid, witness is a point off the chord with
    d(x,witness) + d(witness,y) = d(x,y) up to additivity_gap, and
    deviation_direction spans, with the chord, a plane meeting both
    endpoint faces in segments.  A rigid result carries neither.
    """

    rigid: bool
    chord: Chord
    witness: np.ndarray | None = None
    deviation_direction: np.ndarray | None = None
    additivity_gap: float | None = None


def _deviation_direction(domain, chord):
    """Direction z0 (unit, orthogonal to the chord) such that the plane
    chord + span(z0) cuts both endpoint faces in segments, or None.

    In the unit chart a face's direction space is the null space of A_F,
    the unit normals of the facets through it, and the plane span(v, z)
    through an end meets its face in a segment exactly when A_F z is
    parallel to A_F v, v the chord's direction.  An end's A_F are the
    facets that bind it in the chord's clipping (Chord._binding), and
    each end's A_F, with a = A_F v projected out of it, goes into one
    stack: v lies in the stack's null space, and the chord is flexible
    exactly when that null space has dimension 2 or more, read from
    singular values above 1e-9 (of unit normals).  z0 is the null vector
    with the largest part orthogonal to v, mapped back through the
    chart."""
    if chord.face_alpha.dim == 0 or chord.face_beta.dim == 0:
        return None  # an endpoint is an extreme point: always rigid
    v = (chord.beta - chord.alpha) @ domain._basis
    v = v / math.sqrt(v @ v)
    # each end's rows A less a (a @ A) / (a @ a), both ends in one stack
    a = domain._A @ v
    W = chord._binding * a
    C = (W @ domain._A) / np.add.reduce(W * W, axis=1)[:, None]
    end, j = chord._binding.nonzero()
    _, s, vt = np.linalg.svd(domain._A[j] - a[j, None] * C[end])
    N = vt[int(np.add.reduce(s > 1e-9)):]
    if len(N) < 2:
        return None  # plane of coincidence does not exist
    # the rows of N are orthonormal: the one least along v has the
    # largest part orthogonal to it
    r = np.abs(N @ v).argmin()
    z = (N[r] - (N[r] @ v) * v) @ domain._frame.T
    return z / math.sqrt(z @ z)


def is_rigid_chord(domain, x, y, eps=None):
    """Whether the chord through x and y is the unique geodesic.

    The chord is flexible exactly when some plane through it meets the
    two endpoint faces in segments (_deviation_direction).  On that plane,
    along z = m + t z0 from the chord's midpoint m, d(x,z) + d(z,y) =
    d(x,y) while a facet through beta attains max s(x)/s(z) and max
    s(z)/s(y), and one through alpha the reverse: bounds on t in closed
    form.  The witness is halfway to the least of them and the exit.
    Every bound is formed from the chord's own pass (chord_through): the
    slacks of x and y are the pass's, the midpoint's their mean, and each
    end's facets the ones that bind it; only the rates along z0 take one
    more product, with the facet rates _M.
    """
    chord = domain.chord_through(x, y, eps)
    z0 = _deviation_direction(domain, chord)
    if z0 is None:
        return Rigidity(rigid=True, chord=chord)
    # bounds g + t dg >= 0 on z = m + t z0, whose slacks are s(m) - t D,
    # s(m) the mean of those of x and y and D their rates of decrease
    # along z0, with i the least facet binding an end: s_i(p) s_k(z) -
    # s_k(p) s_i(z) is >= 0 for p = x at beta and y at alpha and <= 0 for
    # p = y at beta and x at alpha (G and DG, rows p = x, y and columns
    # beta, alpha, signed by sign), and the exit, s_k(z) >= 0
    S = chord._sxy
    sm = 0.5 * (S[0] + S[1])
    D = (z0 @ domain._M)[:len(domain._b)]
    ends = chord._binding[::-1]
    i = ends.argmax(axis=1)
    C = S[:, i, None]
    G = C * sm - S[:, None] * sm[i, None]
    DG = S[:, None] * D[i, None] - C * D
    # on the plane the facets through an end's face have slacks that are
    # multiples of its s_i, so theirs vanish: slope 0
    DG[:, ends] = 0.0
    sign = np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])
    falling, up = DG * sign < 0.0, D > 0.0
    t = float(np.minimum.reduce(np.concatenate(
        [G[falling] / -DG[falling], sm[up] / D[up]])))
    z = 0.5 * (chord.x + chord.y) + 0.5 * t * z0
    d = distances(domain, [chord.x, z, chord.x], [z, chord.y, chord.y], eps)
    return Rigidity(rigid=False, chord=chord, witness=z,
                    deviation_direction=z0,
                    additivity_gap=float(abs(d[0] + d[1] - d[2])))


@dataclass(eq=False)
class AsymptoticProfile:
    """Distances along paired sequences marching to the boundary.

    x_n = a1 + 2^-n (x0 - a1) and y_n likewise toward a2.  mode is
    'same-point' (both targets equal: distances stay bounded),
    'parallel' (distinct targets in one open face, offset parallel to
    a2 - a1: finite limit, the cross ratio of the targets in the face),
    'same-face' (distinct targets in one open face, offset off their
    line: also a finite limit, since the slacks along both sequences are
    affine in 2^-n), or 'divergent' (targets in different faces).
    exceeded_at is the first step past the divergence bound.
    """

    mode: str
    xs: np.ndarray
    ys: np.ndarray
    distances: np.ndarray
    sup: float
    limit_estimate: float
    exceeded_at: int | None


def asymptotic_profile(domain, x0, y0, a1, a2, steps=None, eps=None,
                       bound=None):
    """Profile of d(x_n, y_n) for geometric approaches to boundary points.

    Targets within eps of the domain's extent count as one point, and
    y0 - x0 as parallel to a2 - a1 when it is that close to their line.
    Distinct targets in the relative interior of one face (boundary_face_of
    gives them the same face) have a finite limit: 'parallel' when y0 - x0
    is parallel to a2 - a1, 'same-face' otherwise.  Targets on different
    faces are 'divergent'; an ellipsoid's boundary points are each their
    own face.  Each step's distance is its own query."""
    steps = defaults.DEFAULT_STEPS if steps is None else int(steps)
    if steps < 0:
        raise DegenerateInput("steps must be at least 0")
    bound = defaults.DIVERGENCE_BOUND if bound is None else float(bound)
    eps_v = _eps(eps)
    x0 = _as_array(x0, "x0")
    y0 = _as_array(y0, "y0")
    a1 = _as_array(a1, "a1")
    a2 = _as_array(a2, "a2")
    for a in (a1, a2):
        if not domain.on_boundary(a, eps):
            raise NotOnBoundary("approach target is not a boundary point")
    # both starts are checked as a query's points are
    domain._stacked(x0[None], y0[None], eps_v, ("x0", "y0"))
    tol = eps_v * domain._extent()
    if np.linalg.norm(a1 - a2) <= tol:
        mode = "same-point"
    else:
        f1 = domain.boundary_face_of(a1, eps)
        f2 = domain.boundary_face_of(a2, eps)
        # on one open face, parallel when y0 - x0 is within tol of its
        # projection on a2 - a1, else same-face
        u, v = a2 - a1, y0 - x0
        mode = ("divergent" if f1 != f2 or f1.dim < 1 else "same-face"
                if np.linalg.norm(v - (u @ v) / (u @ u) * u) > tol
                else "parallel")
    # every step's points at once; each distance is still its own query
    t = (2.0 ** -np.arange(steps + 1.0))[:, None]
    xs, ys = a1 + t * (x0 - a1), a2 + t * (y0 - a2)
    ds = []
    exceeded_at = None
    for n in range(steps + 1):
        d = distance(domain, xs[n], ys[n], eps)
        ds.append(d)
        if exceeded_at is None and d > bound:
            exceeded_at = n
    ds = np.array(ds)
    return AsymptoticProfile(
        mode=mode, xs=xs, ys=ys, distances=ds,
        sup=float(ds.max()), limit_estimate=float(ds[-1]),
        exceeded_at=exceeded_at,
    )


def hilbert_ball(domain, center, radius, n_dirs=360, eps=None):
    """Boundary polyline of the metric ball, for 2-dimensional domains.

    The chord's cross ratio is solved for the point at radius R along
    n_dirs chart directions du, all clipped in the one pass that checks
    the center, as a ray is (ConvexDomain._ray): the product [center - o;
    du @ frame.T] @ _M, o the polytope's origin or the ellipsoid's
    center.  Returns ambient points in cyclic order.
    """
    if domain.intrinsic_dim != 2:
        raise DegenerateInput("metric balls are rendered for 2-dim domains")
    if not math.isfinite(radius):
        raise NonFinite("radius is not finite")
    if radius <= 0.0:
        raise DegenerateInput("radius must be positive")
    center = _as_array(center, "center")
    if center.shape != (domain.ambient_dim,):
        raise DegenerateInput(
            f"center must have {domain.ambient_dim} coordinates")
    th = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    Z = np.vstack([center, dirs @ domain._frame.T])
    S, R = domain._product(Z, Z[:1], _eps(eps), ("center", "center"))
    t_lo, t_hi, _ = domain._clip(S, R, 0, slice(1, None))
    # d(u0, u0 + t du) = R times e^-R: a huge R lands on t_hi, not on nan
    t = (t_hi * -t_lo * -math.expm1(-radius)
         / (t_hi * math.exp(-radius) - t_lo))
    return domain._pivot + ((Z[0] @ domain._basis + t[:, None] * dirs)
                            @ domain._frame.T)
