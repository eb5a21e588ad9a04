"""Hilbert metric on bounded convex domains.

The distance between interior points x, y is the natural log of the cross
ratio of (alpha, x, y, beta) where alpha, beta are the boundary endpoints
of the chord through x and y, alpha on the x side.  With facet slacks s it
is the sum of the two Funk distances, log max s(x)/s(y) + log max s(y)/s(x)
(Papadopoulos & Troyanov 2014), for polytopes and polyhedral cones alike.

distances(domain, X, Y) takes N pairs as the rows of two N x ambient
arrays and returns their N distances in one batch of array operations:
the Funk sum on polytopes, the log1p form of the chord cross ratio on
ellipsoids.  All 2N points are checked before any distance is taken.
distance is its one-pair wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .convex import Chord, ConvexDomain, _as_array, _eps, _nullspace
from .errors import (
    DegenerateDenominator,
    DegenerateInput,
    GeometryError,
    NonFinite,
    NotCollinear,
    NotOnBoundary,
    PointNotInterior,
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

    The points must lie on one line within eps relative to its span; a
    vanishing denominator (a == x or b == y) is rejected rather than
    returned as inf.
    """
    eps_v = _eps(eps)
    a, x, y, b = (_as_array(p) for p in (a, x, y, b))
    pts = np.array([a, x, y, b])
    span = pts.max(axis=0) - pts.min(axis=0)
    scale = max(1.0, float(np.linalg.norm(span)))
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
        if np.linalg.norm(r - (r @ u) * u) > eps_v * scale:
            raise NotCollinear("points are not collinear within tolerance")
    ax = np.linalg.norm(a - x)
    by = np.linalg.norm(b - y)
    if ax <= 1e-14 * scale or by <= 1e-14 * scale:
        raise DegenerateDenominator("cross ratio denominator vanishes")
    return float((np.linalg.norm(a - y) * np.linalg.norm(b - x)) / (ax * by))


def _funk_sum(sx, sy, delta):
    """log max_i sx_i/sy_i + log max_j sy_j/sx_j over the last axis, with
    delta = sx - sy taken from the points' difference so that close pairs
    keep digits."""
    return (np.log1p(np.max(delta / sy, axis=-1))
            + np.log1p(np.max(-delta / sx, axis=-1)))


def _reject(bad, n, error, what):
    """Raise error for the first flagged row of a stacked [X; Y] block of
    n pairs, naming the point as x or y (x[i] or y[i] when n > 1)."""
    if bad.any():
        i = int(np.argmax(bad))
        name, row = ("x", i) if i < n else ("y", i - n)
        raise error(f"{name}[{row}] {what}" if n > 1 else f"{name} {what}")


def distances(domain, X, Y, eps=None):
    """Hilbert distances d(X[i], Y[i]) between rows of interior points.

    X and Y are N x ambient arrays, or single points; returns N distances.
    Every point is checked before any distance is taken: NonFinite for a
    NaN or infinite coordinate, PointNotInterior for a point farther than
    eps from the affine hull or not strictly interior.  Polytopes take the
    Funk sum of the facet slacks, ellipsoids the cross ratio of the chord
    as log1p(-1/t_lo) + log1p(1/(t_hi - 1)), with x at t = 0 and y at 1.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if (X.shape != Y.shape or X.ndim not in (1, 2)
            or X.shape[-1] != domain.ambient_dim):
        raise DegenerateInput(
            f"x and y must be matching rows of {domain.ambient_dim} "
            "coordinates")
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    n = len(X)
    P = np.vstack([X, Y])
    _reject(~np.isfinite(P).all(axis=1), n, NonFinite,
            "contains non-finite coordinates")
    _reject(domain._hull_residuals(P) > _eps(eps), n, PointNotInterior,
            "is off the affine hull")
    U = domain.to_local(P)
    S = domain._slacks(U)
    _reject(S.min(axis=1) <= 0.0, n, PointNotInterior,
            "is not strictly interior")
    # from Y - X, not U[n:] - U[:n], which loses digits in the chart shift
    dU = (Y - X) @ domain._basis
    if domain.kind == "polytope":
        return _funk_sum(S[:n], S[n:], dU @ domain._A.T)
    t_lo, t_hi = domain._ellipsoid_chords(U[:n], dU)
    return np.log1p(-1.0 / t_lo) + np.log1p(1.0 / (t_hi - 1.0))


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
    endpoint faces in segments.
    """

    rigid: bool
    chord: Chord
    witness: np.ndarray | None = None
    deviation_direction: np.ndarray | None = None
    additivity_gap: float | None = None


def _deviation_direction(chord, eps):
    """Direction z0 (unit, orthogonal to the chord) such that the plane
    chord + span(z0) cuts both endpoint faces in segments, or None."""
    Ua = chord.face_alpha.direction_basis()
    Ub = chord.face_beta.direction_basis()
    if Ua.shape[1] == 0 or Ub.shape[1] == 0:
        return None  # an endpoint is an extreme point: always rigid
    v = chord.beta - chord.alpha
    v = v / np.linalg.norm(v)
    stacked = np.column_stack([Ua, Ub, v])
    rank = np.linalg.matrix_rank(stacked, tol=1e-9)
    if rank > Ua.shape[1] + Ub.shape[1]:
        return None  # plane of coincidence does not exist
    M = np.column_stack([Ua, v[:, None], -Ub, -v[:, None]])
    best = None
    best_norm = 0.0
    for n in _nullspace(M).T:
        w = Ua @ n[: Ua.shape[1]] + n[Ua.shape[1]] * v
        z0 = w - (w @ v) * v
        nz = np.linalg.norm(z0)
        if nz > best_norm:
            best_norm = nz
            best = z0 / nz
    if best is None or best_norm <= 1e-9:
        return None
    return best


def is_rigid_chord(domain, x, y, eps=None, gap_tol=1e-9):
    """Whether the chord through x and y is the unique geodesic.

    The chord is flexible exactly when some plane through it meets the
    two endpoint faces in segments; in that case a witness point off the
    chord with additive distances is found by bisection toward the
    chord's midpoint along the domain's ray from it in that plane.
    """
    chord = domain.chord_through(x, y, eps)
    z0 = _deviation_direction(chord, eps)
    if z0 is None:
        return Rigidity(rigid=True, chord=chord)
    d_xy = distance(domain, chord.x, chord.y, eps)
    mid = 0.5 * (chord.x + chord.y)
    for sgn in (1.0, -1.0):
        try:
            exit_len = domain.ray(mid, sgn * z0, eps).length
        except GeometryError:
            continue
        frac = 0.5
        for _ in range(40):
            z = mid + frac * exit_len * sgn * z0
            try:
                gap = abs(distance(domain, chord.x, z, eps)
                          + distance(domain, z, chord.y, eps) - d_xy)
            except GeometryError:
                frac *= 0.5
                continue
            if gap <= gap_tol:
                return Rigidity(rigid=False, chord=chord, witness=z,
                                deviation_direction=z0,
                                additivity_gap=float(gap))
            frac *= 0.5
    # plane existed but no witness materialized; report rigid with the
    # direction attached so callers can see the near miss
    return Rigidity(rigid=True, chord=chord, deviation_direction=z0)


@dataclass(eq=False)
class AsymptoticProfile:
    """Distances along paired sequences marching to the boundary.

    x_n = a1 + 2^-n (x0 - a1) and y_n likewise toward a2.  mode is
    'same-point' (both targets equal: distances stay bounded),
    'parallel' (same face, offset parallel to a2 - a1: finite limit), or
    'divergent'.  exceeded_at is the first step past the divergence bound.
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
    """Profile of d(x_n, y_n) for geometric approaches to boundary points."""
    steps = defaults.DEFAULT_STEPS if steps is None else int(steps)
    bound = defaults.DIVERGENCE_BOUND if bound is None else float(bound)
    eps_v = _eps(eps)
    x0 = _as_array(x0, "x0")
    y0 = _as_array(y0, "y0")
    a1 = _as_array(a1, "a1")
    a2 = _as_array(a2, "a2")
    for a in (a1, a2):
        if not domain.on_boundary(a, eps):
            raise NotOnBoundary("approach target is not a boundary point")
    domain._require_interior(x0, eps, "x0")
    domain._require_interior(y0, eps, "y0")
    if np.linalg.norm(a1 - a2) <= eps_v:
        mode = "same-point"
    else:
        f1 = domain.boundary_face_of(a1, eps)
        f2 = domain.boundary_face_of(a2, eps)
        same_face = (f1 == f2 and f1.dim >= 1)
        base = (a2 - a1)[:, None]
        coef, *_ = np.linalg.lstsq(base, y0 - x0, rcond=None)
        parallel = np.linalg.norm(base @ coef - (y0 - x0)) <= eps_v
        mode = "parallel" if (same_face and parallel) else "divergent"
    xs, ys, ds = [], [], []
    exceeded_at = None
    for n in range(steps + 1):
        t = 2.0 ** (-n)
        xn = a1 + t * (x0 - a1)
        yn = a2 + t * (y0 - a2)
        d = distance(domain, xn, yn, eps)
        xs.append(xn)
        ys.append(yn)
        ds.append(d)
        if exceeded_at is None and d > bound:
            exceeded_at = n
    ds = np.array(ds)
    return AsymptoticProfile(
        mode=mode, xs=np.array(xs), ys=np.array(ys), distances=ds,
        sup=float(ds.max()), limit_estimate=float(ds[-1]),
        exceeded_at=exceeded_at,
    )


def hilbert_ball(domain, center, radius, n_dirs=360, eps=None):
    """Boundary polyline of the metric ball, for 2-dimensional domains.

    The chord's cross ratio is solved for the point at radius R along
    n_dirs local directions; returns ambient points in cyclic order.
    """
    if domain.intrinsic_dim != 2:
        raise DegenerateInput("metric balls are rendered for 2-dim domains")
    if not math.isfinite(radius):
        raise NonFinite("radius is not finite")
    if radius <= 0.0:
        raise DegenerateInput("radius must be positive")
    u0 = domain._require_interior(_as_array(center, "center"), eps, "center")
    th = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    t_lo, t_hi = np.array([domain._clip_line(u0, du) for du in dirs]).T
    # d(u0, u0 + t du) = R times e^-R: a huge R lands on t_hi, not on nan
    t = (t_hi * -t_lo * -math.expm1(-radius)
         / (t_hi * math.exp(-radius) - t_lo))
    return domain._origin + (u0 + t[:, None] * dirs) @ domain._basis.T
