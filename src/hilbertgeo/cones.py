"""Proper convex cones and their projective order metric.

A proper cone here is closed, pointed, and spanning.  For interior x and
y, min_scale(x, y) is the smallest lambda with lambda*x - y in the closed
cone, and the metric is ln min_scale(x, y) + ln min_scale(y, x).  On the
cone over a bounded convex domain this restricts to the Hilbert metric of
the domain along its defining slice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .convex import (
    _as_array,
    _eps,
    _hull_facets,
    _lex_keep,
    _reject,
    _require_finite,
)
from .errors import (
    DegenerateInput,
    Unsupported,
    XNotInteriorOfCone,
)
from .metric import _ball_distances, _funk_sum

__all__ = [
    "Cone",
    "build_cone",
    "cone_over",
    "lorentz_cone",
    "cone_distance",
    "cone_distances",
]


_SQRT_HALF = 0.5 ** 0.5
_TINY = np.finfo(float).tiny


@functools.lru_cache(maxsize=None)
def _signature(n):
    J = -np.ones(n)
    J[0] = 1.0
    J.flags.writeable = False
    return J


def _lorentz_form(x, y):
    """x_1 y_1 - <x_2..n, y_2..n> of two points, or of matching rows."""
    return (x * y) @ _signature(x.shape[-1])


def _lorentz_q(z):
    return _lorentz_form(z, z)


def _nearest_power(m, e):
    """The exponents k, one per pair, with 2^k a_x nearest a_y in ratio,
    for positive scales a = m 2^e (np.frexp) of n pairs stacked as
    [a_x; a_y]: from mantissas and exponents, so that no ratio of far
    scales overflows or underflows."""
    n = len(m) // 2
    return e[n:] - e[:n] + np.frexp(m[n:] / m[:n] * _SQRT_HALF)[1]


def _lorentz_scale(x, y):
    """min_scale(x, y) on the Lorentz cone, for interior x, a point.  x
    and y are each first brought to x_1 in [1/2, 1) by a power of two, the
    step cone_distances takes, which is exact, so that no square
    overflows or underflows; the root is then scaled back by their
    ratio, also exactly: min_scale(2^a x, 2^b y) = 2^(b - a) min_scale(x,
    y)."""
    e = np.frexp([x[0], y[0]])[1]
    x, y = np.ldexp(x, -e[0]), np.ldexp(y, -e[1])
    qx = _lorentz_q(x)
    B = _lorentz_form(x, y)
    disc = np.maximum(B * B - qx * _lorentz_q(y), 0.0)
    return np.ldexp((B + np.sqrt(disc)) / qx, e[1] - e[0])


def _with_one(p, first=False):
    """A point, or each row, with a coordinate 1 appended (or prepended)."""
    p = _as_array(p)
    one = np.ones(p.shape[:-1] + (1,))
    return np.concatenate([one, p] if first else [p, one], axis=-1)


@dataclass(eq=False)
class Cone:
    """A proper cone, either polyhedral (generators and facet functionals)
    or the Lorentz cone { x : x_1 >= |x_2..n| }.

    embed, when set, maps points of the originating bounded domain (or the
    rows of an array of them) onto the slice of the cone that reproduces
    its Hilbert metric.
    """

    kind: str
    dim: int
    generators: np.ndarray | None = None
    functionals: np.ndarray | None = None
    embed: object = field(default=None, repr=False)
    lifted: bool = False

    def _interior(self, X):
        """Interior test of each row of X, without checks, read as
        cone_distances accepts a query's points: each row scaled by a
        power of two, which is exact (on a polyhedral cone its largest
        coordinate, on the Lorentz cone x_1, into [1/2, 1)), and the
        product taken on a stack of at least two rows, as a query's is,
        since BLAS multiplies one row by another kernel than a stack of
        rows, which rounds differently."""
        Z = np.concatenate([X, X]) if len(X) == 1 else X
        if self.kind == "polyhedral":
            # a zero row keeps its exponent finite (initial), and stays 0
            e = np.frexp(np.maximum.reduce(np.abs(Z), axis=1,
                                           initial=_TINY))[1]
            S = np.ldexp(Z, -e[:, None]) @ self.functionals.T
            return S.min(axis=1)[:len(X)] > 0.0
        Z = np.ldexp(Z, -np.frexp(Z[:, :1])[1])
        return ((Z[:, 0] > 0.0) & (_lorentz_q(Z) > 0.0))[:len(X)]

    def contains_interior(self, x):
        """Whether x, or each row of x, is interior to the cone."""
        x = _as_array(x, "x")
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise DegenerateInput("point dimension does not match the cone")
        ok = self._interior(np.atleast_2d(x))
        return ok if x.ndim > 1 else bool(ok[0])

    def min_scale(self, x, y):
        """Smallest lambda with lambda*x - y in the closed cone.

        x must be interior; y may be any point of the closed cone.
        """
        x = _as_array(x, "x")
        y = _as_array(y, "y")
        if x.ndim != 1:
            raise DegenerateInput("min_scale takes single points")
        if not self.contains_interior(x):
            raise XNotInteriorOfCone("x must be interior to the cone")
        if self.kind == "polyhedral":
            num = self.functionals @ y
            den = self.functionals @ x
            return float(np.max(num / den))
        return float(_lorentz_scale(x, y))


def build_cone(generators, eps=None):
    """Polyhedral cone spanned by the given generator rays.

    The cone is built from the unit rays along the generators, so it does
    not depend on their lengths, and unit rays within eps of each other
    are one.  Properness is certified: the unit rays must span the space
    (else the cone is flat) and the origin must be a vertex of the convex
    hull of the origin and the unit rays (else the cone is not pointed).
    The cone's facets are that hull's facets through the origin;
    functionals are their inward normals, scaled to 1 at the generators'
    centroid.
    """
    eps_v = _eps(eps)
    G = np.atleast_2d(_as_array(generators, "generators"))
    D = G.shape[1]
    if D < 2:
        raise Unsupported("cones need ambient dimension >= 2")
    norms = np.linalg.norm(G, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInput("zero generator ray")
    R = G / norms[:, None]
    R = R[np.sort(_lex_keep(R, eps_v))]  # in the generators' order
    if np.linalg.matrix_rank(R, tol=1e-9) < D:
        raise DegenerateInput("generators do not span the space")
    # row 0 is the origin
    verts, A, _, sets = _hull_facets(np.vstack([np.zeros(D), R]), eps_v)
    if verts[0] != 0:
        raise DegenerateInput("cone is not pointed")
    center = G.mean(axis=0)
    rows = []
    for normal, key in zip(A, sets):
        if 0 not in key:
            continue  # a facet of the hull away from the apex
        ell = -normal
        scale = float(ell @ center)
        if scale <= eps_v * np.linalg.norm(center):
            raise DegenerateInput("generator centroid is not interior")
        rows.append(ell / scale)
    return Cone(kind="polyhedral", dim=D, generators=G,
                functionals=np.array(rows))


def cone_over(domain, eps=None):
    """The cone over a polytope domain, with the slice embedding attached.

    A full-dimensional domain is lifted by an appended coordinate 1: its
    generators are the vertices [v, 1] and points embed as [p, 1].  Its
    functionals are the domain's own facet rows, homogenised: the slack
    b_i - (p - o).M_i (M the facet columns of _M, o the chart origin)
    becomes l_i(p, t) = (b_i + o.M_i) t - p.M_i, so at t = 1 a lifted
    point's functional values are the domain's slacks, scaled to 1 at the
    generators' centroid, and no null vector is solved for.

    An embedded domain of one dimension less, whose affine hull avoids the
    origin by more than eps of its size, is not lifted: it is build_cone
    over its vertices, the one hull routine of every cone, and points
    embed as themselves.
    """
    if domain.kind != "polytope":
        raise Unsupported("cones are built over polytopes here")
    if domain.intrinsic_dim < domain.ambient_dim:
        if not domain._read(np.zeros(domain.ambient_dim), _eps(eps))[2][0]:
            raise DegenerateInput("generators do not span the space")
        if domain.intrinsic_dim != domain.ambient_dim - 1:
            raise Unsupported("vertex rays would not span the space")
        return replace(build_cone(domain.vertices, eps), embed=_as_array)
    M = domain._M[:, :len(domain._b)]
    G = _with_one(domain.vertices)
    L = np.hstack([-M.T, (domain._b + domain._origin @ M)[:, None]])
    L /= (L @ G.mean(axis=0))[:, None]
    return Cone(kind="polyhedral", dim=G.shape[1], generators=G,
                functionals=L, embed=_with_one, lifted=True)


def lorentz_cone(n):
    """Lorentz cone in R^n: first coordinate dominates the Euclidean norm
    of the rest.  Its unit-height slice is the open round ball."""
    if n < 2:
        raise Unsupported("Lorentz cone needs dimension >= 2")
    return Cone(kind="lorentz", dim=n,
                embed=lambda p: _with_one(p, first=True))


def cone_distance(cone, x, y):
    """Projective order metric between two interior points; see
    cone_distances, of which this is the one-pair wrapper."""
    return float(cone_distances(cone, x, y)[0])


def cone_distances(cone, X, Y):
    """Projective order metric d(X[i], Y[i]) between rows of interior
    points: on a polyhedral cone the Funk sum of the functionals, as for
    polytopes, on the Lorentz cone the Hilbert distance of the points'
    images x_2..n / x_1 in the unit ball, as for ellipsoids.

    X and Y are N x dim arrays, or single points; returns N distances.
    Every point is checked first: NonFinite, or XNotInteriorOfCone naming
    the first offending row.  Each x is first brought to the scale of its
    y by the power of two nearest the ratio of their scales, which is
    exact (_nearest_power): the largest coordinates on a polyhedral cone,
    the first ones on the Lorentz cone.  So D = Y - 2^e X is as small as
    the pair is close when their scales differ by a power of two, and
    under 0.42 |Y| for any pair, where the points' own difference would
    lose every close pair's digits, and a pair reads the same when either
    point is scaled by a power of two.  A polyhedral cone then takes the
    functionals' values and the Funk differences from one product,
    [X; Y; Y - X; X - Y] @ L.T, through the polytopes' helper, so a
    scalar query and its row agree bit for bit.  The Lorentz cone scales
    each point's first coordinate into [1/2, 1), also exactly, accepts a
    query by one reduction of x_1 and q = x_1^2 - |x_2..n|^2, takes
    1 - |w|^2 of each slice point as q / x_1^2, and gives the unit ball's
    closed form (metric._ball_distances).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim not in (1, 2) or X.shape[-1] != cone.dim:
        raise DegenerateInput(
            f"x and y must be matching rows of {cone.dim} coordinates")
    if X.ndim == 1:
        X, Y = X[None, :], Y[None, :]
    n = len(X)
    Z = np.concatenate([X, Y, Y, X])
    P = Z[:2 * n]
    _require_finite(P, n)
    if cone.kind == "polyhedral":
        # by their largest coordinates; a zero row keeps its exponent
        # finite (initial), and stays zero
        m, e = np.frexp(np.maximum.reduce(np.abs(P), axis=1, initial=_TINY))
        Z[:n] = Z[3 * n:] = np.ldexp(X, _nearest_power(m, e)[:, None])
        # the interior test and the Funk sum read one product
        Z[2 * n:] -= P  # Y - X and X - Y
        R = Z @ cone.functionals.T
        S = R[:2 * n]
        if not np.minimum.reduce(S, axis=None, initial=np.inf) > 0.0:
            _reject(~(S.min(axis=1) > 0.0), n, XNotInteriorOfCone,
                    "must be interior to the cone")
        return _funk_sum(S, R[2 * n:])
    # each row with x_1 in [1/2, 1) (as Cone._interior takes it), then
    # x_1 > 0 and q = x_1^2 - |x_2..n|^2 > 0, in one reduction
    m, e = np.frexp(P[:, :1])
    P = np.ldexp(P, -e)
    x1, q = P[:, 0], _lorentz_q(P)
    if not np.minimum.reduce(np.minimum(x1, q), initial=np.inf) > 0.0:
        _reject(~cone._interior(P), n, XNotInteriorOfCone,
                "must be interior to the cone")
    # On the unit ball of the slice x_1 = 1, where 1 - |w|^2 = q / x_1^2,
    # w = X_2..n / X_1 and the direction (D_2..n - w D_1) / Y_1
    w = P[:n, 1:] / P[:n, :1]
    D = Y - np.ldexp(X, _nearest_power(m, e))
    return _ball_distances(w, (D[:, 1:] - w * D[:, :1]) / Y[:, :1],
                           q / (x1 * x1))
