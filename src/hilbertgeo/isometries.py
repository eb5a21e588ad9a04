"""Isometries of Hilbert geometries: projective maps, the simplex log
chart onto a normed hyperplane, reciprocal and star maps, boundary
focusing probes, and a classifier for plane domains.

A map is a plain callable that takes a point or an N x d block of rows
and returns the image point or the block of image rows, so
non-projective isometries compose with projective ones freely and the
sampled checks map all their points in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .cones import _lorentz_q
from .convex import _as_array, _as_points, _eps
from .errors import (
    DegenerateBasis,
    DegenerateInput,
    GeometryError,
    ImageEscapedDomain,
    NonFinite,
    NotInSimplex,
    PointAtInfinity,
    Unsupported,
)
from .metric import distances

__all__ = [
    "ProjectiveMap",
    "fit_projective",
    "clr",
    "clr_inv",
    "variation_norm",
    "w_basis",
    "axis_coords",
    "axis_coords_inv",
    "reciprocal_map",
    "simplex_projective",
    "vinberg_star",
    "HilbertSpace",
    "WSpace",
    "sampled_isometry_check",
    "projectivity_check",
    "FocusVerdict",
    "focusing_probe",
    "classify_2d",
    "is_cone_3d",
]


# ------------------------------------------------------------- projective

class ProjectiveMap:
    """Invertible projective map of R^d, stored as a (d+1)x(d+1) matrix
    acting on homogeneous coordinates [p; 1]."""

    def __init__(self, matrix):
        M = _as_array(matrix, "matrix")
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DegenerateInput("projective matrix must be square")
        s = np.linalg.svd(M, compute_uv=False)
        if not s[-1] > 1e-12 * s[0]:
            raise DegenerateInput("projective matrix is singular")
        self.matrix = _normal_form(M[None])[0]
        self.dim = len(M) - 1

    @classmethod
    def _normalised(cls, M):
        """The map of a matrix already in _normal_form."""
        out = cls.__new__(cls)
        out.matrix = M
        out.dim = len(M) - 1
        return out

    def __call__(self, p):
        """Image of a point, or of each row of an N x d array."""
        p = _as_array(p, "point")
        if p.ndim not in (1, 2) or p.shape[-1] != self.dim:
            raise DegenerateInput("point dimension does not match the map")
        out = self.apply(np.atleast_2d(p))
        return out if p.ndim == 2 else out[0]

    def apply(self, P):
        """Images of the rows of P; PointAtInfinity if any image lies on
        the hyperplane at infinity: if its last homogeneous coordinate is
        within 64 ulp of |[p; 1]| . |M[-1]|, the size of the terms that
        make it, so the test does not depend on the scale of p or of M."""
        X = np.hstack([P, np.ones((len(P), 1))])
        h = X @ self.matrix.T
        size = np.abs(X) @ np.abs(self.matrix[-1])
        if np.any(np.abs(h[:, -1]) <= 64.0 * np.finfo(float).eps * size):
            raise PointAtInfinity("image lies on the hyperplane at infinity")
        return h[:, :-1] / h[:, -1:]

    def inverse(self):
        return ProjectiveMap(np.linalg.inv(self.matrix))

    def compose(self, other):
        """self after other."""
        return ProjectiveMap(self.matrix @ other.matrix)


def _normal_form(M):
    """A stack of matrices scaled to largest entry 1 in absolute value,
    with the first entry above 1e-12 positive.  ProjectiveMap checks that
    a matrix is invertible (smallest singular value above 1e-12 of the
    largest) before it takes this form."""
    top = np.abs(M).max(axis=(1, 2), keepdims=True)
    M = M / np.where(top > 0.0, top, 1.0)
    flat = M.reshape(len(M), -1)
    lead = flat[np.arange(len(M)), np.argmax(np.abs(flat) > 1e-12, axis=1)]
    return np.where((lead < 0)[:, None, None], -M, M)


def _frames(P):
    """Projective frames of a stack of d+2 point families in R^d: H has the
    first d+1 points of a family as homogeneous columns, and c holds the
    coefficients of the last point over them.  Also returns which
    families span (smallest singular value of H above 1e-10 of the
    largest) and which are in general position (spanning, with every
    coefficient above 1e-10 of the largest)."""
    K, _, d = P.shape
    H = np.concatenate([np.swapaxes(P[:, :d + 1], 1, 2),
                        np.ones((K, 1, d + 1))], axis=1)
    star = np.concatenate([P[:, d + 1], np.ones((K, 1))], axis=1)
    sv = np.linalg.svd(H, compute_uv=False)
    spans = sv[:, -1] > 1e-10 * sv[:, 0]
    c = np.linalg.solve(np.where(spans[:, None, None], H, np.eye(d + 1)),
                        star[..., None])[..., 0]
    a = np.abs(c)
    return H, c, spans, spans & (a.min(axis=1) > 1e-10 * a.max(axis=1))


# why _fit_stack rejects a candidate, by its failure code
_FIT_FAILURES = {
    1: (DegenerateBasis, "reference points do not span"),
    2: (DegenerateBasis, "last point lies on a reference face"),
    3: (NonFinite, "matrix contains non-finite coordinates"),
}


def _unit_frames(P):
    """Unit-size copies of a stack of point families, each moved to
    centroid 0 and scaled to largest coordinate range 1, and the
    homogeneous matrices that carry each copy back onto its family."""
    d = P.shape[2]
    c = P.mean(axis=1)
    r = np.ptp(P, axis=1).max(axis=1)
    r = np.where(r > 0.0, r, 1.0)
    back = np.zeros((len(P), d + 1, d + 1))
    back[:, :d, :d] = r[:, None, None] * np.eye(d)
    back[:, :, d] = np.c_[c, np.ones(len(P))]
    return (P - c[:, None]) / r[:, None, None], back


def _fit_stack(S, T):
    """The projective maps sending one family S of d+2 points in R^d to
    each family of a stack T, as a stack of matrices in ProjectiveMap's
    normal form, with a failure code per candidate: 0 for a map, else a
    key of _FIT_FAILURES, the first of fit_projective's checks that
    fails (source frame, then target frame, then the matrix).  The fit
    runs on _unit_frames copies, so no test depends on scale or place;
    S and T share one stack, [S; T], and each family's arithmetic is its
    own."""
    K = len(T)
    P, back = _unit_frames(np.concatenate([S[None], T]))
    H, c, spans, general = _frames(P)
    fail = np.where(general[1:], 0, np.where(spans[1:], 2, 1))
    if not general[0]:
        fail[:] = 2 if spans[0] else 1
    eye = np.eye(S.shape[1] + 1)
    M = np.broadcast_to(eye, (K,) + eye.shape)
    if general[0]:
        fit = (back[1:] @ (H[1:] * c[1:, None, :])
               @ np.linalg.inv(H[0] * c[0]) @ np.linalg.inv(back[0]))
        M = np.where((fail == 0)[:, None, None], fit, M)
    finite = np.isfinite(M).all(axis=(1, 2))
    fail[(fail == 0) & ~finite] = 3
    return _normal_form(np.where(finite[:, None, None], M, eye)), fail


def fit_projective(src, dst):
    """The projective map of R^d sending d+2 source points to d+2 targets.

    Both families must be in general position: the first d+1 span, and the
    last point has no vanishing coefficient over them (no point on a face
    of the reference simplex).  Extra point pairs beyond d+2 are ignored.
    """
    S = np.atleast_2d(_as_array(src, "src"))
    T = np.atleast_2d(_as_array(dst, "dst"))
    if S.shape != T.shape:
        raise DegenerateInput("source and target point counts differ")
    d = S.shape[1]
    if len(S) < d + 2:
        raise DegenerateBasis(f"need {d + 2} point pairs in dimension {d}")
    M, fail = _fit_stack(S[: d + 2], T[None, : d + 2])
    if fail[0]:
        error, message = _FIT_FAILURES[int(fail[0])]
        raise error(message)
    return ProjectiveMap._normalised(M[0])


# ---------------------------------------------------- simplex log chart

def _simplex_point(x, name="x"):
    x = _as_array(x, name)
    if np.any(x <= 0.0) or np.any(np.abs(x.sum(axis=-1) - 1.0) > 1e-9):
        raise NotInSimplex(f"{name} must have positive entries summing to 1")
    return x


def _sums_to_zero(theta):
    return (np.abs(theta.sum(axis=-1))
            <= 1e-9 * np.maximum(1.0, np.abs(theta).max(axis=-1)))


def clr(x):
    """Centered log chart of the open simplex onto the sum-zero hyperplane;
    an isometry onto the variation-norm geometry of that hyperplane."""
    lx = np.log(_simplex_point(x))
    return lx - lx.mean(axis=-1, keepdims=True)


def clr_inv(theta):
    """Inverse of clr: normalized exponentials."""
    theta = _as_array(theta, "theta")
    if not np.all(_sums_to_zero(theta)):
        raise DegenerateInput("coordinates must sum to zero")
    e = np.exp(theta - theta.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def variation_norm(theta):
    """max minus min of the entries, of a vector or of each row; the norm
    pushed forward by clr."""
    theta = np.asarray(theta, dtype=float)
    v = theta.max(axis=-1) - theta.min(axis=-1)
    return v if theta.ndim > 1 else float(v)


def w_basis(n):
    """Columns v_i = ones - (n+1) e_i, i = 1..n, a basis of the sum-zero
    hyperplane in R^(n+1)."""
    V = np.ones((n + 1, n)) - (n + 1) * np.eye(n + 1)[:, :n]
    return V


def axis_coords(theta):
    """Coordinates of a sum-zero vector, or of each row, over the w_basis
    columns."""
    theta = _as_array(theta, "theta")
    V = w_basis(theta.shape[-1] - 1)
    a, *_ = np.linalg.lstsq(V, theta.T, rcond=None)
    return a.T


def axis_coords_inv(a):
    a = _as_array(a, "a")
    return a @ w_basis(a.shape[-1]).T


# ----------------------------------------------------- simplex isometries

def reciprocal_map(x):
    """Entrywise reciprocal, renormalized to the simplex.  An involutive
    isometry of the simplex Hilbert metric that is not projective for
    dimension >= 2."""
    r = 1.0 / _simplex_point(x)
    return r / r.sum(axis=-1, keepdims=True)


def simplex_projective(matrix):
    """Projective self-map of the simplex induced by an invertible matrix
    with nonnegative action: x -> Mx / sum(Mx)."""
    M = _as_array(matrix, "matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DegenerateInput("matrix must be square")
    if abs(np.linalg.det(M)) <= 1e-12:
        raise DegenerateInput("matrix is singular")

    def apply(x):
        y = _simplex_point(x) @ M.T
        if np.any(y <= 0.0):
            raise ImageEscapedDomain("image left the open simplex")
        return y / y.sum(axis=-1, keepdims=True)

    return apply


def vinberg_star(kind, x):
    """Star involution of a self-dual cone.

    'orthant': entrywise reciprocal.  'lorentz': time-preserving sign flip
    scaled by the quadratic form, (x1, -x2, ..., -xn) / q(x).  Both map
    the interior onto itself and reverse the cone order.  x is a point or
    an N x n block of rows.
    """
    x = _as_array(x, "x")
    if kind == "orthant":
        if np.any(x <= 0.0):
            raise DegenerateInput("point must be interior to the orthant")
        return 1.0 / x
    if kind == "lorentz":
        q = _lorentz_q(x)
        if np.any(x[..., 0] <= 0.0) or np.any(q <= 0.0):
            raise DegenerateInput("point must be interior to the Lorentz cone")
        y = -x
        y[..., 0] = x[..., 0]
        return y / q[..., None]
    raise Unsupported(f"unknown star kind {kind!r}")


# ----------------------------------------------------- metric space views

class HilbertSpace:
    """Adapter giving a convex domain the metric-space interface used by
    the sampled checks.  pull keeps samples a conditioning margin away
    from the boundary.  sample(rng, k) gives k rows, or one point for
    k = 1; contains and distance take points or rows."""

    def __init__(self, domain, pull=0.02):
        self.domain = domain
        self.pull = pull

    def sample(self, rng, k=1):
        return self.domain.sample_interior(rng, k, pull=self.pull)

    def contains(self, p):
        return self.domain.contains_interior(p, 1e-12)

    def distance(self, x, y):
        d = distances(self.domain, x, y)
        return d if np.ndim(x) > 1 else float(d[0])


class WSpace:
    """The sum-zero hyperplane in R^(n+1) under the variation norm, with
    the interface of HilbertSpace."""

    def __init__(self, n, scale=2.0):
        self.n = n
        self.scale = scale

    def sample(self, rng, k=1):
        v = rng.normal(size=(k, self.n + 1)) * self.scale
        v -= v.mean(axis=1, keepdims=True)
        return v if k != 1 else v[0]

    def contains(self, theta):
        ok = _sums_to_zero(np.asarray(theta, dtype=float))
        return ok if ok.ndim else bool(ok)

    def distance(self, x, y):
        return variation_norm(np.asarray(x, float) - np.asarray(y, float))


def _map_rows(f, P):
    """f applied to the rows of P in one call; DegenerateInput unless it
    returns one image row per row."""
    Q = _as_array(f(P), "image")
    if Q.ndim != 2 or len(Q) != len(P):
        raise DegenerateInput(
            f"map sent {len(P)} rows to an array of shape {Q.shape}; it "
            "must return one image row per row")
    return Q


def sampled_isometry_check(src, dst, f, rng, samples=200):
    """Largest deviation |d_src(x, y) - d_dst(f x, f y)| over random pairs.

    The pairs' points are drawn x, y, x, y, ... in one src.sample call and
    mapped by one call of f on their rows.  Raises ImageEscapedDomain when
    an image leaves the target space.
    """
    if samples < 1:
        return 0.0
    P = src.sample(rng, 2 * samples)
    F = _map_rows(f, P)
    if not np.all(dst.contains(F)):
        raise ImageEscapedDomain("map sent a sample outside the target")
    dev = np.abs(src.distance(P[0::2], P[1::2])
                 - dst.distance(F[0::2], F[1::2]))
    return float(dev.max())


_QUADRUPLE = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


def projectivity_check(domain, f, rng, samples=60, pull=0.05):
    """Largest failure of line and cross-ratio preservation under f.

    Draws collinear quadruples at parameters 0, 1/3, 2/3, 1 between
    random interior pairs; measures image collinearity residual (relative
    to the image span) and cross-ratio drift.  Near zero for projective
    maps, order 1e-2 and up for genuinely non-projective isometries.
    The pairs are drawn in one batch and all quadruples mapped by one
    call of f.  Pairs closer than 1e-6 of the domain's extent are
    skipped, and a quadruple whose image span is at round-off level of
    its image coordinates counts as a failure of 1.
    """
    P = domain.sample_interior(rng, 2 * samples, pull=pull)
    X, Y = P[0::2], P[1::2]
    far = np.linalg.norm(Y - X, axis=1) >= 1e-6 * domain._extent()
    X, Y = X[far], Y[far]
    n = len(X)
    if n == 0:
        return 0.0
    pts = X[:, None] + _QUADRUPLE[:, None] * (Y - X)[:, None]
    imgs = _map_rows(f, pts.reshape(4 * n, -1)).reshape(n, 4, -1)
    R = imgs - imgs[:, :1]
    span = np.linalg.norm(R[:, 3], axis=1)
    bad = span <= 1e-12 * np.abs(imgs).max(axis=(1, 2))
    span = np.where(bad, 1.0, span)
    u = R[:, 3] / span[:, None]
    s = np.einsum("nkd,nd->nk", R, u)
    resid = np.linalg.norm(R - s[..., None] * u[:, None], axis=2).max(axis=1)
    d1, d2 = s[:, 1] - s[:, 0], s[:, 3] - s[:, 2]
    bad |= np.minimum(np.abs(d1), np.abs(d2)) <= 1e-12 * span
    cr_img = ((s[:, 2] - s[:, 0]) * (s[:, 3] - s[:, 1])
              / np.where(bad, 1.0, d1 * d2))
    # the source cross ratio (|p0-p2| |p3-p1|) / (|p0-p1| |p3-p2|)
    gap = np.linalg.norm(pts[:, [2, 3, 1, 3]] - pts[:, [0, 1, 0, 2]], axis=2)
    cr_src = gap[:, 0] * gap[:, 1] / (gap[:, 2] * gap[:, 3])
    worst = np.maximum(resid / span, np.abs(cr_img - cr_src))
    return float(np.where(bad, 1.0, worst).max())


# ------------------------------------------------------ boundary focusing

@dataclass(eq=False)
class FocusVerdict:
    """Whether image sequences along different approaches to one boundary
    point accumulate at one boundary point (spread below the threshold)."""

    focused: bool
    target: np.ndarray
    limits: np.ndarray
    spread: float


def focusing_probe(domain, f, target, starts, horizon=24, eps=None):
    """Push geometric sequences start -> target through f and compare the
    boundary limits of the image sequences across starts.

    The points target + 2^-i (start - target), i = 0..horizon, of every
    start are mapped in one call of f.  A sequence's images count up to
    the first that lands numerically on the boundary (no positive slack,
    or off the affine hull by more than eps of the size), and its limit
    is where the ray through its last two counted images leaves the
    domain, or the last image when they are within 1e-14 of the domain's
    extent.
    """
    starts = [_as_points(s, domain.ambient_dim, "start") for s in starts]
    if len(starts) < 2:
        raise DegenerateInput("need at least two starts to compare limits")
    target = _as_points(target, domain.ambient_dim, "target")
    S = np.array(starts)
    e = _eps(eps)
    # the starts are checked as a query's points are, each named by its row
    domain._stacked(S, S, e, ("start", "start"))
    h = horizon + 1
    pts = target + (2.0 ** -np.arange(h))[:, None] * (S - target)[:, None]
    Q = _map_rows(f, pts.reshape(len(S) * h, -1))
    slack, g, _ = domain._read(Q)
    off = ((slack.min(axis=1) <= 0.0) | (g > e * abs(e))).reshape(len(S), h)
    kept = np.where(off.any(axis=1), off.argmax(axis=1), h)
    if np.any(kept == 0):
        raise GeometryError("image sequence left the domain immediately")
    limits, extent = [], domain._extent()
    for q, k in zip(Q.reshape(len(S), h, -1), kept):
        last = q[k - 1]
        if k == 1 or np.linalg.norm(last - q[k - 2]) <= 1e-14 * extent:
            limits.append(last)
        else:
            limits.append(domain.ray(q[k - 2], last - q[k - 2], eps).endpoint)
    limits = np.array(limits)
    spread = float(np.linalg.norm(limits[:, None] - limits, axis=2).max())
    return FocusVerdict(
        focused=spread < defaults.EPS_FOCUS,
        target=target, limits=limits, spread=spread,
    )


# --------------------------------------------------------- 2D classifier

@dataclass(eq=False)
class PlaneClassification:
    """Result of comparing two plane domains up to Hilbert isometry.

    verdict is 'projectively-equivalent' or 'not-isometric'; witness, when
    present, maps local chart coordinates of the first domain onto the
    second, and apply_ambient does the same on ambient points.
    """

    verdict: str
    witness: ProjectiveMap | None
    max_deviation: float
    apply_ambient: object | None = None


def _chart_map(dom_a, dom_b, local_map):
    def go(p):
        return dom_b.to_ambient(local_map(dom_a.to_local(p)))
    return go


# the neighbour offsets of the determinants' first and second vectors
_PENCIL = np.array([[1, 2, 1, 2], [-2, -1, -1, -2]])


def _pencil_ratios(V, delta):
    """The cross ratio r of the pencil of four lines from each vertex of a
    convex polygon to its neighbours, and a bound rho on its relative
    change when every vertex moves by at most delta; for a stack V of
    polygons (rows in cyclic order, at least 5) and one delta each.

    With e_k = v[i+k] - v[i] and D the 2x2 determinant,
    r_i = D(e+1, e-2) D(e+2, e-1) / (D(e+1, e-1) D(e+2, e-2)), which no
    projective map and no reversal of the neighbour order changes.  Moving
    the vertices by delta moves D(a, b) by at most 2 delta (|a| + |b|), so
    rho = sum 2 delta (|a| + |b|) / |D(a, b)| over the four determinants;
    it is infinite where a determinant vanishes.  The vectors are complex
    numbers, so D(a, b) is the imaginary part of conj(a) b."""
    Z = V[..., 0] + 1j * V[..., 1]
    m = Z.shape[1]
    E = (np.take(Z, np.arange(m)[:, None, None] + _PENCIL, axis=1,
                 mode="wrap") - Z[:, :, None, None])
    D = (E[:, :, 0].conj() * E[:, :, 1]).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        r = D[..., 0] * D[..., 1] / (D[..., 2] * D[..., 3])
        rho = (2.0 * delta[:, None]) * (np.abs(E).sum(axis=2)
                                        / np.abs(D)).sum(axis=2)
    return r, rho


def _pencils_agree(va, vb, match, delta):
    """Which rows of match, each matching va[i] with vb[match[k, i]], pair
    vertices of equal pencil cross ratio (_pencil_ratios), within what a
    candidate can leave when it sends each vertex within delta of its
    match: r^B may move by 4 rho |r^B|, twice the first-order bound.  r^A
    and r^B also carry the round-off of 4 ulp of their polygon's largest
    coordinate.  A vertex with rho of 1/2 or more on either side sets no
    constraint, nor does one whose ratio overflows."""
    V = np.array([va, vb])
    r, rho = _pencil_ratios(
        V, 4.0 * np.finfo(float).eps * np.abs(V).max(axis=(1, 2))
        + [0.0, delta])
    tight = (rho < 0.5) & np.isfinite(r)
    with np.errstate(invalid="ignore"):  # rho = inf where r = 0
        slack = np.where(tight, 4.0 * rho * np.abs(r), np.inf)
    r = np.where(tight, r, 0.0)
    near = np.abs(r[1][match] - r[0]) <= slack[1][match] + slack[0]
    return near.all(axis=1)


def _plane_frame(P):
    """The projective frame of four points (x, y) of the plane, as _frames
    takes it on the _unit_frames copy, in Python floats: a failure code (0,
    1 where the first three do not span, 2 where the fourth lies on a face
    of their triangle), the coefficients c of the fourth point over the
    first three (None on failure), and the copy's columns and centroid and
    scale.  c is Cramer's rule with one step of refinement.  A frame fails
    only where it cannot be fitted: D, the first three's determinant, is
    zero, or a coefficient is zero or not finite.  Its conditioning is
    left to the vertex test of its map (_first_witness)."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = P
    cx = (x0 + x1 + x2 + x3) / 4.0
    cy = (y0 + y1 + y2 + y3) / 4.0
    r = max(max(x0, x1, x2, x3) - min(x0, x1, x2, x3),
            max(y0, y1, y2, y3) - min(y0, y1, y2, y3))
    r = r if r > 0.0 else 1.0
    u = u0, u1, u2, u3 = (x0 - cx) / r, (x1 - cx) / r, (x2 - cx) / r, \
        (x3 - cx) / r
    v = v0, v1, v2, v3 = (y0 - cy) / r, (y1 - cy) / r, (y2 - cy) / r, \
        (y3 - cy) / r
    # the rows of adj(H), each the cross product of H's other two columns
    adj = ((v1 - v2, u2 - u1, u1 * v2 - u2 * v1),
           (v2 - v0, u0 - u2, u2 * v0 - u0 * v2),
           (v0 - v1, u1 - u0, u0 * v1 - u1 * v0))
    frame = (u, v, cx, cy, r, adj)
    # the determinants, each from differences to one of its columns
    a1, b1, a2, b2, a3, b3 = u1 - u0, v1 - v0, u2 - u0, v2 - v0, u3 - u0, \
        v3 - v0
    D = a1 * b2 - a2 * b1
    if D == 0.0:
        return 1, None, frame
    c = ((a1 - a3) * (b2 - b3) - (a2 - a3) * (b1 - b3)) / D, \
        (a3 * b2 - a2 * b3) / D, (a1 * b3 - a3 * b1) / D
    # one step of refinement, c + adj(H) (star - H c) / D, leaves a small
    # residual, as LAPACK's solve does: the fitted map is far more
    # sensitive to that than to c's forward error
    rx = u3 - (u0 * c[0] + u1 * c[1] + u2 * c[2])
    ry = v3 - (v0 * c[0] + v1 * c[1] + v2 * c[2])
    r1 = 1.0 - (c[0] + c[1] + c[2])
    c = [t + (w0 * rx + w1 * ry + w2 * r1) / D
         for t, (w0, w1, w2) in zip(c, adj)]
    if not all(t != 0.0 and math.isfinite(t) for t in c):
        return 2, None, frame
    return 0, c, frame


def _plane_source(S):
    """The source half of a plane fit from four points (x, y): the failure
    code of their frame (_plane_frame; nonzero only where it cannot be
    fitted), and the rows of diag(1/c) adj(H) back^-1, the inverse of the
    frame's H diag(c) on its unit copy and of the copy's map back, each
    up to a scalar."""
    code, c, (u, v, cx, cy, r, adj) = _plane_frame(S)
    if code:
        return code, None
    return 0, [(w0 / t, w1 / t, (r * w2 - cx * w0 - cy * w1) / t)
               for t, (w0, w1, w2) in zip(c, adj)]


def _plane_fit(A, T):
    """The projective map of the plane sending a source frame, given by
    its _plane_source rows A, to four target points (x, y), in Python
    floats: a failure code (the target frame's, or 3 where the matrix is
    not finite), and on success the matrix, row by row in one list of
    nine, in ProjectiveMap's normal form.  The map is
    back_T H_T diag(c_T) (H_S diag(c_S))^-1 back_S^-1 of the two frames'
    unit copies (_plane_frame); scalars drop out in the normal form."""
    code, c, (u, v, cx, cy, r, _) = _plane_frame(T)
    if code:
        return code, None
    g = [[c[k] * t for t in A[k]] for k in range(3)]
    # H diag(c) A on the unit copy, then the copy's map back
    z = [g[0][j] + g[1][j] + g[2][j] for j in range(3)]
    M = [r * (u[0] * g[0][j] + u[1] * g[1][j] + u[2] * g[2][j]) + cx * z[j]
         for j in range(3)]
    M += [r * (v[0] * g[0][j] + v[1] * g[1][j] + v[2] * g[2][j]) + cy * z[j]
          for j in range(3)]
    M += z
    if not all(map(math.isfinite, M)):
        return 3, None
    top = max(map(abs, M))
    M = [t / top for t in M]
    return 0, M if next(t for t in M if abs(t) > 1e-12) > 0.0 else \
        [-t for t in M]


def _frame_at(va):
    """The positions of the four frame vertices of an m-gon, m >= 4, its
    vertices a list of [x, y]: for m >= 6 those at 0, m/4, m/2 and 3m/4,
    rounded down, of which no three are consecutive, so a vertex nearly
    on its neighbours' line, which spoils a frame that holds all three,
    never does; for a pentagon the four other than its flattest vertex,
    the one of least height over its neighbours' line per squared length
    of their chord."""
    m = len(va)
    if m != 5:
        return [0, m // 4, m // 2, 3 * m // 4]

    def flatness(i):
        (px, py), (x, y), (qx, qy) = va[i - 1], va[i], va[(i + 1) % 5]
        cx, cy = qx - px, qy - py
        return abs(cx * (y - py) - cy * (x - px)) / (cx * cx + cy * cy) ** 1.5

    k = min(range(5), key=flatness)
    return [(k + j) % 5 for j in range(1, 5)]


def _first_witness(va, vb, match, size, tol):
    """The first candidate of match, in its order, whose map (_plane_fit)
    sends every vertex va[i] within tol of its match vb[match[k, i]], in
    units of vb's size, with denominators of one sign on va: its matrix (a
    list of nine) and its largest vertex deviation, or None.  This vertex
    test alone accepts a map.  Triangles take their centroids as the
    fourth frame point, larger polygons four of their vertices, at the
    same positions (_frame_at) in va and in each candidate's match.
    Candidates are fitted one at a time and the search stops at the
    witness."""
    if not len(match):
        return None
    va, vb = va.tolist(), vb.tolist()
    m = len(va)
    at = _frame_at(va) if m > 3 else None

    def frame(V):
        if at:
            return [V[i] for i in at]
        (x0, y0), (x1, y1), (x2, y2) = V
        return V + [[(x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0]]

    code, A = _plane_source(frame(va))
    if code:
        return None
    for row in match.tolist():
        W = [vb[j] for j in row]
        code, M = _plane_fit(A, frame(W))
        if code:
            continue
        a, b, c, d, e, f, g, h, k = M
        up = g * va[0][0] + h * va[0][1] + k > 0.0
        worst = 0.0
        for (x, y), (wx, wy) in zip(va, W):
            z = g * x + h * y + k
            if not (z > 0.0 if up else z < 0.0):
                break
            dx = (a * x + b * y + c) / z - wx
            dy = (d * x + e * y + f) / z - wy
            worst = max(worst, dx * dx + dy * dy)
        else:
            dev = math.sqrt(worst) / size
            if dev <= tol:
                return M, dev
    return None


def classify_2d(dom_a, dom_b, rng=None, tol=1e-7):
    """Decide whether two plane domains are isometric, with a witness.

    Plane domains are isometric exactly when projectively equivalent.
    A candidate map of two m-gons matches their vertices cyclically, in
    one of m shifts and two orientations.  For m >= 5 a candidate is
    fitted only if it matches vertices of equal pencil cross ratio: at
    vertex i, the cross ratio of the lines to v[i+1], v[i+2], v[i-2],
    v[i-1], which projective maps keep.  It must agree to within
    4 rho |r| plus round-off, where rho bounds the relative change of the
    second polygon's ratio when its vertices move by tol of its size, so
    no candidate the vertex test accepts is dropped (_pencils_agree).
    Every triangle, and every quadrilateral, is equivalent, so for
    m <= 4 all 2m candidates are fitted.  The survivors are fitted one
    at a time, in shift order, each in closed form in Python floats on
    unit-size copies of the frames (_plane_fit; _fit_stack, the stacked
    fit of any dimension, stays for fit_projective), and the search stops
    at the witness: the first that sends every vertex within tol of its
    match, in the second polygon's unit frame, with denominators of one
    sign on the first's vertices; then it maps the first polygon onto
    the second (_first_witness).  That vertex test alone decides: a frame
    is skipped only where it cannot be fitted.  Ellipses compose their
    affine charts.  max_deviation is the vertex residual, or the radial
    one of the chart's axis ends.  A polygon and an ellipse are never
    isometric.  rng is accepted and not used.
    """
    if dom_a.intrinsic_dim != 2 or dom_b.intrinsic_dim != 2:
        raise Unsupported("the classifier compares plane domains")
    if dom_a.kind != dom_b.kind:
        return PlaneClassification("not-isometric", None, math.inf)
    if dom_a.kind == "ellipsoid":
        # all ellipses are affinely equivalent: compose the unit-disk charts
        A = dom_b._chol @ dom_a._chol_inv
        t = dom_b.center - A @ dom_a.center
        M = np.eye(3)
        M[:2, :2] = A
        M[:2, 2] = t
        cand = ProjectiveMap(M)
        # charts here are ambient (ellipsoids are stored unembedded)
        ends = dom_a.center + np.vstack([dom_a._chol.T, -dom_a._chol.T])
        # the images' slacks 1 - |w| in B, whose boundary is |w| = 1
        slack = dom_b._read(cand.apply(ends))[0]
        return PlaneClassification(
            "projectively-equivalent", cand, float(np.abs(slack).max()),
            _chart_map(dom_a, dom_b, cand))
    va, _ = dom_a.polygon_vertices_local()
    vb, _ = dom_b.polygon_vertices_local()
    m = len(va)
    if len(vb) != m:
        return PlaneClassification("not-isometric", None, math.inf)
    # candidate 2 shift + (orient == -1) matches va[i] with
    # vb[(shift + orient i) % m], for shift in 0..m-1 and orient 1, -1
    i = np.arange(m)
    match = (i[:, None, None] + np.outer([1, -1], i)).reshape(2 * m, m) % m
    size = float(np.ptp(vb, axis=0).max())
    if m >= 5:
        match = match[_pencils_agree(va, vb, match, tol * size)]
    found = _first_witness(va, vb, match, size, tol)
    if found is None:
        return PlaneClassification("not-isometric", None, math.inf)
    cand = ProjectiveMap._normalised(np.array(found[0]).reshape(3, 3))
    return PlaneClassification("projectively-equivalent", cand, found[1],
                               _chart_map(dom_a, dom_b, cand))


def is_cone_3d(domain):
    """Whether a 3-dimensional polytope is a cone: some vertex joined to a
    facet not containing it exhausts the vertex set.  Returns
    (flag, apex, base_face)."""
    if domain.kind != "polytope" or domain.intrinsic_dim != 3:
        raise Unsupported("cone detection works on 3-dim polytopes")
    lattice = domain.face_lattice()
    n = len(domain.vertices)
    # the apex is the one vertex that a facet of n - 1 vertices misses
    bases = [F for F in lattice._facet_masks if F.bit_count() == n - 1]
    if not bases:
        return False, None, None
    base = max(bases)  # the base that misses the lowest vertex
    apex = (((1 << n) - 1) ^ base).bit_length() - 1
    return True, domain.vertices[apex], lattice._with_mask(base)
