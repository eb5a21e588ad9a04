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
from operator import add, mul

import numpy as np

from . import defaults
from .cones import _lorentz_q
from .convex import _as_array, _as_points, _eps
from .errors import (
    DegenerateBasis,
    DegenerateInput,
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
        if len(M) < 2:
            raise DegenerateInput("projective matrix must be at least 2 x 2")
        s = np.linalg.svd(M, compute_uv=False)
        if not s[-1] > 1e-12 * s[0]:
            raise DegenerateInput("projective matrix is singular")
        self.matrix = np.reshape(_normal_form(M.ravel().tolist()), M.shape)
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
    """A matrix's entries, row by row in one list of Python floats,
    scaled to largest 1 in absolute value, with the first entry above
    1e-12 positive.  ProjectiveMap checks that a matrix is invertible
    (smallest singular value above 1e-12 of the largest), and _fit that
    its matrix is finite, before they take this form."""
    top = max(map(abs, M))
    M = [t / top for t in M]
    return M if next(t for t in M if abs(t) > 1e-12) > 0.0 else \
        [-t for t in M]


# why a fit rejects a frame or a map, by its failure code
_FIT_FAILURES = {
    1: (DegenerateBasis, "reference points do not span"),
    2: (DegenerateBasis, "last point lies on a reference face"),
    3: (NonFinite, "matrix contains non-finite coordinates"),
}


def _frame(P):
    """The projective frame of d+2 points of R^d, a list of lists, in
    Python floats on their unit copy: the points moved to centroid 0 and
    scaled to largest coordinate range 1.  Returns a failure code (0, 1
    where the first d+1 points do not span, 2 where the last lies on a
    face of their simplex), the coefficients c of the last point over
    the first d+1 in homogeneous coordinates (None on failure), the
    copy's coordinates X, X[i][k] the i-th of point k, its centroid and
    scale, and W, the inverse of the d x d matrix whose columns are the
    differences u_j - u_0, j = 1..d.

    c_1..c_d solve sum c_j (u_j - u_0) = u_* - u_0, by Gauss-Jordan
    elimination with partial pivoting that also yields W, and
    c_0 = 1 - sum c.  One step of refinement on the residual of the
    homogeneous system H c = [u_*; 1], H the columns [u_k; 1], leaves a
    small residual, as LAPACK's solve does: the fitted map is far more
    sensitive to that than to c's forward error.  A frame fails only
    where it cannot be fitted: a pivot is zero, or a coefficient is zero
    or not finite.  Its conditioning is left to the caller's tests."""
    n = len(P)
    d = n - 2
    X = list(zip(*P))
    cen = [sum(x) / n for x in X]
    r = max([max(x) - min(x) for x in X]) or 1.0
    X = [[(t - m) / r for t in x] for x, m in zip(X, cen)]
    # [differences | right-hand side | identity], one row per coordinate,
    # reduced to [I | c | W]; each step drops the column it reduces, so
    # row k ends as [c_k, W_k]
    R = []
    for i, x in enumerate(X):
        R.append([t - x[0] for t in x[1:]] + [0.0] * d)
        R[i][d + 1 + i] = 1.0
    for k in range(d):
        col = [abs(row[0]) for row in R[k:]]
        p = k + col.index(max(col))
        t = R[p][0]
        if t == 0.0:
            return 1, None, X, cen, r, None
        R[p], R[k] = R[k], R[p]
        pivot = [x / t for x in R[k][1:]]
        for i, row in enumerate(R):
            f = row[0]
            R[i] = pivot if i == k else [x - f * y
                                         for x, y in zip(row[1:], pivot)]
    W = [row[1:] for row in R]
    c = [row[0] for row in R]
    c.insert(0, 1.0 - sum(c))
    # the correction H^-1 (residual): rows j >= 1 of H^-1 are
    # [W_j, -W_j . u_0], and row 0 makes the corrections sum to e; map
    # stops each coordinate at the first d+1 points, the columns of H
    e = 1.0 - sum(c)
    g = [x[-1] - sum(map(mul, c, x)) - e * x[0] for x in X]
    dc = [sum(map(mul, w, g)) for w in W]
    c = [c[0] + e - sum(dc)] + list(map(add, c[1:], dc))
    if 0.0 in c or not all(map(math.isfinite, c)):
        return 2, None, X, cen, r, W
    return 0, c, X, cen, r, W


def _source(F):
    """The source half of a fit from its frame F (_frame): F's failure
    code, and the rows of diag(1/c) H^-1 back^-1, the inverse of the
    frame's H diag(c) on its unit copy and of the copy's map back,
    p = r u + centroid, up to the scalar r.  Row j >= 1 of H^-1 is
    [W_j, -W_j . u_0], and row 0 is [-sum W_j, 1 + sum W_j . u_0]."""
    code, c, X, cen, r, W = F
    if code:
        return code, None
    u0 = [x[0] for x in X]
    rows = [w + [-sum(map(mul, w, u0))] for w in W]
    first = [-sum(x) for x in zip(*rows)]
    first[-1] += 1.0
    return 0, [[x / t for x in h[:-1]] + [(r * h[-1] - sum(map(mul, h, cen)))
                                          / t]
               for t, h in zip(c, [first] + rows)]


def _fit(A, F):
    """The projective map of R^d sending a source frame, given by its
    _source rows A, to the target frame F (_frame), in Python floats: a
    failure code (F's, or 3 where the matrix is not finite), and on
    success the matrix, row by row in one list of (d+1)^2, in
    ProjectiveMap's normal form.  The map is
    back_T H_T diag(c_T) (H_S diag(c_S))^-1 back_S^-1 of the two frames'
    unit copies; scalars drop out in the normal form."""
    code, c, X, cen, r, _ = F
    if code:
        return code, None
    cols = list(zip(*[[t * x for x in a] for t, a in zip(c, A)]))
    z = list(map(sum, cols))
    # H diag(c) A on the unit copy, then the copy's map back; map stops
    # each coordinate at the first d+1 points, the columns of H
    M = [r * sum(map(mul, x, col)) + m * s
         for x, m in zip(X, cen) for col, s in zip(cols, z)] + z
    if not all(map(math.isfinite, M)):
        return 3, None
    return 0, _normal_form(M)


def fit_projective(src, dst):
    """The projective map of R^d sending d+2 source points to d+2 targets.

    src and dst are k x d arrays, d >= 1; extra point pairs beyond d+2
    are ignored.  Both families must be in general position: the first
    d+1 span, and the last point has no vanishing coefficient over them
    (no point on a face of the reference simplex).  Both tests read the
    families' unit copies (_frame): the first d+1 span when the least
    singular value of their homogeneous columns, from one SVD of both
    families, is above 1e-10 of the largest, and a coefficient of the
    fit's own c vanishes when it is at most 1e-10 of the largest.  The
    map is the plane classifier's fit in Python floats (_frame, _source,
    _fit).
    """
    S, T = _as_array(src, "src"), _as_array(dst, "dst")
    if S.ndim != 2 or T.ndim != 2 or 0 in S.shape[1:] + T.shape[1:]:
        raise DegenerateInput("points must be k x d arrays with d >= 1")
    if S.shape != T.shape:
        raise DegenerateInput("source and target point counts differ")
    d = S.shape[1]
    if len(S) < d + 2:
        raise DegenerateBasis(f"need {d + 2} point pairs in dimension {d}")
    F = [_frame(P[: d + 2].tolist()) for P in (S, T)]
    H = np.array([[x[: d + 1] for x in X] + [[1.0] * (d + 1)]
                  for _, _, X, *_ in F])
    for (code, c, *_), s in zip(F, np.linalg.svd(H, compute_uv=False)):
        if not s[-1] > 1e-10 * s[0]:
            code = 1
        elif not code and min(map(abs, c)) <= 1e-10 * max(map(abs, c)):
            code = 2
        if code:
            break
    else:
        code, M = _fit(_source(F[0])[1], F[1])
    if code:
        error, message = _FIT_FAILURES[code]
        raise error(message)
    return ProjectiveMap._normalised(np.reshape(M, (d + 1, d + 1)))


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
    with nonnegative action: x -> Mx / sum(Mx).  The matrix is refused
    as singular when its smallest singular value is at most 1e-12 of its
    largest, as ProjectiveMap refuses one, whatever its scale."""
    M = _as_array(matrix, "matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DegenerateInput("matrix must be square")
    s = np.linalg.svd(M, compute_uv=False)
    if not (len(s) and s[-1] > 1e-12 * s[0]):
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
    or off the affine hull by the domain's hull rule at eps), and its limit
    is where the ray through its last two counted images leaves the
    domain, or the last image when they are within 1e-14 of the domain's
    extent.
    """
    starts = [_as_points(s, domain.ambient_dim, "start") for s in starts]
    if len(starts) < 2:
        raise DegenerateInput("need at least two starts to compare limits")
    target = _as_points(target, domain.ambient_dim, "target")
    if horizon < 0:
        raise DegenerateInput("horizon must be at least 0")
    S = np.array(starts)
    e = _eps(eps)
    # the starts are checked as a query's points are, each named by its row
    domain._stacked(S, S, e, ("start", "start"))
    h = horizon + 1
    pts = target + (2.0 ** -np.arange(h))[:, None] * (S - target)[:, None]
    Q = _map_rows(f, pts.reshape(len(S) * h, -1))
    slack, _, off, _ = domain._read(Q, e)
    off = ((slack.min(axis=1) <= 0.0) | off).reshape(len(S), h)
    kept = np.where(off.any(axis=1), off.argmax(axis=1), h)
    if np.any(kept == 0):
        raise ImageEscapedDomain("image sequence left the domain immediately")
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
    """The first candidate of match, in its order, whose map (_fit)
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
            return _frame([V[i] for i in at])
        (x0, y0), (x1, y1), (x2, y2) = V
        return _frame(V + [[(x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0]])

    code, A = _source(frame(va))
    if code:
        return None
    for row in match.tolist():
        W = [vb[j] for j in row]
        code, M = _fit(A, frame(W))
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
    Any two triangles, and any two quadrilaterals, are equivalent, so for
    m <= 4 all 2m candidates are fitted and the verdict is
    projectively-equivalent whatever the fits give: the witness is the
    first candidate that passes the vertex test, or None, with
    max_deviation inf, when none does.  The survivors are fitted one
    at a time, in shift order, each in Python floats on unit-size copies
    of the frames by the one projective fit of every dimension (_frame,
    _source and _fit, which fit_projective also uses, with one SVD for
    its span test); the source half is made once, and the search stops
    at the witness: the first that sends every vertex within tol of its
    match, in the second polygon's unit frame, with denominators of one
    sign on the first's vertices; then it maps the first polygon onto
    the second (_first_witness).  For m >= 5 that test alone decides: a
    frame is skipped only where it cannot be fitted.  Ellipses compose
    their affine charts.  max_deviation is the vertex residual, or the radial
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
        # any two triangles, and any two quadrilaterals, are equivalent
        return PlaneClassification(
            "projectively-equivalent" if m <= 4 else "not-isometric", None,
            math.inf)
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
