"""Isometries of Hilbert geometries: projective maps, the simplex log
chart onto a normed hyperplane, reciprocal and star maps, boundary
focusing probes, and a classifier for plane domains.

Maps are plain callables on ambient points unless stated otherwise, so
non-projective isometries compose with projective ones freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .convex import _as_array
from .errors import (
    DegenerateBasis,
    DegenerateInput,
    GeometryError,
    ImageEscapedDomain,
    NotInSimplex,
    PointAtInfinity,
    Unsupported,
)
from .metric import cross_ratio, distance, distances

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
        if s[-1] <= 1e-12 * s[0]:
            raise DegenerateInput("projective matrix is singular")
        M = M / np.max(np.abs(M))
        flat = M.ravel()
        lead = flat[np.nonzero(np.abs(flat) > 1e-12)[0][0]]
        if lead < 0:
            M = -M
        self.matrix = M
        self.dim = M.shape[0] - 1

    def __call__(self, p):
        p = _as_array(p, "point")
        if p.size != self.dim:
            raise DegenerateInput("point dimension does not match the map")
        return self.apply(p[None, :])[0]

    def apply(self, P):
        """Images of the rows of P; PointAtInfinity if any image lies on
        the hyperplane at infinity."""
        h = np.hstack([P, np.ones((len(P), 1))]) @ self.matrix.T
        h = h / np.max(np.abs(h), axis=1, keepdims=True)
        if np.any(np.abs(h[:, -1]) <= 1e-12):
            raise PointAtInfinity("image lies on the hyperplane at infinity")
        return h[:, :-1] / h[:, -1:]

    def inverse(self):
        return ProjectiveMap(np.linalg.inv(self.matrix))

    def compose(self, other):
        """self after other."""
        return ProjectiveMap(self.matrix @ other.matrix)


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

    def frame(P):
        H = np.vstack([P[: d + 1].T, np.ones(d + 1)])
        star = np.concatenate([P[d + 1], [1.0]])
        sv = np.linalg.svd(H, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise DegenerateBasis("reference points do not span")
        c = np.linalg.solve(H, star)
        if np.min(np.abs(c)) <= 1e-10 * np.max(np.abs(c)):
            raise DegenerateBasis("last point lies on a reference face")
        return H, c

    HS, cs = frame(S)
    HT, ct = frame(T)
    M = (HT * ct) @ np.linalg.inv(HS * cs)
    return ProjectiveMap(M)


# ---------------------------------------------------- simplex log chart

def _simplex_point(x, name="x"):
    x = _as_array(x, name)
    if np.any(x <= 0.0) or abs(float(x.sum()) - 1.0) > 1e-9:
        raise NotInSimplex(f"{name} must have positive entries summing to 1")
    return x


def clr(x):
    """Centered log chart of the open simplex onto the sum-zero hyperplane;
    an isometry onto the variation-norm geometry of that hyperplane."""
    x = _simplex_point(x)
    lx = np.log(x)
    return lx - lx.mean()


def clr_inv(theta):
    """Inverse of clr: normalized exponentials."""
    theta = _as_array(theta, "theta")
    if abs(float(theta.sum())) > 1e-9 * max(1.0, np.abs(theta).max()):
        raise DegenerateInput("coordinates must sum to zero")
    e = np.exp(theta - theta.max())
    return e / e.sum()


def variation_norm(theta):
    """max minus min of the entries; the norm pushed forward by clr."""
    theta = np.asarray(theta, dtype=float)
    return float(theta.max() - theta.min())


def w_basis(n):
    """Columns v_i = ones - (n+1) e_i, i = 1..n, a basis of the sum-zero
    hyperplane in R^(n+1)."""
    V = np.ones((n + 1, n)) - (n + 1) * np.eye(n + 1)[:, :n]
    return V


def axis_coords(theta):
    """Coordinates of a sum-zero vector over the w_basis columns."""
    theta = _as_array(theta, "theta")
    V = w_basis(theta.size - 1)
    a, *_ = np.linalg.lstsq(V, theta, rcond=None)
    return a


def axis_coords_inv(a):
    a = _as_array(a, "a")
    return w_basis(a.size) @ a


# ----------------------------------------------------- simplex isometries

def reciprocal_map(x):
    """Entrywise reciprocal, renormalized to the simplex.  An involutive
    isometry of the simplex Hilbert metric that is not projective for
    dimension >= 2."""
    x = _simplex_point(x)
    r = 1.0 / x
    return r / r.sum()


def simplex_projective(matrix):
    """Projective self-map of the simplex induced by an invertible matrix
    with nonnegative action: x -> Mx / sum(Mx)."""
    M = _as_array(matrix, "matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DegenerateInput("matrix must be square")
    if abs(np.linalg.det(M)) <= 1e-12:
        raise DegenerateInput("matrix is singular")

    def apply(x):
        x = _simplex_point(x)
        y = M @ x
        if np.any(y <= 0.0):
            raise ImageEscapedDomain("image left the open simplex")
        return y / y.sum()

    return apply


def vinberg_star(kind, x):
    """Star involution of a self-dual cone.

    'orthant': entrywise reciprocal.  'lorentz': time-preserving sign flip
    scaled by the quadratic form, (x1, -x2, ..., -xn) / q(x).  Both map
    the interior onto itself and reverse the cone order.
    """
    x = _as_array(x, "x")
    if kind == "orthant":
        if np.any(x <= 0.0):
            raise DegenerateInput("point must be interior to the orthant")
        return 1.0 / x
    if kind == "lorentz":
        q = float(x[0] * x[0] - x[1:] @ x[1:])
        if x[0] <= 0.0 or q <= 0.0:
            raise DegenerateInput("point must be interior to the Lorentz cone")
        y = -x
        y[0] = x[0]
        return y / q
    raise Unsupported(f"unknown star kind {kind!r}")


# ----------------------------------------------------- metric space views

class HilbertSpace:
    """Adapter giving a convex domain the metric-space interface used by
    the sampled checks.  pull keeps samples a conditioning margin away
    from the boundary."""

    def __init__(self, domain, pull=0.02):
        self.domain = domain
        self.pull = pull

    def sample(self, rng):
        return self.domain.sample_interior(rng, 1, pull=self.pull)

    def contains(self, p):
        return self.domain.contains_interior(p, 1e-12)

    def distance(self, x, y):
        return distance(self.domain, x, y)


class WSpace:
    """The sum-zero hyperplane in R^(n+1) under the variation norm."""

    def __init__(self, n, scale=2.0):
        self.n = n
        self.scale = scale

    def sample(self, rng):
        v = rng.normal(size=self.n + 1) * self.scale
        return v - v.mean()

    def contains(self, theta):
        theta = np.asarray(theta, dtype=float)
        return abs(float(theta.sum())) <= 1e-9 * max(1.0, np.abs(theta).max())

    def distance(self, x, y):
        return variation_norm(np.asarray(x, float) - np.asarray(y, float))


def sampled_isometry_check(src, dst, f, rng, samples=200):
    """Largest deviation |d_src(x, y) - d_dst(f x, f y)| over random pairs.

    Raises ImageEscapedDomain when an image leaves the target space.
    """
    worst = 0.0
    for _ in range(samples):
        x = src.sample(rng)
        y = src.sample(rng)
        fx = f(x)
        fy = f(y)
        if not (dst.contains(fx) and dst.contains(fy)):
            raise ImageEscapedDomain("map sent a sample outside the target")
        dev = abs(src.distance(x, y) - dst.distance(fx, fy))
        worst = max(worst, dev)
    return worst


def projectivity_check(domain, f, rng, samples=60, pull=0.05):
    """Largest failure of line and cross-ratio preservation under f.

    Draws collinear quadruples at parameters 0, 1/3, 2/3, 1 between
    random interior pairs; measures image collinearity residual (relative
    to the image span) and cross-ratio drift.  Near zero for projective
    maps, order 1e-2 and up for genuinely non-projective isometries.
    """
    worst = 0.0
    for _ in range(samples):
        x = domain.sample_interior(rng, 1, pull=pull)
        y = domain.sample_interior(rng, 1, pull=pull)
        if np.linalg.norm(x - y) < 1e-6:
            continue
        pts = [x + t * (y - x) for t in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)]
        imgs = [f(p) for p in pts]
        span = np.linalg.norm(imgs[3] - imgs[0])
        if span <= 1e-12:
            worst = max(worst, 1.0)
            continue
        u = (imgs[3] - imgs[0]) / span
        resid = max(
            float(np.linalg.norm((q - imgs[0]) - ((q - imgs[0]) @ u) * u))
            for q in imgs
        ) / span
        s = [float((q - imgs[0]) @ u) for q in imgs]
        if min(abs(s[1] - s[0]), abs(s[3] - s[2])) <= 1e-12 * span:
            worst = max(worst, 1.0)
            continue
        cr_img = ((s[2] - s[0]) * (s[3] - s[1])) / ((s[1] - s[0]) * (s[3] - s[2]))
        cr_src = cross_ratio(pts[0], pts[1], pts[2], pts[3])
        worst = max(worst, resid, abs(cr_img - cr_src))
    return worst


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
    boundary limits of the image sequences across starts."""
    starts = [_as_array(s, "start") for s in starts]
    if len(starts) < 2:
        raise DegenerateInput("need at least two starts to compare limits")
    target = _as_array(target, "target")
    limits = []
    for s in starts:
        domain._require_interior(s, eps, "start")
        prev, last = None, None
        for i in range(horizon + 1):
            p = target + 2.0 ** (-i) * (s - target)
            q = _as_array(f(p), "image")
            if domain.min_slack(q) <= 0.0 or domain.hull_residual(q) > 1e-9:
                break  # image hit the boundary numerically; keep previous
            prev, last = last, q
        if last is None:
            raise GeometryError("image sequence left the domain immediately")
        if prev is None or np.linalg.norm(last - prev) <= 1e-14:
            limits.append(last)
            continue
        limits.append(domain.ray(prev, last - prev, eps).endpoint)
    limits = np.array(limits)
    spread = 0.0
    for a, b in itertools.combinations(range(len(limits)), 2):
        spread = max(spread, float(np.linalg.norm(limits[a] - limits[b])))
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


def _verify_candidate(dom_a, dom_b, cand, rng, samples=60):
    """Distance-preservation deviation of a local-chart candidate map over
    random pairs, drawn x, y, x, y, ... in one batch."""
    P = dom_a.sample_interior(rng, 2 * samples, pull=0.02)
    try:
        Q = dom_b.to_ambient(cand.apply(dom_a.to_local(P)))
        dev = np.abs(distances(dom_a, P[0::2], P[1::2])
                     - distances(dom_b, Q[0::2], Q[1::2]))
    except GeometryError:
        return math.inf
    return float(dev.max())


def classify_2d(dom_a, dom_b, rng, tol=1e-7):
    """Decide whether two plane domains are isometric, with a witness.

    Polygons are matched vertex-cyclically over both orientations through
    projective fits; ellipses are normalized by their affine charts.  A
    polygon and an ellipse are never isometric.  In the plane every
    isometric pair found here is already projectively equivalent.
    """
    if dom_a.intrinsic_dim != 2 or dom_b.intrinsic_dim != 2:
        raise Unsupported("the classifier compares plane domains")
    if dom_a.kind != dom_b.kind:
        return PlaneClassification("not-isometric", None, math.inf)
    if dom_a.kind == "ellipsoid":
        # all ellipses are affinely equivalent: compose the unit-disk charts
        La, Lb = dom_a._chol, dom_b._chol
        A = Lb @ np.linalg.inv(La)
        t = dom_b.center - A @ dom_a.center
        M = np.eye(3)
        M[:2, :2] = A
        M[:2, 2] = t
        cand = ProjectiveMap(M)
        # charts here are ambient (ellipsoids are stored unembedded)
        dev = _verify_candidate(dom_a, dom_b, cand, rng)
        return PlaneClassification("projectively-equivalent", cand, dev,
                                   _chart_map(dom_a, dom_b, cand))
    va, _ = dom_a.polygon_vertices_local()
    vb, _ = dom_b.polygon_vertices_local()
    m = len(va)
    if len(vb) != m:
        return PlaneClassification("not-isometric", None, math.inf)
    for shift in range(m):
        for orient in (1, -1):
            order = [(shift + orient * i) % m for i in range(m)]
            w = vb[order]
            try:
                if m == 3:
                    src = np.vstack([va, va.mean(axis=0)])
                    tgt = np.vstack([w, w.mean(axis=0)])
                else:
                    src, tgt = va[:4], w[:4]
                cand = fit_projective(src, tgt)
            except (DegenerateBasis, DegenerateInput):
                continue
            try:
                vert_dev = float(np.max(np.linalg.norm(cand.apply(va) - w,
                                                       axis=1)))
            except PointAtInfinity:
                continue
            if vert_dev > tol:
                continue
            dev = _verify_candidate(dom_a, dom_b, cand, rng)
            if dev <= tol:
                return PlaneClassification(
                    "projectively-equivalent", cand, max(dev, vert_dev),
                    _chart_map(dom_a, dom_b, cand))
    return PlaneClassification("not-isometric", None, math.inf)


def is_cone_3d(domain):
    """Whether a 3-dimensional polytope is a cone: some vertex joined to a
    facet not containing it exhausts the vertex set.  Returns
    (flag, apex, base_face)."""
    if domain.kind != "polytope" or domain.intrinsic_dim != 3:
        raise Unsupported("cone detection works on 3-dim polytopes")
    lattice = domain.face_lattice()
    all_idx = set(range(len(domain.vertices)))
    for v in sorted(all_idx):
        for F in lattice.of_dim(2):
            if v in F.indices:
                continue
            if set(F.indices) | {v} == all_idx:
                return True, domain.vertices[v], F
    return False, None, None
