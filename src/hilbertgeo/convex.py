"""Convex domains (polytopes and ellipsoids) with boundary face structure.

A domain is immutable after construction.  Polytopes are stored by their
extreme points (V-representation); the facet inequalities and the face
lattice are derived at build time and cached.  A domain may sit inside a
higher-dimensional ambient space, for example the standard 2-simplex in
R^3, so "interior" always means interior relative to the affine hull.

Extreme points and facets come from one convex hull in the chart of the
affine hull: a numpy monotone chain (Andrew, Inf. Process. Lett. 9, 1979)
in the plane, Qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 1996) from
dimension 3.  Coplanar hull simplices are grouped into facets by the
vertices within the shared tolerance EPS_GEO (overridable via the HG_EPS
env var) of their plane, and face dimensions are read off the face
lattice.  Domains of a few hundred vertices in ambient dimension <= 4
build in milliseconds.  scipy is imported only by the functions that need
it; a plane domain is built, and its distances and chord rigidity found,
without it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .errors import (
    CoincidentPoints,
    DegenerateInput,
    DimensionOutOfRange,
    EmptyIntersection,
    GeometryError,
    NonFinite,
    NotOnBoundary,
    NotOpposite,
    OriginNotInterior,
    PointNotInterior,
    Unsupported,
)

__all__ = [
    "Face",
    "FaceLattice",
    "Chord",
    "Ray",
    "Section",
    "JoinRegion",
    "MinimalCone",
    "ConvexDomain",
    "build_polytope",
    "build_ellipsoid",
    "standard_simplex",
    "minkowski_functional",
]


def _eps(eps):
    return defaults.EPS_GEO if eps is None else float(eps)


def _as_array(p, name="point"):
    a = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains non-finite coordinates")
    return a


def _lex_unique(points, tol):
    """Sort rows lexicographically and drop rows within tol of a kept row.

    Rows i < j are within tol when the sum of squared coordinate
    differences, added in column order, is <= tol^2 (cKDTree.query_pairs'
    test).  Such rows have first coordinates within tol, so each row is
    compared only with the earlier rows of that window of the sorted
    first column, k rows back in the k-th sweep.
    """
    pts = points[np.lexsort(points.T[::-1])]
    back = np.arange(len(pts)) - np.searchsorted(pts[:, 0], pts[:, 0] - tol)
    pairs = []
    for k in range(1, int(back.max(initial=0)) + 1):
        j = np.nonzero(back >= k)[0]
        diff = pts[j] - pts[j - k]
        d2 = diff[:, 0] * diff[:, 0]
        for c in range(1, pts.shape[1]):
            d2 += diff[:, c] * diff[:, c]
        j = j[d2 <= tol * tol]
        pairs.append(np.column_stack([j - k, j]))
    pairs = np.vstack([np.empty((0, 2), dtype=int)] + pairs)
    keep = np.ones(len(pts), dtype=bool)
    # pairs are (i, j) with i < j; visiting them by j settles keep[i] first
    for i, j in pairs[np.lexsort(pairs.T)].tolist():
        if keep[i]:
            keep[j] = False
    return pts[keep]


def _affine_rank(points, tol):
    if len(points) <= 1:
        return 0
    diffs = points[1:] - points[0]
    s = np.linalg.svd(diffs, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, s[0])))


def _affine_chart(points, tol):
    """Orthonormal chart of the affine hull: origin plus direction basis."""
    origin = points.mean(axis=0)
    diffs = points - origin
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    if s.size == 0 or s[0] <= tol:
        return origin, np.zeros((points.shape[1], 0))
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return origin, vt[:rank].T


def _nullspace(M, tol=1e-12):
    u, s, vt = np.linalg.svd(M)
    if s.size == 0:
        return vt.T
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return vt[rank:].T


def _qhull(cls, *args):
    """A scipy.spatial Qhull object, with Qhull failures (flat input, an
    interior point that is not clearly inside) raised as DegenerateInput."""
    from scipy.spatial import QhullError

    try:
        return cls(*args)
    except QhullError as exc:
        raise DegenerateInput(f"Qhull: {str(exc).splitlines()[0]}") from None


def _monotone_chain(points):
    """Convex hull of points in the plane by Andrew's monotone chain
    (Inf. Process. Lett. 9, 1979), in Qhull's form: the hull vertices in
    ascending order, the edges as index pairs, and their equations
    n.u + c <= 0 with unit outward n.  A repeated point is one vertex
    (its first row), and, as in Qhull's precision merging, a point within
    the distance round-off (about 4 ulp of the largest coordinate) of the
    line through its neighbours is not a vertex."""
    order = np.lexsort(points.T[::-1])
    S = points[order]
    order = order[np.r_[True, np.any(S[1:] != S[:-1], axis=1)]].tolist()
    width = 4.0 * np.finfo(float).eps * float(np.abs(points).max())
    pts = points.tolist()

    def half(seq):
        chain = []
        for k in seq:
            px, py = pts[k]
            while len(chain) >= 2:
                ox, oy = pts[chain[-2]]
                ax, ay = pts[chain[-1]]
                bx, by = px - ox, py - oy
                if (ax - ox) * by - (ay - oy) * bx > width * math.hypot(bx, by):
                    break
                chain.pop()
            chain.append(k)
        return chain

    ring = half(order)[:-1] + half(order[::-1])[:-1]  # counterclockwise
    if len(ring) < 3:
        raise DegenerateInput("points are collinear")
    R = points[ring]
    d = np.roll(R, -1, axis=0) - R
    n = np.column_stack([d[:, 1], -d[:, 0]])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    eq = np.column_stack([n, -np.sum(n * R, axis=1)])
    return np.sort(ring), np.column_stack([ring, np.roll(ring, -1)]), eq


def _hull_facets(points, tol):
    """Facets of the convex hull of full-dimensional points (dim >= 2).

    The hull comes from the monotone chain in the plane and from Qhull in
    dimension 3 and up.  Coplanar hull simplices are grouped by their
    equality set: the hull vertices within tol of the simplex's plane,
    plus the simplex's own vertices.  A hull vertex whose facets share
    another hull vertex lies within tol of the hull of the other points
    and is dropped; a facet whose hull plane runs through a dropped vertex
    is refitted to its kept vertices, and a facet left with no kept
    vertex raises DegenerateInput.  Returns the remaining hull vertices in
    ascending order, unit outward normals A and offsets b (A u <= b on the
    hull) and the equality sets, all in row numbering, one entry per facet
    in the order of tuple(sorted(set)).
    """
    if points.shape[1] == 2:
        hull_verts, simplices, eq = _monotone_chain(points)
    else:
        from scipy.spatial import ConvexHull

        hull = _qhull(ConvexHull, points)
        hull_verts, simplices, eq = (np.sort(hull.vertices), hull.simplices,
                                     hull.equations)
    near = np.abs(points[hull_verts] @ eq[:, :-1].T + eq[:, -1]) <= tol
    sets = [frozenset(hull_verts[near[:, k]].tolist())
            | frozenset(simplex.tolist())
            for k, simplex in enumerate(simplices)]
    facets_on = {}
    for S in set(sets):
        for v in S:
            facets_on.setdefault(v, []).append(S)
    hull_set = frozenset(hull_verts.tolist())
    verts = [v for v in hull_verts.tolist()
             if frozenset.intersection(*facets_on[v]) & hull_set == {v}]
    flat = hull_set.difference(verts)
    found = {}
    for k, S in enumerate(sets):
        found.setdefault(S - flat, k)
    if frozenset() in found:
        # the absolute tol dropped every vertex of a facet
        raise DegenerateInput("a hull facet keeps no vertex")
    keys = sorted(found, key=lambda s: tuple(sorted(s)))
    first = [found[key] for key in keys]
    A, b = eq[first, :-1], -eq[first, -1]
    for i, key in enumerate(keys):
        if flat.intersection(simplices[first[i]].tolist()):
            P = points[sorted(key)]
            c = P.mean(axis=0)
            n = np.linalg.svd(P - c)[2][-1]
            A[i] = n if n @ A[i] > 0 else -n
            b[i] = A[i] @ c
    return np.array(verts), A, b, keys


def _close_under_intersection(facet_sets):
    """Every nonempty intersection of facets.  Intersecting each new set
    with the facets that share a vertex with it reaches all of them."""
    touching = {}
    for F in facet_sets:
        for v in F:
            touching.setdefault(v, []).append(F)
    sets = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for s in frontier:
            for t in {F for v in s for F in touching[v]}:
                u = s & t
                if u and u not in sets:
                    new.add(u)
        sets |= new
        frontier = new
    return sets


@dataclass(frozen=True)
class Face:
    """A face of a polytope boundary, or a boundary point of an ellipsoid.

    indices are sorted positions into the owning domain's vertex array
    (empty for ellipsoid point faces, which carry point_key instead).
    normal/offset give an ambient supporting hyperplane with equality
    exactly on the face.
    """

    indices: tuple
    dim: int
    point_key: tuple | None = None
    vertices: np.ndarray = field(default=None, compare=False, repr=False)
    normal: np.ndarray = field(default=None, compare=False, repr=False)
    offset: float = field(default=0.0, compare=False)
    facet_ids: frozenset = field(default=frozenset(), compare=False)

    def centroid(self):
        return self.vertices.mean(axis=0)

    def direction_basis(self, tol=1e-12):
        """Orthonormal ambient basis of the face's direction space."""
        if len(self.vertices) <= 1:
            return np.zeros((self.vertices.shape[1], 0))
        _, basis = _affine_chart(self.vertices, tol)
        return basis


class FaceLattice:
    """Proper faces of a polytope, graded by dimension, ordered by inclusion."""

    def __init__(self, faces):
        self.faces = sorted(faces, key=lambda f: (f.dim, f.indices))
        self._by_indices = {frozenset(f.indices): f for f in self.faces}

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)

    def of_dim(self, k):
        return [f for f in self.faces if f.dim == k]

    def counts(self):
        out = {}
        for f in self.faces:
            out[f.dim] = out.get(f.dim, 0) + 1
        return out

    def find(self, indices):
        return self._by_indices.get(frozenset(indices))

    @staticmethod
    def leq(f, g):
        """Inclusion order: f is a (possibly equal) subface of g."""
        return set(f.indices) <= set(g.indices)

    def subfaces(self, face, proper=True):
        out = [f for f in self.faces if self.leq(f, face)]
        if proper:
            out = [f for f in out if f.indices != face.indices]
        return out


@dataclass(eq=False)
class Chord:
    """Maximal open segment of the domain through two interior points.

    alpha is the boundary endpoint nearer x, beta the one nearer y, so
    |alpha - x| < |alpha - y| and |beta - y| < |beta - x|.
    t_alpha < 0 and t_beta > 1 parametrize the endpoints on the line
    x + t (y - x).
    """

    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    face_alpha: Face
    face_beta: Face
    t_alpha: float
    t_beta: float


@dataclass(eq=False)
class Ray:
    """Half-open segment from an interior start to its boundary limit."""

    start: np.ndarray
    direction: np.ndarray  # ambient, unit length
    endpoint: np.ndarray
    length: float  # Euclidean distance from start to endpoint


@dataclass(eq=False)
class Section:
    """A domain cut by an affine subspace, in subspace coordinates.

    domain lives in R^m where m = dim(subspace ∩ affine hull); origin and
    basis give the ambient chart: ambient = origin + basis @ coords.
    """

    domain: "ConvexDomain"
    origin: np.ndarray
    basis: np.ndarray

    def to_ambient(self, u):
        return self.origin + self.basis @ _as_array(u)

    def from_ambient(self, p):
        return self.basis.T @ (_as_array(p) - self.origin)


class JoinRegion:
    """Union of open segments between the relative interiors of two faces.

    Membership is decided by a small LP: z is in the join iff there are
    strictly positive convex weights on the two vertex groups reproducing
    z with total mass one on each side combined.  The region is convex.
    """

    def __init__(self, domain, face_a, face_b):
        self.domain = domain
        self.face_a = face_a
        self.face_b = face_b
        self._Va = np.atleast_2d(face_a.vertices)
        self._Vb = np.atleast_2d(face_b.vertices)

    def __call__(self, p, margin=1e-10):
        from scipy.optimize import linprog

        z = _as_array(p)
        ka, kb = len(self._Va), len(self._Vb)
        n = ka + kb
        # variables: weights (n), epsilon; maximize epsilon
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A_eq = np.zeros((z.size + 1, n + 1))
        A_eq[: z.size, :ka] = self._Va.T
        A_eq[: z.size, ka:n] = self._Vb.T
        A_eq[z.size, :n] = 1.0
        b_eq = np.concatenate([z, [1.0]])
        A_ub = np.zeros((n, n + 1))
        A_ub[:, :n] = -np.eye(n)
        A_ub[:, -1] = 1.0
        b_ub = np.zeros(n)
        bounds = [(None, None)] * n + [(None, 1.0)]
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if res.status != 0:
            return False
        return float(-res.fun) > margin


@dataclass(eq=False)
class MinimalCone:
    """Cone of open segments from an extreme point over a face interior,
    whose relative boundary stays on the domain boundary."""

    apex: np.ndarray
    apex_face: Face
    base: Face
    domain: "ConvexDomain"

    @property
    def dim(self):
        return self.base.dim + 1

    def contains(self, p, margin=1e-10):
        return JoinRegion(self.domain, self.apex_face, self.base)(p, margin)

    def sample_relative_boundary(self, rng, k):
        """k points on the relative boundary of the cone."""
        lattice = self.domain.face_lattice()
        subs = lattice.subfaces(self.base, proper=True)
        out = []
        for _ in range(k):
            mode = rng.integers(0, 3)
            if mode == 0 or (mode == 2 and not subs):
                w = rng.dirichlet(np.ones(len(self.base.vertices)))
                out.append(w @ self.base.vertices)
            elif mode == 1:
                out.append(self.apex.copy())
            else:
                g = subs[rng.integers(0, len(subs))]
                w = rng.dirichlet(np.ones(len(g.vertices)))
                q = w @ g.vertices
                t = rng.uniform(0.05, 0.95)
                out.append((1 - t) * self.apex + t * q)
        return np.array(out)


class ConvexDomain:
    """Bounded convex body, open by convention, polytope or ellipsoid."""

    def __init__(self, kind, **data):
        if kind not in ("polytope", "ellipsoid"):
            raise Unsupported(f"unknown domain kind {kind!r}")
        self.kind = kind
        if kind == "polytope":
            self.vertices = data["vertices"]
            self._origin = data["origin"]
            self._basis = data["basis"]
            self._lv = data["lv"]
            self._A = data["A"]
            self._b = data["b"]
            self._facet_sets = data["facet_sets"]
            self._lattice = data["lattice"]
            # round-off floor of the on-boundary tests, see _tight_tol
            self._slack_floor = 64.0 * np.finfo(float).eps * max(
                float(np.abs(self._lv).max()), float(np.abs(self._b).max()))
            self.ambient_dim = self.vertices.shape[1]
            self.intrinsic_dim = self._basis.shape[1]
        else:
            self.center = data["center"]
            self.shape = data["shape"]
            self._shape_inv = data["shape_inv"]
            self._chol = data["chol"]
            self.vertices = None
            self.ambient_dim = self.center.size
            self.intrinsic_dim = self.center.size
            self._origin = np.zeros(self.ambient_dim)
            self._basis = np.eye(self.ambient_dim)

    # ---------------------------------------------------------------- charts

    def to_local(self, p):
        """Chart coordinates of a point, or of each row of an array."""
        return (_as_array(p) - self._origin) @ self._basis

    def to_ambient(self, u):
        return self._origin + _as_array(u) @ self._basis.T

    def hull_residual(self, p):
        """Euclidean distance from p to the affine hull."""
        return float(self._hull_residuals(_as_array(p)[None, :])[0])

    def _hull_residuals(self, P):
        """Distances of the rows of P to the affine hull.  A full-dimensional
        domain's hull is the whole space: its residual would be pure
        round-off, which an absolute eps rejects at large scale."""
        if self.intrinsic_dim == self.ambient_dim:
            return np.zeros(len(P))
        D = P - self._origin
        return np.linalg.norm(D - (D @ self._basis) @ self._basis.T, axis=1)

    def project_to_hull(self, p):
        d = _as_array(p) - self._origin
        return self._origin + self._basis @ (self._basis.T @ d)

    # ------------------------------------------------------------ predicates

    def _slacks(self, u):
        """Facet slacks b - A u (polytope) or 1 - |L^-1 (p - c)|
        (ellipsoid) of a local point, or of each row of an array."""
        if self.kind == "polytope":
            return self._b - u @ self._A.T
        w = self._chol_solve(self.to_ambient(u) - self.center)
        return 1.0 - np.linalg.norm(w, axis=-1, keepdims=True)

    def _chol_solve(self, v):
        # L^-1 v (each row of v) where shape = L L^T, so |L^-1 (p - c)| < 1
        # is the interior
        return np.linalg.solve(self._chol, v.T).T

    def min_slack(self, p):
        """Smallest facet slack (polytope) or 1 - radial coordinate
        (ellipsoid); positive strictly inside the relative interior."""
        return float(np.min(self._slacks(self.to_local(p))))

    def contains_interior(self, p, eps=None):
        eps = _eps(eps)
        if self.hull_residual(p) > eps:
            return False
        return self.min_slack(p) > eps

    def on_boundary(self, p, eps=None):
        eps = _eps(eps)
        if self.hull_residual(p) > eps:
            return False
        s = self._slacks(self.to_local(p))
        tol = self._tight_tol(eps)
        return s.min() >= -tol and abs(s.min()) <= tol

    def _tight_tol(self, eps):
        """The slack tolerance of the on-boundary tests: eps, but never
        below 64 ulp of the polytope's largest vertex chart coordinate or
        facet offset.  A computed boundary point's slacks carry about 2 ulp
        of that magnitude of round-off, which passes the absolute eps from
        scale about 1e6 up; below about 1e5 the floor is under eps and
        changes nothing."""
        if self.kind != "polytope":
            return eps
        return max(eps, self._slack_floor)

    def centroid(self):
        if self.kind == "polytope":
            return self.vertices.mean(axis=0)
        return self.center.copy()

    def _require_interior(self, p, eps, name="point"):
        """Accepts points within eps of the affine hull, projects them onto
        it, and demands strictly positive facet slack.  The strictness (not
        an eps margin) is deliberate: asymptotic probes evaluate distances
        at points within 1e-12 of the boundary."""
        eps = _eps(eps)
        if self.hull_residual(p) > eps:
            raise PointNotInterior(f"{name} is off the affine hull")
        u = self.to_local(p)
        if np.min(self._slacks(u)) <= 0.0:
            raise PointNotInterior(f"{name} is not strictly interior")
        return u

    # ------------------------------------------------------------------ faces

    def face_lattice(self):
        if self.kind != "polytope":
            raise Unsupported("ellipsoids have no polytopal face lattice")
        return self._lattice

    def boundary_face_of(self, p, eps=None):
        """The face whose relative interior contains the boundary point p."""
        eps = _eps(eps)
        p = _as_array(p)
        if self.hull_residual(p) > eps:
            raise NotOnBoundary("point is off the affine hull")
        if self.kind == "ellipsoid":
            q = p - self.center
            r = np.linalg.norm(self._chol_solve(q))
            if r == 0.0:
                raise NotOnBoundary("point is the center")
            proj = self.center + q / r
            if np.linalg.norm(proj - p) > eps:
                raise NotOnBoundary("point is not on the ellipsoid boundary")
            normal = self._shape_inv @ (proj - self.center)
            normal = normal / np.linalg.norm(normal)
            return Face(
                indices=(),
                dim=0,
                point_key=tuple(np.round(proj, 9)),
                vertices=proj[None, :],
                normal=normal,
                offset=float(normal @ proj),
            )
        u = self.to_local(p)
        s = self._b - self._A @ u
        tol = self._tight_tol(eps)
        if s.min() < -tol:
            raise NotOnBoundary("point is outside the domain")
        tight = [i for i in range(len(s)) if abs(s[i]) <= tol]
        if not tight:
            raise NotOnBoundary("point is interior")
        common = frozenset.intersection(*[self._facet_sets[i] for i in tight])
        face = self._lattice.find(common)
        if face is None:
            raise NotOnBoundary("tight facets do not meet in a face")
        return face

    def in_relative_interior(self, face, p, eps=None):
        """Whether p lies in the relative interior of the given face."""
        eps = _eps(eps)
        p = _as_array(p)
        if self.kind == "ellipsoid":
            return (face.point_key is not None
                    and np.linalg.norm(p - face.vertices[0]) <= eps)
        if self.hull_residual(p) > eps:
            return False
        u = self.to_local(p)
        s = self._b - self._A @ u
        tol = self._tight_tol(eps)
        if s.min() < -tol:
            return False
        tight = frozenset(i for i in range(len(s)) if abs(s[i]) <= tol)
        return tight == face.facet_ids and len(tight) > 0

    # ----------------------------------------------------------------- chords

    def _clip_line(self, u, du):
        """Intersection parameters of {u + t du} with the local body.
        Returns (t_lo, t_hi) with t_lo < 0 < t_hi for interior u."""
        if self.kind == "polytope":
            denom = self._A @ du
            # facets with |denom| at round-off level count as parallel
            live = np.abs(denom) > 1e-14 * max(1.0, np.linalg.norm(du))
            t = (self._b - self._A @ u)[live] / denom[live]
            up = denom[live] > 0
            if up.all() or not up.any():
                raise GeometryError("line escapes the polytope")
            return float(t[~up].max()), float(t[up].min())
        t_lo, t_hi = self._ellipsoid_chords(u, du)
        if not -np.inf < t_lo < t_hi < np.inf:
            raise GeometryError("degenerate chord direction")
        return float(t_lo), float(t_hi)

    def _ellipsoid_chords(self, u, du):
        """(t_lo, t_hi) where the lines u + t du (local points, or rows)
        cross the ellipsoid |w| = 1, w = L^-1 (p - c).

        The roots q/a and c0/q of a t^2 + 2 b t + c0 keep the digits that
        (-b +- root) / a loses on a short dw.  A zero du gives (-inf, inf),
        the whole line; a line that misses the body gives nan.
        """
        w = self._chol_solve(self.to_ambient(u) - self.center)
        dw = self._chol_solve(du @ self._basis.T)
        a = np.sum(dw * dw, axis=-1)
        b = np.sum(w * dw, axis=-1)
        c0 = np.sum(w * w, axis=-1) - 1.0
        moving = a > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(b + np.copysign(np.sqrt(b * b - a * c0), b))
            r1, r2 = q / a, c0 / q
        return (np.where(moving, np.minimum(r1, r2), -np.inf),
                np.where(moving, np.maximum(r1, r2), np.inf))

    def chord_params(self, x, y, eps=None):
        """(t_lo, t_hi) clipping the line through interior x, y, with x at
        t = 0 and y at t = 1."""
        x = _as_array(x, "x")
        y = _as_array(y, "y")
        if np.array_equal(x, y):
            raise CoincidentPoints("chord needs two distinct points")
        ux = self._require_interior(x, eps, "x")
        uy = self._require_interior(y, eps, "y")
        return self._clip_line(ux, uy - ux)

    def chord_through(self, x, y, eps=None):
        """The maximal chord through interior points x and y, with its
        boundary endpoints and their faces."""
        x = _as_array(x, "x")
        y = _as_array(y, "y")
        t_lo, t_hi = self.chord_params(x, y, eps)
        xh = self.project_to_hull(x)
        yh = self.project_to_hull(y)
        d = yh - xh
        alpha = xh + t_lo * d
        beta = xh + t_hi * d
        return Chord(
            x=xh, y=yh, alpha=alpha, beta=beta,
            face_alpha=self.boundary_face_of(alpha, eps),
            face_beta=self.boundary_face_of(beta, eps),
            t_alpha=t_lo, t_beta=t_hi,
        )

    def ray(self, start, direction, eps=None):
        """Ray from an interior start toward the boundary."""
        start = _as_array(start, "start")
        d = _as_array(direction, "direction")
        nd = np.linalg.norm(d)
        if nd == 0.0:
            raise DegenerateInput("zero ray direction")
        eps_v = _eps(eps)
        du = self._basis.T @ d
        if np.linalg.norm(d - self._basis @ du) > eps_v * max(1.0, nd):
            raise DegenerateInput("ray direction leaves the affine hull")
        u = self._require_interior(start, eps, "start")
        _, t_hi = self._clip_line(u, du)
        d_amb = self._basis @ du
        endpoint = self.project_to_hull(start) + t_hi * d_amb
        d_unit = d_amb / np.linalg.norm(d_amb)
        return Ray(start=self.project_to_hull(start), direction=d_unit,
                   endpoint=endpoint,
                   length=float(t_hi * np.linalg.norm(d_amb)))

    # -------------------------------------------------- joins, cones, slices

    def opposite_faces(self, face_a, face_b, eps=None):
        """True iff an open segment between the two faces' relative
        interiors crosses the interior.  Independent of the representative
        points chosen, so centroids decide it."""
        mid = 0.5 * (face_a.centroid() + face_b.centroid())
        return self.contains_interior(mid, eps)

    def join_region(self, face_a, face_b, eps=None):
        if not self.opposite_faces(face_a, face_b, eps):
            raise NotOpposite("faces do not see each other through the interior")
        return JoinRegion(self, face_a, face_b)

    def minimal_cone_at(self, e, eps=None):
        """Minimal cone at an extreme point: descend from any opposite face
        to a face none of whose proper subfaces is opposite to e."""
        if self.kind != "polytope":
            raise Unsupported("minimal cones are defined on polytopes here")
        e = _as_array(e, "e")
        apex_face = self.boundary_face_of(e, eps)
        if apex_face.dim != 0:
            raise DegenerateInput("apex must be an extreme point")
        lattice = self.face_lattice()
        x = self.centroid()
        # far endpoint of the chord through e and the centroid
        base = self.boundary_face_of(self.ray(x, x - e, eps).endpoint, eps)
        while True:
            subs = sorted(lattice.subfaces(base, proper=True),
                          key=lambda f: (-f.dim, f.indices))
            nxt = None
            for g in subs:
                if self.opposite_faces(apex_face, g, eps):
                    nxt = g
                    break
            if nxt is None:
                return MinimalCone(apex=e, apex_face=apex_face,
                                   base=base, domain=self)
            base = nxt

    def find_extreme_line(self, eps=None):
        """A chord whose closure meets the boundary in two extreme points,
        or None (the triangle-like case)."""
        if self.kind == "ellipsoid":
            w, v = np.linalg.eigh(self.shape)
            u = v[:, -1] * np.sqrt(w[-1])
            a, b = self.center - u, self.center + u
            return self.chord_through(a + (b - a) / 3, a + 2 * (b - a) / 3, eps)
        verts = self.face_lattice().of_dim(0)
        for fa, fb in itertools.combinations(verts, 2):
            if self.opposite_faces(fa, fb, eps):
                a = fa.vertices[0]
                b = fb.vertices[0]
                return self.chord_through(a + (b - a) / 3,
                                          a + 2 * (b - a) / 3, eps)
        return None

    def cross_section(self, point, spans, eps=None):
        """Cut by the affine subspace {point + span(spans)}.

        The result lives in coordinates of subspace ∩ affine hull; raises
        EmptyIntersection when that set misses the relative interior."""
        from scipy.optimize import linprog
        from scipy.spatial import HalfspaceIntersection

        eps_v = _eps(eps)
        p0 = _as_array(point, "point")
        S = np.atleast_2d(_as_array(spans, "spans"))
        q, r = np.linalg.qr(S.T)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
        if not np.all(keep):
            raise DegenerateInput("spanning vectors are linearly dependent")
        B0 = q[:, : S.shape[0]]
        m = B0.shape[1]
        if m < 2 or m > self.intrinsic_dim:
            raise DimensionOutOfRange(
                f"subspace dim {m} outside 2..{self.intrinsic_dim}")
        # intersect the subspace with the affine hull
        M = np.hstack([B0, -self._basis])
        rhs = self._origin - p0
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.linalg.norm(M @ sol - rhs) > eps_v:
            raise EmptyIntersection("subspace misses the affine hull")
        q0 = p0 + B0 @ sol[:m]
        null = _nullspace(M)
        dirs = B0 @ null[:m, :]
        qd, rd = np.linalg.qr(dirs)
        ranks = np.abs(np.diag(rd)) > 1e-12 if rd.size else np.array([], bool)
        W = qd[:, : int(np.sum(ranks))]
        if W.shape[1] < 1:
            raise EmptyIntersection("subspace meets the hull in a point")
        if self.kind == "ellipsoid":
            return self._ellipsoid_section(q0, W)
        # facet inequalities in section coordinates
        G = self._A @ (self._basis.T @ W)
        h = self._b - self._A @ (self._basis.T @ (q0 - self._origin))
        norms = np.linalg.norm(G, axis=1)
        flat = norms <= 1e-12
        if np.any(h[flat] < -eps_v):
            raise EmptyIntersection("section plane is outside a facet")
        G, h, norms = G[~flat], h[~flat], norms[~flat]
        # Chebyshev margin: is there an interior point of the slice
        mr = G.shape[1]
        A_ub = np.hstack([G, norms[:, None]])
        c = np.zeros(mr + 1)
        c[-1] = -1.0
        res = linprog(c, A_ub=A_ub, b_ub=h,
                      bounds=[(None, None)] * mr + [(None, 1e6)],
                      method="highs")
        if res.status != 0 or -res.fun <= eps_v:
            raise EmptyIntersection("subspace misses the relative interior")
        # vertices of {G r <= h}, seen from the Chebyshev centre
        if mr == 1:
            t = h / G[:, 0]
            verts = np.array([[t[G[:, 0] < 0].max()], [t[G[:, 0] > 0].min()]])
        else:
            verts = _qhull(HalfspaceIntersection, np.hstack([G, -h[:, None]]),
                           res.x[:mr]).intersections
        verts = _lex_unique(verts, 1e-9)
        return Section(domain=build_polytope(verts, eps), origin=q0, basis=W)

    def _ellipsoid_section(self, q0, W):
        Q = W.T @ self._shape_inv @ W
        g = W.T @ self._shape_inv @ (q0 - self.center)
        c0 = float((q0 - self.center) @ self._shape_inv @ (q0 - self.center)) - 1.0
        r0 = -np.linalg.solve(Q, g)
        v0 = c0 + float(g @ r0)
        if v0 >= -1e-12:
            raise EmptyIntersection("subspace misses the ellipsoid interior")
        shape = np.linalg.inv(Q) * (-v0)
        return Section(domain=build_ellipsoid(r0, shape), origin=q0, basis=W)

    def find_extreme_simplex(self, eps=None):
        """Vertices of an inscribed simplex of full intrinsic dimension with
        extreme points of the domain as corners."""
        eps_v = _eps(eps)
        n = self.intrinsic_dim
        if self.kind == "ellipsoid":
            pts = [self.center + self._chol @ e for e in np.eye(n)]
            ones = np.ones(n) / np.sqrt(n)
            pts.append(self.center - self._chol @ ones)
            return np.array(pts)
        chosen = [self.vertices[0]]
        for v in self.vertices[1:]:
            trial = np.array(chosen + [v])
            if _affine_rank(trial, eps_v) == len(chosen):
                chosen.append(v)
            if len(chosen) == n + 1:
                break
        if len(chosen) != n + 1:
            raise DegenerateInput("could not find a full-dimensional simplex")
        return np.array(chosen)

    # -------------------------------------------------------------- sampling

    def sample_interior(self, rng, k=1, pull=0.0):
        """k interior points; pull > 0 mixes toward the centroid to keep a
        conditioning margin away from the boundary."""
        c = self.centroid()
        if self.kind == "polytope":
            w = rng.dirichlet(np.ones(len(self.vertices)), size=k)
            pts = w @ self.vertices
        else:
            d = self.ambient_dim
            u = rng.normal(size=(k, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            r = rng.uniform(size=(k, 1)) ** (1.0 / d)
            pts = self.center + (u * r) @ self._chol.T
        if pull > 0.0:
            pts = (1 - pull) * pts + pull * c
        return pts if k > 1 else pts[0]

    def sample_boundary(self, rng, k=1):
        out = []
        for _ in range(k):
            x = self.sample_interior(rng, 1, pull=0.3)
            du = rng.normal(size=self.intrinsic_dim)
            du /= np.linalg.norm(du)
            u = self.to_local(x)
            _, t_hi = self._clip_line(u, du)
            out.append(self.to_ambient(u + t_hi * du))
        return np.array(out) if k > 1 else out[0]

    # ------------------------------------------------------------------ misc

    def polygon_vertices_local(self):
        """Local vertices of a 2-dimensional polytope in cyclic order."""
        if self.kind != "polytope" or self.intrinsic_dim != 2:
            raise Unsupported("cyclic vertex order needs a 2-dim polytope")
        c = self._lv.mean(axis=0)
        ang = np.arctan2(self._lv[:, 1] - c[1], self._lv[:, 0] - c[0])
        order = np.argsort(ang)
        return self._lv[order], order

    def __repr__(self):
        if self.kind == "polytope":
            return (f"ConvexDomain(polytope, {len(self.vertices)} vertices, "
                    f"dim {self.intrinsic_dim} in R^{self.ambient_dim})")
        return f"ConvexDomain(ellipsoid, dim {self.ambient_dim})"


# -------------------------------------------------------------- constructors

def build_polytope(points, eps=None):
    """Open polytope from a point cloud.

    Duplicate points (within eps) are dropped and the rest sorted
    lexicographically; the vertices are the extreme points among them, in
    that order.  Facets are the hull facets of the vertices in the chart
    of their affine hull (monotone chain in the plane, Qhull from
    dimension 3), one per set of vertices within eps of a facet plane,
    sorted by that set; the face lattice is every nonempty intersection of
    facets, and a face has one dimension more than its largest proper
    subface.  A cloud whose hull keeps no vertex of some facet at the
    absolute eps raises DegenerateInput.
    """
    eps_v = _eps(eps)
    P = _as_array(points, "points")
    if P.ndim != 2 or len(P) < 2:
        raise DegenerateInput("need at least two points in an array of rows")
    P = _lex_unique(P, max(eps_v, 1e-12))
    origin, basis = _affine_chart(P, eps_v)
    d = basis.shape[1]
    D = P.shape[1]
    if d == 0 or (d == 1 and D >= 2):
        raise DegenerateInput(
            "affine hull is a point or a segment in ambient dim >= 2")
    lv = (P - origin) @ basis
    if d == 1:
        keep = np.sort([np.argmin(lv[:, 0]), np.argmax(lv[:, 0])])
        A = np.sign(lv[keep] - lv[keep[::-1]])  # +1 at the larger end
        b = A[:, 0] * lv[keep, 0]
        facet_sets = [frozenset([0]), frozenset([1])]
    else:
        keep, A, b, hull_sets = _hull_facets(lv, eps_v)
        renumber = {int(j): i for i, j in enumerate(keep)}
        facet_sets = [frozenset(renumber[j] for j in s) for s in hull_sets]
    V = P[keep]
    lv = lv[keep]
    incident = {}  # vertex -> indices of the facets through it
    for i, E in enumerate(facet_sets):
        for v in E:
            incident.setdefault(v, set()).add(i)
    face_idx = sorted(tuple(sorted(S))
                      for S in _close_under_intersection(facet_sets))
    fids = [frozenset(set.intersection(*(incident[v] for v in idx)))
            for idx in face_idx]
    # a face's supporting hyperplane is the normalised mean of its facets'
    member = np.zeros((len(face_idx), len(facet_sets)))
    for r, F in enumerate(fids):
        member[r, list(F)] = 1.0
    nw, ob = member @ A, member @ b
    nn = np.linalg.norm(nw, axis=1)
    N = (nw / nn[:, None]) @ basis.T
    offsets = ob / nn + N @ origin
    # a face has one dimension more than its largest proper subface, and
    # each proper subface runs through one of the face's vertices
    dims = {}
    through = {}  # vertex -> faces through it, smaller ones first
    for idx in sorted(face_idx, key=len):
        S = frozenset(idx)
        sub = [dims[G] for v in idx for G in through.get(v, ()) if G < S]
        dims[S] = 1 + max(sub) if sub else 0
        for v in idx:
            through.setdefault(v, []).append(S)
    faces = [Face(indices=idx, dim=dims[frozenset(idx)],
                  point_key=None, vertices=V[list(idx)], normal=N[r],
                  offset=float(offsets[r]), facet_ids=fids[r])
             for r, idx in enumerate(face_idx)]
    lattice = FaceLattice(faces)
    # sanity: the 0-faces are exactly the vertices
    zero = {f.indices for f in lattice.of_dim(0)}
    if zero != {(i,) for i in range(len(V))}:
        raise GeometryError("face lattice lost a vertex")
    return ConvexDomain(
        "polytope", vertices=V, origin=origin, basis=basis, lv=lv,
        A=A, b=b, facet_sets=facet_sets, lattice=lattice,
    )


def build_ellipsoid(center, shape):
    """Open ellipsoid { p : (p-c)^T S^-1 (p-c) < 1 } with S positive definite."""
    c = _as_array(center, "center")
    S = _as_array(shape, "shape")
    if S.shape != (c.size, c.size):
        raise DegenerateInput("shape matrix size does not match the center")
    S = 0.5 * (S + S.T)
    w = np.linalg.eigvalsh(S)
    if w.min() <= 1e-12 * max(1.0, w.max()):
        raise DegenerateInput("shape matrix must be positive definite")
    return ConvexDomain(
        "ellipsoid", center=c, shape=S,
        shape_inv=np.linalg.inv(S), chol=np.linalg.cholesky(S),
    )


def standard_simplex(n):
    """Open standard n-simplex, the positive part of the plane sum(x) = 1
    in R^(n+1)."""
    if n < 1:
        raise DimensionOutOfRange("simplex dimension must be >= 1")
    return build_polytope(np.eye(n + 1))


def minkowski_functional(K, v, eps=None):
    """Gauge of v with respect to a body K whose relative interior contains
    the origin: the smallest t > 0 with v in t*K.  Vectors outside the
    linear span of K get math.inf."""
    eps_v = _eps(eps)
    v = _as_array(v, "v")
    origin = np.zeros(K.ambient_dim)
    if K.hull_residual(origin) > eps_v or K.min_slack(origin) <= eps_v:
        raise OriginNotInterior("the body does not contain the origin")
    if np.linalg.norm(v) == 0.0:
        return 0.0
    v_loc = K._basis.T @ v
    if np.linalg.norm(v - K._basis @ v_loc) > eps_v * max(1.0, np.linalg.norm(v)):
        return float("inf")
    if K.kind == "polytope":
        shift = K._basis.T @ (-K._origin)  # local coords of the origin
        num = K._A @ v_loc
        den = K._b - K._A @ shift  # facet slack at the origin, positive
        return float(np.max(num / den))
    Minv = K._shape_inv
    a = float(v @ Minv @ v)
    bq = float(v @ Minv @ K.center)
    c0 = float(K.center @ Minv @ K.center) - 1.0
    mu = (bq + np.sqrt(bq * bq - a * c0)) / a
    return float(1.0 / mu)
