"""Convex domains (polytopes and ellipsoids) with boundary face structure.

A domain is immutable after construction.  Polytopes are stored by their
extreme points (V-representation) and facet inequalities, both derived at
build time; the face lattice is built on its first use and cached.  A
domain may sit inside a higher-dimensional ambient space, for example the
standard 2-simplex in R^3, so "interior" always means interior relative
to the affine hull.

Every polytope is stored in a unit chart: the origin at the centroid of
its points, the coordinates divided by half their largest range, and no
rotation unless the polytope is embedded in a higher-dimensional space.
Every tolerance is then a fraction of the domain's size, so an answer
does not change when the input is scaled and translated.  An ellipsoid
reads its tolerances in whitened coordinates, where its boundary is the
unit sphere.

Extreme points and facets come from one convex hull in the unit chart,
all in numpy: a monotone chain (Andrew, Inf. Process. Lett. 9, 1979) in
the plane, and Quickhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 1996) for
every cloud from dimension 3, with its facet planes fitted in batches
and refined in extended precision.  Coplanar hull simplices are grouped
into facets by the vertices within the shared tolerance EPS_GEO of their
plane.  The face lattice, with every face's dimension, is built from the
vertex-facet incidences as bitsets (Kaibel & Pfetsch, Comput. Geom. 23,
2002) on first use.  Domains of a few hundred vertices in ambient
dimension <= 4 build in milliseconds.

The same hull answers the other hull questions.  A polytope's
cross-section takes its vertices from the face lattice: the single
points where the cut meets the affine hull of a face inside the
polytope, in codimension 1 the vertices on the cut and its crossings of
edges.  A join region is the relative interior of the hull of its two
faces' vertices, built once in the chart of their affine hull within
the domain's unit chart.  A minimal cone needs no hull of its own: it
is read off the domain's facet slacks at the apex and at the point.
All of it is numpy code, with no linear program.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .errors import (
    CoincidentPoints,
    DegenerateInput,
    DimensionOutOfRange,
    EmptyIntersection,
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


# the round-off of a computed point's slacks in a unit chart, per unit of
# its coordinates: 64 ulp, far below EPS_GEO
_ULP = float(np.finfo(float).eps)
_ROUND = 64.0 * _ULP

# the squared hull residual of every point of a full-dimensional domain,
# whose hull is the whole space
_NO_RESIDUAL = np.zeros(1)
_NO_RESIDUAL.flags.writeable = False
# and its hull verdicts (_off_hull): all on the hull, or at eps < 0 all off;
# _ON_HULL is also every domain's verdict when eps alone accepts every point
_ON_HULL, _OFF_HULL = np.zeros(1, bool), np.ones(1, bool)


def _eps(eps):
    return defaults.EPS_GEO if eps is None else float(eps)


def _as_array(p, name="point"):
    a = np.asarray(p, dtype=float)
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NonFinite(f"{name} contains non-finite coordinates", name)
    return a


def _as_points(p, dim, name="point"):
    """_as_array of a point, or of rows of points, of dim coordinates;
    DegenerateInput for any other shape, which numpy would broadcast."""
    a = _as_array(p, name)
    if a.ndim > 2 or a.shape[-1:] != (dim,):
        raise DegenerateInput(f"{name} must have {dim} coordinates")
    return a


def _reject(bad, n, error, what, min_slack=None, names=("x", "y")):
    """Raise error for the first flagged row of a stacked [X; Y] block of
    n pairs, naming the point as x or y (x[i] or y[i] when n > 1), or by
    the given names; the error's point and index are that name and row,
    and its min_slack the row's entry of min_slack when given."""
    if bad.any():
        i = int(np.argmax(bad))
        name, row = (names[0], i) if i < n else (names[1], i - n)
        msg = f"{name}[{row}] {what}" if n > 1 else f"{name} {what}"
        extra = {} if min_slack is None else {"min_slack": float(min_slack[i])}
        raise error(msg, point=name, index=row, **extra)


def _require_finite(P, n, names=("x", "y")):
    """Raise NonFinite for the first row of P, a stacked block as _reject
    reads it, with a NaN or infinite coordinate."""
    if not np.logical_and.reduce(np.isfinite(P), axis=None):
        _reject(~np.isfinite(P).all(axis=1), n, NonFinite,
                "contains non-finite coordinates", names=names)


def _lex_keep(points, tol):
    """The positions of the rows left when the rows are sorted
    lexicographically and each row within tol of a kept row is dropped,
    in that order.

    Rows i < j are within tol when the sum of squared coordinate
    differences, added in column order, is <= tol^2 (cKDTree.query_pairs'
    test).  Such rows have first coordinates within tol, so each row is
    compared only with the earlier rows of that window of the sorted
    first column, k rows back in the k-th sweep; when every window holds
    one row, the sort is the answer.
    """
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    back = np.arange(len(pts)) - np.searchsorted(pts[:, 0], pts[:, 0] - tol)
    if not back.any():
        return order
    pairs = []
    for k in range(1, int(back.max()) + 1):
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
    return order[keep]


def _rank(s, tol):
    """The number of singular values s (descending) above tol of the
    largest."""
    return int(np.sum(s > tol * s[0])) if s.size else 0


def _affine_chart(points, tol):
    """Orthonormal chart of the affine hull: origin plus direction basis,
    of the singular directions above tol of the largest; the identity
    when the points span the space."""
    origin = points.mean(axis=0)
    _, s, vt = np.linalg.svd(points - origin, full_matrices=False)
    rank = _rank(s, tol)
    if rank == points.shape[1]:
        return origin, np.eye(rank)
    return origin, vt[:rank].T


def _nullspace(M):
    """Orthonormal basis of the null space of M, of the singular values
    up to 1e-12 of the largest."""
    _, s, vt = np.linalg.svd(M)
    return vt[_rank(s, 1e-12):].T


def _monotone_chain(points, order=None):
    """Convex hull of points in the plane by Andrew's monotone chain
    (Inf. Process. Lett. 9, 1979), in Qhull's form: the hull vertices in
    ascending order, the edges as index pairs, and their equations
    n.u + c <= 0 with unit outward n.  A repeated point is one vertex
    (its first row), and, as in Qhull's precision merging, a point within
    the distance round-off (about 4 ulp of the largest coordinate) of the
    line through its neighbours is not a vertex.  The chain runs on the
    points as Python floats, in the rows' lexicographic order: order when
    the caller has sorted them (build_polytope's dedupe), else its own.
    The edge normals (dy, -dx)/|d| and the offsets c = -(n.o) are taken in
    Python floats, with one numpy array made per output; n.o is summed
    from +0.0, as numpy sums a row, so a zero offset has numpy's sign."""
    pts = points.tolist()
    if order is None:
        order = sorted(range(len(pts)), key=pts.__getitem__)
    order = [k for i, k in enumerate(order)
             if not i or pts[k] != pts[order[i - 1]]]
    width = 4.0 * _ULP * max(max(abs(x), abs(y)) for x, y in pts)

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
    edges = list(zip(ring, ring[1:] + ring[:1]))
    eq = []
    for i, j in edges:
        (ox, oy), (px, py) = pts[i], pts[j]
        dx, dy = px - ox, py - oy
        r = math.sqrt(dy * dy + dx * dx)
        nx, ny = dy / r, -dx / r
        eq.append((nx, ny, -(nx * ox + ny * oy + 0.0)))
    return np.array(sorted(ring)), np.array(edges), np.array(eq)


def _initial_simplex(points, width):
    """Rows of d+1 points spanning R^d, d >= 1: the least and greatest
    along the widest coordinate, then each the farthest from the affine
    hull of the ones before it.  Raises DegenerateInput when that
    distance is within width: the points are flat."""
    d = points.shape[1]
    span = np.ptp(points, axis=0)
    axis = int(np.argmax(span))
    if span[axis] <= width:
        raise DegenerateInput("points are flat")
    chosen = [int(np.argmin(points[:, axis])), int(np.argmax(points[:, axis]))]
    # R holds the rows' components off the chosen directions: one
    # Gram-Schmidt step per chosen point
    R = points - points[chosen[0]]
    while len(chosen) <= d:
        q = R[chosen[-1]] / np.linalg.norm(R[chosen[-1]])
        R -= np.outer(R @ q, q)
        r = np.einsum("ij,ij->i", R, R)
        k = int(np.argmax(r))
        if r[k] <= width * width:
            raise DegenerateInput("points are flat")
        chosen.append(k)
    return chosen


def _facet_planes(points, facets, inner):
    """Equations n.u + c <= 0, with unit n pointing away from the point
    inner, of the hyperplanes through the rows of points that each row of
    facets (d indices) names.

    n solves M n = e_1, where M's first row is the facet's centroid minus
    inner and its other rows the facet's edges from its first vertex, and
    is corrected once from its residual, taken in extended precision
    (np.longdouble, 64-bit mantissa on x86-64; where it is plain double
    the correction gains nothing).  That leaves n within about an ulp of
    the exact plane of the given floats unless the facet is a sliver.  c
    is -n . centroid in the same precision."""
    X = points[facets].astype(np.longdouble)
    centroid = X.sum(axis=1) / X.shape[1]
    M = X - X[:, :1]
    M[:, 0] = centroid - inner
    try:
        W = np.linalg.inv(M.astype(float))
    except np.linalg.LinAlgError:
        raise DegenerateInput("a hull facet is flat") from None
    n = W[:, :, 0]
    r = -np.einsum("kij,kj->ki", M, n.astype(np.longdouble))
    r[:, 0] += 1.0
    n = n + np.einsum("kij,kj->ki", W, r.astype(float))
    n /= np.sqrt(np.einsum("ij,ij->i", n, n))[:, None]
    c = -np.einsum("ij,ij->i", centroid, n.astype(np.longdouble))
    return n, c.astype(float)


def _visible_from(f, heights, nbrs, width, m):
    """The facets that a point beyond facet f sees, found by a search over
    neighbours from f, or None if the search meets a facet numbered m or
    above, whose plane is not fitted yet.  heights[g] is the point's
    height over facet g's plane."""
    seen, stack = {f}, [f]
    while stack:
        for h in nbrs[stack.pop()]:
            if h >= m:
                return None
            if h not in seen and heights[h] > width:
                seen.add(h)
                stack.append(h)
    return seen


def _quickhull(points, flat=0.0):
    """Convex hull of full-dimensional points in R^d, d >= 3, by Quickhull
    (Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996), in Qhull's form: the
    hull vertices in ascending order, the facets as rows of d vertex
    indices, and their equations n.u + c <= 0 with unit outward n.

    From an initial simplex, each outside point is kept on the conflict
    list of one facet it lies beyond.  A round takes the farthest point of
    each list, farthest first, and for each replaces the facets it sees
    (a connected set, found from its own facet) by the cone from it over
    their horizon; a point whose search reaches a facet made in the round
    waits for the next.  The round's new facets get their planes in one
    batch (_facet_planes), and the points of the facets it removed move to
    the new facet they lie farthest beyond, or drop out as inside.  As in
    the monotone chain, a point within the distance round-off, d + 2 ulp
    of the largest coordinate, of a facet's plane is not beyond it.

    The initial simplex's inradius 1 / sum(1 / h_i), h_i its heights over
    its facets, is a width the hull measures anyway: every direction's
    width of the points is at least twice it.  Given flat > 0, an inradius
    within flat raises DegenerateInput (build_polytope's chart test).
    """
    n, d = points.shape
    width = (d + 2) * np.finfo(float).eps * float(np.abs(points).max())
    simplex = _initial_simplex(points, width)
    inner = points[simplex].mean(axis=0)
    # facet f has vertices verts[f]; nbrs[f][k] is the facet across the
    # ridge that omits verts[f][k]
    verts = [tuple(simplex[:i] + simplex[i + 1:]) for i in range(d + 1)]
    nbrs = [[j for j in range(d + 1) if j != i] for i in range(d + 1)]
    alive = [True] * (d + 1)
    N, C = _facet_planes(points, np.array(verts), inner)
    H = points @ N.T + C
    if flat and 1.0 / np.sum(-1.0 / H[simplex, np.arange(d + 1)]) <= flat:
        raise DegenerateInput("points are flat")
    owner = H.argmax(axis=1)
    height = H[np.arange(n), owner]
    owner[height <= width] = -1
    owner[simplex] = -1
    while True:
        out = np.flatnonzero(owner >= 0)
        if not len(out):
            break
        out = out[np.argsort(-height[out], kind="stable")]
        tops, owners = [], set()  # the farthest point of each facet
        for p, f in zip(out.tolist(), owner[out].tolist()):
            if f not in owners:
                owners.add(f)
                tops.append(p)
        m = len(verts)  # facets made in this round are m and up
        H = points[tops] @ N.T + C
        added, killed = [], []
        for p, f, heights in zip(tops, owner[tops].tolist(), H):
            seen = alive[f] and _visible_from(f, heights, nbrs, width, m)
            if not seen:
                continue
            added.append(p)
            killed += seen
            ridges = {}  # the (d-2)-faces of the horizon, paired up
            for g in seen:
                alive[g] = False
                vg = verts[g]
                for k, h in enumerate(nbrs[g]):
                    if h in seen:
                        continue
                    fid = len(verts)
                    ridge = vg[:k] + vg[k + 1:]
                    verts.append(ridge + (p,))
                    nb = [h] * d  # the last is across the horizon ridge
                    nbrs.append(nb)
                    alive.append(True)
                    nbrs[h][nbrs[h].index(g)] = fid
                    for j in range(d - 1):
                        key = tuple(sorted(ridge[:j] + ridge[j + 1:]))
                        other = ridges.pop(key, None)
                        if other is None:
                            ridges[key] = (fid, j)
                        else:
                            nb[j] = other[0]
                            nbrs[other[0]][other[1]] = fid
        Nn, Cn = _facet_planes(points, np.array(verts[m:]), inner)
        N, C = np.vstack([N, Nn]), np.concatenate([C, Cn])
        owner[added] = -1
        gone = np.zeros(m + 1, dtype=bool)  # owner -1 reads gone[m]
        gone[killed] = True
        orphans = np.flatnonzero(gone[owner])
        if len(orphans):
            Hn = points[orphans] @ Nn.T + Cn
            top = Hn.max(axis=1)
            height[orphans] = top
            owner[orphans] = np.where(top > width, m + Hn.argmax(axis=1), -1)
    live = np.flatnonzero(alive)
    simplices = np.array(verts)[live]
    return (np.unique(simplices), simplices,
            np.column_stack([N[live], C[live]]))


def _hull_facets(points, tol, flat=0.0, hull=None):
    """Facets of the convex hull of full-dimensional points (dim >= 2).

    The hull, in the chain's form, is given or comes from the monotone
    chain in the plane and from Quickhull in every higher dimension,
    simplices included.  Given flat > 0, a polygon whose least width, the
    least over its edges of the farthest vertex's distance, is within
    twice flat raises DegenerateInput (from dimension 3 Quickhull tests
    its initial simplex, _quickhull).
    Coplanar hull simplices are grouped by their equality set: the hull
    vertices within tol of the simplex's plane, plus the simplex's own
    vertices.  A hull vertex whose facets share another hull vertex lies
    within tol of the hull of the other points and is dropped; a facet
    whose hull plane runs through a dropped vertex is refitted to its kept
    vertices, and a facet left with no kept vertex raises DegenerateInput.
    Returns the remaining hull vertices in ascending order, unit outward
    normals A and offsets b (A u <= b on the hull) and the equality sets,
    all in row numbering, one entry per facet in the order of
    tuple(sorted(set)).
    """
    hull_verts, simplices, eq = hull or (_monotone_chain(points)
                                         if points.shape[1] == 2
                                         else _quickhull(points))
    H = points[hull_verts] @ eq[:, :-1].T + eq[:, -1]
    if flat and points.shape[1] == 2 and H.min(axis=0).max() >= -2.0 * flat:
        raise DegenerateInput("points are flat")
    near = np.abs(H) <= tol
    near[np.searchsorted(hull_verts, simplices),
         np.arange(len(simplices))[:, None]] = False
    if not near.any():
        # each simplex is its own equality set, so a facet, and keeps
        # every vertex: the facets of a simplicial polytope
        S = np.sort(simplices, axis=1)
        first = np.lexsort(S.T[::-1])
        return (hull_verts, eq[first, :-1], -eq[first, -1],
                [frozenset(key) for key in S[first].tolist()])
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
        # tol dropped every vertex of a facet
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


def _bits(x):
    """Positions of the set bits of the int x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


@dataclass(frozen=True)
class Face:
    """A face of a polytope boundary, or a boundary point of an ellipsoid.

    indices are sorted positions into the owning domain's vertex array
    (empty for ellipsoid point faces, which carry point_key instead), and
    mask has bit i set for each of them.  normal/offset give an ambient
    supporting hyperplane with equality exactly on the face, and
    facet_ids are the facets that contain it.
    """

    indices: tuple
    dim: int
    point_key: tuple | None = None
    vertices: np.ndarray = field(default=None, compare=False, repr=False)
    normal: np.ndarray = field(default=None, compare=False, repr=False)
    offset: float = field(default=0.0, compare=False)
    facet_ids: frozenset = field(default=frozenset(), compare=False)
    mask: int = field(default=0, compare=False, repr=False)

    def centroid(self):
        return self.vertices.mean(axis=0)

    def direction_basis(self):
        """Orthonormal ambient basis of the face's direction space: the
        singular directions of its vertices above 1e-12 of the largest."""
        if len(self.vertices) <= 1:
            return np.zeros((self.vertices.shape[1], 0))
        _, basis = _affine_chart(self.vertices - self.vertices[0], 1e-12)
        return basis


class FaceLattice:
    """Proper faces of a polytope, graded by dimension, ordered by inclusion.

    Faces are held as bitsets, in the order (dim, indices): each has a
    vertex mask, a mask of the facets that contain it, and the vertex
    masks of its own facets, its subfaces one dimension down; their
    supporting hyperplanes are rows of one array.  A Face object is made,
    and kept, only when one is asked for, so len() and counts() make none.
    """

    def __init__(self, vertices, facet_masks, levels, info, kids, normals,
                 offsets):
        """levels[k] holds the vertex masks of the k-faces in vertex-tuple
        order; info maps a face's vertex mask to its indices and facet
        mask, and kids to its own facets' vertex masks; facet_masks[j] is
        facet j's vertex mask; normals and offsets are the faces'
        hyperplanes, row for row in lattice order."""
        self._V, self._facet_masks = vertices, facet_masks
        self._info, self._kids = info, kids
        self._masks = [x for level in levels for x in level]
        self._dims = [k for k, level in enumerate(levels) for _ in level]
        self._facets = [info[x][1] for x in self._masks]
        self._at = {x: r for r, x in enumerate(self._masks)}
        self._span, r = {}, 0  # dim -> range of its positions
        for k, level in enumerate(levels):
            self._span[k], r = range(r, r + len(level)), r + len(level)
        self._N, self._offsets = normals, offsets
        self._built = [None] * len(self._masks)

    def _face(self, r):
        face = self._built[r]
        if face is None:
            idx, phi = self._info[self._masks[r]]
            face = self._built[r] = Face(
                indices=idx, dim=self._dims[r], vertices=self._V[list(idx)],
                normal=self._N[r], offset=float(self._offsets[r]),
                facet_ids=frozenset(_bits(phi)), mask=self._masks[r])
        return face

    @property
    def faces(self):
        return [self._face(r) for r in range(len(self))]

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self._masks)

    def of_dim(self, k):
        return [self._face(r) for r in self._span.get(k, ())]

    def counts(self):
        return {k: len(r) for k, r in self._span.items()}

    def _with_mask(self, m):
        """The face whose vertex mask is m, or None."""
        r = self._at.get(m)
        return None if r is None else self._face(r)

    def find(self, indices):
        m = 0
        for i in indices:
            m |= 1 << int(i)
        return self._with_mask(m)

    def _meets(self, tight):
        """The faces that are the intersections of the facets marked in
        each row of the bool array tight, None where there is none."""
        meets = [-1] * len(tight)
        for r, j in zip(*(a.tolist() for a in tight.nonzero())):
            meets[r] &= self._facet_masks[j]
        return [self._with_mask(m) for m in meets]

    @staticmethod
    def leq(f, g):
        """Inclusion order: f is a (possibly equal) subface of g."""
        return not f.mask & ~g.mask

    def _below(self, r):
        """Positions of the proper subfaces of face r, in lattice order."""
        seen, stack = set(), [self._masks[r]]
        while stack:
            for h in self._kids[stack.pop()]:
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        return sorted(map(self._at.__getitem__, seen))

    def subfaces(self, face, proper=True):
        r = self._at[face.mask]
        below = self._below(r)
        return [self._face(s) for s in (below if proper else below + [r])]


@dataclass(eq=False)
class Chord:
    """Maximal open segment of the domain through two interior points.

    alpha is the boundary endpoint nearer x, beta the one nearer y, so
    |alpha - x| < |alpha - y| and |beta - y| < |beta - x|.
    t_alpha < 0 and t_beta > 1 parametrize the endpoints on the line
    x + t (y - x).  _sxy and _binding keep what the chord's pass read
    (ConvexDomain.chord_through): the slacks of x and y, and the binding
    facets of alpha and beta (None on an ellipsoid).
    """

    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    face_alpha: Face
    face_beta: Face
    t_alpha: float
    t_beta: float
    _sxy: np.ndarray = field(default=None, repr=False)
    _binding: np.ndarray = field(default=None, repr=False)


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


class JoinRegion:
    """Union of open segments between the relative interiors of two faces.

    z is in the join iff strictly positive convex weights on the vertices
    of both faces reproduce z, that is, iff z lies in the relative
    interior of conv(Va ∪ Vb).  That hull is built once, in the chart of
    its affine hull (a segment when both faces are vertices), taken from
    the vertices' coordinates in the domain's unit chart, which are
    relative to the domain's size wherever it sits.  The region is convex.
    """

    def __init__(self, domain, face_a, face_b):
        self.domain = domain
        self.face_a = face_a
        self.face_b = face_b
        L = domain.to_local(np.vstack([face_a.vertices, face_b.vertices]))
        self._origin, self._basis = _affine_chart(L, defaults.EPS_GEO)
        self._hull = build_polytope((L - self._origin) @ self._basis)

    def __call__(self, p, eps=None):
        """Whether p lies on the join's affine hull, by the domain's hull
        rule (_off_hull) on its squared residuals off the domain's hull
        and off the join's chart, at eps of the join hull's size, with
        every slack of its chart hull above eps."""
        eps, dom, x = _eps(eps), self.domain, _as_array(p)
        z = dom.to_local(x) - self._origin
        u = z @ self._basis
        r = z - self._basis @ u
        off = dom._off_hull(dom._read(x)[1] + r @ r, x[None] - dom._pivot,
                            eps * self._hull._size)
        return bool(not off[0] and self._hull.contains_interior(u, eps))


@dataclass(eq=False)
class MinimalCone:
    """Cone of open segments from an extreme point over a face interior,
    whose relative boundary stays on the domain boundary.

    It is read off the domain's own facet slacks s, with no hull of its
    own.  Let F be the facets through the base B; none holds the apex e,
    since the two faces are opposite.  z = k e + (1 - k) q with q in the
    relative interior of B and 0 < k < 1 exactly when z is on the affine
    hull, s_i(z) = k s_i(e) for every i in F with k > 0, and
    s_j(z) > k s_j(e) for every other facet j: then q = (z - k e) / (1 - k)
    is on B's affine hull with every other slack positive, and k < 1
    follows, as positive weights on the facet normals sum to zero.
    """

    apex: np.ndarray
    apex_face: Face
    base: Face
    domain: "ConvexDomain"

    @property
    def dim(self):
        return self.base.dim + 1

    def contains(self, p, eps=None):
        """Whether p lies in the open cone, eps a fraction of the domain's
        size.  The apex's slacks a and p's s come from one pass (_read),
        and k = s_i / a_i on the base facet i where a is largest.  Over F
        the differences s - k a are a residual off the cone's affine hull,
        which is added to p's off the domain's and decided by the hull
        rule (_off_hull).  s_i, and on every other facet s - k a, must
        exceed eps."""
        eps, dom, e = _eps(eps), self.domain, self.apex_face.vertices
        P = np.vstack([e, _as_points(p, dom.ambient_dim)])
        (a, s), g, _, _ = dom._read(P)
        F = sorted(self.base.facet_ids, key=a.__getitem__)  # i = F[-1]
        t = s - s[F[-1]] / a[F[-1]] * a
        off = dom._off_hull(g[-1:] + t[F] @ t[F], P[1:] - dom._pivot, eps)
        t[F] = np.inf
        return bool(not off[0] and s[F[-1]] > eps and t.min() > eps)

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
    """Bounded convex body, open by convention, polytope or ellipsoid.

    Its chart maps a point p to the local coordinates (p - _origin) @
    _basis and back by _origin + u @ _frame.T.  A polytope's chart is its
    unit chart (_basis and _frame are an orthonormal basis divided and
    multiplied by _size, half the largest coordinate range), an
    ellipsoid's the identity.  Every eps is a fraction of the domain's
    size: of _size on a polytope, of the whitened radius on an ellipsoid.

    Every method that takes ambient points reads them through one matrix
    _M, as offsets from _pivot: on a polytope the facet rates per ambient
    unit, _basis @ _A.T, followed on an embedded polytope by _normals,
    its unit normals to the affine hull divided by _size, from the chart
    origin; on an ellipsoid the whitening L^-T, from the center.  Queries
    take that product in one stacked pass (_stacked, _ray), the
    predicates, faces and sections point by point (_read), and both turn
    it into slacks and hull residuals by one routine (_slacks) and decide
    the affine hull by one rule (_off_hull), so both accept a point from
    the same bits.
    """

    def __init__(self, kind, **data):
        if kind not in ("polytope", "ellipsoid"):
            raise Unsupported(f"unknown domain kind {kind!r}")
        self.kind = kind
        if kind == "polytope":
            self.vertices = data["vertices"]
            self._origin = data["origin"]
            self._size = data["size"]
            self._basis = data["basis"] * (1.0 / self._size)
            self._frame = data["basis"] * self._size
            self._lv = data["lv"]
            self._A = data["A"]
            self._b = data["b"]
            self._facet_sets = data["facet_sets"]
            self._lattice = None  # built on first use, see face_lattice
            self._cycle = None  # see polygon_vertices_local
            self.ambient_dim, self.intrinsic_dim = D, d = data["basis"].shape
            # the orthogonal complement of the orthonormal basis
            self._normals = (np.linalg.svd(data["basis"])[0][:, d:]
                             * (1.0 / self._size) if d < D
                             else np.empty((D, 0)))
            self._M = np.hstack([self._basis @ self._A.T, self._normals])
            self._pivot = self._origin
        else:
            self.center = data["center"]
            self.shape = data["shape"]
            self._chol = data["chol"]
            self._chol_inv = data["chol_inv"]
            self.vertices = None
            self.ambient_dim = self.center.size
            self.intrinsic_dim = self.center.size
            self._origin = np.zeros(self.ambient_dim)
            self._size = 1.0
            self._basis = self._frame = np.eye(self.ambient_dim)
            self._M = self._chol_inv.T
            self._normals = np.empty((self.ambient_dim, 0))
            self._pivot = self.center
            self._sphere_map = np.hstack([self._chol.T, self._chol_inv])

    # ---------------------------------------------------------------- charts

    def to_local(self, p):
        """Chart coordinates of a point, or of each row of an array."""
        return (_as_points(p, self.ambient_dim) - self._origin) @ self._basis

    def to_ambient(self, u):
        return self._origin + _as_array(u) @ self._frame.T

    def hull_residual(self, p):
        """Euclidean distance from p to the affine hull: the length of its
        components along the hull's unit normals (_read), 0 when the
        domain is full-dimensional.  It is the raw distance, with none of
        the hull rule's round-off allowance (_off_hull)."""
        return math.sqrt(self._read(p)[1][0]) * self._size

    def _read(self, p, eps=None):
        """The slacks S, squared hull residuals g, product R and hull
        verdicts off of a point p, or of each row of p, one row each, in
        the one pass of the queries: R = (p - _pivot) @ _M, read by
        _slacks, with off None when no eps is given.  An ellipsoid's one
        slack is 1 - |w| of its whitened point w, a row of R.  So a
        predicate accepts a point from the same bits as a query does.
        Raises NonFinite, or DegenerateInput for a point of other than
        ambient_dim coordinates."""
        D = self.ambient_dim
        P = _as_points(p, D).reshape(-1, D)
        # BLAS multiplies one row by another kernel than a stack of rows,
        # which rounds differently: a point is read as a row of two, as a
        # query's pass reads it
        Z = (np.concatenate([P, P]) if len(P) == 1 else P) - self._pivot
        R = (Z @ self._M)[:len(P)]
        return (*self._slacks(R, Z[:len(P)], eps), R)

    def _slacks(self, R, Q, eps=None, squared=False):
        """The slacks S, squared hull residuals g and hull verdicts off
        (_off_hull, None without eps) of the k points Q, offsets from
        _pivot, from R[:k], the rows of their product with _M.  A
        polytope's slacks are b - R[:, :m], its facet slacks in the unit
        chart, and g is the sum of the squared components along _normals,
        in units of the size; a full-dimensional domain's g is one 0 for
        every row.  An ellipsoid's slack is 1 - |w| of the whitened point
        w, one column, or with squared 1 - |w|^2, one per point, the
        form the ball's distance reads (_ball_distances): it is > 0
        exactly when 1 - |w| is, since sqrt(v) < 1 for every double
        v < 1."""
        k = len(Q)
        g = _NO_RESIDUAL
        if self.kind == "ellipsoid":
            W = R[:k]
            ww = np.add.reduce(W * W, axis=1, keepdims=not squared)
            S = 1.0 - ww if squared else 1.0 - np.sqrt(ww)
        else:
            m = len(self._b)
            S = self._b - R[:k, :m]
            if m < R.shape[1]:
                G = R[:k, m:]
                g = np.add.reduce(G * G, axis=1)
        return S, g, None if eps is None else self._off_hull(g, Q, eps)

    def _off_hull(self, g, Q, eps):
        """The affine-hull rule: which of the points Q, offsets from
        _pivot with squared hull residuals g (_slacks), lie farther from
        the affine hull than eps of the size, eps read with its sign, plus
        the round-off of the point's own coordinates, _ROUND of its
        largest in units of the size.  A domain far from the origin
        relative to its size rounds its points by more than eps of it.
        That allowance is taken only when eps alone refuses a point."""
        if g is _NO_RESIDUAL:
            return _OFF_HULL if 0.0 > eps * abs(eps) else _ON_HULL
        if not np.logical_or.reduce(g > eps * abs(eps)):
            return _ON_HULL
        top = np.abs(Q + self._pivot).max(axis=1)
        tol = eps + _ROUND * top / self._size
        return g > tol * np.abs(tol)

    def _stacked(self, X, Y, eps, names=("x", "y")):
        """The one product of a query on the pairs (X[i], Y[i]), rows of
        n x ambient arrays of matching shape: R = [X - o; Y - o; X - Y;
        Y - X] @ _M, o the polytope's origin or the ellipsoid's center.
        Returns S, R and the stack Z = [X - o; Y - o; X - Y; Y - X].  On a
        polytope S holds the facet slacks of the 2n points X and Y (as
        _read takes them), and the last 2n rows of R are sy - sx and
        sx - sy, the facet rates along X - Y and Y - X, so close pairs keep
        their digits.  On an ellipsoid the rows of R are whitened, w, and S
        is 1 - |w|^2 of the 2n points, the ball's quadratic slack.

        Every point is checked, and named by names as _reject does.  X and
        Y must be n x ambient_dim (DegenerateInput), and their coordinates
        finite, before they enter the product, where an infinite one would
        make numpy warn (inf * 0); then _product accepts the query.
        """
        if (X.shape != Y.shape or X.ndim != 2
                or X.shape[1] != self.ambient_dim):
            raise DegenerateInput(
                f"{names[0]} and {names[1]} must be matching rows of "
                f"{self.ambient_dim} coordinates")
        n = len(X)
        Z = np.concatenate([X, Y, Y, X])
        P, D = Z[:2 * n], Z[2 * n:]
        _require_finite(P, n, names)
        np.subtract(P, D, out=D)
        S, R = self._product(Z, P, eps, names)
        return S, R, Z

    def _product(self, Z, P, eps, names=("x", "y")):
        """R = Z @ _M, once P, the view of the first k rows of Z, finite
        points, is taken to _pivot in place (the rows below are
        directions), and the slacks S of those k points, read by the
        predicates' routine (_slacks; 1 - |w|^2 on an ellipsoid).  The
        points are accepted by the hull rule (_off_hull) and one reduction
        of their slacks.  Only a query that fails is scanned row by row:
        PointNotInterior for a point off the affine hull, then for one
        with a slack <= 0 (1 - |w| on an ellipsoid, read again as the
        predicates read it), naming the first bad point as _reject does,
        the first half of the k rows by names[0] and the rest by
        names[1].
        """
        P -= self._pivot
        R = Z @ self._M
        S, _, off = self._slacks(R, P, eps, squared=True)
        if not (np.minimum.reduce(S, axis=None, initial=np.inf) > 0.0
                and (off is _ON_HULL or not np.logical_or.reduce(off))):
            n = (len(P) + 1) // 2
            _reject(off, n, PointNotInterior, "is off the affine hull",
                    names=names)
            least = self._slacks(R, P)[0].min(axis=1)
            _reject(least <= 0.0, n, PointNotInterior,
                    "is not strictly interior", least, names)
        return S, R

    # ------------------------------------------------------------ predicates

    def min_slack(self, p):
        """Smallest facet slack (polytope) or 1 - radial coordinate
        (ellipsoid); positive strictly inside the relative interior."""
        return float(self._read(p)[0].min())

    def contains_interior(self, p, eps=None):
        """Whether p, or each row of p, lies within eps of the affine hull
        with every slack above eps, both of the domain's size."""
        eps = _eps(eps)
        S, _, off, _ = self._read(p, eps)
        ok = ~off & (S.min(axis=1) > eps)
        return ok if np.ndim(p) > 1 else bool(ok[0])

    def on_boundary(self, p, eps=None):
        """Whether p lies within eps of the affine hull with its least
        slack within eps of 0, both of the domain's size."""
        eps = _eps(eps)
        S, _, off, _ = self._read(p, eps)
        return bool(not off[0] and abs(S.min()) <= eps)

    def centroid(self):
        if self.kind == "polytope":
            return self.vertices.mean(axis=0)
        return self.center.copy()

    def _extent(self):
        """The largest coordinate range of a polytope's points, or the
        largest diameter of an ellipsoid."""
        if self.kind == "polytope":
            return 2.0 * self._size
        return 2.0 * float(np.linalg.norm(self._chol, 2))

    # ------------------------------------------------------------------ faces

    def face_lattice(self):
        """The polytope's face lattice, built on the first call and kept
        (distances, balls, chord parameters and cones read the facets
        alone).  The build is combinatorial, on vertex and facet bitsets
        (_face_lattice), and a Face object is made only when one is asked
        for."""
        if self.kind != "polytope":
            raise Unsupported("ellipsoids have no polytopal face lattice")
        if self._lattice is None:
            self._lattice = _face_lattice(self)
        return self._lattice

    def boundary_face_of(self, p, eps=None):
        """The face whose relative interior contains the boundary point p:
        where the facets whose slacks (_read) are within eps of the
        domain's size of 0 meet.  An ellipsoid's one slack is 1 - |w| of
        the whitened point w, and its face is the point w / |w| of the
        unit sphere.  Chord and ray ends do not come here: chord_through
        and minimal_cone_at read their faces off the facets that clip
        them."""
        eps = _eps(eps)
        S, _, off, R = self._read(p, eps)
        if off[0]:
            raise NotOnBoundary("point is off the affine hull")
        least = float(S.min())
        tight = np.abs(S[:1]) <= eps
        if self.kind == "ellipsoid":
            if not tight.any():
                raise NotOnBoundary("point is not on the ellipsoid boundary",
                                    slack=least)
            # 1 - least is |w| exactly: |w| is within eps of 1
            return self._sphere_faces(R[:1] / (1.0 - least))[0]
        if least < -eps:
            raise NotOnBoundary("point is outside the domain", slack=least)
        if not tight.any():
            raise NotOnBoundary("point is interior", slack=least)
        return self._faces_of(tight)[0]

    def _faces_of(self, tight):
        """The faces where the facets marked in each row of tight meet."""
        faces = self.face_lattice()._meets(tight)
        if any(face is None for face in faces):
            raise NotOnBoundary("tight facets do not meet in a face")
        return faces

    def _sphere_faces(self, W):
        """An ellipsoid's point faces at the rows of W, whitened boundary
        points |w| = 1: the points c + L w, with the normals L^-T w, both
        from one product with [L^T | L^-1]."""
        d = self.ambient_dim
        QN = W @ self._sphere_map
        proj = self.center + QN[:, :d]
        N = QN[:, d:]
        N = N / np.sqrt((N * N).sum(axis=1))[:, None]
        offsets = (N * proj).sum(axis=1).tolist()
        return [Face(indices=(), dim=0, point_key=tuple(key),
                     vertices=proj[i:i + 1], normal=N[i], offset=offsets[i])
                for i, key in enumerate(np.round(W, 9).tolist())]

    def in_relative_interior(self, face, p, eps=None):
        """Whether p lies in the relative interior of the given face: on a
        polytope, within eps of the affine hull with exactly the face's
        facets tight (_read); on an ellipsoid, within eps of the face's
        point in whitened coordinates."""
        eps = _eps(eps)
        S, _, off, R = self._read(p, eps)
        if self.kind == "ellipsoid":
            return (face.point_key is not None and np.linalg.norm(
                R[0] - self._read(face.vertices[0])[3][0]) <= eps)
        if off[0] or S.min() < -eps:
            return False
        tight = frozenset(np.flatnonzero(np.abs(S[0]) <= eps).tolist())
        return tight == face.facet_ids and len(tight) > 0

    # ----------------------------------------------------------------- chords

    def _clip_line(self, s, rate):
        """Where lines leave the body: on a polytope s are the facet slacks
        of a point and rate their rates of decrease along the line, so the
        slacks at t are s - t rate; on an ellipsoid s and rate are the
        whitened point and direction, rows of a pass's product (_clip).
        One line, or one per row of rate (s one point or matching rows).

        Returns (t_lo, t_hi, ends): floats for one line and arrays for
        rows, with t_lo < 0 < t_hi for an interior point.  On a polytope
        both ends come from one ratio array, s / rate: the slacks of an
        interior point are positive, so its negative entries bound t_lo
        and its positive ones t_hi.  A facet whose rate is at the
        round-off of the largest (1e-14 of it) counts as parallel: its
        rate is read as inf, its ratio as 0, which bounds neither end.
        For one line on a polytope, ends[0] and ends[1] mark the binding
        facets of its two ends, those whose slack there, s - t rate, is
        within its round-off of 0: _ROUND per unit of 1 + |t| max |rate|,
        the size of the terms in the unit chart, taken in floats.  The
        facet that sets t is always among them, and the end's face is
        where they meet (_faces_of).  Otherwise ends is None.
        """
        if self.kind == "ellipsoid":
            t_lo, t_hi = self._ellipsoid_chords(s, rate)
            if not ((-np.inf < t_lo) & (t_lo < t_hi) & (t_hi < np.inf)).all():
                raise DegenerateInput("degenerate chord direction")
            if rate.ndim == 1:
                return float(t_lo), float(t_hi), None
            return t_lo, t_hi, None
        size = np.abs(rate)
        scale = np.maximum.reduce(size, axis=-1, keepdims=True)
        ratio = s / np.where(size > 1e-14 * scale, rate, np.inf)
        t_lo = np.maximum.reduce(ratio, axis=-1, initial=-np.inf,
                                 where=ratio < 0.0)
        t_hi = np.minimum.reduce(ratio, axis=-1, initial=np.inf,
                                 where=ratio > 0.0)
        ok = t_hi - t_lo < np.inf
        if not (ok if rate.ndim == 1 else ok.all()):
            raise DegenerateInput("line escapes the polytope")
        if rate.ndim > 1:
            return t_lo, t_hi, None
        t_lo, t_hi, scale = float(t_lo), float(t_hi), float(scale[0])
        # each end's t and slack round-off, one row per end
        T = np.array([[t_lo, _ROUND * (1.0 + abs(t_lo) * scale)],
                      [t_hi, _ROUND * (1.0 + abs(t_hi) * scale)]])
        return t_lo, t_hi, np.abs(s - T[:, :1] * rate) <= T[:, 1:]

    @staticmethod
    def _ellipsoid_chords(w, dw):
        """(t_lo, t_hi) where the lines w + t dw (whitened points
        w = L^-1 (p - c) and directions, or rows of them) cross the sphere
        |w| = 1, the ellipsoid's boundary.

        The roots q/a and c0/q of a t^2 + 2 b t + c0 keep the digits that
        (-b +- root) / a loses on a short dw.  A zero dw gives (-inf, inf),
        the whole line; a line that misses the body gives nan.
        """
        a = (dw * dw).sum(axis=-1)
        b = (w * dw).sum(axis=-1)
        c0 = (w * w).sum(axis=-1) - 1.0
        moving = a > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(b + np.copysign(np.sqrt(b * b - a * c0), b))
            r1, r2 = q / a, c0 / q
        lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
        if moving.all():
            return lo, hi
        return np.where(moving, lo, -np.inf), np.where(moving, hi, np.inf)

    def _clip(self, S, R, p, d):
        """_clip_line of the line through the checked point of row p of a
        pass (_product) along the direction of its row d, or of the lines
        along its rows d (a slice)."""
        if self.kind == "polytope":
            return self._clip_line(S[p], R[d, :len(self._b)])
        return self._clip_line(R[p], R[d])

    def chord_params(self, x, y, eps=None):
        """(t_lo, t_hi) clipping the line through interior x, y, with x at
        t = 0 and y at t = 1; the same pass as chord_through."""
        return self._chord(np.asarray(x, dtype=float),
                           np.asarray(y, dtype=float), eps)[:2]

    def _chord(self, x, y, eps):
        """_clip_line of the line through the points x and y, from the one
        stacked product of _stacked, which checks both points before they
        are compared, and that pass's S, R and Z."""
        S, R, Z = self._stacked(x[None], y[None], _eps(eps))
        if x.tolist() == y.tolist():
            raise CoincidentPoints("chord needs two distinct points")
        return (*self._clip(S, R, 0, 3), S, R, Z)

    def chord_through(self, x, y, eps=None):
        """The maximal chord through interior points x and y, with its
        boundary endpoints and their faces.

        One stacked pass (_stacked) checks x and y and gives the slacks of
        x and the facet rates along y - x, which _clip_line turns into t_lo
        and t_hi and each end's binding facets; the end's face is where
        those facets meet (_faces_of), so no extrapolated endpoint is read
        back, and a pair 1e-13 apart gets the faces of a far pair on its
        line.  An ellipsoid's end faces come from its two whitened ends,
        normalised, in one product (_sphere_faces).  The points x, y, alpha
        and beta come from the chart: x - o, y - o and y - x of the same
        pass taken to the chart, so x and y are projected to the affine
        hull, and alpha and beta lie at t_lo and t_hi on the line through
        them.  The chord keeps the pass's slacks of x and y and the ends'
        binding facets for is_rigid_chord.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t_lo, t_hi, ends, S, R, Z = self._chord(x, y, eps)
        t = np.array([[t_lo], [t_hi]])
        # the rows x - o, y - o, x - y and y - x in the chart; alpha and
        # beta take the place of x - y and y - x
        U = Z @ self._basis
        U[2:] = U[3] * t + U[0]
        xh, yh, alpha, beta = self._pivot + U @ self._frame.T
        if self.kind == "polytope":
            faces = self._faces_of(ends)
        else:
            W = R[0] + t * R[3]
            faces = self._sphere_faces(
                W / np.sqrt(np.add.reduce(W * W, axis=1))[:, None])
        return Chord(x=xh, y=yh, alpha=alpha, beta=beta, face_alpha=faces[0],
                     face_beta=faces[1], t_alpha=t_lo, t_beta=t_hi,
                     _sxy=S, _binding=ends)

    def ray(self, start, direction, eps=None):
        """Ray from an interior start toward the boundary.

        The start is checked and the ray clipped in one pass, as a chord
        is (_ray).  The start and the direction are taken to the affine
        hull through the chart, and the endpoint lies at t_hi along that
        direction.  The end's face is where the facets that bind it meet,
        which minimal_cone_at reads from _ray."""
        t_hi, _, Z = self._ray(start, direction, eps)
        p, d = Z @ self._basis @ self._frame.T
        p += self._pivot
        nd = math.sqrt(d @ d)
        return Ray(start=p, direction=d / nd, endpoint=p + t_hi * d,
                   length=t_hi * nd)

    def _ray(self, start, direction, eps):
        """(t_hi, ends, Z) of the ray from start along direction: where it
        leaves the body, the binding facets of both ends of its line (None
        on an ellipsoid), and Z = [start - o; direction].  start and
        direction must have ambient_dim coordinates (DegenerateInput), the
        direction be nonzero and, like a point, within eps of the size, or
        of its length, of the affine hull, with the start's round-off
        (_off_hull); the start is checked and the line clipped by one
        product, [start - o; direction] @ _M, as a chord's pair is
        (_product, _clip_line).
        """
        start = np.asarray(start, dtype=float)
        direction = np.asarray(direction, dtype=float)
        if (start.shape != (self.ambient_dim,)
                or direction.shape != start.shape):
            raise DegenerateInput(
                f"start and direction must have {self.ambient_dim} "
                "coordinates")
        Z = np.array([start, direction])
        _require_finite(Z, 1, ("start", "direction"))
        dd = Z[1] @ Z[1]
        if dd == 0.0:
            raise DegenerateInput("zero ray direction")
        g = Z[1] @ self._normals
        tol = _eps(eps) * max(math.sqrt(dd) / self._size, 1.0)
        if self._off_hull(np.atleast_1d(g @ g), Z[:1] - self._pivot, tol)[0]:
            raise DegenerateInput("ray direction leaves the affine hull")
        S, R = self._product(Z, Z[:1], _eps(eps), ("start", "direction"))
        _, t_hi, ends = self._clip(S, R, 0, 1)
        return t_hi, ends, Z

    # -------------------------------------------------- joins, cones, slices

    def opposite_faces(self, face_a, face_b, eps=None):
        """True iff an open segment between the two faces' relative
        interiors crosses the interior.

        On a polytope that holds exactly when no facet contains both
        faces (a facet's slack vanishes on such a segment only if it
        vanishes at both ends), so their facet_ids decide it, exactly and
        at any scale, and eps is not read.  On an ellipsoid the midpoint
        of the two faces' points must lie in the interior, with slack
        above eps."""
        if self.kind == "polytope":
            return face_a.facet_ids.isdisjoint(face_b.facet_ids)
        mid = 0.5 * (face_a.centroid() + face_b.centroid())
        return self.contains_interior(mid, eps)

    def join_region(self, face_a, face_b, eps=None):
        if not self.opposite_faces(face_a, face_b, eps):
            raise NotOpposite("faces do not see each other through the interior")
        return JoinRegion(self, face_a, face_b)

    def minimal_cone_at(self, e, eps=None):
        """Minimal cone at an extreme point: descend from any opposite face
        to a face none of whose proper subfaces is opposite to e.

        The apex's face is read off the point e (boundary_face_of).  The
        descent starts at the face of the far end of the chord through e
        and the centroid: the face where the facets that bind the ray from
        the centroid away from e meet (_ray), as chord ends are read, with
        no endpoint extrapolated and read back."""
        if self.kind != "polytope":
            raise Unsupported("minimal cones are defined on polytopes here")
        e = _as_array(e, "e")
        apex_face = self.boundary_face_of(e, eps)
        if apex_face.dim != 0:
            raise DegenerateInput("apex must be an extreme point")
        lattice = self.face_lattice()
        x = self.centroid()
        # the face of the far end of the chord through e and the centroid
        base = self._faces_of(self._ray(x, x - e, eps)[1][1:])[0]
        # faces are opposite when no facet holds both (opposite_faces)
        apex_facets = lattice._facets[lattice._at[apex_face.mask]]
        r = lattice._at[base.mask]
        while True:
            subs = [s for s in lattice._below(r)
                    if not lattice._facets[s] & apex_facets]
            if not subs:
                break
            # the largest dimension first, then lattice order
            r = max(subs, key=lambda s: (lattice._dims[s], -s))
        return MinimalCone(apex=e, apex_face=apex_face,
                           base=lattice._face(r), domain=self)

    def find_extreme_line(self, eps=None):
        """A chord whose closure meets the boundary in two extreme points,
        or None (the triangle-like case)."""
        if self.kind == "ellipsoid":
            w, v = np.linalg.eigh(self.shape)
            u = v[:, -1] * np.sqrt(w[-1])
            a, b = self.center - u, self.center + u
            return self.chord_through(a + (b - a) / 3, a + 2 * (b - a) / 3, eps)
        # two vertices are opposite when no facet holds both; vertex i is
        # the lattice's face i
        facets = self.face_lattice()._facets
        for i, j in itertools.combinations(range(len(self.vertices)), 2):
            if not facets[i] & facets[j]:
                a, b = self.vertices[i], self.vertices[j]
                return self.chord_through(a + (b - a) / 3,
                                          a + 2 * (b - a) / 3, eps)
        return None

    def cross_section(self, point, spans, eps=None):
        """Cut by the affine subspace {point + span(spans)}.

        The result lives in coordinates of subspace ∩ affine hull.  One QR
        of the spans gives an orthonormal basis of the subspace and of its
        normals.  A full-dimensional domain's affine hull is the whole
        space (every hull residual is 0), so its cut is the subspace
        itself, whose basis is W, orthonormal in the unit chart too, with
        those normals.
        On an embedded domain the cut is solved for: the subspace meets
        the hull where point + B0 s = origin + B r, along the null space
        of [B0, -B].  A polytope's section is the hull of its vertices,
        read off the face lattice in the unit chart (_section_vertices),
        and the section's own build_polytope, which decides that a plane
        section spans the cut from its least width with no chart SVD,
        takes it in one pass.  Raises EmptyIntersection when the
        subspace misses the relative interior: for a polytope, when the
        section's vertices do not span the dimension of the cut, or all
        lie on one facet."""
        eps_v = _eps(eps)
        p0 = _as_points(point, self.ambient_dim, "point")
        S = np.atleast_2d(_as_points(spans, self.ambient_dim, "spans"))
        q, r = np.linalg.qr(S.T, mode="complete")
        keep = np.abs(np.diag(r)) > 1e-12 * np.abs(r).max()
        if not np.all(keep):
            raise DegenerateInput("spanning vectors are linearly dependent")
        B0 = q[:, : S.shape[0]]
        m = B0.shape[1]
        if m < 2 or m > self.intrinsic_dim:
            raise DimensionOutOfRange(
                f"subspace dim {m} outside 2..{self.intrinsic_dim}")
        if self.intrinsic_dim == self.ambient_dim:
            # the chart is a scaling: W stays orthonormal in it
            q0, W, Wl, N = p0, B0, B0, q[:, m:]
        else:
            # intersect the subspace with the affine hull, in an
            # orthonormal basis B of it: q0 is on the hull, up to
            # round-off, when they meet
            B = self._basis * self._size
            M = np.hstack([B0, -B])
            sol, *_ = np.linalg.lstsq(M, self._origin - p0, rcond=None)
            q0 = p0 + B0 @ sol[:m]
            if self._read(q0, eps_v)[2][0]:
                raise EmptyIntersection("subspace misses the affine hull")
            dirs = B0 @ _nullspace(M)[:m, :]
            qd, rd = np.linalg.qr(dirs)
            ranks = (np.abs(np.diag(rd)) > 1e-12 if rd.size
                     else np.array([], bool))
            W = qd[:, : int(np.sum(ranks))]
            if W.shape[1] < 1:
                raise EmptyIntersection("subspace meets the hull in a point")
            # the cut in the unit chart, along W's directions kept
            # orthonormal there, and its normals
            Wl = B.T @ W
            N = np.linalg.svd(Wl)[0][:, W.shape[1]:]
        if self.kind == "ellipsoid":
            return self._ellipsoid_section(q0, W)
        # the vertices come back in units of _size
        verts = self._section_vertices((q0 - self._origin) @ self._basis,
                                       Wl, N)
        try:
            section = build_polytope(verts * self._size, eps_v)
        except DegenerateInput:
            section = None
        if section is None or section.intrinsic_dim < W.shape[1]:
            raise EmptyIntersection("subspace misses the relative interior")
        return Section(domain=section, origin=q0, basis=W)

    def _section_vertices(self, c, Wl, N):
        """Vertices of the polytope's section by the local affine subspace
        L = {c + Wl r} (Wl orthonormal, n x k, and N its orthonormal
        normals, n x (n - k)), in the coordinates r.

        A point of the section is a vertex exactly when it is the single
        point of L ∩ aff(F) for the face F whose relative interior holds
        it, and such an F has dimension at most n - k.  So the vertices are
        the single points of L ∩ aff(F), over the faces F of dimension
        <= n - k, that lie in the polytope: in codimension 1, the vertices
        on L and the points where L crosses an edge, in closed form.
        Offsets from L within their round-off (_ROUND per unit of 1 + |c|)
        count as 0, so a cut through a vertex meets it exactly, and a face
        with a vertex on L, whose single point is that vertex, is skipped;
        the same floor bounds the rank, residual and slack tests.  Raises
        EmptyIntersection when every vertex found lies on one facet: the
        section is then in the boundary.
        """
        n, k = Wl.shape
        tol = _ROUND * (1.0 + float(np.abs(c).max()))
        g = (self._lv - c) @ N  # offsets of the vertices from L
        g[np.abs(g) <= tol] = 0.0
        on = np.all(g == 0.0, axis=1)
        points = [self._lv[on]]
        lattice = self.face_lattice()
        groups = {}  # (dim, vertex count) -> faces of dim 1..n-k
        for f in range(1, n - k + 1):
            for r in lattice._span.get(f, ()):
                idx = lattice._info[lattice._masks[r]][0]
                groups.setdefault((f, len(idx)), []).append(idx)
        for (f, _), idx in groups.items():
            idx = np.array(idx)
            g0 = g[idx[:, 0]]
            # aff(F) = {v0 + mu E}; its offsets from L are g0 + D mu
            D = np.swapaxes(g[idx[:, 1:]] - g0[:, None], 1, 2)
            if f == 1:  # an edge: mu = -(d.g0) / |d|^2 of its one column d
                dd = (D * D).sum(axis=1)
                single = dd[:, 0] > tol * tol
                mu = -(D[:, :, 0] * g0).sum(axis=1)[:, None]
                mu /= np.where(single[:, None], dd, 1.0)
            else:
                U, sv, Vt = np.linalg.svd(D, full_matrices=False)
                single = sv[:, f - 1] > tol  # aff(F) -> offsets is 1-1
                y = np.einsum("kci,kc->ki", U[:, :, :f], -g0)
                y /= np.where(single[:, None], sv[:, :f], 1.0)
                mu = np.einsum("kij,ki->kj", Vt[:, :f], y)
            resid = np.linalg.norm(np.einsum("kcj,kj->kc", D, mu) + g0, axis=1)
            E = self._lv[idx[:, 1:]] - self._lv[idx[:, :1]]
            u = self._lv[idx[:, 0]] + np.einsum("kj,kjn->kn", mu, E)
            inside = (self._b - u @ self._A.T).min(axis=1) >= -tol
            ok = single & (resid <= tol) & inside & ~on[idx].any(axis=1)
            points.append(u[ok])
        P = np.vstack(points)
        if len(P) and np.any(np.all(self._b - P @ self._A.T <= tol, axis=0)):
            raise EmptyIntersection("subspace meets only the boundary")
        # in codimension 2 and up a vertex on a face's boundary can come
        # from both, a few ulp apart, and the section's build merges those
        return (P - c) @ Wl

    def _ellipsoid_section(self, q0, W):
        """The ellipse cut by {q0 + W r}: in whitened coordinates, the
        points w0 + V r, of the point w0 of q0 (_read) and the directions V
        = W^T _M, inside the unit sphere."""
        V = W.T @ self._M
        w0 = self._read(q0)[3][0]
        Q, g = V @ V.T, V @ w0
        c0 = float(w0 @ w0) - 1.0
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
        return self.vertices[_initial_simplex(self._lv, eps_v)]

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
        return pts if k != 1 else pts[0]

    def sample_boundary(self, rng, k=1):
        out = np.empty((k, self.ambient_dim))
        for i in range(k):
            x = self.sample_interior(rng, 1, pull=0.3)
            du = rng.normal(size=self.intrinsic_dim)
            du /= np.linalg.norm(du)
            out[i] = self.ray(x, du @ self._frame.T).endpoint
        return out if k != 1 else out[0]

    # ------------------------------------------------------------------ misc

    def polygon_vertices_local(self):
        """Local vertices of a 2-dimensional polytope in cyclic order, and
        that order of the vertex indices: found on the first call and
        kept, as read-only arrays, like the face lattice."""
        if self.kind != "polytope" or self.intrinsic_dim != 2:
            raise Unsupported("cyclic vertex order needs a 2-dim polytope")
        if self._cycle is None:
            c = self._lv.mean(axis=0)
            order = np.argsort(np.arctan2(self._lv[:, 1] - c[1],
                                          self._lv[:, 0] - c[0]))
            lv = self._lv[order]
            lv.flags.writeable = order.flags.writeable = False
            self._cycle = lv, order
        return self._cycle

    def __repr__(self):
        if self.kind == "polytope":
            return (f"ConvexDomain(polytope, {len(self.vertices)} vertices, "
                    f"dim {self.intrinsic_dim} in R^{self.ambient_dim})")
        return f"ConvexDomain(ellipsoid, dim {self.ambient_dim})"


# -------------------------------------------------------------- constructors

def build_polytope(points, eps=None):
    """Open polytope from a point cloud, in one pass from points to facets.

    The points are taken to the unit chart: the origin at their centroid,
    divided by half their largest coordinate range, and rotated only when
    they span an affine subspace of lower dimension.  eps is a fraction of
    that size.  One lexicographic sort (_lex_keep) drops duplicate points
    (within eps) and orders the rest; the vertices are the extreme points
    among them, in that order.  Facets are the hull facets of the vertices
    in the unit chart, one per set of vertices within eps of a facet
    plane, sorted by that set: in the plane from the monotone chain, which
    reads the sort's order, and from dimension 3 from Quickhull.  The hull
    runs first, in the identity chart, and a width it measures (a
    polygon's least width, Quickhull's initial simplex) decides that the
    points span the space; only points that fall short of it take the SVD
    of _affine_chart, whose verdict stands.  The build stops there: the
    face lattice, every nonempty intersection of facets, is built by the
    first face_lattice() call (boundary faces, chord ends, sections,
    minimal cones and extreme lines make that call).  A cloud whose hull
    keeps no vertex of some facet at eps raises DegenerateInput.
    """
    eps_v = _eps(eps)
    P = _as_array(points, "points")
    if P.ndim != 2 or len(P) < 2:
        raise DegenerateInput("need at least two points in an array of rows")
    origin = P.mean(axis=0)
    size = 0.5 * float(np.ptp(P, axis=0).max()) or 1.0  # or all one point
    U = (P - origin) * (1.0 / size)
    keep = _lex_keep(U, eps_v)
    P, U = P[keep], U[keep]
    basis = np.eye(U.shape[1])
    lv = U @ basis
    # The SVD would find full rank: the centred points' least singular
    # value is at least half their least width, and the largest at most
    # 2 sqrt(n D), every coordinate lying within 2 of the others; so a
    # width above 2 flat leaves a margin of 2 on eps
    flat = 4.0 * max(eps_v, 1e-12) * math.sqrt(lv.size)
    try:
        full = _hull_facets(lv, eps_v, flat, _monotone_chain(
            lv, range(len(lv))) if lv.shape[1] == 2 else _quickhull(lv, flat))
    except DegenerateInput:
        full = None
        basis = _affine_chart(U, eps_v)[1]
        lv = U @ basis
    D, d = basis.shape
    if d == 0 or (d == 1 and D >= 2):
        raise DegenerateInput(
            "affine hull is a point or a segment in ambient dim >= 2")
    if d == 1:
        keep = np.sort([np.argmin(lv[:, 0]), np.argmax(lv[:, 0])])
        A = np.sign(lv[keep] - lv[keep[::-1]])  # +1 at the larger end
        b = A[:, 0] * lv[keep, 0]
        facet_sets = [frozenset([0]), frozenset([1])]
    else:
        keep, A, b, hull_sets = full or _hull_facets(lv, eps_v)
        if len(keep) <= d:
            # eps merged all but d or fewer of the vertices
            raise DegenerateInput(
                f"hull keeps {len(keep)} vertices in dimension {d}")
        renumber = {int(j): i for i, j in enumerate(keep)}
        facet_sets = [frozenset(renumber[j] for j in s) for s in hull_sets]
    return ConvexDomain(
        "polytope", vertices=P[keep], origin=origin, size=size, basis=basis,
        lv=lv[keep], A=A, b=b, facet_sets=facet_sets,
    )


def _face_lattice(dom):
    """The face lattice of a polytope domain, from its vertex-facet
    incidences (Kaibel & Pfetsch, Comput. Geom. 23, 2002).

    A face is a vertex bitset, and its facet mask is the AND of its
    vertices' facet masks.  A polygon's faces are read straight off the
    monotone chain's cycle, its facets: each edge covers its two ends, a
    face of one dimension less.  Any other polytope's come from the
    descent (_descend): going down from the facets, the own facets of a
    face F are its maximal intersections F & G with the facets G that
    miss F: an intersection H is maximal exactly when every facet through
    H but not F meets F in H alone, which counting the facets that give H
    decides.  That reaches every nonempty intersection of facets, and a
    face has one dimension more than its highest own facet.  Both fill
    the one FaceLattice structure.  Each face carries the supporting
    hyperplane that normalises the mean of its facets', all from one
    product.  Raises DegenerateInput if the 0-faces are not exactly the
    vertices.
    """
    V, A, b, facet_sets = dom.vertices, dom._A, dom._b, dom._facet_sets
    n, m = len(V), len(facet_sets)
    facet_masks = [sum(1 << v for v in F) for F in facet_sets]
    through = [[] for _ in range(n)]  # vertex -> the facets through it
    vf = [0] * n  # the same as a mask
    for j, F in enumerate(facet_sets):
        for v in F:
            through[v].append(j)
            vf[v] |= 1 << j
    known = {1 << v: ((v,), f) for v, f in enumerate(vf)}  # -> (idx, facets)
    if (dom.intrinsic_dim == 2 and all(len(F) == 2 for F in facet_sets)
            and all(f.bit_count() == 2 for f in vf)):
        # a polygon, from the chain's cycle: its faces are its vertices and
        # its edges, the facets, each covering its two ends
        kids = dict.fromkeys(known, ())
        for j, x in enumerate(facet_masks):
            lo, hi = sorted(facet_sets[j])
            known[x], kids[x] = ((lo, hi), 1 << j), (1 << lo, 1 << hi)
        dims = {x: x.bit_count() - 1 for x in kids}
    else:
        kids, dims = _descend(dom, facet_masks, through, vf, known)
    rows = sorted(kids, key=lambda x: known[x][0])  # in vertex-tuple order
    levels = [[] for _ in range(max(dims.values()) + 1)]
    for r, x in enumerate(rows):
        levels[dims[x]].append(r)
    if [rows[r] for r in levels[0]] != [1 << v for v in range(n)]:
        raise DegenerateInput("face lattice lost a vertex")
    # a face's supporting hyperplane is the normalised mean of its
    # facets', with the product's rows in vertex-tuple order: BLAS rounds
    # a row differently with its place in the stack, and that order keeps
    # the planes bitwise those of the closure lattice in tests/test_hull.py
    nbytes = (m + 7) // 8
    raw = b"".join(known[x][1].to_bytes(nbytes, "little") for x in rows)
    member = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(rows), -1),
                           axis=1, count=m, bitorder="little").astype(float)
    N, ob = (member @ A) @ dom._basis.T, member @ b
    nn = np.linalg.norm(N, axis=1)
    N /= nn[:, None]
    offsets = ob / nn + N @ dom._origin
    order = [r for level in levels for r in level]
    return FaceLattice(V, facet_masks,
                       [[rows[r] for r in level] for level in levels],
                       known, kids, N[order], offsets[order])


def _descend(dom, facet_masks, through, vf, known):
    """The Kaibel-Pfetsch descent of _face_lattice from the facets, given
    their vertex masks, the facets through each vertex as a list and as a
    mask, and known, each vertex mask's (indices, facet mask), which it
    fills in for every face: returns each face's own facets and its
    dimension, both keyed by its vertex mask."""
    def info(x):
        out = known.get(x)
        if out is None:
            idx = tuple(_bits(x))
            phi = -1
            for v in idx:
                phi &= vf[v]
            out = known[x] = (idx, phi)
        return out

    kids = {}  # vertex mask -> the vertex masks of the face's own facets
    todo = facet_masks[:]
    while todo:
        x = todo.pop()
        if x in kids:
            continue
        idx = info(x)[0]
        kids[x] = own = []
        # F less a vertex v is an own facet of F when some facet holds the
        # rest of F but not v; if each is one (a simplex, so at most as
        # many vertices as the dimension), F has no others
        if 1 < len(idx) <= dom.intrinsic_dim:
            for i, v in enumerate(idx):
                rest = -1
                for u in idx:
                    if u != v:
                        rest &= vf[u]
                if rest & ~vf[v]:
                    own.append(x ^ (1 << v))
                    if own[-1] not in known:
                        known[own[-1]] = (idx[:i] + idx[i + 1:], rest)
        if 2 < len(idx) != len(own):
            # F & G over the facets G that touch F; those through F give F
            hits = Counter(x & facet_masks[j]
                           for j in set().union(*[through[v] for v in idx]))
            through_f = hits.pop(x)
            kids[x] = own = [h for h, count in hits.items()
                             if info(h)[1].bit_count() - through_f == count]
        todo += own
    dims = {}
    for x in sorted(kids, key=int.bit_count):  # own facets come first
        own = kids[x]
        dims[x] = 1 + max(map(dims.__getitem__, own)) if own else 0
    return kids, dims


def build_ellipsoid(center, shape):
    """Open ellipsoid { p : (p-c)^T S^-1 (p-c) < 1 } with S positive
    definite: its least eigenvalue above 1e-12 of its largest."""
    c = _as_array(center, "center")
    S = _as_array(shape, "shape")
    if S.shape != (c.size, c.size):
        raise DegenerateInput("shape matrix size does not match the center")
    S = 0.5 * (S + S.T)
    w = np.linalg.eigvalsh(S)
    if w.min() <= 1e-12 * w.max():
        raise DegenerateInput("shape matrix must be positive definite")
    L = np.linalg.cholesky(S)
    return ConvexDomain(
        "ellipsoid", center=c, shape=S, chol=L, chol_inv=np.linalg.inv(L),
    )


def standard_simplex(n):
    """Open standard n-simplex, the positive part of the plane sum(x) = 1
    in R^(n+1)."""
    if n < 1:
        raise DimensionOutOfRange("simplex dimension must be >= 1")
    return build_polytope(np.eye(n + 1))


def minkowski_functional(K, v, eps=None):
    """Gauge of v, or of each row of v, with respect to a body K whose
    relative interior contains the origin: the smallest t > 0 with v in
    t*K.  Vectors outside the linear span of K (by more than eps of their
    length) get math.inf.

    The origin's slacks and each v's rates come from one pass,
    [0 - o; v] @ _M (_product), as a ray's do: on a polytope the gauge is
    the largest rate over slack, on an ellipsoid 1 / t_hi of the line
    from the origin along v (_ellipsoid_chords)."""
    eps_v = _eps(eps)
    v = _as_points(v, K.ambient_dim, "v")
    if not K.contains_interior(np.zeros(K.ambient_dim), eps_v):
        raise OriginNotInterior("the body does not contain the origin")
    Z = np.vstack([np.zeros(K.ambient_dim), v])
    S, R = K._product(Z, Z[:1], eps_v, ("origin", "origin"))
    if K.kind == "polytope":
        m = len(K._b)
        gauge = np.maximum.reduce(R[1:, :m] / S[0], axis=1)
        # each v's length off the affine hull, from its components along
        # _normals
        G = R[1:, m:] * K._size
        off = np.sqrt(np.add.reduce(G * G, axis=1))
        gauge[off > eps_v * np.linalg.norm(Z[1:], axis=1)] = np.inf
    else:
        gauge = 1.0 / K._ellipsoid_chords(R[0], R[1:])[1]
    return gauge if v.ndim > 1 else float(gauge[0])
