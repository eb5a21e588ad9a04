"""The hull-backed construction against brute-force and Qhull references,
and the face, cone and section counts it must reproduce."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, cKDTree

import hilbertgeo
from hilbertgeo import (
    build_cone,
    build_polytope,
    cone_over,
    standard_simplex,
)
from hilbertgeo import convex
from hilbertgeo.convex import _hull_facets, _lex_keep, _rank
from hilbertgeo.errors import DegenerateInput, EmptyIntersection

TOL = 1e-9


def _affine_rank(points, tol):
    """The dimension of the points' affine hull: the number of singular
    values of their differences from the first above tol of the
    largest."""
    if len(points) <= 1:
        return 0
    return _rank(np.linalg.svd(points[1:] - points[0], compute_uv=False), tol)


def reference_vertices(P):
    """Rows of P that are not convex combinations of the other rows."""
    keep = []
    for i in range(len(P)):
        others = np.delete(P, i, axis=0)
        res = linprog(np.zeros(len(others)),
                      A_eq=np.vstack([others.T, np.ones(len(others))]),
                      b_eq=np.r_[P[i], 1.0], bounds=(0, None), method="highs")
        keep.append(res.status == 2)  # infeasible: P[i] is extreme
    return P[np.array(keep)]


def reference_facets(V):
    """Supporting hyperplanes through every affinely independent d-subset
    of the vertices V, as {equality set: (unit outward normal, offset)}."""
    m, d = V.shape
    found = {}
    for T in itertools.combinations(range(m), d):
        diffs = V[list(T[1:])] - V[T[0]]
        u, s, vt = np.linalg.svd(diffs)
        if s[-1] <= TOL * max(1.0, s[0]):
            continue
        normal = vt[-1]
        r = V @ normal - V[T[0]] @ normal
        if r.max() > TOL and r.min() < -TOL:
            continue
        if r.max() > TOL:
            normal, r = -normal, -r
        eq = frozenset(np.nonzero(np.abs(r) <= TOL)[0].tolist())
        found.setdefault(eq, (normal, float(np.mean(V[list(T)] @ normal))))
    return found


def random_polygon(rng):
    m = int(rng.integers(3, 13))
    th = np.sort(rng.uniform(0.0, 2 * np.pi, m))
    V = np.c_[rng.uniform(1.0, 2.0) * np.cos(th), np.sin(th)]
    junk = rng.dirichlet(np.ones(m), size=int(rng.integers(0, 5))) @ V
    return np.vstack([V, 0.5 * junk + 0.5 * V.mean(axis=0)])


def ambient_facets(dom):
    """The unit outward normals and offsets of the facets, in ambient
    coordinates: A's rows are unit normals in the unit chart."""
    normals = dom._A @ (dom._basis * dom._size).T
    return normals, dom._b * dom._size + normals @ dom._origin


def assert_matches_reference(P):
    dom = build_polytope(P)
    V = reference_vertices(P)
    assert np.array_equal(dom.vertices, V[np.lexsort(V.T[::-1])])
    ref = reference_facets(dom.vertices)
    keys = sorted(ref, key=lambda s: tuple(sorted(s)))
    assert dom._facet_sets == keys
    normals, offsets = ambient_facets(dom)
    assert np.allclose(normals, [ref[k][0] for k in keys], atol=1e-9)
    assert np.allclose(offsets, [ref[k][1] for k in keys], atol=1e-9)


def test_polygons_match_brute_force_reference():
    rng = np.random.default_rng(20)
    for _ in range(40):
        assert_matches_reference(random_polygon(rng))


def test_3d_clouds_match_brute_force_reference():
    rng = np.random.default_rng(21)
    for _ in range(40):
        assert_matches_reference(rng.normal(size=(int(rng.integers(5, 13)), 3)))


def f_vector(P):
    return build_polytope(P).face_lattice().counts()


CUBE = np.array(list(itertools.product((0.0, 1.0), repeat=3)))


def test_cube_with_junk_points():
    junk = [[0.5, 0.5, 0.5], [0.5, 0.5, 0.0], [1.0, 0.5, 0.5], [0.5, 0.0, 0.0]]
    dom = build_polytope(np.vstack([CUBE, junk]))
    assert np.array_equal(dom.vertices, CUBE)
    assert dom.face_lattice().counts() == {0: 8, 1: 12, 2: 6}


def test_points_within_tolerance_outside_the_hull_are_not_vertices():
    # Qhull makes each of these a hull vertex; within 1e-9 of an edge or a
    # facet it is not extreme at the shared tolerance
    # and the facets run through the kept vertices, not the dropped point
    square = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    for off in (1e-12, 1e-10):
        dom = build_polytope(np.vstack([square, [0.5, 1 + off]]))
        assert dom.face_lattice().counts() == {0: 4, 1: 4}
        assert_facets_exact(dom)
    for extra in ([0.5, 0.5, 1 + 1e-10], [0.5, 1 + 1e-10, 1 + 1e-10],
                  [0.5, 0.5, 1 + 1e-12], [0.5, 1 + 1e-12, 1 + 1e-12]):
        dom = build_polytope(np.vstack([CUBE, extra]))
        assert np.array_equal(dom.vertices, CUBE)
        assert dom.face_lattice().counts() == {0: 8, 1: 12, 2: 6}
        assert_facets_exact(dom)


def assert_facets_exact(dom):
    """A, b equal the reference planes through the kept vertices."""
    ref = reference_facets(dom.vertices)
    keys = sorted(ref, key=lambda s: tuple(sorted(s)))
    assert dom._facet_sets == keys
    normals, offsets = ambient_facets(dom)
    assert np.allclose(normals, [ref[k][0] for k in keys], rtol=0, atol=1e-14)
    assert np.allclose(offsets, [ref[k][1] for k in keys], rtol=0, atol=1e-14)


def test_octahedron():
    octa = np.vstack([np.eye(3), -np.eye(3)])
    assert f_vector(octa) == {0: 6, 1: 12, 2: 8}


def test_square_pyramid_groups_the_split_base():
    pyr = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                    [0.5, 0.5, 1.0]])
    assert len(ConvexHull(pyr).simplices) == 6  # the base comes as two
    dom = build_polytope(pyr)
    assert dom.face_lattice().counts() == {0: 5, 1: 8, 2: 5}
    assert sorted(len(s) for s in dom._facet_sets) == [3, 3, 3, 3, 4]


def test_segment():
    dom = build_polytope([[0.0], [2.0], [1.0], [0.5]])
    assert np.array_equal(dom.vertices, [[0.0], [2.0]])
    assert dom.face_lattice().counts() == {0: 2}
    assert dom._facet_sets == [frozenset({0}), frozenset({1})]


def test_large_polygon_and_cloud():
    th = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
    gon = build_polytope(np.c_[np.cos(th), np.sin(th)])
    assert gon.face_lattice().counts() == {0: 200, 1: 200}
    u = np.random.default_rng(22).normal(size=(200, 3))
    ball = build_polytope(u / np.linalg.norm(u, axis=1, keepdims=True))
    f = ball.face_lattice().counts()
    assert f[0] == 200
    assert f[0] - f[1] + f[2] == 2


def test_flat_input_is_degenerate():
    with pytest.raises(DegenerateInput):
        build_polytope([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
    with pytest.raises(DegenerateInput):  # the monotone chain's own check
        _hull_facets(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), TOL)


def test_coplanar_3d_cloud_builds_an_embedded_polygon():
    square = np.array([[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
                       [0.5, 0.5, 1.0]], dtype=float)
    dom = build_polytope(square)
    assert (dom.intrinsic_dim, dom.ambient_dim) == (2, 3)
    assert dom.face_lattice().counts() == {0: 4, 1: 4}


def test_lex_unique_keeps_the_first_of_each_cluster():
    pts = np.array([[1.2e-9, 0.0], [0.0, 0.0], [0.6e-9, 0.0], [5.0, 5.0]])
    kept = pts[_lex_keep(pts, 1e-9)]
    # 0.6e-9 is within tol of the kept 0; 1.2e-9 is not
    assert np.array_equal(kept, [[0.0, 0.0], [1.2e-9, 0.0], [5.0, 5.0]])


def reference_lex_unique(points, tol):
    """The cKDTree version of points[_lex_keep(points, tol)]."""
    pts = points[np.lexsort(points.T[::-1])]
    pairs = cKDTree(pts).query_pairs(tol, output_type="ndarray")
    keep = np.ones(len(pts), dtype=bool)
    for i, j in pairs[np.lexsort(pairs.T)]:
        if keep[i]:
            keep[j] = False
    return pts[keep]


def test_lex_unique_matches_kdtree_reference():
    rng = np.random.default_rng(24)
    for d in (1, 2, 3, 4):
        for spread in (0.3, 0.7, 1.0, 3.0):
            # clusters whose points sit about spread * tol apart
            centres = rng.normal(size=(int(rng.integers(1, 15)), d))
            pts = np.repeat(centres, rng.integers(1, 6, len(centres)), axis=0)
            pts = pts + spread * TOL * rng.uniform(-1, 1, pts.shape)
            assert np.array_equal(pts[_lex_keep(pts, TOL)],
                                  reference_lex_unique(pts, TOL))
            # grids with spacing at, below and above tol, shifted and
            # jittered, and one column of equal first coordinates
            n = 6 if d < 4 else 4
            grid = np.stack(np.meshgrid(*[np.arange(n)] * d), -1).reshape(-1, d)
            for step in (0.5 * TOL, TOL, 1.5 * TOL):
                for pts in (grid * step, grid * step + 0.1,
                            grid * step + 0.2 * step * rng.normal(size=grid.shape),
                            np.c_[np.zeros(40), rng.uniform(0, 5 * TOL, (40, d - 1))]):
                    pts = pts[rng.permutation(len(pts))]
                    assert np.array_equal(pts[_lex_keep(pts, TOL)],
                                          reference_lex_unique(pts, TOL))


def qhull_triple(points):
    """Qhull's hull in the form of _monotone_chain's result."""
    hull = ConvexHull(points)
    return np.sort(hull.vertices), hull.simplices, hull.equations


def reference_monotone_chain(points):
    """_monotone_chain with its sort, de-duplication, width and edge
    equations in numpy, the form it replaced."""
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

    ring = half(order)[:-1] + half(order[::-1])[:-1]
    if len(ring) < 3:
        raise DegenerateInput("points are collinear")
    R = points[ring]
    d = np.roll(R, -1, axis=0) - R
    n = np.column_stack([d[:, 1], -d[:, 0]])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    eq = np.column_stack([n, -np.sum(n * R, axis=1)])
    return np.sort(ring), np.column_stack([ring, np.roll(ring, -1)]), eq


def chain_or_degenerate(chain, points):
    try:
        return chain(points)
    except DegenerateInput:
        return None


def test_plane_hull_is_its_numpy_form_bit_for_bit():
    """The monotone chain on Python floats gives the numpy form's arrays
    byte for byte, the sign of a zero offset included: on clouds with
    repeated points, collinear runs and zero coordinates, at scales
    1e-9 to 1e12."""
    rng = np.random.default_rng(31)
    zeros = 0
    for scale in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):
        for _ in range(60):
            m = int(rng.integers(3, 20))
            P = rng.normal(size=(m, 2))
            kind = int(rng.integers(4))
            if kind == 0:  # repeated points
                P = np.vstack([P, P[rng.integers(m, size=m // 2 + 1)]])
            elif kind == 1:  # a collinear run through two points and past them
                a, b = P[0], P[1]
                t = np.r_[0.0, 1.0, rng.uniform(-1.0, 2.0, 6)]
                P = np.vstack([P, a + t[:, None] * (b - a)])
            elif kind == 2:  # zero coordinates of both signs
                P = np.round(P)
                P[rng.random(P.shape) < 0.4] = 0.0
                P[rng.random(P.shape) < 0.3] *= -1.0
            else:  # an axis-parallel grid: collinear runs everywhere
                P = rng.integers(-2, 3, size=(m, 2)).astype(float)
            P = P[rng.permutation(len(P))] * scale
            got = chain_or_degenerate(convex._monotone_chain, P)
            want = chain_or_degenerate(reference_monotone_chain, P)
            if want is None:
                assert got is None
                continue
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
            zeros += int(np.sum(want[2][:, 2] == 0.0))
    assert zeros > 50  # zero offsets, where their sign can differ


def hull_or_degenerate(points):
    try:
        return _hull_facets(points, TOL)
    except DegenerateInput:
        return None


def test_plane_hull_matches_qhull_reference(monkeypatch):
    """The monotone chain and Qhull give _hull_facets the same facets, on
    deduplicated points as build_polytope passes them.  (Of two raw points
    within round-off of each other, the one Qhull keeps as a vertex
    depends on its insertion order.)"""
    rng = np.random.default_rng(25)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
        for _ in range(30):
            m = int(rng.integers(3, 13))
            th = np.sort(rng.uniform(0.0, 2 * np.pi, m))
            V = np.c_[rng.uniform(1.0, 2.0) * np.cos(th), np.sin(th)] * scale
            junk = rng.dirichlet(np.ones(m), size=int(rng.integers(0, 5))) @ V
            P = np.vstack([V, 0.5 * junk + 0.5 * V.mean(axis=0)])
            k = int(rng.integers(m))
            q, r = V[k], V[(k + 1) % m]
            out = np.array([r[1] - q[1], q[0] - r[0]])
            out /= np.linalg.norm(out)
            on_edge = q + rng.uniform(0.1, 0.9) * (r - q)
            cases = [P] + [np.vstack([P, on_edge + off * out])
                           for off in (1e-12, 1e-10, 1e-8)]
            cases.append(np.vstack([P, q + 1e-13 * rng.normal(size=2)]))
            for C in cases:
                C = C - C.mean(axis=0)
                C = C[_lex_keep(C, TOL)]
                got = hull_or_degenerate(C)
                with monkeypatch.context() as mp:
                    mp.setattr(convex, "_monotone_chain", qhull_triple)
                    ref = hull_or_degenerate(C)
                if ref is None:  # a tiny polygon, flat at the absolute tol
                    assert got is None
                    continue
                verts, A, b, sets = got
                ref_verts, ref_A, ref_b, ref_sets = ref
                assert np.array_equal(verts, ref_verts)
                assert sets == ref_sets
                assert np.abs(A - ref_A).max() <= 1e-14
                assert np.abs(b - ref_b).max() <= 1e-14 * np.abs(C).max()


def test_simplex_facets_match_qhull_reference(monkeypatch):
    """Quickhull's facets of a d-simplex give _hull_facets what Qhull
    gives it, on jittered, rotated, shifted regular simplices in
    dimensions 3-5 at scales 1e-6..1e9."""
    rng = np.random.default_rng(27)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
        for d in (3, 4, 5):
            E = np.vstack([np.eye(d), np.full(d, (1 - np.sqrt(d + 1)) / d)])
            for _ in range(20):
                Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
                P = ((E + 0.2 * rng.normal(size=E.shape)) @ Q
                     + rng.uniform(-2.0, 2.0, size=d)) * scale
                verts, A, b, sets = _hull_facets(P, TOL)
                with monkeypatch.context() as mp:
                    mp.setattr(convex, "_quickhull", qhull_triple)
                    ref_verts, ref_A, ref_b, ref_sets = _hull_facets(P, TOL)
                assert np.array_equal(verts, ref_verts)
                assert sets == ref_sets
                assert np.abs(A - ref_A).max() <= 1e-14
                assert np.abs(b - ref_b).max() <= 1e-14 * np.abs(P).max()


def test_simplex_facets_omit_one_vertex_each():
    V = np.vstack([np.zeros(3), np.eye(3)])
    idx, simplices, eq = convex._quickhull(V)
    assert np.array_equal(idx, np.arange(4))
    omitted = [sorted(set(range(4)) - set(row)) for row in simplices]
    assert sorted(omitted) == [[0], [1], [2], [3]]
    # the facet omitting the origin is x + y + z = 1, outward
    assert np.allclose(eq[omitted.index([0])],
                       np.r_[np.ones(3), -1.0] / np.sqrt(3))
    # each plane runs through its facet's vertices, with the omitted
    # vertex on the inner side
    heights = V @ eq[:, :-1].T + eq[:, -1]
    for k, ((far,), row) in enumerate(zip(omitted, simplices)):
        assert np.abs(heights[row, k]).max() <= 1e-15
        assert heights[far, k] < -0.5
    with pytest.raises(DegenerateInput):
        convex._quickhull(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0],
                                    [0, 1, 0]]))


def null_vector(rows, d):
    """A rational vector of d coordinates orthogonal to every row (lists
    of Fractions) of a set of rank d - 1, by reduced row echelon form."""
    rows = [list(row) for row in rows]
    pivots = []
    for j in range(d):
        k = next((i for i in range(len(pivots), len(rows)) if rows[i][j] != 0),
                 None)
        if k is None:
            continue
        r = len(pivots)
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                rows[i] = [a - rows[i][j] * b for a, b in zip(rows[i],
                                                             rows[r])]
        pivots.append(j)
    assert len(pivots) == d - 1
    free = next(j for j in range(d) if j not in pivots)
    n = [Fraction(0)] * d
    n[free] = Fraction(1)
    for r, j in enumerate(pivots):
        n[j] = -rows[r][free]
    return n


def exact_plane(P):
    """The unit outward normal and offset of the hyperplane through the d
    rows of P (exact rational arithmetic, then 40 digits), oriented by
    outward, a vector pointing out of the hull."""
    F = [[Fraction(float(x)) for x in row] for row in P]
    d = len(F)
    n = null_vector([[a - b for a, b in zip(row, F[0])] for row in F[1:]], d)
    with mpmath.workdps(40):
        v = [mpmath.mpf(x.numerator) / x.denominator for x in n]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in v))
        unit = np.array([float(x / norm) for x in v])
        b = float(mpmath.fsum(x / norm * (mpmath.mpf(p.numerator)
                                          / p.denominator)
                              for x, p in zip(v, F[0])))
    return unit, b


def hull_inputs(rng):
    """Named point sets for the hull references: random clouds in R^3 to
    R^5, points on a sphere, cubes with points on faces and edges (some
    under an affine map), cross-polytopes, bipyramids, and points just
    outside a cube's faces and edges."""
    cases = []
    for d, count, most in ((3, 10, 60), (4, 10, 60), (5, 5, 30)):
        cases += [(f"cloud{d}", rng.normal(size=(int(rng.integers(d + 2, most)),
                                                  d)))
                  for _ in range(count)]
    for _ in range(2):
        u = rng.normal(size=(200, 3))
        cases.append(("sphere", u / np.linalg.norm(u, axis=1, keepdims=True)))
    for d in (3, 4):
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        for k in range(8):
            extra = rng.uniform(size=(int(rng.integers(2, 10)), d))
            for p in extra:  # onto a face of dimension 0 .. d - 1
                fix = rng.choice(d, size=int(rng.integers(1, d + 1)),
                                 replace=False)
                p[fix] = rng.integers(0, 2, size=len(fix))
            P = np.vstack([corners, extra])
            if k % 2:
                P = P @ rng.normal(size=(d, d)) + rng.normal(size=d)
            cases.append((f"cube{d}", P[rng.permutation(len(P))]))
    for d in (3, 4, 5):
        cross = np.vstack([np.eye(d), -np.eye(d)])
        cases += [(f"cross{d}", cross),
                  (f"cross{d}", cross @ np.linalg.qr(rng.normal(size=(d, d)))[0])]
    for m in (3, 5, 8, 16, 32):
        th = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        cases.append(("bipyramid", np.vstack([
            np.c_[np.cos(th), np.sin(th), np.zeros(m)],
            [[0.0, 0.0, 1.1], [0.0, 0.0, -0.9]]])))
    for extra in ([0.5, 0.5, 1 + 1e-10], [0.5, 1 + 1e-10, 1 + 1e-10],
                  [0.5, 0.5, 1 + 1e-12], [0.5, 1 + 1e-12, 1 + 1e-12]):
        cases.append(("cube+", np.vstack([CUBE, extra])))
    cases += [("octahedron", np.vstack([np.eye(3), -np.eye(3)])),
              ("pyramid", np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0],
                                    [0, 1, 0], [0.5, 0.5, 1.0]]))]
    return cases


def test_numpy_hull_matches_qhull_reference(monkeypatch):
    """Quickhull and Qhull give _hull_facets the same vertices and facet
    sets, on deduplicated, centred points as build_polytope passes them,
    and A, b within 1e-14 of the size.  Where they differ by more, Qhull's
    plane is the one off (by up to about 6e-14 on the thin facets of the
    bipyramids, and in R^5): the numpy plane then equals the exact plane
    through the facet's vertices within an ulp or two."""
    rng = np.random.default_rng(29)
    off_qhull = 0
    for name, P in hull_inputs(rng):
        P = P - P.mean(axis=0)
        P = P[_lex_keep(P, TOL)]
        verts, A, b, sets = _hull_facets(P, TOL)
        with monkeypatch.context() as mp:
            mp.setattr(convex, "_quickhull", qhull_triple)
            ref_verts, ref_A, ref_b, ref_sets = _hull_facets(P, TOL)
        assert np.array_equal(verts, ref_verts), name
        assert sets == ref_sets, name
        size = np.abs(P).max()
        for i, key in enumerate(sets):
            if (np.abs(A[i] - ref_A[i]).max() <= 1e-14
                    and abs(b[i] - ref_b[i]) <= 1e-14 * size):
                continue
            off_qhull += 1
            assert len(key) == P.shape[1], name
            n, c = exact_plane(P[sorted(key)])
            if n @ A[i] < 0:
                n, c = -n, -c
            assert np.abs(A[i] - n).max() <= 4e-16, name
            assert abs(b[i] - c) <= 4e-16 * size, name
    assert off_qhull <= 10


def test_numpy_hull_planes_are_exact():
    """Each facet plane is within an ulp or two of the exact plane through
    its vertices, in R^3 to R^5 and at scales 1e-6 to 1e12."""
    rng = np.random.default_rng(30)
    for scale in (1e-6, 1.0, 1e12):
        for d in (3, 4, 5):
            P = rng.normal(size=(12, d)) * scale
            verts, simplices, eq = convex._quickhull(P)
            inside = P.mean(axis=0)
            for row, (simplex, e) in enumerate(zip(simplices, eq)):
                if row % 3:
                    continue  # a third of the facets keeps the test quick
                n, c = exact_plane(P[simplex])
                if n @ inside > c:
                    n, c = -n, -c
                assert np.abs(e[:-1] - n).max() <= 4e-16
                assert abs(e[-1] + c) <= 4e-16 * scale


def test_numpy_hull_of_flat_points_is_degenerate():
    rng = np.random.default_rng(31)
    flat = [np.zeros((6, 3)),
            np.c_[rng.normal(size=(9, 2)), np.zeros(9)],
            rng.normal(size=(9, 3)) @ rng.normal(size=(3, 4)),
            np.outer(rng.normal(size=7), [1.0, 2.0, 3.0])]
    for P in flat:
        with pytest.raises(DegenerateInput):
            convex._quickhull(P)
        with pytest.raises(DegenerateInput):
            _hull_facets(P, TOL)


def test_numpy_hull_drops_points_within_round_off_of_a_facet():
    # points on the faces and edges of a cube, at scales where the
    # absolute tolerance is far below round-off, are never beyond a facet
    # plane: when one is a hull vertex, it is flat
    rng = np.random.default_rng(32)
    faces = [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], [2, 3, 6, 7],
             [0, 2, 4, 6], [1, 3, 5, 7]]
    for scale in (1e9, 1e12):
        for _ in range(20):
            V = (CUBE @ rng.normal(size=(3, 3)) + rng.normal(size=3)) * scale
            on = [rng.dirichlet(np.ones(4)) @ V[faces[rng.integers(6)]]
                  for _ in range(6)]
            P = np.vstack([V, on])
            P -= P.mean(axis=0)
            verts, simplices, eq = convex._quickhull(P)
            width = 5 * np.finfo(float).eps * np.abs(P).max()
            assert np.all(P @ eq[:, :-1].T + eq[:, -1] <= width)
            assert set(range(8)) <= set(verts.tolist())


def test_general_build_cone_matches_qhull_reference(monkeypatch):
    rng = np.random.default_rng(33)
    for d in (3, 4):
        for _ in range(10):
            G = rng.normal(size=(int(rng.integers(d + 1, 16)), d))
            G[:, 0] = np.abs(G[:, 0]) + 1.0  # a pointed cone about e_1
            cone = build_cone(G)
            with monkeypatch.context() as mp:
                mp.setattr(convex, "_quickhull", qhull_triple)
                ref = build_cone(G)
            assert cone_facet_sets(cone) == cone_facet_sets(ref)
            size = np.abs(ref.functionals).max(axis=1, keepdims=True)
            assert np.all(np.abs(cone.functionals - ref.functionals)
                          <= 1e-13 * size)


def close_under_intersection(facet_sets):
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


class ReferenceLattice:
    """FaceLattice as a sorted list of eagerly made faces, its order
    answered by set inclusion."""

    def __init__(self, faces):
        self.faces = sorted(faces, key=lambda f: (f.dim, f.indices))
        self.sets = [frozenset(f.indices) for f in self.faces]

    def __len__(self):
        return len(self.faces)

    def of_dim(self, k):
        return [f for f in self.faces if f.dim == k]

    def counts(self):
        out = {}
        for f in self.faces:
            out[f.dim] = out.get(f.dim, 0) + 1
        return out

    def inclusions(self):
        """The matrix of f <= g over pairs of positions (f, g)."""
        inc = np.zeros((len(self.faces), 1 + max(map(max, self.sets))))
        for r, s in enumerate(self.sets):
            inc[r, list(s)] = 1.0
        return inc @ (1.0 - inc.T) == 0.0


def reference_lattice(dom):
    """The face lattice as build_polytope built it eagerly before it was
    deferred to face_lattice(), by the closure of the facets under
    intersection: the same steps, from the domain's facets."""
    V, A, b, facet_sets = dom.vertices, dom._A, dom._b, dom._facet_sets
    incident = {}
    for i, E in enumerate(facet_sets):
        for v in E:
            incident.setdefault(v, set()).add(i)
    face_idx = sorted(tuple(sorted(S))
                      for S in close_under_intersection(facet_sets))
    fids = [frozenset(set.intersection(*(incident[v] for v in idx)))
            for idx in face_idx]
    member = np.zeros((len(face_idx), len(facet_sets)))
    for r, F in enumerate(fids):
        member[r, list(F)] = 1.0
    N, ob = (member @ A) @ dom._basis.T, member @ b
    nn = np.linalg.norm(N, axis=1)
    N /= nn[:, None]
    offsets = ob / nn + N @ dom._origin
    dims = {}
    through = {}
    for idx in sorted(face_idx, key=len):
        S = frozenset(idx)
        sub = [dims[G] for v in idx for G in through.get(v, ()) if G < S]
        dims[S] = 1 + max(sub) if sub else 0
        for v in idx:
            through.setdefault(v, []).append(S)
    return ReferenceLattice([
        convex.Face(indices=idx, dim=dims[frozenset(idx)], point_key=None,
                    vertices=V[list(idx)], normal=N[r],
                    offset=float(offsets[r]), facet_ids=fids[r])
        for r, idx in enumerate(face_idx)])


def lattice_inputs(rng):
    """Every kind of polytope this file builds."""
    cube4 = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    u = rng.normal(size=(60, 3))
    clouds = [random_polygon(rng) for _ in range(10)]
    clouds += [rng.normal(size=(int(rng.integers(5, 13)), 3))
               for _ in range(10)]
    clouds += [P for _, P in hull_inputs(rng)]
    clouds += [np.vstack([CUBE, [[0.5, 0.5, 0.5], [0.5, 0.5, 0.0]]]),
               u / np.linalg.norm(u, axis=1)[:, None], cube4,
               np.vstack([np.eye(4), -np.eye(4)]), np.eye(4), np.eye(5),
               [[0.0], [2.0], [1.0], [0.5]],
               [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1], [0.5, 0.5, 1.0]],
               CUBE * 1e-6, CUBE * 1e9, np.vstack([np.eye(3), -np.eye(3)])]
    return clouds


def test_lazy_lattice_equals_the_eager_reference():
    """Every FaceLattice method answers as the eager closure lattice does,
    face for face, with the same hyperplanes bit for bit."""
    rng = np.random.default_rng(34)
    th = 2 * np.pi * np.arange(64) / 64
    u = np.random.default_rng(22).normal(size=(200, 3))  # the README's
    # an affine cube at 1e9, whose square facets the hull groups from its
    # triangles
    M = np.random.default_rng(0).normal(size=(4, 3))
    clouds = lattice_inputs(rng) + [
        np.c_[np.cos(th), np.sin(th)], rng.normal(size=(40, 3)),
        u / np.linalg.norm(u, axis=1, keepdims=True),
        (CUBE @ M[:3] + M[3]) * 1e9]
    for P in clouds:
        dom = build_polytope(P)
        assert dom._lattice is None
        got, want = dom.face_lattice(), reference_lattice(dom)
        assert dom.face_lattice() is got
        assert len(got) == len(want)
        assert list(got.counts().items()) == list(want.counts().items())
        faces = list(got)
        assert faces == got.faces and len(faces) == len(want.faces)
        for f, g in zip(faces, want.faces):
            assert (f.indices, f.dim, f.facet_ids, f.offset) == \
                (g.indices, g.dim, g.facet_ids, g.offset)
            assert f.mask == sum(1 << i for i in f.indices)
            assert f.vertices.tobytes() == g.vertices.tobytes()
            assert f.normal.tobytes() == g.normal.tobytes()
            assert got.find(f.indices) is f
            assert got.find(list(f.indices)) is f
        for k in range(-1, dom.intrinsic_dim + 1):
            assert ([f.indices for f in got.of_dim(k)]
                    == [f.indices for f in want.of_dim(k)])
        assert got.find(()) is None
        assert got.find(range(len(dom.vertices))) is None
        leq = want.inclusions()
        for j, f in enumerate(faces):
            below = np.flatnonzero(leq[:, j]).tolist()
            assert got.subfaces(f, proper=False) == [faces[i] for i in below]
            assert got.subfaces(f) == [faces[i] for i in below if i != j]
        pairs = itertools.product(range(len(faces)), repeat=2)
        if len(faces) > 40:
            pairs = rng.integers(len(faces), size=(1600, 2)).tolist()
        for i, j in pairs:
            assert got.leq(faces[i], faces[j]) == leq[i, j]


def reference_build(points, eps=TOL):
    """What build_polytope stores, the way it took the chart before the
    one-pass build: the SVD of _affine_chart first, then the hull in that
    chart, with the chain's own sort.  Raises DegenerateInput."""
    P = np.asarray(points, dtype=float)
    origin = P.mean(axis=0)
    size = 0.5 * float(np.ptp(P, axis=0).max()) or 1.0
    U = (P - origin) * (1.0 / size)
    keep = _lex_keep(U, eps)
    P, U = P[keep], U[keep]
    basis = convex._affine_chart(U, eps)[1]
    d = basis.shape[1]
    if d < 2:
        raise DegenerateInput("affine hull is a point or a segment")
    lv = U @ basis
    keep, A, b, sets = _hull_facets(lv, eps)
    if len(keep) <= d:
        raise DegenerateInput("hull keeps too few vertices")
    renumber = {int(j): i for i, j in enumerate(keep)}
    return (P[keep], origin, basis * (1.0 / size), lv[keep], A, b, size,
            [frozenset(renumber[j] for j in s) for s in sets])


def stored(dom):
    return (dom.vertices, dom._origin, dom._basis, dom._lv, dom._A, dom._b,
            dom._size, dom._facet_sets)


def assert_same_build(got, want):
    for g, w in zip(got[:6], want[:6]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert got[6:] == want[6:]


def assert_one_pass_build_matches(P, eps=TOL):
    """build_polytope stores what the chart-first build stores, bit for
    bit, or both raise DegenerateInput; returns the domain or None."""
    try:
        want = reference_build(P, eps)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            build_polytope(P, eps)
        return None
    dom = build_polytope(P, eps)
    assert_same_build(stored(dom), want)
    return dom


def assert_lattice_matches_reference(dom):
    """The domain's lattice is the closure lattice, face for face, with
    the same hyperplanes bit for bit and the same order."""
    got, want = dom.face_lattice(), reference_lattice(dom)
    assert list(got.counts().items()) == list(want.counts().items())
    faces = got.faces
    for f, g in zip(faces, want.faces):
        assert (f.indices, f.dim, f.facet_ids, f.offset) == \
            (g.indices, g.dim, g.facet_ids, g.offset)
        assert f.normal.tobytes() == g.normal.tobytes()
    leq = want.inclusions()
    for j, f in enumerate(faces):
        below = np.flatnonzero(leq[:, j]).tolist()
        assert got.subfaces(f) == [faces[i] for i in below if i != j]


def messy_polygon(rng, m, extras, scale, shuffle=True):
    """A random convex m-gon, affinely distorted, with interior junk,
    exact repeats, near-duplicates within eps of the unit chart and
    points within a few ulp of an edge, at scale: in random order, or the
    vertices in order around the polygon, from any one, either way, and
    the extras after them."""
    th = np.sort(rng.uniform(0.0, 2 * np.pi, m))
    V = (np.c_[np.cos(th), np.sin(th)] @ (np.eye(2) + 0.3 * rng.normal(
        size=(2, 2))) + rng.uniform(-3.0, 3.0, 2)) * scale
    P = [V]
    for kind in extras:
        Q = np.vstack(P)
        size = 0.5 * np.ptp(Q, axis=0).max()
        if kind == "junk":
            P.append(rng.dirichlet(np.ones(m), size=2) @ V)
        elif kind == "repeat":
            P.append(Q[rng.integers(len(Q))][None])
        elif kind == "near":
            u = rng.normal(size=2)
            P.append(V[rng.integers(m)] + rng.uniform(0.1, 0.9) * TOL
                     * size * u / np.linalg.norm(u))
        else:  # a point on an edge, moved a few ulp off it
            k = int(rng.integers(m))
            q, r = V[k], V[(k + 1) % m]
            x = q + rng.uniform(0.1, 0.9) * (r - q)
            n = np.array([r[1] - q[1], q[0] - r[0]])
            P.append(x + rng.integers(-4, 5) * np.spacing(np.abs(x).max())
                     * n / np.linalg.norm(n))
    P = np.vstack(P)
    if not shuffle:
        ring = np.roll(np.arange(m), rng.integers(m))[::rng.choice([1, -1])]
        return np.vstack([V[ring], P[m:]])
    return P[rng.permutation(len(P))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 16),
       exponent=st.integers(-9, 12),
       extras=st.lists(st.sampled_from(["junk", "repeat", "near", "edge"]),
                       max_size=6),
       shuffle=st.booleans())
def test_one_pass_polygon_builds_match_the_chart_first_build(
        seed, m, exponent, extras, shuffle):
    """Polygons with junk, repeats, near-duplicates and points a few ulp
    off an edge, at scales 1e-9..1e12, shuffled or with the vertices in
    order around the polygon: the one-pass build (one sort, the chart
    read off the chain's widths) stores the vertices, A, b and facet sets
    of the chart-first build bit for bit, and the lattice read off the
    cycle is the closure lattice, planes included."""
    P = messy_polygon(np.random.default_rng(seed), m, extras,
                      10.0 ** exponent, shuffle)
    dom = assert_one_pass_build_matches(P)
    if dom is not None:
        assert_lattice_matches_reference(dom)


def rotated(rng, P):
    P = np.asarray(P, dtype=float)
    Q = np.linalg.qr(rng.normal(size=(P.shape[1], P.shape[1])))[0]
    return P @ Q + rng.uniform(-2.0, 2.0, P.shape[1])


def test_slivers_keep_their_verdict():
    """Rectangles, triangles, lenses, boxes and tetrahedra whose width is
    from 1e-11 to 1e-5 of their length, so straddling eps, rotated and at
    scales 1e-9..1e12: the one-pass build keeps the chart-first build's
    verdict, DegenerateInput or the same polytope."""
    rng = np.random.default_rng(43)
    th = np.linspace(0.0, 2 * np.pi, 9)[:-1]
    verdicts = []
    for w in (1e-11, 3e-10, 5e-10, 9e-10, 1e-9, 1.1e-9, 2e-9, 5e-9, 1e-8,
              1e-7, 1e-5):
        shapes = [
            [[-1, -w], [1, -w], [1, w], [-1, w]],
            [[-1, 0], [1, 0], [0.3, 2 * w]],
            np.c_[np.cos(th), w * np.sin(th)],
            CUBE * [2.0, 1.0, w],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, w]],
        ]
        for P in shapes:
            for scale in (1e-9, 1.0, 1e12):
                dom = assert_one_pass_build_matches(rotated(rng, P) * scale)
                verdicts.append(dom is None)
    assert any(verdicts) and not all(verdicts)


def test_distances_chords_and_cones_leave_the_lattice_unbuilt():
    for P in (CUBE, [[0, 0], [2, 0], [2, 1], [0, 1]],
              np.vstack([np.eye(4), -np.eye(4)])):
        dom = build_polytope(P)
        c = dom.centroid()
        v = dom.vertices[0]
        hilbertgeo.distance(dom, c, 0.5 * (c + v))
        dom.chord_params(c, 0.5 * (c + v))
        dom.ray(c, v - c)
        cone_over(dom)
        if dom.intrinsic_dim == 2:
            hilbertgeo.hilbert_ball(dom, c, 0.5)
        assert dom._lattice is None
        assert dom.boundary_face_of(v).indices == (0,)
        assert dom._lattice is dom.face_lattice()


def cone_facet_sets(cone):
    """For each functional, the generators on which it vanishes."""
    R = cone.functionals @ cone.generators.T
    return [frozenset(np.nonzero(np.abs(r) <= TOL * np.abs(r).max())[0]
                      .tolist()) for r in R]


def exact_functional(G, key):
    """The functional vanishing on the generators G[key], scaled to 1 at
    the centroid of G: a null vector in exact rational arithmetic, then
    rounded once."""
    F = [[Fraction(float(x)) for x in row] for row in G]
    n = null_vector([F[i] for i in key], len(F[0]))
    at_center = sum(a * sum(col) for a, col in zip(n, zip(*F))) / len(F)
    return np.array([float(a / at_center) for a in n])


def test_cone_over_matches_build_cone_reference(monkeypatch):
    """cone_over reads a lifted cone's facets off the domain's facets,
    and an unlifted cone is build_cone's over the domain's vertices; a
    Qhull build_cone on the same generators gives the same facets, and
    functionals equal to 1e-14 of their size.  Where a row differs by
    more, Qhull's is the one off: the row then equals the exact null
    vector of its facet's generators within 4e-15 of its size (polygon 17
    of this draw, whose row is 1.07e-14 from Qhull's and 3.2e-15 from the
    exact one, where Qhull's is 7.5e-15 from it)."""
    rng = np.random.default_rng(28)
    clouds = [random_polygon(rng) for _ in range(20)]
    clouds += [CUBE] + [rng.normal(size=(int(rng.integers(5, 20)), 3))
                        for _ in range(10)]
    # polygons in the plane z = 1 generate their cones unlifted
    for _ in range(5):
        Q = random_polygon(rng)
        clouds.append(np.c_[Q, np.ones(len(Q))])
    domains = [build_polytope(P) for P in clouds]
    domains += [standard_simplex(n) for n in (2, 3, 4)]
    off_qhull = 0
    for dom in domains:
        cone = cone_over(dom)
        assert cone.lifted == (dom.intrinsic_dim == dom.ambient_dim)
        with monkeypatch.context() as mp:
            mp.setattr(convex, "_quickhull", qhull_triple)
            ref = build_cone(cone.generators)
        sets, ref_sets = cone_facet_sets(cone), cone_facet_sets(ref)
        assert sets == ref_sets
        assert sets == [frozenset(F) for F in dom._facet_sets]
        for row, ref_row, key in zip(cone.functionals, ref.functionals,
                                     sets):
            size = np.abs(ref_row).max()
            if np.abs(row - ref_row).max() <= 1e-14 * size:
                continue
            off_qhull += 1
            exact = exact_functional(cone.generators, sorted(key))
            assert np.abs(row - exact).max() <= 4e-15 * np.abs(exact).max()
    assert off_qhull <= 2


def test_facet_left_without_vertices_is_degenerate():
    # four points on a small arc: at eps 9e-3 of the size the middle
    # points are flat, and so is every vertex of one hull edge, at every
    # scale (9e-3 is what an absolute 1e-9 was to this arc at 1.93e-6)
    arc = np.array([[-0.6455, 0.7662], [-0.7018, 0.7150],
                    [-0.7054, 0.7115], [-0.7639, 0.6482]])
    for scale in (1.93e-6, 1.0, 1e9):
        with pytest.raises(DegenerateInput, match="keeps no vertex"):
            build_polytope(arc * scale, 9e-3)


def test_polygon_merged_to_a_segment_is_degenerate():
    # a quadrilateral about 3e-8 of its length thick: eps merges all but
    # two of its vertices, which do not make a polygon, at every scale
    quad = np.array([[-0.9227, 1.0544e-8], [-0.8768, 1.0613e-8],
                     [0.8424, 3.3969e-8], [0.9667, 1.3958e-8]])
    for scale in (1e-9, 1.0, 1e12):
        with pytest.raises(DegenerateInput, match="keeps 2 vertices"):
            build_polytope(quad * scale)


def reference_hull_facets(points, tol):
    """_hull_facets with its general pass on every input: equality sets,
    vertices dropped where their facets share another, refits."""
    if points.shape[1] == 2:
        hull_verts, simplices, eq = convex._monotone_chain(points)
    else:
        hull_verts, simplices, eq = convex._quickhull(points)
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


def test_simplicial_hulls_skip_the_grouping_pass():
    """_hull_facets returns what the general pass returns, bit for bit,
    whether or not the hull is simplicial: on every lattice input, at
    scales from 1e-7 to 1e12, in the chart build_polytope takes."""
    rng = np.random.default_rng(35)
    simplicial = grouped = 0
    for P in lattice_inputs(rng):
        for scale in (1e-7, 1.0, 1e12):
            Q = np.asarray(P, dtype=float) * scale
            Q = Q[_lex_keep(Q, TOL)]
            origin, basis = convex._affine_chart(Q, TOL)
            if basis.shape[1] < 2:
                continue
            lv = (Q - origin) @ basis
            try:
                want = reference_hull_facets(lv, TOL)
            except DegenerateInput:
                with pytest.raises(DegenerateInput):
                    _hull_facets(lv, TOL)
                continue
            got = _hull_facets(lv, TOL)
            for g, w in zip(got[:3], want[:3]):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert got[3] == want[3]
            if all(len(k) == lv.shape[1] for k in want[3]):
                simplicial += 1
            else:
                grouped += 1
    assert simplicial and grouped


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 4), count=st.integers(5, 40),
       seed=st.integers(0, 2**32 - 1))
def test_random_lattices_are_polytopal(d, count, seed):
    """On random clouds, the f-vector obeys Euler-Poincare, every face's
    dimension is the affine rank of its vertices, and the facet test of
    opposite faces agrees with the midpoint test at unit scale."""
    dom = build_polytope(np.random.default_rng(seed).normal(size=(count, d)))
    lattice = dom.face_lattice()
    euler = sum((-1) ** k * f for k, f in lattice.counts().items())
    assert euler == 1 - (-1) ** d
    faces = list(lattice)
    for f in faces:
        assert f.dim == _affine_rank(f.vertices, TOL)
    C = np.array([f.centroid() for f in faces])
    for i, f in enumerate(faces):
        midpoint = dom.contains_interior(0.5 * (C[i] + C))
        assert [dom.opposite_faces(f, g) for g in faces] == midpoint.tolist()


def test_face_dimensions_match_affine_rank():
    rng = np.random.default_rng(26)
    u = rng.normal(size=(60, 3))
    clouds = [random_polygon(rng) for _ in range(10)]
    clouds += [rng.normal(size=(12, 3)), u / np.linalg.norm(u, axis=1)[:, None],
               CUBE, np.vstack([np.eye(4), -np.eye(4)]), np.eye(5)]
    for P in clouds:
        for f in build_polytope(P).face_lattice():
            assert f.dim == _affine_rank(f.vertices, TOL)


def test_cone_facet_counts():
    assert len(cone_over(standard_simplex(2)).functionals) == 3  # orthant
    square = build_polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    assert len(cone_over(square).functionals) == 4
    # a generator inside a facet of the orthant adds no facet
    cone = build_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert len(cone.functionals) == 3
    assert np.all(cone.functionals @ cone.generators.T >= -1e-12)


def test_sections_through_vertices():
    octa = build_polytope(np.vstack([np.eye(3), -np.eye(3)]))
    # z = 0 passes through four vertices, each on four facets
    sec = octa.cross_section([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    assert len(sec.domain.vertices) == 4
    cube = build_polytope(CUBE)
    hexagon = cube.cross_section([0.5, 0.5, 0.5], [[1, -1, 0], [0, 1, -1]])
    assert hexagon.domain.face_lattice().counts() == {0: 6, 1: 6}


def reference_section(dom, point, spans, eps=TOL):
    """Ambient vertices of a polytope's cross-section the way the LP path
    found them: a Chebyshev-margin LP, then Qhull's halfspace
    intersection seen from the LP's centre (an interval in 1-D)."""
    from scipy.spatial import HalfspaceIntersection, QhullError

    from hilbertgeo.convex import _nullspace

    p0 = np.asarray(point, float)
    S = np.atleast_2d(np.asarray(spans, float))
    B0 = np.linalg.qr(S.T)[0][:, : len(S)]
    m = B0.shape[1]
    B = dom._basis * dom._size  # an orthonormal basis of the affine hull
    M = np.hstack([B0, -B])
    sol = np.linalg.lstsq(M, dom._origin - p0, rcond=None)[0]
    q0 = p0 + B0 @ sol[:m]
    qd, rd = np.linalg.qr(B0 @ _nullspace(M)[:m, :])
    W = qd[:, : int(np.sum(np.abs(np.diag(rd)) > 1e-12))]
    G = dom._A @ (B.T @ W)
    h = (dom._b - dom._A @ ((q0 - dom._origin) @ dom._basis)) * dom._size
    norms = np.linalg.norm(G, axis=1)
    flat = norms <= 1e-12
    if np.any(h[flat] < -eps):
        raise EmptyIntersection("section plane is outside a facet")
    G, h, norms = G[~flat], h[~flat], norms[~flat]
    mr = G.shape[1]
    res = linprog(np.r_[np.zeros(mr), -1.0],
                  A_ub=np.hstack([G, norms[:, None]]), b_ub=h,
                  bounds=[(None, None)] * mr + [(None, 1e6)], method="highs")
    if res.status != 0 or -res.fun <= eps:
        raise EmptyIntersection("subspace misses the relative interior")
    if mr == 1:
        t = h / G[:, 0]
        verts = np.array([[t[G[:, 0] < 0].max()], [t[G[:, 0] > 0].min()]])
    else:
        try:
            verts = HalfspaceIntersection(np.hstack([G, -h[:, None]]),
                                          res.x[:mr]).intersections
        except QhullError:
            raise DegenerateInput("Qhull's halfspace intersection failed") \
                from None
    sec = build_polytope(verts[_lex_keep(verts, 1e-9)], eps)
    return q0 + sec.vertices @ W.T


def library_section(dom, point, spans):
    sec = dom.cross_section(point, spans)
    return sec.origin + sec.domain.vertices @ sec.basis.T


def section_or_error(dom, point, spans, cut):
    try:
        return cut(dom, point, spans)
    except (EmptyIntersection, DegenerateInput) as exc:
        return type(exc)


def set_gap(A, B):
    """Largest distance from a row of either array to the other array."""
    gap = np.linalg.norm(A[:, None] - B[None], axis=2)
    return max(gap.min(axis=0).max(), gap.min(axis=1).max())


def assert_section_matches_reference(P, point, spans):
    """Same outcome as the LP path: the same error, or the same vertices
    within 1e-12 of the polytope's size.  Where Qhull's halfspace
    intersection fails on a plane in R^3 that the LP accepts, the
    vertices must lie on the boundary within that bound, or, if the
    section is empty, the polytope's vertices on one side of the plane."""
    dom = build_polytope(P)
    size = float(np.abs(dom.vertices).max())
    got = section_or_error(dom, point, spans, library_section)
    want = section_or_error(dom, point, spans, reference_section)
    if want is DegenerateInput:
        assert dom.ambient_dim == 3
        if got is EmptyIntersection:
            n = np.cross(*np.asarray(spans, float))
            g = (dom.vertices - point) @ (n / np.linalg.norm(n))
            assert min(g.max(), -g.min()) <= 1e-12 * size
        else:
            assert np.all(np.abs([dom.min_slack(v) for v in got])
                          <= 1e-12 * size)
        return "qhull"
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return "error"
    assert got.shape == want.shape
    assert set_gap(got, want) <= 1e-12 * size
    return "vertices"


def test_codimension_one_sections_match_lp_reference():
    rng = np.random.default_rng(11)
    outcomes = []
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e9):
        for _ in range(4):
            cube = CUBE @ rng.normal(size=(3, 3)) + rng.normal(size=3)
            cloud = rng.normal(size=(int(rng.integers(8, 40)), 3))
            for P in (cube, cloud):
                c = P.mean(axis=0)
                point = c + 0.2 * rng.normal(size=3)
                outcomes.append(assert_section_matches_reference(
                    P * scale, point * scale, rng.normal(size=(2, 3))))
            # the 3-simplex spanning a hyperplane of R^4
            P = np.eye(4) + rng.uniform(0.0, 0.2, 4)
            spans = rng.normal(size=(2, 4))
            spans -= spans.mean(axis=1, keepdims=True)
            outcomes.append(assert_section_matches_reference(
                P * scale, P.mean(axis=0) * scale, spans))
    assert outcomes.count("vertices") >= 50


def test_sections_through_vertices_and_edges_match_lp_reference():
    rng = np.random.default_rng(12)
    octa = np.vstack([np.eye(3), -np.eye(3)])
    # at 1e9 the LP path's absolute margin 1e-9 is below round-off, so it
    # finds slivers where these planes only touch: see the scale test
    for P in (CUBE, octa, CUBE * 1e-6, octa * 1e-6):
        V = P[rng.permutation(len(P))]
        for k in range(len(P)):
            v, w = V[k], V[(k + 1) % len(V)]
            # planes through a vertex, and through the segment vw
            assert_section_matches_reference(P, v, rng.normal(size=(2, 3)))
            assert_section_matches_reference(
                P, 0.5 * (v + w), [w - v, rng.normal(size=3)])
    # planes of vertices, edges and the hexagon through edge midpoints
    for point, spans in [([0, 0, 0], [[1, 0, 0], [0, 1, 1]]),
                         ([0.5, 0.5, 0.5], [[1, -1, 0], [0, 1, -1]]),
                         ([1, 0, 0], [[0, 1, 0], [-1, 0, 1]])]:
        assert assert_section_matches_reference(CUBE, point, spans) \
            == "vertices"
    assert assert_section_matches_reference(
        octa, [0, 0, 0], [[1, 0, 0], [0, 1, 0]]) == "vertices"


def test_sections_through_vertices_and_edges_scale_with_the_polytope():
    rng = np.random.default_rng(14)
    octa = np.vstack([np.eye(3), -np.eye(3)])
    for P in (CUBE, octa):
        for _ in range(3 * len(P)):
            v, w = P[rng.integers(len(P))], P[rng.integers(len(P))]
            point = 0.5 * (v + w) if rng.uniform() < 0.5 else v
            spans = [w - v if np.any(w != v) else rng.normal(size=3),
                     rng.normal(size=3)]
            unit = section_or_error(build_polytope(P), point, spans,
                                    library_section)
            for scale in (1e-6, 1e9):
                got = section_or_error(build_polytope(P * scale),
                                       point * scale, spans, library_section)
                if isinstance(unit, type):
                    assert got is unit
                else:
                    assert got.shape == unit.shape
                    assert set_gap(got / scale, unit) <= 1e-12


def test_codimension_two_sections_match_lp_reference():
    rng = np.random.default_rng(13)
    cube4 = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    cross4 = np.vstack([np.eye(4), -np.eye(4)])
    outcomes = []
    for P in (cube4, cross4):
        for scale in (1e-3, 1.0, 1e6):
            for _ in range(5):
                outcomes.append(assert_section_matches_reference(
                    P * scale, 0.3 * rng.normal(size=4) * scale,
                    rng.normal(size=(2, 4))))
    # 2-planes of a coordinate face, and through a vertex of the 4-cube
    outcomes.append(assert_section_matches_reference(
        cube4, [0, 0, 0.5, -0.5], [[1, 0, 0, 0], [0, 1, 0, 0]]))
    outcomes.append(assert_section_matches_reference(
        cube4, [0, 0, 0, 0], [[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert outcomes.count("vertices") >= 25


def test_sections_that_miss_raise_as_the_lp_reference():
    cube4 = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
    misses = [
        (CUBE, [2, 2, 2], [[1, 0, 0], [0, 1, 0]]),  # far away
        (CUBE, [0, 0, 0], [[1, -1, 0], [0, 1, -1]]),  # a vertex only
        (CUBE, [0, 0, 0], [[1, 0, 0], [0, 1, -1]]),  # an edge only
        (CUBE * 1e9, [0, 0, 0], [[1, 0, 0], [0, 1, -1]]),
        (CUBE * 1e-6, [0, 0, 0], [[1, -1, 0], [0, 1, -1]]),
        (cube4, [0, 0, -1, -1], [[1, 0, 0, 0], [0, 1, 0, 0]]),
        (cube4, [0, 0, 0, 0], [[1, -1, 0, 0], [0, 0, 1, -1]]),  # a vertex
    ]
    for P, point, spans in misses:
        assert assert_section_matches_reference(P, point, spans) == "error"
        with pytest.raises(EmptyIntersection):
            build_polytope(P).cross_section(point, spans)
    # a plane inside a facet meets only the boundary; the LP path, which
    # dropped the facets parallel to the cut, returned the face it spans
    facet_planes = [(CUBE, [0, 0, 0], [[1, 0, 0], [0, 1, 0]]),
                    (cube4, [0, 0, 1, 0], [[1, 0, 0, 0], [0, 1, 0, 0]])]
    for P, point, spans in facet_planes:
        assert len(reference_section(build_polytope(P), point, spans)) == 4
        with pytest.raises(EmptyIntersection):
            build_polytope(P).cross_section(point, spans)


def test_import_does_not_load_scipy():
    code = ("import sys, hilbertgeo; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(hilbertgeo.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_build_decide_path_does_not_load_scipy():
    """Building polytopes of dimension 2 to 4 (a cloud, a cube, the 4-D
    cross-polytope), their lattices, faces, sections, cones, chords,
    distances, join regions and minimal-cone membership, a general
    build_cone and a plane classification load no scipy module."""
    code = ("import sys\n"
            "import itertools\n"
            "import numpy as np\n"
            "import hilbertgeo as hg\n"
            "rng = np.random.default_rng(0)\n"
            "cube = list(itertools.product((-1.0, 1.0), repeat=3))\n"
            "cross4 = np.vstack([np.eye(4), -np.eye(4)])\n"
            "for P in (rng.normal(size=(24, 3)), cube, cross4):\n"
            "    dom = hg.build_polytope(P)\n"
            "    c = dom.centroid()\n"
            "    d = dom.ambient_dim\n"
            "    dom.cross_section(c, rng.normal(size=(2, d)))\n"
            "    hg.cone_over(dom)\n"
            "    v = dom.vertices[0]\n"
            "    hg.is_rigid_chord(dom, c + 0.5 * (v - c), c)\n"
            "    mc = dom.minimal_cone_at(v)\n"
            "    assert mc.contains(0.5 * (v + mc.base.centroid()))\n"
            "    join = dom.join_region(mc.apex_face, mc.base)\n"
            "    assert not join(2.0 * v - c)\n"
            "    hg.distance(dom, c, c + 0.5 * (v - c))\n"
            "cone = hg.build_cone(np.vstack([cube, [[0.5, 0.5, 2.0]]])"
            " + [0.0, 0.0, 3.0])\n"
            "hg.cone_distance(cone, [0.0, 0.0, 3.0], [0.1, 0.2, 3.0])\n"
            "sq = hg.build_polytope([[0, 0], [1, 0], [1, 1], [0, 1]])\n"
            "quad = hg.build_polytope([[0, 0], [3, 0], [2.5, 2], "
            "[-0.5, 1.5]])\n"
            "assert hg.classify_2d(sq, quad, rng).verdict == "
            "'projectively-equivalent'\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(hilbertgeo.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
