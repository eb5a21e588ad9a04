"""The hull-backed construction against brute-force and Qhull references,
and the face, cone and section counts it must reproduce."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
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
from hilbertgeo.convex import _affine_rank, _hull_facets, _lex_unique
from hilbertgeo.errors import DegenerateInput

TOL = 1e-9


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


def assert_matches_reference(P):
    dom = build_polytope(P)
    V = reference_vertices(P)
    assert np.array_equal(dom.vertices, V[np.lexsort(V.T[::-1])])
    ref = reference_facets(dom.vertices)
    keys = sorted(ref, key=lambda s: tuple(sorted(s)))
    assert dom._facet_sets == keys
    normals = (dom._basis @ dom._A.T).T  # ambient outward normals
    offsets = dom._b + normals @ dom._origin
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
    normals = (dom._basis @ dom._A.T).T
    offsets = dom._b + normals @ dom._origin
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
    kept = _lex_unique(pts, 1e-9)
    # 0.6e-9 is within tol of the kept 0; 1.2e-9 is not
    assert np.array_equal(kept, [[0.0, 0.0], [1.2e-9, 0.0], [5.0, 5.0]])


def reference_lex_unique(points, tol):
    """The cKDTree version of _lex_unique."""
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
            assert np.array_equal(_lex_unique(pts, TOL),
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
                    assert np.array_equal(_lex_unique(pts, TOL),
                                          reference_lex_unique(pts, TOL))


def qhull_triple(points):
    """Qhull's hull in the form of _monotone_chain's result."""
    hull = ConvexHull(points)
    return np.sort(hull.vertices), hull.simplices, hull.equations


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
                C = _lex_unique(C - C.mean(axis=0), TOL)
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


def test_facet_left_without_vertices_is_degenerate():
    # four points on a small arc: at the absolute tolerance the middle
    # points are flat, and so is every vertex of one hull edge
    arc = np.array([[-0.6455, 0.7662], [-0.7018, 0.7150],
                    [-0.7054, 0.7115], [-0.7639, 0.6482]]) * 1.93e-6
    with pytest.raises(DegenerateInput):
        build_polytope(arc)


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


def test_import_does_not_load_scipy():
    code = ("import sys, hilbertgeo; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(hilbertgeo.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
