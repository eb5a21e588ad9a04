"""Domain construction, face structure, chords, joins, cones, sections."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from hilbertgeo import (
    build_ellipsoid,
    build_polytope,
    minkowski_functional,
    standard_simplex,
)
from hilbertgeo.errors import (
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

SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]


def square():
    return build_polytope(SQUARE)


def test_build_drops_interior_and_duplicate_points():
    dom = build_polytope(SQUARE + [[0, 0], [0.5, 0.5], [1, 1]])
    assert len(dom.vertices) == 4
    # vertices come out lexicographically sorted
    assert np.allclose(dom.vertices,
                       [[-1, -1], [-1, 1], [1, -1], [1, 1]])


def test_build_rejects_degenerate_input():
    with pytest.raises(DegenerateInput):
        build_polytope([[0, 0], [1, 1]])  # a segment in the plane
    with pytest.raises(DegenerateInput):
        build_polytope([[2, 3], [2, 3]])
    with pytest.raises(NonFinite):
        build_polytope([[0, 0], [1, np.nan], [0, 1]])


def test_square_face_lattice_counts():
    assert square().face_lattice().counts() == {0: 4, 1: 4}


def test_pyramid_face_lattice_counts():
    pyr = build_polytope([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                          [0.5, 0.5, 1]])
    assert pyr.face_lattice().counts() == {0: 5, 1: 8, 2: 5}


def test_simplex_is_embedded():
    s2 = standard_simplex(2)
    assert s2.ambient_dim == 3
    assert s2.intrinsic_dim == 2
    assert s2.contains_interior([1 / 3, 1 / 3, 1 / 3])
    assert not s2.contains_interior([1 / 3, 1 / 3, 1 / 3 + 0.1])


def test_boundary_face_of_square():
    dom = square()
    edge = dom.boundary_face_of([1.0, 0.3])
    assert edge.dim == 1
    corner = dom.boundary_face_of([1.0, 1.0])
    assert corner.dim == 0
    with pytest.raises(NotOnBoundary):
        dom.boundary_face_of([0.0, 0.0])
    with pytest.raises(NotOnBoundary):
        dom.boundary_face_of([2.0, 0.0])


def test_chord_ends_find_their_faces_at_large_scale():
    # A chord end's slacks carry about 2 ulp of the coordinates' size of
    # round-off: 2e-7 at 1e9, which the absolute 1e-9 read as a point
    # inside or outside the square.
    rng = np.random.default_rng(7)
    unit = square()
    for s in (1.0, 1e9, 1e12):
        dom = build_polytope(np.array(SQUARE) * s)
        for _ in range(100):
            x, y = rng.uniform(-0.8, 0.8, (2, 2))
            want = unit.chord_through(x, y)
            got = dom.chord_through(s * x, s * y)
            assert got.face_alpha.indices == want.face_alpha.indices
            assert got.face_beta.indices == want.face_beta.indices
            assert dom.on_boundary(got.alpha) and dom.on_boundary(got.beta)
            assert dom.in_relative_interior(got.face_alpha, got.alpha)
    # at desk scale the floor is far below eps: 1e-8 off an edge is off
    for p in ([1.0 + 1e-8, 0.3], [1.0 - 1e-8, 0.3]):
        with pytest.raises(NotOnBoundary):
            unit.boundary_face_of(p)
        assert not unit.on_boundary(p)


def close_pair_domains(rng):
    """A square, a 7-gon (also at 1e9), a tilted cube, clouds in R^3 and
    R^4, and the standard 2- and 3-simplices, embedded in R^3 and R^4."""
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, 7))
    heptagon = np.column_stack([np.cos(th), np.sin(th)]) + 0.3
    tilt = np.linalg.qr(rng.normal(size=(3, 3)))[0] @ np.diag([1.0, 0.6, 1.7])
    cube = np.array(list(itertools.product([0.0, 1.0], repeat=3))) @ tilt
    return [build_polytope(SQUARE), build_polytope(heptagon),
            build_polytope(heptagon * 1e9), build_polytope(cube + 1.0),
            build_polytope(rng.normal(size=(15, 3))),
            build_polytope(rng.normal(size=(20, 4))),
            standard_simplex(2), standard_simplex(3)]


def test_close_pair_chords_keep_the_faces_of_a_far_pair():
    """chord_through(x, x + h u) for h down to 1e-13 has the end faces of
    chord_through(x, x + u): each end's face is where the facets that bind
    it in the clipping meet, not a reading of an endpoint extrapolated
    1e13 times the pair's distance.  Each far pair's ends lie at least
    1e-3 of the size inside their facets."""
    rng = np.random.default_rng(17)
    for dom in close_pair_domains(rng):
        pairs = 0
        while pairs < 10:
            x, y = dom.sample_interior(rng, 2, pull=0.3)
            far = dom.chord_through(x, y)
            gaps = [np.sort(dom._b - dom.to_local(p) @ dom._A.T)[1]
                    for p in (far.alpha, far.beta)]
            if min(gaps) < 1e-3:
                continue
            pairs += 1
            for h in (1e-6, 1e-9, 1e-11, 1e-13):
                got = dom.chord_through(x, x + h * (y - x))
                assert got.face_alpha == far.face_alpha
                assert got.face_beta == far.face_beta
                assert got.face_alpha.dim == dom.intrinsic_dim - 1


def test_face_relative_interior_membership():
    dom = square()
    edge = dom.boundary_face_of([1.0, 0.3])
    assert dom.in_relative_interior(edge, [1.0, -0.7])
    assert not dom.in_relative_interior(edge, [1.0, 1.0])  # a subface
    assert not dom.in_relative_interior(edge, [0.0, 0.0])


def test_chord_endpoints_on_triangle():
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])
    ch = tri.chord_through([0.25, 0.25], [0.5, 0.25])
    assert np.allclose(ch.alpha, [0.0, 0.25], atol=1e-12)
    assert np.allclose(ch.beta, [0.75, 0.25], atol=1e-12)
    assert ch.face_alpha.dim == 1
    assert ch.t_alpha < 0.0 < 1.0 < ch.t_beta


def test_chord_rejects_bad_points():
    dom = square()
    with pytest.raises(CoincidentPoints):
        dom.chord_through([0.1, 0.1], [0.1, 0.1])
    with pytest.raises(PointNotInterior):
        dom.chord_through([1.0, 0.0], [0.0, 0.0])  # boundary start
    with pytest.raises(PointNotInterior):
        dom.chord_through([3.0, 0.0], [0.0, 0.0])


def _clip_line_by_facet(dom, u, du):
    """The per-facet loop _clip_line replaced, kept as its reference."""
    t_lo, t_hi = -np.inf, np.inf
    denom = dom._A @ du
    slack = dom._b - dom._A @ u
    for i in range(len(denom)):
        if abs(denom[i]) <= 1e-14 * np.abs(denom).max():
            continue  # parallel facet
        t = slack[i] / denom[i]
        if denom[i] > 0:
            t_hi = min(t_hi, t)
        else:
            t_lo = max(t_lo, t)
    return t_lo, t_hi


def test_clip_line_matches_per_facet_reference():
    rng = np.random.default_rng(31)
    doms = [square(), build_polytope(rng.normal(size=(12, 2))),
            build_polytope(rng.normal(size=(30, 3))), standard_simplex(3)]
    for dom in doms:
        for _ in range(50):
            u = dom.to_local(dom.sample_interior(rng, 1, pull=0.1))
            du = rng.normal(size=dom.intrinsic_dim)
            # along a facet: that facet's denominator is at round-off level
            facet = dom._A[rng.integers(len(dom._A))]
            along = du - (du @ facet) * facet
            s = dom._b - u @ dom._A.T  # the facet slacks at u
            for d in (du, along, 1e-9 * du, 1e-16 * du):
                assert (dom._clip_line(s, d @ dom._A.T)[:2]
                        == _clip_line_by_facet(dom, u, d))
        with pytest.raises(DegenerateInput, match="escapes"):
            dom._clip_line(s, (0.0 * du) @ dom._A.T)
    disk = build_ellipsoid([0, 0], np.eye(2))
    with pytest.raises(DegenerateInput, match="degenerate chord direction"):
        disk._clip_line(np.zeros(2), np.zeros(2))


def test_ellipsoid_chord_and_boundary_face():
    disk = build_ellipsoid([0, 0], np.eye(2))
    ch = disk.chord_through([0.0, 0.0], [0.5, 0.0])
    assert np.allclose(ch.alpha, [-1.0, 0.0])
    assert np.allclose(ch.beta, [1.0, 0.0])
    face = disk.boundary_face_of([1.0, 0.0])
    assert face.dim == 0
    assert np.allclose(face.normal, [1.0, 0.0])
    with pytest.raises(Unsupported):
        disk.face_lattice()


def test_opposite_faces_square():
    dom = square()
    lat = dom.face_lattice()
    left = dom.boundary_face_of([-1.0, 0.0])
    right = dom.boundary_face_of([1.0, 0.0])
    top = dom.boundary_face_of([0.0, 1.0])
    corner = dom.boundary_face_of([1.0, 1.0])
    assert dom.opposite_faces(left, right)
    assert dom.opposite_faces(left, top)  # meets through the interior
    assert not dom.opposite_faces(right, corner)  # share boundary
    assert lat.leq(corner, right)


def test_join_region_membership():
    dom = square()
    left = dom.boundary_face_of([-1.0, 0.0])
    right = dom.boundary_face_of([1.0, 0.0])
    join = dom.join_region(left, right)
    assert join([0.0, 0.0])
    assert join([0.9, -0.5])
    assert not join([1.0, 0.0])  # needs positive weight on both sides
    corner = dom.boundary_face_of([1.0, 1.0])
    with pytest.raises(NotOpposite):
        dom.join_region(right, corner)


def reference_join(Va, Vb, z, margin=1e-10):
    """The linear program JoinRegion solved before its hull: z is in the
    join iff convex weights on the vertices of both faces reproduce z with
    every weight above margin (maximise the smallest weight)."""
    ka, kb = len(Va), len(Vb)
    n = ka + kb
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_eq = np.zeros((z.size + 1, n + 1))
    A_eq[: z.size, :ka] = Va.T
    A_eq[: z.size, ka:n] = Vb.T
    A_eq[z.size, :n] = 1.0
    b_eq = np.concatenate([z, [1.0]])
    A_ub = np.zeros((n, n + 1))
    A_ub[:, :n] = -np.eye(n)
    A_ub[:, -1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
    return res.status == 0 and float(-res.fun) > margin


def test_join_region_matches_lp_reference():
    """On every opposite-face pair of polytopes of dimension 2 to 4,
    vertex-to-vertex segments included, the hull join and the LP agree:
    on a point with every vertex weight >= 1e-3 (inside), on one with a
    weight at 0 (inside or on the relative boundary), and on a point
    reflected through a vertex (outside)."""
    rng = np.random.default_rng(13)
    th = 2 * np.pi * np.arange(7) / 7
    domains = [square(), build_polytope(np.c_[np.cos(th), np.sin(th)]),
               build_polytope(list(itertools.product((-1.0, 1.0), repeat=3))),
               standard_simplex(3), standard_simplex(4)]
    seen = set()
    for dom in domains:
        faces = dom.face_lattice().faces
        for fa, fb in itertools.combinations(faces, 2):
            if not dom.opposite_faces(fa, fb):
                continue
            join = dom.join_region(fa, fb)
            V = np.vstack([fa.vertices, fb.vertices])
            n = len(V)
            w = 1e-3 + (1.0 - 1e-3 * n) * rng.dirichlet(np.ones(n))
            inside = w @ V
            w[rng.integers(n)] = 0.0
            Z = np.array([inside, w @ V / w.sum(),
                          2.0 * V[rng.integers(n)] - inside])
            got = [join(z) for z in Z]
            assert got == [reference_join(fa.vertices, fb.vertices, z)
                           for z in Z]
            assert got[0] and not got[2]
            seen.add((fa.dim, fb.dim, got[1]))
    # segments, and one-zero points on both sides of the boundary
    assert (0, 0, False) in seen
    assert {True, False} <= {g for _, _, g in seen}


def test_minimal_cone_matches_lp_reference_at_every_scale():
    """The slack rule of MinimalCone.contains agrees with the LP reference
    on the join of the apex and the base, on random polytopes in R^2..R^4
    built at scales 1e-9..1e12 and offsets up to 1e8 of their size.  The
    LP reads the unit-size points; the cone reads their images.  The test
    points are inside the cone (every weight >= 1e-3), interior points of
    the domain, and cone points pushed off by 1e-3 of the size."""
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(60):
        d = int(rng.integers(2, 5))
        U = rng.normal(size=(int(rng.integers(d + 2, d + 8)), d))
        s = 10.0 ** rng.uniform(-9, 12)
        tau = rng.uniform(-1, 1, d) * 10.0 ** rng.uniform(0, 8)
        unit, dom = build_polytope(U), build_polytope(s * (tau + U))
        e = unit.vertices[rng.integers(len(unit.vertices))]
        mc = unit.minimal_cone_at(e)
        near = np.linalg.norm(dom.vertices - s * (tau + e), axis=1)
        got = dom.minimal_cone_at(dom.vertices[np.argmin(near)])
        B = mc.base.vertices
        W = 1e-3 + (1 - 1e-3 * len(B)) * rng.dirichlet(np.ones(len(B)), 3)
        Z = list(e + rng.uniform(0.05, 0.95, (3, 1)) * (W @ B - e))
        Z += list(unit.sample_interior(rng, 3))
        Z += [z + 1e-3 * rng.normal(size=d) for z in Z[:3]]
        for z in Z:
            want = reference_join(e[None], B, z)
            assert mc.contains(z) == want
            assert got.contains(s * (tau + z)) == want
            seen.add(want)
    assert seen == {True, False}


def test_minimal_cone_square_corner_is_diagonal():
    dom = square()
    mc = dom.minimal_cone_at([-1.0, -1.0])
    assert mc.dim == 1
    assert mc.base.dim == 0
    assert np.allclose(mc.base.vertices, [[1.0, 1.0]])
    assert mc.contains([0.0, 0.0])
    assert not mc.contains([0.5, -0.5])


def test_minimal_cone_triangle_vertex_is_interior():
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])
    mc = tri.minimal_cone_at([0.0, 0.0])
    assert mc.dim == 2
    assert mc.contains([0.2, 0.3])


def test_minimal_cone_pyramid_apex_is_interior():
    pyr = build_polytope([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                          [0.5, 0.5, 1]])
    mc = pyr.minimal_cone_at([0.5, 0.5, 1.0])
    assert mc.dim == 3
    assert mc.base.dim == 2


def test_minimal_cone_relative_boundary_on_domain_boundary():
    pyr = build_polytope([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                          [0.5, 0.5, 1]])
    mc = pyr.minimal_cone_at([0.5, 0.5, 1.0])
    rng = np.random.default_rng(7)
    for p in mc.sample_relative_boundary(rng, 40):
        assert pyr.on_boundary(p, 1e-7)


def test_minimal_cone_rejects_non_vertex():
    with pytest.raises(DegenerateInput):
        square().minimal_cone_at([1.0, 0.0])  # edge midpoint


def test_cross_section_of_simplex_is_triangle():
    s3 = standard_simplex(3)
    point = np.array([1 / 6, 1 / 6, 1 / 6, 0.5])
    spans = np.array([[1, -1, 0, 0], [0, 1, -1, 0.0]])
    sec = s3.cross_section(point, spans)
    assert sec.domain.intrinsic_dim == 2
    assert len(sec.domain.vertices) == 3
    # chart roundtrip and containment in the original simplex
    for v in sec.domain.vertices:
        amb = sec.to_ambient(v)
        assert s3.hull_residual(amb) < 1e-9
        assert abs(amb[3] - 0.5) < 1e-9


def test_cross_section_of_the_simplex_and_of_its_chart_agree():
    """standard_simplex(3) lies in a hyperplane of R^4, so its cut is
    solved for in its affine hull; its chart in R^3, the vertices with the
    last coordinate dropped, is full-dimensional, so its cut is the
    subspace itself.  The same cuts give the same section vertices."""
    s4 = standard_simplex(3)
    s3 = build_polytope(np.eye(4)[:, :3])
    rng = np.random.default_rng(29)
    for k in (2, 3):
        for _ in range(15):
            point = s4.sample_interior(rng, 1, pull=0.3)
            spans = rng.normal(size=(k, 4))
            spans -= spans.mean(axis=1, keepdims=True)  # in the hull
            cuts = [dom.cross_section(p, S) for dom, p, S in (
                (s4, point, spans), (s3, point[:3], spans[:, :3]))]
            got, want = (sec.origin + sec.domain.vertices @ sec.basis.T
                         for sec in cuts)
            assert len(got) == len(want)
            gap = np.linalg.norm(got[:, None, :3] - want[None], axis=2)
            assert gap.min(axis=0).max() <= 1e-12
            assert gap.min(axis=1).max() <= 1e-12


def test_cross_section_misses():
    s3 = standard_simplex(3)
    spans = np.array([[1, -1, 0, 0], [0, 1, -1, 0.0]])
    with pytest.raises(EmptyIntersection):
        s3.cross_section([0.0, 0.0, 0.0, 2.0], spans)
    with pytest.raises(DimensionOutOfRange):
        s3.cross_section([1 / 6, 1 / 6, 1 / 6, 0.5], [[1, -1, 0, 0]])
    with pytest.raises(DegenerateInput):
        s3.cross_section([1 / 6, 1 / 6, 1 / 6, 0.5],
                         [[1, -1, 0, 0], [2, -2, 0, 0]])


def test_small_cross_section_keeps_its_vertices():
    # a tetrahedron 1e-6 wide cut by a plane through its centroid: two
    # section vertices lie 1.1e-9 apart, within the absolute eps, so
    # building the section at eps dropped both ends of an edge
    tetra = np.array([
        [-3.2068524724565835e-08, 2.2816696343353053e-07,
         -8.6665412875958965e-08],
        [9.1935211983026254e-07, 7.2096717149242322e-07,
         -2.6028330887578488e-07],
        [-4.9999623035717990e-08, 6.0056948378769147e-07,
         8.7210684640531388e-07],
        [-6.6954058124518527e-07, 1.3070586954669667e-06,
         -5.1764635784443261e-07]])
    point = np.array([4.1935847706198347e-08, 7.1419057854515294e-07,
                      1.8779417022843634e-09])
    spans = np.array([[-1.2510260040345835, 0.6498462267899727,
                       -1.2643708062125443],
                      [0.2443016868327459, -0.7019850658573934,
                       -0.2685188438636156]])
    dom = build_polytope(tetra)
    sec = dom.cross_section(point, spans)
    assert len(sec.domain.vertices) == 4
    assert all(len(F) == 2 for F in sec.domain._facet_sets)
    for u in sec.domain.vertices:
        assert dom.on_boundary(sec.to_ambient(u), 1e-15)


def test_cross_section_of_ellipsoid():
    ball = build_ellipsoid([0, 0, 0], np.eye(3))
    sec = ball.cross_section([0, 0, 0.5], [[1, 0, 0], [0, 1, 0.0]])
    assert sec.domain.kind == "ellipsoid"
    r = math.sqrt(1 - 0.25)
    assert np.allclose(sec.domain.shape, np.eye(2) * r * r, atol=1e-12)


def test_find_extreme_line():
    ch = square().find_extreme_line()
    assert ch.face_alpha.dim == 0 and ch.face_beta.dim == 0
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])
    assert tri.find_extreme_line() is None
    disk = build_ellipsoid([0, 0], np.eye(2))
    ch = disk.find_extreme_line()
    assert abs(np.linalg.norm(ch.alpha) - 1.0) < 1e-12
    assert np.allclose(ch.alpha + ch.beta, [0, 0], atol=1e-12)


def test_find_extreme_simplex():
    pent = build_polytope([[0, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 1]])
    pts = pent.find_extreme_simplex()
    assert pts.shape == (3, 2)
    cube = build_polytope([[sx, sy, sz] for sx in (0, 1)
                           for sy in (0, 1) for sz in (0, 1)])
    assert cube.find_extreme_simplex().shape == (4, 3)


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e6, 1e12])
def test_find_extreme_simplex_spans_with_distinct_vertices(scale):
    """n+1 distinct vertices, affinely independent, on a segment in R^1,
    random polygons, the cube and an embedded simplex, at every scale."""
    rng = np.random.default_rng(64)
    clouds = ([np.array([[0.0], [1.0], [0.3]]),
               np.array(list(itertools.product((0.0, 1.0), repeat=3))),
               np.eye(4)] + [rng.normal(size=(8, 2)) for _ in range(4)])
    for P in clouds:
        dom = build_polytope(scale * (P + rng.normal(size=P.shape[1])))
        n = dom.intrinsic_dim
        S = dom.find_extreme_simplex()
        assert S.shape == (n + 1, dom.ambient_dim)
        corners = {tuple(v) for v in S.tolist()}
        assert len(corners) == n + 1
        assert corners <= {tuple(v) for v in dom.vertices.tolist()}
        sv = np.linalg.svd((S[1:] - S[0]) / dom._size, compute_uv=False)
        assert sv[n - 1] > 1e-3


def test_ray_hits_boundary():
    dom = square()
    r = dom.ray([0.0, 0.0], [2.0, 0.0])
    assert np.allclose(r.endpoint, [1.0, 0.0])
    assert abs(r.length - 1.0) < 1e-12
    with pytest.raises(DegenerateInput):
        dom.ray([0.0, 0.0], [0.0, 0.0])
    s2 = standard_simplex(2)
    with pytest.raises(DegenerateInput):
        s2.ray([1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0])  # leaves the hull


def test_sampling():
    dom = square()
    rng = np.random.default_rng(3)
    pts = dom.sample_interior(rng, 50)
    assert all(dom.contains_interior(p, 1e-12) for p in pts)
    bnd = dom.sample_boundary(rng, 20)
    assert all(dom.on_boundary(p, 1e-7) for p in bnd)
    ball = build_ellipsoid([1.0, -2.0], [[4.0, 0.0], [0.0, 1.0]])
    pts = ball.sample_interior(rng, 50)
    assert all(ball.contains_interior(p, 1e-12) for p in pts)


def test_gauge_of_hexagon():
    hexagon = build_polytope([
        [2 / 3, -1 / 3, -1 / 3], [-1 / 3, 2 / 3, -1 / 3],
        [-1 / 3, -1 / 3, 2 / 3], [-2 / 3, 1 / 3, 1 / 3],
        [1 / 3, -2 / 3, 1 / 3], [1 / 3, 1 / 3, -2 / 3],
    ])
    assert abs(minkowski_functional(hexagon, [1.0, -1.0, 0.0]) - 2.0) < 1e-12
    # off the sum-zero span
    assert minkowski_functional(hexagon, [1.0, 1.0, 1.0]) == math.inf
    assert minkowski_functional(hexagon, [0.0, 0.0, 0.0]) == 0.0


def test_gauge_requires_interior_origin():
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])  # origin is a vertex
    with pytest.raises(OriginNotInterior):
        minkowski_functional(tri, [0.2, 0.2])


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=0.01, max_value=50.0),
       vx=st.floats(min_value=-3.0, max_value=3.0),
       vy=st.floats(min_value=-3.0, max_value=3.0))
def test_gauge_positive_homogeneity(t, vx, vy):
    dom = square()
    v = np.array([vx, vy])
    p = minkowski_functional(dom, v)
    pt = minkowski_functional(dom, t * v)
    assert abs(pt - t * p) <= 1e-9 * max(1.0, pt)


def test_gauge_unit_on_boundary():
    dom = square()
    rng = np.random.default_rng(11)
    for p in dom.sample_boundary(rng, 25):
        assert abs(minkowski_functional(dom, p) - 1.0) < 1e-9
