"""Domain construction, face structure, chords, joins, cones, sections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    GeometryError,
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
        if abs(denom[i]) <= 1e-14 * max(1.0, np.linalg.norm(du)):
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
            for d in (du, along, 1e-9 * du):
                assert dom._clip_line(u, d) == _clip_line_by_facet(dom, u, d)
        with pytest.raises(GeometryError, match="escapes"):
            dom._clip_line(u, 1e-16 * du)


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
