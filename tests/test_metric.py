"""Distance values, cross-ratio identities, rigidity, boundary profiles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeo import (
    asymptotic_profile,
    build_cone,
    build_ellipsoid,
    build_polytope,
    cone_distance,
    cone_over,
    cross_ratio,
    distance,
    distances,
    focusing_probe,
    gromov_product,
    hilbert_ball,
    is_rigid_chord,
    standard_simplex,
)
from hilbertgeo.convex import ConvexDomain, _nullspace
from hilbertgeo.errors import (
    DegenerateDenominator,
    DegenerateInput,
    ImageEscapedDomain,
    NonFinite,
    NotCollinear,
    NotOnBoundary,
    PointNotInterior,
)
from hilbertgeo.metric import _deviation_direction
from hilbertgeo.suites import run_rigidity

SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
PENTAGON = [[math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)]
            for k in range(5)]
CUBE = np.array([[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
                 for sz in (-1.0, 1.0)])
# irregular, listed in counterclockwise order
OCTAGON = [[1.0, 0.1], [0.8, 0.7], [0.2, 1.1], [-0.5, 0.9], [-1.1, 0.3],
           [-0.9, -0.6], [-0.2, -1.0], [0.6, -0.8]]


def square():
    return build_polytope(SQUARE)


def test_cross_ratio_known_values():
    assert abs(cross_ratio([0.0], [1.0], [2.0], [3.0]) - 4.0) < 1e-15
    assert abs(cross_ratio([0.0], [1.0], [2.0], [4.0]) - 3.0) < 1e-15
    assert abs(cross_ratio([0.0], [1.0], [1.0], [3.0]) - 1.0) < 1e-15
    # works along any embedded line
    u = np.array([1.0, 2.0, -1.0]) / 3.0
    pts = [t * u for t in (0.0, 1.0, 2.0, 3.0)]
    assert abs(cross_ratio(*pts) - 4.0) < 1e-12


def test_cross_ratio_rejects_bad_input():
    with pytest.raises(NotCollinear):
        cross_ratio([0, 0], [1, 0], [1, 1], [0, 1])
    with pytest.raises(DegenerateDenominator):
        cross_ratio([0.0], [0.0], [1.0], [2.0])
    # collinearity is read relative to the points' span, at every scale
    bent = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [4.0, 0.0]])
    for s in (1e-9, 1.0, 1e9):
        with pytest.raises(NotCollinear):
            cross_ratio(*(bent * s))
        assert abs(cross_ratio(*(bent * [1.0, 0.0] * s)) - 3.0) < 1e-12


def test_cross_ratio_errors_carry_what_failed():
    """The stray point's residual off the line, a fraction of the span,
    and the vanishing length ride on the errors; the messages are
    unchanged."""
    bent = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [4.0, 0.0]])
    for s in (1e-9, 1.0, 1e9):
        with pytest.raises(NotCollinear) as e:
            cross_ratio(*(bent * s))
        assert str(e.value) == "points are not collinear within tolerance"
        assert e.value.residual == pytest.approx(0.5 / math.hypot(4.0, 0.5))
    with pytest.raises(NotCollinear) as e:
        cross_ratio([0, 0], [1, 0], [1, 1], [0, 1])
    assert e.value.residual == pytest.approx(math.sqrt(0.5))
    with pytest.raises(NotCollinear) as e:
        cross_ratio([1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0])
    assert str(e.value) == "all four points coincide"
    assert e.value.residual is None
    with pytest.raises(DegenerateDenominator) as e:
        cross_ratio([0.0], [0.0], [1.0], [2.0])
    assert str(e.value) == "cross ratio denominator vanishes"
    assert e.value.length == 0.0
    with pytest.raises(DegenerateDenominator) as e:
        cross_ratio([0.0], [1.0], [3.0], [3.0 + 1e-15])
    assert e.value.length == pytest.approx(1e-15, rel=0.1)


@settings(max_examples=80, deadline=None)
@given(t1=st.floats(min_value=0.05, max_value=0.3),
       t2=st.floats(min_value=0.35, max_value=0.6),
       t3=st.floats(min_value=0.65, max_value=0.95))
def test_cross_ratio_multiplicative_along_line(t1, t2, t3):
    a = np.array([-2.0, 1.0])
    b = np.array([3.0, -0.5])
    p = lambda t: a + t * (b - a)
    lhs = cross_ratio(a, p(t1), p(t2), b) * cross_ratio(a, p(t2), p(t3), b)
    rhs = cross_ratio(a, p(t1), p(t3), b)
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_distance_known_values():
    assert abs(distance(square(), [-0.5, 0], [0.5, 0])
               - math.log(9.0)) < 1e-12
    s2 = standard_simplex(2)
    assert abs(distance(s2, [0.5, 0.25, 0.25], [0.25, 0.5, 0.25])
               - math.log(4.0)) < 1e-12
    disk = build_ellipsoid([0, 0], np.eye(2))
    assert abs(distance(disk, [0, 0], [0.5, 0]) - math.log(3.0)) < 1e-12


def test_distance_is_zero_only_on_the_diagonal():
    dom = square()
    assert distance(dom, [0.2, -0.3], [0.2, -0.3]) == 0.0
    assert distance(dom, [0.2, -0.3], [0.2001, -0.3]) > 0.0


def test_distance_requires_interior_points():
    dom = square()
    with pytest.raises(PointNotInterior):
        distance(dom, [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(PointNotInterior):
        distance(dom, [0.0, 0.0], [0.0, 1.5])


def test_simplex_distance_matches_log_ratio_form():
    # d(x, y) = ln max_i x_i/y_i + ln max_i y_i/x_i on the open simplex
    s2 = standard_simplex(2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = s2.sample_interior(rng, 1, pull=0.01)
        y = s2.sample_interior(rng, 1, pull=0.01)
        want = math.log(np.max(x / y)) + math.log(np.max(y / x))
        assert abs(distance(s2, x, y) - want) < 1e-11


def test_distance_additive_along_chords():
    dom = square()
    rng = np.random.default_rng(9)
    for _ in range(50):
        x, y = dom.sample_interior(rng, 2, pull=0.02)
        t = rng.uniform(0.1, 0.9)
        z = x + t * (y - x)
        gap = distance(dom, x, z) + distance(dom, z, y) - distance(dom, x, y)
        assert abs(gap) < 1e-10


def test_gromov_product_nonnegative():
    dom = square()
    rng = np.random.default_rng(13)
    for _ in range(50):
        p, x, y = dom.sample_interior(rng, 3, pull=0.02)
        assert gromov_product(dom, p, x, y) >= -1e-10


def test_rigidity_square_edge_to_edge_with_witness():
    r = is_rigid_chord(square(), [-0.5, 0.0], [0.5, 0.0])
    assert not r.rigid
    assert r.witness is not None
    assert abs(r.witness[1]) > 1e-3  # genuinely off the chord
    assert r.additivity_gap <= 1e-9


def test_rigidity_vertex_chords_are_rigid():
    r = is_rigid_chord(square(), [-0.5, -0.5], [0.5, 0.5])
    assert r.rigid
    assert r.witness is None


def test_rigidity_strictly_convex_domains():
    disk = build_ellipsoid([0, 0], np.eye(2))
    assert is_rigid_chord(disk, [-0.3, 0.1], [0.4, 0.2]).rigid


def test_rigidity_skew_edges_of_simplex():
    tetra = standard_simplex(3)
    a = np.array([0.5, 0.5, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.5, 0.5])
    r = is_rigid_chord(tetra, a + 0.25 * (b - a), a + 0.75 * (b - a))
    assert r.rigid


def test_rigidity_cube_facet_to_facet():
    cube = build_polytope([[sx, sy, sz] for sx in (-1, 1)
                           for sy in (-1, 1) for sz in (-1, 1)])
    r = is_rigid_chord(cube, [0.0, 0.0, -0.5], [0.1, 0.2, 0.5])
    assert not r.rigid
    assert r.additivity_gap <= 1e-9


def test_rigidity_does_not_cut_a_cross_section(monkeypatch):
    def no_cut(*args, **kwargs):
        raise AssertionError("cross_section called")

    monkeypatch.setattr(ConvexDomain, "cross_section", no_cut)
    report = run_rigidity()
    assert report["pass"]
    assert [c["rigid"] for c in report["metrics"].values()] == [
        False, True, True, False]
    cube = build_polytope([[sx, sy, sz] for sx in (-1, 1)
                           for sy in (-1, 1) for sz in (-1, 1)])
    for dom, x, y in ((square(), [-0.5, 0.0], [0.5, 0.0]),
                      (cube, [0.0, 0.0, -0.5], [0.1, 0.2, 0.5])):
        r = is_rigid_chord(dom, x, y)
        x, y, z = np.asarray(x), np.asarray(y), r.witness
        gap = distance(dom, x, z) + distance(dom, z, y) - distance(dom, x, y)
        assert abs(gap) <= 1e-9
        u = (y - x) / np.linalg.norm(y - x)
        off = (z - x) - ((z - x) @ u) * u
        assert np.linalg.norm(off) > 1e-3  # off the chord


def test_rigidity_at_large_scale():
    # Every chord between two open edges of the square is flexible, at
    # any scale; at 1e9 the chord ends used to raise NotOnBoundary.
    rng = np.random.default_rng(11)
    for s in (1e9, 1e12):
        dom = build_polytope(np.array(SQUARE) * s)
        for _ in range(40):
            x, y = s * rng.uniform(-0.7, 0.7, (2, 2))
            r = is_rigid_chord(dom, x, y)
            assert not r.rigid
            z = r.witness
            gap = distance(dom, x, z) + distance(dom, z, y) - distance(dom, x, y)
            assert abs(gap) <= 1e-9
        assert is_rigid_chord(dom, [0.5 * s, 0.5 * s], [0.0, 0.0]).rigid


# Generic chords of polygons about 2.5e-3 wide whose one end lies in an
# open edge within about 1e-8 of a vertex (8 vertices of build-decide's
# polygon-32@1e-3 ops, those around the two ends).  An absolute slack
# tolerance of 1e-9 read that end as the vertex, so the chord as rigid.
CHORDS_NEAR_A_VERTEX = [
    ([[0.00039921913405537447, -0.0008558798680973254],
      [0.0005918991047208781, -0.0008453383016051007],
      [0.0007888309766948509, -0.0007856291499646882],
      [0.0009265758386870408, -0.0006883835880105764],
      [-0.0006230393307191602, 0.0012502873621251876],
      [-0.0008347408839567862, 0.0012711199253663563],
      [-0.001062897932663024, 0.0012481369267096703],
      [-0.0012308091680677327, 0.0011837323789227775]],
     [-0.00019149322516694113, 0.0001616633009750196],
     [-0.00014873814161209755, 0.00010670434080750231]),
    ([[0.0007221699669659247, 0.0005749759503955583],
      [0.0005838071929661472, 0.0007639478099831745],
      [0.00040238183406737267, 0.0009446164492890717],
      [0.0002322210614529478, 0.0010644608312708904],
      [-0.0008428222324133182, -0.00040996240475324534],
      [-0.0007405385439538221, -0.0006184705115526603],
      [-0.0005626405892126332, -0.0008725859275826027],
      [-0.0004185985660474812, -0.0010206519713698333]],
     [-1.6934519833886048e-05, -4.025083482734499e-05],
     [0.00011421566049861499, 0.00015978274292810025]),
    ([[-9.044010177005347e-05, -0.0015432176563219227],
      [0.00011385070931206101, -0.0015628980362575261],
      [0.0003491946950369661, -0.001512479667104659],
      [0.0004723076701174855, -0.00145630398076229],
      [0.0004752407198010247, 0.0011692916477715968],
      [0.00023043687940952346, 0.0011206764482393267],
      [8.194932679880634e-05, 0.0010516930851960616],
      [-8.812349011786324e-05, 0.0009335270826662527]],
     [0.0002827756070857106, -0.00025841329106902547],
     [0.00029051708989365134, -0.0004045850627445035]),
]


@pytest.mark.parametrize("vertices, x, y", CHORDS_NEAR_A_VERTEX)
def test_chord_end_near_a_vertex_at_small_scale_is_in_its_edge(vertices, x,
                                                                y):
    dom = build_polytope(vertices)
    chord = dom.chord_through(x, y)
    assert chord.face_alpha.dim == chord.face_beta.dim == 1
    assert assert_rigidity(dom, x, y, False) > 0.0


def test_vertex_chords_are_rigid_at_every_scale():
    # the chord through a vertex and an interior point ends at the vertex:
    # the end's round-off stays within its tolerance at every scale
    rng = np.random.default_rng(15)
    th = np.sort(rng.uniform(0.0, 2 * np.pi, 9))
    shapes = [np.c_[1.5 * np.cos(th), np.sin(th)], np.array(OCTAGON), CUBE,
              rng.normal(size=(14, 3))]
    for s in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):
        for V in shapes:
            dom = build_polytope(V * s)
            c = dom.vertices.mean(axis=0)
            for k, v in enumerate(dom.vertices[:4]):
                x = c + 0.5 * (v - c)
                assert dom.chord_through(x, c).face_alpha.indices == (k,)
                assert_rigidity(dom, x, c, True)


def assert_rigidity(dom, x, y, rigid):
    """is_rigid_chord's verdict is rigid; a rigid result carries no
    witness or direction, a flexible one a witness whose distances add
    up.  Returns the witness's distance off the chord, else None."""
    r = is_rigid_chord(dom, x, y)
    assert r.rigid == rigid
    if rigid:
        assert r.witness is None and r.deviation_direction is None
        assert r.additivity_gap is None
        return None
    x, y, z = r.chord.x, r.chord.y, r.witness
    d = distances(dom, [x, z, x], [z, y, y])
    assert abs(d[0] + d[1] - d[2]) <= 1e-9 and r.additivity_gap <= 1e-9
    u = (y - x) / np.linalg.norm(y - x)
    return float(np.linalg.norm((z - x) - ((z - x) @ u) * u))


def test_rigidity_matches_the_face_dimension_oracle():
    # In the plane a chord is flexible exactly when both its ends lie in
    # open edges.  Chords between points of two edges, away from their
    # ends, have a geodesic region of width comparable to the polygon;
    # random chords may end next to a vertex, where it is thin, so their
    # witnesses are only required to be off the chord.
    rng = np.random.default_rng(90)
    flexible = 0
    for _ in range(300):
        m = int(rng.integers(3, 13))
        th = 2 * math.pi * (np.arange(m) + rng.uniform(0, 0.4, m)) / m
        dom = build_polytope(np.c_[rng.uniform(1, 1.5) * np.cos(th),
                                   np.sin(th)])
        V = dom.to_ambient(dom.polygon_vertices_local()[0])
        m = len(V)
        size = np.ptp(V, axis=0).max()
        i = int(rng.integers(m))
        j = (i + int(rng.integers(2, m - 1))) % m if m > 3 else (i + 1) % m
        a, b = (V[k] + rng.uniform(0.1, 0.9) * (V[(k + 1) % m] - V[k])
                for k in (i, j))
        chords = [(a, b, False), (V[i], b, True)]
        if m > 3:
            chords.append((V[i], V[(i + 2) % m], True))
        for a, b, rigid in chords:
            off = assert_rigidity(dom, a + 0.25 * (b - a),
                                  a + 0.75 * (b - a), rigid)
            assert rigid or off >= 1e-3 * size
        x, y = dom.sample_interior(rng, 2)
        chord = dom.chord_through(x, y)
        at_vertex = [np.linalg.norm(V - p, axis=1).min() <= 1e-9 * size
                     for p in (chord.alpha, chord.beta)]
        off = assert_rigidity(dom, x, y, any(at_vertex))
        assert off is None or off >= 1e-9 * size
        flexible += off is not None
    assert flexible > 200


CROSS_4 = np.vstack([np.eye(4), -np.eye(4)])


@pytest.mark.parametrize("vertices, a, b, rigid", [
    # the cube [-1, 1]^3: facet to facet, vertex to vertex, parallel
    # edges, skew edges, edge to facet, vertex to facet
    (CUBE, [0.0, 0.0, -1.0], [0.2, 0.4, 1.0], False),
    (CUBE, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], True),
    (CUBE, [-1.0, -1.0, 0.2], [1.0, 1.0, 0.2], False),
    (CUBE, [-1.0, -1.0, 0.0], [0.0, 1.0, 1.0], True),
    (CUBE, [-1.0, -1.0, 0.0], [1.0, 0.3, 0.2], False),
    (CUBE, [-1.0, -1.0, -1.0], [1.0, 0.3, 0.2], True),
    # the 4-dimensional cross-polytope: parallel facets, vertex to
    # vertex, skew edges, parallel edges, an edge and a triangle spanning
    # R^4 with the chord, parallel triangles
    (CROSS_4, [-0.21, -0.28, -0.25, -0.26], [0.29, 0.22, 0.25, 0.24], False),
    (CROSS_4, [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], True),
    (CROSS_4, [0.5, 0.5, 0.0, 0.0], [-0.5, 0.0, 0.5, 0.0], True),
    (CROSS_4, [0.5, 0.5, 0.0, 0.0], [-0.5, -0.5, 0.0, 0.0], False),
    (CROSS_4, [0.5, 0.5, 0.0, 0.0], [-0.2, 0.0, 0.4, 0.4], True),
    (CROSS_4, [0.4, 0.3, 0.3, 0.0], [-0.3, -0.3, -0.4, 0.0], False),
])
def test_rigidity_of_polytope_chords_by_endpoint_faces(vertices, a, b,
                                                       rigid):
    # a chord from boundary point a to boundary point b is flexible
    # exactly when some plane through it meets both endpoint faces in
    # segments (de la Harpe 1993); each case is worked out by hand
    dom = build_polytope(vertices)
    a, b = np.array(a), np.array(b)
    chord = dom.chord_through(a + 0.25 * (b - a), a + 0.75 * (b - a))
    assert np.allclose([chord.alpha, chord.beta], [a, b], atol=1e-12)
    off = assert_rigidity(dom, chord.x, chord.y, rigid)
    assert rigid or off >= 1e-3 * 2.0


def reference_deviation_direction(chord):
    """_deviation_direction in its SVD form, in ambient coordinates: the
    endpoint faces' direction bases, the rank of [Ua, Ub, v] and the null
    space of [Ua, v, -Ub, -v]."""
    Ua = chord.face_alpha.direction_basis()
    Ub = chord.face_beta.direction_basis()
    if Ua.shape[1] == 0 or Ub.shape[1] == 0:
        return None
    v = chord.beta - chord.alpha
    v = v / np.linalg.norm(v)
    stacked = np.column_stack([Ua, Ub, v])
    rank = np.linalg.matrix_rank(stacked, tol=1e-9)
    if rank > Ua.shape[1] + Ub.shape[1]:
        return None
    N = _nullspace(np.column_stack([Ua, v[:, None], -Ub, -v[:, None]]))
    W = np.column_stack([Ua, v]) @ N[: Ua.shape[1] + 1]
    Z = W - np.outer(v, v @ W)
    norms = np.linalg.norm(Z, axis=0)
    if norms.size == 0 or norms.max() <= 1e-9:
        return None
    return Z[:, norms.argmax()] / norms.max()


def face_chords(dom, rng, k):
    """k chords between points of the relative interiors of two random
    faces that share no facet, of random dimensions from vertices to
    facets, as (x, y) a quarter and three quarters of the way."""
    lattice = dom.face_lattice()
    faces = lattice.faces
    out = []
    while len(out) < k:
        fa, fb = (faces[i] for i in rng.integers(len(faces), size=2))
        if fa.facet_ids & fb.facet_ids:
            continue
        a, b = (rng.dirichlet(np.ones(len(f.vertices))) @ f.vertices
                for f in (fa, fb))
        out.append((a + 0.25 * (b - a), a + 0.75 * (b - a)))
    return out


def test_rigidity_from_facet_normals_matches_the_svd_form():
    # the stacked facet normals give the verdicts of the direction-basis
    # SVDs on chords with vertex, edge and facet ends, and every flexible
    # chord a witness whose distances add up
    rng = np.random.default_rng(44)
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    domains = [build_polytope(CUBE @ rot.T * 3.0 + [1.0, -2.0, 0.5]),
               build_polytope(rng.normal(size=(15, 3))),
               build_polytope(rng.normal(size=(15, 4))),
               build_polytope(rng.normal(size=(20, 3))),
               build_polytope(rng.normal(size=(20, 4))),
               standard_simplex(3)]
    for m in (3, 4, 7, 12):
        th = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        domains.append(build_polytope(np.c_[1.4 * np.cos(th), np.sin(th)]))
    tally = {True: 0, False: 0}
    for dom in domains:
        chords = face_chords(dom, rng, 40)
        chords += [tuple(dom.sample_interior(rng, 2)) for _ in range(10)]
        for x, y in chords:
            chord = dom.chord_through(x, y)
            rigid = reference_deviation_direction(chord) is None
            assert (_deviation_direction(dom, chord) is None) == rigid
            r = is_rigid_chord(dom, x, y)
            assert r.rigid == rigid
            tally[rigid] += 1
            if not rigid:
                z = r.witness
                d = distances(dom, [r.chord.x, z, r.chord.x],
                              [z, r.chord.y, r.chord.y])
                assert abs(d[0] + d[1] - d[2]) <= 1e-9
    assert min(tally.values()) >= 100


def test_asymptotic_same_point_stays_bounded():
    prof = asymptotic_profile(square(), [-0.3, -0.2], [0.4, 0.1],
                              [1.0, 1.0], [1.0, 1.0])
    assert prof.mode == "same-point"
    assert prof.sup < 10.0
    assert prof.exceeded_at is None


def test_asymptotic_targets_in_one_edge_off_their_line_converge():
    """Distinct targets in one open edge have a finite limit whatever the
    direction of y0 - x0: here log 9, with the offset off their line."""
    prof = asymptotic_profile(square(), (0.0, 0.0), (0.3, -0.5),
                              (-0.5, 1.0), (0.5, 1.0), steps=40)
    assert prof.mode == "same-face"
    assert prof.exceeded_at is None
    assert abs(prof.distances[-1] - math.log(9.0)) <= 1e-9


def test_asymptotic_parallel_has_cross_ratio_limit():
    prof = asymptotic_profile(square(), [-0.5, 0.0], [0.5, 0.0],
                              [-0.5, 1.0], [0.5, 1.0])
    assert prof.mode == "parallel"
    # limit is the cross ratio of the targets inside the carrying edge
    want = cross_ratio([-1.0, 1.0], [-0.5, 1.0], [0.5, 1.0], [1.0, 1.0])
    assert abs(prof.limit_estimate - math.log(want)) < 1e-6
    assert abs(math.log(want) - math.log(9.0)) < 1e-15


def test_asymptotic_separated_targets_diverge():
    prof = asymptotic_profile(square(), [-0.3, -0.2], [0.4, 0.1],
                              [1.0, 1.0], [-1.0, 0.0])
    assert prof.mode == "divergent"
    assert prof.exceeded_at is not None
    assert prof.distances[-1] > 10.0


def test_asymptotic_rejects_interior_targets():
    with pytest.raises(NotOnBoundary):
        asymptotic_profile(square(), [-0.3, 0.0], [0.3, 0.0],
                           [0.5, 0.5], [1.0, 0.0])


def test_hilbert_ball_radius():
    center = np.array([0.2, -0.1])
    domains = [square(), build_polytope(PENTAGON),
               build_ellipsoid([0, 0], np.eye(2))]
    for dom in domains:
        for radius in (0.05, 0.8, 20.0):
            ring = hilbert_ball(dom, center, radius, n_dirs=24)
            assert len(ring) == 24
            for p in ring:
                assert dom.contains_interior(p, 1e-12)
                # Rounding p's coordinates moves its radius by about an
                # ulp over its slack: about 1e-7 at R = 20, where the
                # slack is near e^-20, and far below 1e-12 at R <= 0.8.
                tol = 1e-12 + 16 * 2.0 ** -53 / dom.min_slack(p)
                assert abs(distance(dom, center, p) - radius) < tol
        # exp(R) overflows: the points reach the boundary, finite
        ring = hilbert_ball(dom, center, 1000.0, n_dirs=24)
        assert np.all(np.isfinite(ring))
        assert all(dom.min_slack(p) > -1e-15 for p in ring)


def test_hilbert_ball_rejects_non_finite_radius():
    for radius in (math.nan, math.inf):
        with pytest.raises(NonFinite):
            hilbert_ball(square(), [0.0, 0.0], radius)


def _exact_distance(vertices, x, y):
    """50-digit Funk sum over the edges of a convex polygon given in
    cyclic order; the float inputs convert to mpf exactly."""
    with mpmath.workdps(50):
        V = [[mpmath.mpf(c) for c in v] for v in vertices]
        x, y = ([mpmath.mpf(float(c)) for c in p] for p in (x, y))
        sx, sy = [], []
        for p, q in zip(V, V[1:] + V[:1]):
            a = (p[1] - q[1], q[0] - p[0])  # inward for counterclockwise
            sx.append(a[0] * (x[0] - p[0]) + a[1] * (x[1] - p[1]))
            sy.append(a[0] * (y[0] - p[0]) + a[1] * (y[1] - p[1]))
        return (mpmath.log(max(u / v for u, v in zip(sx, sy)))
                + mpmath.log(max(v / u for u, v in zip(sx, sy))))


def _exact_ellipse_distance(center, shape, x, y):
    """50-digit cross ratio of the chord of {(p-c)^T S^-1 (p-c) < 1}
    through x and y, with x at t = 0 and y at t = 1."""
    with mpmath.workdps(50):
        c, x, y = (mpmath.matrix([mpmath.mpf(float(v)) for v in p])
                   for p in (center, x, y))
        Si = mpmath.matrix([[mpmath.mpf(float(v)) for v in row]
                            for row in shape]) ** -1
        w, d = x - c, y - x
        a = (d.T * Si * d)[0]
        b = (w.T * Si * d)[0]
        c0 = (w.T * Si * w)[0] - 1
        root = mpmath.sqrt(b * b - a * c0)
        t_lo, t_hi = (-b - root) / a, (-b + root) / a
        return mpmath.log((1 - t_lo) / -t_lo * t_hi / (t_hi - 1))


def _sphere_point(rng, dim, gap):
    """A point w of the open unit ball with 1 - |w| about gap whose
    |w|^2 is exact in floats: coordinates k 2^-26 with integers k < 2^26,
    so every square and the sum (1 - N 2^-52, N an integer) are exact."""
    target = round(2.0 * gap * 2**52)  # N for 1 - |w|^2 = 2 gap
    while True:
        c = [int(k) for k in rng.integers(0, 2**20, dim - 2)]
        rest = 2**52 - target - sum(k * k for k in c)
        top = math.isqrt(rest)
        for a in range(int(rng.integers(2**24, top)), top):
            b = math.isqrt(rest - a * a)
            if rest - a * a - b * b <= max(target // 2, 8):
                w = np.array([a, b, *c]) * rng.choice([-1.0, 1.0], dim)
                w = rng.permutation(w) * 2.0**-26
                assert Fraction(float(w @ w)) == sum(Fraction(v)**2 for v in w)
                return w


def test_distance_matches_mpmath_oracle():
    rng = np.random.default_rng(2014)
    pairs = []
    for _ in range(5):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        x = rng.uniform(-0.5, 0.5, size=2)
        pairs.append((SQUARE, x, x + 1e-14 * u))
        x = rng.uniform(-0.3, 0.3, size=2)
        pairs.append((OCTAGON, x, x + 1e-13 * u))
    # 1e-15 from the top edge; an axis-parallel edge keeps the stored
    # slack exact, so the check sees the kernel and not facet round-off
    pairs.append((SQUARE, [0.3, 1 - 1e-15], [-0.2, 1 - 3e-15]))
    pairs.append((SQUARE, [0.3, 1 - 1e-15], [-0.2, 0.1]))
    for verts, x, y in pairs:
        want = _exact_distance(verts, x, y)
        got = distance(build_polytope(verts), x, y)
        assert float(abs(got - want) / want) <= 1e-13
    # close pairs on the unit disk and on a tilted ellipse
    rot = np.array([[math.cos(0.7), -math.sin(0.7)],
                    [math.sin(0.7), math.cos(0.7)]])
    for center, shape in (([0.0, 0.0], np.eye(2)),
                          ([0.3, -0.2], rot @ np.diag([2.0, 0.25]) @ rot.T)):
        dom = build_ellipsoid(center, shape)
        for sep in (1e-4, 1e-10, 1e-14):
            for _ in range(4):
                x = dom.sample_interior(rng, 1, pull=0.3)
                u = rng.normal(size=2)
                y = x + sep * u / np.linalg.norm(u)
                want = _exact_ellipse_distance(center, shape, x, y)
                got = distance(dom, x, y)
                assert float(abs(got - want) / want) <= 1e-13
    # 1e-6 and 3e-8 from the disk's edge, on an axis so that |w|^2 - 1 is
    # exact: the near chord end needs the cancellation-free root
    disk = build_ellipsoid([0.0, 0.0], np.eye(2))
    for x, y in (([1 - 2**-20, 0.0], [1 - 2**-20 - 1e-3, 5e-4]),
                 ([0.0, 2**-25 - 1], [2e-4, 2**-25 - 1 + 1e-4])):
        want = _exact_ellipse_distance([0.0, 0.0], np.eye(2), x, y)
        assert float(abs(distance(disk, x, y) - want) / want) <= 1e-13
    # 3-D, off-centre and tilted ellipsoids at scales 1e-9 to 1e12, with
    # pairs 1e-4 to 1e-14 apart, and points 1e-3 to 1e-12 from the
    # boundary.  Whitening rounds w = L^-1 (x - c) to an ulp, which moves
    # 1 - |w|^2 by an ulp whatever the formula, so the points near the
    # boundary sit on balls of radius 2^k, which whiten exactly, with
    # |w|^2 exact (_sphere_point).
    for d in (2, 3):
        Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        tilted = Q @ np.diag(rng.uniform(0.2, 3.0, d)) @ Q.T
        for scale in (1e-9, 1e-6, 1.0, 1e3, 1e12):
            center = scale * rng.normal(size=d)
            shape = scale**2 * tilted
            dom = build_ellipsoid(center, shape)
            for sep in 10.0 ** -np.arange(4.0, 15.0, 2.0):
                x = dom.sample_interior(rng, 1, pull=0.3)
                u = rng.normal(size=d)
                for y in (x + scale * sep * u / np.linalg.norm(u),
                          dom.sample_interior(rng, 1, pull=0.3)):
                    want = _exact_ellipse_distance(center, shape, x, y)
                    got = distance(dom, x, y)
                    assert float(abs(got - want) / want) <= 1e-13
        for k in (-30, 0, 40):  # radii about 9.3e-10, 1 and 1.1e12
            r = 2.0**k
            ball = build_ellipsoid(np.zeros(d), r * r * np.eye(d))
            for gap in (1e-3, 1e-6, 1e-9, 1e-12):
                w = _sphere_point(rng, d, gap)
                assert 1.0 - np.linalg.norm(w) == pytest.approx(gap, rel=0.5)
                partners = [_sphere_point(rng, d, 0.3), -w,
                            _sphere_point(rng, d, gap),
                            _sphere_point(rng, d, 1e-3)]
                for v in partners:
                    x, y = r * w, r * v
                    want = _exact_ellipse_distance(np.zeros(d),
                                                   r * r * np.eye(d), x, y)
                    for a, b in ((x, y), (y, x)):
                        got = distance(ball, a, b)
                        assert float(abs(got - want) / want) <= 1e-13


def test_distance_is_exactly_symmetric():
    rng = np.random.default_rng(17)
    for verts in (SQUARE, PENTAGON, OCTAGON):
        dom = build_polytope(verts)
        for _ in range(50):
            x, y = dom.sample_interior(rng, 2)
            assert distance(dom, x, y) == distance(dom, y, x)
        x = dom.sample_interior(rng, 1)
        assert distance(dom, x, x + 1e-14) == distance(dom, x + 1e-14, x)


def test_cone_over_polygon_reproduces_distance():
    # Both sides evaluate one Funk sum of the same facet rows, the cone's
    # homogenised.
    rng = np.random.default_rng(23)
    for verts in (SQUARE, PENTAGON, OCTAGON):
        dom = build_polytope(verts)
        cone = cone_over(dom)
        for _ in range(100):
            x, y = dom.sample_interior(rng, 2, pull=0.05)
            want = distance(dom, x, y)
            got = cone_distance(cone, cone.embed(x), cone.embed(y))
            assert abs(got - want) <= 1e-15 * want
    # a lifted cone's functionals are the domain's facet rows, so a small
    # or large domain's cone keeps its metric too, in R^2 to R^4: an
    # affine cube, points on an ellipsoid, a Gaussian cloud, a bipyramid
    u = rng.normal(size=(26, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    th = 2 * np.pi * np.arange(12) / 12
    shapes = [np.array(verts, dtype=float)
              for verts in (SQUARE, PENTAGON, OCTAGON)]
    shapes += [CUBE @ np.array([[1.0, 0.3, -0.2], [0.1, 0.8, 0.4],
                                [-0.3, 0.2, 1.2]]) + [0.3, -0.2, 0.1],
               u * [1.5, 1.0, 0.6],
               rng.normal(size=(12, 4)),
               np.vstack([np.c_[np.cos(th), np.sin(th), np.zeros(12)],
                          [[0.0, 0.0, 1.1], [0.0, 0.0, -0.9]]])]
    for scale in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
        for verts in shapes:
            dom = build_polytope(verts * scale)
            cone = cone_over(dom)
            for _ in range(100):
                x, y = dom.sample_interior(rng, 2, pull=0.05)
                want = distance(dom, x, y)
                got = cone_distance(cone, cone.embed(x), cone.embed(y))
                assert abs(got - want) <= 1e-14 * want


def _distance_by_row(dom, x, y):
    """Reference for one polytope pair: the Funk sum of its facet slacks,
    one matrix-vector product per point."""
    sx = dom._b - dom._A @ dom.to_local(x)
    sy = dom._b - dom._A @ dom.to_local(y)
    delta = dom._A @ (dom._basis.T @ (y - x))
    return math.log1p(max(delta / sy)) + math.log1p(max(-delta / sx))


def _chord_distance(dom, x, y):
    """Reference for one ellipsoid pair: the textbook roots of the chord
    quadratic and one log of the cross ratio."""
    L = dom._chol
    w = np.linalg.solve(L, x - dom.center)
    dw = np.linalg.solve(L, y - x)
    a, b, c0 = dw @ dw, 2.0 * (w @ dw), w @ w - 1.0
    root = math.sqrt(b * b - 4.0 * a * c0)
    t_lo, t_hi = (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)
    return math.log((1.0 - t_lo) / (-t_lo) * (t_hi / (t_hi - 1.0)))


def _cube():
    return build_polytope([[sx, sy, sz] for sx in (-1, 1)
                           for sy in (-1, 1) for sz in (-1, 1)])


def _cross_polytope():
    return build_polytope(np.vstack([np.eye(4), -np.eye(4)]))


def test_distances_match_per_row_reference():
    # Batched matrix products sum in another order than one row at a
    # time, so rows agree to round-off, not bitwise.
    rng = np.random.default_rng(41)
    for dom in (square(), standard_simplex(2), _cube(), _cross_polytope()):
        X = dom.sample_interior(rng, 100)
        Y = dom.sample_interior(rng, 100)
        got = distances(dom, X, Y)
        assert got.shape == (100,)
        for d, x, y in zip(got, X, Y):
            want = _distance_by_row(dom, x, y)
            assert abs(d - want) <= 1e-13 * want
    disk = build_ellipsoid([0.0, 0.0], np.eye(2))
    X = disk.sample_interior(rng, 100, pull=0.02)
    Y = disk.sample_interior(rng, 100, pull=0.02)
    for d, x, y in zip(distances(disk, X, Y), X, Y):
        want = _chord_distance(disk, x, y)
        assert abs(d - want) <= 1e-13 * want


def test_distances_diagonal_and_symmetry():
    rng = np.random.default_rng(43)
    disk = build_ellipsoid([0.0, 0.0], np.eye(2))
    for dom in (square(), standard_simplex(2), _cube(), _cross_polytope(),
                disk):
        X = dom.sample_interior(rng, 50)
        Y = dom.sample_interior(rng, 50)
        assert np.all(distances(dom, X, X) == 0.0)
        if dom.kind == "polytope":
            assert np.array_equal(distances(dom, X, Y), distances(dom, Y, X))


def test_distances_reject_any_bad_row():
    rng = np.random.default_rng(47)
    dom = square()
    X = dom.sample_interior(rng, 20)
    Y = dom.sample_interior(rng, 20)
    for which in ("x", "y"):
        Xb, Yb = X.copy(), Y.copy()
        (Xb if which == "x" else Yb)[7] = [1.0, 0.2]  # on an edge
        with pytest.raises(PointNotInterior, match=rf"^{which}\[7\] is not"):
            distances(dom, Xb, Yb)
        (Xb if which == "x" else Yb)[7] = [0.1, math.nan]
        with pytest.raises(NonFinite, match=rf"^{which}\[7\]"):
            distances(dom, Xb, Yb)
    # an embedded domain still checks the affine hull
    s2 = standard_simplex(2)
    with pytest.raises(PointNotInterior, match="^y is off the affine hull"):
        distances(s2, [0.2, 0.3, 0.5], [0.2, 0.3, 0.6])


def test_distances_of_single_points_have_one_row():
    got = distances(square(), [0.1, 0.2], [-0.3, 0.4])
    assert got.shape == (1,)
    assert got[0] == distance(square(), [0.1, 0.2], [-0.3, 0.4])


def test_distance_at_large_scale_and_offset():
    # A full-dimensional domain has no hull residual to test: at 1e9 and
    # 1e12 the round-off of (p - origin) exceeded the absolute 1e-9.
    quad = np.array([[0.0, 0.0], [2.0, 0.3], [1.7, 1.5], [0.2, 1.1]])
    shift = np.array([3.0, -2.0])
    rng = np.random.default_rng(53)
    unit = build_polytope(quad)
    X = unit.sample_interior(rng, 200, pull=0.05)
    Y = unit.sample_interior(rng, 200, pull=0.05)
    want = distances(unit, X, Y)
    for s in (1e9, 1e12):
        dom = build_polytope(s * (quad + shift))
        got = distances(dom, s * (X + shift), s * (Y + shift))
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def _edge_cases():
    sq = build_polytope(SQUARE)
    disk = build_ellipsoid([0, 0], np.eye(2))
    starts = [[0.1, 0.2], [-0.3, 0.1]]
    rng = np.random.default_rng(0)
    return [
        pytest.param(
            lambda: asymptotic_profile(
                sq, [0, 0], [0.1, 0], [1, 0], [1, 0.5], steps=-1),
            (DegenerateInput, "steps must be at least 0"), id="steps"),
        pytest.param(
            lambda: focusing_probe(
                sq, lambda P: P, [1, 0], starts, horizon=-1),
            (DegenerateInput, "horizon must be at least 0"), id="horizon"),
        pytest.param(
            lambda: focusing_probe(sq, lambda P: P + 10.0, [1, 0], starts),
            (ImageEscapedDomain, "left the domain immediately"),
            id="escaped"),
        # the unit rays span the orthant, and the centroid lies 1e-12 of
        # its size off the facet x_2 = 0
        pytest.param(
            lambda: build_cone([[1e12, 0], [0, 1]]),
            (DegenerateInput, "centroid is not interior"), id="centroid"),
        pytest.param(lambda: sq.sample_boundary(rng, 0), (0, 2),
                     id="empty-polytope-sample"),
        pytest.param(lambda: disk.sample_boundary(rng, 0), (0, 2),
                     id="empty-ellipsoid-sample"),
    ]


@pytest.mark.parametrize("call, expected", _edge_cases())
def test_edge_inputs_raise_a_specific_error_or_return_empty(call, expected):
    """Each failure raises its GeometryError subclass with its message,
    and an empty boundary sample is an empty array, as an empty interior
    sample is."""
    if isinstance(expected[0], int):
        assert call().shape == expected
        return
    with pytest.raises(expected[0], match=expected[1]):
        call()
