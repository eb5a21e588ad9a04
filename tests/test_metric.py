"""Distance values, cross-ratio identities, rigidity, boundary profiles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeo import (
    asymptotic_profile,
    build_ellipsoid,
    build_polytope,
    cone_distance,
    cone_over,
    cross_ratio,
    distance,
    distances,
    gromov_product,
    hilbert_ball,
    is_rigid_chord,
    standard_simplex,
)
from hilbertgeo.convex import ConvexDomain
from hilbertgeo.errors import (
    DegenerateDenominator,
    NonFinite,
    NotCollinear,
    NotOnBoundary,
    PointNotInterior,
)
from hilbertgeo.suites import run_rigidity

SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
PENTAGON = [[math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)]
            for k in range(5)]
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


def test_asymptotic_same_point_stays_bounded():
    prof = asymptotic_profile(square(), [-0.3, -0.2], [0.4, 0.1],
                              [1.0, 1.0], [1.0, 1.0])
    assert prof.mode == "same-point"
    assert prof.sup < 10.0
    assert prof.exceeded_at is None


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
    # Both sides evaluate one Funk sum; their facet normals come from two
    # Qhull runs and agree to an ulp or so on these polygons.
    rng = np.random.default_rng(23)
    for verts in (SQUARE, PENTAGON, OCTAGON):
        dom = build_polytope(verts)
        cone = cone_over(dom)
        for _ in range(100):
            x, y = dom.sample_interior(rng, 2, pull=0.05)
            want = distance(dom, x, y)
            got = cone_distance(cone, cone.embed(x), cone.embed(y))
            assert abs(got - want) <= 1e-15 * want


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
