"""Row forms of the maps, and the batched sampled checks against per-point
reference copies of the loops they replace."""

import itertools
import math

import numpy as np
import pytest

from hilbertgeo import (
    HilbertSpace,
    ProjectiveMap,
    WSpace,
    axis_coords,
    axis_coords_inv,
    build_ellipsoid,
    build_polytope,
    clr,
    clr_inv,
    cone_distance,
    cone_distances,
    cone_over,
    cross_ratio,
    focusing_probe,
    lorentz_cone,
    minkowski_functional,
    projectivity_check,
    reciprocal_map,
    sampled_isometry_check,
    simplex_projective,
    standard_simplex,
    variation_norm,
    vinberg_star,
)
from hilbertgeo.errors import (
    DegenerateInput,
    GeometryError,
    NonFinite,
    XNotInteriorOfCone,
)

SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
ROTATE = ProjectiveMap(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0]]))


def bend(p):
    """A non-projective map of the plane, on points or rows."""
    return p + 0.3 * p * p


# --------------------------------------------------- per-point references

def reference_isometry_check(src, dst, f, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = src.sample(rng)
        y = src.sample(rng)
        fx, fy = f(x), f(y)
        assert dst.contains(fx) and dst.contains(fy)
        worst = max(worst, abs(src.distance(x, y) - dst.distance(fx, fy)))
    return worst


def reference_projectivity_check(domain, f, rng, samples=60, pull=0.05):
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


def reference_focusing_probe(domain, f, target, starts, horizon=24):
    limits = []
    for s in starts:
        prev, last = None, None
        for i in range(horizon + 1):
            q = f(target + 2.0 ** (-i) * (s - target))
            if domain.min_slack(q) <= 0.0 or domain.hull_residual(q) > 1e-9:
                break
            prev, last = last, q
        if prev is None or np.linalg.norm(last - prev) <= 1e-14:
            limits.append(last)
            continue
        limits.append(domain.ray(prev, last - prev).endpoint)
    spread = 0.0
    for a, b in itertools.combinations(range(len(limits)), 2):
        spread = max(spread, float(np.linalg.norm(limits[a] - limits[b])))
    return np.array(limits), spread


# ---------------------------------------------------------------- rows

def assert_rows_match_points(f, X):
    rows = f(X)
    single = np.array([f(x) for x in X])
    assert rows.shape == single.shape
    assert np.abs(rows - single).max() <= 4 * np.finfo(float).eps * max(
        1.0, np.abs(single).max())


def test_row_forms_equal_single_point_forms():
    rng = np.random.default_rng(40)
    X = standard_simplex(2).sample_interior(rng, 40, pull=0.01)
    X3 = standard_simplex(3).sample_interior(rng, 40, pull=0.01)
    disk = build_ellipsoid([0.0, 0.0], np.eye(2))
    D = disk.sample_interior(rng, 40, pull=0.01)
    Z = np.exp(rng.normal(size=(40, 3)))
    M = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 0.7]])
    g = ProjectiveMap(np.array([[2.0, 1.0, 0.5], [0.0, 1.5, -0.2],
                                [0.3, 0.0, 1.0]]))
    lorentz = lorentz_cone(3)
    square_cone = cone_over(build_polytope(SQUARE))
    for f, A in ((reciprocal_map, X), (reciprocal_map, X3),
                 (simplex_projective(M), X), (clr, X3), (clr_inv, clr(X3)),
                 (axis_coords, clr(X)), (axis_coords_inv, D),
                 (lambda z: vinberg_star("orthant", z), Z),
                 (lambda z: vinberg_star("lorentz", z), lorentz.embed(D)),
                 (g, 0.3 * D), (lorentz.embed, D), (square_cone.embed, D),
                 (variation_norm, clr(X)),
                 (lambda v: minkowski_functional(disk, v), D - 0.2),
                 (lambda v: minkowski_functional(
                     build_polytope(SQUARE), v), D)):
        assert_rows_match_points(f, A)


def test_spaces_take_rows():
    rng = np.random.default_rng(41)
    for space in (HilbertSpace(build_polytope(SQUARE)),
                  HilbertSpace(build_ellipsoid([0.3, 0.0], np.eye(2))),
                  WSpace(3)):
        P = space.sample(rng, 30)
        assert P.ndim == 2 and len(P) == 30
        assert np.array_equal(space.contains(P),
                              [space.contains(p) for p in P])
        d = space.distance(P[0::2], P[1::2])
        assert np.allclose(d, [space.distance(x, y)
                               for x, y in zip(P[0::2], P[1::2])],
                           rtol=1e-14, atol=0.0)
        assert np.ndim(space.sample(rng)) == 1
    square = HilbertSpace(build_polytope(SQUARE))
    assert list(square.contains(np.array([[0.0, 0.0], [2.0, 0.0]]))) == \
        [True, False]


def test_cone_distances_match_cone_distance():
    rng = np.random.default_rng(42)
    square = build_polytope(SQUARE)
    disk = build_ellipsoid([0.0, 0.0], np.eye(2))
    for dom, cone in ((standard_simplex(2), cone_over(standard_simplex(2))),
                      (square, cone_over(square)),
                      (disk, lorentz_cone(3))):
        P = cone.embed(dom.sample_interior(rng, 60, pull=0.02))
        d = cone_distances(cone, P[0::2], P[1::2])
        ref = [cone_distance(cone, x, y) for x, y in zip(P[0::2], P[1::2])]
        assert np.allclose(d, ref, rtol=1e-14, atol=0.0)
        assert np.array_equal(cone.contains_interior(P), np.ones(60, bool))
    orthant = cone_over(standard_simplex(2))
    with pytest.raises(XNotInteriorOfCone, match=r"y\[1\]"):
        cone_distances(orthant, np.ones((2, 3)),
                       [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    with pytest.raises(NonFinite):
        cone_distances(orthant, [[1.0, math.nan, 1.0]], [[1.0, 1.0, 1.0]])
    with pytest.raises(DegenerateInput):
        cone_distances(orthant, np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(DegenerateInput):
        orthant.min_scale(np.ones((2, 3)), np.ones(3))


# ------------------------------------------------------- batched checks

def test_isometry_check_matches_per_point_reference():
    s2, s3 = standard_simplex(2), standard_simplex(3)
    square = HilbertSpace(build_polytope(SQUARE))
    cases = [(HilbertSpace(s2), WSpace(2), clr),
             (HilbertSpace(s3), WSpace(3), clr),
             (HilbertSpace(s2), HilbertSpace(s2), reciprocal_map),
             (HilbertSpace(s3), HilbertSpace(s3), reciprocal_map),
             (square, square, ROTATE)]
    for src, dst, f in cases:
        got = sampled_isometry_check(src, dst, f, np.random.default_rng(43),
                                     samples=80)
        want = reference_isometry_check(src, dst, f,
                                        np.random.default_rng(43), 80)
        assert abs(got - want) <= 1e-12


def test_projectivity_check_matches_per_point_reference():
    s2 = standard_simplex(2)
    square = build_polytope(SQUARE)
    cases = [(s2, reciprocal_map),
             (s2, simplex_projective(np.diag([2.0, 1.0, 0.5]))),
             (square, bend), (square, ROTATE)]
    for dom, f in cases:
        got = projectivity_check(dom, f, np.random.default_rng(44))
        want = reference_projectivity_check(dom, f,
                                            np.random.default_rng(44))
        assert abs(got - want) <= 1e-12
    assert projectivity_check(square, bend, np.random.default_rng(44)) > 0.1


def test_focusing_probe_matches_per_point_reference():
    s2 = standard_simplex(2)
    target = np.array([1.0, 0.0, 0.0])
    starts = [np.array([1 / 3, 1 / 3, 1 / 3]), np.array([0.2, 0.6, 0.2]),
              np.array([0.2, 0.2, 0.6]), np.array([0.5, 0.1, 0.4])]
    square = build_polytope(SQUARE)
    cases = [(s2, reciprocal_map, target, starts),
             (s2, simplex_projective(np.diag([2.0, 1.0, 0.7])), target,
              starts),
             (square, ROTATE, np.array([1.0, 0.2]),
              [np.array([0.0, 0.0]), np.array([-0.5, 0.7])])]
    for dom, f, tgt, st in cases:
        got = focusing_probe(dom, f, tgt, st)
        limits, spread = reference_focusing_probe(dom, f, tgt, st)
        assert np.abs(got.limits - limits).max() <= 1e-12
        assert abs(got.spread - spread) <= 1e-12


def test_maps_of_the_wrong_shape_are_rejected():
    s2 = standard_simplex(2)
    space = HilbertSpace(s2)
    rng = np.random.default_rng(45)
    with pytest.raises(DegenerateInput):
        sampled_isometry_check(space, space, lambda P: P[0], rng, samples=5)
    with pytest.raises(DegenerateInput):
        sampled_isometry_check(space, space, lambda P: P[:-1], rng,
                               samples=5)
    with pytest.raises(DegenerateInput):
        projectivity_check(s2, lambda P: P.sum(axis=1), rng, samples=5)
    with pytest.raises(DegenerateInput):
        focusing_probe(s2, lambda P: P[None], np.array([1.0, 0.0, 0.0]),
                       [np.array([1 / 3, 1 / 3, 1 / 3]),
                        np.array([0.2, 0.6, 0.2])])


def test_focusing_probe_rejects_an_immediate_escape():
    s2 = standard_simplex(2)
    with pytest.raises(GeometryError):
        focusing_probe(s2, lambda P: P + 1.0, np.array([1.0, 0.0, 0.0]),
                       [np.array([1 / 3, 1 / 3, 1 / 3]),
                        np.array([0.2, 0.6, 0.2])])


@pytest.mark.parametrize("scale", [1e-7, 1e-9])
def test_projectivity_check_at_small_scale(scale):
    """Pairs are skipped relative to the domain's extent, not below an
    absolute 1e-6 (which skipped every pair at these scales and reported
    any map projective)."""
    unit = build_polytope(SQUARE)
    small = build_polytope(SQUARE * scale)
    want = projectivity_check(unit, bend, np.random.default_rng(46))
    assert want > 0.2
    got = projectivity_check(small, lambda P: scale * bend(P / scale),
                             np.random.default_rng(46))
    assert abs(got - want) <= 1e-9 * want
    g = ProjectiveMap(np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.0],
                                [0.3, 0.2, 1.5]]))
    assert projectivity_check(small, lambda P: scale * g(P / scale),
                              np.random.default_rng(46)) < 1e-10
