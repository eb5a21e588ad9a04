"""Cone construction, the order metric, and slice consistency."""

import math

import numpy as np
import pytest

from hilbertgeo import (
    build_cone,
    build_ellipsoid,
    build_polytope,
    cone_distance,
    cone_over,
    distance,
    lorentz_cone,
    standard_simplex,
)
from hilbertgeo.errors import DegenerateInput, Unsupported, XNotInteriorOfCone


def test_orthant_from_simplex():
    cone = cone_over(standard_simplex(2))
    assert not cone.lifted
    assert cone.functionals.shape == (3, 3)
    assert abs(cone_distance(cone, [2.0, 1.0, 1.0], [1.0, 1.0, 1.0])
               - math.log(2.0)) < 1e-12


def test_min_scale_on_orthant():
    cone = cone_over(standard_simplex(2))
    # smallest lambda with lambda*x - y in the closed cone
    assert abs(cone.min_scale([2.0, 1.0, 1.0], [1.0, 1.0, 1.0]) - 1.0) < 1e-12
    assert abs(cone.min_scale([1.0, 1.0, 1.0], [2.0, 1.0, 1.0]) - 2.0) < 1e-12
    assert abs(cone.min_scale([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) - 1.0) < 1e-12


def test_square_cone_is_lifted():
    square = build_polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    cone = cone_over(square)
    assert cone.lifted
    assert cone.dim == 3
    assert len(cone.functionals) == 4
    assert np.allclose(cone.embed([0.25, -0.5]), [0.25, -0.5, 1.0])


def test_cone_over_rejects_ellipsoids():
    with pytest.raises(Unsupported):
        cone_over(build_ellipsoid([0, 0], np.eye(2)))


def test_build_cone_rejects_flat_and_unpointed():
    with pytest.raises(DegenerateInput):
        build_cone([[1, 0, 0], [0, 1, 0]])  # does not span R^3
    with pytest.raises(DegenerateInput):
        build_cone([[1, 0], [-1, 0], [0, 1]])  # contains a line


def test_interior_membership():
    """The orthant over the n-simplex is build_cone's over its vertices:
    every functional is an exact multiple of a unit vector, so no point
    with a zero coordinate reads as interior."""
    for n in range(2, 8):
        cone = cone_over(standard_simplex(n))
        assert not cone.lifted
        for row in cone.functionals:
            assert np.count_nonzero(row) == 1 and row.max() > 0.0
        x, y = np.arange(1.0, n + 2), np.ones(n + 1)
        assert cone.contains_interior(x)
        x[1] = 0.0
        assert not cone.contains_interior(x)
        with pytest.raises(XNotInteriorOfCone):
            cone.min_scale(x, y)
        with pytest.raises(XNotInteriorOfCone):
            cone_distance(cone, x, y)
        with pytest.raises(XNotInteriorOfCone):
            cone_distance(cone, y, -x)
        rng = np.random.default_rng(0)
        boundary = []
        for _ in range(200):
            p = rng.uniform(0.5, 3.0, n + 1)
            p[rng.integers(n + 1)] = 0.0
            boundary.append(p)
        assert not cone.contains_interior(np.array(boundary)).any()
    with pytest.raises(XNotInteriorOfCone):
        cone_distance(cone_over(standard_simplex(3)), [1.0, 0.0, 3.0, 1.0],
                      np.ones(4))


def test_cone_over_refuses_embedded_domains_it_cannot_span():
    triangle = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    with pytest.raises(Unsupported):
        cone_over(build_polytope(np.array(triangle) + [0, 0, 0, 1]))
    # a triangle about the origin: its affine hull passes through it
    with pytest.raises(DegenerateInput, match="do not span"):
        cone_over(build_polytope([[1, 0, 0], [0, 1, 0], [-1, -1, 0]]))


def test_lorentz_min_scale_is_exact_under_powers_of_two():
    """min_scale brings each point to x_1 in [1/2, 1) by a power of two,
    so x at 2^500 or 2^-500, whose squares would overflow or underflow,
    reads 2^-k times the unit answer, with no warning."""
    lor = lorentz_cone(3)
    x, y = np.array([1.0, 0.2, 0.1]), np.array([1.5, -0.3, 0.2])
    for a, b in ((x, y), (y, x), (3.0 * x, 0.7 * y)):
        unit = lor.min_scale(a, b)
        for k in (500, -500):
            got = lor.min_scale(np.ldexp(a, k), b)
            assert abs(got - math.ldexp(unit, -k)) <= 1e-15 * math.ldexp(
                unit, -k)
            assert lor.min_scale(a, np.ldexp(b, k)) == math.ldexp(unit, k)
    for s in (1e160, 1e-170):
        assert lor.min_scale(s * x, y) * s == pytest.approx(
            lor.min_scale(x, y), rel=1e-14)


def test_lorentz_known_scales():
    lor = lorentz_cone(3)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([1.0, 0.5, 0.0])
    assert abs(lor.min_scale(x, y) - 1.5) < 1e-12
    assert abs(lor.min_scale(y, x) - 2.0) < 1e-12
    assert abs(cone_distance(lor, x, y) - math.log(3.0)) < 1e-12
    assert lor.contains_interior([2.0, 1.0, 1.0])
    assert not lor.contains_interior([1.0, 1.0, 0.1])


def test_scale_invariance_of_cone_metric():
    cone = cone_over(standard_simplex(2))
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = np.exp(rng.normal(size=3))
        y = np.exp(rng.normal(size=3))
        s, t = np.exp(rng.normal(size=2))
        assert abs(cone_distance(cone, s * x, t * y)
                   - cone_distance(cone, x, y)) < 1e-12


def test_slice_reproduces_domain_metric():
    simplex = standard_simplex(2)
    orthant = cone_over(simplex)
    square = build_polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    sq_cone = cone_over(square)
    disk = build_ellipsoid([0, 0], np.eye(2))
    lor = lorentz_cone(3)
    rng = np.random.default_rng(4)
    for dom, cone in ((simplex, orthant), (square, sq_cone), (disk, lor)):
        for _ in range(100):
            x, y = dom.sample_interior(rng, 2, pull=0.02)
            assert abs(cone_distance(cone, cone.embed(x), cone.embed(y))
                       - distance(dom, x, y)) < 1e-10


def _accepted(cone, x, y):
    try:
        cone_distance(cone, x, y)
    except XNotInteriorOfCone:
        return False
    return True


def test_interior_test_reads_points_as_cone_distance_accepts_them():
    # points within a few ulp of the boundary: ray ends from the centroid
    # of a polygon times 1 +- 2^-52 and 1 - 2^-50 on the cone over it, and
    # points 1 +- 2^-52 off the Lorentz cone's boundary; contains_interior
    # of a point, or of a row of a stack, says what cone_distance accepts,
    # as x and as y
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(12):
        th = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(3, 12))))
        V = np.c_[np.cos(th), np.sin(th)] * rng.uniform(0.5, 3.0)
        dom = build_polytope(V + 3.0 * rng.normal(size=2))
        cone, c = cone_over(dom), dom.centroid()
        for _ in range(8):
            e = dom.ray(c, rng.normal(size=2)).endpoint
            for f in (1 + 2.0 ** -52, 1 - 2.0 ** -52, 1 - 2.0 ** -50):
                cases.append((cone, cone.embed(c + (e - c) * f),
                              cone.embed(c)))
    for n in (3, 4):
        cone = lorentz_cone(n)
        for _ in range(100):
            u = rng.normal(size=n - 1)
            for f in (1 + 2.0 ** -52, 1 - 2.0 ** -52, 1 - 2.0 ** -50):
                p = np.r_[1.0, u / np.linalg.norm(u) * f] * rng.uniform(0.5, 3)
                cases.append((cone, p, np.r_[1.0, np.zeros(n - 1)]))
    inside = 0
    for cone, p, y in cases:
        got = cone.contains_interior(p)
        assert got == bool(cone.contains_interior(np.array([p, y]))[0])
        assert got == _accepted(cone, p, y) == _accepted(cone, y, p)
        inside += got
    assert 0 < inside < len(cases)
