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
    cone = cone_over(standard_simplex(2))
    assert cone.contains_interior([1.0, 2.0, 3.0])
    assert not cone.contains_interior([1.0, 0.0, 3.0])
    with pytest.raises(XNotInteriorOfCone):
        cone.min_scale([1.0, 0.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(XNotInteriorOfCone):
        cone_distance(cone, [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0])


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
