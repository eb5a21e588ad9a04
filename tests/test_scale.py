"""Answers that do not change when the input is scaled and translated.

The Hilbert metric is unchanged by projective maps, and x -> s (x + tau)
is one.  Every domain is stored in its unit chart, so every tolerance is
a fraction of the domain's size, and the face lattice, distances, chord
rigidity and plane classification must come out the same at every scale.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeo import (
    asymptotic_profile,
    build_cone,
    build_ellipsoid,
    build_polytope,
    classify_2d,
    cone_distances,
    distance,
    distances,
    is_rigid_chord,
    standard_simplex,
)
from hilbertgeo.errors import GeometryError, PointNotInterior

SCALES = (1e-9, 1e-7, 1e-6, 1e3, 1e9, 1e12)
CUBE = np.array(list(itertools.product((0.0, 1.0), repeat=3)))


def polygon(rng):
    """A random convex 3- to 8-gon: points on a tilted ellipse."""
    m = int(rng.integers(3, 9))
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    E = np.c_[np.cos(th), rng.uniform(0.3, 1.0) * np.sin(th)]
    c, s = np.cos(th[0]), np.sin(th[0])
    return E @ np.array([[c, s], [-s, c]])


def interior(rng, V, k=1):
    """k points of the open hull of V, away from its boundary."""
    w = rng.dirichlet(np.ones(len(V)), size=k)
    return 0.7 * (w @ V) + 0.3 * V.mean(axis=0)


def outcome(f, *args):
    """f's result, or the type of the GeometryError it raised."""
    try:
        return f(*args)
    except GeometryError as exc:
        return type(exc)


def f_vector(P):
    return build_polytope(P).face_lattice().counts()


def chord_answers(P, x, y):
    """The distance and the rigidity verdict of a chord through x, y."""
    dom = build_polytope(P)
    return distance(dom, x, y), is_rigid_chord(dom, x, y).rigid


def test_scale_table_reads_zero_in_every_row():
    """The f-vector of a 12-point cloud in R^3, and the distance (relative
    1e-9) and rigidity verdict of a chord of a 3- to 8-gon, built at unit
    scale and at scale s; a raise counts as wrong."""
    rng = np.random.default_rng(2)
    table = {}
    for s in SCALES:
        wrong = [0, 0, 0]
        for _ in range(30):
            P = rng.normal(size=(12, 3))
            wrong[0] += outcome(f_vector, P * s) != f_vector(P)
            V = polygon(rng)
            x, y = interior(rng, V, 2)
            d, rigid = chord_answers(V, x, y)
            got = outcome(chord_answers, V * s, x * s, y * s)
            if not isinstance(got, tuple):
                wrong[1] += 1
                wrong[2] += 1
                continue
            wrong[1] += not abs(got[0] - d) <= 1e-9 * d
            wrong[2] += got[1] != rigid
        table[s] = wrong
    assert all(w == [0, 0, 0] for w in table.values()), table


def test_random_affine_cubes_keep_their_lattice_at_large_scale():
    for s in (1e9, 1e12):
        wrong = 0
        for seed in range(100):
            M = np.random.default_rng(seed).normal(size=(4, 3))
            got = outcome(f_vector, (CUBE @ M[:3] + M[3]) * s)
            wrong += got != {0: 8, 1: 12, 2: 6}
        assert wrong == 0, (s, wrong)


def test_extreme_scales_build_and_read_the_boundary():
    cube = build_polytope((CUBE - 0.5) * 1e-10)
    assert cube.face_lattice().counts() == {0: 8, 1: 12, 2: 6}
    disk = build_ellipsoid([0.0, 0.0], 1e-12 * np.eye(2))
    unit = build_ellipsoid([0.0, 0.0], np.eye(2))
    x, y = np.array([-0.5, 0.0]), np.array([0.5, 0.1])
    assert distance(disk, x * 1e-6, y * 1e-6) == pytest.approx(
        distance(unit, x, y), rel=1e-12)
    assert disk.boundary_face_of([0.0, 1e-6]).point_key == \
        unit.boundary_face_of([0.0, 1.0]).point_key
    # 1e-3 of the size outside and inside a cube at 1e-8
    cube = build_polytope((CUBE - 0.5) * 1e-8)
    assert not cube.on_boundary([0.5e-8 * (1 + 2e-3), 0.0, 0.0])
    assert cube.contains_interior([0.5e-8 * (1 - 2e-3), 0.0, 0.0])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s", [1e-8, 1e-10])
def test_embedded_simplex_far_from_the_origin_reads_its_own_points(n, s):
    """standard_simplex(n) shrunk by s about its centroid lies about 1/s
    of its size from the origin, so each coordinate of its points rounds
    by more than eps of the size off its affine hull.  The hull rule
    allows that round-off: the domain accepts its sampled points and its
    vertices, and its distances are the unit simplex's at the same
    barycentric points.  A point farther off than eps plus that allowance
    is still refused, and hull_residual reads the raw distance."""
    unit = standard_simplex(n)
    c = unit.vertices.mean(axis=0)
    dom = build_polytope(c + s * (unit.vertices - c))
    rng = np.random.default_rng(1)
    pairs = np.array([dom.sample_interior(rng, 2, pull=0.05)
                      for _ in range(200)])
    assert dom.contains_interior(pairs[:, 0]).all()
    assert np.isfinite(distances(dom, pairs[:, 0], pairs[:, 1])).all()
    for v in dom.vertices:
        assert dom.boundary_face_of(v).dim == 0
        dom.minimal_cone_at(v)
    rng = np.random.default_rng(1)
    B = np.array([unit.sample_interior(rng, 2, pull=0.05)
                  for _ in range(200)])
    want = distances(unit, B[:, 0], B[:, 1])
    got = distances(dom, c + s * (B[:, 0] - c), c + s * (B[:, 1] - c))
    assert np.allclose(got, want, rtol=1e-6 if s == 1e-8 else 1e-4, atol=0)
    # 10 times eps plus the round-off allowance off the hull
    x = pairs[0, 0]
    allowance = 64 * np.finfo(float).eps * np.abs(x).max() / dom._size
    step = 10 * (1e-9 + allowance) * dom._size
    off = x + step * np.ones(n + 1) / np.sqrt(n + 1)
    with pytest.raises(PointNotInterior, match="is off the affine hull"):
        distance(dom, off, pairs[0, 1])
    assert not dom.contains_interior(off)
    assert dom.hull_residual(off) == pytest.approx(step, rel=0.05)


def test_asymptotic_profile_modes_are_scale_free():
    square = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    x0 = np.array([0.5, 0.0])
    cases = [(x0 + [0.0, 0.2], [1.0, 0.0], [1.0, 0.5], "parallel"),
             (x0 + [0.0, 0.2], [1.0, 0.0], [1.0, 0.0], "same-point"),
             ([0.0, 0.2], [1.0, 0.0], [-1.0, 0.5], "divergent")]
    for s in (1e-9, 1.0, 1e9):
        dom = build_polytope(square * s)
        for y0, a1, a2, mode in cases:
            got = asymptotic_profile(dom, x0 * s, np.multiply(y0, s),
                                     np.multiply(a1, s), np.multiply(a2, s),
                                     steps=8)
            assert got.mode == mode


def test_small_cones_build():
    G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0],
                  [0.0, -1.0, 1.0]])
    x, y = np.array([0.1, 0.2, 1.0]), np.array([-0.3, 0.1, 1.0])
    want = cone_distances(build_cone(G), x, y)
    for s in (1e-10, 1e10):
        assert np.allclose(cone_distances(build_cone(G * s), x, y), want,
                           rtol=1e-12, atol=0.0)


def test_repeated_cone_generators_are_one_ray():
    """A generator repeated with a relative jitter of 1e-13 gives the
    cone of the generators without the repeat."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        G = rng.normal(size=(int(rng.integers(4, 9)), 3))
        G[:, 2] = np.abs(G[:, 2]) + 0.5  # rays around the third axis
        X = (rng.dirichlet(np.ones(len(G)), size=4) @ G) * rng.uniform(
            0.5, 2.0, size=(4, 1))
        want = cone_distances(build_cone(G), X[:2], X[2:])
        k = int(rng.integers(len(G)))
        twin = G[k] * (1.0 + 1e-13 * rng.normal(size=3))
        got = cone_distances(build_cone(np.vstack([G, twin])), X[:2], X[2:])
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def test_join_regions_at_small_scale():
    """On opposite-face pairs of random 8-point clouds in R^3, a point
    whose vertex weights are all >= 1e-3 lies in the join, at scales
    down to 1e-8."""
    rng = np.random.default_rng(5)
    clouds = [rng.normal(size=(8, 3)) for _ in range(4)]
    for s in (1e-6, 1e-8):
        tried = 0
        for P in clouds:
            dom = build_polytope(P * s)
            faces = dom.face_lattice().faces
            for fa, fb in itertools.combinations(faces, 2):
                if not dom.opposite_faces(fa, fb) or rng.uniform() > 0.5:
                    continue
                V = np.vstack([fa.vertices, fb.vertices])
                n = len(V)
                w = 1e-3 + (1.0 - 1e-3 * n) * rng.dirichlet(np.ones(n))
                assert dom.join_region(fa, fb)(w @ V)
                tried += 1
        assert tried >= 170


# ------------------------------------------------ invariance properties

def similarity(e, tau, d):
    """x -> s (x + tau) with s = 10^e, and tau cut to length <= 10."""
    t = np.asarray(tau[:d], dtype=float)
    length = float(np.linalg.norm(t))
    if length > 10.0:
        t *= 10.0 / length
    return lambda P: 10.0 ** e * (np.asarray(P) + t)


exponents = st.floats(-9.0, 12.0)
shifts = st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4)
seeds = st.integers(0, 2**32 - 1)
settled = settings(max_examples=60, deadline=None, derandomize=True)


@settled
@given(e=exponents, tau=shifts, seed=seeds, d=st.integers(2, 4),
       count=st.integers(5, 15))
def test_lattice_f_vector_is_invariant(e, tau, seed, d, count):
    P = np.random.default_rng(seed).normal(size=(count, d))
    f = similarity(e, tau, d)
    assert f_vector(f(P)) == f_vector(P)


@settled
@given(e=exponents, tau=shifts, seed=seeds)
def test_distance_and_rigidity_are_invariant(e, tau, seed):
    rng = np.random.default_rng(seed)
    V = polygon(rng)
    x, y = interior(rng, V, 2)
    # a chord through a vertex, which is rigid, and a generic one
    v = V[int(rng.integers(len(V)))]
    f = similarity(e, tau, 2)
    for a, b in ((x, y), (0.5 * (v + V.mean(axis=0)), V.mean(axis=0))):
        d, rigid = chord_answers(V, a, b)
        got_d, got_rigid = chord_answers(f(V), f(a), f(b))
        assert got_d == pytest.approx(d, rel=1e-9)
        assert got_rigid == rigid


@settled
@given(e=exponents, tau=shifts, seed=seeds, d=st.integers(2, 4))
def test_minimal_cone_is_invariant(e, tau, seed, d):
    """minimal_cone_at reads its base off the facets that bind the ray
    from the centroid, so apex and base come out the same at every scale,
    on a random cloud and on an affine cube, where that ray ends exactly
    at the vertex opposite the apex."""
    rng = np.random.default_rng(seed)
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    f = similarity(e, tau, d)
    for P in (rng.normal(size=(int(rng.integers(d + 2, 12)), d)),
              cube @ (np.eye(d) + 0.3 * rng.normal(size=(d, d)))):
        dom, img = build_polytope(P), build_polytope(f(P))
        assert np.allclose(f(dom.vertices), img.vertices, rtol=1e-9,
                           atol=1e-9 * 10.0 ** e)
        for i in rng.choice(len(dom.vertices), 3, replace=False):
            want = dom.minimal_cone_at(dom.vertices[i])
            got = img.minimal_cone_at(img.vertices[i])
            assert (got.apex_face, got.base) == (want.apex_face, want.base)


@settled
@given(e=exponents, tau=shifts, e2=exponents, tau2=shifts, seed=seeds)
def test_classify_2d_verdict_is_invariant(e, tau, e2, tau2, seed):
    rng = np.random.default_rng(seed)
    V = polygon(rng)
    H = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    H[2] = [*(0.3 * rng.uniform(-1.0, 1.0, 2)), 1.0]
    h = np.c_[V, np.ones(len(V))] @ H.T
    image = h[:, :2] / h[:, 2:]
    other = polygon(rng)
    fa, fb = similarity(e, tau, 2), similarity(e2, tau2, 2)
    for B in (image, other):
        want = classify_2d(build_polytope(V), build_polytope(B)).verdict
        got = classify_2d(build_polytope(fa(V)), build_polytope(fb(B)))
        assert got.verdict == want


def projective_map(rng, d, P=None, ellipse=None):
    """A random projective map x -> (A x + t) / (h.x + h0) of R^d, as its
    (d + 1) x (d + 1) matrix, whose denominator keeps one sign, with its
    least size at least 0.2 of its largest, on the points P or on the
    ellipse (c, S): the image of their hull is then bounded."""
    while True:
        H = np.eye(d + 1) + 0.3 * rng.normal(size=(d + 1, d + 1))
        H[d] = [*(0.4 * rng.uniform(-1.0, 1.0, d)), 1.0]
        h, h0 = H[d, :d], H[d, d]
        if P is not None:
            den = P @ h + h0
            lo, hi = np.abs(den).min(), np.abs(den).max()
            if den.min() * den.max() > 0.0 and lo >= 0.2 * hi:
                return H
        else:  # the denominator spans m -+ r on the ellipse
            c, S = ellipse
            m, r = abs(h @ c + h0), float(np.sqrt(h @ S @ h))
            if m - r >= 0.2 * (m + r):
                return H


def apply_map(H, P):
    h = np.c_[P, np.ones(len(P))] @ H.T
    return h[:, :-1] / h[:, -1:]


@settled
@given(seed=seeds)
def test_distance_is_invariant_under_projective_maps(seed):
    """d(f(x), f(y)) on f(K) equals d(x, y) on K, relative 1e-9, for
    projective maps f that keep K bounded: polygons and 3-polytopes map
    their vertices, ellipses their quadric, to H^-T Q H^-1."""
    def assert_invariant(dom, image, H, X):
        fX = apply_map(H, X)
        for i, j in ((0, 1), (2, 3)):
            assert distance(image, fX[i], fX[j]) == pytest.approx(
                distance(dom, X[i], X[j]), rel=1e-9)

    rng = np.random.default_rng(seed)
    for V in (polygon(rng), rng.normal(size=(int(rng.integers(5, 13)), 3))):
        dom = build_polytope(V)
        V = dom.vertices
        H = projective_map(rng, V.shape[1], P=V)
        assert_invariant(dom, build_polytope(apply_map(H, V)), H,
                         interior(rng, V, 4))
    c = rng.normal(size=2)
    Qr = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    S = Qr @ np.diag(rng.uniform(0.2, 2.0, 2)) @ Qr.T
    dom = build_ellipsoid(c, S)
    H = projective_map(rng, 2, ellipse=(c, S))
    Si = np.linalg.inv(S)
    Q = np.block([[Si, -(Si @ c)[:, None]], [-(Si @ c)[None, :],
                                              np.array([[c @ Si @ c - 1.0]])]])
    Hi = np.linalg.inv(H)
    Qf = Hi.T @ Q @ Hi  # the image quadric, negative inside
    A, b, g = Qf[:2, :2], Qf[:2, 2], Qf[2, 2]
    cf = -np.linalg.solve(A, b)
    image = build_ellipsoid(cf, (b @ -cf - g) * np.linalg.inv(A))
    assert_invariant(dom, image, H, dom.sample_interior(rng, 4, pull=0.05))
