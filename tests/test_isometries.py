"""Projective maps, the simplex chart, star maps, focusing, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertgeo import (
    HilbertSpace,
    ProjectiveMap,
    WSpace,
    axis_coords,
    axis_coords_inv,
    build_ellipsoid,
    build_polytope,
    classify_2d,
    clr,
    clr_inv,
    distance,
    distances,
    fit_projective,
    focusing_probe,
    is_cone_3d,
    projectivity_check,
    reciprocal_map,
    sampled_isometry_check,
    simplex_projective,
    standard_simplex,
    variation_norm,
    vinberg_star,
    w_basis,
)
from hilbertgeo.errors import (
    DegenerateBasis,
    DegenerateInput,
    GeometryError,
    ImageEscapedDomain,
    NotInSimplex,
    PointAtInfinity,
    Unsupported,
)

SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]


def square():
    return build_polytope(SQUARE)


def test_projective_map_roundtrip():
    M = np.array([[2.0, 1.0, 0.5], [0.0, 1.5, -0.2], [0.3, 0.0, 1.0]])
    g = ProjectiveMap(M)
    p = np.array([0.3, -0.4])
    assert np.allclose(g.inverse()(g(p)), p, atol=1e-12)
    assert np.allclose(g.compose(g.inverse())(p), p, atol=1e-12)


def test_projective_map_point_at_infinity():
    g = ProjectiveMap(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                [1.0, 0.0, 0.0]]))
    with pytest.raises(PointAtInfinity):
        g(np.array([0.0, 5.0]))


def test_projective_map_applies_at_any_scale():
    # the infinity test compares the last homogeneous coordinate with the
    # terms that make it, so a map fitted at 1e12 or 1e15 applies
    rng = np.random.default_rng(3)
    src = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dst = np.array([[0.0, 0.0], [3.0, 0.0], [2.5, 2.0], [-0.5, 1.5]])
    for S, T in ((src, dst), rng.normal(size=(2, 4, 2)),
                 rng.normal(size=(2, 5, 3))):
        for s in (1e-9, 1.0, 1e12, 1e15):
            g = fit_projective(S * s, T * s)
            assert np.abs(g.apply(S * s) - T * s).max() <= 1e-14 * s
            # a point on the hyperplane the map sends to infinity
            a, c = g.matrix[-1, :-1], g.matrix[-1, -1]
            with pytest.raises(PointAtInfinity):
                g(-c * a / (a @ a))


def test_fit_projective_recovers_a_map():
    M = np.array([[1.2, -0.3, 0.4], [0.2, 0.9, -0.1], [0.05, 0.1, 1.0]])
    g = ProjectiveMap(M)
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.4, 0.3]])
    dst = np.array([g(p) for p in src])
    h = fit_projective(src, dst)
    assert np.allclose(h.matrix, g.matrix, atol=1e-9)


def test_fit_projective_square_to_trapezoid_diagonal_point():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dst = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    g = fit_projective(src, dst)
    # diagonal intersections correspond: (1/2, 1/2) -> (2/3, 2/3)
    assert np.allclose(g([0.5, 0.5]), [2 / 3, 2 / 3], atol=1e-12)


def test_fit_projective_rejects_degenerate_configurations():
    with pytest.raises(DegenerateBasis):
        fit_projective(np.array([[0, 0], [1, 0], [2, 0], [1, 1.0]]),
                       np.array([[0, 0], [1, 0], [0, 1], [1, 1.0]]))
    with pytest.raises(DegenerateBasis):
        fit_projective(np.array([[0, 0], [1, 0], [0, 1]]),
                       np.array([[0, 0], [1, 0], [0, 1.0]]))


def test_clr_known_value_and_roundtrip():
    theta = clr([0.5, 0.25, 0.25])
    assert np.allclose(theta, np.array([2 / 3, -1 / 3, -1 / 3]) * math.log(2),
                       atol=1e-15)
    assert abs(theta.sum()) < 1e-15
    assert np.allclose(clr_inv(theta), [0.5, 0.25, 0.25], atol=1e-15)
    with pytest.raises(NotInSimplex):
        clr([0.5, 0.5, 0.0])
    with pytest.raises(NotInSimplex):
        clr([0.5, 0.2, 0.2])


@settings(max_examples=60, deadline=None)
@given(a=st.floats(min_value=0.05, max_value=10.0),
       b=st.floats(min_value=0.05, max_value=10.0),
       c=st.floats(min_value=0.05, max_value=10.0))
def test_clr_roundtrip_property(a, b, c):
    x = np.array([a, b, c])
    x = x / x.sum()
    assert np.allclose(clr_inv(clr(x)), x, atol=1e-12)


def test_chart_is_isometry():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        dev = sampled_isometry_check(HilbertSpace(standard_simplex(n)),
                                     WSpace(n), clr, rng, samples=200)
        assert dev < 1e-11


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=3,
                max_size=6))
def test_variation_norm_is_seminorm_on_constants(vals):
    theta = np.array(vals)
    assert variation_norm(theta + 2.5) == pytest.approx(
        variation_norm(theta), abs=1e-12)
    assert variation_norm(theta) >= 0.0


def test_axis_coords_roundtrip():
    V = w_basis(2)
    assert np.allclose(V.sum(axis=0), 0.0, atol=1e-15)
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(size=2)
        assert np.allclose(axis_coords(axis_coords_inv(a)), a, atol=1e-12)


def test_reciprocal_is_an_involutive_isometry():
    rng = np.random.default_rng(6)
    s2 = standard_simplex(2)
    assert np.allclose(reciprocal_map([0.5, 0.25, 0.25]), [0.2, 0.4, 0.4],
                       atol=1e-15)
    for _ in range(50):
        x = s2.sample_interior(rng, 1, pull=0.01)
        assert np.allclose(reciprocal_map(reciprocal_map(x)), x, atol=1e-13)
    dev = sampled_isometry_check(HilbertSpace(s2), HilbertSpace(s2),
                                 reciprocal_map, rng, samples=150)
    assert dev < 1e-11


def test_reciprocal_is_not_projective():
    rng = np.random.default_rng(17)
    res = projectivity_check(standard_simplex(2), reciprocal_map, rng)
    assert res > 1e-3


def test_projective_maps_pass_the_projectivity_check():
    rng = np.random.default_rng(18)
    g = simplex_projective(np.diag([2.0, 1.0, 0.5]))
    assert projectivity_check(standard_simplex(2), g, rng) < 1e-10


def test_simplex_projective_validates():
    with pytest.raises(DegenerateInput):
        simplex_projective(np.zeros((3, 3)))
    g = simplex_projective(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ImageEscapedDomain):
        g([1 / 3, 1 / 3, 1 / 3])


def test_simplex_projective_singularity_is_scale_free():
    """The singular-value ratio decides, as ProjectiveMap's does: the
    identity at 1e-5 is a map, and a matrix of condition 4e13 is singular
    at any scale."""
    x = np.array([0.2, 0.3, 0.5])
    assert simplex_projective(1e-5 * np.eye(3))(x).tolist() == x.tolist()
    for scale in (1e-6, 1.0, 1e6):
        with pytest.raises(DegenerateInput, match="singular"):
            simplex_projective(np.diag([1.0, 1.0, 2.5e-14]) * scale)
    with pytest.raises(DegenerateInput):
        simplex_projective(np.zeros((0, 0)))


def test_focusing_distinguishes_the_reciprocal():
    s2 = standard_simplex(2)
    target = np.array([1.0, 0.0, 0.0])
    starts = [np.array([1 / 3, 1 / 3, 1 / 3]), np.array([0.2, 0.6, 0.2]),
              np.array([0.2, 0.2, 0.6])]
    bad = focusing_probe(s2, reciprocal_map, target, starts)
    assert not bad.focused
    assert bad.spread > 0.1
    g = simplex_projective(np.diag([2.0, 1.0, 0.7]))
    good = focusing_probe(s2, g, target, starts)
    assert good.focused
    assert good.spread < 1e-3


def test_focusing_needs_two_starts():
    with pytest.raises(DegenerateInput):
        focusing_probe(standard_simplex(2), reciprocal_map,
                       np.array([1.0, 0.0, 0.0]),
                       [np.array([1 / 3, 1 / 3, 1 / 3])])


def test_vinberg_star_orthant_matches_reciprocal_slice():
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = np.exp(rng.normal(size=3))
        star = vinberg_star("orthant", x)
        assert np.allclose(star / star.sum(), reciprocal_map(x / x.sum()),
                           atol=1e-13)
    assert np.allclose(vinberg_star("orthant", vinberg_star("orthant",
                                                            np.array([2.0, 5.0, 0.5]))),
                       [2.0, 5.0, 0.5], atol=1e-13)


def test_vinberg_star_lorentz_is_the_antipode_on_the_slice():
    star = vinberg_star("lorentz", np.array([2.0, 1.0, 0.0]))
    assert np.allclose(star / star[0], [1.0, -0.5, 0.0], atol=1e-15)
    rng = np.random.default_rng(24)
    disk = build_ellipsoid([0, 0], np.eye(2))
    for _ in range(50):
        p = disk.sample_interior(rng, 1, pull=0.01)
        z = vinberg_star("lorentz", np.concatenate([[1.0], p]))
        assert np.allclose(z[1:] / z[0], -p, atol=1e-13)
    with pytest.raises(DegenerateInput):
        vinberg_star("lorentz", np.array([1.0, 2.0, 0.0]))
    with pytest.raises(Unsupported):
        vinberg_star("cube", np.array([1.0, 1.0]))


def test_sampled_isometry_check_flags_escapes():
    dom = square()
    rng = np.random.default_rng(25)
    shift = lambda p: p + np.array([5.0, 0.0])
    with pytest.raises(ImageEscapedDomain):
        sampled_isometry_check(HilbertSpace(dom), HilbertSpace(dom),
                               shift, rng, samples=5)


def test_classifier_triangles_and_squares():
    rng = np.random.default_rng(26)
    tri = build_polytope([[0, 0], [1, 0], [0, 1]])
    tri2 = build_polytope([[0, 0], [2, 0], [0, 1]])
    out = classify_2d(tri, tri2, rng)
    assert out.verdict == "projectively-equivalent"
    assert out.max_deviation < 1e-7
    # the witness transports distances on ambient points
    x, y = np.array([0.2, 0.3]), np.array([0.5, 0.1])
    assert abs(distance(tri, x, y)
               - distance(tri2, out.apply_ambient(x), out.apply_ambient(y))) < 1e-10
    assert classify_2d(square(), tri, rng).verdict == "not-isometric"


def test_classifier_quadrilateral_and_ellipse():
    rng = np.random.default_rng(27)
    quad = build_polytope([[0, 0], [3, 0], [2.5, 2], [-0.5, 1.5]])
    out = classify_2d(square(), quad, rng)
    assert out.verdict == "projectively-equivalent"
    assert out.max_deviation < 1e-7
    disk = build_ellipsoid([0, 0], np.eye(2))
    ell = build_ellipsoid([0.3, -0.1], [[2.0, 0.3], [0.3, 0.5]])
    out = classify_2d(disk, ell, rng)
    assert out.verdict == "projectively-equivalent"
    assert out.max_deviation < 1e-7
    assert classify_2d(square(), disk, rng).verdict == "not-isometric"
    pent = build_polytope([[0, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 1]])
    assert classify_2d(square(), pent, rng).verdict == "not-isometric"


def test_classifier_needs_plane_domains():
    rng = np.random.default_rng(28)
    with pytest.raises(Unsupported):
        classify_2d(standard_simplex(3), square(), rng)


def test_is_cone_3d():
    pyr = build_polytope([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                          [0.5, 0.5, 1]])
    flag, apex, base = is_cone_3d(pyr)
    assert flag
    assert np.allclose(apex, [0.5, 0.5, 1.0])
    assert base.dim == 2
    cube = build_polytope([[sx, sy, sz] for sx in (0, 1)
                           for sy in (0, 1) for sz in (0, 1)])
    assert is_cone_3d(cube) == (False, None, None)
    tetra = standard_simplex(3)
    flag, apex, base = is_cone_3d(tetra)
    assert flag  # every simplex is a cone over a facet


# ------------------------------------------------ stacked candidate fits

def _frames(P):
    """Projective frames of a stack of d+2 point families in R^d: H has the
    first d+1 points of a family as homogeneous columns, and c holds the
    coefficients of the last point over them.  Also returns which
    families span (smallest singular value of H above 1e-10 of the
    largest) and which are in general position (spanning, with every
    coefficient above 1e-10 of the largest)."""
    K, _, d = P.shape
    H = np.concatenate([np.swapaxes(P[:, :d + 1], 1, 2),
                        np.ones((K, 1, d + 1))], axis=1)
    star = np.concatenate([P[:, d + 1], np.ones((K, 1))], axis=1)
    sv = np.linalg.svd(H, compute_uv=False)
    spans = sv[:, -1] > 1e-10 * sv[:, 0]
    c = np.linalg.solve(np.where(spans[:, None, None], H, np.eye(d + 1)),
                        star[..., None])[..., 0]
    a = np.abs(c)
    return H, c, spans, spans & (a.min(axis=1) > 1e-10 * a.max(axis=1))


def _unit_frames(P):
    """Unit-size copies of a stack of point families, each moved to
    centroid 0 and scaled to largest coordinate range 1, and the
    homogeneous matrices that carry each copy back onto its family."""
    d = P.shape[2]
    c = P.mean(axis=1)
    r = np.ptp(P, axis=1).max(axis=1)
    r = np.where(r > 0.0, r, 1.0)
    back = np.zeros((len(P), d + 1, d + 1))
    back[:, :d, :d] = r[:, None, None] * np.eye(d)
    back[:, :, d] = np.c_[c, np.ones(len(P))]
    return (P - c[:, None]) / r[:, None, None], back


def _normal_form(M):
    """A stack of matrices scaled to largest entry 1 in absolute value,
    with the first entry above 1e-12 positive: ProjectiveMap's normal
    form, taken on the whole stack in numpy."""
    top = np.abs(M).max(axis=(1, 2), keepdims=True)
    M = M / np.where(top > 0.0, top, 1.0)
    flat = M.reshape(len(M), -1)
    lead = flat[np.arange(len(M)), np.argmax(np.abs(flat) > 1e-12, axis=1)]
    return np.where((lead < 0)[:, None, None], -M, M)


def _fit_stack(S, T):
    """The stacked numpy fit, the reference for the float fit: the
    projective maps sending one family S of d+2 points in R^d to each
    family of a stack T, as a stack of matrices in ProjectiveMap's normal
    form, with a failure code per candidate: 0 for a map, else the key of
    fit_projective's _FIT_FAILURES for the first of its checks that fails
    (source frame, then target frame, then the matrix), the identity in
    its place.  The fit runs on _unit_frames copies, so no test depends
    on scale or place; S and T share one stack, [S; T], and each family's
    arithmetic is its own."""
    K = len(T)
    P, back = _unit_frames(np.concatenate([S[None], T]))
    H, c, spans, general = _frames(P)
    fail = np.where(general[1:], 0, np.where(spans[1:], 2, 1))
    if not general[0]:
        fail[:] = 2 if spans[0] else 1
    eye = np.eye(S.shape[1] + 1)
    M = np.broadcast_to(eye, (K,) + eye.shape)
    if general[0]:
        fit = (back[1:] @ (H[1:] * c[1:, None, :])
               @ np.linalg.inv(H[0] * c[0]) @ np.linalg.inv(back[0]))
        M = np.where((fail == 0)[:, None, None], fit, M)
    finite = np.isfinite(M).all(axis=(1, 2))
    fail[(fail == 0) & ~finite] = 3
    return _normal_form(np.where(finite[:, None, None], M, eye)), fail


def _reference_fit(S, T):
    """The per-candidate fit: fit_projective and ProjectiveMap's checks
    and normal form, one candidate at a time; None where they raise."""
    d = S.shape[1]

    def frame(P):
        H = np.vstack([P[: d + 1].T, np.ones(d + 1)])
        star = np.concatenate([P[d + 1], [1.0]])
        sv = np.linalg.svd(H, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            return None
        c = np.linalg.solve(H, star)
        if np.min(np.abs(c)) <= 1e-10 * np.max(np.abs(c)):
            return None
        return H, c

    fs, ft = frame(S), frame(T)
    if fs is None or ft is None:
        return None
    M = (ft[0] * ft[1]) @ np.linalg.inv(fs[0] * fs[1])
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        return None
    M = M / np.max(np.abs(M))
    flat = M.ravel()
    return -M if flat[np.nonzero(np.abs(flat) > 1e-12)[0][0]] < 0 else M


class _ReferenceMap:
    def __init__(self, M):
        self.matrix = M

    def apply(self, P):
        h = np.hstack([P, np.ones((len(P), 1))]) @ self.matrix.T
        h = h / np.max(np.abs(h), axis=1, keepdims=True)
        if np.any(np.abs(h[:, -1]) <= 1e-12):
            raise PointAtInfinity("image lies on the hyperplane at infinity")
        return h[:, :-1] / h[:, -1:]


def _reference_verify(dom_a, dom_b, cand, rng, samples=60):
    """Distance-preservation deviation of a local-chart candidate map over
    random pairs, drawn x, y, x, y, ... in one batch."""
    P = dom_a.sample_interior(rng, 2 * samples, pull=0.02)
    try:
        Q = dom_b.to_ambient(cand.apply(dom_a.to_local(P)))
        dev = np.abs(distances(dom_a, P[0::2], P[1::2])
                     - distances(dom_b, Q[0::2], Q[1::2]))
    except GeometryError:
        return math.inf
    return float(dev.max())


def _reference_classify(dom_a, dom_b, rng, tol=1e-7):
    """The sampled classifier on two polygons, as a loop over the 2m
    candidates: each fitted, checked on the vertices against an absolute
    tol, and accepted when random pairs keep their distances within tol."""
    va, _ = dom_a.polygon_vertices_local()
    vb, _ = dom_b.polygon_vertices_local()
    m = len(va)
    if len(vb) != m:
        return "not-isometric", None, math.inf
    for shift in range(m):
        for orient in (1, -1):
            w = vb[[(shift + orient * i) % m for i in range(m)]]
            if m == 3:
                M = _reference_fit(np.vstack([va, va.mean(axis=0)]),
                                   np.vstack([w, w.mean(axis=0)]))
            else:
                M = _reference_fit(va[:4], w[:4])
            if M is None:
                continue
            cand = _ReferenceMap(M)
            try:
                vert_dev = float(np.max(np.linalg.norm(cand.apply(va) - w,
                                                       axis=1)))
            except PointAtInfinity:
                continue
            if vert_dev > tol:
                continue
            dev = _reference_verify(dom_a, dom_b, cand, rng)
            if dev <= tol:
                return "projectively-equivalent", M, max(dev, vert_dev)
    return "not-isometric", None, math.inf


def _projective_image(rng, V):
    d = V.shape[1]
    while True:
        M = np.eye(d + 1) + 0.15 * rng.normal(size=(d + 1, d + 1))
        M[d, :d] = 0.1 * rng.normal(size=d)
        h = np.c_[V, np.ones(len(V))] @ M.T
        if np.all(h[:, d] > 0.3):
            return h[:, :d] / h[:, d:]


def _ngon(rng, m, d=2):
    """m points in cyclic order on the trigonometric moment curve
    (a cos t, sin t, cos 2t, sin 2t) cut to R^d, d <= 4, at jittered
    angles: for d = 2 a convex m-gon."""
    th = 2 * math.pi * (np.arange(m) + rng.uniform(0, 0.4, m)) / m
    return np.c_[rng.uniform(1, 1.5) * np.cos(th), np.sin(th),
                 np.cos(2 * th), np.sin(2 * th)][:, :d]


def _assert_witness(dom_a, dom_b, got, rng):
    """A polygon witness sends the first polygon's vertices onto the
    second's, and a sampled check finds it preserves distances."""
    assert got.verdict == "projectively-equivalent"
    size = np.ptp(dom_b.vertices, axis=0).max()
    img = got.apply_ambient(dom_a.vertices)
    gap = np.linalg.norm(img[:, None] - dom_b.vertices[None], axis=2)
    assert gap.min(axis=1).max() <= 1e-7 * size
    assert sorted(gap.argmin(axis=1)) == list(range(len(dom_b.vertices)))
    assert got.max_deviation <= 1e-7
    assert sampled_isometry_check(HilbertSpace(dom_a), HilbertSpace(dom_b),
                                  got.apply_ambient, rng, samples=60) <= 1e-7


def test_classifier_verdicts_match_the_sampled_candidate_loop():
    rng = np.random.default_rng(81)
    verdicts = set()
    for m in [3, 3, 3] + list(range(4, 17)):
        for scale in (1e-6, 1e-3, 1.0, 1e3):
            V = _ngon(rng, m) * scale
            pairs = [(V, _projective_image(rng, V / scale) * scale),
                     (V, _ngon(rng, m if m > 4 else m + 1) * scale),
                     (V, V[::-1] + 0.25 * scale)]
            for A, B in pairs:
                dom_a, dom_b = build_polytope(A), build_polytope(B)
                seed = int(rng.integers(2**31))
                got = classify_2d(dom_a, dom_b, np.random.default_rng(seed))
                want = _reference_classify(dom_a, dom_b,
                                           np.random.default_rng(seed))
                assert got.verdict == want[0]
                if got.witness is None:
                    assert got.max_deviation == math.inf
                else:
                    _assert_witness(dom_a, dom_b, got, rng)
                verdicts.add(got.verdict)
    assert verdicts == {"projectively-equivalent", "not-isometric"}


def test_classifier_finds_projective_images_at_large_scale():
    # a perspective map between squares at 1e9 has entries from about 1e-9
    # to 1e9; fitted on unit frames, every candidate is still a map
    rng = np.random.default_rng(7)
    th = 2 * math.pi * np.arange(8) / 8
    for V in (np.array(SQUARE, dtype=float), np.c_[np.cos(th), np.sin(th)]):
        U = _projective_image(rng, V)
        big, image = build_polytope(V * 1e9), build_polytope(U * 1e9)
        va, _ = big.polygon_vertices_local()
        vb, _ = image.polygon_vertices_local()
        m = len(va)
        W = vb[_candidates(m)]
        _, fail = _fit_stack(va[:4], W[:, :4])
        assert list(fail) == [0] * (2 * m)
        for a, b in ((big, image), (image, big)):
            _assert_witness(a, b, classify_2d(a, b, None), rng)
        other = build_polytope(_ngon(rng, m if m > 4 else m + 1) * 1e9)
        assert classify_2d(big, other).verdict == "not-isometric"
        # at 1e12 the frames' spanning test needs the unit copies too
        got = classify_2d(build_polytope(V * 1e12), build_polytope(U * 1e12))
        assert got.verdict == "projectively-equivalent"
        assert got.max_deviation <= 1e-7


def test_classifier_witness_applies_at_1e15():
    rng = np.random.default_rng(9)
    sq = square()
    for s in (1.0, 1e12, 1e15):
        image = build_polytope(_projective_image(rng, np.array(SQUARE, float))
                               * s)
        got = classify_2d(sq, image)
        assert got.verdict == "projectively-equivalent"
        img = got.apply_ambient(sq.vertices)
        gap = np.linalg.norm(img[:, None] - image.vertices[None], axis=2)
        assert gap.min(axis=1).max() <= 1e-12 * s
        assert sorted(gap.argmin(axis=1)) == [0, 1, 2, 3]


def test_stacked_classifier_with_a_collinear_frame_triple():
    # a 9-gon at 1e9 with one vertex 1e-3 outside an edge of an octagon:
    # 1e-12 of the size, so at eps 1e-13 it stays a vertex, and the frames
    # through it and that edge's ends fail the spanning test
    th = 2 * math.pi * np.arange(8) / 8
    octagon = np.c_[np.cos(th), np.sin(th)] * 1e9
    mid = 0.5 * (octagon[0] + octagon[1])
    V = np.vstack([octagon, mid * (1 + 1e-3 / np.linalg.norm(mid))])
    dom = build_polytope(V, 1e-13)
    va, _ = dom.polygon_vertices_local()
    assert len(va) == 9
    m = 9
    W = va[_candidates(m)]
    _, fail = _fit_stack(va[:4], W[:, :4])
    assert 1 in fail and 0 in fail
    rng = np.random.default_rng(3)
    image = build_polytope(_projective_image(rng, V / 1e9) * 1e9, 1e-13)
    for other in (dom, image):
        _assert_witness(dom, other, classify_2d(dom, other), rng)
        _assert_witness(other, dom, classify_2d(other, dom), rng)
        _assert_as_all_candidates(dom, other)


def _bumped(m, turn):
    """A regular (m-1)-gon at 1e9, turned by 2 pi turn, with an m-th vertex
    1e-3 outside the edge from its first vertex to its second: 1e-12 of
    the size, so at eps 1e-13 it stays a vertex, nearly on the line
    through its neighbours."""
    th = 2 * math.pi * (np.arange(m - 1) / (m - 1) + turn)
    P = np.c_[np.cos(th), np.sin(th)] * 1e9
    mid = 0.5 * (P[0] + P[1])
    return np.vstack([P, mid * (1 + 1e-3 / np.linalg.norm(mid))])


def test_classifier_verdict_does_not_depend_on_the_rotation():
    # a frame of three consecutive vertices through the bump fits too
    # poorly for the vertex test at some rotations; the spread frame, of
    # which no three vertices are consecutive for m >= 6, and a pentagon's
    # frame without its flattest vertex, fit at every one
    shear = np.array([[1.3, 0.4], [-0.2, 0.9]])
    for m in range(5, 10):
        for k in range(72):
            V = _bumped(m, k / 72)
            dom = build_polytope(V, 1e-13)
            assert len(dom.polygon_vertices_local()[0]) == m
            image = build_polytope(V @ shear.T + [3e8, -1e8], 1e-13)
            for other in (dom, image):
                got = classify_2d(dom, other)
                assert got.verdict == "projectively-equivalent"
                assert got.max_deviation <= 1e-7


def test_quadrilateral_verdict_is_decided_by_the_theorem():
    # any two convex quadrilaterals are projectively equivalent, so the
    # verdict holds at every rotation, also where every frame holds the
    # flat vertex and both neighbours and no candidate passes the vertex
    # test; a witness, when one passes, is within tol
    shear = np.array([[1.3, 0.4], [-0.2, 0.9]])
    witnesses = 0
    for k in range(72):
        V = _bumped(4, k / 72)
        dom = build_polytope(V, 1e-13)
        assert len(dom.polygon_vertices_local()[0]) == 4
        image = build_polytope(V @ shear.T + [3e8, -1e8], 1e-13)
        for other in (dom, image):
            got = classify_2d(dom, other)
            assert got.verdict == "projectively-equivalent"
            if got.witness is None:
                assert got.max_deviation == math.inf
            else:
                assert got.max_deviation <= 1e-7
                witnesses += 1
    assert witnesses > 0


def test_classifier_does_not_depend_on_the_seed():
    rng = np.random.default_rng(82)
    V = _ngon(rng, 7)
    pairs = [(build_polytope(V), build_polytope(_projective_image(rng, V))),
             (build_polytope(V), build_polytope(_ngon(rng, 7))),
             (square(), build_polytope([[0, 0], [3, 0], [2.5, 2],
                                        [-0.5, 1.5]])),
             (build_ellipsoid([0, 0], np.eye(2)),
              build_ellipsoid([0.3, -0.1], [[2.0, 0.3], [0.3, 0.5]]))]
    for dom_a, dom_b in pairs:
        runs = [classify_2d(dom_a, dom_b, np.random.default_rng(seed))
                for seed in range(10)] + [classify_2d(dom_a, dom_b, None)]
        first = runs[0]
        for got in runs:
            assert got.verdict == first.verdict
            assert (np.float64(got.max_deviation).tobytes()
                    == np.float64(first.max_deviation).tobytes())
            if first.witness is None:
                assert got.witness is None
            else:
                assert got.witness.matrix.tobytes() == \
                    first.witness.matrix.tobytes()


def test_fit_projective_wrapper_raises_the_first_failing_check():
    src = np.array([[0, 0], [1, 0], [0, 1], [1, 1.0]])
    with pytest.raises(DegenerateBasis, match="do not span"):
        fit_projective(np.array([[0, 0], [1, 0], [2, 0], [1, 1.0]]), src)
    with pytest.raises(DegenerateBasis, match="reference face"):
        fit_projective(src, np.array([[0, 0], [1, 0], [0, 1], [0, 0.5]]))
    # fitted on unit frames: a map at 1e9, whose entries span 1e-9 to 1
    dst = _projective_image(np.random.default_rng(7), src) * 1e9
    g = fit_projective(src * 1e9, dst)
    assert np.abs(g(src * 1e9) - dst).max() <= 1e-12 * 1e9
    g = fit_projective(src, src * 2)
    assert g.matrix.tobytes() == _reference_fit(src, src * 2).tobytes()


def _two_pass_fit_stack(S, T):
    """_fit_stack with the source and the targets in separate
    _unit_frames and _frames passes, the form that one stacked pass
    replaced."""
    K = len(T)
    S1, s_back = _unit_frames(S[None])
    T1, t_back = _unit_frames(T)
    HS, cs, s_spans, s_general = _frames(S1)
    HT, ct, t_spans, t_general = _frames(T1)
    fail = np.where(t_general, 0, np.where(t_spans, 2, 1))
    if not s_general[0]:
        fail[:] = 2 if s_spans[0] else 1
    eye = np.eye(S.shape[1] + 1)
    M = np.broadcast_to(eye, (K,) + eye.shape)
    if s_general[0]:
        fit = (t_back @ (HT * ct[:, None, :]) @ np.linalg.inv(HS[0] * cs[0])
               @ np.linalg.inv(s_back[0]))
        M = np.where((fail == 0)[:, None, None], fit, M)
    finite = np.isfinite(M).all(axis=(1, 2))
    fail[(fail == 0) & ~finite] = 3
    return _normal_form(np.where(finite[:, None, None], M, eye)), fail


def _fit_families(rng):
    """Random fit problems (d, S, T) in R^1..R^3 at scales 1e-8..1e10: a
    source family S of d+2 points and a stack T of target families, with
    flat ones (the first d+1 do not span), ones with the last point on a
    reference face, now and then a flat source, and in the plane half the
    targets projective images of S."""
    for d in (1, 2, 3):
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-8, 10)
            S = rng.normal(size=(d + 2, d)) * scale
            T = rng.normal(size=(int(rng.integers(1, 33)), d + 2, d)) * scale
            flat = rng.random(len(T)) < 0.2
            T[flat, 1] = T[flat, 0]  # the first d+1 do not span
            on_face = rng.random(len(T)) < 0.2
            T[on_face, -1] = T[on_face, 0]  # the last on a reference face
            if rng.random() < 0.1:
                S[1] = S[0]
            if d == 2:
                T[:len(T) // 2] = _projective_image(rng, S / scale) * scale
            yield d, S, T


def test_stacked_fit_is_the_two_pass_fit_bit_for_bit():
    # one _unit_frames and _frames pass on [S; T] does each family's own
    # arithmetic: the same matrices and failure codes, byte for byte, on
    # candidate stacks of every size with flat and degenerate families
    codes = set()
    for d, S, T in _fit_families(np.random.default_rng(36)):
        M, fail = _fit_stack(S, T)
        M_ref, fail_ref = _two_pass_fit_stack(S, T)
        assert M.tobytes() == M_ref.tobytes()
        assert fail.tobytes() == fail_ref.tobytes()
        codes.update(fail.tolist())
    assert codes == {0, 1, 2}


def _float_fit(S, T):
    """The float fit of one source family S of d+2 points to each family
    of a stack T, as _fit_stack returns them (a failure code per
    candidate, the identity where it fails)."""
    from hilbertgeo.isometries import _fit, _frame, _source

    n = S.shape[1] + 1
    code, A = _source(_frame(S.tolist()))
    out = [(code, None) if code else _fit(A, _frame(W)) for W in T.tolist()]
    return (np.array([np.eye(n) if M is None else np.reshape(M, (n, n))
                      for _, M in out]), np.array([f for f, _ in out]))


def _near_threshold_families(rng):
    """Plane fit problems on the edge of _frames's 1e-10 tests: the last
    point's least coefficient near 1e-10 of its largest, and the first
    three points nearly on a line, with the least singular value near
    1e-10 of the largest."""
    for _ in range(40):
        S = rng.normal(size=(4, 2))
        T = np.repeat(S[None], 6, axis=0)
        w = 1e-10 * (1.0 + rng.uniform(-1e-3, 1e-3, 3))
        w[1] = 1e-10 * (1.0 + 1e-14 * rng.normal())
        for k in range(3):
            c = np.array([1.0, 1.0, 1.0])
            c[k] = w[k]
            T[k, 3] = (c @ T[k, :3]) / c.sum()
        for k in range(3, 6):
            # the third point off the first two's line by about 1e-10
            t = rng.uniform(0.2, 0.8)
            along = T[k, 0] + t * (T[k, 1] - T[k, 0])
            e = T[k, 1] - T[k, 0]
            n = np.array([-e[1], e[0]])
            T[k, 2] = along + (10.0 ** rng.uniform(-10.5, -9.5)) * n
        yield S, T


def _exact_degeneracy(P):
    """The failure code of a frame that cannot be fitted at all, as the
    generators above make them: 1 where the second point repeats the
    first (the first d+1 do not span), 2 where the last does (it lies on
    a reference face), else 0."""
    if (P[1] == P[0]).all():
        return 1
    return 2 if (P[-1] == P[0]).all() else 0


def test_float_fit_is_the_stacked_fit():
    # the float fit refuses only the frames that cannot be fitted, with
    # _fit_stack's codes, and fits every other one, the frames at the
    # edge of _fit_stack's 1e-10 tests too; where _fit_stack fits, the
    # two maps agree within 1e-12 of the largest entry, in R^1..R^3
    codes, worst, near = set(), 0.0, 0
    families = [(S, T) for d, S, T in _fit_families(np.random.default_rng(36))]
    families += list(_near_threshold_families(np.random.default_rng(37)))
    for S, T in families:
        M, fail = _fit_stack(S, T)
        M_f, fail_f = _float_fit(S, T)
        want = [_exact_degeneracy(S) or _exact_degeneracy(W) for W in T]
        assert fail_f.tolist() == want
        # an exact degeneracy fails _fit_stack's tests with the same code
        assert [f for f, w in zip(fail, want) if w] == [w for w in want if w]
        near += sum(f != 0 and not w for f, w in zip(fail, want))
        ok = fail == 0
        if ok.any():
            worst = max(worst, float(np.abs(M_f[ok] - M[ok]).max()))
        codes.update(fail_f.tolist())
    assert codes == {0, 1, 2}
    # frames _fit_stack refuses at its 1e-10 thresholds that are fitted
    assert near > 0
    assert worst <= 1e-12


def test_fit_projective_refuses_where_the_stacked_fit_does():
    # the public 1e-10 contract: fit_projective raises exactly where the
    # numpy reference's failure code is nonzero, with its message, on
    # random families in R^1..R^3 and on frames at the edge of both
    # tests; only a target whose least coefficient is within 1e-4
    # relative of 1e-10 of its largest may go either way, fitted or on a
    # reference face, as its coefficients' round-off decides there (the
    # fit's and LAPACK's differ by about 1e-5 relative in such a
    # coefficient)
    from hilbertgeo.isometries import _FIT_FAILURES

    def at_threshold(P):
        _, c, spans, _ = _frames(_unit_frames(P[None])[0])
        a = np.abs(c[0])
        return spans[0] and abs(a.min() / a.max() / 1e-10 - 1.0) <= 1e-4

    families = [(S, T) for d, S, T in _fit_families(np.random.default_rng(36))]
    families += list(_near_threshold_families(np.random.default_rng(37)))
    codes, edge = set(), 0
    for S, T in families:
        assert not at_threshold(S)
        _, fail = _fit_stack(S, T)
        for W, code in zip(T, fail.tolist()):
            try:
                fit_projective(S, W)
                got = 0
            except GeometryError as err:
                got = next(k for k, (error, message) in _FIT_FAILURES.items()
                           if type(err) is error and str(err) == message)
            codes.add(got)
            if at_threshold(W):
                edge += 1
                assert {got, code} <= {0, 2}
            else:
                assert got == code
    assert codes == {0, 1, 2}
    assert edge > 0


def test_fit_projective_rejects_malformed_shapes():
    # any shape other than k x d with d >= 1 is DegenerateInput, not a
    # bare numpy error
    rng = np.random.default_rng(4)
    for P in (rng.normal(size=(6, 4, 2)), np.zeros((3, 0)), np.zeros(4),
              np.zeros((0, 0)), 1.0):
        with pytest.raises(DegenerateInput):
            fit_projective(P, P)
    S = rng.normal(size=(4, 2))
    with pytest.raises(DegenerateInput):
        fit_projective(S, S[None])
    with pytest.raises(DegenerateInput, match="counts differ"):
        fit_projective(S, S[:3])
    with pytest.raises(DegenerateBasis, match="need 4"):
        fit_projective(S[:3], S[:3])


def test_projective_map_rejects_matrices_below_2x2():
    for M in (np.zeros((0, 0)), [[2.0]]):
        with pytest.raises(DegenerateInput, match="at least 2 x 2"):
            ProjectiveMap(M)


# ------------------------------------------- pruning by pencil cross ratios

def _candidates(m):
    """The 2m vertex matchings of two m-gons in shift order: row
    2 shift + (orient == -1) matches vertex i with (shift + orient i) % m."""
    i = np.arange(m)
    return (np.repeat(i, 2)[:, None] + np.tile([1, -1], m)[:, None] * i) % m


def _all_candidates_classify(dom_a, dom_b, tol=1e-7):
    """classify_2d on two polygons with every one of the 2m vertex
    matchings fitted: the classifier before the cross-ratio pruning."""
    from hilbertgeo.isometries import (
        PlaneClassification,
        _chart_map,
        _first_witness,
    )

    va, _ = dom_a.polygon_vertices_local()
    vb, _ = dom_b.polygon_vertices_local()
    if len(vb) != len(va):
        return PlaneClassification("not-isometric", None, math.inf)
    found = _first_witness(va, vb, _candidates(len(va)),
                           float(np.ptp(vb, axis=0).max()), tol)
    if found is None:
        return PlaneClassification("not-isometric", None, math.inf)
    cand = ProjectiveMap._normalised(np.reshape(found[0], (3, 3)))
    return PlaneClassification("projectively-equivalent", cand, found[1],
                               _chart_map(dom_a, dom_b, cand))


def _assert_as_all_candidates(dom_a, dom_b):
    """classify_2d gives the all-candidates verdict, witness matrix and
    max_deviation bit for bit, both ways round; returns the verdicts."""
    verdicts = []
    for a, b in ((dom_a, dom_b), (dom_b, dom_a)):
        got, want = classify_2d(a, b), _all_candidates_classify(a, b)
        assert got.verdict == want.verdict
        assert (np.float64(got.max_deviation).tobytes()
                == np.float64(want.max_deviation).tobytes())
        if want.witness is None:
            assert got.witness is None
        else:
            assert (got.witness.matrix.tobytes()
                    == want.witness.matrix.tobytes())
        verdicts.append(got.verdict)
    return verdicts


def _pushed(rng, V, c):
    """V with each vertex moved by c * 1e-7 of its size, in a random
    direction: c below 1 keeps a projective image within classify_2d's
    default tol, c above 1 takes it out."""
    u = rng.normal(size=V.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return V + c * 1e-7 * np.ptp(V, axis=0).max() * u


def test_pruned_classifier_matches_all_candidates():
    rng = np.random.default_rng(90)
    verdicts, pushed = [], {0.3: set(), 3.0: set()}
    for m in (5, 6, 7, 9, 12, 16, 24, 40, 64):
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e9, 1e12):
            V = _ngon(rng, m)
            U = _projective_image(rng, V)
            for B in (U, _ngon(rng, m), V[::-1] + 0.25):
                verdicts += _assert_as_all_candidates(
                    build_polytope(V * scale), build_polytope(B * scale))
            # pushed images land on either side of the vertex test
            for c in pushed:
                pushed[c].update(_assert_as_all_candidates(
                    build_polytope(V * scale),
                    build_polytope(_pushed(rng, U, c) * scale)))
    assert set(verdicts) == {"projectively-equivalent", "not-isometric"}
    assert "projectively-equivalent" in pushed[0.3]
    assert "not-isometric" in pushed[3.0]


def _exact_fit(S, T):
    """The projective map sending d+2 points S to d+2 points T of R^d, at
    40 digits, in normal form."""
    import mpmath

    d = S.shape[1]
    with mpmath.workdps(40):
        def frame(P):
            H = mpmath.matrix([list(P[: d + 1, i]) for i in range(d)]
                              + [[1] * (d + 1)])
            star = mpmath.matrix(list(P[d + 1]) + [1])
            return H * mpmath.diag(mpmath.lu_solve(H, star))

        M = np.array((frame(T) * mpmath.inverse(frame(S))).tolist(),
                     dtype=float)
    return _normal_form(M[None])[0]


def test_float_fit_is_as_accurate_as_the_stacked_fit():
    # narrow frames, d+2 consecutive points of 24- to 64-gons on the
    # trigonometric moment curve in R^d, sent to projective images: in
    # each of d = 2, 3, 4 the float fit, with its one refinement step,
    # stays within 2.5 times the stacked fit's error against a 40-digit
    # fit
    for d in (2, 3, 4):
        rng = np.random.default_rng(0)
        worst = worst_stacked = 0.0
        for _ in range(40):
            V = _ngon(rng, int(rng.choice([24, 48, 64])), d)
            U = _projective_image(rng, V)
            for k in range(0, len(V), len(V) // 4):
                S, T = V[: d + 2], np.roll(U, -k, axis=0)[: d + 2]
                exact = _exact_fit(S, T)
                M = _float_fit(S, T[None])[0][0]
                worst = max(worst, np.abs(M - exact).max())
                M_s = _fit_stack(S, T[None])[0][0]
                worst_stacked = max(worst_stacked, np.abs(M_s - exact).max())
        assert worst <= 2.5 * worst_stacked, d


def _stacked_classify(dom_a, dom_b, tol=1e-7):
    """classify_2d's polygon path as one stacked fit: the candidates that
    pass the pencil test fitted in one _fit_stack call, checked on the
    vertices in numpy, the first that passes chosen.  Returns the verdict,
    the chosen row of _candidates, the witness matrix and max_deviation."""
    from hilbertgeo.isometries import _frame_at, _pencils_agree

    va, _ = dom_a.polygon_vertices_local()
    vb, _ = dom_b.polygon_vertices_local()
    m = len(va)
    if len(vb) != m:
        return "not-isometric", None, None, math.inf
    rows = np.arange(2 * m)
    size = np.ptp(vb, axis=0).max()
    if m >= 5:
        rows = rows[_pencils_agree(va, vb, _candidates(m), tol * size)]
        if not len(rows):
            return "not-isometric", None, None, math.inf
    W = vb[_candidates(m)[rows]]
    if m == 3:
        src = np.vstack([va, va.mean(axis=0)])
        tgt = np.concatenate([W, W.mean(axis=1)[:, None]], axis=1)
    else:
        at = _frame_at(va.tolist())
        src, tgt = va[at], W[:, at]
    M, fail = _fit_stack(src, tgt)
    h = np.hstack([va, np.ones((m, 1))]) @ np.swapaxes(M, 1, 2)
    den = h[:, :, -1:]
    one_sign = (den > 0.0).all(axis=(1, 2)) | (den < 0.0).all(axis=(1, 2))
    img = h[:, :, :-1] / np.where(one_sign[:, None, None], den, 1.0)
    dev = np.linalg.norm(img - W, axis=2).max(axis=1) / size
    ok = (fail == 0) & one_sign & (dev <= tol)
    if not ok.any():
        return "not-isometric", None, None, math.inf
    k = int(np.argmax(ok))
    return "projectively-equivalent", int(rows[k]), M[k], float(dev[k])


def _chosen_candidate(dom_a, dom_b, witness):
    """The row of _candidates that a witness's vertex images match."""
    va, _ = dom_a.polygon_vertices_local()
    vb, _ = dom_b.polygon_vertices_local()
    img = _ReferenceMap(witness.matrix).apply(va)
    j = np.linalg.norm(img[:2, None] - vb[None], axis=2).argmin(axis=1)
    m = len(va)
    return 2 * int(j[0]) + int((j[1] - j[0]) % m != 1)


def test_float_fit_classifier_matches_the_stacked_fit():
    # the one-at-a-time float fit, stopped at the witness, gives the
    # stacked fit's verdict and candidate, and its witness and
    # max_deviation within 1e-12, on projective images, other polygons,
    # reflections and images pushed to either side of tol, m = 3..64
    rng = np.random.default_rng(95)
    seen = set()
    for m in list(range(3, 13)) + [16, 24, 40, 64]:
        for scale in (1e-9, 1e-3, 1.0, 1e6, 1e12):
            V = _ngon(rng, m)
            U = _projective_image(rng, V)
            for B in (U, _ngon(rng, m), V[::-1] + 0.25,
                      _pushed(rng, U, 0.3), _pushed(rng, U, 3.0)):
                a, b = build_polytope(V * scale), build_polytope(B * scale)
                for x, y in ((a, b), (b, a)):
                    got = classify_2d(x, y)
                    verdict, k, M, dev = _stacked_classify(x, y)
                    assert got.verdict == verdict
                    seen.add(verdict)
                    if M is None:
                        assert got.witness is None
                        continue
                    assert np.abs(got.witness.matrix - M).max() <= 1e-12
                    assert abs(got.max_deviation - dev) <= 1e-12
                    assert _chosen_candidate(x, y, got.witness) == k
    assert seen == {"projectively-equivalent", "not-isometric"}


def test_polygon_order_is_kept_on_the_domain():
    rng = np.random.default_rng(96)
    V = _ngon(rng, 9)
    dom = build_polytope(V)
    lv, order = dom.polygon_vertices_local()
    again = dom.polygon_vertices_local()
    assert again[0].tobytes() == lv.tobytes()
    assert again[1].tobytes() == order.tobytes()
    # the same bits as a fresh domain's first call
    fresh = build_polytope(V).polygon_vertices_local()
    assert fresh[0].tobytes() == lv.tobytes()
    assert fresh[1].tobytes() == order.tobytes()
    for arr in (lv, order):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    assert dom.polygon_vertices_local()[0].tobytes() == lv.tobytes()
    # classifying one domain against two partners in turn reads its kept
    # order and gives what fresh copies give
    for B in (_projective_image(rng, V), _ngon(rng, 9)):
        for x, y in ((dom, build_polytope(B)), (build_polytope(B), dom)):
            got = classify_2d(x, y)
            want = classify_2d(
                *(build_polytope(V) if z is dom else build_polytope(B)
                  for z in (x, y)))
            assert got.verdict == want.verdict
            assert (np.float64(got.max_deviation).tobytes()
                    == np.float64(want.max_deviation).tobytes())
            if want.witness is not None:
                assert (got.witness.matrix.tobytes()
                        == want.witness.matrix.tobytes())


def _count_survivors(monkeypatch):
    """A list that gets, on every pencil test classify_2d makes, the
    number of candidates that pass it."""
    from hilbertgeo import isometries

    counts = []
    agree = isometries._pencils_agree

    def counting(*args):
        ok = agree(*args)
        counts.append(int(ok.sum()))
        return ok

    monkeypatch.setattr(isometries, "_pencils_agree", counting)
    return counts


def test_regular_polygons_keep_every_candidate(monkeypatch):
    # every vertex of a regular m-gon has the same pencil, so every shift
    # and orientation survives the pruning
    counts = _count_survivors(monkeypatch)
    rng = np.random.default_rng(92)
    for m in (5, 6, 8, 13):
        th = 2 * math.pi * np.arange(m) / m
        V = np.c_[np.cos(th), np.sin(th)]
        for B in (V @ [[0.6, 0.8], [-0.8, 0.6]] * 3.0 + 1.0,
                  _projective_image(rng, V)):
            counts.clear()
            assert _assert_as_all_candidates(build_polytope(V),
                                             build_polytope(B)) == \
                ["projectively-equivalent"] * 2
            # the classifier, both ways round
            assert counts == [2 * m] * 2


def test_pruning_with_a_vertex_of_tiny_exterior_angle():
    # a vertex pushed 1e-6/4 of an edge's length off its midpoint has
    # exterior angle 1e-6: the lines to its neighbours nearly coincide
    rng = np.random.default_rng(93)
    for m in (6, 9, 17):
        V = _ngon(rng, m)
        mid = 0.5 * (V[0] + V[1])
        out = mid - V.mean(axis=0)
        bump = mid + 0.25e-6 * np.linalg.norm(V[1] - V[0]) * out / \
            np.linalg.norm(out)
        V = np.vstack([V[:1], bump, V[1:]])
        a = build_polytope(V)
        assert len(a.vertices) == m + 1
        for B in (_projective_image(rng, V), _ngon(rng, m + 1), V[::-1]):
            _assert_as_all_candidates(a, build_polytope(B))
    # where a determinant vanishes (three vertices on a line, which a
    # built polygon drops) the vertex sets no constraint
    from hilbertgeo.isometries import _pencils_agree

    V = np.array([[0.0, 0], [1, 0], [2, 0], [2, 2], [1, 3], [0, 2]])
    match = (np.arange(6)[:, None] + np.arange(6)) % 6
    assert _pencils_agree(V, V, match, 1e-7)[0]


def test_64_gons_fit_at_most_two_candidates(monkeypatch):
    counts = _count_survivors(monkeypatch)
    rng = np.random.default_rng(94)
    for _ in range(10):
        V = _ngon(rng, 64)
        a = build_polytope(V)
        counts.clear()
        got = classify_2d(a, build_polytope(_projective_image(rng, V)))
        assert got.verdict == "projectively-equivalent"
        assert len(counts) == 1 and 1 <= counts[0] <= 2
        counts.clear()
        got = classify_2d(a, build_polytope(_ngon(rng, 64)))
        assert got.verdict == "not-isometric"
        assert counts == [0]
