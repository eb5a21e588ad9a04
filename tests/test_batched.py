"""Row forms of the maps, and the batched sampled checks against per-point
reference copies of the loops they replace."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from hilbertgeo import (
    HilbertSpace,
    ProjectiveMap,
    WSpace,
    asymptotic_profile,
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
    distance,
    distances,
    focusing_probe,
    gromov_product,
    hilbert_ball,
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
from hilbertgeo import defaults
from hilbertgeo.errors import (
    DegenerateInput,
    GeometryError,
    NonFinite,
    NotOnBoundary,
    PointNotInterior,
    XNotInteriorOfCone,
)

from test_metric import _sphere_point

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
            if (domain.min_slack(q) <= 0.0
                    or domain.hull_residual(q) > 1e-9 * domain._size):
                break
            prev, last = last, q
        if prev is None or (np.linalg.norm(last - prev)
                            <= 1e-14 * domain._extent()):
            limits.append(last)
            continue
        limits.append(domain.ray(prev, last - prev).endpoint)
    spread = 0.0
    for a, b in itertools.combinations(range(len(limits)), 2):
        spread = max(spread, float(np.linalg.norm(limits[a] - limits[b])))
    return np.array(limits), spread


# --------------------------------- reference copies of the checked kernels
#
# The distance and cone kernels as one plain sequence of steps: each check
# on its own over the stacked [X; Y] rows (the hull residual through the
# chart), then the one product the kernels take, [X - o; Y - o; Y - X]
# times the facet rates basis @ A.T (an ellipsoid's whitening, o its
# center), or [X; Y; X - Y] times a cone's functionals.  On an ellipsoid
# the distance is the unit ball's closed form in the kernel's association.
# The chord path takes the same product, clips by a per-facet loop, and
# collects each end's binding facets by a per-facet loop too.

def reference_reject(bad, n, error, what, min_slack=None):
    if bad.any():
        i = int(np.argmax(bad))
        name, row = ("x", i) if i < n else ("y", i - n)
        msg = f"{name}[{row}] {what}" if n > 1 else f"{name} {what}"
        if min_slack is None:
            raise error(msg, point=name, index=row)
        raise error(msg, point=name, index=row, min_slack=float(min_slack[i]))


def reference_residuals(domain, P):
    """Distances of the rows of P to the affine hull, in units of the
    domain's size."""
    if domain.intrinsic_dim == domain.ambient_dim:
        return np.zeros(len(P))
    D = P - domain._origin
    return (np.linalg.norm(D - (D @ domain._basis) @ domain._frame.T, axis=1)
            / domain._size)


def reference_chords(w, dw):
    """The roots of |w + t dw| = 1 on the rows of whitened points and
    directions."""
    a = np.sum(dw * dw, axis=-1)
    b = np.sum(w * dw, axis=-1)
    c0 = np.sum(w * w, axis=-1) - 1.0
    moving = a > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(b + np.copysign(np.sqrt(b * b - a * c0), b))
        r1, r2 = q / a, c0 / q
    return (np.where(moving, np.minimum(r1, r2), -np.inf),
            np.where(moving, np.maximum(r1, r2), np.inf))


def reference_product(domain, X, Y):
    """[X - o; Y - o; Y - X] @ M, o and M the origin and facet rates of a
    polytope or the center and whitening of an ellipsoid."""
    if domain.kind == "polytope":
        o, M = domain._origin, domain._basis @ domain._A.T
    else:
        o, M = domain.center, domain._chol_inv.T
    return np.vstack([X - o, Y - o, Y - X]) @ M


def reference_checked(domain, X, Y):
    """The product of the rows X and Y and the slacks of X and Y, after
    each check in turn over the stacked [X; Y]."""
    n = len(X)
    P = np.vstack([X, Y])
    reference_reject(~np.isfinite(P).all(axis=1), n, NonFinite,
                     "contains non-finite coordinates")
    reference_reject(reference_residuals(domain, P) > defaults.EPS_GEO, n,
                     PointNotInterior, "is off the affine hull")
    R = reference_product(domain, X, Y)
    if domain.kind == "polytope":
        S = domain._b - R[:2 * n]
    else:
        S = 1.0 - np.linalg.norm(R[:2 * n], axis=1, keepdims=True)
    least = S.min(axis=1)
    reference_reject(least <= 0.0, n, PointNotInterior,
                     "is not strictly interior", least)
    return R, S


def reference_distances(domain, X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = len(X)
    R, S = reference_checked(domain, X, Y)
    delta = R[2 * n:]
    if domain.kind == "polytope":
        return (np.log1p(np.max(delta / S[n:], axis=-1))
                + np.log1p(np.max(-delta / S[:n], axis=-1)))
    # twice the Beltrami-Klein distance of the whitened points w, w + dw:
    # 2 asinh(sqrt((|dw|^2 + (w.dw)^2 / sx) / sy)), s = 1 - |w|^2
    W = R[:2 * n]
    s = 1.0 - np.sum(W * W, axis=1)
    sx, sy = s[:n], s[n:]
    a = np.sum(delta * delta, axis=1)
    b = np.sum(W[:n] * delta, axis=1)
    return 2.0 * np.arcsinh(np.sqrt((a + b * b / sx) / sy))


def reference_cone_distances(cone, X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = len(X)
    P = np.vstack([X, Y])
    reference_reject(~np.isfinite(P).all(axis=1), n, NonFinite,
                     "contains non-finite coordinates")
    J = -np.ones(cone.dim)
    J[0] = 1.0
    if cone.kind == "polyhedral":
        inside = np.min(P @ cone.functionals.T, axis=-1) > 0.0
    else:
        inside = (P[:, 0] > 0.0) & ((P * P) @ J > 0.0)
    reference_reject(~inside, n, XNotInteriorOfCone,
                     "must be interior to the cone")
    # Lorentz values are checked against the mpmath oracle instead
    assert cone.kind == "polyhedral"
    # each x at the scale of its y: times the power of two nearest the
    # ratio of their largest coordinates, from mantissas and exponents
    X = X.copy()
    for i in range(n):
        mx, ex = math.frexp(np.abs(X[i]).max())
        my, ey = math.frexp(np.abs(Y[i]).max())
        X[i] = np.ldexp(X[i], ey - ex + math.frexp(my / mx * 0.5 ** 0.5)[1])
    R = np.vstack([X, Y, X - Y]) @ cone.functionals.T
    S, delta = R[:2 * n], R[2 * n:]
    return (np.log1p(np.max(delta / S[n:], axis=-1))
            + np.log1p(np.max(-delta / S[:n], axis=-1)))


def reference_chord(domain, x, y):
    """(t_alpha, t_beta, face_alpha, face_beta) of chord_through: the
    product of reference_product, clipped facet by facet, and each end's
    face where its binding facets meet, the facets whose slack there is
    within 64 ulp per unit of 1 + |t| max |rate| of 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    R, S = reference_checked(domain, x[None, :], y[None, :])
    if domain.kind == "ellipsoid":
        t_lo, t_hi = (float(t) for t in reference_chords(R[0], R[2]))
        if not -np.inf < t_lo < t_hi < np.inf:
            raise GeometryError("degenerate chord direction")
        ends = [R[0] + t * R[2] for t in (t_lo, t_hi)]
        return (t_lo, t_hi) + tuple(
            domain.boundary_face_of(domain.center
                                    + domain._chol @ (w / np.linalg.norm(w)))
            for w in ends)
    s, rate = S[0], R[2]
    scale = np.abs(rate).max()
    t_lo, t_hi = -np.inf, np.inf
    for i in range(len(s)):
        if abs(rate[i]) <= 1e-14 * scale:
            continue  # parallel facet
        if rate[i] > 0:
            t_hi = min(t_hi, s[i] / rate[i])
        else:
            t_lo = max(t_lo, s[i] / rate[i])
    if t_lo == -np.inf or t_hi == np.inf:
        raise GeometryError("line escapes the polytope")
    faces = []
    for t in (t_lo, t_hi):
        tol = 64.0 * np.finfo(float).eps * (1.0 + abs(t) * scale)
        binding = [i for i in range(len(s)) if abs(s[i] - t * rate[i]) <= tol]
        faces.append(domain.face_lattice().find(
            frozenset.intersection(*[domain._facet_sets[i] for i in binding])))
    return (float(t_lo), float(t_hi), *faces)


def reference_ray(domain, start, d):
    """(t_hi, face) of ConvexDomain._ray and ray: the checks of ray in
    their order, then the product [start - o; d] @ M of reference_product,
    clipped facet by facet, and the end's face where its binding facets
    meet, as reference_chord takes them (None on an ellipsoid)."""
    start, d = np.asarray(start, dtype=float), np.asarray(d, dtype=float)
    for name, p in (("start", start), ("direction", d)):
        if not np.isfinite(p).all():
            raise NonFinite(f"{name} contains non-finite coordinates",
                            point=name, index=0)
    nd = np.linalg.norm(d)
    if nd == 0.0:
        raise DegenerateInput("zero ray direction")
    off = d - (d @ domain._basis) @ domain._frame.T
    if np.linalg.norm(off) > defaults.EPS_GEO * max(nd, domain._size):
        raise DegenerateInput("ray direction leaves the affine hull")
    if reference_residuals(domain, start[None, :])[0] > defaults.EPS_GEO:
        raise PointNotInterior("start is off the affine hull",
                               point="start", index=0)
    if domain.kind == "polytope":
        o, M = domain._origin, domain._basis @ domain._A.T
    else:
        o, M = domain.center, domain._chol_inv.T
    R = np.vstack([start - o, d]) @ M
    if domain.kind == "ellipsoid":
        least = 1.0 - np.linalg.norm(R[:1], axis=1)[0]
    else:
        least = (domain._b - R[0]).min()
    if least <= 0.0:
        raise PointNotInterior("start is not strictly interior",
                               point="start", index=0,
                               min_slack=float(least))
    if domain.kind == "ellipsoid":
        return float(reference_chords(R[0], R[1])[1]), None
    s, rate = domain._b - R[0], R[1]
    scale = np.abs(rate).max()
    t_hi = min(s[i] / rate[i] for i in range(len(s))
               if rate[i] > 1e-14 * scale)
    tol = 64.0 * np.finfo(float).eps * (1.0 + abs(t_hi) * scale)
    binding = [i for i in range(len(s)) if abs(s[i] - t_hi * rate[i]) <= tol]
    return float(t_hi), domain.face_lattice().find(
        frozenset.intersection(*[domain._facet_sets[i] for i in binding]))


def outcome(f, *args):
    """f's result, or the type, message and attributes (the point, row
    and least slack it names, None where it names none) of the
    GeometryError it raised."""
    try:
        return f(*args)
    except GeometryError as exc:
        return (type(exc), str(exc), getattr(exc, "point", None),
                getattr(exc, "index", None), getattr(exc, "min_slack", None))


def assert_same(got, want):
    """Bitwise equal results, or the same error type and message."""
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def tilted_shape(rng, d):
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return Q @ np.diag(rng.uniform(0.2, 3.0, d)) @ Q.T


def read_path_domains(rng):
    th = [np.sort(rng.uniform(0.0, 2.0 * np.pi, m)) for m in (3, 7, 32)]
    cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    return [build_polytope(SQUARE), standard_simplex(2), standard_simplex(3)] + [
        build_polytope(np.column_stack([np.cos(t), np.sin(t)]) + 0.3)
        for t in th] + [
        build_polytope(cube @ tilted_shape(rng, 3) + 1.0),
        build_polytope(rng.normal(size=(25, 3))),
        build_polytope(rng.normal(size=(20, 4))),
        build_ellipsoid([0.0, 0.0], np.eye(2)),
        build_ellipsoid(rng.normal(size=2), tilted_shape(rng, 2)),
        build_ellipsoid(rng.normal(size=3), tilted_shape(rng, 3)),
        build_ellipsoid(rng.normal(size=4), tilted_shape(rng, 4))]


def test_distances_match_reference_kernel_bitwise():
    rng = np.random.default_rng(47)
    for dom in read_path_domains(rng):
        for k in (1, 2, 7):
            for _ in range(12):
                X = dom.sample_interior(rng, k, pull=0.02).reshape(k, -1)
                Y = dom.sample_interior(rng, k, pull=0.02).reshape(k, -1)
                # pairs 1e-13 apart, in the affine hull
                close = X + 1e-13 * rng.normal(
                    size=(k, dom.intrinsic_dim)) @ dom._basis.T
                for A, B in ((X, Y), (X, close), (X, X)):
                    got = distances(dom, A, B)
                    assert_same(got, reference_distances(dom, A, B))
                    assert_same(distance(dom, A[0], B[0]),
                                reference_distances(dom, A[0], B[0])[0])
                    # a scalar query is its row, bit for bit
                    assert [distance(dom, a, b)
                            for a, b in zip(A, B)] == got.tolist()
        p, x, y = dom.sample_interior(rng, 3, pull=0.02)
        ref = reference_distances(dom, [p, p, x], [x, y, y])
        assert gromov_product(dom, p, x, y) == 0.5 * (ref[0] + ref[1] - ref[2])


def test_distance_errors_match_reference_kernel():
    rng = np.random.default_rng(48)
    for dom in read_path_domains(rng):
        X = dom.sample_interior(rng, 5, pull=0.02)
        Y = dom.sample_interior(rng, 5, pull=0.02)
        # a vertex, or a point of the boundary to round-off
        edge = (dom.vertices[0] if dom.kind == "polytope"
                else dom.center + (1.0 + 1e-12) * dom._chol[:, 0])
        far = 3.0 * edge - 2.0 * dom.centroid()  # outside, in the hull
        cases = []
        for row, value in ((0, np.nan), (3, np.inf), (4, far), (2, edge)):
            for side in (0, 1):
                A, B = X.copy(), Y.copy()
                (A, B)[side][row] = value
                cases += [(A, B), (A[row], B[row])]
        if dom.intrinsic_dim < dom.ambient_dim:
            off = Y.copy()
            off[3] += 1e-3
            cases += [(X, off), (off[3], X[3])]
        A, B = X.copy(), Y.copy()  # the first check to fail decides
        A[4], B[1] = far, np.nan
        cases.append((A, B))
        for A, B in cases:
            want = outcome(reference_distances, dom, A, B)
            assert isinstance(want[0], type)  # every case is rejected
            assert_same(outcome(distances, dom, A, B), want)


def test_non_finite_input_is_rejected_as_the_reference_kernel_does():
    """+inf, -inf or NaN in any coordinate of x or y, in one pair or in a
    batch, raise the reference kernel's error (class, message, point, row
    and least slack) from distances, gromov_product, chord_params and
    chord_through; so does a batch with one row off the hull or outside
    and another row NaN, whichever comes first."""
    rng = np.random.default_rng(52)
    doms = [build_polytope(SQUARE), build_polytope(rng.normal(size=(12, 3))),
            standard_simplex(2), standard_simplex(3),
            build_ellipsoid([0.2, -0.1], tilted_shape(rng, 2)),
            build_ellipsoid(rng.normal(size=3), tilted_shape(rng, 3))]
    for dom in doms:
        X = dom.sample_interior(rng, 4, pull=0.05)
        Y = dom.sample_interior(rng, 4, pull=0.05)
        for value, side, row, j in itertools.product(
                (np.inf, -np.inf, np.nan), (0, 1), (0, 2),
                range(dom.ambient_dim)):
            A, B = X.copy(), Y.copy()
            (A, B)[side][row, j] = value
            want = outcome(reference_distances, dom, A, B)
            assert want[0] is NonFinite
            assert outcome(distances, dom, A, B) == want
            a, b = A[row], B[row]
            want = outcome(reference_distances, dom, a, b)
            assert want[:4] == (NonFinite, f"{'xy'[side]} contains "
                                "non-finite coordinates", "xy"[side], 0)
            assert outcome(distances, dom, a, b) == want
            want = outcome(reference_chord, dom, a, b)
            assert outcome(dom.chord_params, a, b) == want
            assert outcome(dom.chord_through, a, b) == want
            p = X[3]
            want = outcome(reference_distances, dom, [p, p, a], [a, b, b])
            assert outcome(gromov_product, dom, p, a, b) == want
        # a bad row ahead of a NaN row, and behind it: NaN comes first
        if dom.intrinsic_dim < dom.ambient_dim:  # off the affine hull
            bad = X[1] + 1e-3 * dom._normals[:, 0] / np.linalg.norm(
                dom._normals[:, 0])
        else:  # outside, past a vertex or a point of the boundary
            edge = (dom.vertices[0] if dom.kind == "polytope"
                    else dom.center + dom._chol[:, 0])
            bad = 3.0 * edge - 2.0 * dom.centroid()
        for first, second in ((0, 3), (3, 0)):
            A, B = X.copy(), Y.copy()
            A[first], B[second, 0] = bad, np.nan
            want = outcome(reference_distances, dom, A, B)
            assert want[:4] == (NonFinite, "y[%d] contains non-finite "
                                "coordinates" % second, "y", second)
            assert outcome(distances, dom, A, B) == want
            A[first], B[second] = bad, Y[second]
            want = outcome(reference_distances, dom, A, B)
            assert want[0] is PointNotInterior
            assert outcome(distances, dom, A, B) == want


def test_errors_carry_the_point_row_and_slack():
    """The failed quantity rides on the error as attributes: the point and
    row that the message names, and the slack that decided, a fraction of
    the domain's size (so the same at 1e9)."""
    for s in (1.0, 1e9):
        sq = build_polytope(SQUARE * s)
        X = s * np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.2]])
        Y = s * np.array([[0.1, 0.0], [0.3, 1.5], [0.2, 0.1]])
        with pytest.raises(PointNotInterior, match=r"^y\[1\] is not") as e:
            distances(sq, X, Y)
        assert (e.value.point, e.value.index) == ("y", 1)
        assert e.value.min_slack == pytest.approx(-0.5)
        with pytest.raises(PointNotInterior, match=r"^y is not") as e:
            distance(sq, X[0], s * np.array([2.0, 0.0]))
        assert (e.value.point, e.value.index) == ("y", 0)
        assert e.value.min_slack == pytest.approx(-1.0)
        with pytest.raises(PointNotInterior, match=r"^x is not") as e:
            sq.chord_through(s * np.array([1.0, 0.0]), Y[0])
        assert (e.value.point, e.value.index) == ("x", 0)
        assert abs(e.value.min_slack) <= 1e-15
        with pytest.raises(NotOnBoundary, match="interior") as e:
            sq.boundary_face_of(s * np.array([0.0, 0.5]))
        assert e.value.slack == pytest.approx(0.5)
        with pytest.raises(NotOnBoundary, match="outside") as e:
            sq.boundary_face_of(s * np.array([2.0, 0.5]))
        assert e.value.slack == pytest.approx(-1.0)
    Y[2, 0] = math.nan
    with pytest.raises(NonFinite, match=r"^y\[2\] contains") as e:
        distances(sq, X, Y)
    assert (e.value.point, e.value.index) == ("y", 2)
    s2 = standard_simplex(2)
    with pytest.raises(PointNotInterior, match=r"^x\[1\] is off") as e:
        distances(s2, [[0.2, 0.3, 0.5], [0.2, 0.3, 0.6]],
                  [[0.3, 0.3, 0.4], [0.3, 0.3, 0.4]])
    assert (e.value.point, e.value.index, e.value.min_slack) == ("x", 1, None)
    disk = build_ellipsoid([0.0, 0.0], np.eye(2))
    with pytest.raises(NotOnBoundary, match="not on the ellipsoid") as e:
        disk.boundary_face_of([0.25, 0.0])
    assert e.value.slack == pytest.approx(0.75)
    with pytest.raises(PointNotInterior, match=r"^x\[0\] is not") as e:
        distances(disk, [[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]])
    assert e.value.min_slack == pytest.approx(1.0 - math.sqrt(2.0))
    orthant = cone_over(standard_simplex(2))
    with pytest.raises(XNotInteriorOfCone, match=r"^y\[1\]") as e:
        cone_distances(orthant, np.ones((2, 3)),
                       [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    assert (e.value.point, e.value.index) == ("y", 1)


def assert_cone_errors_match_reference(cone, X, Y):
    """Bad rows of X or Y raise the reference kernel's error and message."""
    for row, value in ((0, np.nan), (1, -X[1]), (0, 0.0 * X[0])):
        for side in (0, 1):
            A, B = X.copy(), Y.copy()
            (A, B)[side][row] = value
            for a, b in ((A, B), (A[row], B[row])):
                want = outcome(reference_cone_distances, cone, a, b)
                assert isinstance(want[0], type)
                assert_same(outcome(cone_distances, cone, a, b), want)


def test_cone_distances_match_reference_kernel_bitwise():
    rng = np.random.default_rng(49)
    polygon = build_polytope(rng.normal(size=(9, 2)))
    cases = [(standard_simplex(2), cone_over(standard_simplex(2))),
             (build_polytope(SQUARE), cone_over(build_polytope(SQUARE))),
             (polygon, cone_over(polygon))]
    for dom, cone in cases:
        for k in (1, 2, 6):
            for _ in range(10):
                lam = rng.uniform(0.5, 2.0, size=(2 * k, 1))
                P = lam * cone.embed(dom.sample_interior(rng, 2 * k,
                                                         pull=0.02))
                X, Y = P[:k], P[k:]
                close = X * (1.0 + 1e-13 * rng.normal(size=X.shape))
                for A, B in ((X, Y), (X, close)):
                    assert_same(cone_distances(cone, A, B),
                                reference_cone_distances(cone, A, B))
                    assert_same(cone_distance(cone, A[0], B[0]),
                                reference_cone_distances(cone, A[0], B[0])[0])
        assert_cone_errors_match_reference(cone, X, Y)


def mpmath_lorentz_distance(x, y):
    """ln min_scale(x, y) + ln min_scale(y, x) on the Lorentz cone, in
    60 digits from the floats' exact values."""
    with mpmath.workdps(60):
        x, y = ([mpmath.mpf(float(v)) for v in p] for p in (x, y))

        def form(a, b):
            return a[0] * b[0] - mpmath.fsum(u * v for u, v in
                                             zip(a[1:], b[1:]))

        def scale(a, b):
            B = form(a, b)
            return (B + mpmath.sqrt(B * B - form(a, a) * form(b, b))) / form(a, a)

        return mpmath.log(scale(x, y)) + mpmath.log(scale(y, x))


def assert_lorentz_matches_oracle(cone, X, Y):
    got = cone_distances(cone, X, Y)
    for i in range(len(X)):
        want = mpmath_lorentz_distance(X[i], Y[i])
        assert abs(got[i] - want) <= 1e-13 * want
        assert cone_distance(cone, X[i], Y[i]) == got[i]


def test_lorentz_cone_distances_match_mpmath_oracle():
    rng = np.random.default_rng(49)
    for n in (3, 4):
        cone = lorentz_cone(n)
        ball = build_ellipsoid(np.zeros(n - 1), np.eye(n - 1))
        for sep in 10.0 ** -np.arange(4, 13):
            X = rng.uniform(0.5, 2.0, size=(6, 1)) * cone.embed(
                ball.sample_interior(rng, 6, pull=0.02))
            Y = X + sep * np.abs(X).max() * rng.normal(size=X.shape)
            assert_lorentz_matches_oracle(cone, X, Y)
        assert_cone_errors_match_reference(cone, X, Y)
        # close pairs 1e-4 to 1e-14 apart at one scale from 1e-9 to 1e12,
        # and at two scales a power of two apart: x is brought to the
        # scale of y exactly, so the pair keeps its digits
        for sep in 10.0 ** -np.arange(4.0, 15.0, 2.0):
            X = cone.embed(ball.sample_interior(rng, 4, pull=0.02))
            Y = X + sep * rng.normal(size=X.shape)
            for sx, sy in ((1e-9, 1e-9), (1e12, 1e12), (2.0**20, 2.0**-20),
                           (2.0**-30, 2.0**40), (0.75, 6.0)):
                assert_lorentz_matches_oracle(cone, sx * X, sy * Y)
        # far pairs with x and y rescaled on their own, 1e-9 to 1e12
        X = cone.embed(ball.sample_interior(rng, 4, pull=0.02))
        Y = cone.embed(ball.sample_interior(rng, 4, pull=0.02))
        for sx, sy in ((1e-9, 1e12), (1e12, 1e-9), (3.0, 1.0 / 7.0)):
            assert_lorentz_matches_oracle(cone, sx * X, sy * Y)
        # 1e-3 to 1e-12 from the boundary, with |w|^2 exact
        # (_sphere_point) at power-of-two heights
        for gap in (1e-3, 1e-6, 1e-9, 1e-12):
            w = _sphere_point(rng, n - 1, gap)
            W = [_sphere_point(rng, n - 1, 0.3), -w,
                 _sphere_point(rng, n - 1, gap)]
            X = cone.embed(np.array([w, w, w]))
            Y = cone.embed(np.array(W))
            for sx, sy in ((1.0, 1.0), (2.0**-30, 2.0**40)):
                assert_lorentz_matches_oracle(cone, sx * X, sy * Y)
                assert_lorentz_matches_oracle(cone, sy * Y, sx * X)


def mpmath_funk_distance(L, x, y):
    """log max_i l_i.y / l_i.x + log max_j l_j.x / l_j.y over the rows of
    L, in 50 digits from the floats' exact values."""
    with mpmath.workdps(50):
        L, x, y = ([[mpmath.mpf(float(v)) for v in row] for row in a]
                   for a in (L, [x], [y]))
        fx = [mpmath.fsum(u * v for u, v in zip(row, x[0])) for row in L]
        fy = [mpmath.fsum(u * v for u, v in zip(row, y[0])) for row in L]
        return (mpmath.log(max(b / a for a, b in zip(fx, fy)))
                + mpmath.log(max(a / b for a, b in zip(fx, fy))))


def test_polyhedral_cone_distances_at_any_pair_of_scales():
    """Each x is brought to its y's scale by the nearest power of two, an
    exact scaling, before the one product: a pair whose scales differ by a
    power of two reads its unscaled value bit for bit, and every pair, at
    scales 1e-300 to 1e300, matches a 50-digit Funk sum of the same floats
    to 1e-13 of it, or to 4e-16 where a ratio that is not a power of two
    leaves D = Y - 2^e X of the size of Y."""
    rng = np.random.default_rng(53)
    square = cone_over(build_polytope(SQUARE))
    x = np.array([0.1, 0.2, 1.0])
    y = x + 1e-10 * np.array([0.3, -0.2, 0.0])
    unit = cone_distance(square, x, y)
    for s in (2.0**20, 2.0**-30, 2.0**900, 2.0**-900):
        assert cone_distance(square, s * x, y) == unit
        assert cone_distance(square, x, s * y) == unit
    polygon = build_polytope(rng.normal(size=(9, 2)))
    for dom, cone in ((build_polytope(SQUARE), square),
                      (polygon, cone_over(polygon)),
                      (standard_simplex(2), cone_over(standard_simplex(2)))):
        for sep in (1e-1, 1e-4, 1e-7, 1e-10, 1e-12):
            X = cone.embed(dom.sample_interior(rng, 3, pull=0.05))
            Y = cone.embed(dom.sample_interior(rng, 3, pull=0.05))
            Y = X + sep * (Y - X)
            base = cone_distances(cone, X, Y)
            for sx, sy in ((2.0**20, 1.0), (2.0**-40, 2.0**30), (1e300, 1.0),
                           (1e-300, 1e300), (3.0, 1e-9), (1.0, 1e12)):
                got = cone_distances(cone, sx * X, sy * Y)
                for i in range(len(X)):
                    want = mpmath_funk_distance(cone.functionals, sx * X[i],
                                                sy * Y[i])
                    assert abs(got[i] - want) <= 1e-13 * want + 4e-16
                if math.frexp(sx)[0] == math.frexp(sy)[0]:
                    assert np.array_equal(got, base)


def test_lorentz_cone_reads_points_at_any_scale():
    """Each point's first coordinate is brought into [1/2, 1) by its power
    of two before the quadratic form, which is exact: a point at 1e-300
    to 1e300 is interior, and its distance has the unit-scale digits, bit
    for bit when the scale is a power of two."""
    cone = lorentz_cone(3)
    x, y = np.array([1.0, 0.2, 0.1]), np.array([1.5, -0.3, 0.2])
    unit = cone_distance(cone, x, y)
    for k in range(-300, 301, 25):
        s = 10.0**k
        assert cone.contains_interior(s * x)
        for a, b in ((s * x, y), (x, s * y), (s * x, s * y)):
            assert cone_distance(cone, a, b) == pytest.approx(unit, rel=1e-15)
        assert cone_distance(cone, 2.0**(3 * k) * x, y) == unit


def test_chord_through_matches_reference_faces_and_parameters():
    rng = np.random.default_rng(50)
    for dom in read_path_domains(rng):
        X = dom.sample_interior(rng, 20, pull=0.02)
        Y = dom.sample_interior(rng, 20, pull=0.02)
        pairs = list(zip(X, Y))
        if dom.kind == "polytope":
            # through a vertex, along an edge's direction, and outside
            v = dom.vertices
            c = dom.centroid()
            pairs += [(0.5 * (v[0] + c), c), (c, c + 0.3 * (v[1] - v[0])),
                      (c, 3.0 * v[0] - 2.0 * c), (v[0], c)]
        for x, y in pairs:
            got = outcome(dom.chord_through, x, y)
            want = outcome(reference_chord, dom, x, y)
            if isinstance(want[0], type):
                assert got == want
                continue
            assert (got.t_alpha, got.t_beta) == want[:2]
            assert dom.chord_params(x, y) == want[:2]
            assert (got.face_alpha, got.face_beta) == want[2:]
            for face, p in ((got.face_alpha, got.alpha),
                            (got.face_beta, got.beta)):
                assert dom.boundary_face_of(p) == face
                if dom.kind == "polytope":
                    assert dom.in_relative_interior(face, p)
                    assert not dom.in_relative_interior(face, x)


def ray_end(dom, start, d):
    """The t_hi of ConvexDomain._ray and the face of the ray's end, read
    from the facets that bind it (None on an ellipsoid)."""
    t_hi, ends, _ = dom._ray(start, d, None)
    return t_hi, None if ends is None else dom._faces_of(ends[1:])[0]


def test_ray_matches_reference_face_and_parameter():
    """A ray's start is checked and its line clipped in one pass: its t_hi
    is the per-facet reference's bit for bit, its end's face the meet of
    the facets that bind it there, and its errors the reference's, with
    their point, row and least slack."""
    rng = np.random.default_rng(52)
    for dom in read_path_domains(rng):
        X = dom.sample_interior(rng, 20, pull=0.02)
        Y = dom.sample_interior(rng, 20, pull=0.02)
        rays = [(x, y - x) for x, y in zip(X, Y)]
        c = dom.centroid()
        if dom.kind == "polytope":
            # through a vertex, along an edge's direction, and away from
            # a vertex, as minimal_cone_at casts it
            v = dom.vertices
            rays += [(c, v[0] - c), (c, v[1] - v[0]), (c, c - v[0])]
        # outside, on the boundary, a zero direction, off the hull, and
        # not finite
        far = 3.0 * X[0] - 2.0 * c
        rays += [(far, c - far), (c, np.zeros_like(c)),
                 (np.full_like(c, np.nan), c), (c, np.full_like(c, np.inf))]
        if dom.kind == "polytope":
            rays.append((dom.vertices[0], c - dom.vertices[0]))
        if dom.intrinsic_dim < dom.ambient_dim:
            rays.append((c, np.eye(dom.ambient_dim)[0]))
        for start, d in rays:
            want = outcome(reference_ray, dom, start, d)
            got = outcome(ray_end, dom, start, d)
            assert got == want
            if isinstance(want[0], type):
                assert outcome(dom.ray, start, d) == want
                continue
            r = dom.ray(start, d)
            assert r.length == pytest.approx(want[0] * np.linalg.norm(d),
                                             rel=1e-12)
            assert np.allclose(r.endpoint, r.start + r.length * r.direction,
                               rtol=0.0, atol=1e-12 * dom._extent())
            if dom.kind == "polytope":
                assert dom.boundary_face_of(r.endpoint) == want[1]
                assert dom.in_relative_interior(want[1], r.endpoint)


def test_ball_clips_its_rays_in_one_call():
    """hilbert_ball clips every ray at once; against one clip per ray the
    points agree to round-off."""
    rng = np.random.default_rng(51)
    for dom in (build_polytope(SQUARE), build_polytope(rng.normal(size=(9, 2))),
                build_ellipsoid(rng.normal(size=2), tilted_shape(rng, 2))):
        center = dom.sample_interior(rng, 1, pull=0.3)
        got = hilbert_ball(dom, center, 0.8, n_dirs=90)
        u0 = dom.to_local(center)
        th = 2.0 * math.pi * np.arange(90) / 90
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        # the line u0 + t du as _clip_line reads it: a polytope's facet
        # slacks at u0 and rates along du, an ellipsoid's whitened u0, du
        if dom.kind == "polytope":
            s, to_rate = dom._b - u0 @ dom._A.T, dom._A.T
        else:
            s, to_rate = (u0 - dom.center) @ dom._M, dom._M
        t_lo, t_hi = np.array([dom._clip_line(s, du @ to_rate)[:2]
                               for du in dirs]).T
        assert np.array_equal(dom._clip_line(s, dirs[7] @ to_rate)[:2],
                              (t_lo[7], t_hi[7]))
        t = (t_hi * -t_lo * -math.expm1(-0.8)
             / (t_hi * math.exp(-0.8) - t_lo))
        want = dom.to_ambient(u0 + t[:, None] * dirs)
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert err.max() <= 1e-14


def agreement_domains(rng, n):
    """n random polygons and 3-polytopes at scales 1e-6..1e9, translated,
    every third embedded one dimension up, and two ellipsoids."""
    out = []
    for k in range(n):
        scale = 10.0 ** rng.uniform(-6.0, 9.0)
        d = 2 + k % 2
        P = rng.normal(size=(5 + k % 7, d))
        if k % 3 == 0:
            Q = np.linalg.qr(rng.normal(size=(d + 1, d + 1)))[0][:, :d]
            P = P @ Q.T
        out.append(build_polytope(scale * (P + rng.normal(size=P.shape[1]))))
    for d in (2, 3):
        scale = 10.0 ** rng.uniform(-6.0, 9.0)
        out.append(build_ellipsoid(scale * rng.normal(size=d),
                                   scale * scale * tilted_shape(rng, d)))
    return out


def test_predicates_accept_a_point_as_a_query_does():
    """contains_interior([p, c], 0.0)[0], and contains_interior(p, 0.0),
    hold exactly when distance(p, c) at eps 0 raises no PointNotInterior,
    for points p at the boundary's round-off: ray ends from the centroid
    c, and those times 1 +- 2^-52 and 1 - 2^-50, about the origin and
    about c.  All read p's slacks and hull residual off the one product
    (p - o) @ M."""
    rng = np.random.default_rng(61)
    shrink = (1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -50, 1.0)
    disagree = []
    for dom in agreement_domains(rng, 24):
        c = dom.centroid()
        for _ in range(10):
            end = dom.ray(c, rng.normal(size=dom.intrinsic_dim)
                          @ dom._frame.T).endpoint
            for f in shrink:
                for p in (end * f, c + (end - c) * f):
                    inside = dom.contains_interior(np.array([p, c]), 0.0)[0]
                    try:
                        distance(dom, p, c, eps=0.0)
                        accepted = True
                    except PointNotInterior:
                        accepted = False
                    single = dom.contains_interior(p, 0.0)
                    if (inside, single) != (accepted, accepted):
                        disagree.append((dom, p))
    assert not disagree


def _face_point(dom):
    c = dom.centroid()
    return dom.ray(c, dom.vertices[0] - c if dom.kind == "polytope"
                   else dom._chol[:, 0]).endpoint


WIDTH_ENTRY_POINTS = {
    "contains_interior": lambda dom, bad: dom.contains_interior(bad),
    "on_boundary": lambda dom, bad: dom.on_boundary(bad),
    "min_slack": lambda dom, bad: dom.min_slack(bad),
    "hull_residual": lambda dom, bad: dom.hull_residual(bad),
    "boundary_face_of": lambda dom, bad: dom.boundary_face_of(bad),
    "in_relative_interior": lambda dom, bad: dom.in_relative_interior(
        dom.boundary_face_of(_face_point(dom)), bad),
    "to_local": lambda dom, bad: dom.to_local(bad),
    "distances": lambda dom, bad: distances(dom, bad, bad),
    "distance_x": lambda dom, bad: distance(dom, bad, dom.centroid()),
    "chord_through": lambda dom, bad: dom.chord_through(
        dom.centroid(), bad),
    "chord_params": lambda dom, bad: dom.chord_params(bad, dom.centroid()),
    "ray_start": lambda dom, bad: dom.ray(bad, dom.centroid()),
    "ray_direction": lambda dom, bad: dom.ray(dom.centroid(), bad),
    "hilbert_ball": lambda dom, bad: hilbert_ball(dom, bad, 0.5),
    "minkowski_functional": lambda dom, bad: minkowski_functional(
        build_polytope(dom.vertices - dom.centroid())
        if dom.kind == "polytope" else dom, bad),
    "asymptotic_profile": lambda dom, bad: asymptotic_profile(
        dom, bad, bad, _face_point(dom), _face_point(dom)),
    "focusing_probe": lambda dom, bad: focusing_probe(
        dom, lambda P: P, _face_point(dom), [bad, bad]),
    "focusing_probe_target": lambda dom, bad: focusing_probe(
        dom, lambda P: P, bad, [dom.centroid(), dom.centroid()]),
    "cross_section_point": lambda dom, bad: dom.cross_section(
        bad, np.eye(dom.ambient_dim)[:2]),
    "cross_section_spans": lambda dom, bad: dom.cross_section(
        dom.centroid(), bad),
    "join_region": lambda dom, bad: _chord_join(dom)(bad),
}


def _chord_join(dom):
    """The join of the end faces of a chord through the centroid."""
    c = dom.centroid()
    chord = dom.chord_through(c, c + 0.1 * (_face_point(dom) - c))
    return dom.join_region(chord.face_alpha, chord.face_beta)


@pytest.mark.parametrize("entry", sorted(WIDTH_ENTRY_POINTS))
def test_points_of_the_wrong_width_are_rejected(entry):
    """A point with one coordinate would broadcast against the domain's
    arrays; every entry point raises DegenerateInput for it, and for
    points one coordinate too wide, scalars and 3-d blocks."""
    call = WIDTH_ENTRY_POINTS[entry]
    for dom in (build_polytope(SQUARE), standard_simplex(2),
                build_ellipsoid([0.0, 0.0], np.eye(2))):
        D = dom.ambient_dim
        for bad in ([0.5], np.full(D + 1, 0.1), 0.5,
                    np.zeros((2, 2, D))):
            with pytest.raises(DegenerateInput, match="coordinates"):
                call(dom, bad)


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
        assert d.tolist() == [space.distance(x, y)
                              for x, y in zip(P[0::2], P[1::2])]
        assert np.ndim(space.sample(rng)) == 1
    square = HilbertSpace(build_polytope(SQUARE))
    assert list(square.contains(np.array([[0.0, 0.0], [2.0, 0.0]]))) == \
        [True, False]
    # no rows, no distances
    for dom in (build_polytope(SQUARE), standard_simplex(2),
                build_ellipsoid([0.3, 0.0], np.eye(2))):
        empty = np.empty((0, dom.ambient_dim))
        assert distances(dom, empty, empty).shape == (0,)
    for cone in (cone_over(standard_simplex(2)), lorentz_cone(3)):
        assert cone_distances(cone, np.empty((0, 3)),
                              np.empty((0, 3))).shape == (0,)


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
        assert d.tolist() == ref
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
