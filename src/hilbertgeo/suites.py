"""Seeded numeric property suites over the library's core claims.

Each suite draws its randomness from a named seed, runs a batch of checks
at fixed tolerances, and returns a JSON-ready report:

    {"experiment": ..., "parameters": {"seed": ..., "samples": ...,
     "tolerances": {...}}, "pass": ..., "metrics": {...}}

The registry SUITES maps the public suite names to their runners.
"""

from __future__ import annotations

import math

import numpy as np

from . import defaults
from .cones import cone_distance, cone_distances, cone_over, lorentz_cone
from .convex import build_ellipsoid, build_polytope, minkowski_functional, standard_simplex
from .isometries import (
    HilbertSpace,
    ProjectiveMap,
    WSpace,
    axis_coords,
    axis_coords_inv,
    classify_2d,
    clr,
    clr_inv,
    focusing_probe,
    projectivity_check,
    reciprocal_map,
    sampled_isometry_check,
    simplex_projective,
    variation_norm,
    vinberg_star,
)
from .metric import (
    asymptotic_profile,
    cross_ratio,
    distance,
    distances,
    is_rigid_chord,
)

__all__ = [
    "SUITES",
    "run_metric_axioms",
    "run_projective_invariance",
    "run_simplex_chart",
    "run_reciprocal",
    "run_cone_slice",
    "run_asymptotics",
    "run_index_two",
    "run_plane_classifier",
    "run_star_maps",
    "run_known_values",
    "run_rigidity",
    "run_conjugation",
]


def _r(x):
    return float(f"{float(x):.12g}")


def _clean(v):
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return _r(v)
    if isinstance(v, dict):
        return {k: _clean(u) for k, u in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_clean(u) for u in np.asarray(v).tolist()] \
            if isinstance(v, np.ndarray) else [_clean(u) for u in v]
    return v


def _report(name, seed, samples, tolerances, passed, metrics):
    return {
        "experiment": name,
        "parameters": {"seed": int(seed), "samples": int(samples),
                       "tolerances": _clean(tolerances)},
        "pass": bool(passed),
        "metrics": _clean(metrics),
    }


# ------------------------------------------------------------- fixtures

def _square():
    return build_polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])


def _triangle():
    return build_polytope([[0, 0], [1, 0], [0, 1]])


def _pentagon():
    return build_polytope([[0, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 1]])


def _disk():
    return build_ellipsoid([0.0, 0.0], np.eye(2))


def _random_quad(rng):
    """Convex quadrilateral with well-separated vertex angles."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=4))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
        if gaps.min() < 0.4:
            continue
        rad = rng.uniform(0.8, 1.6, size=4)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        turns = []
        for i in range(4):
            a, b, c = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
            u, v = b - a, c - b
            turns.append(u[0] * v[1] - u[1] * v[0])
        if np.min(turns) > 0.05:
            return pts


_D4_BLOCKS = None


def _d4_blocks():
    global _D4_BLOCKS
    if _D4_BLOCKS is None:
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        blocks = []
        R = np.eye(2)
        for _ in range(4):
            blocks.append(R.copy())
            blocks.append(R @ np.diag([1.0, -1.0]))
            R = rot @ R
        _D4_BLOCKS = blocks
    return _D4_BLOCKS


def _disk_mobius(rng):
    """Random disk automorphism: rotation, boost, rotation, acting on
    homogeneous (x, y, w) and preserving x^2 + y^2 - w^2."""
    def rot(th):
        c, s = math.cos(th), math.sin(th)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    t = rng.uniform(-1.5, 1.5)
    ch, sh = math.cosh(t), math.sinh(t)
    boost = np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
    return ProjectiveMap(rot(rng.uniform(0, 2 * math.pi)) @ boost
                         @ rot(rng.uniform(0, 2 * math.pi)))


# --------------------------------------------------------------- suites

def run_metric_axioms(seed=0, samples=1000):
    """Symmetry, triangle inequality, and identity of indiscernibles over
    a square, a simplex, a pentagon, and a disk."""
    rng = np.random.default_rng(seed)
    tol_sym, tol_tri = 1e-12, 1e-9
    domains = {"square": _square(), "simplex": standard_simplex(2),
               "pentagon": _pentagon(), "disk": _disk()}
    metrics = {}
    passed = True
    for name, dom in domains.items():
        X, Y, Z = np.reshape(
            dom.sample_interior(rng, 3 * samples, pull=0.02),
            (samples, 3, dom.ambient_dim)).transpose(1, 0, 2)
        dxy = distances(dom, X, Y)
        max_sym = float(np.max(np.abs(dxy - distances(dom, Y, X)),
                               initial=0.0))
        min_slack = float(np.min(dxy + distances(dom, Y, Z)
                                 - distances(dom, X, Z), initial=math.inf))
        min_pos = float(np.min(dxy, initial=math.inf))
        max_self = float(np.max(distances(dom, X, X), initial=0.0))
        ok = (max_sym <= tol_sym and min_slack >= -tol_tri
              and min_pos > 0.0 and max_self == 0.0)
        passed = passed and ok
        metrics[name] = {"max_symmetry_gap": max_sym,
                         "min_triangle_slack": min_slack,
                         "min_positive_distance": min_pos,
                         "max_self_distance": max_self}
    return _report("metric-axioms", seed, samples,
                   {"symmetry": tol_sym, "triangle_slack": tol_tri},
                   passed, metrics)


def run_projective_invariance(seed=0, samples=200):
    """Distance preservation under projective automorphisms: the square's
    dihedral symmetries, simplex scalings and permutations, and disk
    rotation-boost elements."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    pairs_per = 5
    n_square = samples // 4
    n_simplex = (samples - n_square) // 2
    n_disk = samples - n_square - n_simplex
    square, simplex, disk = _square(), standard_simplex(2), _disk()
    pairs = {"square": [], "simplex": [], "disk": []}  # blocks [P, g(P)]

    def draw(family, dom, g):
        P = dom.sample_interior(rng, 2 * pairs_per, pull=0.02)
        pairs[family].append(np.hstack([P, g(P)]))

    blocks = _d4_blocks()
    for _ in range(n_square):
        B = blocks[rng.integers(0, len(blocks))]
        M = np.eye(3)
        M[:2, :2] = B
        draw("square", square, ProjectiveMap(M))
    for _ in range(n_simplex):
        d = np.exp(rng.normal(0.0, 1.0, size=3))
        P = np.eye(3)[rng.permutation(3)]
        draw("simplex", simplex, simplex_projective(P @ np.diag(d)))
    for _ in range(n_disk):
        draw("disk", disk, _disk_mobius(rng))
    worst = {}
    for family, dom in (("square", square), ("simplex", simplex),
                        ("disk", disk)):
        P, G = np.hsplit(np.reshape(pairs[family],
                                    (-1, 2 * dom.ambient_dim)), 2)
        dev = np.abs(distances(dom, P[0::2], P[1::2])
                     - distances(dom, G[0::2], G[1::2]))
        worst[family] = float(np.max(dev, initial=0.0))
    overall = max(worst.values())
    return _report("projective-invariance", seed, samples,
                   {"distance_deviation": tol}, overall <= tol,
                   {"max_deviation": overall, "per_family": worst,
                    "pairs_per_element": pairs_per})


def run_simplex_chart(seed=0, samples=1000):
    """The centered log chart is an isometry onto the variation-norm
    hyperplane, whose unit ball in dimension 2 is the derived hexagon."""
    rng = np.random.default_rng(seed)
    tol_iso, tol_gauge = 1e-9, 1e-12
    devs = {}
    for n in (2, 3):
        dev = sampled_isometry_check(
            HilbertSpace(standard_simplex(n)), WSpace(n), clr, rng,
            samples=samples)
        devs[f"n{n}"] = dev
    hexagon = build_polytope([
        [2 / 3, -1 / 3, -1 / 3], [-1 / 3, 2 / 3, -1 / 3],
        [-1 / 3, -1 / 3, 2 / 3], [-2 / 3, 1 / 3, 1 / 3],
        [1 / 3, -2 / 3, 1 / 3], [1 / 3, 1 / 3, -2 / 3],
    ])
    V = rng.normal(size=(200, 3))
    V -= V.mean(axis=1, keepdims=True)
    gauge_gap = float(np.max(np.abs(minkowski_functional(hexagon, V)
                                    - variation_norm(V))))
    X = standard_simplex(2).sample_interior(rng, 200, pull=0.01)
    roundtrip = float(np.max(np.abs(clr_inv(clr(X)) - X)))
    passed = (max(devs.values()) <= tol_iso and gauge_gap <= tol_gauge
              and roundtrip <= tol_gauge)
    return _report("simplex-chart", seed, samples,
                   {"isometry": tol_iso, "gauge": tol_gauge}, passed,
                   {"max_isometry_deviation": devs,
                    "max_gauge_gap": gauge_gap,
                    "max_roundtrip_gap": roundtrip})


def run_reciprocal(seed=0, samples=200):
    """The entrywise reciprocal map of the simplex: involutive, distance
    preserving, genuinely non-projective, and non-focusing at a vertex."""
    rng = np.random.default_rng(seed)
    tol_inv, tol_iso = 1e-12, 1e-9
    min_residual, min_spread = 1e-3, 0.1
    inv_gap = 0.0
    iso_dev = 0.0
    for n in (2, 3):
        dom = standard_simplex(n)
        X = dom.sample_interior(rng, samples, pull=0.01)
        inv_gap = max(inv_gap, float(np.max(np.abs(
            reciprocal_map(reciprocal_map(X)) - X), initial=0.0)))
        iso_dev = max(iso_dev, sampled_isometry_check(
            HilbertSpace(dom), HilbertSpace(dom), reciprocal_map, rng,
            samples=samples))
    simplex = standard_simplex(2)
    residual = projectivity_check(simplex, reciprocal_map, rng)
    verdict = focusing_probe(
        simplex, reciprocal_map, np.array([1.0, 0.0, 0.0]),
        [np.array([1 / 3, 1 / 3, 1 / 3]), np.array([0.2, 0.6, 0.2]),
         np.array([0.2, 0.2, 0.6]), np.array([0.5, 0.1, 0.4])])
    passed = (inv_gap <= tol_inv and iso_dev <= tol_iso
              and residual > min_residual
              and not verdict.focused and verdict.spread > min_spread)
    return _report("reciprocal", seed, samples,
                   {"involution": tol_inv, "isometry": tol_iso,
                    "min_projectivity_residual": min_residual,
                    "min_focus_spread": min_spread}, passed,
                   {"max_involution_gap": inv_gap,
                    "max_isometry_deviation": iso_dev,
                    "projectivity_residual": residual,
                    "focused": verdict.focused,
                    "focus_spread": verdict.spread})


def run_cone_slice(seed=0, samples=1000):
    """The projective cone metric restricts to the Hilbert metric on the
    defining slice: simplex/orthant, square/lifted cone, disk/Lorentz."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    groups = {}
    simplex, square = standard_simplex(2), _square()
    for group, dom, cone in (
            ("simplex-orthant", simplex, cone_over(simplex)),
            ("square-lifted", square, cone_over(square)),
            ("disk-lorentz", _disk(), lorentz_cone(3))):
        P = dom.sample_interior(rng, 2 * samples, pull=0.02)
        X, Y = P[0::2], P[1::2]
        dev = np.abs(cone_distances(cone, cone.embed(X), cone.embed(Y))
                     - distances(dom, X, Y))
        groups[group] = float(np.max(dev, initial=0.0))
    overall = max(groups.values())
    return _report("cone-slice", seed, samples, {"deviation": tol},
                   overall <= tol,
                   {"max_deviation": overall, "per_pair": groups})


def _interior_profile(domain, x0, y0, a1, a2, steps):
    """asymptotic_profile stopped at the last step n <= steps whose points
    a + 2^-n (x0 - a) are strictly interior: near n = 53 they round onto
    their targets."""
    x0, y0, a1, a2 = (np.asarray(p, dtype=float) for p in (x0, y0, a1, a2))
    t = 2.0 ** -np.arange(steps + 1)[:, None]
    P = np.vstack([a1 + t * (x0 - a1), a2 + t * (y0 - a2)])
    inside = domain.contains_interior(P, eps=0.0).reshape(2, -1).all(axis=0)
    if not inside.all():
        steps = int(np.argmin(inside)) - 1
    return asymptotic_profile(domain, x0, y0, a1, a2, steps=steps)


def run_asymptotics(seed=0, samples=40):
    """Boundary-approach profiles on the square: bounded toward one vertex,
    a finite cross-ratio limit for parallel approaches into one edge, and
    divergence for separated targets.  samples is the step count of the
    profiles; the divergent one takes at least the library's default
    steps, so that a small budget does not stop it short of the bound,
    and each stops at the last step whose points are strictly interior."""
    square = _square()
    steps = int(samples)
    bound = 10.0
    tol_limit = 1e-6
    same = _interior_profile(square, [-0.3, -0.2], [0.4, 0.1],
                             [1.0, 1.0], [1.0, 1.0], steps)
    par = _interior_profile(square, [-0.5, 0.0], [0.5, 0.0],
                            [-0.5, 1.0], [0.5, 1.0], steps)
    limit = math.log(9.0)
    div = _interior_profile(square, [-0.3, -0.2], [0.4, 0.1],
                            [1.0, 1.0], [-1.0, 0.0],
                            max(steps, defaults.DEFAULT_STEPS))
    passed = (same.mode == "same-point" and same.sup < bound
              and par.mode == "parallel"
              and abs(par.limit_estimate - limit) <= tol_limit
              and div.mode == "divergent" and div.exceeded_at is not None)
    return _report("asymptotics", seed, samples,
                   {"divergence_bound": bound, "parallel_limit": tol_limit},
                   passed,
                   {"same_point": {"mode": same.mode, "sup": same.sup},
                    "parallel": {"mode": par.mode,
                                 "limit_estimate": par.limit_estimate,
                                 "target": limit,
                                 "gap": abs(par.limit_estimate - limit)},
                    "divergent": {"mode": div.mode,
                                  "exceeded_at": div.exceeded_at,
                                  "sup": div.sup}})


def run_index_two(seed=0, samples=50):
    """Every sampled isometry of the simplex is projective up to one
    reciprocal factor: composing a reciprocal-twisted map with the
    reciprocal again lands in the projective class, which focuses."""
    rng = np.random.default_rng(seed)
    tol_proj = 1e-9
    min_residual = 1e-3
    simplex = standard_simplex(2)
    starts = [np.array([1 / 3, 1 / 3, 1 / 3]), np.array([0.2, 0.6, 0.2]),
              np.array([0.6, 0.2, 0.2])]
    target = np.array([1.0, 0.0, 0.0])
    max_recovered = 0.0
    min_raw = math.inf
    all_focused = True
    for _ in range(samples):
        d = np.exp(rng.normal(0.0, 1.0, size=3))
        P = np.eye(3)[rng.permutation(3)]
        p = simplex_projective(P @ np.diag(d))

        def g(X, p=p):
            return reciprocal_map(p(X))

        def recovered(X, g=g):
            return reciprocal_map(g(X))

        min_raw = min(min_raw, projectivity_check(simplex, g, rng,
                                                  samples=30))
        max_recovered = max(max_recovered,
                            projectivity_check(simplex, recovered, rng,
                                               samples=30))
        verdict = focusing_probe(simplex, recovered, target, starts)
        all_focused = all_focused and verdict.focused
    passed = (max_recovered <= tol_proj and min_raw > min_residual
              and all_focused)
    return _report("index-two", seed, samples,
                   {"projectivity": tol_proj,
                    "min_twisted_residual": min_residual}, passed,
                   {"max_recovered_residual": max_recovered,
                    "min_twisted_residual": min_raw,
                    "all_recovered_focused": all_focused})


def run_plane_classifier(seed=0, samples=5):
    """Verdicts of the plane classifier across shape families."""
    rng = np.random.default_rng(seed)
    tol = 1e-7
    square, triangle, disk = _square(), _triangle(), _disk()
    tri2 = build_polytope([[0, 0], [2, 0], [0, 1]])
    ellipse = build_ellipsoid([0.3, -0.1], [[2.0, 0.3], [0.3, 0.5]])
    cases = {}
    c = classify_2d(triangle, tri2, rng, tol)
    cases["triangle-triangle"] = {"verdict": c.verdict,
                                  "deviation": c.max_deviation}
    ok = c.verdict == "projectively-equivalent" and c.max_deviation <= tol
    c = classify_2d(square, triangle, rng, tol)
    cases["square-triangle"] = {"verdict": c.verdict}
    ok = ok and c.verdict == "not-isometric"
    quad_devs = []
    for _ in range(int(samples)):
        quad = build_polytope(_random_quad(rng))
        c = classify_2d(square, quad, rng, tol)
        if c.verdict != "projectively-equivalent":
            ok = False
            quad_devs.append(math.inf)
        else:
            quad_devs.append(c.max_deviation)
    finite = [d for d in quad_devs if math.isfinite(d)]
    cases["square-quadrilateral"] = {
        "verdicts_ok": all(math.isfinite(d) for d in quad_devs),
        "max_deviation": max(finite) if finite else None}
    ok = ok and all(math.isfinite(d) and d <= tol for d in quad_devs)
    c = classify_2d(disk, ellipse, rng, tol)
    cases["disk-ellipse"] = {"verdict": c.verdict,
                             "deviation": c.max_deviation}
    ok = ok and c.verdict == "projectively-equivalent" and c.max_deviation <= tol
    c = classify_2d(square, disk, rng, tol)
    cases["square-disk"] = {"verdict": c.verdict}
    ok = ok and c.verdict == "not-isometric"
    return _report("plane-classifier", seed, samples,
                   {"residual": tol}, ok, cases)


def run_star_maps(seed=0, samples=300):
    """Self-dual cone star maps: on the positive orthant the star agrees
    with the simplex reciprocal on the unit slice and preserves the cone
    metric; on the Lorentz cone it acts on the disk slice as the antipode,
    a projective isometry."""
    rng = np.random.default_rng(seed)
    tol_exact, tol_iso = 1e-12, 1e-9
    simplex = standard_simplex(2)
    orthant = cone_over(simplex)
    # rows x, y, x, y, ... of positive points
    Z = np.exp(rng.normal(0.0, 1.0, size=(2 * samples, 3)))
    X, Y = Z[0::2], Z[1::2]
    star_x = vinberg_star("orthant", X)
    agree = float(np.max(np.abs(
        star_x / star_x.sum(axis=1, keepdims=True)
        - reciprocal_map(X / X.sum(axis=1, keepdims=True))), initial=0.0))
    cone_dev = float(np.max(np.abs(
        cone_distances(orthant, X, Y)
        - cone_distances(orthant, star_x, vinberg_star("orthant", Y))),
        initial=0.0))
    disk = _disk()
    lorentz = lorentz_cone(3)

    def slice_star(p):
        z = vinberg_star("lorentz", lorentz.embed(p))
        return z[..., 1:] / z[..., :1]

    P = disk.sample_interior(rng, samples, pull=0.01)
    antipode_gap = float(np.max(np.abs(slice_star(P) + P), initial=0.0))
    iso_dev = sampled_isometry_check(HilbertSpace(disk), HilbertSpace(disk),
                                     slice_star, rng, samples=200)
    residual = projectivity_check(disk, slice_star, rng)
    passed = (agree <= tol_exact and cone_dev <= tol_exact
              and antipode_gap <= tol_exact and iso_dev <= tol_iso
              and residual <= tol_iso)
    return _report("star-maps", seed, samples,
                   {"exact": tol_exact, "isometry": tol_iso}, passed,
                   {"max_slice_agreement_gap": agree,
                    "max_cone_metric_deviation": cone_dev,
                    "max_antipode_gap": antipode_gap,
                    "max_isometry_deviation": iso_dev,
                    "projectivity_residual": residual})


# ------------------------------------------- unregistered (test-facing)

def run_known_values(seed=0, samples=0):
    """Closed-form values: cross ratios, distances on standard domains,
    chart images, and cone facts."""
    tol = 1e-12
    square, simplex, disk = _square(), standard_simplex(2), _disk()
    checks = {}

    def put(name, got, want):
        checks[name] = {"got": got, "want": want, "gap": abs(got - want)}

    put("cr_0123", cross_ratio([0.0], [1.0], [2.0], [3.0]), 4.0)
    put("cr_0124", cross_ratio([0.0], [1.0], [2.0], [4.0]), 3.0)
    put("cr_degenerate_pair", cross_ratio([0.0], [1.0], [1.0], [3.0]), 1.0)
    put("disk_half_radius", distance(disk, [0.0, 0.0], [0.5, 0.0]),
        math.log(3.0))
    put("square_mid_chord",
        distance(square, [-0.5, 0.0], [0.5, 0.0]), math.log(9.0))
    put("simplex_swap",
        distance(simplex, [0.5, 0.25, 0.25], [0.25, 0.5, 0.25]),
        math.log(4.0))
    theta = clr([0.5, 0.25, 0.25])
    want = np.array([2 / 3, -1 / 3, -1 / 3]) * math.log(2.0)
    put("clr_value", float(np.max(np.abs(theta - want))), 0.0)
    put("reciprocal_value", float(np.max(np.abs(
        reciprocal_map([0.5, 0.25, 0.25]) - np.array([0.2, 0.4, 0.4])))),
        0.0)
    orthant = cone_over(simplex)
    put("orthant_distance",
        cone_distance(orthant, [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
        math.log(2.0))
    star = vinberg_star("lorentz", np.array([2.0, 1.0, 0.0]))
    put("lorentz_star_ray", float(np.max(np.abs(
        star / star[0] - np.array([1.0, -0.5, 0.0])))), 0.0)
    hexagon = build_polytope([
        [2 / 3, -1 / 3, -1 / 3], [-1 / 3, 2 / 3, -1 / 3],
        [-1 / 3, -1 / 3, 2 / 3], [-2 / 3, 1 / 3, 1 / 3],
        [1 / 3, -2 / 3, 1 / 3], [1 / 3, 1 / 3, -2 / 3],
    ])
    put("hexagon_gauge",
        minkowski_functional(hexagon, [1.0, -1.0, 0.0]), 2.0)
    worst = max(c["gap"] for c in checks.values())
    return _report("known-values", seed, samples, {"gap": tol},
                   worst <= tol, {"checks": checks, "max_gap": worst})


def run_rigidity(seed=0, samples=0):
    """Chord rigidity on the square, the cube, and the 3-simplex."""
    tol_gap = 1e-7
    square = _square()
    cube = build_polytope([[sx, sy, sz] for sx in (-1, 1)
                           for sy in (-1, 1) for sz in (-1, 1)])
    tetra = standard_simplex(3)
    cases = {}
    r = is_rigid_chord(square, [-0.5, 0.0], [0.5, 0.0])
    cases["square-edge-edge"] = {
        "rigid": r.rigid,
        "witness_gap": r.additivity_gap,
        "witness_off_chord": (r.witness is not None and
                              abs(float(r.witness[1])) > 1e-3)}
    ok = (not r.rigid and r.additivity_gap is not None
          and r.additivity_gap <= tol_gap)
    r = is_rigid_chord(square, [-0.5, -0.5], [0.5, 0.5])
    cases["square-vertex-vertex"] = {"rigid": r.rigid}
    ok = ok and r.rigid
    a = np.array([0.5, 0.5, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.5, 0.5])
    r = is_rigid_chord(tetra, a + 0.25 * (b - a), a + 0.75 * (b - a))
    cases["tetra-skew-edges"] = {"rigid": r.rigid}
    ok = ok and r.rigid
    r = is_rigid_chord(cube, [0.0, 0.0, -0.5], [0.1, 0.2, 0.5])
    cases["cube-facet-facet"] = {
        "rigid": r.rigid, "witness_gap": r.additivity_gap}
    ok = ok and not r.rigid and r.additivity_gap is not None \
        and r.additivity_gap <= tol_gap
    return _report("rigidity", seed, samples, {"witness_gap": tol_gap},
                   ok, cases)


def run_conjugation(seed=0, samples=12):
    """Vertex-fixing simplex isometries, pushed through the log chart and
    the axis basis, act affinely on axis coordinates."""
    rng = np.random.default_rng(seed)
    tol = 1e-7
    grid = np.linspace(-2.0, 2.0, 21)
    pts = np.array([[a, b] for a in grid for b in grid])
    worst = 0.0
    ks = []
    for _ in range(int(samples)):
        d = np.exp(rng.normal(0.0, 1.0, size=3))
        p = simplex_projective(np.diag(d))

        def conj(a, p=p):
            return axis_coords(clr(p(clr_inv(axis_coords_inv(a)))))

        imgs = conj(pts)
        # least squares for images ~ k * a + c: rows (a0, 1, 0), (a1, 0, 1)
        rows = np.zeros((2 * len(pts), 3))
        rows[:, 0] = pts.ravel()
        rows[0::2, 1] = rows[1::2, 2] = 1.0
        sol, *_ = np.linalg.lstsq(rows, imgs.ravel(), rcond=None)
        k, c = sol[0], sol[1:]
        fit = pts * k + c
        worst = max(worst, float(np.max(np.abs(fit - imgs))))
        ks.append(float(k))
    return _report("conjugation", seed, samples, {"affine_residual": tol},
                   worst <= tol,
                   {"max_affine_residual": worst,
                    "scale_range": [min(ks), max(ks)]})


SUITES = {
    "metric-axioms": run_metric_axioms,
    "projective-invariance": run_projective_invariance,
    "simplex-chart": run_simplex_chart,
    "reciprocal": run_reciprocal,
    "cone-slice": run_cone_slice,
    "asymptotics": run_asymptotics,
    "index-two": run_index_two,
    "plane-classifier": run_plane_classifier,
    "star-maps": run_star_maps,
}
