"""distance-stream: metric queries against domains built during set-up.

One op is one query.  The queries cycle through a fixed schedule of 100
slots (kind, domain, variant); the seed draws the domains' shapes and
every query point.  Shares are therefore fixed: 70 distances (4 near the
boundary, 2 short-range, and the 2 known-defect pairs 1e-13 and 1e-14
apart), 8 chords, 6 Gromov products, 13 cone distances and 3 asymptotic
profiles (41 distances each), which make the p99.
"""

from __future__ import annotations

import numpy as np

import hilbertgeo as hg

import shapes

POOL = 4096  # distinct queries; the timed loop cycles through them

POLYGONS = {"triangle": 3, "m8": 8, "m16": 16, "m32": 32, "m64": 64}
# per-layer distance p50 is also reported for these domain groups
GROUPS = {"square": "m4", "m64": "m64", "disk": "ellipsoid",
          "ellipsoid3": "ellipsoid"}

_SLOTS = (
    [("distance", d, "interior", n) for d, n in (
        ("square", 6), ("triangle", 3), ("m8", 4), ("m16", 5), ("m32", 6),
        ("m64", 8), ("cube3", 5), ("bipyr16", 4), ("cross4", 5),
        ("simplex2", 3), ("simplex3", 3), ("disk", 5), ("ellipsoid3", 5))]
    + [("distance", d, "near-boundary", 1)
       for d in ("square", "m64", "disk", "cube3")]
    + [("distance", "m8", "short", 1), ("distance", "disk", "short", 1),
       ("distance", "m8", "close-1e-13", 1),
       ("distance", "square", "close-1e-14", 1)]
    + [("chord_through", d, "interior", 1) for d in (
        "square", "m16", "m64", "cube3", "cross4", "simplex3", "disk",
        "ellipsoid3")]
    + [("gromov_product", d, "interior", 1) for d in (
        "square", "m32", "cube3", "disk", "simplex2", "bipyr16")]
    + [("cone_distance", d, "interior", n) for d, n in (
        ("cone.square", 3), ("cone.m8", 3), ("orthant", 3),
        ("lorentz3", 2), ("lorentz4", 2))]
    + [("asymptotic_profile", d, v, 1) for d, v in (
        ("square", "same-point"), ("square", "parallel"), ("m8", "divergent"))]
)
# The order of the slots is part of the workload, not of the seed.
SCHEDULE = [s[:3] for s in _SLOTS for _ in range(s[3])]
SCHEDULE = [SCHEDULE[i] for i in
            np.random.default_rng(20140407).permutation(len(SCHEDULE))]

# Inputs that fail at the seed; a failure here is reported, not a surprise.
KNOWN_DEFECTS = {"close-1e-13": "close pair loses digits",
                 "close-1e-14": "close pair loses digits"}
CLOSE = 1e-10  # pairs this close (relative to the domain) lose digits
CLOSE_PAIR_ERROR = "line escapes the polytope"  # how pairs 1e-14 apart fail


def _same(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return all(_same(u, v) for u, v in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


class Query:
    __slots__ = ("kind", "domain", "variant", "args")

    def __init__(self, kind, domain, variant, args):
        self.kind, self.domain, self.variant, self.args = (
            kind, domain, variant, args)

    @property
    def label(self):
        return f"{self.kind}/{self.variant}"


class Workload:
    name = "distance-stream"

    def __init__(self, seed, tiny=False, fault=False):
        self.fault = fault
        rng = np.random.default_rng([seed, 1])
        V = {"square": shapes.SQUARE}
        V.update({k: shapes.polygon(rng, m) for k, m in POLYGONS.items()})
        V["cube3"] = shapes.affine(rng, shapes.cube(3))
        V["bipyr16"] = shapes.bipyramid(rng, 16)
        V["cross4"] = shapes.affine(rng, shapes.cross_polytope(4))
        self.vertices = V
        self.ellipsoids = {
            "disk": (rng.uniform(-0.3, 0.3, 2), shapes.ellipsoid_shape(rng, 2)),
            "ellipsoid3": (rng.uniform(-0.3, 0.3, 3),
                           shapes.ellipsoid_shape(rng, 3))}
        D = {k: hg.build_polytope(v) for k, v in V.items()}
        D["simplex2"] = hg.standard_simplex(2)
        D["simplex3"] = hg.standard_simplex(3)
        V["simplex2"], V["simplex3"] = np.eye(3), np.eye(4)
        for k, (c, S) in self.ellipsoids.items():
            D[k] = hg.build_ellipsoid(c, S)
        D["cone.square"] = hg.cone_over(D["square"])
        D["cone.m8"] = hg.cone_over(D["m8"])
        D["orthant"] = hg.cone_over(D["simplex2"])
        D["lorentz3"] = hg.lorentz_cone(3)
        D["lorentz4"] = hg.lorentz_cone(4)
        self.domains = D
        n = 256 if tiny else POOL
        self.ops = [self._query(rng, *SCHEDULE[i % len(SCHEDULE)])
                    for i in range(n)]
        self.block = len(self.ops)
        self._refs = {}
        self._verdicts = {}
        self._first = {}  # id(query) -> its first output

    # ----------------------------------------------------------- inputs

    def _point(self, rng, dom):
        if dom in self.ellipsoids:
            return shapes.in_ellipsoid(rng, *self.ellipsoids[dom])
        return shapes.interior(rng, self.vertices[dom])

    def _near_boundary(self, rng, dom, delta=1e-6):
        if dom in self.ellipsoids:
            c, S = self.ellipsoids[dom]
            u = rng.normal(size=len(c))
            u /= np.linalg.norm(u)
            L = np.linalg.cholesky(S)
            return (c + (1 - delta) * (L @ u), c - (1 - delta) * (L @ u))
        V = self.vertices[dom]
        i = int(rng.integers(len(V)))
        j = len(V) - 1 - i if dom == "cube3" else (i + len(V) // 2) % len(V)
        c = V.mean(axis=0)
        return (1 - delta) * V[i] + delta * c, (1 - delta) * V[j] + delta * c

    def _cone_point(self, rng, dom):
        lam = rng.uniform(0.5, 2.0)
        if dom.startswith("lorentz"):
            n = int(dom[-1])
            u = rng.normal(size=n - 1)
            u *= 0.9 * rng.uniform() ** (1.0 / (n - 1)) / np.linalg.norm(u)
            return lam * np.concatenate([[1.0], u])
        if dom == "orthant":
            return lam * shapes.interior(rng, np.eye(3))
        base = shapes.interior(rng, self.vertices[dom.split(".")[1]])
        return lam * np.concatenate([base, [1.0]])

    def _edge_point(self, rng, V, k):
        w = rng.uniform(0.2, 0.8)
        return (1 - w) * V[k] + w * V[(k + 1) % len(V)]

    def _profile(self, rng, dom, variant):
        V = self.vertices[dom]
        x0 = shapes.interior(rng, V, pull=0.5)
        if variant == "same-point":
            a1 = a2 = V[int(rng.integers(len(V)))]
            return x0, shapes.interior(rng, V, pull=0.5), a1, a2
        k = int(rng.integers(len(V)))
        a1 = self._edge_point(rng, V, k)
        if variant == "divergent":
            a2 = self._edge_point(rng, V, (k + len(V) // 2) % len(V))
            return x0, shapes.interior(rng, V, pull=0.5), a1, a2
        edge = np.linalg.norm(V[k] - V[(k + 1) % len(V)])
        while True:
            a2 = self._edge_point(rng, V, k)
            if np.linalg.norm(a2 - a1) > 0.2 * edge:
                break
        # y0 - x0 parallel to a2 - a1, inside the pulled (hence interior) hull
        step = rng.uniform(0.05, 0.15) * (a2 - a1) / np.linalg.norm(a2 - a1)
        return x0, x0 + step, a1, a2

    def _query(self, rng, kind, dom, variant):
        if kind == "cone_distance":
            args = (self._cone_point(rng, dom), self._cone_point(rng, dom))
        elif kind == "asymptotic_profile":
            args = self._profile(rng, dom, variant)
        elif kind == "gromov_product":
            args = tuple(self._point(rng, dom) for _ in range(3))
        elif variant == "near-boundary":
            args = self._near_boundary(rng, dom)
        elif variant in ("short", "close-1e-13", "close-1e-14"):
            x = self._point(rng, dom)
            u = rng.normal(size=len(x))
            if dom.startswith("simplex"):
                u -= u.mean()
            sep = {"short": 1e-4, "close-1e-13": 1e-13, "close-1e-14": 1e-14}
            args = (x, x + sep[variant] * u / np.linalg.norm(u))
        else:
            args = (self._point(rng, dom), self._point(rng, dom))
        return Query(kind, dom, variant, args)

    def op(self, i):
        return self.ops[i % len(self.ops)]

    def expected(self, q, out, error):
        """Why a failure of this query is a known defect, or None.  A
        same-point profile ends with pairs about 1e-12 apart: when only
        such entries miss, or the profile stops on the close pair's
        "line escapes" error, it is the close-pair defect again."""
        if q.variant == "same-point" and error and CLOSE_PAIR_ERROR in error:
            return KNOWN_DEFECTS["close-1e-13"]
        if q.kind == "asymptotic_profile" and out is not None:
            import reference as R

            ref = self._ref(q.domain)
            _, ds, xs, ys = out
            missed = [np.linalg.norm(x - y) for x, y, d in zip(xs, ys, ds)
                      if not R.check_distance(ref, x, y, d)[0]]
            if missed and max(missed) <= CLOSE * ref.scale:
                return KNOWN_DEFECTS["close-1e-13"]
        return KNOWN_DEFECTS.get(q.variant)

    # -------------------------------------------------------------- run

    def run(self, q):
        D = self.domains[q.domain]
        a = q.args
        if q.kind == "distance":
            d = hg.distance(D, *a)
            return d * (1.0 + 1e-6) if self.fault else d
        if q.kind == "cone_distance":
            return hg.cone_distance(D, *a)
        if q.kind == "gromov_product":
            return hg.gromov_product(D, *a)
        if q.kind == "chord_through":
            c = D.chord_through(*a)
            return (c.t_alpha, c.t_beta, c.face_alpha.dim, c.face_beta.dim)
        p = hg.asymptotic_profile(D, *a)
        return (p.mode, p.distances, p.xs, p.ys)

    def keep(self, q, out):
        """The output to store: a repeat of a query's first output shares
        that object, so memory does not grow with the number of passes."""
        first = self._first.setdefault(id(q), out)
        if first is out or _same(first, out):
            return first
        return out

    # ------------------------------------------------------------ check

    def _ref(self, dom):
        import reference as R

        if dom not in self._refs:
            if dom in self.ellipsoids:
                self._refs[dom] = R.EllipsoidRef(*self.ellipsoids[dom])
            elif dom.startswith("lorentz"):
                n = int(dom[-1])
                self._refs[dom] = R.EllipsoidRef(np.zeros(n - 1), np.eye(n - 1))
            elif dom == "orthant":
                self._refs[dom] = self._ref("simplex2")
            elif dom.startswith("cone."):
                self._refs[dom] = self._ref(dom.split(".")[1])
            else:
                self._refs[dom] = R.PolytopeRef(
                    self.vertices[dom], embedded=dom.startswith("simplex"))
        return self._refs[dom]

    def check(self, q, out):
        """(ok, relative error of the distance or None).  Queries repeat
        as the loop cycles the pool; a repeated output reuses its verdict."""
        key = (id(q), (out[0], out[1].tobytes())
               if q.kind == "asymptotic_profile" else out)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(q, out)
        return self._verdicts[key]

    def _check(self, q, out):
        import reference as R

        ref = self._ref(q.domain)
        a = q.args
        if q.kind == "distance":
            return R.check_distance(ref, a[0], a[1], out)
        if q.kind == "cone_distance":
            if q.domain.startswith("lorentz"):
                x, y = R.lorentz_slice(a[0]), R.lorentz_slice(a[1])
            else:
                lifted = q.domain != "orthant"
                x, y = R.slice_point(a[0], lifted), R.slice_point(a[1], lifted)
            return R.check_distance(ref, x, y, out)[0], None
        if q.kind == "gromov_product":
            p, x, y = a
            terms = [(p, x, 1), (p, y, 1), (x, y, -1)]
            ds = [(R.hilbert_distance(ref, u, v), u, v, s) for u, v, s in terms]
            g = sum(s * d for d, _, _, s in ds) / 2
            tol = sum(R.allowed_error(ref, u, v, d) for d, u, v, _ in ds) / 2
            return abs(float(out) - float(g)) <= tol + 1e-9 * abs(float(g)), None
        if q.kind == "chord_through":
            t_lo, t_hi = ref.chord_params(*a)
            slack = min(ref.min_slack(a[0]), ref.min_slack(a[1]))
            rel = R.REL_TOL + R.SLACK_ULPS * R.U * ref.scale / slack
            dim = 0 if q.domain in self.ellipsoids else len(a[0]) - (
                1 if not q.domain.startswith("simplex") else 2)
            ok = (abs(out[0] - float(t_lo)) <= rel * abs(float(t_lo))
                  and abs(out[1] - float(t_hi)) <= rel * abs(float(t_hi))
                  and out[2] == dim and out[3] == dim)
            return ok, None
        mode, ds, xs, ys = out
        if mode != q.variant or len(ds) != len(xs):
            return False, None
        return all(R.check_distance(ref, x, y, d)[0]
                   for x, y, d in zip(xs, ys, ds)), None

    # ------------------------------------------------------ layer metrics

    def layer_extras(self, records, spans):
        """Distance p50 per domain group and the worst distance error."""
        groups = {}
        for s in spans:
            if s[0] == "metric.distance" and s[4] >= 0:
                q = self.op(s[4])
                if q.kind == "distance" and q.domain in GROUPS:
                    groups.setdefault(GROUPS[q.domain], []).append(s[2] - s[1])
        out = {f"metric.distance.{g}.p50_us": 1e6 * float(np.median(v))
               for g, v in groups.items()}
        errs = [r.rel_err for r in records
                if r.rel_err is not None and r.op.kind == "distance"]
        out["metric.distance.max_rel_err"] = max(errs, default=0.0)
        return out
