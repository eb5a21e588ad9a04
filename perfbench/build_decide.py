"""build-decide: build a fresh domain, then answer structural questions.

One op builds one domain from a seeded point set and asks every question
that applies to it: the face lattice, boundary_face_of, a cross-section
(3-D bodies), cone_over, minimal_cone_at, is_rigid_chord on a vertex
chord and on a generic chord, and classify_2d against a projective image
and against a non-equivalent domain (plane domains).  The families,
sizes and scales follow a fixed cycle of 24 slots; the seed draws the
shapes.  Three slots hold inputs that fail at the seed.
"""

from __future__ import annotations

import numpy as np

import hilbertgeo as hg

import shapes

# (family, size, scale); size is the vertex count, or the point count for
# clouds (two thirds extreme, the rest interior junk).
CYCLE = [
    ("polygon", 6, 1.0), ("cloud", 10, 1.0), ("polygon", 8, 1e3),
    ("ellipse", 2, 1e-5), ("polygon", 12, 1e-6), ("cube", 8, 1.0),
    ("polygon", 16, 1.0), ("square", 4, 1e9), ("cloud", 16, 1.0),
    ("polygon", 7, 1e-3), ("polygon", 3, 1e3), ("polygon", 24, 1.0),
    ("ellipse", 2, 1.0), ("polygon", 32, 1e-3), ("cloud", 24, 1e3),
    ("polygon", 10, 1.0), ("ellipse", 2, 1e-6), ("tetra", 4, 1e-6),
    ("polygon", 8, 1.0), ("ellipse", 2, 1e3), ("polygon", 64, 1.0),
    ("cloud", 40, 1.0), ("polygon", 8, 1e9), ("simplex", 4, 1.0),
]

# Cheap slots for the benchmark's self-test, one of them a known defect.
TINY = (0, 5, 12, 7)

# Inputs that fail at the seed (slot index in CYCLE -> what goes wrong).
KNOWN_DEFECTS = {
    7: "square at 1e9: is_rigid_chord raises EmptyIntersection",
    16: "ellipse of radius 1e-6: rejected as not positive definite",
    22: "octagon at 1e9: build_polytope fails",
}
# A rigid verdict that carries a deviation direction is the library's
# fallback after its witness search found nothing; counted, not a surprise.
FALLBACK = "rigid fallback on a flexible chord"
# At scale 1e-6 the absolute tolerance 1e-9 is 1e-3 of the domain: a chord
# end that close to a vertex is read as the vertex (the chord as rigid),
# and a section vertex that far outside the body is accepted.
SMALL_SCALE = "absolute tolerance 1e-9 at scale 1e-6"
_VERDICTS = ("projectively-equivalent", "not-isometric")


class Op:
    __slots__ = ("slot", "family", "size", "scale", "inputs")

    def __init__(self, slot, seed):
        self.slot = slot
        self.family, self.size, self.scale = CYCLE[slot]
        self.inputs = Inputs(self, np.random.default_rng(seed))

    @property
    def label(self):
        return f"{self.family}-{self.size}@{self.scale:g}"


class Inputs:
    """Everything one op is given, drawn from the op's own seed."""

    def __init__(self, op, rng):
        s = op.scale
        self.rng_seed = int(rng.integers(2**31))
        fam, m = op.family, op.size
        self.ellipse = None
        if fam == "ellipse":
            c = rng.uniform(-0.3, 0.3, 2)
            S = shapes.ellipsoid_shape(rng, 2)
            if op.slot in KNOWN_DEFECTS:
                S = np.eye(2)  # the circle of radius s
            self.ellipse = (c * s, S * s * s)
            self.image = (rng.uniform(-0.3, 0.3, 2) * s,
                          shapes.ellipsoid_shape(rng, 2) * s * s)
            self.other = shapes.polygon(rng, 6) * s
            u = rng.normal(size=2)
            L = np.linalg.cholesky(S)
            self.boundary_point = (c + L @ (u / np.linalg.norm(u))) * s
            self.chords = [(shapes.in_ellipsoid(rng, c, S) * s,
                            shapes.in_ellipsoid(rng, c, S) * s, True)
                           for _ in range(2)]
            return
        if fam in ("polygon", "square"):
            V = shapes.SQUARE if fam == "square" else shapes.polygon(rng, m)
            self.image = shapes.homography(rng, V) * s
            # all triangles, and all quadrilaterals, are projectively
            # equivalent: compare those with a polygon of another size
            self.other = shapes.polygon(rng, m if m > 4 else m + 1) * s
            pts = (V if fam == "square"
                   else shapes.with_junk(rng, V, max(2, m // 4)))
        elif fam == "cloud":
            V = shapes.on_ellipsoid(rng, 2 * m // 3)
            pts = shapes.with_junk(rng, V, m - len(V))
        elif fam == "cube":
            V = shapes.affine(rng, shapes.cube(3))
            pts = V
        elif fam == "tetra":
            V = shapes.affine(rng, np.vstack([np.zeros(3), np.eye(3)]))
            pts = V
        else:  # 3-simplex spanning a hyperplane of R^4
            V = np.eye(4) + rng.uniform(0.0, 0.2, 4)
            pts = V
        self.vertices = V * s
        self.points = pts * s
        self.n_vertices = len(V)
        d = V.shape[1] if fam != "simplex" else 3
        self.dim = d
        c = V.mean(axis=0)
        v = V[int(rng.integers(len(V)))]
        # vertex chord: the line through v and the centroid (rigid)
        vertex_chord = (c + 0.5 * (v - c), c, True)
        generic = (shapes.interior(rng, V, 0.3), shapes.interior(rng, V, 0.3),
                   False)
        self.chords = [tuple(p * s for p in ch[:2]) + ch[2:]
                       for ch in (vertex_chord, generic)]
        self.vertex = v * s
        if d == 2:
            order = np.argsort(np.arctan2(*(V - c).T[::-1]))
            self.edge_point = 0.5 * (V[order[0]] + V[order[1]]) * s
        if d >= 3:
            # a random 2-plane through the centroid, inside the affine hull
            basis = rng.normal(size=(2, V.shape[1]))
            if fam == "simplex":
                basis -= basis.mean(axis=1, keepdims=True)
            self.section = (c * s, basis)


def _rigidity(D, chords):
    out = []
    for x, y, expect_rigid in chords:
        r = hg.is_rigid_chord(D, x, y)
        out.append((expect_rigid, r.rigid, r.witness, r.deviation_direction
                    is not None, (x, y)))
    return out


class Workload:
    name = "build-decide"

    def __init__(self, seed, tiny=False, fault=False):
        self.seed = seed
        self.slots = TINY if tiny else range(len(CYCLE))
        self.block = len(self.slots)

    def op(self, i):
        """Op i: slot i of the cycle, shapes drawn from (seed, i)."""
        return Op(self.slots[i % len(self.slots)], [self.seed, 2, i])

    def run(self, op):
        inp = op.inputs
        out = {}
        if inp.ellipse is not None:
            D = hg.build_ellipsoid(*inp.ellipse)
            out["face_dim"] = D.boundary_face_of(inp.boundary_point).dim
            out["rigidity"] = _rigidity(D, inp.chords)
            rng = np.random.default_rng(inp.rng_seed)
            E = hg.build_ellipsoid(*inp.image)
            out["classify"] = (
                hg.classify_2d(D, E, rng).verdict,
                hg.classify_2d(D, hg.build_polytope(inp.other), rng).verdict)
            return out
        D = hg.build_polytope(inp.points)
        lattice = D.face_lattice()
        out["n_vertices"] = len(D.vertices)
        out["f"] = lattice.counts()
        out["vertex_face"] = D.boundary_face_of(inp.vertex).dim
        if inp.dim == 2:
            out["edge_face"] = D.boundary_face_of(inp.edge_point).dim
        else:
            sec = D.cross_section(*inp.section)
            out["section"] = [sec.to_ambient(u) for u in sec.domain.vertices]
        out["cone_facets"] = len(hg.cone_over(D).functionals)
        mc = D.minimal_cone_at(inp.vertex)
        out["minimal_cone"] = (mc.apex_face.dim, mc.base.indices,
                               mc.apex_face.indices)
        out["rigidity"] = _rigidity(D, inp.chords)
        if inp.dim == 2:
            rng = np.random.default_rng(inp.rng_seed)
            out["classify"] = (
                hg.classify_2d(D, hg.build_polytope(inp.image), rng).verdict,
                hg.classify_2d(D, hg.build_polytope(inp.other), rng).verdict)
        return out

    def check(self, op, out):
        """(ok, None)."""
        return not self.problems(op, out), None

    def problems(self, op, out):
        """Names of the answers that disagree with the construction."""
        import reference as R

        inp = op.inputs
        bad = []
        if inp.ellipse is None:
            f = out["f"]
            ref = R.PolytopeRef(_chart(inp, inp.vertices))
            facets = ref.n_facets
            apex_dim, base, apex = out["minimal_cone"]
            bad += [name for name, ok in (
                ("vertices", out["n_vertices"] == f.get(0) == inp.n_vertices),
                ("euler", sum((-1) ** k * n for k, n in f.items())
                 == 1 - (-1) ** inp.dim),
                ("facets", f.get(inp.dim - 1) == out["cone_facets"] == facets),
                ("faces", out["vertex_face"] == 0
                 and out.get("edge_face", 1) == 1),
                ("minimal_cone", apex_dim == 0 and not set(apex) & set(base)),
                ("section", "section" not in out
                 or _on_boundary(ref, inp, out["section"]))) if not ok]
        elif out["face_dim"] != 0:
            bad.append("faces")
        if out.get("classify", _VERDICTS) != _VERDICTS:
            bad.append("classify")
        for r in out["rigidity"]:
            expect_rigid, rigid, witness, dev, (x, y) = r
            if rigid != expect_rigid:
                bad.append(FALLBACK if dev else "rigidity")
            elif not rigid and not _additive(inp, x, y, witness):
                bad.append("witness")
        return bad

    def expected(self, op, out, error):
        """Why a failure of this op is a known defect, or None."""
        if op.slot in KNOWN_DEFECTS:
            return KNOWN_DEFECTS[op.slot]
        if error == "wrong output":
            excused = {FALLBACK: FALLBACK}
            if op.scale <= 1e-6:
                excused.update(rigidity=SMALL_SCALE, section=SMALL_SCALE)
            bad = set(self.problems(op, out))
            if bad and bad <= set(excused):
                return "; ".join(sorted({excused[b] for b in bad}))
        return None

    def layer_extras(self, records, spans):
        flexible = witnesses = fallbacks = 0
        for r in records:
            if not r.traced or not isinstance(r.output, dict):
                continue
            for exp, rig, wit, dev, _ in r.output.get("rigidity", ()):
                flexible += not exp
                witnesses += (not exp) and wit is not None
                fallbacks += rig and dev
        return {"metric.is_rigid_chord.witness_ratio":
                witnesses / flexible if flexible else 0.0,
                "metric.is_rigid_chord.fallback_rigid": float(fallbacks)}


def _chart(inp, pts):
    """Points in a full-dimensional chart.  The simplex family spans a
    hyperplane sum(p) = const of R^4: dropping the last coordinate maps it
    affinely onto R^3, which keeps Hilbert distances and facet counts."""
    pts = np.asarray(pts)
    return pts[..., :-1] if inp.dim != inp.vertices.shape[1] else pts


def _on_boundary(ref, inp, pts):
    """Whether every point lies on the reference body's boundary."""
    scale = float(np.abs(inp.vertices).max())
    return all(abs(ref.min_slack(p)) <= 1e-7 * scale
               for p in _chart(inp, pts))


def _additive(inp, x, y, z):
    """Whether d(x, z) + d(z, y) = d(x, y) for the witness z, by the
    reference metric and within its error model."""
    import reference as R

    if inp.ellipse is not None:
        ref = R.EllipsoidRef(*inp.ellipse)
    else:
        ref = R.PolytopeRef(_chart(inp, inp.vertices))
        x, y, z = (_chart(inp, p) for p in (x, y, z))
    pairs = ((x, z), (z, y), (x, y))
    d = [R.hilbert_distance(ref, *pq) for pq in pairs]
    tol = 1e-9 + sum(R.allowed_error(ref, *pq, dd) for pq, dd in zip(pairs, d))
    return abs(float(d[0] + d[1] - d[2])) <= tol
