"""Independent reference values for the benchmark's output checks.

Everything here runs outside the timed region and never calls
hilbertgeo.  Polytopes are rebuilt from the vertex arrays the benchmark
generated: Qhull (scipy.spatial) names the facets, and each facet
hyperplane is then recomputed at 50 significant digits through its
defining vertices, so the reference body is the exact hull of the
float vertices.  Chord parameters and distances are evaluated with
mpmath from the exact float inputs, including the difference y - x.

Accuracy model.  A float kernel cannot know a facet slack better than
about u * R, where u = 2**-53 and R is the coordinate magnitude, so a
distance may carry an error of that slack error over the slack, times
min(d, 1) (for short pairs the slack error is relative to d).  On top of
that a relative 1e-9 is allowed.  Nothing in the model excuses
cancellation in y - x: two floats 1e-13 apart have an exact difference.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mp = mpmath.mp
mp.dps = 50

U = 2.0 ** -53
REL_TOL = 1e-9
SLACK_ULPS = 64.0


def _mpv(p):
    """Coordinates as mpf; float inputs convert exactly."""
    if isinstance(p, list):
        return p
    return [mp.mpf(float(v)) for v in p]


def _dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc += a * b
    return acc


def _floats(p):
    return np.array([float(v) for v in p])


def _absmax(p):
    return float(np.abs(_floats(p)).max())


def _det(rows):
    """Determinant of a small square matrix of mpf (cofactor expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = mp.mpf(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _normal_through(pts):
    """Normal of the hyperplane through d points of R^d (generalized
    cross product of the edge vectors), in mpf."""
    d = len(pts[0])
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    out = []
    for k in range(d):
        minor = [r[:k] + r[k + 1:] for r in diffs]
        c = _det(minor)
        out.append(c if k % 2 == 0 else -c)
    return out


class PolytopeRef:
    """Exact H-representation {a_i . p <= b_i} of the hull of the vertices.

    embedded=True is for the standard simplex in R^(n+1): its facets are
    the coordinate hyperplanes, valid on the affine hull sum(p) = 1.
    """

    def __init__(self, vertices, embedded=False):
        V = np.asarray(vertices, dtype=float)
        self.vertices = V
        self.scale = float(np.abs(V).max())
        if embedded:
            D = V.shape[1]
            self.normals = [[mp.mpf(-1 if j == i else 0) for j in range(D)]
                            for i in range(D)]
            self.offsets = [mp.mpf(0)] * D
            self.norms = [1.0] * D
            self._finish()
            return
        from scipy.spatial import ConvexHull

        hull = ConvexHull(V)
        centre = _mpv(V.mean(axis=0))
        seen = set()
        self.normals, self.offsets, self.norms = [], [], []
        for simplex in hull.simplices:
            key = tuple(sorted(int(i) for i in simplex))
            pts = [_mpv(V[i]) for i in key]
            n = _normal_through(pts)
            b = mp.fsum(a * p for a, p in zip(n, pts[0]))
            if mp.fsum(a * c for a, c in zip(n, centre)) > b:
                n, b = [-a for a in n], -b
            norm = float(mp.sqrt(mp.fsum(a * a for a in n)))
            unit = tuple(round(float(a) / norm, 9) for a in n) + (
                round(float(b) / norm / self.scale, 9),)
            if unit in seen:
                continue  # coplanar simplices of one facet
            seen.add(unit)
            self.normals.append(n)
            self.offsets.append(b)
            self.norms.append(norm)

        self._finish()

    def _finish(self):
        self.A = np.array([[float(a) / w for a in n]
                           for n, w in zip(self.normals, self.norms)])
        self.b = np.array([float(b) / w
                           for b, w in zip(self.offsets, self.norms)])

    @property
    def n_facets(self):
        return len(self.normals)

    def min_slack(self, p):
        """Euclidean distance from p to the nearest facet hyperplane."""
        return float(np.min(self.b - self.A @ _floats(p)))

    def chord_params(self, x, y):
        """(t_lo, t_hi) of the line x + t (y - x), in mpf.  Floats only
        shortlist the facets that can attain the extremes; every
        shortlisted facet is then evaluated exactly."""
        keep = range(self.n_facets)
        if self.n_facets > 8:
            xf = _floats(x)
            df = _floats(y) - xf
            g = self.A @ df
            t = (self.b - self.A @ xf) / np.where(g == 0.0, 1.0, g)
            shaky = np.abs(g) <= 1e-6 * (np.abs(self.A) @ np.abs(df))
            pos, neg = (g > 0) & ~shaky, (g < 0) & ~shaky
            mask = shaky.copy()
            if pos.any():
                mask |= pos & (t <= t[pos].min() * (1 + 1e-6))
            if neg.any():
                mask |= neg & (t >= t[neg].max() * (1 + 1e-6))
            keep = np.nonzero(mask)[0]
        qx, qy = _mpv(x), _mpv(y)
        dq = [b - a for a, b in zip(qx, qy)]
        t_lo, t_hi = None, None
        for i in keep:
            n, b = self.normals[i], self.offsets[i]
            gi = _dot(n, dq)
            if gi == 0:
                continue
            ti = (b - _dot(n, qx)) / gi
            if gi > 0:
                t_hi = ti if t_hi is None else min(t_hi, ti)
            else:
                t_lo = ti if t_lo is None else max(t_lo, ti)
        return t_lo, t_hi


class EllipsoidRef:
    """{p : (p - c)^T S^-1 (p - c) < 1} evaluated in mpf."""

    def __init__(self, center, shape):
        self.center = np.asarray(center, dtype=float)
        S = np.asarray(shape, dtype=float)
        self.c = _mpv(self.center)
        self.sinv = mp.inverse(mp.matrix(S.tolist()))
        w = np.linalg.eigvalsh(0.5 * (S + S.T))
        self.r_min = math.sqrt(w.min())
        self.scale = float(max(np.abs(self.center).max(), math.sqrt(w.max())))

    def _q(self, u, v):
        n = len(u)
        return _dot(u, [_dot([self.sinv[i, j] for j in range(n)], v)
                        for i in range(n)])

    def min_slack(self, p):
        """Lower estimate of the Euclidean distance to the boundary."""
        w = [a - b for a, b in zip(_mpv(p), self.c)]
        r = mp.sqrt(self._q(w, w))
        return float((1 - r) * self.r_min)

    def chord_params(self, x, y):
        w = [a - b for a, b in zip(_mpv(x), self.c)]
        dq = [b - a for a, b in zip(_mpv(x), _mpv(y))]
        a = self._q(dq, dq)
        bq = 2 * self._q(w, dq)
        c0 = self._q(w, w) - 1
        root = mp.sqrt(bq * bq - 4 * a * c0)
        return (-bq - root) / (2 * a), (-bq + root) / (2 * a)


def hilbert_distance(ref, x, y):
    """Reference distance (mpf); 0 for equal points."""
    if _mpv(x) == _mpv(y):
        return mp.mpf(0)
    t_lo, t_hi = ref.chord_params(x, y)
    return mp.log((1 - t_lo) / (-t_lo) * t_hi / (t_hi - 1))


def allowed_error(ref, x, y, d_ref):
    """Absolute error a float evaluation of d(x, y) may carry."""
    R = max(ref.scale, _absmax(x), _absmax(y))
    cond = SLACK_ULPS * U * R * (1.0 / ref.min_slack(x) + 1.0 / ref.min_slack(y))
    d = abs(float(d_ref))
    return REL_TOL * d + cond * min(d, 1.0)


def check_distance(ref, x, y, value):
    """(ok, relative error) of a computed distance against the reference."""
    d_ref = hilbert_distance(ref, x, y)
    err = abs(mp.mpf(float(value)) - d_ref)
    rel = float(err / d_ref) if d_ref != 0 else float(err)
    return float(err) <= allowed_error(ref, x, y, d_ref), rel


def slice_point(p, lifted):
    """Point of the base domain represented by the cone point p, in mpf:
    divided by the last coordinate (lifted cones) or by the coordinate sum
    (the cone over the standard simplex)."""
    q = _mpv(p)
    w = q[-1] if lifted else mp.fsum(q)
    return [v / w for v in (q[:-1] if lifted else q)]


def lorentz_slice(p):
    """Point of the unit ball represented by a Lorentz-cone point."""
    q = _mpv(p)
    return [v / q[0] for v in q[1:]]
