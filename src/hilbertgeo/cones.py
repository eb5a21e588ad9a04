"""Proper convex cones and their projective order metric.

A proper cone here is closed, pointed, and spanning.  For interior x and
y, min_scale(x, y) is the smallest lambda with lambda*x - y in the closed
cone, and the metric is ln min_scale(x, y) + ln min_scale(y, x).  On the
cone over a bounded convex domain this restricts to the Hilbert metric of
the domain along its defining slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convex import _as_array, _eps, _hull_facets
from .errors import (
    DegenerateInput,
    GeometryError,
    Unsupported,
    XNotInteriorOfCone,
)
from .metric import _funk_sum

__all__ = [
    "Cone",
    "build_cone",
    "cone_over",
    "lorentz_cone",
    "cone_distance",
]


def _lorentz_q(z):
    return float(z[0] * z[0] - z[1:] @ z[1:])


def _lorentz_scale(x, y):
    """min_scale(x, y) on the Lorentz cone, for interior x."""
    qx = _lorentz_q(x)
    B = float(x[0] * y[0] - x[1:] @ y[1:])
    disc = max(B * B - qx * _lorentz_q(y), 0.0)
    return float((B + math.sqrt(disc)) / qx)


@dataclass(eq=False)
class Cone:
    """A proper cone, either polyhedral (generators and facet functionals)
    or the Lorentz cone { x : x_1 >= |x_2..n| }.

    embed, when set, maps points of the originating bounded domain onto
    the slice of the cone that reproduces its Hilbert metric.
    """

    kind: str
    dim: int
    generators: np.ndarray | None = None
    functionals: np.ndarray | None = None
    embed: object = field(default=None, repr=False)
    lifted: bool = False

    def contains_interior(self, x):
        x = _as_array(x, "x")
        if x.size != self.dim:
            raise DegenerateInput("point dimension does not match the cone")
        if self.kind == "polyhedral":
            return bool(np.min(self.functionals @ x) > 0.0)
        return x[0] > 0.0 and _lorentz_q(x) > 0.0

    def min_scale(self, x, y):
        """Smallest lambda with lambda*x - y in the closed cone.

        x must be interior; y may be any point of the closed cone.
        """
        x = _as_array(x, "x")
        y = _as_array(y, "y")
        if not self.contains_interior(x):
            raise XNotInteriorOfCone("x must be interior to the cone")
        if self.kind == "polyhedral":
            num = self.functionals @ y
            den = self.functionals @ x
            return float(np.max(num / den))
        return _lorentz_scale(x, y)


def build_cone(generators, eps=None):
    """Polyhedral cone spanned by the given generator rays.

    Properness is certified: the generators must span the space (else the
    cone is flat) and the origin must be a vertex of the convex hull of
    the origin and the generators (else the cone is not pointed).  The
    cone's facets are that hull's facets through the origin; functionals
    are their inward normals, scaled to 1 at the generators' centroid.
    """
    eps_v = _eps(eps)
    G = np.atleast_2d(_as_array(generators, "generators"))
    D = G.shape[1]
    if D < 2:
        raise Unsupported("cones need ambient dimension >= 2")
    norms = np.linalg.norm(G, axis=1)
    if np.any(norms <= eps_v):
        raise DegenerateInput("zero generator ray")
    if np.linalg.matrix_rank(G, tol=1e-9) < D:
        raise DegenerateInput("generators do not span the space")
    # row 0 is the origin
    pts = np.vstack([np.zeros(D), G])
    verts, A, _, sets = _hull_facets(pts, eps_v)
    if verts[0] != 0:
        raise DegenerateInput("cone is not pointed")
    center = G.mean(axis=0)
    rows = []
    for normal, key in zip(A, sets):
        if 0 not in key:
            continue  # a facet of the hull away from the apex
        ell = -normal
        scale = float(ell @ center)
        if scale <= eps_v:
            raise GeometryError("generator centroid is not interior")
        rows.append(ell / scale)
    return Cone(kind="polyhedral", dim=D, generators=G,
                functionals=np.array(rows))


def cone_over(domain, eps=None):
    """The cone over a polytope domain, with the slice embedding attached.

    If the affine hull avoids the origin the vertices themselves generate
    the cone and points embed as themselves; otherwise the domain is
    lifted by an appended coordinate 1.
    """
    if domain.kind != "polytope":
        raise Unsupported("cones are built over polytopes here")
    eps_v = _eps(eps)
    origin = np.zeros(domain.ambient_dim)
    if domain.hull_residual(origin) > eps_v:
        if domain.intrinsic_dim != domain.ambient_dim - 1:
            raise Unsupported("vertex rays would not span the space")
        cone = build_cone(domain.vertices, eps)
        cone.embed = lambda p: _as_array(p)
        cone.lifted = False
        return cone
    lifted = np.hstack([domain.vertices,
                        np.ones((len(domain.vertices), 1))])
    cone = build_cone(lifted, eps)
    cone.embed = lambda p: np.concatenate([_as_array(p), [1.0]])
    cone.lifted = True
    return cone


def lorentz_cone(n):
    """Lorentz cone in R^n: first coordinate dominates the Euclidean norm
    of the rest.  Its unit-height slice is the open round ball."""
    if n < 2:
        raise Unsupported("Lorentz cone needs dimension >= 2")

    def embed(p):
        return np.concatenate([[1.0], _as_array(p)])

    return Cone(kind="lorentz", dim=n, embed=embed)


def cone_distance(cone, x, y):
    """Projective order metric between interior points; on a polyhedral
    cone it is the Funk sum of the functionals, as for polytopes."""
    x = _as_array(x, "x")
    y = _as_array(y, "y")
    for p, name in ((x, "x"), (y, "y")):
        if not cone.contains_interior(p):
            raise XNotInteriorOfCone(f"{name} must be interior to the cone")
    if cone.kind == "polyhedral":
        L = cone.functionals
        return float(_funk_sum(L @ x, L @ y, L @ (x - y)))
    return float(math.log(_lorentz_scale(x, y))
                 + math.log(_lorentz_scale(y, x)))
