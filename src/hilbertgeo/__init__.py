"""Computable Hilbert geometries on bounded convex domains.

Domains (polytopes, ellipsoids) expose their boundary face structure;
on top of that sit the projective cross-ratio metric, chord rigidity,
cones with the order metric, explicit isometries of the simplex and of
self-dual cones, and seeded numeric suites over the library's claims.

The isometries, the suites and the SVG writer load on first use of one of
their names, so a command that needs none of them does not import them.
"""

from .cones import (
    Cone,
    build_cone,
    cone_distance,
    cone_distances,
    cone_over,
    lorentz_cone,
)
from .convex import (
    Chord,
    ConvexDomain,
    Face,
    FaceLattice,
    JoinRegion,
    MinimalCone,
    Ray,
    Section,
    build_ellipsoid,
    build_polytope,
    minkowski_functional,
    standard_simplex,
)
from .domain_io import domain_to_dict, load_domain, parse_domain
from .errors import (
    GeometryError,
    ParseError,
    ValidationError,
)
from .metric import (
    AsymptoticProfile,
    Rigidity,
    asymptotic_profile,
    cross_ratio,
    distance,
    distances,
    gromov_product,
    hilbert_ball,
    is_rigid_chord,
)

__version__ = "0.1.0"

__all__ = [
    "Chord", "Cone", "ConvexDomain", "Face", "FaceLattice", "JoinRegion",
    "MinimalCone", "Ray", "Section", "AsymptoticProfile", "FocusVerdict",
    "HilbertSpace", "ProjectiveMap", "Rigidity", "WSpace", "SUITES",
    "GeometryError", "ParseError", "ValidationError",
    "axis_coords", "axis_coords_inv", "asymptotic_profile",
    "build_cone", "build_ellipsoid", "build_polytope", "classify_2d",
    "clr", "clr_inv", "cone_distance", "cone_distances", "cone_over",
    "cross_ratio",
    "distance", "distances", "domain_to_dict", "fit_projective",
    "focusing_probe",
    "gromov_product", "hilbert_ball", "is_cone_3d", "is_rigid_chord",
    "load_domain", "lorentz_cone", "minkowski_functional", "parse_domain",
    "projectivity_check", "reciprocal_map", "render_svg",
    "sampled_isometry_check", "simplex_projective", "standard_simplex",
    "variation_norm", "vinberg_star", "w_basis",
]

# public names of the submodules that load on first use
_LAZY = {
    **dict.fromkeys([
        "FocusVerdict", "HilbertSpace", "ProjectiveMap", "WSpace",
        "axis_coords", "axis_coords_inv", "classify_2d", "clr", "clr_inv",
        "fit_projective", "focusing_probe", "is_cone_3d",
        "projectivity_check", "reciprocal_map", "sampled_isometry_check",
        "simplex_projective", "variation_norm", "vinberg_star", "w_basis",
    ], "isometries"),
    "SUITES": "suites",
    "render_svg": "svgfig",
}


def __getattr__(name):
    # not cached in the package, so it always reads the submodule's binding
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    # the names of the eager package: every public name and submodule
    names = set(globals()) | set(_LAZY) | set(_LAZY.values())
    return sorted(names - {"_LAZY", "__getattr__", "__dir__"})
