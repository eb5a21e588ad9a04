"""Telling isometries apart, and telling domains apart.

Two tools:

  * projectivity_check samples quadruples on chords and measures how
    far a map drifts from preserving lines and cross ratios;
  * focusing_probe runs geodesic rays at a boundary point and reports
    whether their images still land together.

The coordinate-reciprocal map on the simplex preserves all distances
yet fails both the line test and the focusing test, so isometry does
not force projectivity there.  classify_2d decides whether two plane
domains are isometric at all, by matching vertices under projective
maps, without sampling.
"""

import json

import numpy as np

from hilbertgeo import (
    HilbertSpace,
    build_polytope,
    classify_2d,
    focusing_probe,
    projectivity_check,
    reciprocal_map,
    sampled_isometry_check,
    standard_simplex,
)

rng = np.random.default_rng(1)
simplex = standard_simplex(2)
space = HilbertSpace(simplex)

err = sampled_isometry_check(space, space, reciprocal_map, rng, samples=300)
print(f"reciprocal map: worst distance drift = {err:.3e}")

res = projectivity_check(simplex, reciprocal_map, rng)
print(f"projectivity residual = {res:.3e}  (projective maps sit near 0)")

vertex = np.array([1.0, 0.0, 0.0])
starts = [np.array([1 / 3, 1 / 3, 1 / 3]), np.array([0.2, 0.6, 0.2]),
          np.array([0.2, 0.2, 0.6])]
verdict = focusing_probe(simplex, reciprocal_map, vertex, starts)
print(f"rays into a vertex: focused={verdict.focused}, "
      f"spread={verdict.spread:.3f}")

# Any two triangles are projectively the same domain; a generic
# quadrilateral is not a square.  The classifier fits a projective
# change of coordinates per vertex matching and checks it on the vertices.
square = build_polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
quad = build_polytope([[0, 0], [3, 0], [2.5, 2], [-0.5, 1.5]])
skew = build_polytope([[0, 0], [4, 0], [1, 3]])
tri = build_polytope([[0, 0], [1, 0], [0, 1]])

for name, a, b in [("square vs quad           ", square, quad),
                   ("triangle vs skew triangle", tri, skew),
                   ("square vs triangle       ", square, tri)]:
    out = classify_2d(a, b, np.random.default_rng(0))
    line = {"verdict": out.verdict}
    if np.isfinite(out.max_deviation):
        line["max_deviation"] = float(f"{out.max_deviation:.3e}")
    print(name, "->", json.dumps(line))
