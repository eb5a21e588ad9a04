"""What the benchmark measures: workloads, metrics, units and directions.

BENCHMARK.json repeats the workload names and the metric lists; the
self-test checks that the two agree.  MOVES records, before any change
is measured, which per-layer metrics should move which end-to-end metric
on which workload, and where they should stay flat.
"""

# name -> why it was chosen and what it should move (BENCHMARK.json)
WORKLOADS = {
    "distance-stream": (
        "Read path: queries on domains built in set-up (3-64 facets, dims "
        "2-4, ellipsoids, cones). Moves metric.distance.*, cone_distance, "
        "chord_through; builds move only setup_s."),
    "build-decide": (
        "Write path: fresh domain per op (scale 1e-6..1e9), faces, sections, "
        "cones, rigidity, classify. Moves convex.build_*, cross_section, "
        "is_rigid_chord, classify_2d; distance flat."),
    "cli-session": (
        "One python -m hilbertgeo.cli call per op: start, imports, balls, "
        "suites. Moves cli.*, render_svg, suites.*, metric.distance (balls); "
        "load_domain stays flat."),
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    # every failed op, known-defect inputs included, over attempted ops;
    # the JSON result's "failed" counts only the other failures (run.py)
    "fail_ratio": ("ratio", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Tails are printed only on the workload that has ten samples beyond them.
TAILS = {"distance-stream": ("op_p99_ms", 99), "build-decide": ("op_p90_ms", 90)}

SUITE_NAMES = ("asymptotics", "cone-slice", "index-two", "metric-axioms",
               "plane-classifier", "projective-invariance", "reciprocal",
               "simplex-chart", "star-maps")

# name -> (unit, better).  Per-layer times are wall-clock: they compare
# layers within one traced run and carry no bound.
PER_LAYER = {
    "metric.distance.calls": ("count", "higher"),
    "metric.distance.busy_s": ("s", "lower"),
    "metric.distance.p50_us": ("us", "lower"),
    "metric.distance.p99_us": ("us", "lower"),
    "metric.distance.m4.p50_us": ("us", "lower"),
    "metric.distance.m64.p50_us": ("us", "lower"),
    "metric.distance.ellipsoid.p50_us": ("us", "lower"),
    "metric.distance.max_rel_err": ("ratio", "lower"),
    "cones.cone_distance.calls": ("count", "higher"),
    "cones.cone_distance.busy_s": ("s", "lower"),
    "cones.cone_distance.p50_us": ("us", "lower"),
    "convex.chord_through.calls": ("count", "higher"),
    "convex.chord_through.busy_s": ("s", "lower"),
    "metric.gromov_product.busy_s": ("s", "lower"),
    "metric.asymptotic_profile.busy_s": ("s", "lower"),
    "convex.build_polytope.calls": ("count", "higher"),
    "convex.build_polytope.busy_s": ("s", "lower"),
    "convex.build_polytope.small.p50_ms": ("ms", "lower"),
    "convex.build_polytope.large.p50_ms": ("ms", "lower"),
    "convex.build_ellipsoid.busy_s": ("s", "lower"),
    "convex.cross_section.calls": ("count", "higher"),
    "convex.cross_section.busy_s": ("s", "lower"),
    "cones.cone_over.calls": ("count", "higher"),
    "cones.cone_over.busy_s": ("s", "lower"),
    "convex.faces_built": ("count", "higher"),
    "convex.vertices_kept": ("count", "higher"),
    "metric.is_rigid_chord.calls": ("count", "higher"),
    "metric.is_rigid_chord.busy_s": ("s", "lower"),
    "metric.is_rigid_chord.p50_ms": ("ms", "lower"),
    "metric.is_rigid_chord.witness_ratio": ("ratio", "higher"),
    "metric.is_rigid_chord.fallback_rigid": ("count", "lower"),
    "isometries.classify_2d.calls": ("count", "higher"),
    "isometries.classify_2d.busy_s": ("s", "lower"),
    "isometries.classify_2d.p50_ms": ("ms", "lower"),
    "cli.python_start_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import.scipy_s": ("s", "lower"),
    "cli.distance.p50_ms": ("ms", "lower"),
    "cli.rigid.p50_ms": ("ms", "lower"),
    "cli.classify.p50_ms": ("ms", "lower"),
    "cli.check.p50_ms": ("ms", "lower"),
    "cli.render.p50_ms": ("ms", "lower"),
    "svgfig.render_svg.busy_s": ("s", "lower"),
    **{f"suites.{n}.busy_s": ("s", "lower") for n in SUITE_NAMES},
    "domain_io.load_domain.busy_s": ("s", "lower"),
    "convex.errors": ("count", "lower"),
    "metric.errors": ("count", "lower"),
    "cones.errors": ("count", "lower"),
    "isometries.errors": ("count", "lower"),
    "trace.op_self.p50_us": ("us", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

# Which workload's traffic each per-layer metric describes (by prefix).
# Every traced run reports every metric, the named workload's own where
# it owns the metric or none is listed (trace.*, <layer>.errors), else
# from a traced pass of the owner.
OWNERS = (
    ("metric.distance", "distance-stream"),
    ("cones.cone_distance", "distance-stream"),
    ("convex.chord_through", "distance-stream"),
    ("metric.gromov_product", "distance-stream"),
    ("metric.asymptotic_profile", "distance-stream"),
    ("convex.build_", "build-decide"),
    ("convex.cross_section", "build-decide"),
    ("cones.cone_over", "build-decide"),
    ("convex.faces_built", "build-decide"),
    ("convex.vertices_kept", "build-decide"),
    ("metric.is_rigid_chord", "build-decide"),
    ("isometries.classify_2d", "build-decide"),
    ("cli.", "cli-session"),
    ("svgfig.", "cli-session"),
    ("suites.", "cli-session"),
    ("domain_io.", "cli-session"),
)


def owner(metric, workload):
    for prefix, w in OWNERS:
        if metric.startswith(prefix):
            return w
    return workload


# (per-layer metrics, end-to-end metrics and workloads they should move,
#  workloads on which they should stay flat)
MOVES = [
    (["metric.distance.*", "cones.cone_distance.*", "convex.chord_through.*",
      "metric.gromov_product.busy_s", "metric.asymptotic_profile.busy_s"],
     {"distance-stream": ["ops_per_s", "op_p50_ms", "op_p99_ms"],
      "cli-session": ["ops_per_s"]},
     ["build-decide"]),
    (["convex.build_polytope.*", "convex.build_ellipsoid.busy_s",
      "convex.cross_section.*", "cones.cone_over.*"],
     {"build-decide": ["ops_per_s", "op_p90_ms"],
      "distance-stream": ["setup_s"]},
     ["distance-stream ops_per_s"]),
    (["convex.faces_built", "convex.vertices_kept"], {}, ["every workload"]),
    (["metric.is_rigid_chord.*", "isometries.classify_2d.*"],
     {"build-decide": ["op_p50_ms", "fail_ratio"]}, []),
    (["cli.*"],
     {"cli-session": ["op_p50_ms", "ops_per_s"],
      "distance-stream": ["setup_s"], "build-decide": ["setup_s"]}, []),
    (["svgfig.render_svg.busy_s", "suites.*"],
     {"cli-session": ["ops_per_s"]}, ["cli-session op_p50_ms"]),
    (["domain_io.load_domain.busy_s"], {}, ["every workload"]),
]
