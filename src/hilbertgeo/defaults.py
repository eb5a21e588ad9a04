"""Shared numeric defaults.

Every tolerance is relative: a domain is stored in its unit chart (see
convex), so EPS_GEO is a fraction of the domain's size, and the same
answers come out at every scale.  EPS_GEO governs on-boundary and
on-hyperplane predicates; the calls that use it take an eps argument in
its place, read the same way.
"""

EPS_GEO = 1e-9

# Focusing probes call two boundary limits "the same" below this separation.
EPS_FOCUS = 1e-3

# Operational stand-in for divergence to infinity in asymptotic probes.
DIVERGENCE_BOUND = 10.0

# Doubling steps used by asymptotic and focusing probes.
DEFAULT_STEPS = 40
