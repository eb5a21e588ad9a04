"""Command line front end.

Subcommands: distance, rigid, classify, check, render.  Domains come from
JSON files (see domain_io); points are comma-separated coordinates.
Geometry and input errors print one line to stderr and exit 1; suite
failures exit 1 after printing their report.  Each command imports the
modules only it needs (the classifier, the suites, the SVG writer).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cones import Cone, cone_distance
from .domain_io import load_domain
from .errors import GeometryError, ParseError, Unsupported, ValidationError
from .metric import distance, is_rigid_chord


def _point(text):
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ValidationError(f"could not parse point {text!r}", "point-csv")


def _convex_domain(path, command):
    """The polytope or ellipsoid in a domain file; Unsupported, naming the
    command, for a cone."""
    dom = load_domain(path)
    if isinstance(dom, Cone):
        raise Unsupported(f"hg {command} takes a polytope or an ellipsoid, "
                          "not a cone")
    return dom


def _fmt(x):
    return f"{float(x):.12g}"


def _cmd_distance(args):
    dom = load_domain(args.domain)
    x, y = _point(args.x), _point(args.y)
    if isinstance(dom, Cone):
        print(_fmt(cone_distance(dom, x, y)))
    else:
        print(_fmt(distance(dom, x, y)))
    return 0


def _cmd_rigid(args):
    dom = _convex_domain(args.domain, "rigid")
    r = is_rigid_chord(dom, _point(args.x), _point(args.y))
    out = {"rigid": r.rigid}
    if r.witness is not None:
        out["witness"] = [float(_fmt(v)) for v in r.witness]
        out["additivity_gap"] = float(_fmt(r.additivity_gap))
    print("rigid" if r.rigid else "non-rigid")
    print(json.dumps(out))
    return 0


def _cmd_classify(args):
    from .isometries import classify_2d

    dom_a = _convex_domain(args.a, "classify")
    dom_b = _convex_domain(args.b, "classify")
    c = classify_2d(dom_a, dom_b)
    out = {
        "verdict": c.verdict,
        "max_deviation": (float(_fmt(c.max_deviation))
                          if np.isfinite(c.max_deviation) else None),
        "seed": args.seed,
    }
    if c.witness is not None:
        out["witness_matrix"] = [[float(_fmt(v)) for v in row]
                                 for row in c.witness.matrix]
    print(json.dumps(out, indent=2))
    return 0


def _cmd_check(args):
    from .suites import SUITES

    if args.suite == "all":
        names = sorted(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        known = ", ".join(sorted(SUITES))
        print(f"unknown suite {args.suite!r}; known: {known}, all",
              file=sys.stderr)
        return 1
    ok = True
    for name in names:
        kwargs = {"seed": args.seed}
        if args.samples is not None:
            kwargs["samples"] = args.samples
        report = SUITES[name](**kwargs)
        print(json.dumps(report, indent=2))
        ok = ok and report["pass"]
    return 0 if ok else 1


def _split_pair(spec):
    parts = spec.split(";")
    if len(parts) != 2:
        raise ValidationError(
            f"expected two points joined by ';', got {spec!r} "
            "(quote the argument so the shell keeps the semicolon)",
            invariant="overlay-spec")
    return parts


def _cmd_render(args):
    from .svgfig import render_svg

    dom = _convex_domain(args.domain, "render")
    overlays = []
    for spec in args.ball or []:
        vals = _point(spec)
        overlays.append(("ball", vals[:-1], float(vals[-1])))
    for spec in args.chord or []:
        a, b = _split_pair(spec)
        overlays.append(("chord", _point(a), _point(b)))
    for spec in args.segment or []:
        a, b = _split_pair(spec)
        overlays.append(("segment", _point(a), _point(b)))
    svg = render_svg(dom, overlays)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(args.out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hg", description="Hilbert geometry toolbox")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance between two points")
    p.add_argument("--domain", required=True, help="domain JSON file")
    p.add_argument("--x", required=True,
                   help="first point, comma separated (use --x=-1,0 "
                        "for negative coordinates)")
    p.add_argument("--y", required=True, help="second point")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("rigid", help="is the chord the unique geodesic")
    p.add_argument("--domain", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser("classify", help="compare two plane domains")
    p.add_argument("--a", required=True, help="first domain JSON file")
    p.add_argument("--b", required=True, help="second domain JSON file")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and echoed, but unused: the verdict is "
                        "decided without sampling")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="run a numeric property suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("render", help="SVG figure of a plane domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--ball", action="append",
                   help="cx,cy,...,radius (repeatable)")
    p.add_argument("--chord", action="append", help="x1,y1;x2,y2")
    p.add_argument("--segment", action="append", help="x1,y1;x2,y2")
    p.set_defaults(func=_cmd_render)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
