"""Workload child: set up one workload, time its ops, check the outputs.

run.py starts one child at a time.  The child prints "ready" when set-up
is done (the parent times set-up up to that line) and then, unless
--setup-only, its result as one JSON line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

MODULES = {"distance-stream": "distance_stream", "build-decide": "build_decide",
           "cli-session": "cli_session"}
# A cli-session pass that is not the named workload runs the script prefix
# of this nominal length: one of each command.
FIRST_OF_EACH_S = 9.0


def versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def summary(records):
    import harness

    failed = [r for r in records if not r.ok]
    return {"attempted": sum(r.n for r in records),
            "failed": sum(r.n for r in failed),
            "unexpected": sum(r.n for r in failed if r.expected is None),
            "by_kind": harness.by_kind(records),
            "versions": versions()}


def untraced(wl, seconds):
    import harness
    import spec

    count = wl.count_for(seconds) if hasattr(wl, "count_for") else None
    records = harness.timed_loop(wl, seconds, count=count)
    harness.check_all(wl, records)
    out = summary(records)
    out["metrics"] = harness.end_to_end(records, spec.TAILS.get(wl.name))
    out["raw_metrics"] = harness.end_to_end(records, spec.TAILS.get(wl.name),
                                            raw=True)
    if wl.name == "cli-session":
        out["peak_rss_mb"] = max(r.output[3] for r in records)
    return out


def traced(name, seed, seconds, tiny, spans_path):
    """Per-layer metrics.  The named workload runs for `seconds`; each
    other workload that owns a layer metric (spec.owner) runs one traced
    pass, so every traced run reports every layer, each from the
    workload whose traffic it describes."""
    import spec

    layers, records = {}, []
    needed = {spec.owner(m, name) for m in spec.PER_LAYER}
    for w in [name] + sorted(needed - {name}):
        got, recs = trace_one(w, seed, seconds if w == name else None, tiny,
                              spans_path.replace(".jsonl", f".{w}.jsonl"))
        layers[w] = got
        records += recs
    out = summary(records)
    out["layers"] = {m: float(layers[spec.owner(m, name)].get(m, 0.0))
                     for m in spec.PER_LAYER}
    out["spans_file"] = os.path.relpath(spans_path.replace(".jsonl", ".*.jsonl"))
    return out


def trace_one(name, seed, seconds, tiny, spans_path):
    """Layer metrics of one workload.  With `seconds`, in-process workloads
    alternate untraced and traced blocks (for trace.overhead_ratio) and
    cli-session times its subprocesses, then replays its script in
    process the same way; without, one traced pass."""
    import harness
    import tracer as tracing

    module = importlib.import_module(MODULES[name])
    tracer = tracing.Tracer()
    tracer.install()
    wl = module.Workload(seed, tiny=tiny)
    tracer.uninstall()  # set-up spans are kept; the loop re-installs
    passes = dict(tracer=tracer, first_traced=seconds is None)
    try:
        if name == "cli-session":
            records = harness.timed_loop(
                wl, 0, count=wl.count_for(seconds or FIRST_OF_EACH_S))
            harness.check_all(wl, records)
            extras = wl.cli_layers(records, os.environ)
            wl.in_process = True
            # untraced, traced, untraced: the first pass only warms up
            replay = harness.timed_loop(
                wl, 0, count=(3 if seconds else 1) * wl.block, **passes)
            harness.check_all(wl, replay)
            timed, records = replay, records + replay
        else:
            records = timed = harness.timed_loop(
                wl, seconds or 0, count=None if seconds else wl.block, **passes)
            harness.check_all(wl, records)
            extras = wl.layer_extras(records, tracer.spans)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    first = min(r.index for r in timed if r.traced)
    guard = {-1} | set(range(first, first + wl.block))
    layers = harness.layer_metrics(tracer.spans, tracer.notes, guard)
    layers.update(extras)
    if seconds:
        layers["trace.overhead_ratio"] = harness.overhead_ratio(timed)
    tracer.dump(spans_path)
    return layers, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    ap.add_argument("--fault", action="store_true",
                    help="perturb distances by a relative 1e-6 (self-test)")
    args = ap.parse_args(argv)

    if args.trace:
        import procs

        print("ready", flush=True)  # nothing times a traced set-up
        spans = os.path.join(procs.OUT_DIR,
                             f"spans-{args.workload}-{args.seed}.jsonl")
        result = traced(args.workload, args.seed, args.seconds, args.tiny,
                        spans)
        print(json.dumps(result), flush=True)
        return 0
    module = importlib.import_module(MODULES[args.workload])  # imports hilbertgeo
    wl = module.Workload(args.seed, tiny=args.tiny, fault=args.fault)
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        result = untraced(wl, args.seconds)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
