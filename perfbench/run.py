"""hilbertgeo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload distance-stream --seed 1 \\
        --seconds 30 --trace 0

Workloads: distance-stream, build-decide, cli-session (see spec.py and
each workload's module).  The library is imported from src/ of the
checkout this file sits in.

A single parent process starts the workload's children one at a time:
with --trace 0 it times set-up in fresh interpreters (the median of
SETUPS starts), runs the timed ops in the last of them, and reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics of a
traced run instead.  Every op's output is checked.  Human-readable lines
come first; the last line of standard output is the JSON result, and a
fuller record goes to .perfbench_out/.

The workloads keep inputs that fail at the seed (each workload's
KNOWN_DEFECTS) at fixed shares.  Their failures count in fail_ratio and
in the by-kind report; "failed" in the JSON result counts only the other
failures, each of which also makes "correct" false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import procs
import spec
import speed

SETUPS = 5        # fresh interpreters timed per run; the last one runs ops
DEADLINE_S = 170  # the whole run, children included


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(argv, env, deadline, children, probe):
    """Start a workload child; return ((start, wall-clock set-up seconds),
    result or None, child).  The child is reaped before returning; the
    speed probe runs just before it starts."""
    for _ in range(5):
        probe.measure()
    child = procs.Child(argv, env)
    children.append(child)
    if child.readline(deadline) != "ready":
        raise RuntimeError("workload child failed during set-up")
    ready = time.perf_counter()
    lines = child.read_all(deadline)
    if child.reap(deadline) != 0:
        raise RuntimeError(f"workload child exited with {child.proc.returncode}")
    return ((child.start, ready - child.start),
            json.loads(lines[-1]) if lines else None, child)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    ap.add_argument("--fault", action="store_true",
                    help="perturb distances by a relative 1e-6 (self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(procs.SRC, "hilbertgeo", "__init__.py")):
        print(f"error: no hilbertgeo package under {procs.SRC}", file=sys.stderr)
        return 2
    os.makedirs(procs.OUT_DIR, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    env = procs.child_env(procs.SRC)
    # Byte-compile the library once so that no timed start pays for it.
    subprocess.run([sys.executable, "-c", "import hilbertgeo"], env=env,
                   check=True, timeout=60)

    base = [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    base += ["--tiny"] * args.tiny + ["--fault"] * args.fault
    children = []
    probe = speed.Probe()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_child(base + ["--setup-only"], env,
                                        deadline, children, probe)[0])
        setup, result, child = run_child(base, env, deadline, children, probe)
        setups.append(setup)
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for c in children:
            c.kill()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": spec.WORKLOADS[args.workload],
        "environment": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                        **result["versions"], "threads": procs.THREAD_ENV},
        "attempted": result["attempted"], "failed": result["unexpected"],
        "known_defect_failures": result["failed"] - result["unexpected"],
        "by_kind": result["by_kind"],
    }
    if args.trace:
        metrics = {k: (v, None, spec.PER_LAYER[k][0], spec.PER_LAYER[k][1])
                   for k, v in result["layers"].items()}
        record["spans_file"] = result["spans_file"]
    else:
        rss = result.get("peak_rss_mb", child.peak_rss_mb)
        scales = probe.scales([t for t, _ in setups])
        found = {"setup_s": (statistics.median(
                     s * f for (_, s), f in zip(setups, scales)), len(setups)),
                 **{k: tuple(v) for k, v in result["metrics"].items()},
                 "peak_rss_mb": (rss, 1)}
        raw = {"setup_s": statistics.median(s for _, s in setups),
               **{k: v[0] for k, v in result["raw_metrics"].items()}}
        record["raw_metrics"] = raw
        metrics = {}
        for k, (v, n) in found.items():
            unit, better = (spec.END_TO_END[k][:2] if k in spec.END_TO_END
                            else ("ms", "lower"))
            metrics[k] = (v, n, unit, better)
    record["metrics"] = {k: {"value": v, "n": n, "unit": u, "better": b}
                         for k, (v, n, u, b) in metrics.items()}

    env_line = record["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={env_line['nproc']} cpu={env_line['cpu']} "
          f"python={env_line['python']} numpy={env_line['numpy']} "
          f"scipy={env_line['scipy']} threads=1")
    for k, (v, n, u, b) in metrics.items():
        count = f" n={n}" if n is not None else ""
        wall = (f" wall-clock={raw[k]:.6g}"
                if not args.trace and k in raw and k != "fail_ratio" else "")
        print(f"{k:42s} {v:.6g} {u} ({b} is better){count}{wall}")
    print(f"ops {result['attempted']}: {record['known_defect_failures']} "
          f"failed on known-defect inputs, {result['unexpected']} other "
          "failures")
    for kind, f in result["by_kind"].items():
        print(f"fail_ratio[{kind}] {f['failed']}/{f['attempted']}"
              f" known={f['known']} unexpected={f['unexpected']}"
              f" p50={f['p50_ms']:.4g}ms")
    path = os.path.join(procs.OUT_DIR, f"{args.workload}-seed{args.seed}"
                                       f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    names = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": result["attempted"], "failed": result["unexpected"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][2]}
                    for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
