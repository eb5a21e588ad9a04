"""Run every workload with one seed: end to end, then traced.

    python3 perfbench/session.py --seed 1 [--seconds 30]

Calls run.py once per workload with --trace 0 and once with --trace 1,
one after another, prints each report, and collects the six final JSON
lines in .perfbench_out/session-seed<seed>.json.  Exits non-zero when a
run fails or reports an unexpected wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import procs
import spec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    results, status = {}, 0
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            res = subprocess.run(
                [sys.executable, run, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            sys.stdout.write(res.stdout)
            sys.stderr.write(res.stderr)
            if res.returncode != 0:
                status = 1
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            results[f"{workload}/trace{trace}"] = result
            status |= not result["correct"]
    os.makedirs(procs.OUT_DIR, exist_ok=True)
    with open(os.path.join(procs.OUT_DIR, f"session-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
