"""Self-test of the benchmark itself (not of hilbertgeo).

    python3 perfbench/selftest.py

1. BENCHMARK.json names the same workloads and metrics as spec.py.
2. A tiny run of each workload, untraced and traced, prints every metric
   named in spec.py with its unit and its direction, and puts it in the
   final JSON line.
3. Fault injection: distances perturbed by a relative 1e-6 are counted as
   failed ops, in fail_ratio and in the JSON result's "failed", so a
   fast-but-wrong kernel cannot pass.
Exits 0 when all hold; prints what failed otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra):
    res = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, timeout=180)
    if res.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_benchmark_json(problems):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    if {w["name"]: w["why"] for w in bench["workloads"]} != spec.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in bench["end_to_end"]}
    if e2e != spec.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from spec")
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if layers != spec.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from spec")


def check_emitted(label, lines, result, table, problems):
    for name, (unit, better, *_) in table.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"{label}: {name} missing from the JSON result")
        pattern = (rf"^{re.escape(name)}\s+\S+ {re.escape(unit)} "
                   rf"\({better} is better\)")
        if not any(re.match(pattern, line) for line in lines):
            problems.append(f"{label}: {name} not printed with its unit "
                            "and direction")
    extra = set(result["metrics"]) - set(table)
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")


def failed_distances(lines):
    for line in lines:
        m = re.match(r"fail_ratio\[distance/interior\] (\d+)/(\d+)", line)
        if m:
            return int(m.group(1)), int(m.group(2))
    raise AssertionError("no distance/interior line in the report")


def main():
    problems = []
    check_benchmark_json(problems)
    for workload in spec.WORKLOADS:
        for trace, table in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            lines, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            known = len(problems)
            check_emitted(label, lines, result, table, problems)
            if not result["correct"]:
                problems.append(f"{label}: an unexpected op failure")
            print(f"{'ok' if len(problems) == known else 'FAIL'} {label}: "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  flush=True)
    lines, clean = run("distance-stream", 0)
    before, _ = failed_distances(lines)
    lines, faulty = run("distance-stream", 0, "--fault")
    after, total = failed_distances(lines)
    if not (before == 0 and after == total and not faulty["correct"]
            and clean["failed"] == 0 and faulty["failed"] >= after
            and faulty["metrics"]["fail_ratio"]["value"]
            > clean["metrics"]["fail_ratio"]["value"]):
        problems.append(f"fault injection: {after}/{total} perturbed "
                        f"distances failed (before: {before})")
    else:
        print(f"ok fault injection: {after}/{total} perturbed distances failed")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
