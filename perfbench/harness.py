"""Closed-loop op timing, output checks and metric summaries.

One caller runs ops one after another: the next op starts when the last
one returned.  Only the library calls sit between the two clock reads;
drawing inputs and keeping outputs happen outside them.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from collections import Counter, defaultdict

import spec
import speed


class Record:
    """One op, or repeats of one query that returned the same output.

    at holds start times and raw wall-clock latencies; latencies are in
    reference-machine seconds (see speed.py).  Merging repeats keeps
    memory, and with it the peak RSS the benchmark reports, independent
    of how many passes a run makes."""

    __slots__ = ("index", "op", "at", "raw", "latencies", "output", "error",
                 "traced", "warmup", "ok", "rel_err", "expected")

    def __init__(self, index, op, output, error, traced, warmup):
        self.index, self.op = index, op
        self.at, self.raw, self.latencies = array("d"), array("d"), None
        self.output, self.error, self.traced = output, error, traced
        self.warmup = warmup  # in the first block
        self.ok, self.rel_err, self.expected = None, None, None

    def add(self, t0, t1):
        self.at.append(t0)
        self.raw.append(t1 - t0)

    @property
    def n(self):
        return len(self.raw)


def timed_loop(wl, seconds, tracer=None, count=None, first_traced=False):
    """Run wl's ops for `seconds`, or exactly `count` ops when given.

    Time only ends a run at a block boundary (wl.block ops, one pass of
    the workload's schedule), so every run holds whole passes and the
    same mix of ops.  With a tracer, blocks alternate between untraced
    and traced, starting untraced unless first_traced, and the loop runs
    at least one traced block."""
    clock = time.perf_counter
    keep = getattr(wl, "keep", None)
    probe = speed.Probe()
    records = []
    merged = {}
    start = clock()
    i = 0
    traced = False
    while True:
        op = wl.op(i)
        if tracer is not None and i % wl.block == 0:
            traced = (i // wl.block) % 2 == (0 if first_traced else 1)
            tracer.install() if traced else tracer.uninstall()
        probe.maybe()
        t0 = clock()
        try:
            if traced:
                with tracer.op(i, op.label):
                    out = wl.run(op)
            else:
                out = wl.run(op)
            err = None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        warmup = i < wl.block
        key = None
        if keep is not None and err is None:
            out = keep(op, out)
            key = (id(op), traced, warmup)
        r = merged.get(key)
        if r is None or r.output is not out:
            r = Record(i, op, out, err, traced, warmup)
            records.append(r)
            if key is not None:
                merged[key] = r
        r.add(t0, t1)
        i += 1
        if count is not None:
            if i >= count:
                break
        elif (t1 - start >= seconds and i % wl.block == 0
              and (tracer is None or i >= 2 * wl.block)):
            break
    if tracer is not None:
        tracer.uninstall()
    probe.measure()
    for r in records:
        r.latencies = array("d", (t * f for t, f in
                                  zip(r.raw, probe.scales(r.at))))
    return records


def check_all(wl, records):
    """Check every output against the workload's own reference."""
    for r in records:
        if r.error is None:
            try:
                r.ok, r.rel_err = wl.check(r.op, r.output)
            except Exception as exc:  # an output the check cannot read
                r.ok, r.error = False, f"check: {type(exc).__name__}: {exc}"
            if not r.ok and r.error is None:
                r.error = "wrong output"
        else:
            r.ok = False
        if not r.ok:
            r.expected = wl.expected(r.op, r.output, r.error)


def percentile(values, pct):
    """Median, or a nearest-rank tail percentile; None when no sample, or
    when fewer than ten samples lie beyond the tail."""
    n = len(values)
    if n == 0:
        return None
    if pct == 50:
        return statistics.median(values)
    if n * (100 - pct) / 100 < 10:
        return None
    return sorted(values)[math.ceil(pct / 100 * n) - 1]


def end_to_end(records, tail=None, raw=False):
    """{metric: (value, sample count)} over the timed ops.  ops_per_s is
    ops over the time spent inside them: one caller, closed loop.  raw
    selects wall-clock times instead of reference-machine times."""
    lat = [t for r in records for t in (r.raw if raw else r.latencies)]
    n = len(lat)
    out = {"ops_per_s": (n / sum(lat), n),
           "op_p50_ms": (1e3 * statistics.median(lat), n),
           "fail_ratio": (sum(r.n for r in records if not r.ok) / n, n)}
    if tail is not None:
        name, pct = tail
        v = percentile(lat, pct)
        if v is not None:
            out[name] = (1e3 * v, n)
    return out


def by_kind(records):
    """{op kind: {attempted, failed, known and unexpected failures by
    reason, busy_s, p50_ms}}."""
    out = defaultdict(lambda: {"attempted": 0, "failed": 0,
                               "known": Counter(), "unexpected": Counter(),
                               "busy_s": 0.0, "latencies": []})
    for r in records:
        k = out[r.op.label]
        lat = r.latencies
        k["attempted"] += r.n
        k["busy_s"] += sum(lat)
        k["latencies"] += lat
        if not r.ok:
            k["failed"] += r.n
            bucket = "known" if r.expected else "unexpected"
            k[bucket][r.expected or r.error.split(":")[0]] += r.n
    for v in out.values():
        v["p50_ms"] = 1e3 * statistics.median(v.pop("latencies"))
        v["known"], v["unexpected"] = dict(v["known"]), dict(v["unexpected"])
    return dict(sorted(out.items()))


# ---------------------------------------------------------------- layers

STATS = {"calls": None, "busy_s": None, "p50_us": (50, 1e6),
         "p99_us": (99, 1e6), "p50_ms": (50, 1e3)}


def layer_metrics(spans, notes, guard_ops):
    """Per-layer metrics derivable from spans alone.

    busy_s sums the spans of a name that have no ancestor of that name.
    faces_built and vertices_kept count the polytopes built while setting
    up and during the ops in guard_ops, a fixed stretch of the schedule, so
    they are exact counts.  An op span's self time is its duration less
    its direct children: time spent in the benchmark between calls.
    """
    durations = defaultdict(list)
    busy = defaultdict(float)
    child_time = defaultdict(float)
    errors = Counter()
    names = [s[0] for s in spans]
    for s in spans:
        name, t0, t1, parent, _, err = s
        durations[name].append(t1 - t0)
        p = parent
        while p != -1 and names[p] != name:
            p = spans[p][3]
        if p == -1:
            busy[name] += t1 - t0
        if parent != -1 and names[parent].startswith("op."):
            child_time[parent] += t1 - t0
        if err:
            errors[name.split(".")[0]] += 1
    out = {}
    for metric in spec.PER_LAYER:
        span, stat = metric.rsplit(".", 1)
        if stat not in STATS:
            continue
        d = durations.get(span, [])
        if stat == "calls":
            out[metric] = float(len(d))
        elif stat == "busy_s":
            out[metric] = busy.get(span, 0.0)
        else:
            pct, scale = STATS[stat]
            v = percentile(d, pct)
            out[metric] = scale * v if v is not None else 0.0
    for layer in ("convex", "metric", "cones", "isometries"):
        out[f"{layer}.errors"] = float(errors[layer])
    builds = {"small": [], "large": []}
    faces = verts = 0
    for i, note in notes.items():
        given, kept, nfaces = note
        size = "small" if given <= 16 else "large" if given >= 32 else None
        if size:
            builds[size].append(spans[i][2] - spans[i][1])
        if spans[i][4] in guard_ops:
            faces += nfaces
            verts += kept
    for size, d in builds.items():
        v = percentile(d, 50)
        out[f"convex.build_polytope.{size}.p50_ms"] = 1e3 * v if v else 0.0
    out["convex.faces_built"] = float(faces)
    out["convex.vertices_kept"] = float(verts)
    self_times = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                  if s[3] == -1 and s[0].startswith("op.")]
    v = percentile(self_times, 50)
    out["trace.op_self.p50_us"] = 1e6 * v if v is not None else 0.0
    return out


def overhead_ratio(records):
    """Traced ops per busy second over untraced ops per busy second.  The
    first block warms caches up, so it is left out when another untraced
    block exists."""
    rest = [r for r in records if not r.warmup]
    if any(not r.traced for r in rest):
        records = rest
    rate = {}
    for traced in (False, True):
        lat = [t for r in records if r.traced == traced for t in r.latencies]
        rate[traced] = len(lat) / sum(lat)
    return rate[True] / rate[False]
