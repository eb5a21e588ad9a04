"""cli-session: one `python -m hilbertgeo.cli` subprocess per op.

The session follows a fixed script of 29 commands: distance, rigid,
classify, one render with a ball overlay, and `check` on each of the nine
registered suites at its default budget.  Most calls are the cheap
ones, as in an interactive session, so the median op is one of them.
Two commands are known defects (a close pair, and rigidity on the square
scaled by 1e9).  A run executes
the shortest prefix of the script whose nominal cost reaches --seconds,
so every run times the same commands whatever the seed; the seed draws
the domains and points.  Each output is checked against the in-process
result and, for distances and witnesses, against the mpmath reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import hilbertgeo as hg
import hilbertgeo.cli as hg_cli

import procs
import shapes

# (command, target, variant); the order is part of the workload.
SCRIPT = [
    ("distance", "square", "interior"), ("rigid", "square1e9", "generic"),
    ("distance", "octagon", "interior"), ("check", "asymptotics", ""),
    ("classify", "hexa:image", "equivalent"), ("distance", "disk", "interior"),
    ("render", "disk", "ball"), ("distance", "lorentz", "interior"),
    ("rigid", "octagon", "generic"), ("check", "cone-slice", ""),
    ("distance", "square", "close-1e-13"), ("classify", "hexa:hexb", "distinct"),
    ("distance", "octagon", "interior"), ("rigid", "disk", "generic"),
    ("check", "plane-classifier", ""), ("distance", "disk", "interior"),
    ("rigid", "square", "vertex"), ("check", "reciprocal", ""),
    ("distance", "lorentz", "interior"), ("classify", "disk:square", "distinct"),
    ("distance", "square", "interior"), ("check", "star-maps", ""),
    ("rigid", "octagon", "generic"), ("check", "index-two", ""),
    ("distance", "octagon", "interior"), ("check", "metric-axioms", ""),
    ("classify", "hexa:image", "equivalent"),
    ("check", "projective-invariance", ""), ("check", "simplex-chart", ""),
]

KNOWN_DEFECTS = {("rigid", "square1e9"): "square at 1e9: rigid exits 1",
                 ("distance", "close-1e-13"): "close pair loses digits"}
# Every chord between two open polygon edges is flexible, so a rigid
# verdict on one is the library's fallback after its witness search.
FALLBACK = "rigid fallback on a flexible chord"

# Seed-state wall seconds per command on a 2-core machine; they only size
# the script prefix a run executes.
NOMINAL_S = {"distance": 1.05, "rigid": 1.05, "classify": 1.15,
             "render": 3.8, "asymptotics": 1.05, "cone-slice": 1.8,
             "index-two": 2.85, "metric-axioms": 3.6, "plane-classifier": 1.3,
             "projective-invariance": 1.45, "reciprocal": 1.25,
             "simplex-chart": 1.75, "star-maps": 1.25}

OP_TIMEOUT_S = 60.0


def _csv(p):
    return ",".join(repr(float(v)) for v in p)


class CliOp:
    __slots__ = ("index", "command", "target", "variant", "argv", "data")

    def __init__(self, index, command, target, variant, argv, data):
        self.index, self.command, self.target = index, command, target
        self.variant, self.argv, self.data = variant, argv, data

    @property
    def label(self):
        return self.command


class Workload:
    name = "cli-session"

    def __init__(self, seed, tiny=False, fault=False):
        self.seed = seed
        self.in_process = False  # replay through hilbertgeo.cli.main
        self.workdir = os.path.join(procs.OUT_DIR,
                                    f"cli-session-{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng([seed, 3])
        hexa = shapes.polygon(rng, 6)
        self.polytopes = {
            "square": shapes.SQUARE, "square1e9": shapes.SQUARE * 1e9,
            "octagon": shapes.polygon(rng, 8), "hexa": hexa,
            "image": shapes.homography(rng, hexa),
            "hexb": shapes.polygon(rng, 6)}
        self.disk = (rng.uniform(-0.3, 0.3, 2), shapes.ellipsoid_shape(rng, 2))
        self.files = {}
        for name, V in self.polytopes.items():
            self._write(name, {"kind": "polytope", "vertices": V.tolist()})
        self._write("disk", {"kind": "ellipsoid",
                             "center": self.disk[0].tolist(),
                             "shape": self.disk[1].tolist()})
        self._write("lorentz", {"kind": "lorentz", "n": 3})
        script = SCRIPT[:7] if tiny else SCRIPT
        self.ops = [self._op(i, np.random.default_rng([seed, 3, i]), *s)
                    for i, s in enumerate(script)]
        self.block = len(self.ops)
        self._refs = {}
        self._mine = {}  # op index -> in-process result, for replays

    def _write(self, name, obj):
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        self.files[name] = path

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------ script

    def _interior(self, rng, target):
        if target == "disk":
            return shapes.in_ellipsoid(rng, *self.disk)
        if target == "lorentz":
            u = rng.normal(size=2)
            u *= 0.9 * rng.uniform() ** 0.5 / np.linalg.norm(u)
            return rng.uniform(0.5, 2.0) * np.concatenate([[1.0], u])
        return shapes.interior(rng, self.polytopes[target])

    def _op(self, i, rng, command, target, variant):
        f = self.files
        data = {}
        if command == "check":
            argv = ["check", target, "--seed", str(self.seed)]
        elif command == "classify":
            a, b = target.split(":")
            argv = ["classify", "--a", f[a], "--b", f[b],
                    "--seed", str(self.seed)]
        elif command == "render":
            c = self._interior(rng, "disk")
            data["ball"] = (c, rng.uniform(0.5, 1.5))
            data["out"] = os.path.join(self.workdir, f"render-{i}.svg")
            argv = ["render", "--domain", f[target], "--out", data["out"],
                    f"--ball={_csv(list(c) + [data['ball'][1]])}"]
        else:
            if variant == "vertex":
                V = self.polytopes[target]
                c, v = V.mean(axis=0), V[int(rng.integers(len(V)))]
                x, y = c + 0.5 * (v - c), c
            elif target == "square1e9":
                x, y = (shapes.interior(rng, shapes.SQUARE) * 1e9
                        for _ in range(2))
            else:
                x = self._interior(rng, target)
                y = (x + 1e-13 * np.array([0.6, 0.8])
                     if variant == "close-1e-13" else
                     self._interior(rng, target))
            data["xy"] = (x, y)
            argv = [command, "--domain", f[target], f"--x={_csv(x)}",
                    f"--y={_csv(y)}"]
        return CliOp(i, command, target, variant, argv, data)

    def count_for(self, seconds):
        """Shortest script prefix whose nominal cost reaches `seconds`."""
        total = 0.0
        for n, op in enumerate(self.ops, 1):
            total += NOMINAL_S.get(op.target if op.command == "check"
                                   else op.command)
            if total >= seconds:
                return n
        return len(self.ops)

    def op(self, i):
        return self.ops[i % len(self.ops)]

    # --------------------------------------------------------------- run

    def run(self, op):
        """Run the command as a subprocess, or replay it in this process:
        (exit code, stdout, stderr, peak RSS in MB or 0 in process)."""
        if self.in_process:
            return self._replay(op)
        argv = [sys.executable, "-m", "hilbertgeo.cli"] + op.argv
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "wb") as err:
            child = procs.Child(argv, os.environ, stderr=err)
            try:
                deadline = time.perf_counter() + OP_TIMEOUT_S
                out = "\n".join(child.read_all(deadline))
                code = child.reap(deadline)
            finally:
                child.kill()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            return code, out, fh.read(), child.peak_rss_mb

    def _replay(self, op):
        """The same library calls in this process, through the CLI's main."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hg_cli.main(op.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue(), 0.0

    @staticmethod
    def expected(op, out, error):
        """Why a failure of this op is a known defect, or None."""
        known = (KNOWN_DEFECTS.get((op.command, op.target))
                 or KNOWN_DEFECTS.get((op.command, op.variant)))
        if (known is None and op.command == "rigid" and op.target == "octagon"
                and out is not None and out[1].startswith("rigid\n")):
            return FALLBACK
        return known

    # ------------------------------------------------------------- check

    def _ref(self, target):
        import reference as R

        if target not in self._refs:
            if target == "disk":
                self._refs[target] = R.EllipsoidRef(*self.disk)
            elif target == "lorentz":
                self._refs[target] = R.EllipsoidRef(np.zeros(2), np.eye(2))
            else:
                self._refs[target] = R.PolytopeRef(self.polytopes[target])
        return self._refs[target]

    def _domain(self, target):
        return hg.load_domain(self.files[target])

    def _in_process(self, op, compute):
        if op.index not in self._mine:
            self._mine[op.index] = compute()
        return self._mine[op.index]

    def check(self, op, result):
        import reference as R

        code, out, _, _ = result
        if code != 0:
            return False, None
        if op.command == "check":
            reports = json.loads(out)
            return reports["experiment"] == op.target and reports["pass"], None
        if op.command == "render":
            c, r = op.data["ball"]
            with open(op.data["out"], encoding="utf-8") as fh:
                svg = fh.read()
            want = self._in_process(op, lambda: hg.render_svg(
                self._domain("disk"), [("ball", c, r)]))
            return out.strip() == op.data["out"] and svg == want, None
        if op.command == "classify":
            verdict = json.loads(out)["verdict"]
            a, b = (self._domain(t) for t in op.target.split(":"))
            mine = self._in_process(op, lambda: hg.classify_2d(
                a, b, np.random.default_rng(self.seed)))
            want = ("projectively-equivalent" if op.variant == "equivalent"
                    else "not-isometric")
            return verdict == want == mine.verdict, None
        x, y = op.data["xy"]
        ref = self._ref(op.target)
        if op.command == "distance":
            value = float(out.strip())
            D = self._domain(op.target)
            if op.target == "lorentz":
                mine = hg.cone_distance(D, x, y)
                x, y = R.lorentz_slice(x), R.lorentz_slice(y)
            else:
                mine = hg.distance(D, x, y)
            ok, rel = R.check_distance(ref, x, y, value)
            return ok and abs(value - mine) <= 1e-11 * abs(mine), rel
        lines = out.strip().splitlines()
        verdict = json.loads(lines[1])
        mine = hg.is_rigid_chord(self._domain(op.target), x, y)
        want = op.variant == "vertex" or op.target == "disk"
        if lines[0] != ("rigid" if want else "non-rigid") or \
                verdict["rigid"] != want or mine.rigid != want:
            return False, None
        if want:
            return True, None
        w = np.array(verdict["witness"])
        d = [R.hilbert_distance(ref, *pq) for pq in ((x, w), (w, y), (x, y))]
        return abs(float(d[0] + d[1] - d[2])) <= 1e-9 * float(d[2]), None

    # ------------------------------------------------------------ traced

    def cli_layers(self, records, env):
        """cli.* metrics: per-command wall-clock p50 of the subprocess
        ops, and interpreter start and import times from fresh
        interpreters."""
        import harness

        out = {}
        for cmd in ("distance", "rigid", "classify", "check", "render"):
            lat = [t for r in records if r.op.command == cmd for t in r.raw]
            v = harness.percentile(lat, 50)
            out[f"cli.{cmd}.p50_ms"] = 1e3 * v if v is not None else 0.0
        starts, imports, scipy = [], [], []
        code = ("import time; t = time.perf_counter(); import hilbertgeo.cli; "
                "print(time.perf_counter() - t)")
        for _ in range(3):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
            starts.append(time.perf_counter() - t)
            res = subprocess.run([sys.executable, "-c", code], env=env,
                                 check=True, capture_output=True, text=True)
            imports.append(float(res.stdout))
            res = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import hilbertgeo.cli"],
                env=env, check=True, capture_output=True, text=True)
            scipy.append(_scipy_self_us(res.stderr) / 1e6)
        out["cli.python_start_s"] = float(np.median(starts))
        out["cli.import_s"] = float(np.median(imports))
        out["cli.import.scipy_s"] = float(np.median(scipy))
        return out


def _scipy_self_us(importtime_log):
    """Sum of the self times (µs) of every scipy module in a -X importtime
    log."""
    total = 0
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("scipy"):
            total += int(parts[0].split(":")[1])
    return total

