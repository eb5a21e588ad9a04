"""Child processes: start one, read its lines against a deadline, and reap
it with os.wait4 so its own peak RSS is known (RUSAGE_CHILDREN would add
up every child the process ever had)."""

from __future__ import annotations

import os
import select
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")  # results, spans, inputs

# Pin numerical libraries to one thread in every child.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env(src_dir):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    return env


class Child:
    """A started process whose stdout is read line by line."""

    def __init__(self, argv, env, stderr=None):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stderr=stderr)
        self._buf = b""
        self.rusage = None

    def readline(self, deadline):
        """Next stdout line (without newline), or None at end of output.
        Raises TimeoutError past the deadline (a perf_counter value)."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError("child did not answer in time")
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                if not self._buf:
                    return None
                line, self._buf = self._buf, b""
                return line.decode()
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def read_all(self, deadline):
        lines = []
        while (line := self.readline(deadline)) is not None:
            lines.append(line)
        return lines

    def reap(self, deadline):
        """Wait for exit; returns the exit code and keeps the rusage."""
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.proc.stdout.close()
                return self.proc.returncode
            if time.perf_counter() > deadline:
                raise TimeoutError("child did not exit in time")
            time.sleep(0.002)

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB

    def kill(self):
        """Stop the process if it still runs and wait until it has ended."""
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                os.wait4(self.proc.pid, 0)
            except ChildProcessError:
                pass
            self.proc.returncode = -9
            self.proc.stdout.close()
