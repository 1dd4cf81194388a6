"""Helpers shared by the benchmark's workloads: statistics, process
trees and their peak memory, fresh job processes, reference checks."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, child crash)."""


# -- statistics ------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: List[float]) -> Tuple[float, str]:
    """The highest of p99.9/p99/p90/p75/p50 with at least ten samples
    beyond it, else the maximum."""
    for q in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(values) * (100 - q) / 100 >= 10:
            return percentile(values, q), f"p{q:g}"
    return max(values), "max"


# -- processes -------------------------------------------------------------


def _children(pid: int) -> List[int]:
    out = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                out += [int(p) for p in handle.read().split()]
    except OSError:
        pass
    return out


def process_tree(pid: int) -> List[int]:
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo += _children(current)
    return tree


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_s(pid: int) -> float:
    """CPU seconds (user + system, all threads) one process has used."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class PeakRss:
    """The peak of a process tree's summed resident memory.

    Every ``period`` seconds it adds up the current ``VmRSS`` of the
    processes alive in the tree and keeps the largest sum seen.  The
    root's own lifetime peak (``VmHWM``, or its ``ru_maxrss`` passed to
    :meth:`stop`) bounds the result from below, since sampling can miss
    a short spike."""

    def __init__(self, pid: int, period: float = 0.05) -> None:
        self.pid, self.period = pid, period
        self.peak_kb = 0
        self.root_hwm_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        total = sum(_status_kb(pid, "VmRSS:") for pid in process_tree(self.pid))
        self.peak_kb = max(self.peak_kb, total)
        self.root_hwm_kb = max(self.root_hwm_kb, _status_kb(self.pid, "VmHWM:"))

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()

    def stop(self, root_kb: int = 0) -> float:
        """Stop sampling; the tree's peak summed RSS in MB."""
        self._stop.set()
        self._thread.join()
        return max(self.peak_kb, self.root_hwm_kb, root_kb) / 1024.0


# -- host speed ------------------------------------------------------------

#: Median seconds (wall and CPU alike) of one probe kernel on this
#: benchmark's reference host, a quiet 2-core Intel Xeon VM with Python
#: 3.11: every gated timing is scaled to this speed.
PROBE_REF_S = 0.024
PROBE_REPS = 5


def _probe_kernel(n: int = 120_000) -> int:
    """Fixed interpreter work of the program's kind: tuple keys hashed
    into a small dict (no fresh memory after the first call), float
    arithmetic."""
    table: Dict[Tuple[int, int], float] = {}
    x = 0.5
    for i in range(n):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0.0) + x
        x = (x * 1.0001 + 0.37) % 3.0
    return len(table)


def probe() -> Tuple[float, float]:
    """Median (wall, thread CPU) seconds of ``PROBE_REPS`` probe kernels."""
    walls, cpus = [], []
    for _ in range(PROBE_REPS):
        wall, cpu = time.perf_counter(), time.thread_time()
        _probe_kernel()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.thread_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)


class HostSpeed:
    """Scales timings to the reference host speed.

    The host is shared: its speed for the same work drifts by up to 2x
    over minutes.  The benchmark probes it with a fixed kernel in its
    own process between the timed intervals of a run (never while the
    program runs) and scales the run's wall times by ``PROBE_REF_S``
    over the median probe wall time, and its CPU times by
    ``PROBE_REF_S`` over the median probe CPU time.  Medians over the
    whole run, so a probe that a passing hiccup slowed does not count."""

    def __init__(self) -> None:
        for _ in range(3):  # warm-up
            _probe_kernel()
        self.readings = [probe()]

    def sample(self) -> None:
        """Probe now (between two timed intervals)."""
        self.readings.append(probe())

    def factors(self) -> Tuple[float, float]:
        """The (wall, cpu) factors: reference over measured probe time."""
        return (PROBE_REF_S / statistics.median(r[0] for r in self.readings),
                PROBE_REF_S / statistics.median(r[1] for r in self.readings))


def child_env(trace_dir: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if trace_dir:
        paths.insert(0, os.path.join(BENCH, "boot"))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(job: Dict[str, Any], trace_dir: Optional[str] = None,
              timeout: float = 170.0) -> Dict[str, Any]:
    """Run one job in a fresh interpreter; adds ``setup_s`` and ``peak_mb``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(trace_dir),
    )
    rss = PeakRss(proc.pid)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        rss.stop()
        raise BenchError(f"job {job['kind']} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    result["peak_mb"] = rss.stop(result["maxrss_kb"])
    return result


# -- references ------------------------------------------------------------


def load_references() -> Dict[str, Any]:
    with open(os.path.join(BENCH, "references.json")) as handle:
        return json.load(handle)


def point_key(family: str, point: Dict[str, Any]) -> str:
    return family + "|" + json.dumps(point, sort_keys=True)


def compare_values(values: Dict[str, float], reference: Dict[str, float],
                   tolerance: float = 1e-9) -> List[str]:
    """Names whose value is missing or off the reference by > tolerance."""
    return [name for name in sorted(set(values) | set(reference))
            if not within(values.get(name), reference.get(name), tolerance)]


def within(value: Optional[float], reference: Optional[float], tolerance: float) -> bool:
    """``value`` is a finite number within ``tolerance`` of ``reference``
    (so a missing value or a NaN never passes)."""
    return (value is not None and reference is not None and math.isfinite(value)
            and abs(value - reference) <= tolerance)
