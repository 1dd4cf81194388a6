"""``service-mixed``: an open-loop client against ``repro-zoo serve``.

Set-up banks the hit keys into a store (``child.py prebank``), then
starts ``repro-zoo serve --workers 1 --store S --journal J``
``SERVE_STARTS`` times from scratch; ``setup_s`` is the median time from
process start to ``/healthz`` reporting ``ok`` with the worker
registered.  The last server takes the load: requests fall due on a
fixed schedule (uniform spacing at ``RATE`` per second) regardless of
how fast answers come back, over one connection (``CONNECTIONS``).  One
``/guarantee`` request in ``MISS_EVERY`` is a fresh key (a miss).  A
miss is answered ``202`` with a job id, and the client then follows the
service's own protocol: it polls ``/jobs/<id>`` every ``POLL`` seconds
until the job is done, and checks the job's value.  After the load,
every answered miss is requested again and must come back as a banked
``200``.  Each request is timed from when it was due; how late the
client sent it is recorded too, and so is the mix of requests sent
(hits, misses, polls).  ``cpu_s`` is the CPU time of the ``serve``
process (front-end, store, coordinator, journal and the server side of
the wire) over the load; the worker's compute is reported beside it,
ungated.  ``setup_s`` and ``cpu_s`` are scaled to the reference host
speed (``common.HostSpeed``); the miss wait ``wall_s`` is not, as it
is mostly the worker's timed idle re-poll.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import common as bench
import tracing

#: Offered ``/guarantee`` requests per second.  One request in each
#: block of ``MISS_EVERY`` (at a seeded position) is a miss: 10 misses
#: a second, so a 12 s run has 120 misses and the miss p90 has at least
#: ten samples beyond it.  Spreading the misses evenly over the run
#: keeps their mean wait steady: a miss waits for the worker's next idle
#: re-poll, and evenly spread misses sample every phase of that 1 s
#: cycle alike.  The server answers a hit in 1-3 ms, so one connection
#: is busy well under a third of the time.
RATE = 100.0
MISS_EVERY = 10
#: One connection: with two, the front-end parses two queries at once
#: in its executor threads, and ``ast.literal_eval`` under CPython 3.11
#: then fails now and then (``SystemError: AST constructor recursion
#: depth mismatch``), a defect of the program that loses a request in
#: about one run in four (see README.md, "Known failures").
CONNECTIONS = 1
#: Seconds between ``/jobs/<id>`` polls of a pending miss.  A miss
#: waits about 0.6 s (mostly the worker's 1 s idle re-poll), so a
#: pending miss is polled about three times.
POLL = 0.2
HIT_LIMIT_MS = 20.0
MISS_LIMIT_S = 2.0
#: A run is invalid when the client's p99 lateness exceeds this share
#: of the hit limit: the client, not the server, was slow.
LATE_LIMIT_FRACTION = 1.0
REQUEST_TIMEOUT = 10.0
MISS_TIMEOUT = 10.0
SERVE_STARTS = 4

#: Keys banked during set-up; every hit request names one of them.
HIT_GROUPS = [
    {"family": "mimo-1xN",
     "points": [{"snr_db": float(s), "num_rx": r} for s in range(4, 13) for r in (2, 3)]},
    {"family": "birth-death",
     "points": [{"n": n, "p_up": 0.3, "p_down": 0.3} for n in range(4, 50)]},
]


def miss_space() -> List[Dict[str, Any]]:
    """Cheap exact points never banked during set-up."""
    return [{"n": n, "p_up": round(0.05 + 0.01 * i, 2), "p_down": 0.2}
            for n in range(4, 41) for i in range(56)]


def query(family: str, point: Dict[str, Any]) -> str:
    params = "&".join(f"{k}={point[k]!r}" for k in sorted(point))
    return f"/guarantee?family={family}&{params}"


def http_get(address: Tuple[str, int], path: str) -> Tuple[int, bytes]:
    with socket.create_connection(address, timeout=REQUEST_TIMEOUT) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head:
        raise ConnectionError("connection closed without a reply")
    return int(head.split(None, 2)[1]), body


class Server:
    """One ``repro-zoo serve`` process tree."""

    def __init__(self, store: str, journal: str, trace_dir: Optional[str]) -> None:
        self.start = time.perf_counter()
        self.stderr_path = store + ".stderr"
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.zoo", "serve", "--port", "0",
                 "--workers", "1", "--store", store, "--journal", journal],
                stdout=subprocess.PIPE, stderr=stderr, text=True,
                cwd=bench.ROOT, env=bench.child_env(trace_dir),
            )
        self.address: Optional[Tuple[str, int]] = None
        found = threading.Event()

        def drain() -> None:
            for line in self.proc.stdout:
                if "http front-end on http://" in line:
                    host, port = line.split("http://")[1].split()[0].rsplit(":", 1)
                    self.address = (host, int(port))
                    found.set()
            found.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        if not found.wait(60) or self.address is None:
            self.stop()
            raise bench.BenchError("serve did not start")
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            try:
                status, body = http_get(self.address, "/healthz")
                health = json.loads(body)
                if status == 200 and health["status"] == "ok" and health["workers_alive"] >= 1:
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        else:
            self.stop()
            raise bench.BenchError("serve never became healthy")
        self.setup_s = time.perf_counter() - self.start

    def stop(self) -> None:
        """Stop the worker gracefully (so it flushes), then the server."""
        workers = bench._children(self.proc.pid)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline and any(_running(p) for p in workers):
            time.sleep(0.02)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            for pid in bench.process_tree(self.proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait()
        self._reader.join(timeout=5)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Load:
    """The open-loop schedule and its outcome."""

    def __init__(self, seed: int, seconds: float, refs: Dict[str, float]) -> None:
        rng = random.Random(seed)
        count = max(1, int(RATE * seconds))
        misses = {block + rng.randrange(min(MISS_EVERY, count - block))
                  for block in range(0, count, MISS_EVERY)}
        miss_keys = iter(rng.sample(miss_space(), len(misses)))
        hits = [(g["family"], p) for g in HIT_GROUPS for p in g["points"]]
        self.requests = []
        for i in range(count):
            if i in misses:
                family, point = "birth-death", next(miss_keys)
            else:
                family, point = rng.choice(hits)
            self.requests.append({
                "due": i / RATE, "kind": "miss" if i in misses else "hit",
                "path": query(family, point),
                "ref": refs[bench.point_key(family, point)],
            })
        self.seconds = count / RATE
        self.bad: List[str] = []
        #: Requests sent, by kind: ``hit``, ``miss`` (``/guarantee``)
        #: and ``poll`` (``/jobs/<id>``).
        self.sent: collections.Counter = collections.Counter()

    def run(self, address: Tuple[str, int]) -> None:
        heap: List[Tuple[float, int, Dict[str, Any], str]] = []
        seq = itertools.count()
        cond = threading.Condition()
        t0 = time.perf_counter() + 0.05
        for request in self.requests:
            heapq.heappush(heap, (t0 + request["due"], next(seq), request, request["path"]))
        remaining = [len(self.requests)]

        def finish(request: Dict[str, Any], ok: bool, done: float) -> None:
            request["ok"], request["latency"] = ok, done - (t0 + request["due"])
            with cond:
                remaining[0] -= 1
                cond.notify_all()

        def check(request: Dict[str, Any], value: Any, done: float) -> None:
            if value != request["ref"]:
                self.bad.append(f"{request['path']} -> {value!r}")
            finish(request, value == request["ref"], done)

        def poll_later(request: Dict[str, Any], done: float) -> None:
            if done - (t0 + request["due"]) >= MISS_TIMEOUT:
                request["error"] = "miss timed out"
                finish(request, False, done)
                return
            with cond:
                heapq.heappush(heap, (done + POLL, next(seq), request,
                                      f"/jobs/{request['job']}"))
                cond.notify_all()

        def settle(request: Dict[str, Any], polled: bool, status: int, body: bytes) -> None:
            done = time.perf_counter()
            if status == 200 and polled:
                job = json.loads(body)
                if not job["done"]:
                    poll_later(request, done)
                elif len(job["results"]) == 1 and job["results"][0]["ok"]:
                    check(request, job["results"][0]["value"], done)
                else:
                    request["error"] = f"job failed: {job['results']}"
                    finish(request, False, done)
            elif status == 200:
                check(request, json.loads(body)["value"], done)
            elif status == 202 and request["kind"] == "miss" and not polled:
                request["job"] = json.loads(body)["job"]
                poll_later(request, done)
            else:
                request["error"] = f"HTTP {status}"
                finish(request, False, done)

        def sender() -> None:
            free_since = t0
            while True:
                with cond:
                    while True:
                        if remaining[0] == 0:
                            return
                        wait = heap[0][0] - time.perf_counter() if heap else 0.1
                        if heap and wait <= 0:
                            due, _, request, path = heapq.heappop(heap)
                            break
                        cond.wait(wait)
                sent = time.perf_counter()
                polled = path != request["path"]
                self.sent["poll" if polled else request["kind"]] += 1
                if not polled:
                    # The client's own delay: from when the request was due
                    # or this connection fell free, whichever was later.
                    request["late"] = sent - max(due, free_since)
                try:
                    settle(request, polled, *http_get(address, path))
                except Exception as exc:  # noqa: BLE001 - a failed request, not a dead sender
                    request["error"] = f"{type(exc).__name__}: {exc}"
                    finish(request, False, time.perf_counter())
                free_since = time.perf_counter()

        threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + self.seconds + MISS_TIMEOUT + 2 * REQUEST_TIMEOUT
        for thread in threads:
            thread.join(max(0.0, deadline - time.perf_counter()))
        if any(thread.is_alive() for thread in threads):
            with cond:
                remaining[0] = 0
                cond.notify_all()
            raise bench.BenchError("load generator did not finish")

    def confirm_banked(self, address: Tuple[str, int]) -> None:
        """After the load: every answered miss is now a warm hit with
        its reference value (the front-end banked it)."""
        for request in self.requests:
            if request["kind"] == "miss" and request["ok"]:
                status, body = http_get(address, request["path"])
                value = json.loads(body).get("value") if status == 200 else None
                if value != request["ref"]:
                    self.bad.append(f"miss not banked: {request['path']} -> HTTP {status}")

    def summary(self) -> Dict[str, Any]:
        hits = [r["latency"] * 1e3 for r in self.requests if r["kind"] == "hit" and r["ok"]]
        misses = [r["latency"] for r in self.requests if r["kind"] == "miss" and r["ok"]]
        late = [r["late"] * 1e3 for r in self.requests]
        failed = sum(not r["ok"] for r in self.requests)
        good = sum(r["ok"] and r["latency"] <= (HIT_LIMIT_MS / 1e3 if r["kind"] == "hit"
                                                 else MISS_LIMIT_S)
                   for r in self.requests)
        hit_tail, hit_label = bench.tail(hits)
        miss_tail, miss_label = bench.tail(misses)
        return {
            "hits": hits, "misses": misses, "failed": failed,
            "attempted": len(self.requests),
            "hit_p50_ms": statistics.median(hits), "hit_tail_ms": hit_tail,
            "hit_tail": hit_label, "miss_p50_ms": statistics.median(misses) * 1e3,
            "miss_mean_ms": statistics.fmean(misses) * 1e3,
            "miss_tail_ms": miss_tail * 1e3, "miss_tail": miss_label,
            "late_p99_ms": bench.percentile(late, 99),
            "goodput_rps": good / self.seconds,
            "sent": dict(self.sent),
        }


def _load_phase(store0: str, tmp: str, tag: str, seed: int, seconds: float,
                refs: Dict[str, float], trace_dir: Optional[str], log,
                starts: int = 1):
    speed = bench.HostSpeed()
    setups = []
    for i in range(starts):
        store = os.path.join(tmp, f"store-{tag}-{i}.sqlite")
        shutil.copyfile(store0, store)
        server = Server(store, os.path.join(tmp, f"journal-{tag}-{i}.sqlite"), trace_dir)
        setups.append(server.setup_s)
        speed.sample()
        if i < starts - 1:
            server.stop()
    load = Load(seed, seconds, refs)
    rss = bench.PeakRss(server.proc.pid)
    try:
        workers = bench._children(server.proc.pid)
        serve0 = bench.cpu_s(server.proc.pid)
        worker0 = sum(map(bench.cpu_s, workers))
        load.run(server.address)
        serve_cpu = bench.cpu_s(server.proc.pid) - serve0
        worker_cpu = sum(map(bench.cpu_s, workers)) - worker0
        speed.sample()
        load.confirm_banked(server.address)
    finally:
        rss.sample()
        peak = rss.stop()
        server.stop()
    summary = load.summary()
    summary.update(serve_cpu_s=serve_cpu, worker_cpu_s=worker_cpu, speed=speed)
    sent = summary["sent"]
    log(f"{tag}: {summary['attempted']} requests at {RATE:g}/s over"
        f" {load.seconds:g} s on {CONNECTIONS} connections;"
        f" {len(summary['hits'])} hits, {len(summary['misses'])} misses answered,"
        f" {summary['failed']} failed; serve setups {[round(s, 3) for s in setups]}")
    log(f"{tag}: request mix sent: {sent.get('hit', 0)} /guarantee hits,"
        f" {sent.get('miss', 0)} /guarantee misses, {sent.get('poll', 0)} /jobs polls;"
        f" cpu serve {serve_cpu:.3f} s, worker {worker_cpu:.3f} s")
    errors = collections.Counter((r["kind"], r["error"]) for r in load.requests if "error" in r)
    for (kind, error), count in errors.most_common(3):
        log(f"{tag}: {count} {kind} requests failed with {error}")
    if errors:
        with open(server.stderr_path) as handle:
            for line in handle.read().splitlines()[-12:]:
                log(f"{tag}: serve stderr: {line}")
    return load, summary, setups, peak


def run(seed: int, seconds: float, trace: bool, refs: Dict[str, Any], log,
        scratch: str) -> Dict[str, Any]:
    service_refs = refs["service"]
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        store0 = os.path.join(tmp, "banked.sqlite")
        banked = bench.run_child({"kind": "prebank", "store": store0, "groups": HIT_GROUPS})
        bad = [f"prebank {family} {point}" for family, point, value in banked["values"]
               if service_refs.get(bench.point_key(family, point)) != value]
        load, summary, setups, peak = _load_phase(
            store0, tmp, "untraced", seed, seconds, service_refs, None, log,
            starts=1 if trace else SERVE_STARTS)
        bad += load.bad
        late_limit = LATE_LIMIT_FRACTION * HIT_LIMIT_MS
        if summary["late_p99_ms"] > late_limit:
            bad.append(f"generator fell behind: late p99 {summary['late_p99_ms']:.2f} ms"
                       f" > {late_limit:g} ms")
        out: Dict[str, Any] = {"attempted": summary["attempted"],
                               "failed": summary["failed"], "bad": bad}
        if trace:
            trace_dir = os.path.join(tmp, "trace")
            os.makedirs(trace_dir)
            traced, traced_summary, _, _ = _load_phase(
                store0, tmp, "traced", seed, seconds, service_refs, trace_dir, log)
            out["bad"] += traced.bad
            out["attempted"] += traced_summary["attempted"]
            out["failed"] += traced_summary["failed"]
            records = tracing.load(trace_dir)
            layers = tracing.per_layer(records)
            compute = tracing.compute_ms_by_job(records)
            waits = [r["latency"] * 1e3 - compute[r["job"]] for r in traced.requests
                     if r["kind"] == "miss" and r.get("ok") and r.get("job") in compute]
            layers["queue.wait_ms_p50"] = statistics.median(waits) if waits else 0.0
            layers["trace.overhead_frac"] = (traced_summary["hit_p50_ms"]
                                             / summary["hit_p50_ms"] - 1.0)
            out.update(layers=layers, records=records)
            return out
    wall_f, cpu_f = summary["speed"].factors()
    out["metrics"] = {
        "setup_s": (statistics.median(setups) * wall_f, "s"),
        "wall_s": (summary["miss_mean_ms"] / 1e3, "s"),
        "cpu_s": (summary["serve_cpu_s"] * cpu_f, "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": ((summary["attempted"] - summary["failed"]) / summary["attempted"], "1"),
        "goodput_rps": (summary["goodput_rps"], "1/s"),
    }
    out["notes"] = {
        "hit_p50_ms": round(summary["hit_p50_ms"], 4),
        f"hit_{summary['hit_tail']}_ms": round(summary["hit_tail_ms"], 4),
        "hit_samples": len(summary["hits"]),
        "miss_p50_ms": round(summary["miss_p50_ms"], 2),
        "miss_mean_ms": round(summary["miss_mean_ms"], 2),
        f"miss_{summary['miss_tail']}_ms": round(summary["miss_tail_ms"], 2),
        "miss_samples": len(summary["misses"]),
        "late_p99_ms": round(summary["late_p99_ms"], 4),
        "fail_frac": summary["failed"] / summary["attempted"],
        "sent_hits": summary["sent"].get("hit", 0),
        "sent_misses": summary["sent"].get("miss", 0),
        "sent_job_polls": summary["sent"].get("poll", 0),
        "worker_cpu_s": round(summary["worker_cpu_s"], 3),
        "raw_setup_s": round(statistics.median(setups), 4),
        "raw_serve_cpu_s": round(summary["serve_cpu_s"], 3),
        "probe_wall_ms": [round(r[0] * 1e3, 2) for r in summary["speed"].readings],
        "setup_samples": len(setups),
    }
    return out
