"""``executor="process"``: a worker fleet on this host.

:func:`local_sweep` runs a sweep through the lease protocol of
``executor="remote"``: a journal-less :class:`~repro.service.Coordinator`
behind a loopback :class:`~repro.service.CoordinatorServer`, and forked
:class:`~repro.service.Worker` processes pulling leases from it.  The
launcher does only what an operator does for a fleet: start workers,
reap a worker's leases the moment its process exits, kill a worker
whose lease overran its budget, respawn so ``workers`` stay alive
while the job is open, and stop every worker on completion or Ctrl-C.

It sleeps on the workers' process sentinels and on a pipe the job's
``on_done`` callback writes to, waking every reap interval as well.
Deaths are known from the sentinels, so the coordinator has no
heartbeat cutoff: a point that holds the GIL (and so starves its
worker's heartbeat) is not taken for a dead worker.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import signal
import threading
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Sequence

from ..engine.sweep import SweepInterrupted, SweepResult
from ..resilience.policies import DeadlinePolicy, RetryPolicy
from .client import _job_fields, _merge
from .coordinator import Coordinator, CoordinatorServer, default_shard_size
from .worker import run_worker

__all__ = ["local_sweep"]

#: Dispatch allowance added to each lease's deadline budget; a lease on
#: this host reaches its worker within milliseconds.
_LEASE_GRACE = 1.0


def _serve(server: CoordinatorServer) -> None:
    """A forked worker's body; returns normally on SIGTERM, so exit
    finalizers run.  SIGTERM arrives blocked (see ``spawn``) and is
    unblocked only once a handler is in place."""
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    try:
        server._server.socket.close()  # the parent's listener, inherited
        run_worker(server.address)
    except KeyboardInterrupt:  # stopped before run_worker's own handler
        pass


def local_sweep(
    fn: Any,
    points: Sequence[Any],
    *,
    workers: int,
    shard_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[DeadlinePolicy] = None,
) -> List[SweepResult]:
    """Run one sweep on ``workers`` local worker processes.

    Results come back in grid order, bit-identical to the serial path.
    A Ctrl-C stops every worker and raises
    :class:`~repro.engine.SweepInterrupted` with the merged partials.
    """
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    coordinator = Coordinator(lease_grace=_LEASE_GRACE, liveness=float("inf"))
    wake, waker = multiprocessing.Pipe(duplex=False)

    def on_done(_job: Any) -> None:
        with contextlib.suppress(OSError):  # the sweep already returned
            waker.send_bytes(b"")

    if shard_size is None:
        shard_size = default_shard_size(len(points), workers)
    job = coordinator.submit(
        **_job_fields(fn, points, retry, deadline),
        shard_size=shard_size,
        on_done=on_done,
    )
    workers = min(workers, len(coordinator.jobs[job].pending))  # no idle forks
    server = CoordinatorServer(coordinator=coordinator)
    fork = multiprocessing.get_context("fork")
    procs: Dict[int, Any] = {}  # sentinel -> worker process
    stillborn = 0  # start-up crashes: exits before registering

    def spawn() -> None:
        proc = fork.Process(target=_serve, args=(server,), name="sweep-worker")
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        procs[proc.sentinel] = proc

    try:
        # Fork before the server threads start; the listening socket is
        # bound, so the workers' first connections queue until it serves.
        for _ in range(workers):
            spawn()
        server.start()
        while not coordinator.jobs[job].done:
            ready = wait([wake, *procs], timeout=server.reap_interval)
            exited = [procs.pop(s).pid for s in ready if s in procs]
            registered = {w.pid for w in list(coordinator.workers.values())}
            stillborn += sum(pid not in registered for pid in exited)
            if stillborn > 2 * workers:
                raise RuntimeError(
                    f"sweep workers exited {stillborn} times before"
                    " registering with the local coordinator"
                )
            hung = coordinator.reap_local(exited)
            for proc in procs.values():
                if proc.pid in hung:
                    proc.kill()
            while len(procs) < workers and not coordinator.jobs[job].done:
                spawn()
    except KeyboardInterrupt:
        raise SweepInterrupted(_merge(points, coordinator.cancel(job))) from None
    finally:
        for proc in procs.values():
            proc.terminate()
        for proc in procs.values():
            proc.join(timeout=2.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        wake.close()
        # Nobody waits for the serve loop to notice the shutdown.
        threading.Thread(
            target=server.stop, kwargs={"shutdown_workers": False}, daemon=True
        ).start()
    return _merge(points, coordinator.collect(job))
