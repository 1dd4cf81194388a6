"""Parallel scenario sweeps: SNR grids, traceback lengths, quantizers.

The paper's experiments are all sweeps — a model rebuilt and re-checked
per design point (Figure 2 sweeps traceback length, Table V sweeps
antenna configurations).  Each point is independent, so this module
fans them across :mod:`concurrent.futures` workers and returns ordered,
timed, error-capturing results:

>>> from repro.engine import grid, sweep
>>> points = grid(snr_db=[4.0, 8.0], length=[3, 4])
>>> results = sweep(lambda p: p["snr_db"] * p["length"], points,
...                 executor="serial")
>>> [r.value for r in results]
[12.0, 16.0, 24.0, 32.0]

``executor`` selects ``"thread"`` (default — model building spends
most time in scipy, which releases the GIL), ``"serial"`` (in-process,
deterministic, used by the tests and for debugging), or one of the two
worker fleets, which share the crash-recovery protocol of
:class:`~repro.service.Coordinator`: ``"process"`` forks one on this
host (:mod:`repro.service.local`) and ``"remote"`` ships the sweep to
a running one (:mod:`repro.service`).  Results merge by grid index,
bit-identical to the serial path — per-point seed streams are spawned
by grid index, never by worker.

Every runner takes the :mod:`repro.resilience` policies (retries with
deterministic backoff, per-point deadlines); failed results carry an
abbreviated ``traceback`` and their ``attempts``, and
:func:`sweep_check` attaches structured validation ``warnings``
instead of silently accepting NaN/Inf/out-of-range numbers.

:func:`sweep_check` is the property-checking specialization: one pCTL
formula evaluated across a grid of models with a selectable checking
backend — ``"exact"`` (the solver engine) or the statistical
``"apmc"``/``"sprt"`` backends, which trade exactness for throughput
on large scenario grids via the fused batched trials of
:mod:`repro.smc`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import traceback as _traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..resilience.policies import DeadlineExceeded, DeadlinePolicy, RetryPolicy
from ..resilience.validate import ValidationWarning, formula_kind, validate_guarantee
from .config import SmcConfig

__all__ = [
    "SweepResult",
    "SweepInterrupted",
    "grid",
    "sweep",
    "sweep_values",
    "sweep_check",
    "CHECK_BACKENDS",
    "EXECUTORS",
]

#: Every sweep executor: in-process serial/thread, and the local and
#: networked worker fleets of :mod:`repro.service`.
EXECUTORS = ("serial", "thread", "process", "remote")

#: Checking backends of :func:`sweep_check`: the exact solver engine,
#: the Hoeffding estimator, and the sequential probability ratio test.
CHECK_BACKENDS = ("exact", "apmc", "sprt")


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep; ``partial`` holds what had finished.

    Every runner converts a ``KeyboardInterrupt`` into this after
    shutting its workers down cleanly (local workers stopped, remote
    jobs cancelled — no orphaned processes), so callers can salvage the
    completed :class:`SweepResult` list: :func:`sweep_check` banks the
    successful partials into its :class:`~repro.store.ResultStore`
    before re-raising, which is what makes a Ctrl-C'd ``--store`` sweep
    resumable with ``--resume``.
    """

    def __init__(self, partial: List["SweepResult"]):
        super().__init__(f"sweep interrupted with {len(partial)} point(s) done")
        self.partial = partial


@dataclass
class SweepResult:
    """Outcome of one sweep point.

    Attributes
    ----------
    point:
        The input scenario, exactly as submitted.
    value:
        The sweep function's return value (``None`` if it raised).
    seconds:
        Wall-clock time of this point alone (the *original* compute
        time when the result was served from a store).
    error:
        ``"ExcType: message"`` when the point failed, else ``None``.
    cached:
        True when the value came out of a :class:`repro.store.ResultStore`
        instead of being recomputed.
    label:
        Free-form caller annotation (e.g. the zoo family name a survey
        row belongs to) — never written by the sweep runner itself.
    attempts:
        How many tries this point consumed: in-worker retries under a
        :class:`~repro.resilience.RetryPolicy`, or — for points
        quarantined by a worker fleet's crash recovery — the number of
        lease strikes (expired leases covering the point) before
        isolation.
    traceback:
        Abbreviated traceback (the last few frames) of the failure,
        so a quarantined point is debuggable from a
        :class:`~repro.resilience.SweepReport`; ``None`` on success.
    warnings:
        :class:`~repro.resilience.ValidationWarning` records attached
        by :func:`sweep_check`'s guarantee validation — empty when the
        value passed every applicable check.
    """

    point: Any
    value: Any
    seconds: float
    error: Optional[str] = None
    cached: bool = False
    label: Optional[str] = None
    attempts: int = 1
    traceback: Optional[str] = None
    warnings: Tuple[ValidationWarning, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def timed_out(self) -> bool:
        """Was this point killed by a :class:`DeadlinePolicy`?"""
        return self.error is not None and self.error.startswith(
            "DeadlineExceeded"
        )


def grid(**axes: Iterable[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes as a list of scenario dicts.

    >>> grid(snr_db=[4, 8], levels=[3])
    [{'snr_db': 4, 'levels': 3}, {'snr_db': 8, 'levels': 3}]
    """
    names = list(axes)
    combos = itertools.product(*(list(axes[name]) for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def _abbreviate_traceback(exc: BaseException, limit: int = 3) -> str:
    """The last ``limit`` frames plus the exception line — enough to
    debug a quarantined point without shipping a full stack dump."""
    frames = _traceback.format_tb(exc.__traceback__)
    if len(frames) > limit:
        frames = [f"  ... ({len(frames) - limit} frames elided)\n"] + frames[
            -limit:
        ]
    return "".join(frames + [f"{type(exc).__name__}: {exc}"]).rstrip()


def _call_with_deadline(
    fn: Callable[[Any], Any], point: Any, deadline: Optional[DeadlinePolicy]
) -> Any:
    """Run ``fn(point)``, bounded by a watchdog when a deadline is set.

    The point runs in a daemon helper thread; when the deadline passes
    the helper is *abandoned* (Python threads cannot be killed) and
    :class:`DeadlineExceeded` is raised in the caller — the watchdog
    half of the deadline contract (the worker fleets use coordinator
    lease budgets instead).
    """
    if deadline is None:
        return fn(point)
    outcome: Dict[str, Any] = {}

    def _target() -> None:
        try:
            outcome["value"] = fn(point)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    watchdog = threading.Thread(
        target=_target, daemon=True, name="sweep-point-watchdog"
    )
    watchdog.start()
    watchdog.join(deadline.timeout)
    if watchdog.is_alive():
        raise DeadlineExceeded(
            f"point exceeded its {deadline.timeout:.6g}s deadline"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _run_point(
    fn: Callable[[Any], Any],
    point: Any,
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[DeadlinePolicy] = None,
) -> SweepResult:
    start = time.perf_counter()
    attempt = 1
    while True:
        try:
            value = _call_with_deadline(fn, point, deadline)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            if retry is not None and retry.should_retry(exc, attempt):
                delay = retry.delay(_canonical_point(point), attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            return SweepResult(
                point=point,
                value=None,
                seconds=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
                traceback=_abbreviate_traceback(exc),
                attempts=attempt,
            )
        return SweepResult(
            point=point,
            value=value,
            seconds=time.perf_counter() - start,
            attempts=attempt,
        )


def sweep(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    on_error: str = "capture",
    shard_size: Optional[int] = None,
    retry: Union[RetryPolicy, int, None] = None,
    deadline: Union[DeadlinePolicy, float, None] = None,
    remote: Optional[str] = None,
) -> List[SweepResult]:
    """Evaluate ``fn`` on every point, fanning across workers.

    Results come back in submission order regardless of completion
    order.  With ``on_error="capture"`` (default) a failing point
    yields a :class:`SweepResult` with ``error`` set and the sweep
    continues; ``on_error="raise"`` re-raises the first failure after
    the pool drains.  Either way, a ``fn`` or point that cannot be
    pickled is not a point failure: the process and remote executors
    raise its pickling error before any point runs.

    ``executor="process"`` runs ``max_workers`` worker processes on this
    host and ``executor="remote"`` ships the sweep to a running
    :class:`~repro.service.Coordinator` fleet (``remote`` names its
    ``HOST:PORT`` address, or the ``REPRO_COORDINATOR`` environment
    variable does).  Both lease out ``shard_size`` contiguous points at
    a time (~4 leases per worker by default), survive worker crashes
    and deadline overruns by bisection and quarantine, and need a
    picklable ``fn``; the serial and thread executors ignore
    ``shard_size``.

    ``retry`` (a :class:`~repro.resilience.RetryPolicy` or a bare
    attempt count) re-attempts transient failures per point;
    ``deadline`` (a :class:`~repro.resilience.DeadlinePolicy` or bare
    seconds) bounds each point's wall-clock.  Both default to off, in
    which case this runner behaves exactly as it always has.

    A Ctrl-C lands as :class:`SweepInterrupted` after the executor has
    shut down cleanly (local workers stopped, remote job cancelled — no
    orphaned workers), carrying the completed partial results.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {', '.join(EXECUTORS)}"
        )
    if on_error not in ("capture", "raise"):
        raise ValueError(f"on_error must be 'capture' or 'raise', got {on_error!r}")
    retry = RetryPolicy.coerce(retry)
    deadline = DeadlinePolicy.coerce(deadline)
    points = list(points)
    if executor == "remote":
        from ..service.client import remote_sweep  # deferred: avoid cycle

        address = remote or os.environ.get("REPRO_COORDINATOR")
        if not address:
            raise ValueError(
                "executor='remote' needs a coordinator address:"
                " pass remote='HOST:PORT' or set REPRO_COORDINATOR"
            )
        results = remote_sweep(
            fn,
            points,
            connect=address,
            shard_size=shard_size,
            retry=retry,
            deadline=deadline,
        )
    elif executor == "serial" or len(points) <= 1:
        results = []
        try:
            for point in points:
                results.append(_run_point(fn, point, retry, deadline))
        except KeyboardInterrupt:
            raise SweepInterrupted(results) from None
    elif executor == "process":
        from ..service.local import local_sweep  # deferred: avoid cycle

        results = local_sweep(
            fn,
            points,
            workers=max_workers or min(len(points), os.cpu_count() or 1),
            shard_size=shard_size,
            retry=retry,
            deadline=deadline,
        )
    else:
        workers = max_workers or min(len(points), os.cpu_count() or 1)
        pool = ThreadPoolExecutor(max_workers=workers)
        futures = [
            pool.submit(_run_point, fn, point, retry, deadline)
            for point in points
        ]
        try:
            results = [future.result() for future in futures]
        except KeyboardInterrupt:
            pool.shutdown(wait=False, cancel_futures=True)
            partial = [
                future.result()
                for future in futures
                if future.done()
                and not future.cancelled()
                and future.exception() is None
            ]
            raise SweepInterrupted(partial) from None
        pool.shutdown(wait=True)
    if on_error == "raise":
        _raise_first_failure(results)
    return results


def _raise_first_failure(results: Sequence[SweepResult]) -> None:
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"sweep point {result.point!r} failed: {result.error}"
            )


def _check_point(
    entry,
    *,
    build,
    formula,
    backend,
    theta,
    config,
    solver,
    seeds,
) -> Any:
    """One :func:`sweep_check` point; module-level for picklability."""
    # Imported lazily: repro.smc/pctl import the engine package.
    from ..pctl import check as exact_check
    from ..smc import smc_decide, smc_estimate

    index, point = entry
    chain = build(point)
    if backend == "exact":
        return exact_check(chain, formula, config=solver).value
    if backend == "apmc":
        return smc_estimate(
            chain,
            formula,
            epsilon=config.epsilon,
            delta=config.delta,
            seed=seeds[index],
            batch=config.batch,
        )
    return smc_decide(
        chain,
        formula,
        theta=theta,
        half_width=config.half_width,
        alpha=config.alpha,
        beta=config.beta,
        seed=seeds[index],
    )


def _canonical_point(point: Any) -> str:
    """Canonical text identity of one point, for duplicate detection.

    Mappings are keyed order-insensitively; objects JSON cannot encode
    fall back to ``repr`` — identical reprs are treated as the same
    point, which is exact for the literal-valued parameter dicts grids
    are made of.
    """
    return json.dumps(point, sort_keys=True, default=repr)


def sweep_check(
    build: Callable[[Any], Any],
    points: Sequence[Any],
    formula: str,
    *,
    backend: str = "exact",
    theta: Optional[float] = None,
    smc: Optional[SmcConfig] = None,
    solver=None,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    on_error: str = "capture",
    shard_size: Optional[int] = None,
    store=None,
    store_key: Optional[Callable[[Any], Any]] = None,
    store_extra: Optional[Dict[str, Any]] = None,
    retry: Union[RetryPolicy, int, None] = None,
    deadline: Union[DeadlinePolicy, float, None] = None,
    remote: Optional[str] = None,
    validate: bool = True,
) -> List[SweepResult]:
    """Check one pCTL ``formula`` across a grid of models.

    ``build(point)`` constructs the DTMC of one scenario point; the
    chosen ``backend`` then checks ``formula`` against it:

    ``"exact"``
        :func:`repro.pctl.check` through the solver engine (``solver``
        selects the numerical backend).  ``value`` is the checked
        number.
    ``"apmc"``
        Batched :func:`repro.smc.smc_estimate` with the ``smc``
        config's ``epsilon``/``delta``.  ``value`` is an
        :class:`~repro.smc.ApmcResult` — estimate plus guarantee and
        the samples drawn.
    ``"sprt"``
        Batched :func:`repro.smc.smc_decide` of ``P >= theta``
        (``theta`` is required).  ``value`` is an
        :class:`~repro.smc.SprtResult`.

    Statistical points draw from independent, deterministic seed
    streams spawned from ``smc.seed`` *by grid index*, so results are
    reproducible and executor-independent.  Only bounded path formulas
    are supported by the statistical backends — exactly the trade the
    paper discusses: scenario grids can swap exhaustive guarantees for
    sampled ones with explicit (epsilon, delta) error bounds when
    throughput matters.

    Identical points (same canonical parameter dict) within one call
    are solved once: duplicates reuse the first occurrence's result
    (and, for statistical backends, its seed stream).

    With ``store=`` (a :class:`repro.store.ResultStore`) the sweep is
    read-through cached: each distinct point is first looked up under
    ``(store_key(point), formula, backend, config fingerprint)``; hits
    come back with ``cached=True`` and misses are computed as usual and
    written back (successes only — failures are always retried).
    ``store_key`` maps a point to its JSON-able scenario identity
    (default: the point itself) and ``store_extra`` is provenance
    merged into every banked row (``store_extra["family"]`` also fills
    the store's queryable ``family`` column).  Store traffic happens in
    the submitting process only, so neither ``store`` nor ``store_key``
    needs to be picklable for ``executor="process"``.

    Only *successful* points are ever banked — a transient failure is
    recomputed on the next run, never served as a warm hit — which is
    also the checkpoint/resume contract: re-running an interrupted or
    partially-failed sweep against the same store recomputes exactly
    the missing and failed points.

    ``retry``/``deadline`` thread the fault-tolerance policies of
    :mod:`repro.resilience` into the underlying runner.  With
    ``validate=True`` (default) every emitted value is passed through
    :func:`repro.resilience.validate_guarantee` and violations
    (NaN/Inf, out-of-range probabilities) are attached to the result's
    ``warnings`` — downgraded to structured records, never silently
    accepted and never raised.
    """
    if backend not in CHECK_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {', '.join(CHECK_BACKENDS)}"
        )
    if executor not in EXECUTORS:
        # Fail before any store traffic or seed spawning, with the full
        # executor list — not a deep error out of the runner.
        raise ValueError(
            f"unknown executor {executor!r}; choose from {', '.join(EXECUTORS)}"
        )
    if backend == "sprt" and theta is None:
        raise ValueError("backend='sprt' needs a threshold theta")
    points = list(points)
    config = SmcConfig.coerce(smc)
    seeds = np.random.SeedSequence(config.seed).spawn(len(points))

    # Deduplicate: each distinct canonical point is solved exactly once,
    # at its first grid index (which also pins its spawned seed stream).
    first_index: Dict[str, int] = {}
    canon: List[str] = []
    for index, point in enumerate(points):
        key = _canonical_point(point)
        canon.append(key)
        first_index.setdefault(key, index)
    unique = sorted(set(first_index.values()))

    # Read-through: look distinct points up in the store before solving.
    by_index: Dict[int, SweepResult] = {}
    fingerprint = None
    scenario_ids: Dict[int, Any] = {}
    if store is not None:
        from ..store import check_fingerprint  # deferred: avoid cycle

        fingerprint = check_fingerprint(
            backend, smc=config, solver=solver, theta=theta
        )
        key_of = store_key if store_key is not None else lambda point: point
        scenario_ids = {index: key_of(points[index]) for index in unique}
        found = store.get_many(
            [(scenario_ids[i], formula, backend, fingerprint) for i in unique]
        )
        for index, row in zip(unique, found):
            if row is not None:
                by_index[index] = SweepResult(
                    point=points[index],
                    value=row.value,
                    seconds=row.seconds,
                    cached=True,
                )

    misses = [index for index in unique if index not in by_index]
    # partial over a module-level runner (not a closure) so
    # executor="process" can pickle the sweep function.
    run = functools.partial(
        _check_point,
        build=build,
        formula=formula,
        backend=backend,
        theta=theta,
        config=config,
        solver=solver,
        seeds=seeds,
    )

    def bank(index: int, result: SweepResult) -> None:
        # Failures are never banked: a quarantined or timed-out point
        # must be recomputed on the next run, not served as a warm hit.
        if store is not None and result.ok:
            store.put(
                scenario_ids[index],
                formula,
                result.value,
                backend=backend,
                config=fingerprint,
                seconds=result.seconds,
                extra=store_extra,
            )

    try:
        computed = sweep(
            run,
            [(index, points[index]) for index in misses],
            executor=executor,
            max_workers=max_workers,
            on_error="capture",
            shard_size=shard_size,
            retry=retry,
            deadline=deadline,
            remote=remote,
        )
    except SweepInterrupted as interrupt:
        # Ctrl-C: bank every successful partial before propagating, so
        # a --store sweep resumes from exactly where it was cut off.
        for result in interrupt.partial:
            bank(result.point[0], result)
        raise
    for index, result in zip(misses, computed):
        bank(index, result)
        result.point = result.point[1]  # unwrap the (index, point) plumbing
        by_index[index] = result

    if validate:
        kind = formula_kind(formula)
        for result in by_index.values():
            if result.ok:
                result.warnings = validate_guarantee(result.value, kind=kind)

    results = []
    for index, point in enumerate(points):
        source = by_index[first_index[canon[index]]]
        if source.point is point or first_index[canon[index]] == index:
            results.append(source)
        else:  # duplicate point: share the solve, keep the caller's object
            results.append(dataclass_replace(source, point=point))
    if on_error == "raise":
        _raise_first_failure(results)
    return results


def sweep_values(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    *,
    executor: str = "thread",
    max_workers: Optional[int] = None,
) -> List[Any]:
    """Like :func:`sweep` but returns bare values, raising on failure."""
    return [
        result.value
        for result in sweep(
            fn,
            points,
            executor=executor,
            max_workers=max_workers,
            on_error="raise",
        )
    ]
