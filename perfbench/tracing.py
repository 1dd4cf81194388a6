"""Span tracing for the benchmark, installed from outside the program.

``install(out_dir)`` wraps the public functions and methods at every
layer boundary listed in :data:`TARGETS` (the one wrapper table) and
rebinds every module attribute that held the original, so
``from a import f`` copies are traced too.  Each call records a span
``(id, parent, name, layer, start, end, thread, request id)``; spans
and counters stay in memory and are written to
``<out_dir>/spans-<pid>.json`` when the process ends.  Forked pool
workers start with an empty recorder and flush through
``multiprocessing``'s exit finalizers; spawned interpreters (``serve``
and its worker) install the same table through ``boot/sitecustomize.py``.

``load(out_dir)`` reads the span files back and ``per_layer(records)``
turns them into the per-layer metrics.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import glob
import importlib
import itertools
import json
import os
import pkgutil
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

# -- count hooks: (recorder, args, kwargs, result, nested) -> None ---------


def _chain_arg(args, kwargs):
    chain = kwargs.get("chain", args[0] if args else None)
    return chain if hasattr(chain, "transition_matrix") else None


def _count_graph(rec, args, kwargs, result, nested):
    rec.add("graph.calls")
    chain = _chain_arg(args, kwargs)
    if chain is not None:
        rec.add("graph.nnz_scanned", chain.transition_matrix.nnz)


def _count_builder(rec, args, kwargs, result, nested):
    rec.add("builder.states", result.chain.num_states)
    rec.add("builder.transitions", result.chain.transition_matrix.nnz)


def _count_zoo_build(rec, args, kwargs, result, nested):
    rec.add("zoo.builds")
    rec.add("zoo.build_s", result.build_seconds)
    rec.add("zoo.reduce_s", result.reduce_seconds)


def _count_reduction(rec, args, kwargs, result, nested):
    if nested:
        return
    rec.add("reductions.calls")
    chain = _chain_arg(args, kwargs)
    if chain is not None:
        rec.add("reductions.states_in", chain.num_states)
    quotient = getattr(result, "chain", None)
    if quotient is not None:
        rec.add("reductions.blocks_out", quotient.num_states)


def _count_checks(rec, args, kwargs, result, nested):
    if not nested:
        rec.add("checker.checks", len(result) if isinstance(result, list) else 1)


def _count_restrict(rec, args, kwargs, result, nested):
    rec.add("chain.restrict_calls")


def _count_linalg(rec, args, kwargs, result, nested):
    rec.add("linalg.spsolve_calls")
    matrix = args[0] if args else kwargs.get("A")
    if hasattr(matrix, "nnz"):
        rec.add("linalg.nnz_in", matrix.nnz)
        rec.add(
            "linalg.bytes_in",
            sum(getattr(matrix, part).nbytes
                for part in ("data", "indices", "indptr")
                if hasattr(matrix, part)),
        )
    if len(args) > 1 and hasattr(args[1], "nbytes"):
        rec.add("linalg.bytes_in", args[1].nbytes)


def _count_samples(rec, args, kwargs, result, nested):
    count = args[2] if len(args) > 2 else kwargs.get("count", 0)
    rec.add("smc.samples", int(count))


def _count_validate(rec, args, kwargs, result, nested):
    if not nested:
        rec.add("validate.calls")
        rec.add("validate.warnings", len(result or ()))


def _count_sweep(rec, args, kwargs, result, nested):
    if nested or not isinstance(result, list):
        return
    executor = kwargs.get("executor", "thread")
    workers = kwargs.get("max_workers") or (1 if executor == "serial"
                                            else os.cpu_count() or 1)
    rec.add("sweep.points", len(result))
    rec.add("sweep.busy_s", sum(r.seconds for r in result if not r.cached))
    rec.sweep_workers.append(int(workers))


def _count_store_get(rec, args, kwargs, result, nested):
    rec.add("store.gets")
    rec.add("store.hits", result is not None)


def _count_guarantee(rec, args, kwargs, result, nested):
    status = result[0]
    rec.add("frontend.hits" if status == 200 else "frontend.misses")
    if status == 429:
        rec.add("frontend.shed_429")
    elif status == 503:
        rec.add("frontend.unavailable_503")


def _count_lease(rec, args, kwargs, result, nested):
    if isinstance(result, dict) and result.get("type") == "shard":
        rec.add("queue.leases")


def _count_submit(rec, args, kwargs, result, nested):
    rec.add("queue.jobs")


def _count_frame(rec, args, kwargs, result, nested):
    rec.add("wire.frames")
    rec.add("wire.bytes", len(result))


def _count_journal(rec, args, kwargs, result, nested):
    rec.add("journal.writes")


def _count_engine(rec, args, kwargs, result, nested):
    rec.engines.append(args[0])


def _rid_shard(args, kwargs):
    shard = args[1] if len(args) > 1 else kwargs.get("shard")
    return shard.get("job") if isinstance(shard, dict) else None


def _rid_route(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("target")


#: The wrapper table: layer -> the public functions and methods at its
#: boundary.  Each entry is ``(layer, "module:qualname", hook, rid,
#: workloads)``; ``hook`` adds counts, ``rid`` extracts a request or job
#: id, and ``workloads`` names the workloads that must fire the wrapper
#: (checked by ``selftest.py``).
PAPER, LONGRUN, SMC, SERVICE = "paper", "longrun-full", "smc-sweep", "service-mixed"
TARGETS: List[Tuple[str, str, Optional[Callable], Optional[Callable], Tuple[str, ...]]] = [
    ("experiments", "repro.experiments.table1:run", None, None, (PAPER,)),
    ("experiments", "repro.experiments.table2:run", None, None, (PAPER,)),
    ("experiments", "repro.experiments.table3:run", None, None, (PAPER,)),
    ("experiments", "repro.experiments.table4:run", None, None, (PAPER,)),
    ("experiments", "repro.experiments.table5:run", None, None, (PAPER,)),
    ("experiments", "repro.experiments.figure2:run", None, None, (PAPER,)),
    ("zoo", "repro.zoo.pipeline:build", _count_zoo_build, None, (PAPER, LONGRUN, SMC, SERVICE)),
    ("zoo", "repro.zoo.sweep:sweep", None, None, (SMC,)),
    ("builder", "repro.dtmc.builder:build_dtmc", _count_builder, None, (PAPER, LONGRUN, SMC)),
    ("reductions", "repro.core.reductions.lumping:lump", _count_reduction, None, (SMC, SERVICE)),
    ("reductions", "repro.core.reductions.lumping:coarsest_lumping_with_stats", _count_reduction, None, (SMC, SERVICE)),
    ("reductions", "repro.core.reductions.abstraction:quotient_by_partition", _count_reduction, None, (SMC, SERVICE)),
    ("reductions", "repro.core.reductions.abstraction:quotient_by_function", _count_reduction, None, ()),
    ("reductions", "repro.core.reductions.bisimulation:are_bisimilar", _count_reduction, None, ()),
    ("checker", "repro.pctl.checker:ModelChecker.check", _count_checks, None, (PAPER, LONGRUN, SERVICE)),
    ("checker", "repro.pctl.checker:ModelChecker.check_many", _count_checks, None, (PAPER,)),
    ("transient", "repro.dtmc.transient:distribution_at", None, None, ()),
    ("transient", "repro.dtmc.transient:distribution_trajectory", None, None, ()),
    ("transient", "repro.dtmc.transient:instantaneous_reward", None, None, ()),
    ("transient", "repro.dtmc.transient:cumulative_reward", None, None, ()),
    ("transient", "repro.dtmc.transient:expected_visits", None, None, ()),
    ("transient", "repro.dtmc.transient:bounded_reachability", None, None, (PAPER, SERVICE)),
    ("transient", "repro.dtmc.transient:bounded_invariance", None, None, ()),
    ("graph", "repro.dtmc.graph:reachable_states", _count_graph, None, ()),
    ("graph", "repro.dtmc.graph:reachability_iterations", _count_graph, None, (PAPER,)),
    ("graph", "repro.dtmc.graph:backward_reachable", _count_graph, None, ()),
    ("graph", "repro.dtmc.graph:constrained_backward_reachable", _count_graph, None, (SMC,)),
    ("graph", "repro.dtmc.graph:strongly_connected_components", _count_graph, None, (PAPER, LONGRUN)),
    ("graph", "repro.dtmc.graph:bottom_sccs", _count_graph, None, (PAPER, LONGRUN)),
    ("graph", "repro.dtmc.graph:is_irreducible", _count_graph, None, ()),
    ("graph", "repro.dtmc.graph:period", _count_graph, None, ()),
    ("graph", "repro.dtmc.graph:is_aperiodic", _count_graph, None, ()),
    ("chain", "repro.dtmc.chain:DTMC.restricted_to", _count_restrict, None, (LONGRUN,)),
    ("engine", "repro.engine.core:Engine.__init__", _count_engine, None, (PAPER, LONGRUN, SMC, SERVICE)),
    ("engine", "repro.engine.core:Engine.solve_subsystem", None, None, (LONGRUN,)),
    ("engine", "repro.engine.core:Engine.prob01", None, None, ()),
    ("engine", "repro.engine.core:Engine.stationary_distribution", None, None, ()),
    ("engine", "repro.engine.core:Engine.long_run_distribution", None, None, (PAPER, LONGRUN)),
    ("engine", "repro.engine.core:Engine.path_sampler", None, None, ()),
    ("linalg", "scipy.sparse.linalg:spsolve", _count_linalg, None, (PAPER, LONGRUN)),
    ("linalg", "scipy.sparse.linalg:splu", _count_linalg, None, (LONGRUN,)),
    ("smc", "repro.smc.bridge:smc_estimate", None, None, (SMC,)),
    ("smc", "repro.smc.bridge:smc_decide", None, None, ()),
    ("smc", "repro.smc.bridge:BatchTrial.__call__", _count_samples, None, (SMC,)),
    ("smc", "repro.dtmc.simulate:PathSampler.__init__", None, None, (SMC,)),
    ("validate", "repro.resilience.validate:validate_guarantee", _count_validate, None, (SMC,)),
    ("sweep", "repro.engine.sweep:sweep_check", _count_sweep, None, (SMC,)),
    ("store", "repro.store.result_store:ResultStore.get", _count_store_get, None, (SERVICE,)),
    ("store", "repro.store.result_store:ResultStore.put", None, None, (SERVICE,)),
    ("frontend", "repro.service.frontend:Frontend.route", None, _rid_route, (SERVICE,)),
    ("frontend", "repro.service.frontend:Frontend.guarantee", _count_guarantee, None, (SERVICE,)),
    ("queue", "repro.service.coordinator:Coordinator.submit", _count_submit, None, (SERVICE,)),
    ("queue", "repro.service.coordinator:Coordinator.handle", None, None, (SERVICE,)),
    ("queue", "repro.service.coordinator:Coordinator._on_lease", _count_lease, None, (SERVICE,)),
    ("wire", "repro.service.wire:frame", _count_frame, None, (SERVICE,)),
    ("wire", "repro.service.wire:request", None, None, (SERVICE,)),
    ("journal", "repro.service.journal:JobJournal.record_submit", _count_journal, None, (SERVICE,)),
    ("journal", "repro.service.journal:JobJournal.record_results", _count_journal, None, (SERVICE,)),
    ("journal", "repro.service.journal:JobJournal.record_quarantine", _count_journal, None, ()),
    ("journal", "repro.service.journal:JobJournal.record_done", _count_journal, None, (SERVICE,)),
    ("journal", "repro.service.journal:JobJournal.record_cancelled", _count_journal, None, ()),
    ("worker", "repro.service.worker:Worker._compute_shard", None, _rid_shard, (SERVICE,)),
]

#: Layers a workload's root span belongs to (the benchmark itself).
BENCH_LAYER = "bench"

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.engines: List[Any] = []
        self.sweep_workers: List[int] = []
        self.fired: Dict[str, int] = {}
        self._ids = itertools.count(1)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        for engine in self.engines:
            stats = engine.stats
            for field in ("solves", "lu_factorizations", "matvecs", "sampler_builds"):
                counts[f"engine.{field}"] = counts.get(f"engine.{field}", 0) + getattr(stats, field)
            counts["engine.cache_hits"] = counts.get("engine.cache_hits", 0) + stats.cache_hits
            computations = (stats.lu_factorizations + stats.prob01_computations
                            + stats.bscc_computations + stats.stationary_computations
                            + stats.long_run_computations + stats.sampler_builds)
            counts["engine.computations"] = counts.get("engine.computations", 0) + computations
        payload = {
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "argv": sys.argv[:3],
            "spans": self.spans,
            "counts": counts,
            "sweep_workers": self.sweep_workers,
            "fired": self.fired,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, default=repr)
        os.replace(tmp, path)


RECORDER = Recorder()


def _make_wrapper(fn, layer, name, hook, rid_fn):
    rec = RECORDER

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = _current.get()
        rid = rid_fn(args, kwargs) if rid_fn is not None else None
        sid = f"{os.getpid()}.{next(rec._ids)}"
        token = _current.set((sid, layer))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _current.reset(token)
            rec.spans.append([sid, parent[0] if parent else None, name,
                              layer, start, end, threading.get_ident(), rid])
            rec.fired[name] = rec.fired.get(name, 0) + 1
        if hook is not None:
            try:
                hook(rec, args, kwargs, result,
                     parent is not None and parent[1] == layer)
            except Exception:  # noqa: BLE001 - tracing never changes results
                rec.add("trace.hook_errors")
        return result

    traced.__perfbench_original__ = fn
    return traced


def _import_all(package: str) -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        importlib.import_module(info.name)


def _propagating_submit(original):
    @functools.wraps(original)
    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return submit


_INSTALLED: Dict[str, str] = {}


def install(out_dir: str) -> None:
    """Wrap every :data:`TARGETS` entry and flush spans at process exit."""
    if _INSTALLED:
        return
    _import_all("repro")
    importlib.import_module("scipy.sparse.linalg")
    for layer, target, hook, rid_fn, _ in TARGETS:
        module_name, qualname = target.split(":")
        module = sys.modules[module_name]
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
        wrapper = _make_wrapper(original, layer, name, hook, rid_fn)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        # Rebind every module-level alias of the function.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name.startswith("repro") or mod is module):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    # Thread-pool tasks inherit the submitting span as their parent.
    ThreadPoolExecutor.submit = _propagating_submit(ThreadPoolExecutor.submit)
    _INSTALLED["dir"] = out_dir
    os.makedirs(out_dir, exist_ok=True)
    atexit.register(flush)
    os.register_at_fork(after_in_child=_after_fork)
    import multiprocessing.util

    multiprocessing.util.register_after_fork(RECORDER, _pool_worker_started)


def flush() -> None:
    out_dir = _INSTALLED.get("dir")
    if out_dir:
        RECORDER.dump(os.path.join(out_dir, f"spans-{os.getpid()}.json"))


def _after_fork() -> None:
    RECORDER.reset()
    _current.set(None)


def _pool_worker_started(_recorder: Recorder) -> None:
    import multiprocessing.util

    # Pool workers leave through os._exit after running the exit
    # finalizers registered once the process has bootstrapped, never
    # through atexit.
    multiprocessing.util.Finalize(None, flush, exitpriority=100)


# -- aggregation -----------------------------------------------------------


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def load(out_dir: str) -> List[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def self_times(record: dict) -> Dict[str, float]:
    """Span id -> self time (duration minus the union of its children)."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for sid, parent, _name, _layer, start, end, _tid, _rid in record["spans"]:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, _layer, start, end, _tid, _rid in record["spans"]:
        out[sid] = (end - start) - _union_length(children.get(sid, []), start, end)
    return out


def layer_self(records: List[dict]) -> Dict[str, float]:
    """Layer -> self seconds summed over every process."""
    totals: Dict[str, float] = {}
    for record in records:
        selfs = self_times(record)
        for span in record["spans"]:
            totals[span[3]] = totals.get(span[3], 0.0) + selfs[span[0]]
    return totals


def _p50_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer(records: List[dict]) -> Dict[str, float]:
    """The per-layer metric values of one traced run (every process)."""
    counts: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    busy_wall = 0.0
    for record in records:
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for sid, _p, name, _layer, start, end, _tid, _rid in record["spans"]:
            durations.setdefault(name, []).append(end - start)
        sweep_spans = [s for s in record["spans"] if s[2] == "sweep.sweep_check"
                       and not _nested_in_layer(s, record, "sweep")]
        for span, workers in zip(sweep_spans, record["sweep_workers"]):
            busy_wall += (span[5] - span[4]) * workers
    selfs = layer_self(records)

    def dur(*names):
        return sum(sum(durations.get(n, [])) for n in names)

    def p50(*names):
        return _p50_ms([d for n in names for d in durations.get(n, [])])

    count = counts.get
    sweep_wall = dur("sweep.sweep_check")
    workers_mean = busy_wall / sweep_wall if sweep_wall else 0.0
    busy = count("sweep.busy_s", 0.0)
    gets = count("store.gets", 0)
    engine_events = count("engine.cache_hits", 0) + count("engine.computations", 0)
    spsolve_s = selfs.get("linalg", 0.0)
    samples_s = _self_by_name(records, "simulate.PathSampler.__init__")
    sample_s = _self_by_name(records, "bridge.BatchTrial.__call__")
    metrics = {
        "experiments.table1_s": dur("table1.run"),
        "experiments.table2_s": dur("table2.run"),
        "experiments.table5_s": dur("table5.run"),
        "experiments.other_s": dur("table3.run", "table4.run", "figure2.run"),
        "zoo.builds": count("zoo.builds", 0),
        "zoo.build_s": count("zoo.build_s", 0.0),
        "zoo.reduce_s": count("zoo.reduce_s", 0.0),
        "builder.self_s": selfs.get("builder", 0.0),
        "builder.states": count("builder.states", 0),
        "builder.transitions": count("builder.transitions", 0),
        "reductions.self_s": selfs.get("reductions", 0.0),
        "reductions.calls": count("reductions.calls", 0),
        "reductions.states_in": count("reductions.states_in", 0),
        "reductions.blocks_out": count("reductions.blocks_out", 0),
        "checker.checks": count("checker.checks", 0),
        "checker.self_s": selfs.get("checker", 0.0),
        "transient.self_s": selfs.get("transient", 0.0),
        "transient.matvecs": count("engine.matvecs", 0),
        "graph.self_s": selfs.get("graph", 0.0),
        "graph.calls": count("graph.calls", 0),
        "graph.nnz_scanned": count("graph.nnz_scanned", 0),
        "chain.restrict_s": selfs.get("chain", 0.0),
        "chain.restrict_calls": count("chain.restrict_calls", 0),
        "engine.solve_s": selfs.get("engine", 0.0),
        "engine.solves": count("engine.solves", 0),
        "engine.lu_factorizations": count("engine.lu_factorizations", 0),
        "engine.cache_hit_ratio": (count("engine.cache_hits", 0) / engine_events
                                   if engine_events else 0.0),
        "linalg.spsolve_s": spsolve_s,
        "linalg.spsolve_calls": count("linalg.spsolve_calls", 0),
        "linalg.nnz_in": count("linalg.nnz_in", 0),
        "linalg.bytes_in": count("linalg.bytes_in", 0),
        "smc.sampler_build_s": samples_s,
        "smc.sample_s": sample_s,
        "smc.samples": count("smc.samples", 0),
        "smc.samples_per_s": (count("smc.samples", 0) / sample_s if sample_s else 0.0),
        "validate.self_s": selfs.get("validate", 0.0),
        "validate.calls": count("validate.calls", 0),
        "validate.warnings": count("validate.warnings", 0),
        "sweep.points": count("sweep.points", 0),
        "sweep.busy_s": busy,
        "sweep.overhead_s": (sweep_wall - busy / workers_mean if workers_mean else 0.0),
        "sweep.busy_frac": busy / busy_wall if busy_wall else 0.0,
        "store.gets": gets,
        "store.get_ms_p50": p50("result_store.ResultStore.get"),
        "store.puts": len(durations.get("result_store.ResultStore.put", [])),
        "store.put_ms_p50": p50("result_store.ResultStore.put"),
        "store.hit_ratio": count("store.hits", 0) / gets if gets else 0.0,
        "frontend.requests": len(durations.get("frontend.Frontend.route", [])),
        "frontend.hits": count("frontend.hits", 0),
        "frontend.misses": count("frontend.misses", 0),
        "frontend.handle_ms_p50": p50("frontend.Frontend.route"),
        "frontend.shed_429": count("frontend.shed_429", 0),
        "frontend.unavailable_503": count("frontend.unavailable_503", 0),
        "queue.jobs": count("queue.jobs", 0),
        "queue.leases": count("queue.leases", 0),
        "queue.wait_ms_p50": 0.0,  # service workload: miss latency minus compute
        "wire.frames": count("wire.frames", 0),
        "wire.bytes": count("wire.bytes", 0),
        "wire.ms_p50": p50("wire.request"),
        "journal.writes": count("journal.writes", 0),
        "journal.write_ms_p50": p50(*[n for n in durations if n.startswith("journal.JobJournal.record_")]),
        "worker.compute_ms_p50": p50("worker.Worker._compute_shard"),
        "trace.overhead_frac": 0.0,  # set by the workload from its untraced pass
        "trace.hook_errors": count("trace.hook_errors", 0),
    }
    return metrics


def _nested_in_layer(span: list, record: dict, layer: str) -> bool:
    by_id = {s[0]: s for s in record["spans"]}
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[3] == layer:
            return True
        parent = by_id.get(parent[1])
    return False


def _self_by_name(records: List[dict], name: str) -> float:
    total = 0.0
    for record in records:
        selfs = self_times(record)
        total += sum(selfs[s[0]] for s in record["spans"] if s[2] == name)
    return total


def compute_ms_by_job(records: List[dict]) -> Dict[str, float]:
    """Worker compute milliseconds per coordinator job id."""
    out: Dict[str, float] = {}
    for record in records:
        for _sid, _p, name, _layer, start, end, _tid, rid in record["spans"]:
            if name == "worker.Worker._compute_shard" and rid is not None:
                out[rid] = out.get(rid, 0.0) + (end - start) * 1e3
    return out
