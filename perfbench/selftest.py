"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it makes two traced runs with the same seed and checks:

* every wrapper in ``tracing.TARGETS`` fires on each workload its entry
  names;
* in every job process, the self times of all spans sum to within
  ``SUM_TOLERANCE`` of the benchmark's root span (the traced wall), so
  no span is counted twice or lost;
* spans arrive from the child processes: the process-pool workers of
  ``smc-sweep`` and the ``serve`` process and its worker in
  ``service-mixed``;
* the count metrics in ``EXACT_COUNTS`` repeat exactly between the runs,
  and the service's counts keep their invariants;
* no count hook raised.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import service_load  # noqa: E402
import tracing  # noqa: E402
from common import load_references  # noqa: E402

SUM_TOLERANCE = 0.03
SECONDS = 8.0

_BATCH_COUNTS = (
    "zoo.builds", "builder.states", "builder.transitions", "reductions.calls",
    "reductions.states_in", "reductions.blocks_out", "checker.checks",
    "transient.matvecs", "graph.calls", "graph.nnz_scanned",
    "chain.restrict_calls", "engine.solves", "engine.lu_factorizations",
    "linalg.spsolve_calls", "linalg.nnz_in", "linalg.bytes_in",
    "smc.samples", "validate.calls", "validate.warnings", "sweep.points",
)
#: Counts that must repeat exactly for a given seed.  The service's
#: frames, front-end request total and client polls follow the worker's
#: heartbeats and how long each miss waits, so they are left out; its
#: store, front-end, queue and journal counts follow the schedule alone
#: and are held to invariants between them as well.
EXACT_COUNTS = {
    "paper": _BATCH_COUNTS,
    "longrun-full": _BATCH_COUNTS,
    "smc-sweep": _BATCH_COUNTS,
    "service-mixed": (
        "zoo.builds", "reductions.calls", "reductions.states_in",
        "reductions.blocks_out", "checker.checks", "transient.matvecs",
        "store.gets", "store.puts", "frontend.hits", "frontend.misses",
        "queue.jobs", "queue.leases", "journal.writes",
    ),
}


def service_invariants(layers: dict) -> list:
    """Every job is leased and banked once, with three journal writes."""
    jobs = layers["queue.jobs"]
    expected = {"queue.leases": jobs, "store.puts": jobs,
                "zoo.builds": jobs, "journal.writes": 3 * jobs}
    return [f"{name} = {layers[name]}, expected {value}"
            for name, value in expected.items() if layers[name] != value]


def traced(workload: str, seed: int) -> dict:
    refs = load_references()
    lines: list = []
    if workload == "service-mixed":
        out = service_load.run(seed, SECONDS, True, refs, lines.append, run.scratch_dir())
    else:
        out = run.run_batch(workload, seed, SECONDS, True, refs, lines.append)
    out["errors"] = [line for line in lines if "failed with" in line or "stderr" in line]
    return out


def check(workload: str, seed: int) -> list:
    problems = []
    first, second = traced(workload, seed), traced(workload, seed)
    for out in (first, second):
        if out["bad"]:
            problems.append(f"wrong outputs: {out['bad'][:3]}")
    records = first["records"]

    fired = {}
    for record in records:
        for name, calls in record["fired"].items():
            fired[name] = fired.get(name, 0) + calls
    for layer, target, _hook, _rid, workloads in tracing.TARGETS:
        module_name, qualname = target.split(":")
        name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
        if workload in workloads and not fired.get(name):
            problems.append(f"wrapper {name} ({layer}) never fired")

    for record in records:
        roots = [s for s in record["spans"] if s[3] == tracing.BENCH_LAYER]
        if not roots:
            continue
        wall = sum(s[5] - s[4] for s in roots)
        total = sum(tracing.self_times(record).values())
        if abs(total - wall) > SUM_TOLERANCE * wall:
            problems.append(f"pid {record['pid']}: self times sum to {total:.3f} s,"
                            f" traced wall {wall:.3f} s")

    job_pids = {r["pid"] for r in records
                if any(s[3] == tracing.BENCH_LAYER for s in r["spans"])}
    if workload == "smc-sweep":
        pool = [r for r in records if r["ppid"] in job_pids and r["spans"]]
        if not pool:
            problems.append("no spans from process-pool workers")
    if workload == "service-mixed":
        for role in ("serve", "worker"):
            if not any(role in r["argv"] and r["spans"] for r in records):
                problems.append(f"no spans from the {role} process")

    failed = first["failed"] + second["failed"]
    if failed:
        problems.append(f"{failed} guarantees or requests failed, so counts cannot repeat")
        problems += first["errors"] + second["errors"]
    for name in EXACT_COUNTS[workload] if not failed else ():
        a, b = first["layers"][name], second["layers"][name]
        if a != b:
            problems.append(f"count {name} differs between runs: {a} != {b}")
    if workload == "service-mixed":
        for out in (first, second):
            problems += service_invariants(out["layers"])
    for out in (first, second):
        if out["layers"]["trace.hook_errors"]:
            problems.append(f"{out['layers']['trace.hook_errors']} count hooks raised")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-test of the benchmark's tracing.")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failed = False
    try:
        for workload in args.workload or run.WORKLOADS:
            problems = check(workload, args.seed)
            failed |= bool(problems)
            print(f"{workload}: {'FAIL' if problems else 'PASS'}", flush=True)
            for problem in problems:
                print(f"  {problem}", flush=True)
    finally:
        shutil.rmtree(run.scratch_dir(), ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
