"""One fresh interpreter of the benchmark: import, report ready, run a job.

``python3 perfbench/child.py '<job json>'`` prints ``READY`` once the
program's modules are imported and the zoo registry is populated (the
end of set-up), runs the job, and prints its result as one JSON line.
The job kinds are ``ready`` (set-up only), ``paper``, ``longrun``,
``smc`` and ``prebank``.  The parent adds ``src`` to ``PYTHONPATH``;
in a traced run it also adds ``boot`` so ``sitecustomize`` installs the
span wrappers before this file runs.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import repro  # noqa: F401  (set-up: the package, its registry, its drivers)
from repro import zoo
from repro.engine import SmcConfig
from repro.experiments import figure2, table1, table2, table3, table4, table5
from repro.pctl.checker import ModelChecker

zoo.list_models()


def _root(kind: str):
    """The job, wrapped as the benchmark's root span in a traced run."""
    tracing = sys.modules.get("tracing")
    if tracing is None or not tracing._INSTALLED:
        return JOBS[kind]
    return tracing._make_wrapper(JOBS[kind], tracing.BENCH_LAYER,
                                 f"bench.{kind}", None, None)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def run_paper(job):
    values, latencies = {}, {}
    rows, latencies["table1"] = _timed(table1.run)
    for row in rows:
        values[f"table1.{row.name}.M"] = row.value_full
        values[f"table1.{row.name}.M_R"] = row.value_reduced
        values[f"table1.{row.name}.states_M"] = row.states_full
        values[f"table1.{row.name}.states_M_R"] = row.states_reduced
        values[f"table1.{row.name}.agree"] = float(row.values_agree)
    rows, latencies["table2"] = _timed(table2.run)
    for row in rows:
        values[f"table2.{row.system}.states_M"] = row.states_full
        values[f"table2.{row.system}.states_M_R"] = row.states_reduced
    result, latencies["table3"] = _timed(table3.run)
    for horizon, value in zip(result.horizons, result.values):
        values[f"table3.T{horizon}"] = value
    values["table3.steady"] = result.steady_state
    values["table3.RI"] = result.reachability_iterations
    result, latencies["table4"] = _timed(table4.run)
    for horizon, value in zip(result.horizons, result.values):
        values[f"table4.T{horizon}"] = value
    values["table4.steady"] = result.steady_state
    values["table4.states"] = result.states
    values["table4.RI"] = result.reachability_iterations
    result, latencies["table5"] = _timed(table5.run)
    for row in result.rows:
        for horizon, value in zip(row.horizons, row.values):
            values[f"table5.{row.system}.T{horizon}"] = value
        values[f"table5.{row.system}.states"] = row.states
    for label, sim in (("short", result.short_sim), ("long", result.long_sim)):
        values[f"table5.sim_{label}.errors"] = sim.errors
        values[f"table5.sim_{label}.trials"] = sim.trials
    result, latencies["figure2"] = _timed(figure2.run)
    for length, value, states in zip(result.lengths, result.values, result.states):
        values[f"figure2.L{length}"] = value
        values[f"figure2.L{length}.states"] = states
    return {"values": values, "latencies": latencies, "failed": 0}


def run_longrun(job):
    values, latencies = {}, {}
    for item in job["items"]:
        def guarantee():
            scenario = zoo.build(item["family"], item["params"], reduce=False)
            value = ModelChecker(scenario.chain).check("S=? [ flag ]").value
            return float(value), scenario.chain.num_states

        (value, states), latencies[item["name"]] = _timed(guarantee)
        values[item["name"]] = value
        values[f"{item['name']}.states"] = states
    return {"values": values, "latencies": latencies, "failed": 0}


def run_smc(job):
    smc = SmcConfig(epsilon=job["epsilon"], delta=job["delta"], seed=job["seed"])
    points, failed = [], 0
    for part in job["parts"]:
        results = zoo.sweep(
            part["family"], points=part["points"], formula=part["formula"],
            base_params=part.get("base"), backend="apmc", smc=smc,
            executor="process", max_workers=job["workers"],
        )
        for result in results:
            failed += result.error is not None
            points.append({
                "part": part["name"],
                "point": result.point,
                "estimate": None if result.value is None else result.value.estimate,
                "samples": None if result.value is None else result.value.samples,
                "seconds": result.seconds,
                "error": result.error,
            })
    return {"points": points, "failed": failed}


def run_prebank(job):
    from repro.store import ResultStore

    store = ResultStore(job["store"])
    values = []
    try:
        for group in job["groups"]:
            results = zoo.sweep(group["family"], points=group["points"],
                                executor="serial", store=store)
            values += [[group["family"], r.point, float(r.value)] for r in results]
    finally:
        store.close()
    return {"values": values, "failed": 0}


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


JOBS = {"paper": run_paper, "longrun": run_longrun, "smc": run_smc,
        "prebank": run_prebank, "ready": lambda job: {"failed": 0}}


def main() -> None:
    job = json.loads(sys.argv[1])
    print("READY", flush=True)
    cpu0 = _cpu_s()
    start = time.perf_counter()
    out = _root(job["kind"])(job)
    out["wall_s"] = time.perf_counter() - start
    out["cpu_s"] = _cpu_s() - cpu0
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
