"""The repository benchmark: one command per workload, untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Workloads: ``paper``, ``longrun-full``, ``smc-sweep`` and
``service-mixed`` (see ``perfbench/README.md``).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  Gated timings are scaled to a
reference host speed (``common.HostSpeed``).  Every run checks the program's
outputs against ``perfbench/references.json``.  Human-readable lines
start with ``#``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status is 0 for a completed run (even an incorrect one), 2 when
the program or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from common import (  # noqa: E402
    ROOT, BenchError, HostSpeed, compare_values, load_references, point_key,
    run_child, within,
)

WORKLOADS = ("paper", "longrun-full", "smc-sweep", "service-mixed")

#: Fresh-process start-ups per run that ``setup_s`` is the median of.
SETUP_SAMPLES = 6

#: ``longrun-full``: ``S=? [ flag ]`` on two full (unreduced) models, in
#: this order, in one fresh process per pass.  Smaller members of the
#: families than the ROADMAP's 22k-state Viterbi and 2,592-state 1x2
#: detector, with the same layers doing the work: the sparse LU on the
#: first, graph SCCs and ``DTMC.restricted_to`` on the second.
LONGRUN = [
    {"name": "viterbi-m2", "family": "viterbi-memory-m",
     "params": {"taps": [1.0, 0.5, 0.5], "traceback_length": 4,
                "num_levels": 3, "pm_max": 4, "snr_db": 6.0}},
    {"name": "mimo-1x2", "family": "mimo-1xN",
     "params": {"num_rx": 2, "branch_cutoff": 1e-6}},
]

#: ``smc-sweep``: APMC over three grid parts on the local process pool.
SMC_EPSILON, SMC_DELTA, SMC_WORKERS = 0.01, 0.05, 2
SMC_PARTS = [
    {"name": "mimo", "family": "mimo-1xN", "formula": "P=? [ F<=10 flag ]",
     "points": [{"snr_db": s, "num_rx": r}
                for s in (4.0, 6.0, 8.0, 10.0, 12.0) for r in (2, 3)]},
    {"name": "viterbi-m1", "family": "viterbi-memory-m",
     "formula": "P=? [ F<=10 flag ]",
     "points": [{"snr_db": s, "traceback_length": t}
                for s in (6.0, 8.0, 10.0) for t in (3, 4)]},
    {"name": "viterbi-m2", "family": "viterbi-memory-m",
     "formula": "P=? [ F<=3 flag ]",
     "base": {"taps": [1.0, 0.5, 0.5], "num_levels": 3},
     "points": [{"snr_db": s, "traceback_length": 4} for s in (5.0, 7.0, 9.0)]},
]


# -- batch workloads -------------------------------------------------------


def _pass(result, attempted, failed, bad):
    """One pass's figures from a job's result."""
    return {"wall": result["wall_s"], "cpu": result["cpu_s"],
            "latencies": list(result["latencies"].values()),
            "attempted": attempted, "failed": failed, "bad": bad,
            "setup": result["setup_s"], "peak": result["peak_mb"]}


def _paper_pass(refs, trace_dir):
    result = run_child({"kind": "paper"}, trace_dir)
    bad = compare_values(result["values"], refs["paper"])
    bad += [n for n, v in result["values"].items() if n.endswith(".agree") and v != 1.0]
    return _pass(result, len(result["values"]), 0, bad)


def _longrun_pass(refs, trace_dir):
    result = run_child({"kind": "longrun", "items": LONGRUN}, trace_dir)
    return _pass(result, len(LONGRUN), 0, compare_values(result["values"], refs["longrun"]))


def _smc_pass(refs, trace_dir, seed):
    job = {"kind": "smc", "seed": seed, "epsilon": SMC_EPSILON,
           "delta": SMC_DELTA, "workers": SMC_WORKERS, "parts": SMC_PARTS}
    result = run_child(job, trace_dir)
    exact = refs["smc"]
    samples = refs["smc_samples"]
    bad = []
    for point in result["points"]:
        family = next(p["family"] for p in SMC_PARTS if p["name"] == point["part"])
        key = point["part"] + "|" + point_key(family, point["point"])
        if point["error"] is not None:
            continue
        if not within(point["estimate"], exact.get(key), SMC_EPSILON) \
                or point["samples"] != samples:
            bad.append(key)
    result["latencies"] = {i: p["seconds"] for i, p in enumerate(result["points"])}
    return _pass(result, len(result["points"]), result["failed"], bad)


#: Nominal seconds of one pass; a run makes ``round(seconds / nominal)``
#: passes (at least one), so the pass count is fixed for a given
#: ``--seconds`` and every run summarises the same number of samples.
NOMINAL_PASS_S = {"paper": 16.0, "longrun-full": 1.5, "smc-sweep": 3.0}


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              refs: Dict[str, Any], log) -> Dict[str, Any]:
    one_pass = {
        "paper": lambda t: _paper_pass(refs, t),
        "longrun-full": lambda t: _longrun_pass(refs, t),
        "smc-sweep": lambda t: _smc_pass(refs, t, seed),
    }[workload]
    count = 1 if trace else max(1, round(seconds / NOMINAL_PASS_S[workload]))
    speed = HostSpeed()
    passes = []
    for index in range(count):
        done = one_pass(None)
        speed.sample()
        passes.append(done)
        log(f"pass {index + 1}: wall {done['wall']:.3f} s, cpu {done['cpu']:.3f} s,"
            f" {done['attempted']} guarantees, {done['failed']} failed,"
            f" {len(done['bad'])} wrong, peak {done['peak']:.1f} MB")
    out: Dict[str, Any] = {"attempted": sum(p["attempted"] for p in passes),
                           "failed": sum(p["failed"] for p in passes),
                           "bad": [name for p in passes for name in p["bad"]]}
    if trace:
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as trace_dir:
            traced = one_pass(trace_dir)
            out["attempted"] += traced["attempted"]
            out["failed"] += traced["failed"]
            out["bad"] += traced["bad"]
            records = tracing.load(trace_dir)
        out["layers"] = tracing.per_layer(records)
        out["layers"]["trace.overhead_frac"] = traced["wall"] / passes[0]["wall"] - 1.0
        out["records"] = records
        return out
    setups = [p["setup"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child({"kind": "ready"})["setup_s"])
        speed.sample()
    wall_f, cpu_f = speed.factors()
    attempted, failed = out["attempted"], out["failed"]
    walls = [p["wall"] * wall_f for p in passes]
    lats = [p["latencies"] for p in passes]
    out["metrics"] = {
        "setup_s": (statistics.median(setups) * wall_f, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes) * cpu_f, "s"),
        "peak_rss_mb": (statistics.median(p["peak"] for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
        "goodput_rps": ((attempted - failed - len(out["bad"])) / count
                        / statistics.median(walls), "1/s"),
    }
    out["notes"] = {
        "passes": count, "setup_samples": len(setups),
        "guarantee_latency_samples": sum(map(len, lats)),
        "guarantee_p50_ms": round(statistics.median(map(statistics.median, lats)) * 1e3, 3),
        "slowest_guarantee_ms": round(statistics.median(map(max, lats)) * 1e3, 3),
        "fail_frac": failed / attempted,
        "raw_setup_s": round(statistics.median(setups), 4),
        "raw_wall_s": round(statistics.median(p["wall"] for p in passes), 4),
        "raw_cpu_s": round(statistics.median(p["cpu"] for p in passes), 4),
        "probe_wall_ms": [round(r[0] * 1e3, 2) for r in speed.readings],
    }
    return out


# -- command line ----------------------------------------------------------


def scratch_dir() -> str:
    path = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            with open(f"{base}/{index}/level") as level, \
                    open(f"{base}/{index}/size") as size, \
                    open(f"{base}/{index}/type") as kind:
                if kind.read().strip() != "Instruction":
                    sizes[f"L{level.read().strip()}"] = size.read().strip()
    except OSError:
        pass
    return ", ".join(f"{k} {v}" for k, v in sizes.items()) or "unknown"


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def header(args) -> List[str]:
    import numpy
    import scipy

    return [
        f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}"
        f"  trace: {args.trace}",
        f"nproc: {os.cpu_count()}  cpu: {_cpu_model()}  caches: {_llc()}",
        f"python {platform.python_version()}  numpy {numpy.__version__}"
        f"  scipy {scipy.__version__}  commit: {_commit()}",
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2

    def log(text: str) -> None:
        print(f"# {text}", flush=True)

    for line in header(args):
        log(line)
    refs = load_references()
    try:
        if args.workload == "service-mixed":
            import service_load

            out = service_load.run(args.seed, args.seconds, bool(args.trace),
                                   refs, log, scratch_dir())
        else:
            out = run_batch(args.workload, args.seed, args.seconds,
                            bool(args.trace), refs, log)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_tmp"), ignore_errors=True)

    for name in out["bad"][:20]:
        log(f"WRONG OUTPUT: {name}")
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing_unit(name)}
                   for name, value in out["layers"].items()}
        report_layers(out, log)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in out["metrics"].items()}
        for name, info in out.get("notes", {}).items():
            log(f"{name}: {info}")
    for name, metric in metrics.items():
        log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not out["bad"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


def tracing_unit(name: str) -> str:
    suffixes = (("_per_s", "1/s"), ("ms_p50", "ms"), ("_s", "s"),
                ("_frac", "1"), ("_ratio", "1"), ("bytes", "bytes"),
                ("bytes_in", "bytes"))
    return next((unit for suffix, unit in suffixes if name.endswith(suffix)), "count")


def report_layers(out: Dict[str, Any], log) -> None:
    """Layer shares of the traced pass (self time over all processes)."""
    selfs = tracing.layer_self(out["records"])
    total = sum(selfs.values())
    pids = len(out["records"])
    log(f"traced processes: {pids}; self time over all processes {total:.3f} s")
    for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        log(f"layer {layer:12s} self {seconds:9.3f} s  share {seconds / total:6.1%}")


if __name__ == "__main__":
    sys.exit(main())
