"""Regenerate ``perfbench/references.json`` from the program's exact paths.

    python3 perfbench/make_refs.py

The paper and long-run values are the experiment drivers' outputs and
the exact ``S=? [ flag ]`` checks; the smc-sweep references are exact
(``backend="exact"``) values of every APMC grid point plus the Hoeffding
sample count; the service references are exact values of every key the
service workload can request.  Run it only when a change is meant to
alter a guarantee, and say so in the change.
"""

from __future__ import annotations

import json
import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import child  # noqa: E402
import run  # noqa: E402
import service_load  # noqa: E402
from common import point_key  # noqa: E402
from repro import zoo  # noqa: E402
from repro.smc.hoeffding import hoeffding_sample_size  # noqa: E402


def exact(family, points, formula=None, base=None):
    results = zoo.sweep(family, points=points, formula=formula,
                        base_params=base, executor="serial", validate=False)
    for result in results:
        if result.error is not None:
            raise RuntimeError(f"{family} {result.point}: {result.error}")
    return [(result.point, float(result.value)) for result in results]


def main() -> None:
    refs = {"paper": child.run_paper({})["values"],
            "longrun": child.run_longrun({"items": run.LONGRUN})["values"]}
    refs["smc"] = {
        part["name"] + "|" + point_key(part["family"], point): value
        for part in run.SMC_PARTS
        for point, value in exact(part["family"], part["points"],
                                  part["formula"], part.get("base"))
    }
    samples = hoeffding_sample_size(run.SMC_EPSILON, run.SMC_DELTA)
    # Independent restatement of the Hoeffding bound n >= ln(2/d) / (2 e^2).
    assert samples == math.ceil(math.log(2 / run.SMC_DELTA) / (2 * run.SMC_EPSILON ** 2))
    refs["smc_samples"] = samples
    refs["service"] = {}
    groups = service_load.HIT_GROUPS + [
        {"family": "birth-death", "points": service_load.miss_space()}]
    for group in groups:
        for point, value in exact(group["family"], group["points"]):
            refs["service"][point_key(group["family"], point)] = value
    with open(os.path.join(BENCH, "references.json"), "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
