"""Benchmark: regenerate Table I (Viterbi error properties P1/P2/P3).

Runs the full experiment driver at the quick scale and asserts the
paper's shape claims: substantial reduction factor, exact agreement
between M and M_R, and P1 ~ 0 << P2 << P3 ~ 1 at 5 dB.  A ratio gate
pins the packed-code build of the Table-1 P3 model against its scalar
specification.
"""

import time

import numpy as np

from repro.dtmc import build_dtmc
from repro.experiments import table1
from repro.viterbi import ViterbiKernel, ViterbiModelConfig
from repro.viterbi.dtmc_model import (
    ViterbiErrcntState,
    _initial_full_state,
    error_count_transition,
    packed_full_model,
)

QUICK = ViterbiModelConfig(traceback_length=4, num_levels=5)


def run_table1():
    return table1.run(QUICK, horizon=300)


def test_bench_table1(benchmark):
    rows = benchmark.pedantic(run_table1, rounds=1, iterations=1)

    by_name = {row.name: row for row in rows}
    assert set(by_name) == {"P1", "P2", "P3"}

    # Reduction shrinks every model substantially.
    for row in rows:
        assert row.states_reduced < row.states_full
        assert row.states_full / row.states_reduced > 2

    # Soundness: M and M_R agree exactly on every property.
    assert all(row.values_agree for row in rows)

    # Table I value shape at 5 dB.
    assert by_name["P1"].value_reduced < 1e-3
    assert 1e-3 < by_name["P2"].value_reduced < 0.5
    assert by_name["P3"].value_reduced > 0.99
    assert (
        by_name["P1"].value_reduced
        < by_name["P2"].value_reduced
        < by_name["P3"].value_reduced
    )


def test_packed_build_ratio_table1_p3():
    """The Table-1 P3 model M (L=6, 5 levels, 142,984 states) built from
    packed codes and from the scalar transition function, through the
    same BFS core: identical chains, and the packed build >= 4x faster.
    Measured ~12x (0.85 s vs 10.5 s on a 2-core Xeon container)."""
    config = ViterbiModelConfig(traceback_length=6, num_levels=5)
    kernel = ViterbiKernel(config)

    start = time.perf_counter()
    packed = packed_full_model(kernel, error_count=True)
    packed_s = time.perf_counter() - start

    start = time.perf_counter()
    scalar = build_dtmc(
        error_count_transition(kernel),
        ViterbiErrcntState(*_initial_full_state(kernel), 0),
        labels={"flag": lambda s: bool(s.flag), "overflow": lambda s: s.errcnt > 1},
        rewards={"flag": lambda s: float(s.flag)},
    )
    scalar_s = time.perf_counter() - start

    assert packed.num_states == scalar.num_states == 142_984
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(
            getattr(packed.chain.transition_matrix, part),
            getattr(scalar.chain.transition_matrix, part),
        )
    for name in ("flag", "overflow"):
        assert np.array_equal(packed.chain.label_vector(name), scalar.chain.label_vector(name))
    assert packed.states == scalar.states
    assert packed.bfs_levels == scalar.bfs_levels
    assert scalar_s / packed_s >= 4.0, f"packed {packed_s:.2f} s vs scalar {scalar_s:.2f} s"
