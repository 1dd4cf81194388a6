"""Micro-benchmarks of the verification engine itself.

Not a paper table: these measure the substrate operations the
experiment drivers are built from (state-space exploration, transient
solve, steady state, lumping), so regressions in
the engine show up independently of the case studies.
"""

import numpy as np
import pytest

from repro.core.reductions import lump
from repro.dtmc import (
    distribution_at,
    stationary_distribution,
)
from repro.engine import Engine
from repro.pctl import ModelChecker, check
from repro.viterbi import ViterbiModelConfig, build_reduced_model


@pytest.fixture(scope="module")
def viterbi_chain():
    chain = build_reduced_model(ViterbiModelConfig()).chain
    # A non-trivial `zone` subset so until properties need a real solve.
    chain.add_label("zone", np.nonzero(np.arange(chain.num_states) % 3 != 0)[0])
    return chain


def test_bench_state_space_exploration(benchmark):
    config = ViterbiModelConfig(traceback_length=5)
    result = benchmark(lambda: build_reduced_model(config))
    assert result.num_states > 500


def test_bench_transient_distribution(benchmark, viterbi_chain):
    pi = benchmark(lambda: distribution_at(viterbi_chain, 300))
    assert pi.sum() == pytest.approx(1.0)


def test_bench_bounded_property(benchmark, viterbi_chain):
    value = benchmark(
        lambda: check(viterbi_chain, "P=? [ G<=300 !flag ]").value
    )
    assert 0 <= value <= 1


def test_bench_steady_state(benchmark, viterbi_chain):
    pi = benchmark(lambda: stationary_distribution(viterbi_chain))
    assert pi.sum() == pytest.approx(1.0)


def test_bench_lumping(benchmark, viterbi_chain):
    result = benchmark.pedantic(
        lambda: lump(viterbi_chain, respect=["flag"]), rounds=1, iterations=1
    )
    assert result.num_blocks <= viterbi_chain.num_states


# ----------------------------------------------------------------------
# Solver-engine layer: batched checking and factorization reuse.
#
# The property set deliberately overlaps in target sets: F flag appears
# as both a probability and a reward query (shared Prob0/Prob1 and
# factorizations), and the two long-run queries share the BSCC +
# stationary structure.  Batched checking pays for each once; the
# seed-shaped sequential path pays per property.
# ----------------------------------------------------------------------

ENGINE_PROPERTIES = [
    "P=? [ G<=100 !flag ]",   # P1-shaped, transient
    "R=? [ I=100 ]",          # P2-shaped, transient
    "P=? [ F flag ]",         # reachability
    "R=? [ F flag ]",         # reachability reward (same target set)
    "S=? [ flag ]",           # long-run probability
    "R=? [ S ]",              # long-run reward (same structure)
    "P=? [ zone U flag ]",    # constrained until, second subsystem
]


def test_bench_check_many_batched(benchmark, viterbi_chain):
    """All properties through one checker: caches shared in the batch."""

    def batched():
        checker = ModelChecker(viterbi_chain)
        return [r.value for r in checker.check_many(ENGINE_PROPERTIES)]

    values = benchmark(batched)
    assert len(values) == len(ENGINE_PROPERTIES)


def test_bench_check_sequential_seed_path(benchmark, viterbi_chain):
    """The seed's pattern: a fresh checker (fresh engine) per property."""

    def sequential():
        return [check(viterbi_chain, prop).value for prop in ENGINE_PROPERTIES]

    values = benchmark(sequential)
    assert len(values) == len(ENGINE_PROPERTIES)


@pytest.fixture(scope="module")
def reward_subsystem(viterbi_chain):
    """The R=?[F flag] solve subsystem: non-target states and the flag
    reward restricted to them."""
    target = viterbi_chain.label_vector("flag")
    solve_states = np.nonzero(~target)[0]
    rhs = viterbi_chain.reward_vector("flag")[solve_states]
    return solve_states, rhs


def test_bench_lu_solve_cold(benchmark, viterbi_chain, reward_subsystem):
    """Factorize + solve from scratch (a fresh engine every time)."""
    solve_states, rhs = reward_subsystem

    def cold():
        return Engine("lu").solve_subsystem(viterbi_chain, solve_states, rhs)

    solution = benchmark(cold)
    assert np.isfinite(solution).all()


def test_bench_lu_solve_warm(benchmark, viterbi_chain, reward_subsystem):
    """Back-substitution against the cached LU factorization."""
    solve_states, rhs = reward_subsystem
    engine = Engine("lu")
    engine.solve_subsystem(viterbi_chain, solve_states, rhs)  # pre-warm

    solution = benchmark(
        lambda: engine.solve_subsystem(viterbi_chain, solve_states, rhs)
    )
    assert np.isfinite(solution).all()
    assert engine.stats.lu_factorizations == 1
