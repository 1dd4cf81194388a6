"""Unit tests for graph analyses (repro.dtmc.graph)."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dtmc import (
    DTMC,
    backward_reachable,
    bottom_sccs,
    constrained_backward_reachable,
    dtmc_from_dict,
    is_aperiodic,
    is_irreducible,
    period,
    reachability_iterations,
    reachable_states,
    strongly_connected_components,
)

from helpers import gamblers_ruin, knuth_yao_die, two_state_chain


def chain_line(n: int) -> DTMC:
    """0 -> 1 -> ... -> n-1 (absorbing)."""
    transitions = {i: {i + 1: 1.0} for i in range(n - 1)}
    transitions[n - 1] = {n - 1: 1.0}
    return dtmc_from_dict(transitions, initial=0)


class TestReachability:
    def test_reachable_from_initial(self):
        chain = knuth_yao_die()
        assert len(reachable_states(chain)) == chain.num_states

    def test_reachable_from_custom_source(self):
        chain = chain_line(4)
        assert reachable_states(chain, sources=[2]) == {2, 3}

    def test_backward_reachable(self):
        chain = chain_line(4)
        assert backward_reachable(chain, [3]) == {0, 1, 2, 3}
        assert backward_reachable(chain, [0]) == {0}

    def test_reachability_iterations_line(self):
        # A line of n states needs n-1 BFS levels to saturate.
        chain = chain_line(7)
        assert reachability_iterations(chain) == 6

    def test_reachability_iterations_absorbing_start(self):
        chain = dtmc_from_dict({"a": {"a": 1.0}}, initial="a")
        assert reachability_iterations(chain) == 0


class TestSCC:
    def test_two_state_single_scc(self):
        chain = two_state_chain()
        components = strongly_connected_components(chain)
        assert len(components) == 1
        assert sorted(components[0]) == [0, 1]

    def test_die_sccs(self):
        chain = knuth_yao_die()
        components = strongly_connected_components(chain)
        sizes = sorted(len(c) for c in components)
        # {s1,s3} and {s2,s6} are 2-cycles; everything else is trivial.
        assert sizes == [1] * 9 + [2, 2]

    def test_scc_reverse_topological_order(self):
        chain = chain_line(5)
        components = strongly_connected_components(chain)
        order = [c[0] for c in components]
        # Sinks first: state 4 must appear before state 0.
        assert order.index(4) < order.index(0)

    def test_bottom_sccs_gamblers_ruin(self):
        chain = gamblers_ruin(5)
        bottoms = bottom_sccs(chain)
        members = sorted(tuple(b) for b in bottoms)
        ruin = chain.states_satisfying("ruin")[0]
        win = chain.states_satisfying("win")[0]
        assert members == sorted([(ruin,), (win,)])

    def test_irreducible(self):
        assert is_irreducible(two_state_chain())
        assert not is_irreducible(gamblers_ruin())


class TestPeriodicity:
    def test_two_cycle_has_period_2(self):
        chain = dtmc_from_dict(
            {"a": {"b": 1.0}, "b": {"a": 1.0}}, initial="a"
        )
        assert period(chain, 0) == 2
        assert not is_aperiodic(chain)

    def test_self_loop_is_aperiodic(self):
        chain = two_state_chain()
        assert period(chain, 0) == 1
        assert is_aperiodic(chain)

    def test_three_cycle_period(self):
        chain = dtmc_from_dict(
            {"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"a": 1.0}}, initial="a"
        )
        assert period(chain, 0) == 3

    def test_mixed_cycles_gcd(self):
        # Cycles of length 2 and 3 through state a -> period 1.
        chain = dtmc_from_dict(
            {
                "a": {"b": 0.5, "c": 0.5},
                "b": {"a": 1.0},
                "c": {"d": 1.0},
                "d": {"a": 1.0},
            },
            initial="a",
        )
        assert period(chain, 0) == 1
        assert is_aperiodic(chain)

    def test_absorbing_states_aperiodic(self):
        assert is_aperiodic(gamblers_ruin())


# -- differential check against a brute-force transitive closure ----------


@st.composite
def sparse_reducible_dtmcs(draw, max_states: int = 8) -> DTMC:
    """Small sparse digraphs: 1-3 successors per state (self-loops
    allowed), some states absorbing, several initial states."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    states = st.integers(min_value=0, max_value=n - 1)
    matrix = np.zeros((n, n))
    for i in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            matrix[i, i] = 1.0
            continue
        succ = draw(st.lists(states, min_size=1, max_size=3, unique=True))
        weights = draw(
            st.lists(st.integers(1, 4), min_size=len(succ), max_size=len(succ))
        )
        matrix[i, succ] = np.asarray(weights) / sum(weights)
    initial = draw(st.lists(states, min_size=1, max_size=n, unique=True))
    init = np.zeros(n)
    init[initial] = 1.0 / len(initial)
    return DTMC(matrix, init)


def closure(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure (Floyd-Warshall on booleans)."""
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    for k in range(len(adjacency)):
        reach |= reach[:, [k]] & reach[[k], :]
    return reach


def adjacency_of(chain: DTMC) -> np.ndarray:
    return chain.transition_matrix.toarray() > 0


@given(sparse_reducible_dtmcs())
def test_sccs_and_bsccs_match_closure(chain):
    reach = closure(adjacency_of(chain))
    mutual = reach & reach.T
    components = strongly_connected_components(chain)
    expected = {frozenset(np.flatnonzero(row).tolist()) for row in mutual}
    assert {frozenset(c) for c in components} == expected
    assert sorted(s for c in components for s in c) == list(range(chain.num_states))
    # Reverse topological order: edges between classes point backwards.
    position = {s: k for k, c in enumerate(components) for s in c}
    for u, v in zip(*np.nonzero(adjacency_of(chain))):
        assert position[u] >= position[v]
    bottoms = {
        frozenset(c) for c in expected
        if all(set(np.flatnonzero(reach[s]).tolist()) <= c for s in c)
    }
    assert {frozenset(b) for b in bottom_sccs(chain)} == bottoms
    assert all(b == sorted(b) for b in bottom_sccs(chain))
    assert is_irreducible(chain) == (len(expected) == 1)


@given(sparse_reducible_dtmcs(), st.data())
def test_reachability_matches_closure(chain, data):
    n = chain.num_states
    adjacency = adjacency_of(chain)
    reach = closure(adjacency)
    subset = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    sources = data.draw(subset)
    assert reachable_states(chain) == set(
        np.flatnonzero(reach[chain.initial_states()].any(axis=0)).tolist()
    )
    assert reachable_states(chain, sources) == set(
        np.flatnonzero(reach[sources].any(axis=0)).tolist()
    )
    assert backward_reachable(chain, sources) == set(
        np.flatnonzero(reach[:, sources].any(axis=1)).tolist()
    )
    through = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    constrained = closure(adjacency & through[:, None])
    expected = set(sources) | set(
        np.flatnonzero(through & constrained[:, sources].any(axis=1)).tolist()
    )
    assert constrained_backward_reachable(chain, sources, through) == expected
    # RI: steps of (I | A) until the reached set stops growing.
    seen = np.zeros(n, dtype=bool)
    seen[sources] = True
    steps = 0
    while True:
        grown = seen | adjacency[seen].any(axis=0)
        if (grown == seen).all():
            break
        seen, steps = grown, steps + 1
    assert reachability_iterations(chain, sources) == steps


@given(sparse_reducible_dtmcs())
def test_period_matches_closed_walks(chain):
    n = chain.num_states
    adjacency = adjacency_of(chain).astype(np.int64)
    walks, returns = np.eye(n, dtype=np.int64), [0] * n
    for length in range(1, 4 * n + 1):
        walks = np.minimum(walks @ adjacency, 1)
        for s in np.flatnonzero(np.diag(walks)):
            returns[s] = gcd(returns[s], length)
    for s in range(n):
        assert period(chain, s) == returns[s]
    assert is_aperiodic(chain) == all(returns[b[0]] == 1 for b in bottom_sccs(chain))


@given(sparse_reducible_dtmcs(), st.data())
def test_restricted_to_conserves_mass(chain, data):
    n = chain.num_states
    keep = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    sub = chain.restricted_to(keep)
    dense, matrix = chain.transition_matrix.toarray(), sub.transition_matrix.toarray()
    dropped = np.setdiff1d(np.arange(n), keep)
    assert np.allclose(matrix.sum(axis=1), 1.0)
    assert np.array_equal(matrix[:-1, :-1], dense[np.ix_(keep, keep)])
    assert np.allclose(matrix[:-1, -1], dense[np.ix_(keep, dropped)].sum(axis=1))
    assert matrix[-1].tolist() == [0.0] * len(keep) + [1.0]
    assert sub.initial_distribution.sum() == pytest.approx(1.0)
    assert sub.initial_distribution[-1] == pytest.approx(
        chain.initial_distribution[dropped].sum()
    )
