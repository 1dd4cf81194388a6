"""Unit + property tests for transient analysis (repro.dtmc.transient)."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtmc import (
    bounded_invariance,
    bounded_reachability,
    cumulative_reward,
    distribution_at,
    distribution_trajectory,
    expected_visits,
    instantaneous_reward,
)

from helpers import knuth_yao_die, random_dtmcs, two_state_chain


def dense_distribution(chain, t):
    """pi_0 P^t by dense matrix power: an independent reference for
    the sparse vector-matrix iteration of :func:`distribution_at`."""
    dense = chain.transition_matrix.toarray()
    return chain.initial_distribution @ np.linalg.matrix_power(dense, t)


def brute_force_reach(chain, target_label, t):
    """Enumerate all length-t paths to compute bounded reachability."""
    target = chain.label_vector(target_label)
    total = 0.0
    stack = [(i, p, target[i]) for i, p in enumerate(chain.initial_distribution) if p > 0]
    for _ in range(t + 1):
        next_stack = []
        for state, prob, hit in stack:
            if hit:
                total += prob
                continue
            for succ, q in chain.successors(state):
                next_stack.append((succ, prob * q, target[succ]))
        stack = next_stack
    # Paths that hit the target are counted once when first hitting it.
    return total


class TestDistribution:
    def test_t_zero_is_initial(self):
        chain = two_state_chain()
        assert np.allclose(distribution_at(chain, 0), chain.initial_distribution)

    def test_one_step_by_hand(self):
        chain = two_state_chain(p=0.25, q=0.75)
        assert distribution_at(chain, 1) == pytest.approx([0.75, 0.25])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            distribution_at(two_state_chain(), -1)

    def test_trajectory_matches_pointwise(self):
        chain = two_state_chain(p=0.4, q=0.2)
        trajectory = list(distribution_trajectory(chain, 5))
        for t, pi in enumerate(trajectory):
            assert np.allclose(pi, distribution_at(chain, t))

    def test_die_terminal_distribution(self):
        chain = knuth_yao_die()
        pi = distribution_at(chain, 200)
        for face in ["one", "two", "three", "four", "five", "six"]:
            (idx,) = chain.states_satisfying(face)
            assert pi[idx] == pytest.approx(1.0 / 6.0, abs=1e-9)


class TestRewards:
    def test_instantaneous_reward_by_hand(self):
        chain = two_state_chain(p=0.25, q=0.75)
        # E[hit at t=1] = P(in b at 1) = 0.25
        assert instantaneous_reward(chain, "hit", 1) == pytest.approx(0.25)

    def test_viterbi_p2_matches_dense_matrix_power(self):
        """The paper's P2 ``R=? [ I=30 ]`` on the reduced Viterbi model
        against a dense pi_0 P^30 reference."""
        from repro.pctl import check
        from repro.viterbi import ViterbiModelConfig, build_reduced_model

        config = ViterbiModelConfig(traceback_length=3, num_levels=3, pm_max=3)
        chain = build_reduced_model(config).chain
        dense = float(dense_distribution(chain, 30) @ chain.reward_vector("flag"))
        assert check(chain, "R=? [ I=30 ]").value == pytest.approx(dense, abs=1e-12)
        assert instantaneous_reward(chain, "flag", 30) == pytest.approx(
            dense, abs=1e-12
        )

    def test_cumulative_reward_sums_occupancy(self):
        chain = two_state_chain(p=0.5, q=0.5)
        # Steps 0..2: P(b at 0)=0, at 1=0.5, at 2=0.5 -> wait, C<=3 sums t=0,1,2
        expected = sum(
            float(distribution_at(chain, t)[1]) for t in range(3)
        )
        assert cumulative_reward(chain, "hit", 3) == pytest.approx(expected)

    def test_expected_visits(self):
        chain = two_state_chain(p=1.0, q=1.0)  # deterministic alternation
        visits = expected_visits(chain, 3)  # steps 0,1,2,3
        assert visits == pytest.approx([2.0, 2.0])


class TestBoundedOperators:
    def test_reachability_zero_steps(self):
        chain = two_state_chain()
        target = chain.label_vector("in_b")
        x = bounded_reachability(chain, target, 0)
        assert x.tolist() == [0.0, 1.0]

    def test_reachability_closed_form(self):
        chain = two_state_chain(p=0.25, q=0.0)
        target = chain.label_vector("in_b")
        # From a: P(reach b within t) = 1 - 0.75^t
        for t in range(5):
            x = bounded_reachability(chain, target, t)
            assert x[0] == pytest.approx(1 - 0.75**t)

    def test_reachability_matches_brute_force(self):
        chain = knuth_yao_die()
        for t in range(6):
            fast = float(
                bounded_reachability(chain, chain.label_vector("done"), t)
                @ chain.initial_distribution
            )
            slow = brute_force_reach(chain, "done", t)
            assert fast == pytest.approx(slow)

    def test_reachability_with_avoid(self):
        chain = knuth_yao_die()
        # Forbid the branch through s2: faces 4..6 unreachable.
        avoid = np.zeros(chain.num_states, dtype=bool)
        avoid[chain.states.index("s2")] = True
        x = bounded_reachability(
            chain, chain.label_vector("six"), 50, avoid=avoid
        )
        assert float(x @ chain.initial_distribution) == pytest.approx(0.0)

    def test_invariance_complements_reachability(self):
        chain = two_state_chain(p=0.3, q=0.1)
        safe = ~chain.label_vector("in_b")
        for t in range(4):
            g = bounded_invariance(chain, safe, t)
            f = bounded_reachability(chain, ~safe, t)
            assert np.allclose(g, 1.0 - f)

    def test_invariance_decreasing_in_t(self):
        chain = two_state_chain(p=0.3, q=0.1)
        safe = ~chain.label_vector("in_b")
        values = [
            float(bounded_invariance(chain, safe, t) @ chain.initial_distribution)
            for t in range(10)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@given(random_dtmcs(), st.integers(min_value=0, max_value=20))
@settings(max_examples=50)
def test_distribution_stays_stochastic(chain, t):
    pi = distribution_at(chain, t)
    assert pi.min() >= -1e-12
    assert pi.sum() == pytest.approx(1.0)
    assert np.allclose(pi, dense_distribution(chain, t), atol=1e-9)


@given(random_dtmcs(), st.integers(min_value=0, max_value=10))
@settings(max_examples=50)
def test_bounded_reachability_monotone_in_t(chain, t):
    target = chain.label_vector("mark")
    x_t = bounded_reachability(chain, target, t)
    x_t1 = bounded_reachability(chain, target, t + 1)
    assert np.all(x_t1 >= x_t - 1e-12)


@given(random_dtmcs(), st.integers(min_value=0, max_value=10))
@settings(max_examples=50)
def test_bounded_reachability_is_probability(chain, t):
    target = chain.label_vector("mark")
    x = bounded_reachability(chain, target, t)
    assert np.all(x >= -1e-12)
    assert np.all(x <= 1 + 1e-12)
