"""Unit tests for the state-space builder (repro.dtmc.builder)."""

import functools
import math
import sys

import numpy as np
import pytest
from helpers import reference_explore
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtmc import (
    DTMCValidationError,
    ExplorationLimitError,
    build_dtmc,
    distribution_at,
    reachability_iterations,
)
from repro.dtmc import builder


def random_walk(state):
    """Bounded random walk on 0..4 with reflecting ends."""
    lo, hi = 0, 4
    if state == lo:
        return [(1.0, state + 1)]
    if state == hi:
        return [(1.0, state - 1)]
    return [(0.5, state - 1), (0.5, state + 1)]


def coin_pair(state):
    """Two independent coins re-flipped each step (order irrelevant)."""
    return [
        (0.25, (0, 0)),
        (0.25, (0, 1)),
        (0.25, (1, 0)),
        (0.25, (1, 1)),
    ]


class TestBasicExploration:
    def test_explores_reachable_states(self):
        result = build_dtmc(random_walk, initial=2)
        assert result.num_states == 5
        assert set(result.states) == {0, 1, 2, 3, 4}

    def test_chain_is_valid(self):
        result = build_dtmc(random_walk, initial=2)
        sums = np.asarray(result.chain.transition_matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_initial_distribution(self):
        result = build_dtmc(random_walk, initial=[(0.5, 0), (0.5, 4)])
        init = result.chain.initial_distribution
        assert init[result.index[0]] == pytest.approx(0.5)
        assert init[result.index[4]] == pytest.approx(0.5)

    def test_labels_and_rewards_evaluated(self):
        result = build_dtmc(
            random_walk,
            initial=2,
            labels={"edge": lambda s: s in (0, 4)},
            rewards={"pos": lambda s: float(s)},
        )
        chain = result.chain
        edge_states = {result.states[i] for i in chain.states_satisfying("edge")}
        assert edge_states == {0, 4}
        assert chain.reward_vector("pos")[result.index[3]] == 3.0

    def test_bfs_levels_equal_reachability_iterations(self):
        result = build_dtmc(random_walk, initial=2)
        assert result.bfs_levels == reachability_iterations(result.chain)

    def test_duplicate_successors_merged(self):
        def fn(state):
            return [(0.5, "x"), (0.25, "x"), (0.25, "y")]

        result = build_dtmc(fn, initial="x")
        i, j = result.index["x"], result.index["y"]
        assert result.chain.transition_probability(i, i) == pytest.approx(0.75)
        assert result.chain.transition_probability(i, j) == pytest.approx(0.25)


class TestValidation:
    def test_rejects_nonstochastic_branches(self):
        def fn(state):
            return [(0.5, 0)]

        with pytest.raises(DTMCValidationError, match="sum"):
            build_dtmc(fn, initial=0)

    def test_rejects_negative_probability(self):
        def fn(state):
            return [(1.5, 0), (-0.5, 1)]

        with pytest.raises(DTMCValidationError, match="negative"):
            build_dtmc(fn, initial=0)

    def test_max_states_enforced(self):
        def counter(state):
            return [(1.0, state + 1)]

        with pytest.raises(ExplorationLimitError):
            build_dtmc(counter, initial=0, max_states=100)


class TestCanonicalize:
    def test_symmetry_quotient(self):
        """Sorting the coin pair folds (0,1) and (1,0) into one state."""
        full = build_dtmc(coin_pair, initial=(0, 0))
        reduced = build_dtmc(
            coin_pair,
            initial=(0, 0),
            canonicalize=lambda s: tuple(sorted(s)),
        )
        assert full.num_states == 4
        assert reduced.num_states == 3
        mixed = reduced.index[(0, 1)]
        row = dict(reduced.chain.successors(mixed))
        assert row[mixed] == pytest.approx(0.5)

    def test_quotient_preserves_transient_probability(self):
        full = build_dtmc(
            coin_pair,
            initial=(0, 0),
            labels={"both_heads": lambda s: s == (1, 1)},
        )
        reduced = build_dtmc(
            coin_pair,
            initial=(0, 0),
            canonicalize=lambda s: tuple(sorted(s)),
            labels={"both_heads": lambda s: s == (1, 1)},
        )
        for t in range(4):
            p_full = float(
                distribution_at(full.chain, t) @ full.chain.label_vector("both_heads")
            )
            p_red = float(
                distribution_at(reduced.chain, t)
                @ reduced.chain.label_vector("both_heads")
            )
            assert p_full == pytest.approx(p_red)


class TestBranchCutoff:
    def test_cutoff_drops_rare_branch_and_renormalizes(self):
        def fn(state):
            if state == "start":
                return [(1e-20, "rare"), (1.0 - 1e-20, "common")]
            return [(1.0, state)]

        result = build_dtmc(fn, initial="start", branch_cutoff=1e-15)
        assert "rare" not in result.index
        assert result.discarded_branches == 1
        i = result.index["start"]
        j = result.index["common"]
        assert result.chain.transition_probability(i, j) == pytest.approx(1.0)

    def test_zero_cutoff_keeps_everything(self):
        def fn(state):
            return [(1e-20, "rare"), (1.0 - 1e-20, "common")] if state == "s" else [(1.0, state)]

        result = build_dtmc(fn, initial="s")
        assert "rare" in result.index
        assert result.discarded_branches == 0

    def test_cutoff_cannot_empty_a_row(self):
        def fn(state):
            return [(1e-20, "a"), (1e-20, "b")]

        with pytest.raises(DTMCValidationError, match="cutoff"):
            build_dtmc(fn, initial="x", branch_cutoff=1e-15)


@st.composite
def random_models(draw):
    """A small random transition table with duplicate successors,
    zero-probability and tiny branches, and now and then a negative or
    non-stochastic row, plus the builder options to explore it with."""
    n = draw(st.integers(min_value=1, max_value=7))
    weights = st.sampled_from([0.0, 1e-20, 0.1, 0.25, 0.5, 1.0, 3.0])
    table = {}
    for state in range(n):
        k = draw(st.integers(min_value=1, max_value=6))
        raw = draw(st.lists(weights, min_size=k, max_size=k))
        succ = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        total = sum(raw)
        probs = [w / total for w in raw] if total else raw
        flaw = draw(st.sampled_from(["none"] * 8 + ["negative", "half"]))
        if flaw == "negative":
            probs[-1] = -probs[-1] or -0.5
        elif flaw == "half":
            probs = [p / 2 for p in probs]
        table[state] = list(zip(probs, succ))
    if draw(st.booleans()):
        initial = draw(st.integers(0, n - 1))
    else:
        initial = [(0.5, draw(st.integers(0, n - 1))), (0.5, draw(st.integers(0, n - 1)))]
    options = {
        "canonicalize": draw(st.sampled_from([None, lambda s: s - s % 2])),
        "branch_cutoff": draw(st.sampled_from([0.0, 1e-15, 0.2])),
        "max_states": draw(st.sampled_from([None, 1, 3, 5])),
    }
    return table, initial, options


def _outcome(build):
    try:
        return build()
    except (DTMCValidationError, ExplorationLimitError) as error:
        return type(error), str(error)


class TestCoreMatchesReferenceLoop:
    """The level-at-a-time core against the per-state loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(random_models())
    def test_bit_identical_to_reference(self, model):
        table, initial, options = model
        labels = {"odd": lambda s: s % 2 == 1}
        rewards = {"value": lambda s: float(s)}
        got = _outcome(lambda: build_dtmc(
            table.__getitem__, initial, labels=labels, rewards=rewards, **options))
        want = _outcome(lambda: reference_explore(table.__getitem__, initial, **options))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        matrix, init, states, levels, discarded = want
        chain = got.chain
        for part in ("indptr", "indices", "data"):
            ours, theirs = getattr(chain.transition_matrix, part), getattr(matrix, part)
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        assert np.array_equal(chain.initial_distribution, init)
        assert got.states == states
        assert got.index == {s: i for i, s in enumerate(states)}
        assert (got.bfs_levels, got.discarded_branches) == (levels, discarded)
        assert np.array_equal(chain.label_vector("odd"), [s % 2 == 1 for s in states])
        assert np.array_equal(chain.reward_vector("value"), np.array(states, dtype=float))

    def test_errors_raise_in_row_order(self):
        """A bad row and the state limit: whichever row comes first wins."""
        def limit_first(state):
            return [(1.0, 2)] if state == 0 else [(0.5, 3)]

        def bad_first(state):
            return [(0.5, 3)] if state == 0 else [(1.0, 2)]

        start = [(0.5, 0), (0.5, 1)]
        with pytest.raises(ExplorationLimitError):
            build_dtmc(limit_first, initial=start, max_states=2)
        with pytest.raises(DTMCValidationError, match="sum"):
            build_dtmc(limit_first, initial=start, max_states=3)
        with pytest.raises(DTMCValidationError, match="sum"):
            build_dtmc(bad_first, initial=start, max_states=2)


def _neumaier_sum(values):
    """CPython's float ``sum()`` from 3.12 on (Neumaier compensation)."""
    total, compensation = 0.0, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


class TestRowSums:
    """Row totals replay the builtin ``sum()`` of the running Python."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6),
                    min_size=1, max_size=5))
    @pytest.mark.parametrize("compensated", [False, True])
    def test_matches_sequential_and_compensated_sum(self, compensated, table):
        rows = np.repeat(np.arange(len(table)), [len(row) for row in table])
        values = np.concatenate([np.array(row, dtype=float) for row in table])
        totals = builder._row_sums(rows, values, len(table), compensated)
        reference = _neumaier_sum if compensated else lambda row: functools.reduce(
            lambda a, b: a + b, row, 0.0)
        assert totals.tolist() == [reference(row) for row in table]
        if compensated == (sys.version_info >= (3, 12)):
            assert totals.tolist() == [sum(row) for row in table]
