"""Shared test utilities: small reference chains, random-chain strategies,
and the per-state exploration loop that oracles the state-space builder."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from scipy import sparse

from repro.dtmc import DTMC, DTMCValidationError, ExplorationLimitError, dtmc_from_dict


def knuth_yao_die() -> DTMC:
    """Knuth-Yao simulation of a fair die with a fair coin.

    The canonical PRISM example: 13 states, terminal states labeled
    ``one`` .. ``six`` each reached with probability 1/6.
    """
    transitions = {
        "s0": {"s1": 0.5, "s2": 0.5},
        "s1": {"s3": 0.5, "s4": 0.5},
        "s2": {"s5": 0.5, "s6": 0.5},
        "s3": {"s1": 0.5, "d1": 0.5},
        "s4": {"d2": 0.5, "d3": 0.5},
        "s5": {"d4": 0.5, "d5": 0.5},
        "s6": {"s2": 0.5, "d6": 0.5},
    }
    labels = {
        "one": ["d1"],
        "two": ["d2"],
        "three": ["d3"],
        "four": ["d4"],
        "five": ["d5"],
        "six": ["d6"],
        "done": ["d1", "d2", "d3", "d4", "d5", "d6"],
    }
    return dtmc_from_dict(transitions, initial="s0", labels=labels)


def two_state_chain(p: float = 0.5, q: float = 0.3) -> DTMC:
    """Ergodic two-state chain: a -> b with prob p, b -> a with prob q."""
    return dtmc_from_dict(
        {"a": {"a": 1 - p, "b": p}, "b": {"a": q, "b": 1 - q}},
        initial="a",
        labels={"in_b": ["b"]},
        rewards={"hit": {"b": 1.0}},
    )


def gamblers_ruin(n: int = 5, p: float = 0.5) -> DTMC:
    """Gambler's ruin on {0..n} with win probability p, absorbing ends."""
    transitions = {}
    for i in range(1, n):
        transitions[i] = {i + 1: p, i - 1: 1 - p}
    transitions[0] = {0: 1.0}
    transitions[n] = {n: 1.0}
    return dtmc_from_dict(
        transitions,
        initial=n // 2,
        labels={"ruin": [0], "win": [n]},
    )


def random_stochastic_matrix(draw, max_states: int = 6):
    """Hypothesis helper drawing a random row-stochastic matrix."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    rows = []
    for _ in range(n):
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        weights = np.asarray(weights)
        rows.append(weights / weights.sum())
    return np.vstack(rows)


@st.composite
def random_dtmcs(draw, max_states: int = 6) -> DTMC:
    """Strategy producing small random ergodic-ish DTMCs with a label."""
    matrix = random_stochastic_matrix(draw, max_states)
    n = matrix.shape[0]
    labels = {"mark": np.array([i % 2 == 0 for i in range(n)])}
    rewards = {"unit": np.ones(n), "mark": labels["mark"].astype(float)}
    return DTMC(matrix, 0, labels=labels, rewards=rewards)


def reference_explore(transition_fn, initial, canonicalize=None,
                      branch_cutoff=0.0, max_states=None):
    """The builder's semantics as a plain per-state BFS, one Python branch
    at a time: returns ``(matrix, initial vector, states, bfs_levels,
    discarded)`` for :func:`repro.dtmc.build_dtmc` to match bit for bit."""
    def normalize(branches, cutoff):
        merged = {}
        for p, s in branches:
            p = float(p)
            if p < 0:
                raise DTMCValidationError(f"negative branch probability {p}")
            if p != 0.0:
                s = canonicalize(s) if canonicalize is not None else s
                merged[s] = merged.get(s, 0.0) + p
        kept = {s: p for s, p in merged.items() if p >= cutoff} if cutoff > 0 else merged
        total = sum(kept.values())
        if not kept or total <= 0.0:
            raise DTMCValidationError(
                "state has no outgoing probability mass after cutoff; "
                "lower branch_cutoff or fix the model")
        if cutoff == 0.0 and abs(total - 1.0) > 1e-9:
            raise DTMCValidationError(f"branch probabilities sum to {total}, expected 1.0")
        return [(p / total, s) for s, p in kept.items()], len(merged) - len(kept)

    index, states, triplets = {}, [], []

    def intern(state):
        if state not in index:
            if max_states is not None and len(states) >= max_states:
                raise ExplorationLimitError(f"exploration exceeded max_states={max_states}")
            index[state] = len(states)
            states.append(state)
        return index[state]

    is_distribution = isinstance(initial, list) and initial and all(
        isinstance(b, tuple) and len(b) == 2 and isinstance(b[0], (int, float))
        for b in initial)
    start, _ = normalize(initial if is_distribution else [(1.0, initial)], 0.0)
    start = [(p, intern(s)) for p, s in start]
    frontier, levels, discarded = [i for _, i in start], 0, 0
    while frontier:
        found = len(states)
        for row in frontier:
            branches, cut = normalize(list(transition_fn(states[row])), branch_cutoff)
            discarded += cut
            triplets += [(row, intern(s), p) for p, s in branches]
        frontier = list(range(found, len(states)))
        levels += bool(frontier)
    n = len(states)
    rows, cols, vals = zip(*triplets)
    matrix = sparse.csr_matrix((list(vals), (list(rows), list(cols))), shape=(n, n))
    matrix.sum_duplicates()
    init = np.zeros(n)
    for p, i in start:
        init[i] += p
    return matrix, init, states, levels, discarded
