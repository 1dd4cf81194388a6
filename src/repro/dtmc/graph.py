"""Graph-theoretic analysis of DTMCs.

Provides the structural facts the paper's methodology relies on:

* reachability from the initial states (PRISM's "reachability
  iterations" fixpoint, reported as *RI* in Tables III-V);
* strongly connected components and *bottom* SCCs (BSCCs), which carry
  all long-run probability mass;
* irreducibility and aperiodicity checks — the paper's steady-state
  argument ("all finite, irreducible, aperiodic DTMC models are
  guaranteed to reach a steady state") is implemented as an explicit
  check here.

The transition graph is the sparsity structure of the transition
matrix (every stored entry is an edge).  SCCs come from
``scipy.sparse.csgraph``; BSCCs, reachability and periods are
vectorized over the sparse index arrays, one BFS level at a time.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .chain import DTMC

__all__ = [
    "reachable_states",
    "reachability_iterations",
    "strongly_connected_components",
    "bottom_sccs",
    "is_irreducible",
    "period",
    "is_aperiodic",
    "backward_reachable",
    "constrained_backward_reachable",
]


def _bfs_levels(
    matrix: sparse.csr_matrix, seeds: Sequence[int], through: np.ndarray | None = None
) -> np.ndarray:
    """Breadth-first search along the rows of ``matrix`` from ``seeds``.

    Returns each state's BFS level (-1 where unreached): the seeds are
    level 0, and a state joins only if ``through`` allows it (the seeds
    themselves need not).  ``level >= 0`` is the reached set and
    ``level.max()`` the number of levels that found new states.
    """
    level = np.full(matrix.shape[0], -1, dtype=np.int64)
    frontier = np.unique(np.asarray(seeds, dtype=np.intp))
    level[frontier] = 0
    open_ = level < 0 if through is None else np.asarray(through, dtype=bool) & (level < 0)
    depth = 0
    while frontier.size:
        successors = matrix[frontier].indices
        frontier = np.unique(successors[open_[successors]])
        depth += 1
        level[frontier] = depth
        open_[frontier] = False
    return level


def _reached(level: np.ndarray) -> Set[int]:
    return set(np.flatnonzero(level >= 0).tolist())


def reachable_states(chain: DTMC, sources: Sequence[int] | None = None) -> Set[int]:
    """States reachable (in any number of steps) from ``sources``.

    ``sources`` defaults to the chain's initial states.
    """
    if sources is None:
        sources = chain.initial_states()
    return _reached(_bfs_levels(chain.transition_matrix, sources))


def reachability_iterations(chain: DTMC, sources: Sequence[int] | None = None) -> int:
    """Number of BFS levels until the reachable set stops growing.

    This is the *RI* fixpoint the paper reports: after ``RI``
    iterations of forward exploration no new states are discovered, and
    transient quantities computed at horizons well beyond RI are near
    their steady-state values.
    """
    if sources is None:
        sources = chain.initial_states()
    return int(_bfs_levels(chain.transition_matrix, sources).max(initial=0))


def backward_reachable(chain: DTMC, targets: Sequence[int]) -> Set[int]:
    """States from which some state in ``targets`` is reachable."""
    return _reached(_bfs_levels(chain.transition_matrix.T.tocsr(), targets))


def constrained_backward_reachable(
    chain: DTMC, targets: Sequence[int], through: np.ndarray
) -> Set[int]:
    """States that can reach ``targets`` moving only through ``through``
    states (the targets themselves need not satisfy ``through``).

    This is the graph kernel of the Prob0/Prob1 precomputations of
    pCTL model checking (Baier & Katoen, Algorithm 46).
    """
    return _reached(_bfs_levels(chain.transition_matrix.T.tocsr(), targets, through))


def strongly_connected_components(chain: DTMC) -> List[List[int]]:
    """Strongly connected components of the transition graph.

    Returns components in reverse topological order: every edge between
    distinct components points from a later component in the list to an
    earlier one.  Members of each component are sorted.
    """
    count, labels = csgraph.connected_components(
        chain.transition_matrix, directed=True, connection="strong"
    )
    members = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=count))[:-1]
    return [part.tolist() for part in np.split(members, bounds)] if count else []


def _component_labels(components: List[List[int]], n: int) -> np.ndarray:
    """Per-state index into ``components``."""
    labels = np.empty(n, dtype=np.int64)
    if components:
        labels[np.concatenate(components)] = np.repeat(
            np.arange(len(components)), [len(c) for c in components]
        )
    return labels


def bottom_sccs(chain: DTMC) -> List[List[int]]:
    """SCCs with no outgoing edges (the chain's recurrent classes)."""
    components = strongly_connected_components(chain)
    labels = _component_labels(components, chain.num_states)
    edges = chain.transition_matrix.tocoo()
    source, target = labels[edges.row], labels[edges.col]
    leaves = np.zeros(len(components), dtype=bool)
    leaves[source[source != target]] = True
    return [components[c] for c in np.flatnonzero(~leaves)]


def is_irreducible(chain: DTMC) -> bool:
    """True iff the whole state space is one strongly connected class."""
    components = strongly_connected_components(chain)
    return len(components) == 1


def period(chain: DTMC, state: int = 0) -> int:
    """Period of ``state``: gcd of the lengths of all cycles through its class.

    Computed with the standard BFS-level trick: within the SCC of
    ``state``, the gcd of ``level(u) + 1 - level(v)`` over all edges
    ``u -> v`` inside the class equals the period (0 for a single
    state without a self-loop).
    """
    components = strongly_connected_components(chain)
    labels = _component_labels(components, chain.num_states)
    home = labels == labels[state]
    level = _bfs_levels(chain.transition_matrix, [state], home)
    edges = chain.transition_matrix.tocoo()
    inside = home[edges.row] & home[edges.col]
    steps = level[edges.row[inside]] + 1 - level[edges.col[inside]]
    return int(np.gcd.reduce(np.abs(steps)))


def is_aperiodic(chain: DTMC) -> bool:
    """True iff every recurrent class of the chain has period 1."""
    for members in bottom_sccs(chain):
        if period(chain, members[0]) != 1:
            return False
    return True
