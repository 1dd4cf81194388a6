"""State-space exploration: compile a probabilistic next-state function
into an explicit :class:`~repro.dtmc.chain.DTMC`.

This is the bridge between RTL-style models (the Viterbi decoder and
MIMO detector modules, or guarded-command programs from
:mod:`repro.prog`) and the model-checking engine.

**One core.**  :func:`_explore` is the only breadth-first search.  It
expands a whole BFS level at a time over int64 *state codes*.  Per
level it merges duplicate successors within a row (first-occurrence
order, sums taken in branch order), applies ``branch_cutoff``,
renormalizes every row, interns the new codes in discovery order, and
appends the level's transitions.

**Two ways a model feeds it.**  :func:`build_dtmc` accepts either

* a *transition function* mapping a hashable state to ``(probability,
  successor)`` pairs.  A thin adapter calls it (and ``canonicalize``)
  once per frontier state and numbers the successor objects through
  one dict; or
* a :class:`PackedModel` whose states already are int64 codes.  Its
  ``step`` maps a code array ``codes[n]`` to ``(probs[n, k],
  succ[n, k])``, probability 0 meaning "no branch"; its labels and
  rewards are functions of a code array; its ``decode`` produces the
  state objects.  The Viterbi models of :mod:`repro.viterbi` are built
  this way.

**Bit-identity contract.**  Either way the result is the one a
per-state loop gives: states in BFS discovery order, the same CSR
``indptr``/``indices``/``data`` bit for bit (a row's total is the
builtin ``sum()`` of its merged branches, Neumaier-compensated from
Python 3.12 on), the same ``bfs_levels`` and ``discarded_branches``,
and the :class:`~repro.dtmc.chain.DTMCValidationError` or
:class:`ExplorationLimitError` of the first offending row.  So a packed
model builds exactly what the transition function it vectorizes
builds; ``tests/test_viterbi_packed.py`` checks this for the Viterbi
models, and ``tests/test_dtmc_builder.py`` checks the core against the
per-state reference loop in ``tests/helpers.py``.

Two scalability features mirror the paper's tooling:

* ``canonicalize`` — a hook mapping each discovered state to a
  canonical representative *before* interning.  Supplying the orbit
  representative of a symmetry group performs **on-the-fly symmetry
  reduction** (Section IV-B / Table II): the quotient chain is built
  directly and the full model never materializes.
* ``branch_cutoff`` — branches with probability below the cutoff are
  discarded and the remaining branch probabilities renormalized, which
  is how PRISM's 1e-15 pruning kept the paper's 1x4 detector model
  tractable (Table II).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from scipy import sparse

from .chain import DTMC, DTMCValidationError

__all__ = [
    "ExplorationLimitError",
    "ExplorationResult",
    "PackedModel",
    "build_dtmc",
    "build_iid_dtmc",
]

State = Hashable
Branch = Tuple[float, State]
TransitionFn = Callable[[State], Sequence[Branch]]
#: ``expand(codes) -> (rows, probs, succ)``: the branches of a BFS
#: level, flat and row-major (``rows`` indexes ``codes``).
Expand = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]

#: Probability mass lost to merging/cutoff must stay within this bound
#: of a renormalizable row.
PROBABILITY_TOLERANCE = 1e-9

#: The builtin ``sum()`` of floats is Neumaier-compensated from 3.12 on.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


class ExplorationLimitError(RuntimeError):
    """Raised when exploration exceeds ``max_states``."""


@dataclass
class ExplorationResult:
    """Outcome of :func:`build_dtmc`.

    Attributes
    ----------
    chain:
        The constructed DTMC (row-stochastic, validated).
    states:
        State objects in index order (also stored on ``chain.states``).
    index:
        Mapping from state object to its index.
    bfs_levels:
        Number of BFS levels needed to exhaust the reachable set; this
        equals the paper's *reachability iterations* (RI) figure.
    discarded_branches:
        Count of probability branches dropped by ``branch_cutoff``.
    """

    chain: DTMC
    states: List[State]
    index: Dict[State, int]
    bfs_levels: int
    discarded_branches: int = 0

    @property
    def num_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class PackedModel:
    """A model over int64 state codes, expanded a BFS level at a time.

    Pass it to :func:`build_dtmc` in place of a transition function;
    ``initial`` is then a code (or ``(probability, code)`` pairs) and
    ``labels`` / ``rewards`` map names to functions of a code array.

    Attributes
    ----------
    step:
        ``codes[n] -> (probs[n, k], succ[n, k])``: each state's ``k``
        branch slots in branch order, probability 0 meaning "no
        branch".  Equal successor codes in a row are merged like equal
        successor states.
    decode:
        ``codes[n] -> list`` of the state objects, for
        :attr:`ExplorationResult.states`.
    """

    step: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    decode: Callable[[np.ndarray], List[State]]


def _row_sums(
    rows: np.ndarray,
    values: np.ndarray,
    num_rows: int,
    compensated: bool = _COMPENSATED_SUM,
) -> np.ndarray:
    """Per-row builtin ``sum()`` of ``values`` in entry order, bit for bit.

    ``rows`` is non-decreasing.  Before Python 3.12 that is a plain
    left-to-right sum; from 3.12 on (``compensated``) it is Neumaier's
    compensated sum, replayed one within-row position at a time.
    """
    total = np.zeros(num_rows)
    if not compensated:
        np.add.at(total, rows, values)
        return total
    compensation = np.zeros(num_rows)
    position = np.arange(len(rows)) - np.searchsorted(rows, rows)
    for k in range(int(position.max(initial=-1)) + 1):
        at = position == k
        row, x = rows[at], values[at]
        f = total[row]
        t = f + x
        compensation[row] += np.where(
            np.abs(f) >= np.abs(x), (f - t) + x, (x - t) + f
        )
        total[row] = t
    fix = (compensation != 0) & np.isfinite(compensation)
    total[fix] += compensation[fix]
    return total


def _normalize(
    rows: np.ndarray,
    probs: np.ndarray,
    succ: np.ndarray,
    num_rows: int,
    branch_cutoff: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, Optional[Tuple[int, str]]]:
    """Merge, cut and renormalize the rows of one level.

    Returns the kept ``(rows, succ, probs)``, row-major with each row's
    successors in first-occurrence order; the number of branches cut;
    and ``(row, message)`` for the first invalid row, or ``None``.
    """
    negative = probs < 0
    negative_rows, negative_probs = rows[negative], probs[negative]
    live = probs != 0
    rows, probs, succ = rows[live], probs[live], succ[live]
    count = len(rows)
    # Group equal (row, successor) pairs.  The sort is stable, so each
    # group's first sorted entry is its first occurrence.
    order = np.lexsort((succ, rows))
    sorted_rows, sorted_succ = rows[order], succ[order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (
        sorted_succ[1:] != sorted_succ[:-1]
    )
    is_first = np.zeros(count, dtype=bool)
    is_first[order[starts]] = True
    # Number the groups in first-occurrence (row-major) order and sum
    # each group's probabilities in branch order.
    rank = np.cumsum(is_first) - 1
    group = np.empty(count, dtype=np.int64)
    group[order] = rank[order[starts]][np.cumsum(starts) - 1]
    merged = np.zeros(int(np.count_nonzero(starts)))
    np.add.at(merged, group, probs)
    first = np.flatnonzero(is_first)
    rows, succ = rows[first], succ[first]

    discarded = 0
    if branch_cutoff > 0.0:
        kept = merged >= branch_cutoff
        discarded = len(merged) - int(np.count_nonzero(kept))
        rows, succ, merged = rows[kept], succ[kept], merged[kept]

    total = _row_sums(rows, merged, num_rows)
    empty = (np.bincount(rows, minlength=num_rows) == 0) | (total <= 0.0)
    unbalanced = (branch_cutoff == 0.0) & (
        np.abs(total - 1.0) > PROBABILITY_TOLERANCE
    )
    bad = np.flatnonzero(empty | unbalanced)
    error = None
    if len(negative_rows) and (not len(bad) or negative_rows[0] <= bad[0]):
        error = (
            int(negative_rows[0]),
            f"negative branch probability {float(negative_probs[0])}",
        )
    elif len(bad) and empty[bad[0]]:
        error = (
            int(bad[0]),
            "state has no outgoing probability mass after cutoff; "
            "lower branch_cutoff or fix the model",
        )
    elif len(bad):
        error = (
            int(bad[0]),
            f"branch probabilities sum to {float(total[bad[0]])}, expected 1.0",
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        return rows, succ, merged / total[rows], discarded, error


def _explore(
    expand: Expand,
    initial_probs: np.ndarray,
    initial_codes: np.ndarray,
    branch_cutoff: float,
    max_states: Optional[int],
) -> Tuple[np.ndarray, sparse.csr_matrix, np.ndarray, int, int]:
    """The breadth-first search, one whole level per iteration.

    Returns the codes in state order, the transition matrix, the
    initial distribution, the BFS depth and the number of branches cut.
    """
    known = np.empty(0, dtype=np.int64)  # sorted codes seen so far
    known_ids = np.empty(0, dtype=np.int64)
    levels: List[np.ndarray] = []  # codes in state order, one per level

    def assign_ids(rows, succ, error):
        """State ids of ``succ``; new codes numbered in discovery order."""
        nonlocal known, known_ids
        base = len(known)
        ids = np.full(len(succ), -1, dtype=np.int64)
        if base:
            slot = np.minimum(np.searchsorted(known, succ), base - 1)
            hit = known[slot] == succ
            ids[hit] = known_ids[slot[hit]]
        unknown = np.flatnonzero(ids < 0)
        new, first, inverse = np.unique(
            succ[unknown], return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(new), dtype=np.int64)
        rank[order] = np.arange(len(new))
        # A validation error wins over the state limit unless the limit
        # is hit in an earlier row (the row is checked before interning).
        if max_states is not None and base + len(new) > max_states:
            limit_row = rows[unknown[first[order[max_states - base]]]]
            if error is None or limit_row < error[0]:
                raise ExplorationLimitError(
                    f"exploration exceeded max_states={max_states}"
                )
        if error is not None:
            raise DTMCValidationError(error[1])
        ids[unknown] = base + rank[inverse]
        slot = np.searchsorted(known, new)
        known = np.insert(known, slot, new)
        known_ids = np.insert(known_ids, slot, base + rank)
        levels.append(new[order])
        return ids

    rows, succ, probs, _, error = _normalize(
        np.zeros(len(initial_codes), dtype=np.int64),
        initial_probs,
        initial_codes,
        1,
        0.0,
    )
    initial_ids = assign_ids(rows, succ, error)
    initial_weights = probs

    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    discarded_total = 0
    bfs_levels = 0
    first_id = 0  # frontier states are the ids first_id .. first_id+len-1
    frontier = levels[-1]
    while len(frontier):
        rows, probs, succ = expand(frontier)
        rows, succ, probs, discarded, error = _normalize(
            rows, probs, succ, len(frontier), branch_cutoff
        )
        discarded_total += discarded
        parts.append((first_id + rows, assign_ids(rows, succ, error), probs))
        first_id += len(frontier)
        frontier = levels[-1]
        bfs_levels += len(frontier) > 0

    codes = np.concatenate(levels)
    n = len(codes)
    initial = np.zeros(n)
    initial[initial_ids] = initial_weights
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    matrix.sum_duplicates()
    return codes, matrix, initial, bfs_levels, discarded_total


def _initial_branches(initial) -> Sequence[Branch]:
    """A plain list of (probability, state) pairs is an initial
    distribution; anything else (including tuple-like state objects such
    as namedtuples) is a single initial state."""
    if (
        isinstance(initial, list)
        and initial
        and all(
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], (int, float))
            for item in initial
        )
    ):
        return initial
    return [(1.0, initial)]


def _state_vectors(labels, rewards, evaluate):
    """Label and reward vectors; ``evaluate(fn, dtype)`` runs one
    function over every state."""
    return (
        {name: evaluate(fn, bool) for name, fn in (labels or {}).items()},
        {name: evaluate(fn, float) for name, fn in (rewards or {}).items()},
    )


def _on_states(states: List[State]):
    """Evaluate per-state functions, one state at a time."""

    def evaluate(fn, dtype):
        return np.fromiter(
            (dtype(fn(s)) for s in states), dtype=dtype, count=len(states)
        )

    return evaluate


def _on_codes(codes: np.ndarray):
    """Evaluate functions of a code array on all codes at once."""
    return lambda fn, dtype: np.asarray(fn(codes), dtype=dtype)


def build_dtmc(
    transition_fn: Union[TransitionFn, PackedModel],
    initial: State | Sequence[Branch],
    labels: Optional[Mapping[str, Callable[[State], bool]]] = None,
    rewards: Optional[Mapping[str, Callable[[State], float]]] = None,
    canonicalize: Optional[Callable[[State], State]] = None,
    branch_cutoff: float = 0.0,
    max_states: Optional[int] = None,
    keep_states: bool = True,
) -> ExplorationResult:
    """Explore the reachable state space of a probabilistic model.

    Parameters
    ----------
    transition_fn:
        Maps a state to its successor distribution as ``(probability,
        next_state)`` pairs.  Probabilities of one state's branches
        must sum to 1 (up to merging of equal successors); with a
        positive ``branch_cutoff`` the row is renormalized instead.
        A :class:`PackedModel` may be given instead; ``initial``,
        ``labels`` and ``rewards`` then speak of state codes.
    initial:
        Either a single initial state or a distribution given as
        ``(probability, state)`` pairs.
    labels / rewards:
        Predicates / real-valued functions evaluated on every reachable
        state to produce the chain's atomic propositions and reward
        structures (the paper's ``flag`` label-and-reward, e.g.).
    canonicalize:
        Orbit-representative function for on-the-fly symmetry
        reduction.  Must satisfy ``canonicalize(canonicalize(s)) ==
        canonicalize(s)`` and be compatible with the dynamics (the
        model's distribution must be invariant across an orbit); the
        soundness checkers in :mod:`repro.core.reductions` can verify
        this on the built chain.  Not available for a packed model.
    branch_cutoff:
        Discard branches below this probability and renormalize
        (PRISM-style pruning).
    max_states:
        Abort with :class:`ExplorationLimitError` when exceeded —
        protects against accidentally exploring an unreduced model.
    keep_states:
        Keep state objects on the chain (needed for pCTL expressions
        over state variables and for reduction diagnostics).
    """
    pairs = _initial_branches(initial)
    if isinstance(transition_fn, PackedModel):
        if canonicalize is not None:
            raise ValueError("a PackedModel canonicalizes inside its step")
        model = transition_fn

        def expand(codes):
            probs, succ = model.step(codes)
            rows = np.repeat(np.arange(len(codes)), probs.shape[1])
            return rows, probs.ravel(), succ.ravel().astype(np.int64)

        codes, matrix, initial_vec, bfs_levels, discarded = _explore(
            expand,
            np.array([float(p) for p, _ in pairs], dtype=np.float64),
            np.array([code for _, code in pairs], dtype=np.int64),
            branch_cutoff,
            max_states,
        )
        states = model.decode(codes)
        evaluate = _on_codes(codes)
    else:
        objects: List[State] = []
        code_of: Dict[State, int] = {}

        def encode(state: State) -> int:
            if canonicalize is not None:
                state = canonicalize(state)
            code = code_of.get(state)
            if code is None:
                code = code_of[state] = len(objects)
                objects.append(state)
            return code

        def encode_row(branches) -> Tuple[List[float], List[int]]:
            """Probabilities and successor codes of one state's branches
            (zero-probability successors are not canonicalized)."""
            probs = [float(p) for p, _ in branches]
            succ = [encode(s) if p != 0 else 0 for p, (_, s) in zip(probs, branches)]
            return probs, succ

        def expand(codes):
            rows: List[int] = []
            probs: List[float] = []
            succ: List[int] = []
            for row, code in enumerate(codes.tolist()):
                row_probs, row_succ = encode_row(list(transition_fn(objects[code])))
                rows += [row] * len(row_probs)
                probs += row_probs
                succ += row_succ
            return (
                np.array(rows, dtype=np.int64),
                np.array(probs, dtype=np.float64),
                np.array(succ, dtype=np.int64),
            )

        initial_probs, initial_succ = encode_row(pairs)
        codes, matrix, initial_vec, bfs_levels, discarded = _explore(
            expand,
            np.array(initial_probs, dtype=np.float64),
            np.array(initial_succ, dtype=np.int64),
            branch_cutoff,
            max_states,
        )
        states = [objects[code] for code in codes.tolist()]
        evaluate = _on_states(states)

    label_vectors, reward_vectors = _state_vectors(labels, rewards, evaluate)
    chain = DTMC(
        matrix,
        initial_vec,
        labels=label_vectors,
        rewards=reward_vectors,
        states=states if keep_states else None,
    )
    return ExplorationResult(
        chain=chain,
        states=states,
        index={state: i for i, state in enumerate(states)},
        bfs_levels=bfs_levels,
        discarded_branches=discarded,
    )


def build_iid_dtmc(
    step_distribution: Sequence[Branch],
    initial: State,
    labels: Optional[Mapping[str, Callable[[State], bool]]] = None,
    rewards: Optional[Mapping[str, Callable[[State], float]]] = None,
    branch_cutoff: float = 0.0,
) -> ExplorationResult:
    """Build the chain of an i.i.d. per-step system (memoryless redraw).

    Some RTL blocks — the paper's MIMO detector among them — redraw all
    their probabilistic inputs every clock cycle, so *every* state has
    the same successor distribution.  Exploring such a chain with
    :func:`build_dtmc` would materialize ``n`` identical dense rows one
    Python branch at a time; this constructor instead tiles the single
    row, which is orders of magnitude faster and is the explicit-state
    analogue of the factored (MTBDD) representation PRISM exploits.

    ``step_distribution`` is the common one-step outcome distribution;
    ``initial`` is the cold-start state (prepended if it is not in the
    support).  Labels/rewards are evaluated on every state as usual.
    """
    merged: Dict[State, float] = {}
    for probability, state in step_distribution:
        probability = float(probability)
        if probability < 0:
            raise DTMCValidationError(f"negative probability {probability}")
        if probability > 0:
            merged[state] = merged.get(state, 0.0) + probability
    discarded = 0
    if branch_cutoff > 0.0:
        kept = {s: p for s, p in merged.items() if p >= branch_cutoff}
        discarded = len(merged) - len(kept)
        merged = kept
    total = sum(merged.values())
    if not merged:
        raise DTMCValidationError("step distribution is empty after cutoff")
    if branch_cutoff == 0.0 and abs(total - 1.0) > PROBABILITY_TOLERANCE:
        raise DTMCValidationError(
            f"step distribution sums to {total}, expected 1.0"
        )

    support = sorted(merged)
    states: List[State] = ([initial] if initial not in merged else []) + support
    index = {state: i for i, state in enumerate(states)}
    n = len(states)
    k = len(support)

    columns = np.fromiter(
        (index[state] for state in support), dtype=np.int64, count=k
    )
    row_data = np.fromiter(
        (merged[state] / total for state in support), dtype=np.float64, count=k
    )
    indptr = np.arange(0, (n + 1) * k, k, dtype=np.int64)
    matrix = sparse.csr_matrix(
        (np.tile(row_data, n), np.tile(columns, n), indptr), shape=(n, n)
    )

    init_vec = np.zeros(n)
    init_vec[index[initial]] = 1.0

    label_vectors, reward_vectors = _state_vectors(
        labels, rewards, _on_states(states)
    )
    chain = DTMC(
        matrix,
        init_vec,
        labels=label_vectors,
        rewards=reward_vectors,
        states=states,
    )
    return ExplorationResult(
        chain=chain,
        states=states,
        index=index,
        bfs_levels=1 if initial not in merged else 0,
        discarded_branches=discarded,
    )
