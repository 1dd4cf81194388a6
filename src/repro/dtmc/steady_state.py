"""Steady-state (long-run) analysis of DTMCs.

The paper interprets BER as the steady-state expectation of the
``flag`` reward ("in steady state, BER can be interpreted as the
probability of a bit error occurring at any time step").  This module
computes:

* the stationary distribution of an irreducible chain (direct sparse
  linear solve, with a power-iteration fallback);
* the general long-run distribution of an arbitrary finite chain via
  BSCC decomposition + absorption probabilities;
* long-run average rewards (used to cross-check ``R=?[I=T]`` at large
  ``T``).

Every entry point accepts an optional :class:`repro.engine.Engine`;
with one, results are memoized per chain, the inner linear solves run
on the engine's configured backend, and factorizations are shared with
any other property checked through the same engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from .chain import DTMC
from .graph import bottom_sccs, is_aperiodic, is_irreducible
from .linear import ITERATIVE_METHODS as _ITERATIVE_METHODS
from .linear import SolverError

__all__ = [
    "ReducibleChainError",
    "stationary_distribution",
    "long_run_distribution",
    "long_run_reward",
    "absorption_probabilities",
    "power_iteration",
    "assert_ergodic",
]

class ReducibleChainError(ValueError):
    """A unique stationary distribution was requested of a chain that is
    not irreducible."""


def power_iteration(
    chain: DTMC,
    tolerance: float = 1e-12,
    max_iterations: int = 200_000,
    initial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Iterate ``pi <- pi P`` until the L1 change drops below ``tolerance``.

    Converges for aperiodic chains; used both as a solver fallback and
    to mimic PRISM's iterative steady-state computation.  Raises
    :class:`repro.dtmc.SolverError` (a ``RuntimeError``) when the
    iteration cap is exceeded.
    """
    pi = np.array(
        chain.initial_distribution if initial is None else initial, dtype=np.float64
    )
    matrix = chain.transition_matrix
    for _ in range(max_iterations):
        nxt = pi @ matrix
        if np.abs(nxt - pi).sum() < tolerance:
            return nxt
        pi = nxt
    raise SolverError(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def _stationary_fallback(chain: DTMC, cause: Optional[BaseException]) -> np.ndarray:
    """Power-iteration rescue for a failed direct solve.

    Only legitimate on an *irreducible* chain: on a reducible one the
    direct system is genuinely singular, power iteration from the
    initial distribution converges (if at all) to something that
    depends on the start state, and silently returning it would be a
    wrong answer dressed up as a stationary distribution.
    """
    if not is_irreducible(chain):
        raise ReducibleChainError(
            "direct stationary solve failed because the chain is not"
            " irreducible: it has no unique stationary distribution."
            " Use long_run_distribution() for the initial-state-dependent"
            " long-run behaviour."
        ) from cause
    return power_iteration(chain)


def _stationary_impl(
    chain: DTMC,
    *,
    assume_irreducible: bool = False,
    method: str = "direct",
    tolerance: float = 1e-12,
    max_iterations: int = 200_000,
) -> np.ndarray:
    """Shared stationary-distribution kernel (direct or iterative).

    ``assume_irreducible`` skips the upfront SCC decomposition; callers that
    know the chain is strongly connected (BSCC sub-chains) use it to
    avoid re-deriving the SCC structure.  Failures of the direct solve
    still re-verify irreducibility before falling back, so a reducible
    chain raises :class:`ReducibleChainError` instead of quietly
    returning a start-state-dependent power-iteration result.
    """
    if not assume_irreducible and not is_irreducible(chain):
        raise ReducibleChainError(
            "chain is not irreducible; use long_run_distribution() instead"
        )
    n = chain.num_states
    if n == 1:
        return np.ones(1)
    if method in _ITERATIVE_METHODS:
        # Damped (lazy-chain) fixpoint: pi <- pi (I + P)/2 has the same
        # stationary distribution but is aperiodic for every chain, so
        # it converges even on periodic irreducible chains where plain
        # power iteration oscillates forever.  A uniform start keeps
        # the limit independent of the chain's initial distribution.
        matrix = chain.transition_matrix
        pi = np.full(n, 1.0 / n)
        for _ in range(max_iterations):
            nxt = 0.5 * (pi + pi @ matrix)
            if np.abs(nxt - pi).sum() < tolerance:
                return nxt
            pi = nxt
        raise SolverError(
            f"damped power iteration did not converge within"
            f" {max_iterations} iterations"
        )
    # Transpose system: (P^T - I) pi^T = 0, replace last equation by 1^T pi = 1.
    a = (chain.transition_matrix.T - sparse.identity(n, format="csr")).tolil()
    a[n - 1, :] = np.ones(n)
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        pi = sparse_linalg.spsolve(a.tocsr(), b)
    except RuntimeError as exc:  # pragma: no cover - singular corner cases
        return _stationary_fallback(chain, exc)
    pi = np.asarray(pi, dtype=np.float64)
    # Clean tiny negative round-off and renormalize.
    pi[pi < 0] = 0.0
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        return _stationary_fallback(chain, None)
    return pi / total


def stationary_distribution(
    chain: DTMC,
    *,
    engine=None,
    assume_irreducible: bool = False,
) -> np.ndarray:
    """Unique stationary distribution of an irreducible chain.

    Solves ``pi (P - I) = 0`` with the normalization ``sum(pi) = 1`` by
    replacing one column of the system with the all-ones constraint;
    this is the standard direct method and is exact up to the sparse
    solver's accuracy.  With an ``engine``, the result is memoized per
    chain and the engine's configured method is used (iterative
    backends compute it by uniform-start power iteration).
    """
    if engine is not None:
        return engine.stationary_distribution(
            chain, assume_irreducible=assume_irreducible
        )
    return _stationary_impl(chain, assume_irreducible=assume_irreducible)


def absorption_probabilities(
    chain: DTMC, targets: List[List[int]], *, engine=None
) -> np.ndarray:
    """Probability, per target class, of eventually being absorbed there.

    ``targets`` is a list of disjoint absorbing classes (e.g. BSCCs).
    Returns an array of shape ``(len(targets),)`` with the probability
    of absorption into each class *from the initial distribution*.

    Uses the fundamental-matrix formulation restricted to transient
    states: ``(I - Q) x = R 1_class``.  The factorization of
    ``(I - Q)`` is shared across classes — and, with an ``engine``,
    with every other solve against the same transient subsystem.
    """
    n = chain.num_states
    in_class = np.full(n, -1, dtype=np.int64)
    for class_id, members in enumerate(targets):
        for s in members:
            in_class[s] = class_id
    transient = np.where(in_class < 0)[0]
    result = np.zeros(len(targets))
    init = chain.initial_distribution

    # Mass already starting inside a class.
    for class_id, members in enumerate(targets):
        result[class_id] += float(init[members].sum())

    if transient.size == 0:
        return result

    matrix = chain.transition_matrix
    if engine is None:
        sub = matrix[transient][:, transient]
        identity = sparse.identity(transient.size, format="csr")
        lu = sparse_linalg.splu((identity - sub).tocsc())
        solve = lu.solve
    else:
        solve = lambda rhs: engine.solve_subsystem(chain, transient, rhs)  # noqa: E731
    for class_id, members in enumerate(targets):
        rhs = np.asarray(matrix[transient][:, members].sum(axis=1)).ravel()
        if not rhs.any():
            continue
        absorbed = solve(rhs)
        result[class_id] += float(init[transient] @ absorbed)
    return result


def _long_run_impl(chain: DTMC, engine=None) -> np.ndarray:
    """BSCC-weighted long-run distribution (the actual computation)."""
    if engine is not None:
        classes = engine.bottom_sccs(chain)
        method = engine.config.method
        tolerance = engine.config.tolerance
        max_iterations = engine.config.max_iterations
    else:
        classes = bottom_sccs(chain)
        method, tolerance, max_iterations = "direct", 1e-12, 200_000
    weights = absorption_probabilities(chain, classes, engine=engine)
    result = np.zeros(chain.num_states)
    for members, weight in zip(classes, weights):
        if weight <= 0.0:
            continue
        sub = chain.restricted_to(members)
        # The appended sink is unreachable for a bottom class; drop it.
        sub_matrix = sub.transition_matrix[: len(members), : len(members)]
        sub_chain = DTMC(
            sub_matrix,
            np.full(len(members), 1.0 / len(members)),
            validate=False,
        )
        # A BSCC is strongly connected by construction, so skip the
        # per-class irreducibility check the public entry point would run.
        pi = _stationary_impl(
            sub_chain,
            assume_irreducible=True,
            method=method,
            tolerance=tolerance,
            max_iterations=max_iterations,
        )
        for local, global_index in enumerate(members):
            result[global_index] = weight * pi[local]
    return result


def long_run_distribution(chain: DTMC, *, engine=None) -> np.ndarray:
    """Limiting average distribution of an arbitrary finite chain.

    Decomposes into BSCCs, weighs each BSCC's stationary distribution
    by the probability of absorption into it.  For aperiodic chains
    this is also the limit of ``pi P^t``; for periodic ones it is the
    Cesàro (time-average) limit, which is what long-run rewards need.
    With an ``engine``, the decomposition and the result are memoized
    per chain.
    """
    if engine is not None:
        return engine.long_run_distribution(chain)
    return _long_run_impl(chain)


def long_run_reward(
    chain: DTMC, reward: str | np.ndarray, *, engine=None
) -> float:
    """Long-run average reward ``R=? [ S ]`` (steady-state reward).

    With the paper's 0/1 error flag this is exactly the BER.
    """
    vec = chain.reward_vector(reward) if isinstance(reward, str) else np.asarray(reward)
    pi = long_run_distribution(chain, engine=engine)
    return float(pi @ vec)


def assert_ergodic(chain: DTMC) -> Tuple[bool, bool]:
    """Return ``(irreducible, aperiodic)`` — the paper's steady-state
    precondition check (Section III)."""
    return is_irreducible(chain), is_aperiodic(chain)
