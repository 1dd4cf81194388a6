"""Reduced DTMC model ``M_R`` of the Viterbi decoder (Section IV-A.3).

The error properties P1-P3 only need to know whether the decoded bit
is *wrong*, never what it *is*.  The reduction therefore replaces the
survivor pointers and stored data bits of each trellis stage with two
booleans per stage (the paper's ``c_i`` and ``w_i``):

* ``c_i`` — the survivor pointer *from the correct state* of stage ``i``
  points at the correct previous state (``prev[x_i]_i == x_{i+1}``);
* ``w_i`` — the survivor pointer *from the wrong state* points at the
  correct previous state (``prev[1-x_i]_i == x_{i+1}``).

A traceback is then simulated on correctness bits alone: starting from
``correct_0 = (argmin pm == x_0)``, the recurrence
``correct_{i+1} = c_i if correct_i else w_i`` reaches stage ``L-1``,
and ``flag = !correct_{L-1}``.  The probabilistic kernel (path metrics
+ current bit) is retained untouched, which is exactly why the quotient
is a probabilistic bisimulation (the paper's Part B / Strong Lumping
argument); :func:`abstraction_function` is the paper's ``F_abs`` and is
used by the test suite to verify soundness mechanically.

As for ``M``, :func:`reduced_transition` is the executable
specification and the builders explore packed int64 codes: the
mixed-radix digits are ``pm`` (the kernel's pm-vector id), ``x0``,
``c`` and ``w`` (``L-1`` bits each, stage ``i`` at bit ``i``),
``flag`` and, in the error-count model, ``errcnt``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Optional, Tuple

import numpy as np

from ..dtmc.builder import ExplorationResult, PackedModel, build_dtmc
from .dtmc_model import (
    Layout,
    ViterbiFullState,
    ViterbiKernel,
    ViterbiModelConfig,
    objects_of,
    records,
)

__all__ = [
    "ViterbiReducedState",
    "ViterbiReducedErrcntState",
    "reduced_flag",
    "reduced_transition",
    "build_reduced_model",
    "build_reduced_error_count_model",
    "abstraction_function",
]

ViterbiReducedState = namedtuple(
    "ViterbiReducedState", ["pm", "x0", "c", "w", "flag"]
)
ViterbiReducedErrcntState = namedtuple(
    "ViterbiReducedErrcntState", ["pm", "x0", "c", "w", "flag", "errcnt"]
)


def reduced_flag(
    pm: Tuple[int, ...], x0: int, c: Tuple[int, ...], w: Tuple[int, ...]
) -> int:
    """The paper's modified error function ``F_E^R`` (Eq. 9).

    Folds the correctness recurrence over the stored ``c``/``w`` bits
    instead of tracing actual survivor pointers.
    """
    best = min(range(len(pm)), key=lambda s: (pm[s], s))
    correct = best == x0
    for c_i, w_i in zip(c, w):
        correct = bool(c_i) if correct else bool(w_i)
    return int(not correct)


def _cw_bits(
    survivors: Tuple[int, ...], x_stage: int, x_next: int
) -> Tuple[int, int]:
    """The paper's ``F_cw`` (Eq. 7): correctness of the two survivor
    pointers of a fresh stage with actual bits (x_stage, x_next)."""
    c = int(survivors[x_stage] == x_next)
    w = int(survivors[1 - x_stage] == x_next)
    return c, w


def _require_memory_one(kernel: ViterbiKernel) -> None:
    if kernel.config.memory != 1:
        raise ValueError(
            "the c/w reduction is defined for the paper's memory-1"
            f" channel; got memory {kernel.config.memory}"
        )


def reduced_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of ``M_R`` (Eqs. 7-9).

    Note the shared :class:`~repro.viterbi.dtmc_model.ViterbiKernel`:
    the probabilistic step is *identical* to the full model's.

    The c/w abstraction is the paper's two-internal-state construction;
    memory-m channels (2^m trellis states) are supported by the full
    model only.
    """
    _require_memory_one(kernel)

    def transition(state: ViterbiReducedState):
        branches = []
        for probability, (new_pm, survivors, x_new, _q) in kernel.branches(
            state.pm, state.x0
        ):
            c0, w0 = _cw_bits(survivors, x_new, state.x0)
            new_c = (c0,) + state.c[:-1]
            new_w = (w0,) + state.w[:-1]
            flag = reduced_flag(new_pm, x_new, new_c, new_w)
            branches.append(
                (
                    probability,
                    ViterbiReducedState(new_pm, x_new, new_c, new_w, flag),
                )
            )
        return branches

    return transition


def _initial_reduced_state(kernel: ViterbiKernel) -> ViterbiReducedState:
    length = kernel.config.traceback_length
    pm = kernel.initial_pm()
    # Cold start: all-zero bits and survivor pointers, hence every
    # stored pointer is "correct" (c_i = w_i = ... consistent with the
    # full model's all-zero initial state, where prev[i][s] == 0 == x).
    c = (1,) * (length - 1)
    w = (1,) * (length - 1)
    x0 = 0
    return ViterbiReducedState(pm, x0, c, w, reduced_flag(pm, x0, c, w))


def packed_reduced_model(
    kernel: ViterbiKernel, error_count: bool, **builder_kwargs
) -> Optional[ExplorationResult]:
    """Build ``M_R`` (or its P3 extension) from packed codes; ``None``
    when the codes do not fit an int64 or a ``canonicalize`` hook asks
    for state objects."""
    _require_memory_one(kernel)
    config, tables = kernel.config, kernel.tables
    stages, cap = config.traceback_length - 1, config.error_count_cap
    layout = Layout(
        [
            ("pm", len(tables.pm)),
            ("x0", 2),
            ("c", 1 << stages),
            ("w", 1 << stages),
            ("flag", 2),
            ("errcnt", cap + 1 if error_count else 1),
        ]
    )
    if not layout.fits or builder_kwargs.get("canonicalize") is not None:
        return None
    mask = (1 << stages) - 1

    def step(codes):
        pm = layout.get(codes, "pm")[:, None]
        x0 = layout.get(codes, "x0")[:, None]
        new_pm = tables.acs_pm[pm, tables.q]
        survivors = tables.acs_stage[pm, tables.q]  # memory 1: bit t = prev[t]
        x_new = tables.bit
        # Eq. 7: do the survivors of the correct / wrong state point at x0?
        c0 = ((survivors >> x_new) & 1) == x0
        w0 = ((survivors >> (1 - x_new)) & 1) == x0
        c = ((layout.get(codes, "c")[:, None] << 1) | c0) & mask
        w = ((layout.get(codes, "w")[:, None] << 1) | w0) & mask
        # Eq. 9: fold the correctness recurrence over the stages
        correct = tables.best[new_pm] == x_new
        for stage in range(stages):
            correct = np.where(correct, (c >> stage) & 1, (w >> stage) & 1) == 1
        flag = (~correct).astype(np.int64)
        digits = dict(pm=new_pm, x0=x_new, c=c, w=w, flag=flag)
        if error_count:
            errcnt = layout.get(codes, "errcnt")[:, None]
            digits["errcnt"] = np.minimum(errcnt + flag, cap)
        return tables.probs[x0[:, 0]], layout.pack(**digits)

    def bits(value: int) -> Tuple[int, ...]:
        return tuple((value >> i) & 1 for i in range(stages))

    def decode(codes):
        columns = [
            [tables.pm[i] for i in layout.get(codes, "pm").tolist()],
            layout.get(codes, "x0").tolist(),
            objects_of(layout.get(codes, "c"), bits),
            objects_of(layout.get(codes, "w"), bits),
            layout.get(codes, "flag").tolist(),
        ]
        if not error_count:
            return records(ViterbiReducedState, columns)
        columns.append(layout.get(codes, "errcnt").tolist())
        return records(ViterbiReducedErrcntState, columns)

    start = _initial_reduced_state(kernel)
    initial = layout.pack(pm=0, x0=0, c=mask, w=mask, flag=start.flag)
    labels = {"flag": lambda codes: layout.get(codes, "flag") == 1}
    if error_count:
        labels["overflow"] = lambda codes: layout.get(codes, "errcnt") > 1
    return build_dtmc(
        PackedModel(step, decode),
        initial=int(initial),
        labels=labels,
        rewards={"flag": lambda codes: layout.get(codes, "flag")},
        **builder_kwargs,
    )


def build_reduced_model(
    config: Optional[ViterbiModelConfig] = None, **builder_kwargs
) -> ExplorationResult:
    """Explore the reduced Viterbi DTMC ``M_R``.

    Carries the same ``flag`` label/reward as the full model, so every
    error property checks verbatim on either chain — and must return
    the same value, which the integration tests assert via
    :func:`repro.core.reductions.are_bisimilar`.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    packed = packed_reduced_model(kernel, error_count=False, **builder_kwargs)
    if packed is not None:
        return packed
    return build_dtmc(
        reduced_transition(kernel),
        initial=_initial_reduced_state(kernel),
        labels={"flag": lambda s: bool(s.flag)},
        rewards={"flag": lambda s: float(s.flag)},
        **builder_kwargs,
    )


def reduced_error_count_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of ``M_R`` plus the saturating P3 error
    counter."""
    base = reduced_transition(kernel)
    cap = kernel.config.error_count_cap

    def transition(state: ViterbiReducedErrcntState):
        inner = ViterbiReducedState(state.pm, state.x0, state.c, state.w, state.flag)
        return [
            (
                probability,
                ViterbiReducedErrcntState(
                    nxt.pm,
                    nxt.x0,
                    nxt.c,
                    nxt.w,
                    nxt.flag,
                    min(state.errcnt + nxt.flag, cap),
                ),
            )
            for probability, nxt in base(inner)
        ]

    return transition


def build_reduced_error_count_model(
    config: Optional[ViterbiModelConfig] = None, **builder_kwargs
) -> ExplorationResult:
    """Reduced model extended with the saturating P3 error counter.

    The counter accumulates the (reduction-preserved) ``flag``, so this
    is the quotient of the paper's larger P3 model: the worst-case
    property ``P=? [ F<=T errcnt>1 ]`` checks identically here and on
    :func:`repro.viterbi.dtmc_model.build_error_count_model`.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    packed = packed_reduced_model(kernel, error_count=True, **builder_kwargs)
    if packed is not None:
        return packed
    start = _initial_reduced_state(kernel)
    initial = ViterbiReducedErrcntState(
        start.pm, start.x0, start.c, start.w, start.flag, 0
    )
    return build_dtmc(
        reduced_error_count_transition(kernel),
        initial=initial,
        labels={
            "flag": lambda s: bool(s.flag),
            "overflow": lambda s: s.errcnt > 1,
        },
        rewards={"flag": lambda s: float(s.flag)},
        **builder_kwargs,
    )


def abstraction_function(full_state: ViterbiFullState) -> ViterbiReducedState:
    """The paper's ``F_abs`` (Eq. 6): map a state of ``M`` to ``M_R``.

    Used to *verify* the reduction: quotienting the explicit full model
    by this function must produce a strongly-lumpable partition whose
    quotient is exactly (bisimilar to) the directly-built ``M_R``.
    """
    pm, prev, x = full_state.pm, full_state.prev, full_state.x
    c = tuple(
        int(prev[i][x[i]] == x[i + 1]) for i in range(len(x) - 1)
    )
    w = tuple(
        int(prev[i][1 - x[i]] == x[i + 1]) for i in range(len(x) - 1)
    )
    return ViterbiReducedState(pm, x[0], c, w, reduced_flag(pm, x[0], c, w))
