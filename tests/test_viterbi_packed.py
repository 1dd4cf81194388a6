"""Differential tests: the packed Viterbi models against their scalar
specification.

Every Viterbi builder explores int64 state codes through a
:class:`~repro.dtmc.builder.PackedModel`; the scalar transition
functions (``full_transition``, ``reduced_transition`` and their
error-counter extensions) are the executable specification of Eqs. 2-9.
Both feed the same BFS core, so the chains must agree bit for bit: CSR
arrays, initial distribution, labels, rewards, state objects, index,
BFS depth and discarded-branch count.
"""

import itertools

import numpy as np
import pytest

from repro.dtmc import ExplorationLimitError, build_dtmc
from repro.viterbi import (
    ViterbiKernel,
    ViterbiModelConfig,
    build_error_count_model,
    build_full_model,
    build_reduced_error_count_model,
    build_reduced_model,
)
from repro.viterbi.dtmc_model import (
    ViterbiErrcntState,
    _initial_full_state,
    error_count_transition,
    full_transition,
    packed_full_model,
)
from repro.viterbi.reduced_model import (
    ViterbiReducedErrcntState,
    _initial_reduced_state,
    packed_reduced_model,
    reduced_error_count_transition,
    reduced_transition,
)

FLAG = {"flag": lambda s: bool(s.flag)}
OVERFLOW = {**FLAG, "overflow": lambda s: s.errcnt > 1}
REWARD = {"flag": lambda s: float(s.flag)}


def scalar_full(config, error_count, **kwargs):
    kernel = ViterbiKernel(config)
    start = _initial_full_state(kernel)
    if not error_count:
        return build_dtmc(full_transition(kernel), start, labels=FLAG, rewards=REWARD, **kwargs)
    return build_dtmc(
        error_count_transition(kernel),
        ViterbiErrcntState(*start, 0),
        labels=OVERFLOW,
        rewards=REWARD,
        **kwargs,
    )


def scalar_reduced(config, error_count, **kwargs):
    kernel = ViterbiKernel(config)
    start = _initial_reduced_state(kernel)
    if not error_count:
        return build_dtmc(reduced_transition(kernel), start, labels=FLAG, rewards=REWARD, **kwargs)
    return build_dtmc(
        reduced_error_count_transition(kernel),
        ViterbiReducedErrcntState(*start, 0),
        labels=OVERFLOW,
        rewards=REWARD,
        **kwargs,
    )


BUILDERS = {
    "M": (build_full_model, packed_full_model, scalar_full, False),
    "P3": (build_error_count_model, packed_full_model, scalar_full, True),
    "M_R": (build_reduced_model, packed_reduced_model, scalar_reduced, False),
    "P3_R": (build_reduced_error_count_model, packed_reduced_model, scalar_reduced, True),
}


def assert_identical(packed, scalar):
    ours, theirs = packed.chain, scalar.chain
    for part in ("indptr", "indices", "data"):
        a = getattr(ours.transition_matrix, part)
        b = getattr(theirs.transition_matrix, part)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), part
    assert np.array_equal(ours.initial_distribution, theirs.initial_distribution)
    assert ours.labels.keys() == theirs.labels.keys()
    for name in theirs.labels:
        assert np.array_equal(ours.label_vector(name), theirs.label_vector(name)), name
    assert ours.rewards.keys() == theirs.rewards.keys()
    for name in theirs.rewards:
        assert np.array_equal(ours.reward_vector(name), theirs.reward_vector(name)), name
    assert packed.states == scalar.states
    assert all(type(a) is type(b) for a, b in zip(packed.states, scalar.states))
    assert packed.index == scalar.index
    assert packed.bfs_levels == scalar.bfs_levels
    assert packed.discarded_branches == scalar.discarded_branches


def check(model, config, **kwargs):
    _, packed_fn, scalar_fn, error_count = BUILDERS[model]
    packed = packed_fn(ViterbiKernel(config), error_count, **kwargs)
    assert packed is not None, "config should build from packed codes"
    assert_identical(packed, scalar_fn(config, error_count, **kwargs))


def config_id(config):
    return (f"m{config.memory}-L{config.traceback_length}-q{config.num_levels}"
            f"-{config.snr_db:g}dB")


def m1_grid(lengths, levels=(3, 5), snrs=(0.0, 5.0, 12.0, 40.0)):
    return [
        ViterbiModelConfig(traceback_length=length, num_levels=level, snr_db=snr)
        for length, level, snr in itertools.product(lengths, levels, snrs)
    ]


# Memory 1 across traceback length, quantizer and SNR (40 dB underflows
# Gaussian cells to zero, so rows lose branches).  The Table-1 cell
# (L=6, 5 levels) is covered at 40 dB here and at 5 dB by the ratio
# gate in benchmarks/test_bench_table1.py.
M1 = m1_grid(range(2, 6)) + m1_grid([6], levels=(3,)) + m1_grid([6], levels=(5,), snrs=(40.0,))


@pytest.mark.parametrize("model", ["M", "M_R"])
@pytest.mark.parametrize("config", M1, ids=config_id)
def test_memory1_models(model, config):
    check(model, config)


@pytest.mark.parametrize("model", ["P3", "P3_R"])
@pytest.mark.parametrize("config", m1_grid(range(2, 5)), ids=config_id)
def test_memory1_error_count_models(model, config):
    check(model, config)


@pytest.mark.parametrize("model", ["P3", "P3_R"])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_error_count_caps(model, cap):
    check(model, ViterbiModelConfig(traceback_length=4, num_levels=3, error_count_cap=cap))


MEMORY2 = [
    ViterbiModelConfig(taps=(1.0, 0.5, 0.5), traceback_length=length,
                       num_levels=3, pm_max=4, snr_db=snr)
    for length, snr in itertools.product((3, 4), (6.0, 40.0))
]


@pytest.mark.parametrize("model", ["M", "P3"])
@pytest.mark.parametrize("config", MEMORY2, ids=config_id)
def test_memory2_models(model, config):
    """Cold-start survivor stages are not one-bit encodable for m >= 2."""
    check(model, config)


def test_memory3_packed():
    check("M", ViterbiModelConfig(taps=(1.0, 0.5, 0.5, 0.5), traceback_length=4,
                                  num_levels=3, pm_max=2, snr_db=40.0))


def test_wider_than_63_bits_takes_the_scalar_path():
    config = ViterbiModelConfig(taps=(1.0, 0.5, 0.5, 0.5), traceback_length=6,
                                num_levels=3, pm_max=2, snr_db=40.0)
    assert packed_full_model(ViterbiKernel(config), error_count=False) is None
    result = build_full_model(config)
    assert_identical(result, scalar_full(config, error_count=False))
    assert result.num_states == 2829


@pytest.mark.parametrize("model", sorted(BUILDERS))
def test_branch_cutoff(model):
    config = ViterbiModelConfig(traceback_length=4, num_levels=5, snr_db=12.0)
    check(model, config, branch_cutoff=1e-4)
    assert BUILDERS[model][0](config, branch_cutoff=1e-4).discarded_branches > 0


@pytest.mark.parametrize("model", sorted(BUILDERS))
def test_state_limit(model):
    config = ViterbiModelConfig(traceback_length=4, num_levels=3)
    with pytest.raises(ExplorationLimitError):
        BUILDERS[model][0](config, max_states=50)


def test_canonicalize_takes_the_scalar_path():
    config = ViterbiModelConfig(traceback_length=3, num_levels=3)
    identity = lambda s: s  # noqa: E731
    assert_identical(
        build_full_model(config, canonicalize=identity),
        scalar_full(config, error_count=False),
    )
