"""Run the doctests embedded in public docstrings.

The examples in the API documentation are executable; this module keeps
them honest.
"""

import doctest

import pytest

import repro.core.reductions.equivalence
import repro.pctl.checker
import repro.pctl.parser

MODULES = [
    repro.pctl.parser,
    repro.pctl.checker,
    repro.core.reductions.equivalence,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
