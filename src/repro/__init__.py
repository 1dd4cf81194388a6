"""repro — Statistical guarantees of performance for MIMO designs.

A from-scratch reproduction of Kumar & Vasudevan (DSN 2010):
probabilistic model checking of MIMO RTL designs.  RTL blocks with
quantization and channel noise become discrete-time Markov chains;
BER-like metrics become pCTL properties; property-preserving reductions
(lumping, bisimulation, symmetry) keep the state spaces tractable; and
an explicit-state model checker returns exact answers where
Monte-Carlo simulation only returns estimates.

Quick start::

    from repro import PerformanceAnalyzer

    analyzer = PerformanceAnalyzer.for_viterbi()
    print(analyzer.best_case(300))    # P1:  P=? [ G<=300 !flag ]
    print(analyzer.average_case(300)) # P2:  R=? [ I=300 ]
    print(analyzer.ber())             # BER: S=? [ flag ]

Solver backends are selectable through :class:`repro.engine.SolverConfig`
(direct, LU-cached, power, Jacobi, Gauss-Seidel), and scenario sweeps
fan across workers with :func:`repro.engine.sweep`::

    from repro import SolverConfig, check
    check(chain, "P=? [ F done ]", config=SolverConfig(method="jacobi"))

Subpackages
-----------
``repro.core``     — metrics, analyzer, verified reductions
``repro.engine``   — unified solver engine, caches, scenario sweeps
``repro.dtmc``     — explicit-state DTMC engine + builder
``repro.pctl``     — pCTL syntax, parser, model checker
``repro.prog``     — guarded-command modeling language
``repro.comm``     — modulation, channels, quantizers, BER theory
``repro.viterbi``  — Viterbi decoder case study (Sections IV-A/C)
``repro.mimo``     — MIMO ML detector case study (Section IV-B)
``repro.sim``      — Monte-Carlo baseline with confidence intervals
``repro.smc``      — statistical model checking (Hoeffding, SPRT)
``repro.zoo``      — scenario model zoo + sweep/survey CLI
``repro.store``    — persistent guarantee store (sqlite result cache)
``repro.resilience`` — fault-tolerant sweep fabric (retries, deadlines,
crash recovery, guarantee validation, chaos injection)
"""

from .core import Guarantee, PerformanceAnalyzer
from .dtmc import DTMC, build_dtmc, build_iid_dtmc, dtmc_from_dict
from .engine import (
    Engine,
    SmcConfig,
    SolverConfig,
    grid,
    sweep,
    sweep_check,
    sweep_values,
)
from .pctl import check, parse_formula
from .smc import smc_decide, smc_estimate
from . import zoo
from . import store
from . import resilience
from .resilience import (
    DeadlinePolicy,
    FaultInjector,
    RetryPolicy,
    SweepReport,
    validate_guarantee,
)
from .store import ResultStore

__version__ = "1.5.0"

__all__ = [
    "Guarantee",
    "PerformanceAnalyzer",
    "DTMC",
    "build_dtmc",
    "build_iid_dtmc",
    "dtmc_from_dict",
    "Engine",
    "SmcConfig",
    "SolverConfig",
    "grid",
    "sweep",
    "sweep_check",
    "sweep_values",
    "check",
    "parse_formula",
    "smc_decide",
    "smc_estimate",
    "zoo",
    "store",
    "ResultStore",
    "resilience",
    "RetryPolicy",
    "DeadlinePolicy",
    "SweepReport",
    "FaultInjector",
    "validate_guarantee",
    "__version__",
]
