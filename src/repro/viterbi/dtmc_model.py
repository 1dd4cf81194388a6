"""Full DTMC model ``M`` of the RTL Viterbi decoder (Section IV-A).

State variables follow the paper exactly:

* ``pm`` — the normalized, saturated path metrics (pm0, pm1);
* ``prev`` — survivor pointers of the last ``L`` trellis stages,
  newest first (the paper's ``prev0_i`` / ``prev1_i``);
* ``x``    — the actual data bits of the last ``L`` steps, newest first
  (the paper's ``x_i``);
* ``flag`` — 1 iff the bit decoded this cycle (for the cycle ``L-1``
  steps ago) is wrong.  ``flag`` is a deterministic function of the
  other variables, so carrying it costs no extra states.

One DTMC transition = one clock cycle:  the data bit ``x_0'`` is drawn
uniformly, the received quantization level ``q`` is drawn from the
exact Gaussian cell probabilities given the noiseless ISI output of
``(x_0', x_0)`` (the paper's probabilistic function ``Gamma_p``,
Eq. 2), and the remaining variables follow deterministically
(Eqs. 3-5).

An extended model with a saturating error counter supports the paper's
worst-case property P3 (``P=? [ F<=T errcnt>1 ]``), matching the larger
state count reported for P3 in Table I.

**Packed state codes.**  :func:`full_transition` is the executable
specification of Eqs. 2-5 (and the differential oracle of the tests);
the builders explore ``M`` a BFS level at a time instead, through a
:class:`~repro.dtmc.builder.PackedModel` whose states are int64 codes.
A code is a mixed-radix number, least significant digit first:

=========  ==================  ==========================================
digit      radix               content
=========  ==================  ==========================================
``pm``     reachable pm count  index of the path-metric vector in
                               :attr:`KernelTables.pm` (0 = cold start)
``x``      ``2^L``             data bits, ``x[i]`` at bit ``i``
``prev``   ``2^(L*2^m)``       survivor register: stage ``i`` (newest
                               first) in bits ``i*2^m ..``, one bit per
                               trellis state ``t`` -- the two
                               predecessors of ``t`` differ only in the
                               top bit, so the bit is the survivor's top
                               bit
``fresh``  ``L+1`` (m >= 2)    how many of the oldest stages still hold
                               the all-zero cold-start pointers, which
                               are not valid predecessors once ``m >=
                               2``; radix 1 (no digit) for ``m = 1``
``flag``   2                   ``flag`` (a function of the rest, stored
                               so labels are a digit read)
``errcnt`` ``cap+1`` or 1      the P3 error counter, error-count model
                               only
=========  ==================  ==========================================

One step shifts ``x`` and ``prev`` left by one stage, reads the new pm
and survivor stage from the kernel's ACS tables, and traces back over
the register to set ``flag``.  A configuration whose radices multiply
past ``2^63`` builds through :func:`full_transition` instead, with the
same result.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.channel import PartialResponseTransmitter
from ..comm.quantizer import UniformQuantizer
from ..comm.snr import noise_sigma
from ..dtmc.builder import ExplorationResult, PackedModel, build_dtmc
from .trellis import Trellis

__all__ = [
    "ViterbiModelConfig",
    "ViterbiFullState",
    "ViterbiKernel",
    "KernelTables",
    "traceback_flag",
    "full_transition",
    "build_full_model",
    "build_error_count_model",
]

ViterbiFullState = namedtuple("ViterbiFullState", ["pm", "prev", "x", "flag"])
ViterbiErrcntState = namedtuple(
    "ViterbiErrcntState", ["pm", "prev", "x", "flag", "errcnt"]
)


@dataclass(frozen=True)
class ViterbiModelConfig:
    """Parameters of the Viterbi case study.

    Defaults are the laptop-scale settings documented in DESIGN.md
    (the paper runs L=6 with a finer quantizer on a 53M-state model);
    every experiment exposes these as knobs.

    Attributes
    ----------
    snr_db:
        Es/N0 in dB (per-bit symbol energy 1); the paper's Table I uses
        5 dB.
    traceback_length:
        The paper's ``L`` (number of stored trellis stages).
    num_levels:
        Receiver quantizer levels.
    quantizer_low / quantizer_high:
        Quantizer range; must cover the ISI alphabet {-2, 0, +2}.
    pm_max:
        Path-metric saturation bound.
    error_count_cap:
        Saturation bound of the P3 error counter.
    """

    snr_db: float = 5.0
    traceback_length: int = 4
    num_levels: int = 5
    quantizer_low: float = -3.0
    quantizer_high: float = 3.0
    pm_max: int = 6
    error_count_cap: int = 2
    taps: Tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.traceback_length < 2:
            raise ValueError("traceback_length must be >= 2")
        if self.error_count_cap < 1:
            raise ValueError("error_count_cap must be >= 1")
        if len(self.taps) < 2:
            raise ValueError("need taps for the current bit and >=1 past bit")
        if self.traceback_length <= self.memory:
            raise ValueError("traceback_length must exceed the channel memory")

    @property
    def memory(self) -> int:
        """Channel memory ``m`` (the paper's case studies use m = 1)."""
        return len(self.taps) - 1

    def make_quantizer(self) -> UniformQuantizer:
        return UniformQuantizer(
            self.num_levels, self.quantizer_low, self.quantizer_high
        )

    def make_transmitter(self) -> PartialResponseTransmitter:
        return PartialResponseTransmitter(self.taps)

    def make_trellis(self) -> Trellis:
        return Trellis(
            self.make_transmitter(), self.make_quantizer(), pm_max=self.pm_max
        )

    @property
    def sigma(self) -> float:
        return noise_sigma(self.snr_db, symbol_energy=1.0)


class ViterbiKernel:
    """The probabilistic function ``Gamma_p`` shared by ``M`` and ``M_R``.

    Maps ``(pm, previous bit)`` to the distribution over
    ``(new pm, new survivors, new bit, q index)``.  Both the full and
    the reduced model draw from this same kernel — which is why the
    reduction preserves probabilistic behaviour (the paper's Part B).
    All Gaussian cell probabilities and ACS results are cached; the
    per-state work during exploration is a table walk.
    """

    def __init__(self, config: ViterbiModelConfig) -> None:
        self.config = config
        self.trellis = config.make_trellis()
        self.quantizer = config.make_quantizer()
        self.transmitter = config.make_transmitter()
        sigma = config.sigma
        memory = config.memory
        # q-level distribution for each (new bit, past bits...) tuple
        # (newest past bit first — the paper's m=1 case keys on
        # (x[n], x[n-1])).
        self._q_dist: Dict[Tuple[int, ...], List[Tuple[float, int]]] = {}
        for bits in itertools.product((0, 1), repeat=memory + 1):
            mean = self.transmitter.output(list(bits))
            probabilities = self.quantizer.cell_probabilities(mean, sigma)
            self._q_dist[bits] = [
                (float(p), int(i))
                for i, p in enumerate(probabilities)
                if p > 0.0
            ]
        self._acs_cache: Dict[Tuple[Tuple[int, ...], int], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}

    def acs(self, pm: Tuple[int, ...], q_index: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Cached add-compare-select: ``(new pm, survivors)``."""
        key = (pm, q_index)
        cached = self._acs_cache.get(key)
        if cached is None:
            result = self.trellis.acs(pm, q_index)
            cached = (result.path_metrics, result.survivors)
            self._acs_cache[key] = cached
        return cached

    def branches(
        self, pm: Tuple[int, ...], x_prev
    ) -> List[Tuple[float, Tuple[Tuple[int, ...], Tuple[int, ...], int, int]]]:
        """All probabilistic outcomes of one cycle.

        Returns ``(probability, (new_pm, survivors, x_new, q_index))``
        with the data bit uniform over {0, 1} and ``q`` from the exact
        quantized-Gaussian distribution.  ``x_prev`` is the previous
        data bit (memory 1) or the tuple of the last ``m`` bits, newest
        first.
        """
        past = (x_prev,) if isinstance(x_prev, int) else tuple(x_prev)
        out = []
        for x_new in (0, 1):
            for p_q, q_index in self._q_dist[(x_new,) + past]:
                new_pm, survivors = self.acs(pm, q_index)
                out.append((0.5 * p_q, (new_pm, survivors, x_new, q_index)))
        return out

    def initial_pm(self) -> Tuple[int, ...]:
        return self.trellis.initial_metrics()

    @functools.cached_property
    def tables(self) -> "KernelTables":
        """The kernel as arrays, for the packed models."""
        return KernelTables(self)


class KernelTables:
    """``Gamma_p`` as lookup tables over every reachable path-metric
    vector.

    Attributes
    ----------
    pm:
        Reachable normalized path-metric vectors; index 0 is the cold
        start.
    acs_pm / acs_stage:
        ``[pm id, q]`` -> new pm id, and the survivor stage as bits
        (bit ``t`` set iff state ``t``'s survivor is its upper
        predecessor ``(t >> 1) | 2^(m-1)``).
    best:
        ``[pm id]`` -> state with the least metric (ties -> lowest).
    probs:
        ``[past, slot]`` -> branch probability, ``past`` holding the
        last ``m`` data bits (``x[i]`` at bit ``i``) and the slots
        ordered like :meth:`ViterbiKernel.branches`: new bit 0 then 1,
        each over ``q`` ascending; 0 where the cell has no mass.
    q / bit:
        ``[slot]`` -> received level and new data bit.
    """

    def __init__(self, kernel: ViterbiKernel) -> None:
        trellis = kernel.trellis
        memory, size = trellis.memory, trellis.num_states
        levels = kernel.quantizer.num_levels
        targets = np.arange(size)
        lower = targets >> 1
        upper = lower | (1 << (memory - 1))
        bit = targets & 1
        # branch metrics of both predecessors of every target, per q
        branch = trellis._branch_table
        lower_branch = branch[:, lower, bit]
        upper_branch = branch[:, upper, bit]
        weights = (trellis.pm_max + 1) ** targets

        pms = [np.array(kernel.initial_pm(), dtype=np.int64)]
        ids = {int(pms[0] @ weights): 0}
        acs_pm: List[List[int]] = []
        acs_stage: List[np.ndarray] = []
        while len(acs_pm) < len(pms):
            block = np.array(pms[len(acs_pm):])[:, None, :]  # [n, 1, S]
            lower_metric = block[:, :, lower] + lower_branch[None]
            upper_metric = block[:, :, upper] + upper_branch[None]
            take_upper = upper_metric < lower_metric  # ties -> lower pred
            metric = np.where(take_upper, upper_metric, lower_metric)
            metric = np.minimum(
                metric - metric.min(axis=2, keepdims=True), trellis.pm_max
            )
            acs_stage.extend(take_upper.astype(np.int64) @ (1 << targets))
            for row, keys in zip(metric, (metric @ weights).tolist()):
                next_ids = []
                for vector, key in zip(row, keys):
                    if key not in ids:
                        ids[key] = len(pms)
                        pms.append(vector)
                    next_ids.append(ids[key])
                acs_pm.append(next_ids)

        # slot x_new * levels + q: new bit 0 then 1, each over q ascending
        probs = np.zeros((size, 2 * levels))
        for past in range(size):
            past_bits = tuple((past >> i) & 1 for i in range(memory))
            for x_new in (0, 1):
                for p_q, q in kernel._q_dist[(x_new,) + past_bits]:
                    probs[past, x_new * levels + q] = 0.5 * p_q
        table = np.array(pms)
        self.pm: List[Tuple[int, ...]] = [tuple(v) for v in table.tolist()]
        self.acs_pm = np.array(acs_pm, dtype=np.int64)
        self.acs_stage = np.array(acs_stage, dtype=np.int64)
        self.best = np.argmin(table, axis=1)
        self.probs = probs
        self.q = np.tile(np.arange(levels), 2)
        self.bit = np.repeat(np.arange(2), levels)


class Layout:
    """Mixed-radix packing of named digits into one int64 code."""

    def __init__(self, radices: Sequence[Tuple[str, int]]) -> None:
        self.radix: Dict[str, int] = {}
        self.weight: Dict[str, int] = {}
        span = 1
        for name, radix in radices:
            self.radix[name], self.weight[name] = radix, span
            span *= radix
        #: Whether every code and digit weight fits an int64.
        self.fits = span < 1 << 63

    def get(self, codes: np.ndarray, name: str) -> np.ndarray:
        return (codes // self.weight[name]) % self.radix[name]

    def pack(self, **digits: Any) -> np.ndarray:
        return sum(
            np.asarray(value, dtype=np.int64) * self.weight[name]
            for name, value in digits.items()
        )


def records(cls: type, columns: Sequence[List[Any]]) -> List[Any]:
    """``[cls(*row) for row in zip(*columns)]`` for a namedtuple ``cls``,
    without its Python-level ``__new__`` per row."""
    return list(map(functools.partial(tuple.__new__, cls), zip(*columns)))


def objects_of(values: np.ndarray, make: Callable[[int], Any]) -> List[Any]:
    """``[make(v) for v in values]``, calling ``make`` once per distinct
    value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    made = [make(value) for value in distinct.tolist()]
    return [made[i] for i in inverse.tolist()]


def traceback_flag(
    pm: Tuple[int, ...], prev: Tuple[Tuple[int, ...], ...], x: Tuple[int, ...]
) -> int:
    """The paper's ``F_E`` (Eq. 5): traceback through all stored stages
    and compare the decoded bit with the actual bit ``x_{L-1}``."""
    state = min(range(len(pm)), key=lambda s: (pm[s], s))
    for stage in prev[:-1]:
        state = stage[state]
    return int((state & 1) != x[-1])


def full_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of the full model ``M`` (Eqs. 2-5)."""

    memory = kernel.config.memory

    def transition(state: ViterbiFullState):
        branches = []
        for probability, (new_pm, survivors, x_new, _q) in kernel.branches(
            state.pm, state.x[:memory]
        ):
            new_prev = (survivors,) + state.prev[:-1]
            new_x = (x_new,) + state.x[:-1]
            flag = traceback_flag(new_pm, new_prev, new_x)
            branches.append(
                (probability, ViterbiFullState(new_pm, new_prev, new_x, flag))
            )
        return branches

    return transition


def _initial_full_state(kernel: ViterbiKernel) -> ViterbiFullState:
    length = kernel.config.traceback_length
    pm = kernel.initial_pm()
    prev = (tuple([0] * kernel.trellis.num_states),) * length
    x = (0,) * length
    return ViterbiFullState(pm, prev, x, traceback_flag(pm, prev, x))


def packed_full_model(
    kernel: ViterbiKernel, error_count: bool, **builder_kwargs
) -> Optional[ExplorationResult]:
    """Build ``M`` (or its P3 extension) from packed codes (module
    docstring); ``None`` when the codes do not fit an int64 or a
    ``canonicalize`` hook asks for state objects."""
    config, tables = kernel.config, kernel.tables
    memory, size = config.memory, kernel.trellis.num_states
    length, cap = config.traceback_length, config.error_count_cap
    layout = Layout(
        [
            ("pm", len(tables.pm)),
            ("x", 1 << length),
            ("prev", 1 << (length * size)),
            ("fresh", length + 1 if memory > 1 else 1),
            ("flag", 2),
            ("errcnt", cap + 1 if error_count else 1),
        ]
    )
    if not layout.fits or builder_kwargs.get("canonicalize") is not None:
        return None
    x_mask, prev_mask = (1 << length) - 1, (1 << (length * size)) - 1

    def flags(pm, prev, x, fresh):
        """Eq. 5 over the survivor register (cf. :func:`traceback_flag`)."""
        state = tables.best[pm]
        for stage in range(length - 1):
            upper = (prev >> (stage * size + state)) & 1
            state = (state >> 1) | (upper << (memory - 1))
            if memory > 1:  # a cold-start stage points every state at 0
                state = np.where(stage >= length - fresh, 0, state)
        return ((state & 1) != ((x >> (length - 1)) & 1)).astype(np.int64)

    def step(codes):
        pm = layout.get(codes, "pm")[:, None]
        x = layout.get(codes, "x")[:, None]
        prev = layout.get(codes, "prev")[:, None]
        fresh = np.maximum(layout.get(codes, "fresh") - 1, 0)[:, None]
        new_pm = tables.acs_pm[pm, tables.q]
        new_x = ((x << 1) | tables.bit) & x_mask
        new_prev = ((prev << size) | tables.acs_stage[pm, tables.q]) & prev_mask
        flag = flags(new_pm, new_prev, new_x, fresh)
        digits = dict(pm=new_pm, x=new_x, prev=new_prev, fresh=fresh, flag=flag)
        if error_count:
            errcnt = layout.get(codes, "errcnt")[:, None]
            digits["errcnt"] = np.minimum(errcnt + flag, cap)
        return tables.probs[x[:, 0] & (size - 1)], layout.pack(**digits)

    zero_stage = (0,) * size

    def stages(key: int) -> Tuple[Tuple[int, ...], ...]:
        fresh, register = divmod(key, layout.radix["prev"])
        return tuple(
            zero_stage
            if stage >= length - fresh
            else tuple(
                (t >> 1) | (((register >> (stage * size + t)) & 1) << (memory - 1))
                for t in range(size)
            )
            for stage in range(length)
        )

    def decode(codes):
        pm = [tables.pm[i] for i in layout.get(codes, "pm").tolist()]
        x = objects_of(
            layout.get(codes, "x"),
            lambda v: tuple((v >> i) & 1 for i in range(length)),
        )
        # prev and fresh are adjacent digits: read them as one
        span = layout.radix["prev"] * layout.radix["fresh"]
        prev = objects_of((codes // layout.weight["prev"]) % span, stages)
        columns = [pm, prev, x, layout.get(codes, "flag").tolist()]
        if not error_count:
            return records(ViterbiFullState, columns)
        columns.append(layout.get(codes, "errcnt").tolist())
        return records(ViterbiErrcntState, columns)

    start = _initial_full_state(kernel)
    initial = layout.pack(
        pm=0, x=0, prev=0, fresh=length if memory > 1 else 0, flag=start.flag
    )
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


def build_full_model(
    config: Optional[ViterbiModelConfig] = None, **builder_kwargs
) -> ExplorationResult:
    """Explore the full Viterbi DTMC ``M``.

    The chain carries the label ``flag`` and a matching reward
    structure (the paper's reward model), so P1/P2/P3-style properties
    check directly.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    packed = packed_full_model(kernel, error_count=False, **builder_kwargs)
    if packed is not None:
        return packed
    return build_dtmc(
        full_transition(kernel),
        initial=_initial_full_state(kernel),
        labels={"flag": lambda s: bool(s.flag)},
        rewards={"flag": lambda s: float(s.flag)},
        **builder_kwargs,
    )


def error_count_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of the P3 model: ``M`` plus the saturating
    error counter."""
    base = full_transition(kernel)
    cap = kernel.config.error_count_cap

    def transition(state: ViterbiErrcntState):
        inner = ViterbiFullState(state.pm, state.prev, state.x, state.flag)
        return [
            (
                probability,
                ViterbiErrcntState(
                    nxt.pm,
                    nxt.prev,
                    nxt.x,
                    nxt.flag,
                    min(state.errcnt + nxt.flag, cap),
                ),
            )
            for probability, nxt in base(inner)
        ]

    return transition


def build_error_count_model(
    config: Optional[ViterbiModelConfig] = None, **builder_kwargs
) -> ExplorationResult:
    """Full model extended with a saturating error counter for P3.

    ``errcnt`` accumulates decoded-bit errors up to
    ``config.error_count_cap``; the paper's worst-case property is
    ``P=? [ F<=T errcnt>1 ]``.  This is the larger "P3" model of
    Table I.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    packed = packed_full_model(kernel, error_count=True, **builder_kwargs)
    if packed is not None:
        return packed
    start = _initial_full_state(kernel)
    initial = ViterbiErrcntState(start.pm, start.prev, start.x, start.flag, 0)
    return build_dtmc(
        error_count_transition(kernel),
        initial=initial,
        labels={
            "flag": lambda s: bool(s.flag),
            "overflow": lambda s: s.errcnt > 1,
        },
        rewards={"flag": lambda s: float(s.flag)},
        **builder_kwargs,
    )
