"""Simulation configuration.

Defaults reproduce the experimental setup of Section 6 of the paper:

* channel bandwidth 20 flits/microsecond (one flit per cycle, so a cycle
  is 0.05 us);
* every input channel has a single-flit buffer;
* messages are one packet of 10 or 200 flits with equal probability;
* message interarrival times are negative-exponential (the per-cycle
  Bernoulli trial below is the discrete equivalent — geometric
  interarrivals converge to exponential at these rates);
* blocked messages queue at the source processor; arriving messages are
  consumed immediately (modulo the single ejection channel's bandwidth);
* *local first-come-first-served* input selection and *xy* (lowest
  dimension first) output selection;
* minimal routing.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Optional, Tuple

from ..faults.plan import FaultPlan

BACKENDS: Tuple[str, ...] = ("event", "array")
"""Engine backends selectable via :attr:`SimulationConfig.backend`."""

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(value: object) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, the
    encoding every content hash uses, without building an encoder per
    call."""
    return _CANONICAL.encode(value)


class FrozenMemo:
    """Base for a frozen dataclass with :func:`functools.cached_property`
    memos.

    A cached property stores its value in the instance ``__dict__``
    under its own name.  It is not a field, so ``==``, ``hash()``,
    ``repr`` and :func:`dataclasses.replace` never see it, and
    :meth:`__getstate__` leaves it out of pickles and copies: a worker
    pipe or a cache entry carries the same bytes whether or not a memo
    was computed.
    """

    def __getstate__(self) -> Dict[str, object]:
        cls = type(self)
        return {
            name: value
            for name, value in self.__dict__.items()
            if not isinstance(getattr(cls, name, None), cached_property)
        }


@dataclass(frozen=True)
class SimulationConfig(FrozenMemo):
    """Knobs for one wormhole simulation run."""

    # -- paper parameters ---------------------------------------------------
    channel_bandwidth: float = 20.0
    """Flits per microsecond on every channel (paper: 20)."""

    buffer_depth: int = 1
    """Flits of buffering per input channel (paper: 1)."""

    virtual_channels: int = 1
    """Virtual channels per physical channel (paper: 1 — the whole point
    of the turn model is adaptivity *without* extra channels; values > 1
    support the extension algorithms such as dateline torus routing and
    escape-VC fully adaptive routing).  Virtual channels share their
    physical link's bandwidth: one flit per link per cycle."""

    message_lengths: Tuple[int, ...] = (10, 200)
    """Packet lengths in flits, sampled uniformly (paper: 10 or 200)."""

    offered_load: float = 1.0
    """Offered traffic per node, in flits per microsecond."""

    # -- run control ---------------------------------------------------------
    warmup_cycles: int = 2_000
    """Cycles simulated before measurement starts."""

    measure_cycles: int = 8_000
    """Cycles in the measurement window."""

    seed: int = 0
    """Seed for the run's private random generator."""

    drain_cycles: int = 0
    """Extra cycles simulated after the measurement window with message
    generation switched off, letting in-flight packets deliver (or the
    watchdogs drop them) so delivery ratios are not diluted by worms that
    simply ran out of simulated time.  Fault campaigns use this; the
    paper's throughput runs keep it 0."""

    input_selection: str = "fcfs"
    """Arbitration among headers contending for one output channel
    (paper: local first-come-first-served)."""

    output_selection: str = "xy"
    """Choice among multiple available output channels (paper: the
    channel along the lowest dimension).  Any name from
    :func:`repro.simulation.selection.output_policy_names`, including
    the congestion-aware policies of :mod:`repro.routing.selection`
    (see docs/SELECTION.md)."""

    selection_threshold: int = 2
    """Occupancy (buffered flits at the preferred candidate's
    downstream router) at which the ``threshold`` output-selection
    policy abandons the static xy preference.  Other policies ignore
    it."""

    misroute_limit: int = 0
    """Maximum nonminimal (escape) hops per packet; 0 = minimal routing,
    as in all of the paper's simulations."""

    deadlock_threshold: int = 5_000
    """Cycles without any flit movement (while packets are in flight)
    after which the run aborts with a deadlock report."""

    queue_sample_period: int = 100
    """Cycles between samples of the source-queue backlog."""

    track_channel_load: bool = False
    """Record per-channel flit counts during the measurement window
    (exposed as ``SimulationResult.channel_flits``; used by the
    channel-load heatmaps)."""

    max_queue_per_node: int = 500
    """Safety valve: stop generating at a node whose backlog exceeds this
    (the run is long past saturation by then)."""

    # -- observability (see docs/OBSERVABILITY.md) ----------------------------

    channel_series_period: int = 0
    """Bucket width, in cycles, of the per-channel utilization time
    series collected during the measurement window (exposed as
    ``SimulationResult.channel_util_series``).  0 disables the series;
    the end-of-run totals remain available via ``track_channel_load``."""

    collect_router_blocked: bool = False
    """Count, per router, the measured cycles it hosted a header waiting
    for an output grant or the ejection port (exposed as
    ``SimulationResult.router_blocked_cycles``)."""

    collect_latency_histogram: bool = False
    """Record the exact creation-to-delivery latency histogram of
    measured packets (exposed as ``SimulationResult.latency_histogram``
    with exact nearest-rank percentiles)."""

    # -- fault injection and graceful degradation ----------------------------

    fault_plan: FaultPlan = FaultPlan()
    """Schedule of channel/router failures applied while the simulation
    runs (see :mod:`repro.faults`).  The default empty plan leaves the
    engine bit-identical to a fault-free build."""

    packet_timeout: int = 0
    """Per-packet watchdog: a header that has waited this many cycles
    without a grant is dropped (with a wait-for-graph diagnosis).  0
    disables the watchdog — the paper's fault-free runs rely on the
    global ``deadlock_threshold`` alone."""

    max_retries: int = 0
    """Source retries for dropped/killed packets.  After a drop, the
    source re-queues a fresh copy after a bounded exponential backoff;
    once the attempts are exhausted the packet is permanently lost."""

    retry_backoff_base: int = 32
    """Backoff before retry attempt ``k`` is ``min(base << k, cap)``
    cycles (deterministic — retries never perturb the run's RNG)."""

    retry_backoff_cap: int = 2_048
    """Upper bound on the retry backoff delay, in cycles."""

    # -- engine backend -------------------------------------------------------

    backend: str = "event"
    """Engine implementation that executes this operating point:
    ``"event"`` (the default event-driven
    :class:`~repro.simulation.engine.WormholeSimulator`) or ``"array"``
    (the numpy struct-of-arrays
    :class:`~repro.simulation.array_engine.ArrayWormholeSimulator`,
    which also powers :class:`~repro.simulation.array_engine.
    BatchSimulator`).  Both backends are proven equivalent by
    ``tests/simulation/test_engine_equivalence.py``; the array backend
    needs the optional ``numpy`` dependency (``pip install
    repro[array]``).  Part of the cache key, like every other field."""

    def __post_init__(self) -> None:
        # Number shapes first: NaN passes every comparison below, an
        # infinite rate never stops drawing arrivals, and a fractional
        # count fails deep inside the engine instead of here.
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:  # the common case costs one test
                _require_integer(name, value)
        for length in self.message_lengths:
            if type(length) is not int:
                _require_integer("message_lengths", length)
        if self.channel_bandwidth <= 0:
            raise ValueError("channel_bandwidth must be positive")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be at least 1 flit")
        if self.virtual_channels < 1:
            raise ValueError("virtual_channels must be at least 1")
        if not self.message_lengths or any(
            length < 1 for length in self.message_lengths
        ):
            raise ValueError("message_lengths must be positive")
        if self.offered_load < 0:
            raise ValueError("offered_load must be non-negative")
        if self.warmup_cycles < 0 or self.measure_cycles <= 0:
            raise ValueError("cycle counts must be positive")
        if self.drain_cycles < 0:
            raise ValueError("drain_cycles must be non-negative")
        if self.misroute_limit < 0:
            raise ValueError("misroute_limit must be non-negative")
        if self.selection_threshold < 0:
            raise ValueError("selection_threshold must be non-negative")
        # Deferred import: config loads before the selection module
        # inside the simulation package's own import sequence.
        from .selection import input_policy_names, output_policy_names

        if self.output_selection not in output_policy_names():
            raise ValueError(
                f"unknown output_selection {self.output_selection!r}; "
                f"known: {output_policy_names()}"
            )
        if self.input_selection not in input_policy_names():
            raise ValueError(
                f"unknown input_selection {self.input_selection!r}; "
                f"known: {input_policy_names()}"
            )
        if self.deadlock_threshold <= 0:
            raise ValueError("deadlock_threshold must be positive")
        if self.queue_sample_period <= 0:
            raise ValueError("queue_sample_period must be positive")
        if self.channel_series_period < 0:
            raise ValueError(
                "channel_series_period must be non-negative (0 disables)"
            )
        if isinstance(self.fault_plan, dict):
            object.__setattr__(
                self, "fault_plan", FaultPlan.from_dict(self.fault_plan)
            )
        if not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan, got {self.fault_plan!r}"
            )
        if self.packet_timeout < 0:
            raise ValueError("packet_timeout must be non-negative (0 disables)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_base <= 0 or self.retry_backoff_cap <= 0:
            raise ValueError("retry backoff base and cap must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {BACKENDS}"
            )

    # -- derived quantities --------------------------------------------------

    @property
    def cycle_time_us(self) -> float:
        """Duration of one simulator cycle in microseconds."""
        return 1.0 / self.channel_bandwidth

    @property
    def mean_message_length(self) -> float:
        return sum(self.message_lengths) / len(self.message_lengths)

    @property
    def messages_per_cycle(self) -> float:
        """Per-node probability of generating a message each cycle."""
        flits_per_cycle = self.offered_load / self.channel_bandwidth
        return flits_per_cycle / self.mean_message_length

    @property
    def generation_cycles(self) -> int:
        """Cycles during which sources generate traffic."""
        return self.warmup_cycles + self.measure_cycles

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles

    def with_load(self, offered_load: float) -> "SimulationConfig":
        """Copy of this config at a different offered load."""
        from dataclasses import replace

        return replace(self, offered_load=offered_load)

    def with_seed(self, seed: int) -> "SimulationConfig":
        from dataclasses import replace

        return replace(self, seed=seed)

    def with_selection(
        self,
        output_selection: str,
        selection_threshold: Optional[int] = None,
    ) -> "SimulationConfig":
        """Copy of this config under a different output-selection
        policy (see docs/SELECTION.md)."""
        from dataclasses import replace

        kwargs: Dict[str, object] = {"output_selection": output_selection}
        if selection_threshold is not None:
            kwargs["selection_threshold"] = selection_threshold
        return replace(self, **kwargs)

    def with_backend(self, backend: str) -> "SimulationConfig":
        """Copy of this config executed by a different engine backend."""
        from dataclasses import replace

        return replace(self, backend=backend)

    def with_faults(self, fault_plan: FaultPlan) -> "SimulationConfig":
        """Copy of this config under a different fault schedule."""
        from dataclasses import replace

        return replace(self, fault_plan=fault_plan)

    def with_observability(
        self,
        channel_series_period: int = 100,
        collect_router_blocked: bool = True,
        collect_latency_histogram: bool = True,
    ) -> "SimulationConfig":
        """Copy of this config with the metrics collectors switched on
        (the ``repro trace`` defaults; see docs/OBSERVABILITY.md)."""
        from dataclasses import replace

        return replace(
            self,
            channel_series_period=channel_series_period,
            collect_router_blocked=collect_router_blocked,
            collect_latency_histogram=collect_latency_histogram,
        )

    # -- stable serialization ------------------------------------------------
    #
    # The experiment runner keys its on-disk result cache by a content
    # hash of the full operating point; these helpers give the config a
    # canonical, field-order-independent byte representation so the hash
    # is stable across processes and Python versions.  The config is
    # frozen, so its canonical form is computed once per object; the
    # campaign's points share one config per trial and walk it once.

    def to_dict(self) -> Dict[str, object]:
        """All fields as JSON-serializable values (tuples become lists)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, FaultPlan):
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        if "message_lengths" in kwargs:
            kwargs["message_lengths"] = tuple(kwargs["message_lengths"])  # type: ignore[arg-type]
        if isinstance(kwargs.get("fault_plan"), dict):
            kwargs["fault_plan"] = FaultPlan.from_dict(kwargs["fault_plan"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]

    @cached_property
    def _canonical(self) -> Tuple[Dict[str, object], str]:
        """:meth:`to_dict` and its :func:`canonical_dumps`, computed once
        per object.  The dict is shared, never handed out: callers that
        want one to keep get a fresh :meth:`to_dict`."""
        data = self.to_dict()
        return data, canonical_dumps(data)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return self._canonical[1]

    def stable_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json`."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def _require_integer(name: str, value: object) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer
    (:func:`operator.index` accepts it)."""
    try:
        operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


# The fields ``__post_init__`` shape-checks, by the type of their
# default: floats must be finite, ints integral (bools are neither).
_FLOAT_FIELDS = tuple(
    f.name for f in fields(SimulationConfig) if type(f.default) is float
)
_INT_FIELDS = tuple(
    f.name for f in fields(SimulationConfig) if type(f.default) is int
)
