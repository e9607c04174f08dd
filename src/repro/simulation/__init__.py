"""Flit-level wormhole network simulation (the Section 6 apparatus).

The array-backend names resolve on first access: importing this
package does not import numpy.
"""

from .backend import make_simulator
from .config import BACKENDS, SimulationConfig
from .deadlock import DeadlockReport, build_wait_for_graph, detect_deadlock
from .engine import WormholeSimulator
from .metrics import SimulationResult
from .packet import ChannelHold, Packet, PacketState
from .selection import (
    INPUT_POLICIES,
    fcfs_input_selection,
    get_input_policy,
    input_policy_names,
    make_output_policy,
    output_policy_names,
    random_input_selection,
)

__all__ = [
    "ArrayWormholeSimulator",
    "BACKENDS",
    "BatchSimulator",
    "ChannelHold",
    "DeadlockReport",
    "INPUT_POLICIES",
    "Packet",
    "PacketState",
    "SimulationConfig",
    "SimulationResult",
    "WormholeSimulator",
    "build_wait_for_graph",
    "detect_deadlock",
    "fcfs_input_selection",
    "get_input_policy",
    "input_policy_names",
    "make_output_policy",
    "make_simulator",
    "numpy_available",
    "output_policy_names",
    "random_input_selection",
    "vectorized_envelope",
]

#: Exported from :mod:`.array_engine`, which imports numpy: loaded on
#: first access (PEP 562), so event-only processes never pay for it.
_ARRAY_NAMES = (
    "ArrayWormholeSimulator",
    "BatchSimulator",
    "numpy_available",
    "vectorized_envelope",
)


def __getattr__(name: str):
    if name in _ARRAY_NAMES:
        from . import array_engine

        return getattr(array_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ARRAY_NAMES))
