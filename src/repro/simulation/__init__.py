"""Flit-level wormhole network simulation (the Section 6 apparatus)."""

from .array_engine import (
    ArrayWormholeSimulator,
    BatchSimulator,
    make_simulator,
    numpy_available,
    vectorized_envelope,
)
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
