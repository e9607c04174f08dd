"""Pluggable output-selection policies and their congestion signals
(docs/SELECTION.md).

The routing algorithm produces the *legal* candidate outputs; a
:class:`SelectionPolicy` picks one among the free legal candidates,
optionally consulting a :class:`CongestionView` of downstream buffer
state.  Selection only permutes the legal set, so the turn-model and
escape-channel deadlock guarantees are untouched by any policy here.
"""

from .congestion import CongestionView, EngineCongestionView
from .policies import (
    SELECTION_POLICIES,
    MaxFreeCredits,
    RandomChoice,
    RoundRobin,
    SelectionPolicy,
    ThresholdReroute,
    XYPreference,
    ZigZag,
    make_selection_policy,
    selection_policy_names,
    static_preference,
)

__all__ = [
    "CongestionView",
    "EngineCongestionView",
    "MaxFreeCredits",
    "RandomChoice",
    "RoundRobin",
    "SELECTION_POLICIES",
    "SelectionPolicy",
    "ThresholdReroute",
    "XYPreference",
    "ZigZag",
    "make_selection_policy",
    "selection_policy_names",
    "static_preference",
]
