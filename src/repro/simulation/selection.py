"""Input and output selection policies (Section 6).

When several headers wait for the same free output channel, the *input
selection policy* arbitrates; the paper uses **local first-come-first-
served** (earliest arrival at the router wins), which is fair and
prevents indefinite postponement.  When one header may choose among
several free output channels, the *output selection policy* decides; the
paper uses **xy** — the channel along the lowest dimension ([19] studies
these policies in depth).

The input policies live here.  Every output policy is a
:class:`~repro.routing.selection.policies.SelectionPolicy` class in the
one registry ``repro.routing.selection.SELECTION_POLICIES`` (see
docs/SELECTION.md); :func:`make_output_policy` builds the configured one
for an engine.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence

from ..routing.selection.policies import (
    SelectionPolicy,
    make_selection_policy,
    selection_policy_names,
)
from .packet import Packet

InputSelector = Callable[[Sequence[Packet], random.Random], Packet]


def fcfs_input_selection(
    contenders: Sequence[Packet], rng: random.Random
) -> Packet:
    """Local first-come-first-served: earliest header arrival wins (paper).

    Ties (same-cycle arrivals) break deterministically on packet id.
    """
    return min(contenders, key=lambda p: (p.header_wait_since, p.pid))


def random_input_selection(
    contenders: Sequence[Packet], rng: random.Random
) -> Packet:
    """Pick a contender uniformly at random (can postpone indefinitely)."""
    return contenders[rng.randrange(len(contenders))]


INPUT_POLICIES: Dict[str, InputSelector] = {
    "fcfs": fcfs_input_selection,
    "random": random_input_selection,
}


def get_input_policy(name: str) -> InputSelector:
    try:
        return INPUT_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown input selection policy {name!r}; "
            f"known: {sorted(INPUT_POLICIES)}"
        ) from None


def input_policy_names() -> List[str]:
    return sorted(INPUT_POLICIES)


output_policy_names = selection_policy_names


def make_output_policy(config) -> SelectionPolicy:
    """A fresh instance of the policy ``config.output_selection`` names
    (per-run policy state — round-robin pointers — never leaks between
    simulators)."""
    return make_selection_policy(
        config.output_selection, threshold=config.selection_threshold
    )
