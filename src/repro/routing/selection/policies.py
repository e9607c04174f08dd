"""Output-selection policies over the legal candidate set.

The paper fixes output selection to the *xy* rule — the free candidate
along the lowest dimension.  This module makes that choice pluggable: a
:class:`SelectionPolicy` picks one direction from the free legal
candidates the routing algorithm produced, optionally consulting a
:class:`~repro.routing.selection.congestion.CongestionView` for
downstream buffer state.

**Deadlock safety.**  A policy only ever *permutes* the candidate set:
it returns one of the directions it was offered, and those directions
were produced by the (turn-model-restricted, possibly fault-masked,
possibly escape-VC) routing algorithm.  No prohibited turn can be
introduced, no escape resource bypassed, so every turn-model and
escape-channel guarantee is untouched regardless of policy.  See
docs/SELECTION.md for the full argument.

**Engine contract.**  ``select`` is only invoked with a non-empty
``options`` sequence — the engine parks headers whose free candidate
set is empty, identically in the reference and optimised engines — so
stateful policies (round-robin pointers) stay bit-identical across
engines.  The engine builds a fresh policy instance per simulator, so
internal state never leaks between runs.

**Fallback contract.**  Congestion-aware policies fall back to the
static xy preference whenever their signal is unavailable: no bound
view, a dead candidate channel, or a downstream router with no live
outputs.  They never crash on missing data and never silently bias
toward the candidates that happen to have data.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from ...topology.base import Direction
from .congestion import CongestionView


def static_preference(options: Sequence[Direction]) -> Direction:
    """The paper's xy rule: lowest dimension first, negative sign first
    (``Direction`` orders by ``(dim, sign)``, so plain ``min`` is it)."""
    return min(options)


class SelectionPolicy:
    """Picks one output direction from the free legal candidates."""

    name: str = "?"
    uses_congestion: bool = False

    def __init__(self) -> None:
        self.view: Optional[CongestionView] = None

    def bind(self, view: Optional[CongestionView]) -> None:
        """Attach the congestion view (the engine does this once, and
        only for policies that declare ``uses_congestion``)."""
        self.view = view

    def select(
        self,
        options: Sequence[Direction],
        packet,
        rng: random.Random,
    ) -> Direction:
        raise NotImplementedError

    def __call__(
        self,
        options: Sequence[Direction],
        packet,
        rng: random.Random,
    ) -> Direction:
        # The engine's arbitration loop calls the policy directly.
        return self.select(options, packet, rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class XYPreference(SelectionPolicy):
    """The paper's default: the candidate along the lowest dimension.

    Bit-identical to the pre-policy engine (the golden-fingerprint
    regression pins this): same choice, no RNG draw, no congestion
    machinery ever constructed.
    """

    name = "xy"

    def select(self, options, packet, rng):
        return static_preference(options)


class RoundRobin(SelectionPolicy):
    """Rotate through the candidates in (dim, sign) order.

    A stateless-signal path-diversity baseline: successive decisions at
    the same policy spread worms across dimensions without consulting
    any congestion data (and without touching the RNG).
    """

    name = "round-robin"

    def __init__(self) -> None:
        super().__init__()
        self._pointer = 0

    def select(self, options, packet, rng):
        ordered = sorted(options)
        choice = ordered[self._pointer % len(ordered)]
        self._pointer += 1
        return choice


class MaxFreeCredits(SelectionPolicy):
    """Pick the candidate whose downstream router has the most free
    buffer slots (Garnet's adaptive heuristic, SNIPPETS.md Snippet 2).

    Ties rotate through the tied candidates round-robin, as in Garnet's
    per-port tie-break counter.  Missing data for *any* candidate falls
    back to the static preference — scoring only the candidates that
    happen to have data would silently bias against the rest.
    """

    name = "max-credits"
    uses_congestion = True

    def __init__(self) -> None:
        super().__init__()
        self._pointer = 0

    def select(self, options, packet, rng):
        view = self.view
        if view is None:
            return static_preference(options)
        node = packet.head_node
        best: List[Direction] = []
        best_credits = -1
        for direction in sorted(options):
            dst = view.downstream(node, direction)
            credits = None if dst is None else view.free_credits(dst)
            if credits is None:
                return static_preference(options)
            if credits > best_credits:
                best = [direction]
                best_credits = credits
            elif credits == best_credits:
                best.append(direction)
        if len(best) == 1:
            return best[0]
        choice = best[self._pointer % len(best)]
        self._pointer += 1
        return choice


class ThresholdReroute(SelectionPolicy):
    """Stay on the static preference until its downstream occupancy
    crosses a threshold, then switch to the least-loaded candidate
    (the per-port byte-counter rerouting of SNIPPETS.md Snippet 1).

    Below the threshold this is exactly :class:`XYPreference`, so light
    traffic keeps the paper's deterministic path behaviour; the policy
    only spends adaptivity once the preferred path is demonstrably
    backed up.  Missing data anywhere falls back to the preference.
    """

    name = "threshold"
    uses_congestion = True

    def __init__(self, threshold: int = 2) -> None:
        super().__init__()
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold

    def select(self, options, packet, rng):
        preferred = static_preference(options)
        view = self.view
        if view is None or len(options) == 1:
            return preferred
        node = packet.head_node
        dst = view.downstream(node, preferred)
        occupancy = None if dst is None else view.occupancy(dst)
        if occupancy is None or occupancy < self.threshold:
            return preferred
        best = preferred
        best_credits: Optional[int] = None
        for direction in sorted(options):
            d_dst = view.downstream(node, direction)
            credits = None if d_dst is None else view.free_credits(d_dst)
            if credits is None:
                return preferred
            if best_credits is None or credits > best_credits:
                best = direction
                best_credits = credits
        return best


class RandomChoice(SelectionPolicy):
    """Pick uniformly among the candidates, as offered (one
    ``rng.randrange`` draw from the simulation's RNG per decision — an
    ablation alternative; the array backend runs it as a whole
    event-engine run)."""

    name = "random"

    def select(self, options, packet, rng):
        return options[rng.randrange(len(options))]


class ZigZag(SelectionPolicy):
    """Prefer a different dimension than the previous hop, the static
    preference within it (spreads worms diagonally; an ablation
    alternative).  Before the first hop it is :class:`XYPreference`."""

    name = "zigzag"

    def select(self, options, packet, rng):
        last = packet.head_direction
        if last is not None:
            other = [d for d in options if d.dim != last.dim]
            if other:
                return static_preference(other)
        return static_preference(options)


#: Every output-selection policy, by ``config.output_selection`` name —
#: the only registry.
SELECTION_POLICIES: Dict[str, Callable[..., SelectionPolicy]] = {
    policy.name: policy
    for policy in (
        XYPreference,
        RoundRobin,
        MaxFreeCredits,
        ThresholdReroute,
        RandomChoice,
        ZigZag,
    )
}


def selection_policy_names() -> List[str]:
    return sorted(SELECTION_POLICIES)


def make_selection_policy(name: str, threshold: int = 2) -> SelectionPolicy:
    """A fresh policy instance (per-run state must never be shared
    between simulators — determinism depends on it)."""
    factory = SELECTION_POLICIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown selection policy {name!r}; "
            f"known: {selection_policy_names()}"
        )
    if factory is ThresholdReroute:
        return ThresholdReroute(threshold)
    return factory()
