"""An exact-offset reference for turn-model routing, for checking
:class:`~repro.routing.turn_restricted.TurnRestrictedMinimal` and its
derived clamp.

It shares no code with the class: the offset is never clamped, the
search recurses on ``TurnModel.is_allowed`` over :class:`Direction`
objects, and the node a query stands at is only used to ask whether a
neighbour exists.  Imported by ``tests/routing/test_turn_restricted.py``
(64 seeded minimal 3D sets) and ``tests/routing/wide_decision_keys.py``
(all 4,096 of them).
"""

import itertools
import random
from functools import lru_cache

from repro.core import TurnModel
from repro.core.cycles import abstract_cycles
from repro.topology.base import NEGATIVE, POSITIVE, Direction


def minimal_3d_sets():
    """The 4,096 minimal 3D prohibition sets: one turn from each of the
    six abstract cycles, as turn models in a fixed order."""
    picks = itertools.product(*(cycle.turns for cycle in abstract_cycles(3)))
    return [
        TurnModel.from_prohibited(f"minimal-3d-{i}", 3, pick)
        for i, pick in enumerate(picks)
    ]


def seeded_minimal_3d_sets(count, seed):
    """``count`` of :func:`minimal_3d_sets`, drawn without replacement."""
    return random.Random(seed).sample(minimal_3d_sets(), count)


class ExactTurnRouting:
    """Minimal and escape answers of the maximal turn-restricted routing
    under ``model``, from the exact offset vector."""

    def __init__(self, model):
        self.model = model
        self.allowed = lru_cache(maxsize=None)(model.is_allowed)
        self.minimal = lru_cache(maxsize=None)(self._minimal)

    def _minimal(self, offset, heading=None):
        """The productive directions, legal after ``heading`` (None:
        injected), from which the journey can still finish."""
        out = []
        for dim, delta in enumerate(offset):
            if not delta:
                continue
            direction = Direction(dim, POSITIVE if delta > 0 else NEGATIVE)
            if heading is not None and not self.allowed(heading, direction):
                continue
            closer = list(offset)
            closer[dim] -= direction.sign
            if not any(closer) or self.minimal(tuple(closer), direction):
                out.append(direction)
        return out

    def escape(self, topology, node, offset, heading=None):
        """The non-productive, turn-legal directions out of ``node`` into
        a state that can still finish minimally."""
        out = []
        for direction in topology.directions():
            delta = offset[direction.dim]
            if delta and (delta > 0) == (direction.sign > 0):
                continue  # productive
            if heading is not None and not self.allowed(heading, direction):
                continue
            if topology.neighbor(node, direction) is None:
                continue
            farther = list(offset)
            farther[direction.dim] -= direction.sign
            if any(farther) and self.minimal(tuple(farther), direction):
                out.append(direction)
        return out


def assert_matches_exact_reference(algorithm):
    """Every offset vector the algorithm's mesh holds, from every
    heading (injection included): its minimal and escape answers equal
    :class:`ExactTurnRouting`'s.  Each offset is asked at the node that
    realises it nearest the mesh's centre, where the most neighbours
    exist for escapes to take."""
    topology = algorithm.topology
    reference = ExactTurnRouting(algorithm.model)
    headings = (None,) + tuple(topology.directions())
    dims = topology.dims
    for offset in itertools.product(*(range(1 - k, k) for k in dims)):
        place = [
            (max(0, -x) + k - 1 - max(0, x)) // 2 for x, k in zip(offset, dims)
        ]
        node = topology.node_at(place)
        dest = topology.node_at([c + x for c, x in zip(place, offset)])
        for heading in headings:
            want = reference.minimal(offset, heading) if any(offset) else []
            got = algorithm.candidates(node, dest, heading)
            assert got == want, (algorithm.model, offset, heading)
            want = reference.escape(topology, node, offset, heading)
            got = algorithm.escape_candidates(node, dest, heading)
            assert got == want, (algorithm.model, offset, heading)
