"""Property-based tests for the output-selection policies: on arbitrary
candidate sets and arbitrary (including absent or partial) congestion
signals, every policy returns a member of the offered set — selection
may permute preference, never invent a channel."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.routing.selection import (
    SELECTION_POLICIES,
    make_selection_policy,
)
from repro.topology import Direction

DIRECTIONS = [Direction(dim, sign) for dim in range(3) for sign in (-1, 1)]


class ArbitraryView:
    """A congestion view with arbitrary (possibly missing) signals."""

    def __init__(self, dst, credits, occupancy):
        self._dst = dst
        self._credits = credits
        self._occupancy = occupancy

    def downstream(self, node, direction):
        return self._dst.get(direction)

    def free_credits(self, node):
        return self._credits.get(node)

    def occupancy(self, node):
        return self._occupancy.get(node)


class FakePacket:
    head_node = 0

    def __init__(self, head_direction=None):
        self.head_direction = head_direction  # read by zigzag only


@st.composite
def selection_case(draw):
    options = draw(
        st.lists(
            st.sampled_from(DIRECTIONS), min_size=1, max_size=6, unique=True
        )
    )
    # Each candidate direction independently has a downstream node or
    # not; each known node independently has credit/occupancy data or
    # not — covering full, partial, and absent congestion signals.
    dst = {}
    credits = {}
    occupancy = {}
    for i, d in enumerate(options):
        if draw(st.booleans()):
            dst[d] = 100 + i
            if draw(st.booleans()):
                credits[100 + i] = draw(st.integers(0, 8))
            if draw(st.booleans()):
                occupancy[100 + i] = draw(st.integers(0, 8))
    bound = draw(st.booleans())
    threshold = draw(st.integers(0, 4))
    calls = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    return options, ArbitraryView(dst, credits, occupancy), bound, threshold, calls, seed


@given(name=st.sampled_from(sorted(SELECTION_POLICIES)), case=selection_case())
def test_policies_return_only_offered_candidates(name, case):
    options, view, bound, threshold, calls, seed = case
    policy = make_selection_policy(name, threshold=threshold)
    if bound:
        policy.bind(view)
    rng = random.Random(seed)
    # Half the cases arrive over one of the offered directions.
    packet = FakePacket(options[seed % len(options)] if seed % 2 else None)
    # Repeated calls also exercise the stateful rotation pointers.
    for _ in range(calls):
        choice = policy(list(options), packet, rng)
        assert choice in options, (
            f"{policy!r} returned {choice} outside {options}"
        )


@given(case=selection_case())
def test_singleton_candidate_is_always_chosen(case):
    options, view, bound, threshold, _, seed = case
    only = options[0]
    rng = random.Random(seed)
    for name in SELECTION_POLICIES:
        policy = make_selection_policy(name, threshold=threshold)
        if bound:
            policy.bind(view)
        assert policy([only], FakePacket(), rng) == only
