"""A per-cycle probe of the sleeper facts the quiet-cycle skip relies on.

``WormholeSimulator.run`` decides in O(1) whether a cycle is quiet by
comparing set sizes, which is only sound if

* every parked header is still waiting (``_parked`` is a subset of
  ``waiting``), so ``len(_parked) == len(waiting)`` means every waiting
  header is parked;
* every dormant worm is still active (``dormant`` is a subset of
  ``active``), so ``len(dormant) == len(active)`` means no worm moves;
* every sleeping streaming worm is on the wake calendar at or after
  its first owed cycle, so a cycle that is not a ``_wake_at`` key wakes
  nobody;
* every sleeping worm is alone on its physical links: each lane of each
  link it holds is its own or free, and it holds no link twice — so
  with virtual channels no other worm's flit can take a cycle of its
  links — and, with virtual channels, ``_link_sleeper`` maps exactly
  the sleepers' links (the map a sibling-lane grant wakes through).

:class:`SleeperProbe` checks all four after every stepped cycle and
every quiet jump of one simulator.  It also classifies each cycle it
sees stepped against the definition of a skippable cycle, written out
here from the sets themselves rather than their sizes, so a test can
require that ``run()`` jumps over exactly the skippable cycles: none
left stepped, and as many skipped as a ``step()`` loop meets.

Import it as ``from sleeper_probe import SleeperProbe`` (the
repository-root ``conftest.py`` puts this directory on ``sys.path``).
"""

from typing import List, Tuple


def skippable(sim) -> bool:
    """Whether no stage can act on ``sim.cycle`` and neither the packet
    watchdog nor the deadlock check fires on it."""
    cycle, config = sim.cycle, sim.config
    life = sim._life
    heap = life.arrival_heap
    if (
        sim.pending_nodes
        or any(packet not in sim._parked for packet in sim.waiting)
        or any(packet not in sim.dormant for packet in sim.active)
        or cycle in sim._wake_at
        or cycle in sim._fault_schedule
        or cycle in life.retry_at
        or (cycle < config.generation_cycles and heap and heap[0][0] <= cycle)
    ):
        return False
    if config.packet_timeout > 0 and any(
        cycle - packet.header_wait_since > config.packet_timeout
        for packet in sim.waiting
    ):
        return False
    return not (
        not sim._owed
        and (sim.active or sim.waiting)
        and cycle - sim.last_progress > config.deadlock_threshold
    )


class SleeperProbe:
    """Wrap ``sim.step`` and ``sim._skip_quiet`` to check the sleeper
    contract around each.

    ``jumps`` lists each quiet jump as ``(first skipped cycle, next
    stepped cycle)``; ``stepped_skippable`` counts the stepped cycles
    that were :func:`skippable`."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.checks = 0
        self.stepped_skippable = 0
        self.jumps: List[Tuple[int, int]] = []
        step, skip = sim.step, sim._skip_quiet

        def probed_step() -> bool:
            self.stepped_skippable += skippable(sim)
            aborted = step()
            self.check()
            return aborted

        def probed_skip(cycle: int) -> None:
            skip(cycle)
            if sim.cycle > cycle:
                self.jumps.append((cycle, sim.cycle))
            self.check()

        sim.step = probed_step
        sim._skip_quiet = probed_skip
        self.check()

    def check(self) -> None:
        sim = self.sim
        assert sim._parked.issubset(sim.waiting), "a parked header left waiting"
        assert sim.dormant.issubset(sim.active), "a dormant worm left active"
        for packet, owed in sim._owed.items():
            assert any(
                due >= owed and packet in worms
                for due, worms in sim._wake_at.items()
            ), f"sleeping worm {packet.pid} has no wake at or after {owed}"
        num_vc, alloc = sim.num_vc, sim.channel_alloc
        links = {}
        for packet in sim._owed:
            mine = [hold.channel_id // num_vc for hold in packet.holds]
            assert len(set(mine)) == len(mine), (
                f"sleeping worm {packet.pid} holds a link twice"
            )
            for link in mine:
                for cid in range(link * num_vc, (link + 1) * num_vc):
                    assert alloc[cid] is None or alloc[cid] is packet, (
                        f"sleeping worm {packet.pid} shares link {link}"
                    )
                links[link] = packet
        assert sim._link_sleeper == (links if num_vc > 1 else {}), (
            "the link-sleeper map is not the sleepers' links"
        )
        self.checks += 1

    def jumped_to(self, cycle: int) -> bool:
        """Whether a quiet jump ended exactly at ``cycle`` (the cycle
        before it was skipped)."""
        return any(end == cycle for _, end in self.jumps)
