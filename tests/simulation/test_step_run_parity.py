"""``step()`` must do exactly what one ``run()`` iteration does.

Historically ``step()`` skipped the per-cycle bookkeeping ``run()``
performed — backlog sampling and the global deadlock watchdog — so a
stepped simulation ended with empty backlog samples and could sail past
a deadlock undetected.  Both now share ``_after_cycle``; these tests pin
the parity.
"""

from repro.analysis.runner import make_pattern, parse_topology_spec
from repro.routing.registry import make_algorithm
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WormholeSimulator


def build(
    config, topology_spec="mesh:5x5", algorithm="west-first", pattern="uniform"
):
    topology = parse_topology_spec(topology_spec)
    return WormholeSimulator(
        make_algorithm(algorithm, topology),
        make_pattern(pattern, topology),
        config,
    )


class TestStepRunParity:
    def test_stepping_matches_running(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=300, seed=3
        )
        ran = build(config).run()
        stepped_sim = build(config)
        for _ in range(config.total_cycles):
            stepped_sim.step()
        stepped = stepped_sim.finalize()
        assert stepped.to_dict() == ran.to_dict()

    def test_stepping_matches_running_with_streaming_worms(self):
        # Paper lengths on transpose: most flits travel in 200-flit
        # worms the engine fast-forwards, and the window closes with
        # some of them still asleep — finalize() settles what they are
        # owed, exactly as run() does.
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=500,
            seed=7, track_channel_load=True,
        )
        spec = dict(topology_spec="mesh:8x8", pattern="transpose")
        ran_sim = build(config, **spec)
        ran = ran_sim.run()
        stepped_sim = build(config, **spec)
        for _ in range(config.total_cycles):
            stepped_sim.step()
        asleep = len(stepped_sim.dormant)
        stepped = stepped_sim.finalize()
        assert stepped.to_dict() == ran.to_dict()
        assert asleep > len(stepped_sim.dormant)  # finalize woke sleepers
        assert stepped_sim.bulk_flit_hops == ran_sim.bulk_flit_hops > 0
        assert stepped_sim.worm_steps == ran_sim.worm_steps

    def test_step_samples_backlog(self):
        config = SimulationConfig(
            offered_load=2.0, warmup_cycles=10, measure_cycles=100,
            seed=1, queue_sample_period=20,
        )
        sim = build(config)
        for _ in range(config.total_cycles):
            sim.step()
        expected = len(build(config).run().backlog_samples)
        assert len(sim.result.backlog_samples) == expected
        assert expected > 0

    def test_step_trips_deadlock_watchdog(self):
        # Unrestricted minimal routing at high load deadlocks (the
        # paper's Figure 1 scenario): stepping past the silence
        # threshold must flag it on the same cycle run() does.
        from repro.core import TurnModel
        from repro.routing import TurnRestrictedMinimal
        from repro.topology import Mesh2D
        from repro.traffic import UniformPattern

        config = SimulationConfig(
            offered_load=8.0, warmup_cycles=0, measure_cycles=30_000,
            deadlock_threshold=1_200, seed=3,
        )

        def unrestricted():
            mesh = Mesh2D(6, 6)
            algorithm = TurnRestrictedMinimal(
                mesh, TurnModel.from_prohibited("none", 2, set())
            )
            return WormholeSimulator(
                algorithm, UniformPattern(mesh), config
            )

        ran = unrestricted().run()
        assert ran.deadlock
        stepped_sim = unrestricted()
        for _ in range(config.total_cycles):
            stepped_sim.step()
            if stepped_sim.result.deadlock:
                break
        assert stepped_sim.result.deadlock
        assert stepped_sim.result.deadlock_cycle == ran.deadlock_cycle

    def test_finalize_folds_end_of_run_state(self):
        config = SimulationConfig(
            offered_load=2.0, warmup_cycles=20, measure_cycles=150, seed=5
        )
        sim = build(config)
        for _ in range(config.total_cycles):
            sim.step()
        result = sim.finalize()
        assert result.inflight_at_end == len(sim.active)
        ran = build(config).run()
        assert result.inflight_at_end == ran.inflight_at_end
        assert result.max_stall_age_cycles == ran.max_stall_age_cycles
