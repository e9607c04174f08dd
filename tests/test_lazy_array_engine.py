"""numpy loads with the first array point, never before.

The array backend is the only user of numpy, so an event-only process
(importing the package, running event points, serving a warm cache, the
CLI) must not import :mod:`repro.simulation.array_engine` or numpy.
Each check runs in a fresh interpreter, since this test process has
loaded both long ago.  The array legs skip when numpy is not installed.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.simulation

SRC = Path(__file__).resolve().parents[1] / "src"
ARRAY_MODULES = ("numpy", "repro.simulation.array_engine")

needs_numpy = pytest.mark.skipif(
    not repro.simulation.numpy_available(), reason="numpy not installed"
)

# A point small enough that a fresh interpreter runs it in well under a
# second.
POINT = """
from repro.analysis import PointSpec
from repro.simulation import SimulationConfig

config = SimulationConfig(
    offered_load=0.5, warmup_cycles=50, measure_cycles=200, seed=3
)

def spec(pattern="uniform", backend="event", seed=3):
    return PointSpec(
        "mesh:4x4", "west-first", pattern,
        config.with_backend(backend).with_seed(seed),
    )
"""


def fresh(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; return the ``out`` dict it
    fills, plus ``loaded``: which of :data:`ARRAY_MODULES` it imported."""
    script = "\n".join(
        [
            "import json, sys",
            "out = {}",
            textwrap.dedent(POINT),
            textwrap.dedent(body),
            f"out['loaded'] = [m for m in {ARRAY_MODULES!r} if m in sys.modules]",
            "print(json.dumps(out))",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestEventOnlyProcessesNeverLoadNumpy:
    def test_importing_the_package(self):
        assert fresh("import repro, repro.analysis, repro.cli")["loaded"] == []

    def test_one_event_point(self):
        out = fresh("out['packets'] = spec().execute().generated_packets")
        assert out["packets"] > 0
        assert out["loaded"] == []

    def test_a_runner_batch_cold_then_warm(self, tmp_path):
        out = fresh(
            f"""
            from repro.analysis import ParallelSweepRunner

            specs = [spec(pattern) for pattern in ("uniform", "transpose")]
            runs = []
            for _ in range(2):
                runner = ParallelSweepRunner(jobs=1, cache={str(tmp_path)!r})
                results = runner.run_points(specs)
                runs.append(results)
                out.setdefault("cached", []).append(runner.stats.cached)
            out["equal"] = runs[0] == runs[1]
            """
        )
        assert out["cached"] == [0, 2]
        assert out["equal"]
        assert out["loaded"] == []

    def test_cli_simulate(self):
        out = fresh(
            """
            import repro.cli

            out["code"] = repro.cli.main([
                "simulate", "xy", "--topology", "mesh:4x4", "--load", "0.5",
                "--warmup", "50", "--cycles", "200",
            ])
            """
        )
        assert out["code"] == 0
        assert out["loaded"] == []


class TestLazyExports:
    def test_the_lazy_names_are_the_array_engine_objects(self):
        from repro.simulation import array_engine

        for name in ("ArrayWormholeSimulator", "BatchSimulator", "numpy_available"):
            assert getattr(repro, name) is getattr(array_engine, name)
        for name in (
            "ArrayWormholeSimulator",
            "BatchSimulator",
            "numpy_available",
            "vectorized_envelope",
        ):
            assert name in repro.simulation.__all__
            assert getattr(repro.simulation, name) is getattr(array_engine, name)

    def test_the_lazy_names_are_listed(self):
        for name in ("ArrayWormholeSimulator", "BatchSimulator", "numpy_available"):
            assert name in dir(repro)
            assert name in repro.__all__
        assert "vectorized_envelope" in dir(repro.simulation)

    def test_an_unknown_attribute_still_raises(self):
        for module in (repro, repro.simulation):
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name  # noqa: B018
            assert not hasattr(module, "vectorized_envelopes")

    def test_star_import_resolves_every_name(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    @needs_numpy
    def test_building_an_array_point_loads_numpy(self):
        out = fresh(
            """
            from repro.simulation import make_simulator

            algorithm, pattern = spec().build()
            out["before"] = [m for m in sys.modules if m == "numpy"]
            make_simulator(algorithm, pattern, config.with_backend("array"))
            """
        )
        assert out["before"] == []
        assert out["loaded"] == list(ARRAY_MODULES)


class TestPoolPreImport:
    @needs_numpy
    def test_the_parent_loads_the_array_engine_before_forking(self):
        out = fresh(
            """
            from repro.analysis import ParallelSweepRunner, SupervisedPool

            seen = []
            init = SupervisedPool.__init__

            def spy(self, *args, **kwargs):
                seen.append("repro.simulation.array_engine" in sys.modules)
                init(self, *args, **kwargs)

            SupervisedPool.__init__ = spy
            specs = [spec(backend="array", seed=s) for s in (1, 2, 3)]
            specs += [spec("transpose", seed=s) for s in (1, 2)]
            pooled = ParallelSweepRunner(jobs=2, keep_going=True).run_points(
                specs
            )
            SupervisedPool.__init__ = init
            inline = ParallelSweepRunner(jobs=1).run_points(specs)
            out["seen"] = seen
            out["equal"] = pooled == inline
            """
        )
        # Three array points at two jobs: a shard pass, then the singles.
        assert out["seen"] == [True, True]
        assert out["equal"]
