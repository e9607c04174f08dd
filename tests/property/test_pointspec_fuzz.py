"""Hostile :class:`PointSpec` fields through the Python API (ROADMAP item 9).

Algorithm and pattern names are fuzzed (empty, case, whitespace,
unicode, names from the other registry, not strings at all), and the
config need not be a :class:`SimulationConfig`.  Driven through
``execute()``, ``cache_key()`` and a cached runner, every case is a
result, or a ``ValueError``/``TypeError`` raised before any simulation
frame; a refused point never touches the cache.
"""

import traceback
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

import repro.simulation
from repro.analysis.runner import PATTERN_NAMES, ParallelSweepRunner, PointSpec
from repro.routing import algorithm_names
from repro.simulation.config import SimulationConfig
from repro.simulation.selection import output_policy_names

CONFIG = SimulationConfig(offered_load=0.5, warmup_cycles=5, measure_cycles=30, seed=1)
SIMULATION = str(Path(repro.simulation.__file__).parent)

registered = algorithm_names() + list(PATTERN_NAMES) + output_policy_names()
names = st.one_of(
    st.sampled_from(registered),
    st.sampled_from(registered).map(str.upper),
    st.sampled_from(registered).map(lambda name: f" {name}\t"),
    st.sampled_from(["", " ", "\n", "x y", "west_first", "ｘｙ", "ẋy", "٣"]),
    st.text(max_size=8),
)
not_strings = st.sampled_from([None, 0, 1.5, b"xy", ("xy",)])
configs = st.one_of(
    st.just(CONFIG),
    st.sampled_from([None, {}, CONFIG.to_dict(), 0, 7, "config"]),
)


def outcome(run):
    """``run()``'s value, or ``None`` when it refused the point cleanly: a
    ``ValueError``/``TypeError`` none of whose frames is inside the
    simulation package."""
    try:
        return run()
    except Exception as error:  # noqa: BLE001 - the property is the type
        frames = traceback.extract_tb(error.__traceback__)
        clean = isinstance(error, (ValueError, TypeError)) and not any(
            frame.filename.startswith(SIMULATION) for frame in frames
        )
        assert clean, "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        return None


# One topology of each kind, so every registered algorithm has a
# network it accepts.
TOPOLOGIES = st.sampled_from(["mesh:4x4", "cube:4", "torus:4x2"])


@given(TOPOLOGIES, names | not_strings, names | not_strings, configs)
@example("mesh:4x4", "xy", "uniform", None)
@example("mesh:4x4", "xy", "uniform", {})
@example("mesh:4x4", "xy", "uniform", 7)
@example("mesh:4x4", "uniform", "xy", CONFIG)
@example("mesh:4x4", "", "", CONFIG)
@example("mesh:4x4", " XY ", "uniform", CONFIG)
@example("mesh:4x4", "xy", "Uniform", CONFIG)
@example("mesh:4x4", None, "uniform", CONFIG)
@example("cube:4", "E-CUBE", "reverse-flip", CONFIG)
@example("torus:4x2", "dateline", "uniform", CONFIG)
def test_execute_and_cache_key_refuse_cleanly(topology, algorithm, pattern, config):
    def spec():
        return PointSpec(topology, algorithm, pattern, config)

    result = outcome(lambda: spec().execute())
    assert result is None or result.generated_packets >= 0
    key = outcome(lambda: spec().cache_key())
    assert key is None or len(key) == 64


@given(TOPOLOGIES, names | not_strings, names | not_strings, configs)
@example("mesh:4x4", "uniform", "xy", CONFIG)
@example("mesh:4x4", "xy", "uniform", None)
@example("mesh:4x4", "xy", " transpose", CONFIG)
def test_a_cached_runner_refuses_cleanly_and_caches_nothing(
    tmp_path_factory, topology, algorithm, pattern, config
):
    runner = ParallelSweepRunner(jobs=1, cache=tmp_path_factory.mktemp("cache"))
    results = outcome(
        lambda: runner.run_points([PointSpec(topology, algorithm, pattern, config)])
    )
    assert results is None or results[0].generated_packets >= 0
    assert runner.stats.cached == 0
    assert len(runner.cache) == runner.stats.executed
