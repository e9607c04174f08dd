"""Property: the memoised cache key equals the reference formula.

``PointSpec.cache_key`` splices the config's memoised canonical JSON
into the key payload instead of encoding the config again.  Over
generated configs, spec strings and chaos knobs, the result must equal
the SHA-256 of ``json.dumps({"schema", "code", "point": to_dict()},
sort_keys=True, separators=(",", ":"))`` byte for byte, so every
existing cache entry and journal line keeps hitting.
"""

import dataclasses
import hashlib
import json

from hypothesis import example, given
from hypothesis import strategies as st

import repro
from repro.analysis import CACHE_SCHEMA, PointSpec
from repro.analysis.chaos import ChaosPointSpec
from repro.analysis.runner import parse_topology_spec
from repro.faults import FaultPlan
from repro.simulation import SimulationConfig
from repro.simulation.config import BACKENDS
from repro.simulation.selection import input_policy_names, output_policy_names

MESH = parse_topology_spec("mesh:4x4")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def reference_key(spec) -> str:
    payload = {
        "schema": CACHE_SCHEMA,
        "code": repro.__version__,
        "point": spec.to_dict(),
    }
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


@st.composite
def fault_plans(draw):
    kind = draw(st.sampled_from(["none", "links", "routers"]))
    if kind == "none":
        return FaultPlan()
    build = FaultPlan.random_links if kind == "links" else FaultPlan.random_routers
    return build(
        MESH,
        draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32)),
        start=draw(st.integers(0, 500)),
    )


positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
configs = st.builds(
    SimulationConfig,
    channel_bandwidth=positive | st.integers(1, 100),
    buffer_depth=st.integers(1, 8),
    virtual_channels=st.integers(1, 3),
    message_lengths=st.lists(st.integers(1, 400), min_size=1, max_size=4).map(
        tuple
    ),
    offered_load=st.floats(min_value=0, max_value=1e3) | st.integers(0, 10),
    warmup_cycles=st.integers(0, 10**6),
    measure_cycles=st.integers(1, 10**6),
    seed=st.integers(-(2**70), 2**70),
    drain_cycles=st.integers(0, 5_000),
    input_selection=st.sampled_from(input_policy_names()),
    output_selection=st.sampled_from(output_policy_names()),
    selection_threshold=st.integers(0, 9),
    misroute_limit=st.integers(0, 4),
    track_channel_load=st.booleans(),
    channel_series_period=st.integers(0, 200),
    collect_router_blocked=st.booleans(),
    collect_latency_histogram=st.booleans(),
    fault_plan=fault_plans(),
    packet_timeout=st.integers(0, 2_000),
    max_retries=st.integers(0, 4),
    backend=st.sampled_from(BACKENDS),
)
names = st.text(max_size=12) | st.sampled_from(
    ["mesh:16x16", "west-first", "uniform", "torus:8x2"]
)


@given(
    config=configs,
    topology=names,
    algorithm=names,
    pattern=names,
    chaos=st.none() | st.tuples(st.integers(0, 99), st.floats(0, 1)),
)
# Names that contain the splice marker must not move the splice.
@example(
    config=SimulationConfig(),
    topology='"config":null',
    algorithm='x","config":null,"y',
    pattern='\\"config\\":null',
    chaos=None,
)
def test_memoised_key_equals_the_reference_formula(
    config, topology, algorithm, pattern, chaos
):
    spec = PointSpec(topology, algorithm, pattern, config)
    if chaos is not None:
        seed, rate = chaos
        spec = ChaosPointSpec(
            topology, algorithm, pattern, config,
            chaos_seed=seed, failure_rate=rate,
        )
    assert config.canonical_json() == canonical(config.to_dict())
    assert (
        config.stable_hash()
        == hashlib.sha256(canonical(config.to_dict()).encode()).hexdigest()
    )
    assert spec.cache_key() == reference_key(spec)
    # A spec sharing the (already memoised) config keys the same way.
    twin = dataclasses.replace(spec)
    assert twin.cache_key() == reference_key(twin) == spec.cache_key()
