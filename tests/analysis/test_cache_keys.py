"""Pinned result-cache keys and the hygiene of the per-object key memo.

A cache key is what lets a warm cache or a ``--resume`` journal serve a
finished point, so its bytes are a compatibility promise: the literal
digests below were recorded before the key was memoised and must never
move unless ``CACHE_SCHEMA`` or the package version does.  The file
needs neither numpy nor Hypothesis, so the minimal-install CI job runs
it too (keys must not depend on which extras are installed).
"""

import copy
import dataclasses
import pickle

import pytest

from repro.analysis import PointSpec, ResultCache, campaign_config
from repro.analysis.chaos import ChaosPointSpec
from repro.analysis.runner import parse_topology_spec
from repro.faults import FaultPlan
from repro.simulation import SimulationConfig


def pinned_specs():
    plan = FaultPlan.random_links(parse_topology_spec("mesh:8x8"), 3, seed=11)
    return {
        "default": PointSpec(
            "mesh:16x16", "west-first", "uniform", SimulationConfig()
        ),
        "campaign": PointSpec(
            "mesh:8x8", "north-last", "uniform",
            dataclasses.replace(campaign_config(seed=7), fault_plan=plan),
        ),
        "array": PointSpec(
            "mesh:16x16", "west-first", "uniform",
            SimulationConfig(offered_load=2.4, buffer_depth=4, backend="array"),
        ),
        "dateline": PointSpec(
            "torus:16x2", "dateline-dimension-order", "uniform",
            SimulationConfig(offered_load=1.2, virtual_channels=2, seed=42),
        ),
        "lengths": PointSpec(
            "cube:6", "p-cube", "reverse-flip",
            SimulationConfig(message_lengths=(4, 32, 64), offered_load=0.75),
        ),
        "chaos": ChaosPointSpec(
            "mesh:4x4", "negative-first", "transpose",
            SimulationConfig(offered_load=0.5),
            chaos_seed=3, failure_rate=0.25,
        ),
    }


PINNED_KEYS = {
    "default": "396cdc7a18c99644a62a977898f61cf02a0d037f59855e10a5964d32f53d745d",
    "campaign": "002eac845b778cbd8db21c851c42433e45cb7efe0dfde535ef0d660fb11da1d0",
    "array": "36004e2761bedf2e381b76c05bd7625949798a2c1a9db1173ed165a09ba8e8f7",
    "dateline": "5e07a4401a2d9ea73d20fc2915a45263e44ff10d498d8c9204e5527e2772e5a8",
    "lengths": "81b999c6c4da76fa38cdf584d74152dbcf716670df0d44aceccd7772b12fbd2d",
    "chaos": "fe57e699a2ab9330af3498b84fe6c71e82886506cd886a334326806ab7f2f26f",
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_cache_key_is_pinned(name):
    spec = pinned_specs()[name]
    assert spec.cache_key() == PINNED_KEYS[name]
    assert spec.cache_key() == PINNED_KEYS[name]  # served from the memo


def test_chaos_knobs_change_the_pinned_key():
    chaos = pinned_specs()["chaos"]
    assert chaos.clean().cache_key() != chaos.cache_key()
    assert (
        dataclasses.replace(chaos, failure_rate=0.5).cache_key()
        != chaos.cache_key()
    )


TINY = SimulationConfig(warmup_cycles=20, measure_cycles=80, seed=5)


class TestMemoHygiene:
    @pytest.mark.parametrize("name", ["campaign", "chaos"])
    def test_pickles_ignore_the_memo(self, name):
        spec = pinned_specs()[name]
        spec_bytes = pickle.dumps(spec)
        config_bytes = pickle.dumps(spec.config)
        spec.cache_key()
        spec.config.stable_hash()
        assert pickle.dumps(spec) == spec_bytes
        assert pickle.dumps(spec.config) == config_bytes
        assert "_identity" in vars(spec)
        assert "_canonical" in vars(spec.config)
        for clone in (pickle.loads(spec_bytes), copy.deepcopy(spec)):
            assert "_identity" not in vars(clone)
            assert "_canonical" not in vars(clone.config)
            assert clone.cache_key() == spec.cache_key()

    def test_equality_hash_and_repr_ignore_the_memo(self):
        warm, cold = pinned_specs()["campaign"], pinned_specs()["campaign"]
        warm.cache_key()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert warm.config == cold.config
        assert hash(warm.config) == hash(cold.config)
        assert repr(warm.config) == repr(cold.config)

    def test_replace_yields_a_new_key(self):
        spec = pinned_specs()["campaign"]
        key, digest = spec.cache_key(), spec.config.stable_hash()
        moved = dataclasses.replace(spec, config=spec.config.with_seed(8))
        assert moved.config.stable_hash() != digest
        assert moved.cache_key() != key
        assert moved.cache_key() == PointSpec(
            moved.topology, moved.algorithm, moved.pattern,
            campaign_config(seed=7).with_faults(spec.config.fault_plan)
            .with_seed(8),
        ).cache_key()
        assert dataclasses.replace(spec, pattern="transpose").cache_key() != key

    def test_mutating_to_dict_changes_nothing_later(self):
        spec = pinned_specs()["campaign"]
        fresh = pinned_specs()["campaign"]
        before = spec.to_dict()  # taken before the memo exists
        before["config"]["seed"] = 99
        before["config"]["message_lengths"].append(3)
        before["topology"] = "mesh:2x2"
        key, canonical = spec.cache_key(), spec.config.canonical_json()
        assert key == fresh.cache_key() == PINNED_KEYS["campaign"]
        after = spec.to_dict()
        assert after == fresh.to_dict() and after is not spec.to_dict()
        after["config"]["fault_plan"]["events"].clear()
        spec.config.to_dict()["message_lengths"].append(7)
        assert spec.cache_key() == key
        assert spec.config.canonical_json() == canonical
        assert spec.to_dict() == fresh.to_dict()

    def test_cache_entry_bytes_are_unchanged(self, tmp_path):
        spec = PointSpec("mesh:4x4", "west-first", "uniform", TINY)
        result = spec.execute()
        cache = ResultCache(tmp_path)
        path = cache.put(spec, result)
        payload = pickle.dumps(
            {"point": spec.to_dict(), "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert path == tmp_path / spec.cache_key()[:2] / f"{spec.cache_key()}.pkl"
        assert path.read_bytes()[ResultCache._DIGEST_BYTES:] == payload
        assert cache.path_for(spec) == path
        assert cache.get(spec) == result
        # An equal spec built afresh hits the same entry.
        again = PointSpec("mesh:4x4", "west-first", "uniform", TINY)
        assert ResultCache(tmp_path).get(again) == result
