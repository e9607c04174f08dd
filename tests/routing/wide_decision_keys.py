"""The class-keyed routing tables checked exhaustively at every size the
keys are claimed for: every registered algorithm on every 2D mesh from
2x2 to 16x16, every 3D mesh up to 4x4x4 and every binary cube up to 8;
the same 2D meshes up to 8x8 at 2 VCs; every certified torus algorithm
(dateline, escape-VC, xy and dimension-order) on ``torus:kx2`` for k =
2..16 and ``torus:kx3`` for k = 2..6 at 2 and 3 VCs;
``TurnRestrictedMinimal`` over all 16 two-turn prohibition sets on the
square meshes, over every one of the 256 subsets of the eight 2D turns
on ``mesh:5x6``, and over all 4,096 minimal 3D sets, each against the
exact-offset reference on ``mesh:5x5x5`` and split by derived clamp on
``mesh:7x7x7``.

Negative-first-torus and first-hop wraparound keep the exact
``(port, dest)`` path; ``test_decision_keys.py`` checks that path at
tier-1 sizes, where it runs the same check on every registered
algorithm.

Not collected by default (its name does not start with ``test_``): run
it by path, ``python -m pytest -q tests/routing/wide_decision_keys.py``,
or one of the three parts CI runs in parallel with ``-k``: ``on_2d_meshes``
(the registered algorithms on 2D meshes), ``not on_2d_meshes and not
turn`` (3D meshes, cubes, 2 VCs and tori) and ``turn`` (the turn sets).
"""

import itertools

import pytest
from decision_keys import assert_tables_answer_directly, registered_on
from turn_reference import assert_matches_exact_reference, minimal_3d_sets

from repro.analysis.runner import parse_topology_spec
from repro.core import TurnModel, two_turn_prohibitions_2d
from repro.core.turns import ninety_degree_turns
from repro.routing import TurnRestrictedMinimal
from repro.routing.registry import offset_classed

SIDES = range(2, 17)
MESHES_2D = [f"mesh:{m}x{n}" for m, n in itertools.product(SIDES, SIDES)]
SPECS = [
    "mesh:" + "x".join(map(str, dims))
    for dims in itertools.product(range(2, 5), repeat=3)
] + [f"cube:{n}" for n in range(1, 9)]
VC_MESHES = [
    f"mesh:{m}x{n}" for m, n in itertools.product(range(2, 9), repeat=2)
]
TORI = [f"torus:{k}x2" for k in SIDES] + [f"torus:{k}x3" for k in range(2, 7)]


@pytest.mark.parametrize("spec", MESHES_2D)
def test_registered_algorithms_on_2d_meshes(spec):
    for algorithm in registered_on(spec):
        assert_tables_answer_directly(algorithm)


@pytest.mark.parametrize("spec", SPECS)
def test_registered_algorithms(spec):
    for algorithm in registered_on(spec):
        assert_tables_answer_directly(algorithm)


@pytest.mark.parametrize("spec", VC_MESHES)
def test_registered_algorithms_at_two_vcs(spec):
    for algorithm in registered_on(spec):
        assert_tables_answer_directly(algorithm, num_vc=2)


@pytest.mark.parametrize("num_vc", [2, 3])
@pytest.mark.parametrize("spec", TORI)
def test_certified_torus_algorithms(spec, num_vc):
    certified = [
        algorithm for algorithm in registered_on(spec)
        if offset_classed(algorithm, num_vc)
    ]
    assert len(certified) > 2
    for algorithm in certified:
        assert_tables_answer_directly(algorithm, num_vc=num_vc)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("index", range(16))
def test_two_turn_prohibition_sets(side, index):
    model = TurnModel.from_prohibited(
        f"two-turn-{index}", 2, two_turn_prohibitions_2d()[index]
    )
    topology = parse_topology_spec(f"mesh:{side}x{side}")
    assert_tables_answer_directly(TurnRestrictedMinimal(topology, model))


@pytest.mark.parametrize("mask", range(256))
def test_every_2d_turn_model(mask):
    turns = sorted(ninety_degree_turns(2), key=repr)
    prohibited = [turn for bit, turn in enumerate(turns) if mask >> bit & 1]
    model = TurnModel.from_prohibited(f"mask-{mask}", 2, prohibited)
    topology = parse_topology_spec("mesh:5x6")
    assert_tables_answer_directly(TurnRestrictedMinimal(topology, model))


@pytest.fixture(scope="module")
def minimal_sets():
    return minimal_3d_sets()


def test_minimal_3d_turn_sets_split_by_clamp(minimal_sets):
    topology = parse_topology_spec("mesh:7x7x7")
    clamps = [TurnRestrictedMinimal(topology, m).clamp for m in minimal_sets]
    assert (clamps.count(1), clamps.count(2)) == (2136, 1960)


@pytest.mark.parametrize("part", range(8))
def test_minimal_3d_turn_sets_match_the_exact_reference(minimal_sets, part):
    topology = parse_topology_spec("mesh:5x5x5")
    for model in minimal_sets[part::8]:
        algorithm = TurnRestrictedMinimal(topology, model)
        assert offset_classed(algorithm)
        assert_matches_exact_reference(algorithm)
