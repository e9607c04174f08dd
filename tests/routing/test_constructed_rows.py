"""Parent-recorded routing rows of the paper's turn-model algorithms.

The paper's claim (Sections 3-5) is that west-first, north-last,
negative-first, ABONF, ABOPL and p-cube *are* the maximally adaptive
routing relations of their prohibition sets.  The registry classes are
built from :class:`~repro.routing.TurnRestrictedMinimal` over those
sets, so comparing them with it would be a tautology.  Instead, each
digest below was recorded from the hand-written phase-rule and bitwise
implementations these classes replaced: one sha256 per ``(algorithm,
topology)`` pair over the canonical text of every ``(node, heading,
dest) -> (candidates, escape_candidates)`` row, ``heading`` ranging
over ``None`` (injection) and every direction of the topology.

The file needs neither numpy nor Hypothesis, so the minimal-install CI
job runs it too.
"""

import hashlib

import pytest

from repro.analysis.runner import parse_topology_spec
from repro.core import TurnModel
from repro.routing import TurnRestrictedMinimal, make_algorithm


def _text(directions):
    return ",".join(repr(d) for d in directions)


def row_digest(algorithm):
    """sha256 of every ``(node, heading, dest)`` row of ``algorithm``."""
    topology = algorithm.topology
    headings = (None,) + tuple(topology.directions())
    digest = hashlib.sha256()
    for node in topology.nodes():
        for heading in headings:
            for dest in topology.nodes():
                minimal = algorithm.candidates(node, dest, heading)
                escape = algorithm.escape_candidates(node, dest, heading)
                digest.update(
                    f"{node} {heading!r} {dest} "
                    f"{_text(minimal)} | {_text(escape)}\n".encode()
                )
    return digest.hexdigest()


#: ``(registry name, topology spec) -> digest``, recorded from the
#: hand-written implementations.
PINNED_ROWS = {
    ("west-first", "mesh:5x5"):
        "42d37bdb53b96d8b98a1472aad5d069c710096b66242b46051caacb8a011f533",
    ("west-first", "mesh:6x5"):
        "fe6239861f28602201b0aac2ad4eb9e1e0d5653689ef6c4d6fd786bdd0621db0",
    ("north-last", "mesh:5x5"):
        "b694b3b7ca865b348a28658599740a63beab678b128213670fd8dad6b44f0c26",
    ("north-last", "mesh:6x5"):
        "8652e518b88264307060e5184a8dff93a9689e5a0d752feb4aefe2ec989745da",
    ("negative-first", "mesh:5x5"):
        "614c2fb9db8cd31cc3bc9fe0b7803413858d9009f819e65b30e94927bc1b7391",
    ("negative-first", "mesh:6x5"):
        "7c6c8fb1fd5a87543572139c5aaefd102630005e2f68c655bb15c40f8ce9dbd7",
    ("negative-first", "mesh:3x4x3"):
        "1363c262d772ea688fb22826752c9ee761bab3ae9ebab338eb50c9ed3338550c",
    ("abonf", "mesh:3x4x3"):
        "bf22465d2ebff62fe45d0085d68ff26d0418721c37776e9ce533cd583d963d29",
    ("abopl", "mesh:3x4x3"):
        "86b4a6c01e64e4ef05f220bfdb3b2b2202d87a5b4d46886ef7971015a5e20ff2",
    ("abonf", "cube:4"):
        "8c29d7452969aa5e0f72d44b06a0ce5260c9403130a25da3c88893b8a8db49f0",
    ("abopl", "cube:4"):
        "94a354ac892f076ec354f76fc0475a6e54a50dba8426f627ce4d3c405db20d82",
    ("negative-first", "cube:4"):
        "7720c450fa5ee0521130f8f486b75e6930fc680f7c6ffb56305af7c0836cf54a",
    ("p-cube", "cube:4"):
        "21332590cf10b1b066b89671dfbe3545c69eed8dff3eb0c9bcb2a8e68b8b2a9b",
    ("p-cube-nonminimal", "cube:4"):
        "08e82006ec7ac9cb09d72c6d222184577a3dc771db54edd4ea62aba7b844df61",
    ("negative-first+wrap1", "torus:5x2"):
        "7c20c7c808469b632fe77c8c53b906416018719bb0c7ccf1727ec9e3af9b3047",
}

#: The same, for topologies too large for the default run.
PINNED_ROWS_SLOW = {
    ("negative-first", "mesh:3x3x3x3"):
        "aa4d34fe39045444a38a5de2ba22fd5bf5b225307309d7ae4208c65c623ec9ca",
    ("abonf", "mesh:3x3x3x3"):
        "aebd6fe16e281ba2189b5656778165065535974407c216c9620f47563cb05deb",
    ("abopl", "mesh:3x3x3x3"):
        "df88f065551faa6add786709bf03ba609371582288161a8075bda4c9e15b4a6b",
    ("abonf", "cube:6"):
        "bf573e35bcf7c226d1854400a5acf4677109c2bf9474145fe95b346e559837ea",
    ("abopl", "cube:6"):
        "043201e4b4ae1c466699cf0f3ee8bf4d541abc30133e3d60d9d710148764cdee",
    ("negative-first", "cube:6"):
        "8dfa5760e660fcd7ed8999279590ee1cef4594e894e87cb17b985edfc5a6530d",
    ("p-cube", "cube:6"):
        "79ce2106e0369e0384a5099121c938983b71b968a647cbeaecd75bee107d3448",
    ("p-cube-nonminimal", "cube:6"):
        "275168f74da6c5646e7e3380869fc60ff7ebe8d3eb7167726bca1dd1e4e08eab",
}


def _check(pair, pinned):
    name, spec = pair
    algorithm = make_algorithm(name, parse_topology_spec(spec))
    assert row_digest(algorithm) == pinned, (
        f"{name} on {spec}: routing rows differ from the recorded ones"
    )


@pytest.mark.parametrize("pair", sorted(PINNED_ROWS), ids="@".join)
def test_rows_equal_recorded(pair):
    _check(pair, PINNED_ROWS[pair])


@pytest.mark.slow
@pytest.mark.parametrize("pair", sorted(PINNED_ROWS_SLOW), ids="@".join)
def test_rows_equal_recorded_slow(pair):
    _check(pair, PINNED_ROWS_SLOW[pair])


#: Pinned pairs rebuilt from the bare :class:`TurnModel` factories, with
#: no registry class involved: the relation the paper defines against
#: the rows of the hand-written algorithms.
BARE_MODELS = [
    ("west-first", "mesh:5x5", TurnModel.west_first),
    ("west-first", "mesh:6x5", TurnModel.west_first),
    ("north-last", "mesh:5x5", TurnModel.north_last),
    ("north-last", "mesh:6x5", TurnModel.north_last),
    ("negative-first", "mesh:5x5", TurnModel.negative_first),
    ("negative-first", "mesh:6x5", TurnModel.negative_first),
    ("negative-first", "mesh:3x4x3", TurnModel.negative_first),
    ("abonf", "mesh:3x4x3", TurnModel.west_first),
    ("abopl", "mesh:3x4x3", TurnModel.north_last),
    ("abonf", "cube:4", TurnModel.west_first),
    ("abopl", "cube:4", TurnModel.north_last),
    ("negative-first", "cube:4", TurnModel.negative_first),
]


@pytest.mark.parametrize(
    "name, spec, factory", BARE_MODELS,
    ids=[f"{name}@{spec}" for name, spec, _ in BARE_MODELS],
)
def test_bare_model_rows(name, spec, factory):
    topology = parse_topology_spec(spec)
    algorithm = TurnRestrictedMinimal(topology, factory(topology.n_dims))
    assert row_digest(algorithm) == PINNED_ROWS[(name, spec)], (
        f"the bare {name} prohibition set on {spec} no longer yields the "
        f"recorded rows"
    )
