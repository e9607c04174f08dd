"""Connectivity checks: does an algorithm leave a path between every pair?

Step 4 of the turn model warns that prohibiting turns must still "leave a
path between every pair of nodes"; these helpers verify that for concrete
algorithms by walking the routing relation, and report the worst-case path
inflation of nonminimal algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..topology.base import Topology
from ..routing.base import RoutingAlgorithm
from ..routing.paths import RoutingDeadEnd, RoutingLivelock, walk


@dataclass
class ConnectivityReport:
    """Summary of an all-pairs delivery check."""

    total_pairs: int
    delivered_pairs: int
    stranded: List[Tuple[int, int]]
    max_hops_seen: int
    minimal_everywhere: bool

    @property
    def fully_connected(self) -> bool:
        return not self.stranded


def check_connectivity(
    algorithm: RoutingAlgorithm,
    max_hops: Optional[int] = None,
    pairs: Optional[List[Tuple[int, int]]] = None,
) -> ConnectivityReport:
    """Walk first-candidate routes for every (or the given) node pairs.

    Deterministically follows the first candidate at each hop — sufficient
    to certify that *some* legal path exists per pair.  Also records
    whether every walk was exactly minimal in length.
    """
    topology: Topology = algorithm.topology
    if pairs is None:
        pairs = [
            (s, d)
            for s in topology.nodes()
            for d in topology.nodes()
            if s != d
        ]
    stranded: List[Tuple[int, int]] = []
    delivered = 0
    max_seen = 0
    minimal_everywhere = True
    for src, dst in pairs:
        try:
            hops = len(walk(algorithm, src, dst, max_hops=max_hops)) - 1
        except (RoutingDeadEnd, RoutingLivelock):
            stranded.append((src, dst))
            continue
        delivered += 1
        max_seen = max(max_seen, hops)
        if hops != topology.distance(src, dst):
            minimal_everywhere = False
    return ConnectivityReport(
        total_pairs=len(pairs),
        delivered_pairs=delivered,
        stranded=stranded,
        max_hops_seen=max_seen,
        minimal_everywhere=minimal_everywhere,
    )
