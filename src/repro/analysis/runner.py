"""Parallel experiment execution with on-disk result caching.

The paper's evaluation is a grid of *independent* operating points —
(algorithm x pattern x offered load) — so reproducing a figure is an
embarrassingly parallel job.  This module provides the execution layer
the sweep/saturation/figure harnesses route through:

* :class:`PointSpec` — a picklable description of one operating point
  (topology spec string, algorithm name, pattern name, and the full
  :class:`~repro.simulation.config.SimulationConfig`).  Workers rebuild
  the live topology/algorithm/pattern objects from the spec, so nothing
  unpicklable ever crosses a process boundary.
* :class:`ResultCache` — an on-disk store of finished
  :class:`~repro.simulation.metrics.SimulationResult` objects keyed by a
  deterministic content hash of the point spec plus the package version.
  Re-running a figure with an unchanged configuration is instant.
* :class:`ParallelSweepRunner` — the one code path that runs a batch:
  it serves cache hits, splits the rest into *tasks* (shards of
  array-backend points that run as one batched engine pass, and
  single points), runs the tasks inline or on a supervised worker
  pool, records wall-clock/points-per-second statistics, and invokes a
  per-point progress callback as results arrive.
* :func:`run_live_points` — what the sweep/saturation harnesses call
  with live ``(algorithm, pattern, config)`` objects: the
  registry-rebuildable ones go through a runner, hand-built ones run
  inline.

Batches execute under the supervision layer of
:mod:`repro.analysis.supervision` (docs/RESILIENCE.md): worker crashes,
hangs, and exceptions become structured :class:`~repro.analysis.
supervision.PointFailure` records instead of lost campaigns, failed
points retry with bounded backoff, ``keep_going`` mode delivers every
healthy point of a partially-failing batch, and an optional JSONL
:class:`~repro.analysis.supervision.CampaignJournal` checkpoints each
completed point so an interrupted campaign resumes where it stopped.

Because every point simulates with its own private RNG seeded from the
config, parallel execution is bit-identical to the serial path: the same
spec always produces the same :class:`SimulationResult`, regardless of
worker count, completion order, or how many times a point was retried.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .supervision import (
    BatchReport,
    CampaignJournal,
    PointFailure,
    SupervisedPool,
)

from ..routing.base import RoutingAlgorithm
from ..routing.registry import make_algorithm
from ..routing.table import lru_fetch
from ..simulation.backend import make_simulator
from ..simulation.config import FrozenMemo, SimulationConfig, canonical_dumps
from ..simulation.metrics import SimulationResult
from ..topology.base import Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh, mesh
from ..topology.torus import KAryNCube
from ..traffic.patterns import (
    BitComplementPattern,
    HypercubeTransposePattern,
    MeshTransposePattern,
    ReverseFlipPattern,
    TrafficPattern,
    UniformPattern,
)

CACHE_SCHEMA = 4
"""Bumped whenever the cached payload layout changes; part of every key.

Schema 2: :class:`SimulationResult` grew the graceful-degradation fields
(drops by cause, kill/retry counts, max stall age) and
:class:`SimulationConfig` the fault-injection knobs — entries cached by
schema-1 code must not be silently reused (see docs/PERFORMANCE.md).

Schema 3: the observability collectors (docs/OBSERVABILITY.md) added
``channel_util_series``/``router_blocked_cycles``/``latency_histogram``
to :class:`SimulationResult` and the collector knobs to
:class:`SimulationConfig`; old entries lack those payload fields, so
they key out.

Schema 4: :class:`SimulationConfig` gained the ``backend`` engine
selector (docs/SIMULATOR.md).  The backends are proven bit-identical,
but the key must cover every config field uniformly, so entries keyed
by schema-3 code retire rather than aliasing."""

ProgressCallback = Callable[[SimulationResult], None]


def _code_version() -> str:
    """The installed package version (part of every cache key, so a new
    release never serves results simulated by old code)."""
    import repro

    return getattr(repro, "__version__", "unknown")


# ---------------------------------------------------------------------------
# Spec strings <-> live objects
# ---------------------------------------------------------------------------


#: Parsed topologies by spec string and registry-built algorithms by
#: ``(name, topology object)``, least recently used first.  A campaign
#: names one network many times; handing back the same objects is what
#: lets every point share the network's tables (docs/PERFORMANCE.md).
#: Bounded like the tables registry they feed.
_TOPOLOGIES: Dict[str, Topology] = {}
_ALGORITHMS: Dict[Tuple[str, int], RoutingAlgorithm] = {}
_NETWORK_MEMO_MAX = 8


def _parse_topology(spec: str) -> Topology:
    try:
        kind, _, shape = spec.partition(":")
        if kind == "mesh":
            dims = tuple(int(part) for part in shape.split("x"))
            return mesh(dims)
        if kind == "cube":
            return Hypercube(int(shape))
        if kind == "torus":
            k, n = (int(part) for part in shape.split("x"))
            return KAryNCube(k, n)
    except (ValueError, TypeError):
        pass
    raise ValueError(
        f"bad topology spec {spec!r}; expected mesh:AxB, cube:N, or torus:KxN"
    )


def parse_topology_spec(spec: str) -> Topology:
    """Parse ``mesh:16x16`` / ``cube:8`` / ``torus:8x2`` into a topology.

    Equal spec strings return the same (immutable) topology object while
    it stays in the bounded memo.  Raises :class:`ValueError` for
    malformed specs (the CLI wraps this into a usage error).
    """
    return lru_fetch(
        _TOPOLOGIES, spec, lambda: _parse_topology(spec), _NETWORK_MEMO_MAX
    )


def shared_algorithm(name: str, topology: Topology) -> RoutingAlgorithm:
    """The registry algorithm ``name`` on this topology *object*: built
    once and handed to every caller while it stays in the bounded memo
    (the algorithms are stateless, so sharing is unobservable except in
    host time).  Raises like :func:`~repro.routing.registry.make_algorithm`.
    """
    # The entry holds the algorithm, which holds the topology: the id
    # cannot be reused while it is part of a key.
    return lru_fetch(
        _ALGORITHMS, (name.strip().lower(), id(topology)),
        lambda: make_algorithm(name, topology), _NETWORK_MEMO_MAX,
    )


def topology_spec(topology: Topology) -> str:
    """Inverse of :func:`parse_topology_spec` for the built-in topologies.

    Raises :class:`ValueError` for topology classes without a spec form
    (:func:`run_live_points` runs those inline).
    """
    if isinstance(topology, KAryNCube):
        return f"torus:{topology.k}x{topology.n_dims}"
    if isinstance(topology, Hypercube):
        return f"cube:{topology.order}"
    if isinstance(topology, Mesh):
        return "mesh:" + "x".join(str(k) for k in topology.dims)
    raise ValueError(
        f"topology {type(topology).__name__} has no spec-string form"
    )


PATTERN_NAMES: Tuple[str, ...] = (
    "uniform",
    "transpose",
    "reverse-flip",
    "bit-complement",
)


def make_pattern(name: str, topology: Topology) -> TrafficPattern:
    """Build the named traffic pattern on ``topology``.

    ``transpose`` dispatches on the topology (the paper embeds the mesh
    transpose into the hypercube).  Raises :class:`ValueError` for
    unknown names.
    """
    if name == "uniform":
        return UniformPattern(topology)
    if name == "transpose":
        if isinstance(topology, Hypercube):
            return HypercubeTransposePattern(topology)
        return MeshTransposePattern(topology)
    if name == "reverse-flip":
        return ReverseFlipPattern(topology)
    if name == "bit-complement":
        return BitComplementPattern(topology)
    raise ValueError(
        f"unknown pattern {name!r}; choose from {PATTERN_NAMES}"
    )


# ---------------------------------------------------------------------------
# Point specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointSpec(FrozenMemo):
    """One operating point, described entirely by picklable values."""

    topology: str
    """Topology spec string, e.g. ``"mesh:16x16"``."""

    algorithm: str
    """Routing-algorithm registry name, e.g. ``"west-first"``."""

    pattern: str
    """Traffic-pattern name, e.g. ``"uniform"``."""

    config: SimulationConfig
    """The full simulation configuration (includes the offered load)."""

    def __post_init__(self) -> None:
        # A malformed field is refused here, before it can reach a
        # cache key or an engine.
        for name in ("topology", "algorithm", "pattern"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(f"PointSpec.{name} must be a str, not {value!r}")
        if not isinstance(self.config, SimulationConfig):
            raise TypeError(
                f"PointSpec.config must be a SimulationConfig, not {self.config!r}"
            )

    def build(self) -> Tuple[RoutingAlgorithm, TrafficPattern]:
        """The live algorithm and pattern objects: the process-wide
        shared topology and algorithm, and a fresh pattern."""
        topo = parse_topology_spec(self.topology)
        algorithm = shared_algorithm(self.algorithm, topo)
        pattern = make_pattern(self.pattern, topo)
        return algorithm, pattern

    def execute(self) -> SimulationResult:
        """Run the simulation for this point (in the calling process),
        on the engine backend named by ``config.backend``."""
        algorithm, pattern = self.build()
        return make_simulator(algorithm, pattern, self.config).run()

    def to_dict(self) -> Dict[str, object]:
        return self._point(self.config.to_dict())

    def _point(self, config: Dict[str, object]) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "pattern": self.pattern,
            "config": config,
        }

    def cache_key(self) -> str:
        """Deterministic content hash of this point.

        Covers the topology spec, algorithm name, pattern name, every
        :class:`SimulationConfig` field, the cache schema version, and
        the package version — changing any of them misses the cache.
        It is the SHA-256 of ``{"schema", "code", "point": to_dict()}``
        in canonical JSON, computed once per object.
        """
        return self._identity[0]

    @cached_property
    def _identity(self) -> Tuple[str, Dict[str, object]]:
        """``(cache_key(), to_dict())``, computed once per object.  The
        dict is shared with the memo, never handed out."""
        if type(self).to_dict is PointSpec.to_dict:
            # Reuse the config's memoised dict and JSON: encode the
            # payload around a null config, then splice the JSON in.  A
            # string value escapes its quotes, so only the key itself
            # can match '"config":null'.
            config, config_json = self.config._canonical
            point = self._point(config)
            blob = _key_payload(self._point(None)).replace(
                '"config":null', '"config":' + config_json, 1
            )
        else:
            # A subclass adds to the point (the chaos knobs).
            point = self.to_dict()
            blob = _key_payload(point)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest(), point


def _key_payload(point: Dict[str, object]) -> str:
    """The canonical JSON that :meth:`PointSpec.cache_key` hashes."""
    return canonical_dumps(
        {"schema": CACHE_SCHEMA, "code": _code_version(), "point": point}
    )


def point_spec(
    algorithm: RoutingAlgorithm,
    pattern: TrafficPattern,
    config: SimulationConfig,
) -> PointSpec:
    """Describe live objects as a :class:`PointSpec`, validating that a
    worker process can rebuild equivalent objects from it.

    Raises :class:`ValueError` when the algorithm or pattern is not
    registry-constructible (e.g. a custom turn model built by hand);
    :func:`run_live_points` then runs the point inline.
    """
    topo_spec = topology_spec(algorithm.topology)
    rebuilt_topology = parse_topology_spec(topo_spec)
    try:
        rebuilt = shared_algorithm(algorithm.name, rebuilt_topology)
    except (KeyError, ValueError) as exc:
        raise ValueError(
            f"algorithm {algorithm.name!r} is not registry-constructible: "
            f"{exc}"
        ) from exc
    if rebuilt.name != algorithm.name:
        raise ValueError(
            f"registry round-trip changed the algorithm name: "
            f"{algorithm.name!r} -> {rebuilt.name!r}"
        )
    pattern_name = getattr(pattern, "name", None)
    if not isinstance(pattern_name, str):
        raise ValueError(f"pattern {pattern!r} has no name")
    rebuilt_pattern = make_pattern(pattern_name, rebuilt_topology)
    if type(rebuilt_pattern) is not type(pattern):
        raise ValueError(
            f"pattern {pattern_name!r} rebuilds as "
            f"{type(rebuilt_pattern).__name__}, not {type(pattern).__name__}"
        )
    return PointSpec(
        topology=topo_spec,
        algorithm=algorithm.name,
        pattern=pattern_name,
        config=config,
    )


def run_live_points(
    points: Sequence[Tuple[RoutingAlgorithm, TrafficPattern, SimulationConfig]],
    runner: Optional["ParallelSweepRunner"] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Optional[SimulationResult]]:
    """Run ``(algorithm, pattern, config)`` triples, results in order.

    Triples :func:`point_spec` can describe go through ``runner`` as one
    batch (``None`` means ``ParallelSweepRunner(jobs=1, cache=None)``),
    so ``config.backend`` picks the engine and array points batch.
    Hand-built objects a worker cannot rebuild run inline here through
    :func:`make_simulator`, uncached and unseen by the runner.
    """
    results: List[Optional[SimulationResult]] = [None] * len(points)
    specs: List[PointSpec] = []
    where: List[int] = []
    for i, (algorithm, pattern, config) in enumerate(points):
        try:
            specs.append(point_spec(algorithm, pattern, config))
        except ValueError:
            results[i] = make_simulator(algorithm, pattern, config).run()
            if progress is not None:
                progress(results[i])
        else:
            where.append(i)
    if specs:
        if runner is None:
            runner = ParallelSweepRunner(jobs=1, cache=None)
        for i, result in zip(where, runner.run_points(specs, progress=progress)):
            results[i] = result
    return results


# ---------------------------------------------------------------------------
# Tasks: array shards and single points
# ---------------------------------------------------------------------------


def array_batch_indices(
    specs: Sequence[PointSpec], pending: Sequence[int]
) -> List[int]:
    """The subset of ``pending`` indices that shard into batched
    array-engine passes.

    A point qualifies when its spec carries a real config with
    ``backend == "array"`` and can ``build()`` live objects; duck-typed
    specs (``execute()``/``cache_key()`` only — e.g. the chaos-test
    specs) always run as single points.
    """
    return [
        i
        for i in pending
        if getattr(getattr(specs[i], "config", None), "backend", None)
        == "array"
        and hasattr(specs[i], "build")
    ]


def _tasks(
    specs: Sequence[PointSpec], pending: Sequence[int], shards: int
) -> List[Tuple[int, ...]]:
    """Every pending index in exactly one task: the array points as at
    most ``shards`` contiguous shards, first, then each other point as a
    task of one (as is a shard that ends up with one member)."""
    array = array_batch_indices(specs, pending)
    bound = max(1, -(-len(array) // shards))  # ceil: the largest shard
    tasks = [
        tuple(array[lo : lo + bound]) for lo in range(0, len(array), bound)
    ]
    sharded = set(array)
    return tasks + [(i,) for i in pending if i not in sharded]


def _payload(specs: Sequence[PointSpec], task: Tuple[int, ...]):
    """What runs a task: the spec itself for a task of one, else an
    :class:`_ArrayShardSpec` (whose result is the members' results)."""
    if len(task) == 1:
        return specs[task[0]]
    return _ArrayShardSpec(tuple(specs[i] for i in task))


@dataclass
class _ArrayShardSpec:
    """A picklable shard of array-backend points: ``execute()`` runs
    them as a single :class:`BatchSimulator` pass and returns their
    results in shard order."""

    specs: Tuple[PointSpec, ...]

    def execute(self) -> List[SimulationResult]:
        from ..simulation.array_engine import BatchSimulator

        points = []
        for spec in self.specs:
            algorithm, pattern = spec.build()
            points.append((algorithm, pattern, spec.config))
        return BatchSimulator(points).run()


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Finished :class:`SimulationResult` objects, one pickle per point.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is
    :meth:`PointSpec.cache_key`.  Each file is the SHA-256 digest of
    the pickled entry followed by the pickle, and each entry stores the
    spec alongside the result; both are validated on read — the digest
    before anything is unpickled — so a corrupted, truncated, or
    pre-digest file, or a (vanishingly unlikely) key collision, degrades
    to a cache miss that the next :meth:`put` repairs, never to a wrong
    answer or an exception.  Writes are atomic (temp file + rename), so
    concurrent workers and concurrent runs can share one cache.
    """

    _DIGEST_BYTES = hashlib.sha256().digest_size

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _identity(spec: PointSpec) -> Tuple[str, Dict[str, object]]:
        # Duck-typed specs (``execute``/``to_dict``/``cache_key`` only)
        # are keyed through their public methods.
        if isinstance(spec, PointSpec):
            return spec._identity
        return spec.cache_key(), spec.to_dict()

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def path_for(self, spec: PointSpec) -> Path:
        return Path(self._entry_path(self._identity(spec)[0]))

    def get(self, spec: PointSpec) -> Optional[SimulationResult]:
        """The cached result for ``spec``, or None."""
        key, point = self._identity(spec)
        try:
            with open(self._entry_path(key), "rb") as fh:
                blob = fh.read()
            digest = blob[: self._DIGEST_BYTES]
            payload = blob[self._DIGEST_BYTES :]
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("cache entry fails its checksum")
            entry = pickle.loads(payload)
            if entry.get("point") != point:
                raise ValueError("cache entry does not match its key")
            result = entry["result"]
        except (OSError, ValueError, KeyError, pickle.UnpicklingError,
                EOFError, AttributeError, ImportError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: PointSpec, result: SimulationResult) -> Path:
        """Store ``result`` for ``spec`` (atomic, last writer wins)."""
        key, point = self._identity(spec)
        path = self._entry_path(key)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        payload = pickle.dumps(
            {"point": point, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(payload).digest() + payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return Path(path)

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps up orphaned ``*.tmp`` files left behind by writers
        that crashed between ``mkstemp`` and the atomic rename (they
        are invisible to :meth:`__len__` and would otherwise accumulate
        forever) and prunes shard directories the sweep left empty.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for orphan in self.root.glob("*/*.tmp"):
            try:
                orphan.unlink()
            except OSError:
                pass
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class RunnerStats:
    """Cumulative accounting across a runner's batches."""

    executed: int = 0
    cached: int = 0
    failed: int = 0
    retried: int = 0
    wall_seconds: float = 0.0

    @property
    def points(self) -> int:
        return self.executed + self.cached

    @property
    def points_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.points / self.wall_seconds

    def summary(self) -> str:
        text = (
            f"{self.wall_seconds:.1f}s wall, {self.points} points "
            f"({self.executed} simulated, {self.cached} cached), "
            f"{self.points_per_second:.1f} points/s"
        )
        if self.failed or self.retried:
            text += (
                f", {self.failed} failed, {self.retried} retried attempt(s)"
            )
        return text


class ParallelSweepRunner:
    """Executes batches of :class:`PointSpec` with supervised workers
    and a cache.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means one per CPU, ``1`` runs every
        point inline in the calling process (no pool) unless a
        supervision knob below forces a worker anyway.
    cache:
        A :class:`ResultCache`, a directory path to open one at, or
        ``None`` to disable caching entirely.
    force:
        Ignore cached entries (results are still written back, so a
        forced run refreshes the cache).  Points a resumed journal
        marks done are exempt — resuming never redoes finished work.
    progress:
        Called with each :class:`SimulationResult` as it becomes
        available (cache hits included).  Runs in the parent process.
    point_timeout:
        Per-point wall-clock limit in seconds; a worker past it is
        killed and the point counts as a ``timeout`` attempt.  ``None``
        (the default) disables the watchdog.
    max_point_retries:
        Extra attempts granted to a crashed/hung/raising point before
        it becomes a permanent :class:`PointFailure` (default 0).
    keep_going:
        When True a permanently failed point yields ``None`` in the
        batch results (and a manifest entry in :attr:`failures`)
        instead of aborting the batch.  The default ``fail_fast``
        behaviour raises :class:`~repro.analysis.supervision.
        PointExecutionError` on the first permanent failure.
    retry_backoff_base / retry_backoff_cap:
        Bounded exponential backoff (seconds) between a point's
        attempts; see :class:`~repro.analysis.supervision.
        SupervisedPool`.
    journal:
        A :class:`~repro.analysis.supervision.CampaignJournal`, or a
        path to open one at, checkpointing each completed point's cache
        key (fsynced, SIGKILL-safe).  ``resume`` controls whether an
        existing file is continued or truncated.
    resume:
        With a journal: load previously completed points and serve them
        from the cache instead of re-executing (requires a cache).

    Every pending point runs as part of one *task*: the array-backend
    points as contiguous shards (one unless supervised, else up to
    ``jobs``), each one batched engine pass; every other point alone.
    An unsupervised batch with ``jobs=1`` or a single task runs inline;
    any other batch runs on the worker pool, shards first.  Any of
    ``point_timeout``/``max_point_retries``/``keep_going``/``journal``
    engages supervision.  The plan never changes a result.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[object] = None,
        force: bool = False,
        progress: Optional[ProgressCallback] = None,
        point_timeout: Optional[float] = None,
        max_point_retries: int = 0,
        keep_going: bool = False,
        retry_backoff_base: float = 0.5,
        retry_backoff_cap: float = 30.0,
        journal: Optional[Union[CampaignJournal, os.PathLike, str]] = None,
        resume: bool = False,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if max_point_retries < 0:
            raise ValueError("max_point_retries must be non-negative")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache: Optional[ResultCache] = cache
        self.force = force
        self.progress = progress
        self.point_timeout = point_timeout
        self.max_point_retries = max_point_retries
        self.keep_going = keep_going
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        if resume and journal is None:
            raise ValueError("resume requires a journal")
        if resume and cache is None:
            raise ValueError(
                "resume requires the result cache (journaled points are "
                "served from it)"
            )
        if journal is not None and not isinstance(journal, CampaignJournal):
            journal = CampaignJournal(journal, resume=resume)
        self.journal: Optional[CampaignJournal] = journal
        self.resume = resume
        self.stats = RunnerStats()
        self.failures: List[PointFailure] = []

    @property
    def supervised(self) -> bool:
        """Whether any supervision feature is engaged (timeout, retry,
        keep_going, or journal)."""
        return (
            self.point_timeout is not None
            or self.max_point_retries > 0
            or self.keep_going
            or self.journal is not None
        )

    def close(self) -> None:
        """Close the campaign journal, if any."""
        if self.journal is not None:
            self.journal.close()

    def run_point(
        self, spec: PointSpec, progress: Optional[ProgressCallback] = None
    ) -> SimulationResult:
        return self.run_points([spec], progress=progress)[0]

    def run_points(
        self,
        specs: Sequence[PointSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[SimulationResult]:
        """Run a batch, returning results in spec order.

        Under ``keep_going`` a permanently failed point leaves ``None``
        at its position (the downstream aggregators all tolerate the
        holes); otherwise a failure raises and no list is returned.
        Use :meth:`run_batch` to also get the failure manifest.
        """
        return self.run_batch(specs, progress=progress).results  # type: ignore[return-value]

    def run_batch(
        self,
        specs: Sequence[PointSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> BatchReport:
        """Run a batch, returning spec-ordered results plus the failure
        manifest.

        Cache hits (and, when resuming, journaled points) are served
        first; the rest run as tasks, inline or on the supervised worker
        pool (see the class docstring).  Results are bit-identical
        to running each spec serially because every simulation owns a
        private RNG seeded from its config.  Wall-clock and point
        accounting are committed even when the batch dies mid-flight.
        """
        report = progress if progress is not None else self.progress
        started = time.perf_counter()
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        batch_failures: List[PointFailure] = []

        def complete(task, outcome, attempts=1, duration=0.0):
            # A shard's duration amortises over its members, so the
            # journal's per-point numbers stay comparable.
            for i, result in zip(task, outcome if len(task) > 1 else [outcome]):
                results[i] = result
                self._record(
                    specs[i], result, report,
                    attempts=attempts, duration=duration / len(task),
                )

        try:
            pending: List[int] = []
            for i, spec in enumerate(specs):
                hit = None
                if self.cache is not None:
                    journaled = (
                        self.resume
                        and self.journal is not None
                        and self.journal.done(spec.cache_key())
                    )
                    if journaled or not self.force:
                        hit = self.cache.get(spec)
                if hit is not None:
                    results[i] = hit
                    self.stats.cached += 1
                    if self.journal is not None:
                        self.journal.record_point(
                            spec.cache_key(), cached=True
                        )
                    if report is not None:
                        report(hit)
                else:
                    pending.append(i)

            # Array points run as batched engine passes: stacking them is
            # the point of the backend, and the results are bit-identical
            # to per-point runs and recorded per point.  Only supervision
            # shards them per worker (crash isolation, the watchdog).
            tasks = _tasks(
                specs, pending, self.jobs if self.supervised else 1
            )
            inline = not self.supervised and (
                self.jobs == 1 or len(tasks) == 1
            )
            if inline:
                for task in tasks:
                    complete(task, _payload(specs, task).execute())
            elif tasks:
                self._run_pool(specs, tasks, complete, batch_failures)
        finally:
            # Committed even when a worker/progress callback raises or
            # the batch is interrupted: completed points stay counted.
            self.stats.wall_seconds += time.perf_counter() - started
        batch_failures.sort(key=lambda f: f.index)
        return BatchReport(results, batch_failures)

    def _run_pool(
        self,
        specs: Sequence[PointSpec],
        tasks: List[Tuple[int, ...]],
        complete: Callable,
        batch_failures: List[PointFailure],
    ) -> None:
        """Run ``tasks`` on supervised workers: the shards first, with
        the wall-clock limit scaled by the largest shard, then the tasks
        of one.

        In the pool a task goes by its first member's index.  A shard
        that fails for good is not a failure: its members join the
        one-point pass, so only a point that fails alone fails for good.
        """
        if array_batch_indices(specs, [i for task in tasks for i in task]):
            # Load the array engine (and numpy) once, here: forked
            # workers inherit it instead of each importing their own.
            from ..simulation import array_engine  # noqa: F401

        singles = [task for task in tasks if len(task) == 1]
        for batch in ([task for task in tasks if len(task) > 1], singles):
            if not batch:
                continue
            by_first = {task[0]: task for task in batch}
            size = max(map(len, batch))
            pool = SupervisedPool(
                workers=min(self.jobs, len(batch)),
                point_timeout=(
                    None
                    if self.point_timeout is None
                    else self.point_timeout * size
                ),
                max_retries=self.max_point_retries,
                retry_backoff_base=self.retry_backoff_base,
                retry_backoff_cap=self.retry_backoff_cap,
            )

            def on_point(index, outcome, attempts, duration):
                complete(by_first[index], outcome, attempts, duration)

            def on_failure(failure):
                task = by_first[failure.index]
                if len(task) > 1:
                    singles.extend((i,) for i in task)
                    return
                batch_failures.append(failure)
                self.failures.append(failure)
                self.stats.failed += 1
                if self.journal is not None:
                    self.journal.record_failure(failure)

            def on_retry(index, cause, attempt):
                self.stats.retried += 1

            pool.run(
                [(task[0], _payload(specs, task)) for task in batch],
                # A failed shard never aborts the batch: it splits.
                keep_going=self.keep_going or size > 1,
                on_point=on_point,
                on_failure=on_failure,
                on_retry=on_retry,
            )

    def _record(
        self,
        spec: PointSpec,
        result: SimulationResult,
        report: Optional[ProgressCallback],
        attempts: int = 1,
        duration: float = 0.0,
    ) -> None:
        # Accounting, cache, and journal all commit before the progress
        # callback runs: a raising callback can abort the batch, but it
        # can never lose a completed point.
        self.stats.executed += 1
        if self.cache is not None:
            self.cache.put(spec, result)
        if self.journal is not None:
            self.journal.record_point(
                spec.cache_key(), attempts=attempts, duration=duration
            )
        if report is not None:
            report(result)
