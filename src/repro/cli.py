"""Command-line interface: ``python -m repro <command> ...``.

Commands (``repro <command> --help`` lists each one's flags): ``list``,
``verify`` (CDG deadlock check), ``turns`` (a prohibition set),
``simulate`` (one operating point), ``sweep`` (a latency/throughput
curve), ``trace`` (one point with flit-level observability;
docs/OBSERVABILITY.md), ``figure`` (Figures 13-16), ``faults`` (a seeded
fault-injection campaign; docs/FAULTS.md), ``selection`` (output-selection
policies compared; docs/SELECTION.md), ``saturation`` (batched bisection
for each pair's maximum sustainable load) and ``bench`` (the pin ledger
``BENCH_engine.json``; no timing — that is ``bench/run.py``).

Every simulation knob is one row of ``CONFIG_FLAGS``: a flag and the
``SimulationConfig`` field it sets.  A command exposes some rows over a
base config — ``SimulationConfig()`` for ``simulate``/``sweep``/
``saturation``, a shorter window for ``trace``, ``campaign_config()``
for ``faults``, ``comparison_config()`` for ``selection``, the preset's
``base`` for ``figure`` — and replaces only the flags given.  The
flag's type, choices and shown default come from the field and that
base; ``SimulationConfig`` alone decides whether a value is valid
(docs/SIMULATOR.md's configuration reference says which commands
expose each field).  A bad value, name or spec is a usage error (exit
2), never a traceback.

The batch commands (``sweep``, ``figure``, ``faults``, ``selection``,
``saturation``) route through the parallel experiment runner:
``--jobs``, the result-cache flags (docs/PERFORMANCE.md) and the
supervision flags (docs/RESILIENCE.md).  ``add_runner_flags``/
``make_runner``/``finish_runner`` are that shared surface;
``scripts/collect_experiments.py`` uses it too.

Topology specs: ``mesh:16x16`` (any ``AxBxC...``), ``cube:8`` (binary
n-cube), ``torus:8x2`` (k-ary n-cube, k then n).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, replace
from functools import partial
from typing import Callable, Dict, List, Optional

from .analysis import FAST, FIGURE_HARNESSES, FULL, format_figure
from .analysis.bench import (
    Pin,
    bench_points,
    compare_reports,
    load_report,
    run_point,
    write_report,
)
from .analysis.faultsweep import (
    DEFAULT_ALGORITHMS,
    DEFAULT_FAULT_COUNTS,
    campaign_config,
    campaign_specs,
    run_fault_campaign,
)
from .analysis.selection import (
    DEFAULT_COMPARE_ALGORITHMS,
    DEFAULT_COMPARE_LOADS,
    DEFAULT_COMPARE_PATTERNS,
    DEFAULT_POLICIES,
    comparison_config,
    run_selection_comparison,
)
from .analysis.runner import (
    PATTERN_NAMES,
    ParallelSweepRunner,
    ResultCache,
    make_pattern,
    parse_topology_spec,
)
from .analysis.sweep import run_sweep
from .core.turn_model import TurnModel
from .observability import (
    EVENT_KINDS,
    FilteringSink,
    JsonlTraceSink,
    PhaseProfiler,
    read_trace,
    summarize_trace,
    trace_header,
)
from .routing.registry import UnknownAlgorithmError, algorithm_names, make_algorithm
from .simulation.backend import make_simulator
from .simulation.config import BACKENDS, SimulationConfig
from .simulation.selection import output_policy_names
from .topology.mesh import Mesh2D
from .verification import check_connectivity, verify_algorithm
from .viz import hottest_channels, render_turn_set, render_utilization_heatmaps

TURN_MODELS = {
    "xy": TurnModel.xy,
    "west-first": TurnModel.west_first,
    "north-last": TurnModel.north_last,
    "negative-first": TurnModel.negative_first,
}

# Every simulation knob a command can expose, declared once:
# (flag, SimulationConfig field, help).
CONFIG_FLAGS = (
    ("--load", "offered_load", "offered traffic per node, flits/us"),
    ("--warmup", "warmup_cycles", "cycles simulated before measurement starts"),
    ("--cycles", "measure_cycles", "cycles in the measurement window"),
    ("--seed", "seed", "simulation seed"),
    ("--buffer-depth", "buffer_depth", "flits of buffering per input channel"),
    ("--vc", "virtual_channels", "virtual channels per link"),
    ("--drain", "drain_cycles", "post-measurement cycles to let packets resolve"),
    ("--deadlock-threshold", "deadlock_threshold", "silent cycles before a deadlock"),
    ("--packet-timeout", "packet_timeout", "per-packet stall watchdog (0 disables)"),
    ("--max-retries", "max_retries", "source retries after a drop (0 disables)"),
    (
        "--retry-backoff-base",
        "retry_backoff_base",
        "cycles before the first retry (doubles per attempt)",
    ),
    ("--retry-backoff-cap", "retry_backoff_cap", "upper bound on the retry backoff"),
    ("--selection", "output_selection", "output-selection policy (docs/SELECTION.md)"),
    (
        "--selection-threshold",
        "selection_threshold",
        "downstream occupancy at which the 'threshold' policy reroutes",
    ),
    ("--backend", "backend", "engine backend (array requires numpy)"),
)
_FLAG_OF = {field: flag for flag, field, _ in CONFIG_FLAGS}
_CHOICES = {"output_selection": output_policy_names(), "backend": BACKENDS}

# Rows shared by several commands.
_RUN = "--warmup --cycles --seed --buffer-depth --vc"
_KNOBS = (
    "--deadlock-threshold --packet-timeout --max-retries --retry-backoff-base "
    "--retry-backoff-cap --selection --selection-threshold --backend"
)

_RUNNER_FLAGS = {
    "jobs": "--jobs",
    "point_timeout": "--point-timeout",
    "max_point_retries": "--max-point-retries",
}


def _construct(factory: Callable, given: Dict[str, object], flags: Dict[str, str]):
    """``factory(**given)``; its ValueError is re-raised naming each
    flag (``flags`` maps keyword to flag) whose value it rejects alone."""

    def rejects(key: str) -> bool:
        try:
            factory(**{key: given[key]})
        except ValueError:
            return True
        return False

    try:
        return factory(**given)
    except ValueError as exc:
        bad = [
            f"{flag} {given[key]}"
            for key, flag in flags.items()
            if key in given and rejects(key)
        ]
        message = f"invalid {', '.join(bad)}: {exc}" if bad else str(exc)
        raise ValueError(message) from exc


def _config(args, base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """The command's base config (or ``base``) with the config flags the
    user gave replaced; ``SimulationConfig`` checks every value."""
    if base is None:
        base = args.base
    given = {field: getattr(args, field) for field in _FLAG_OF if hasattr(args, field)}
    return _construct(partial(replace, base), given, _FLAG_OF)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type for the counts that are not config fields: an
    integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= minimum:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {minimum}, got {text!r}"
        )

    return parse


def _add_list_flag(
    p: argparse.ArgumentParser, flag: str, kind: type, default, what: str
) -> None:
    """A comma-separated list flag: ``a,b`` gives ``[kind(a), kind(b)]``;
    an empty or unparsable list is a usage error."""

    def parse(text: str) -> list:
        try:
            items = [kind(part.strip()) for part in text.split(",") if part.strip()]
            if items:
                return items
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of {kind.__name__}, got {text!r}"
        )

    p.add_argument(flag, type=parse, default=default, help=f"comma-separated {what}")


def _network(args):
    """The topology and routing algorithm ``args`` name."""
    topology = parse_topology_spec(args.topology)
    try:
        return topology, make_algorithm(args.algorithm, topology)
    except UnknownAlgorithmError:
        raise
    except ValueError as exc:
        raise ValueError(f"{args.algorithm} on {args.topology}: {exc}") from exc


def _progress(args) -> Optional[Callable]:
    """Per-point progress lines, unless the command prints JSON."""
    if getattr(args, "json", False):
        return None
    return lambda r: print("  ...", r.summary(), flush=True)


def _print_report(args, report) -> None:
    """A campaign report as JSON (``--json``) or as its text rows."""
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print()
        for row in report.rows():
            print(row)


def cmd_list(args) -> int:
    print("algorithms :", ", ".join(algorithm_names()))
    print("patterns   :", ", ".join(PATTERN_NAMES))
    print("turn models:", ", ".join(sorted(TURN_MODELS)))
    print("figures    :", ", ".join(sorted(FIGURE_HARNESSES)))
    print("selection  :", ", ".join(output_policy_names()))
    return 0


def cmd_verify(args) -> int:
    topology, algorithm = _network(args)
    verdict = verify_algorithm(algorithm)
    print(
        f"{algorithm.name} on {topology!r}: "
        f"deadlock free = {verdict.deadlock_free} "
        f"({verdict.num_channels} channels, "
        f"{verdict.num_dependencies} dependencies)"
    )
    if verdict.cycle:
        print("witness cycle:")
        for channel in verdict.cycle:
            print(f"  {channel!r}")
    if args.connectivity:
        report = check_connectivity(algorithm)
        print(
            f"connectivity: {report.delivered_pairs}/{report.total_pairs} "
            f"pairs reachable; minimal everywhere: "
            f"{report.minimal_everywhere}"
        )
    return 0 if verdict.deadlock_free else 1


def cmd_turns(args) -> int:
    print(render_turn_set(TURN_MODELS[args.model]()))
    return 0


def cmd_simulate(args) -> int:
    topology, algorithm = _network(args)
    pattern = make_pattern(args.pattern, topology)
    profiler = PhaseProfiler() if args.profile else None
    result = make_simulator(algorithm, pattern, _config(args), profiler=profiler).run()
    print(result.summary())
    if result.avg_hops is not None:
        print(
            f"hops={result.avg_hops:.2f} "
            f"net-latency={result.avg_network_latency_us:.2f}us "
            f"delivered={result.delivered_packets} packets"
        )
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def cmd_trace(args) -> int:
    topology, algorithm = _network(args)
    pattern = make_pattern(args.pattern, topology)
    if args.events is not None:
        unknown = sorted(set(args.events) - set(EVENT_KINDS))
        if unknown:
            raise ValueError(
                f"unknown trace event kinds {unknown}; "
                f"choose from {list(EVENT_KINDS)}"
            )
    config = _config(args).with_observability(channel_series_period=args.series_period)
    header = trace_header(
        topology=args.topology,
        algorithm=algorithm.name,
        pattern=getattr(pattern, "name", type(pattern).__name__),
        config_hash=config.stable_hash(),
    )
    sink = JsonlTraceSink(args.out, header=header)
    if args.events is not None:
        sink = FilteringSink(sink, args.events)
    profiler = PhaseProfiler() if args.profile else None
    simulator = make_simulator(algorithm, pattern, config, sink=sink, profiler=profiler)
    result = simulator.run()
    sink.close()

    # Summarize by reading the file back: every `repro trace` run also
    # exercises the full emit -> JSONL -> parse round-trip.
    _, events = read_trace(args.out)
    summary = summarize_trace(events)

    util = result.channel_utilization()
    totals = (
        [int(round(u * result.measure_cycles)) for u in util]
        if util is not None
        else None
    )
    heatmap_text = None
    if args.heatmap is not None:
        if not isinstance(topology, Mesh2D):
            raise ValueError("--heatmap requires a 2D mesh topology (mesh:AxB)")
        if totals is None:
            raise SystemExit(
                "--heatmap needs a non-empty utilization series (the run "
                "aborted before its measurement window?)"
            )
        heatmap_text = render_utilization_heatmaps(
            topology, simulator.channels, totals, result.measure_cycles
        )
        if args.heatmap == "-":
            print(heatmap_text)
        else:
            with open(args.heatmap, "w", encoding="utf-8") as fh:
                fh.write(heatmap_text + "\n")

    if args.json:
        payload = {
            "point": {
                "topology": args.topology,
                "algorithm": algorithm.name,
                "pattern": getattr(pattern, "name", type(pattern).__name__),
                "offered_load": config.offered_load,
                "config_hash": config.stable_hash(),
            },
            "result": result.to_dict(),
            "trace": summary.to_dict(),
            "trace_file": str(args.out),
        }
        if profiler is not None:
            payload["profile"] = profiler.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(result.summary())
    print()
    print(summary.render())
    pct = {f"p{p:g}": result.latency_percentile(p) for p in (50, 90, 99, 100)}
    if pct["p50"] is not None:
        shown = ", ".join(f"{k}={v}" for k, v in pct.items())
        print(f"creation->delivery latency (cycles): {shown}")
    if totals is not None:
        print("hottest channels (flits crossed in the measurement window):")
        for channel, flits in hottest_channels(simulator.channels, totals):
            print(f"  {channel!r}: {flits}")
    print(f"trace written to {args.out} ({summary.total_events} events)")
    if heatmap_text is not None and args.heatmap != "-":
        print(f"heatmaps written to {args.heatmap}")
    if profiler is not None:
        print()
        print(profiler.report())
    return 0


def make_runner(args) -> ParallelSweepRunner:
    """The experiment runner a batch command routes through, from the
    flags :func:`add_runner_flags` declares (docs/RESILIENCE.md);
    ``ParallelSweepRunner`` checks their values."""
    return _construct(
        ParallelSweepRunner,
        dict(
            jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if args.cache else None,
            force=args.force,
            point_timeout=args.point_timeout,
            max_point_retries=args.max_point_retries,
            keep_going=args.keep_going,
            journal=args.journal,
            resume=args.resume,
        ),
        _RUNNER_FLAGS,
    )


def _print_array_coverage(args, configs) -> None:
    """For the points on the array backend: print what fraction ride the
    vectorized kernels (and why the rest demoted to whole event-engine
    runs), so silent fast-path loss is visible."""
    configs = [config for config in configs if config.backend == "array"]
    if not configs or getattr(args, "json", False):
        return
    from .simulation.array_engine import demotion_reasons

    reasons_per_point = [demotion_reasons(config) for config in configs]
    vectorized = sum(1 for reasons in reasons_per_point if not reasons)
    line = (
        f"[array backend: {vectorized}/{len(configs)} point(s) "
        f"vectorized ({vectorized / len(configs):.0%})"
    )
    counts = Counter(reason for reasons in reasons_per_point for reason in reasons)
    if counts:
        line += "; demoted by " + ", ".join(
            f"{reason} x{count}" for reason, count in sorted(counts.items())
        )
    print(line + "]")


def finish_runner(runner: ParallelSweepRunner, args) -> int:
    """Print the runner's stats line and failure manifest; close the
    journal.  Returns the command exit code: 0 clean, 3 when points
    permanently failed under ``--keep-going`` (partial results were
    still printed)."""
    if not getattr(args, "json", False):
        print(f"[{runner.stats.summary()}]")
    runner.close()
    if not runner.failures:
        return 0
    print(f"{len(runner.failures)} point(s) permanently failed:", file=sys.stderr)
    for failure in runner.failures:
        print(f"  {failure.describe()}", file=sys.stderr)
    manifest = args.failure_manifest
    if manifest:
        with open(manifest, "w", encoding="utf-8") as fh:
            for failure in runner.failures:
                fh.write(json.dumps(failure.to_dict(), sort_keys=True, default=str))
                fh.write("\n")
        print(f"failure manifest written to {manifest}", file=sys.stderr)
    return 3


def cmd_sweep(args) -> int:
    topology, algorithm = _network(args)
    pattern = make_pattern(args.pattern, topology)
    config = _config(args)
    runner = make_runner(args)
    series = run_sweep(
        algorithm, pattern, args.loads, config, progress=_progress(args), runner=runner
    )
    print()
    for row in series.rows():
        print(row)
    print(
        f"max sustainable throughput: "
        f"{series.max_sustainable_throughput():.1f} flits/us"
    )
    _print_array_coverage(args, [config] * len(args.loads))
    return finish_runner(runner, args)


def _resolve_figure(name: str):
    """Accept both ``fig13`` and the bare paper number ``13``."""
    for key in (name, f"fig{name}"):
        if key in FIGURE_HARNESSES:
            return key, FIGURE_HARNESSES[key]
    raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURE_HARNESSES)}")


def cmd_figure(args) -> int:
    name, harness = _resolve_figure(args.name)
    preset = {"fast": FAST, "full": FULL}[args.preset]
    base = _config(args, preset.base)
    if base != preset.base:
        preset = replace(preset, base=base)
    runner = make_runner(args)
    series = harness(preset, progress=_progress(args), runner=runner)
    print()
    print(format_figure(name, series))
    return finish_runner(runner, args)


def cmd_faults(args) -> int:
    grid = dict(
        topology=args.topology,
        algorithms=args.algorithms,
        pattern=args.pattern,
        fault_counts=args.faults,
        trials=args.trials,
        base_config=_config(args),
        seed=args.campaign_seed,
        fault_start=args.fault_start,
    )
    runner = make_runner(args)
    campaign = run_fault_campaign(**grid, runner=runner, progress=_progress(args))
    _print_report(args, campaign)
    # The configs the campaign ran: each carries its own fault plan.
    _print_array_coverage(
        args, [spec.config for _, _, spec in campaign_specs(**grid)]
    )
    return finish_runner(runner, args)


def cmd_selection(args) -> int:
    config = _config(args)
    runner = make_runner(args)
    comparison = run_selection_comparison(
        topology=args.topology,
        algorithms=args.algorithms,
        patterns=args.patterns,
        policies=args.policies,
        loads=args.loads,
        base_config=config,
        fault_links=args.fault_links,
        fault_seed=args.fault_seed,
        selection_threshold=config.selection_threshold,
        runner=runner,
        progress=_progress(args),
    )
    _print_report(args, comparison)
    return finish_runner(runner, args)


def cmd_saturation(args) -> int:
    from .analysis import find_saturation_many, format_saturation_points

    topology = parse_topology_spec(args.topology)
    pairs = [
        (make_algorithm(algorithm, topology), make_pattern(pattern, topology))
        for algorithm in args.algorithms
        for pattern in args.patterns
    ]
    runner = make_runner(args)
    points = find_saturation_many(
        pairs,
        base_config=_config(args),
        low=args.low,
        high=args.high,
        iterations=args.iterations,
        runner=runner,
    )
    if args.json:
        payload = {
            "topology": args.topology,
            "points": [asdict(point) for point in points],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_saturation_points(points))
    return finish_runner(runner, args)


_PIN_HEADER = (
    f"{'point':32s} {'members':>7s} {'generated':>10s} {'delivered':>10s} "
    f"{'worm-steps':>11s} {'bulk-hops':>10s} {'quiet':>7s}  event-check"
)


def _format_pin(pin: Pin) -> str:
    point = pin.point
    if point.backend == "event":
        steps, bulk, quiet = pin.worm_steps, pin.bulk_flit_hops, pin.quiet_cycles
        check = "-"
    else:
        verdict = "identical" if pin.bit_identical else "MISMATCH"
        steps = bulk = quiet = "-"
        check = f"{point.event_sample}/{point.batch_size} {verdict}"
    return (
        f"{point.id:32s} {point.batch_size:7d} {pin.fingerprint[0]:10d} "
        f"{pin.fingerprint[1]:10d} {steps:>11} {bulk:>10} {quiet:>7}  {check}"
    )


def cmd_bench(args) -> int:
    committed = load_report(args.check_against) if args.check_against else None
    points = bench_points(quick=args.quick, backend=args.backend)
    print(f"pinning {len(points)} point(s) ...")
    print(_PIN_HEADER, flush=True)
    pins = []
    for point in points:
        pins.append(run_point(point))
        print(_format_pin(pins[-1]), flush=True)
    _print_array_coverage(args, [point.config() for point in points])
    if args.out:
        write_report(pins, args.out)
        print(f"ledger written to {args.out}")
    problems = compare_reports(
        pins, committed, canonical_ids={p.id for p in bench_points(backend="both")}
    )
    for problem in problems:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    if problems:
        return 1
    if committed is not None:
        print(f"every pin equals {args.check_against}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Turn-model adaptive routing: verify, simulate, reproduce.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available algorithms/patterns/figures")

    p = sub.add_parser("verify", help="deadlock-freedom check (CDG)")
    p.add_argument("algorithm")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--connectivity", action="store_true", help="also walk all pairs")

    p = sub.add_parser("turns", help="render a prohibition set")
    p.add_argument("model", choices=sorted(TURN_MODELS))

    for name, helptext in (
        ("simulate", "one operating point"),
        ("sweep", "latency/throughput curve"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("algorithm")
        p.add_argument("--topology", default="mesh:16x16")
        p.add_argument("--pattern", default="uniform")
        if name == "simulate":
            _add_config_flags(p, SimulationConfig(), f"--load {_RUN} {_KNOBS}")
            _add_profile_flag(p)
        else:
            _add_config_flags(p, SimulationConfig(), f"{_RUN} {_KNOBS}")
            _add_list_flag(p, "--loads", float, (0.5, 1.0, 1.5, 2.0), "offered loads")
            add_runner_flags(p)

    p = sub.add_parser(
        "trace",
        help="flit-level event trace of one operating point "
        "(docs/OBSERVABILITY.md)",
    )
    p.add_argument("algorithm")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--pattern", default="uniform")
    _add_config_flags(
        p,
        SimulationConfig(warmup_cycles=500, measure_cycles=2_000),
        f"--load {_RUN} {_KNOBS}",
    )
    p.add_argument(
        "--out",
        default="trace.jsonl",
        help="JSONL trace file to write (default trace.jsonl)",
    )
    _add_list_flag(p, "--events", str, None, "event kinds to keep (default: all)")
    p.add_argument(
        "--series-period",
        type=_int_at_least(1),
        default=100,
        help="bucket width, in cycles, of the utilization time series",
    )
    p.add_argument(
        "--heatmap",
        help="write per-direction channel-utilization heatmaps to this "
        "file ('-' prints them; 2D meshes only)",
    )
    _add_profile_flag(p)
    _add_json_flag(p, "the run + trace summary")

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("name", help="fig13..fig16, or the bare number")
    p.add_argument(
        "--preset",
        choices=("fast", "full"),
        default="fast",
        help="experiment preset (fast: reduced grid; full: denser/longer)",
    )
    _add_config_flags(p, FAST.base, _KNOBS)
    add_runner_flags(p)

    p = sub.add_parser(
        "faults", help="seeded fault-injection campaign (docs/FAULTS.md)"
    )
    p.add_argument("--topology", default="mesh:16x16")
    _add_list_flag(
        p, "--algorithms", str, DEFAULT_ALGORITHMS, "routing algorithms to compare"
    )
    p.add_argument("--pattern", default="uniform")
    _add_list_flag(
        p, "--faults", int, DEFAULT_FAULT_COUNTS, "failed-link counts to sweep"
    )
    p.add_argument(
        "--trials",
        type=_int_at_least(1),
        default=3,
        help="fault plans drawn per fault count (default 3)",
    )
    _add_config_flags(
        p, campaign_config(), f"--load --warmup --cycles --drain --seed {_KNOBS}"
    )
    p.add_argument(
        "--campaign-seed",
        type=int,
        default=0,
        help="seed the per-trial fault plans derive from",
    )
    p.add_argument(
        "--fault-start",
        type=_int_at_least(0),
        default=0,
        help="cycle the failures appear at (0 = broken from the start)",
    )
    _add_json_flag(p, "the campaign")
    add_runner_flags(p)

    p = sub.add_parser(
        "selection",
        help="compare output-selection policies across algorithms, "
        "patterns, and a fault plan (docs/SELECTION.md)",
    )
    p.add_argument("--topology", default="mesh:16x16")
    _add_list_flag(
        p, "--algorithms", str, DEFAULT_COMPARE_ALGORITHMS, "routing algorithms"
    )
    _add_list_flag(p, "--patterns", str, DEFAULT_COMPARE_PATTERNS, "traffic patterns")
    _add_list_flag(
        p, "--policies", str, DEFAULT_POLICIES, "policies (xy is the baseline)"
    )
    _add_list_flag(
        p, "--loads", float, DEFAULT_COMPARE_LOADS, "offered loads (flits/us/node)"
    )
    _add_config_flags(
        p,
        comparison_config(),
        "--warmup --cycles --seed --selection-threshold --backend",
    )
    p.add_argument(
        "--fault-links",
        type=_int_at_least(0),
        default=4,
        help="also run every cell against this many dead links "
        "(0 skips the faulted half)",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed the shared fault plan derives from",
    )
    _add_json_flag(p, "the comparison")
    add_runner_flags(p)

    p = sub.add_parser(
        "saturation",
        help="batched bisection search for each (algorithm x pattern) "
        "pair's maximum sustainable load",
    )
    p.add_argument("--topology", default="mesh:16x16")
    _add_list_flag(
        p, "--algorithms", str, DEFAULT_ALGORITHMS, "routing algorithms to search"
    )
    _add_list_flag(p, "--patterns", str, ("uniform",), "traffic patterns")
    p.add_argument(
        "--low",
        type=float,
        default=0.0,
        help="known-sustainable lower bound (flits/us/node)",
    )
    p.add_argument(
        "--high", type=float, default=8.0, help="assumed-unsustainable upper bound"
    )
    p.add_argument(
        "--iterations",
        type=_int_at_least(1),
        default=6,
        help="bisection probes per pair (resolution (high-low)/2**n)",
    )
    _add_config_flags(p, SimulationConfig(), f"{_RUN} {_KNOBS}")
    _add_json_flag(p, "the saturation points")
    add_runner_flags(p)

    p = sub.add_parser(
        "bench",
        help="pin what the canonical operating points compute "
        "(docs/PERFORMANCE.md); timing is bench/run.py",
    )
    p.add_argument(
        "--quick", action="store_true", help="run only the quick subset of points"
    )
    p.add_argument(
        "--backend",
        choices=("event", "array", "both"),
        default="event",
        help="engine(s) to pin; array/both need numpy and include the "
        "batched seed sweeps (default event)",
    )
    p.add_argument("--out", help="write the JSON ledger here")
    p.add_argument(
        "--check-against",
        help="committed ledger every pin must equal exactly (exit 1 on a "
        "changed, missing, or orphaned pin)",
    )

    return parser


def _add_config_flags(
    p: argparse.ArgumentParser, base: SimulationConfig, flags: str
) -> None:
    """Expose the ``CONFIG_FLAGS`` rows named in ``flags`` as overrides of
    ``base``.  Defaults are suppressed, so ``args`` holds only the flags
    given; :func:`_config` applies them to ``base``."""
    p.set_defaults(base=base)
    exposed = flags.split()
    for flag, field, text in CONFIG_FLAGS:
        if flag in exposed:
            default = getattr(base, field)
            p.add_argument(
                flag,
                dest=field,
                type=type(default),
                choices=_CHOICES.get(field),
                default=argparse.SUPPRESS,
                help=f"{text} (default {default})",
            )


def _add_profile_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile",
        action="store_true",
        help="time the engine's hot phases and print the report",
    )


def _add_json_flag(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--json", action="store_true", help=f"emit {what} as JSON instead of text"
    )


def add_runner_flags(p: argparse.ArgumentParser) -> None:
    """The runner and supervision flags of every batch command (and of
    ``scripts/collect_experiments.py``); :func:`make_runner` reads them."""
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the operating points (default 1)",
    )
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve/record results in the on-disk cache (default on)",
    )
    p.add_argument(
        "--cache-dir",
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="re-simulate even on cache hits (refreshes the cache)",
    )
    p.add_argument(
        "--point-timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per operating point; a worker past it is "
        "killed and the point retried or recorded as a timeout failure "
        "(docs/RESILIENCE.md)",
    )
    p.add_argument(
        "--max-point-retries",
        type=int,
        default=0,
        help="re-dispatch attempts after a point crashes, hangs, or "
        "raises, with exponential backoff (default 0)",
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="record permanently failed points in a failure manifest and "
        "finish the batch (exit code 3 if any failed)",
    )
    p.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="abort the batch on the first permanent failure (default)",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        help="JSONL campaign journal checkpointing each completed point "
        "(fsync'd per line, so SIGKILL loses nothing journaled)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip points already recorded in --journal, serving them "
        "from the result cache",
    )
    p.add_argument(
        "--failure-manifest",
        metavar="PATH",
        help="also write permanently failed points to this JSONL file",
    )


COMMANDS = {
    "list": cmd_list,
    "verify": cmd_verify,
    "turns": cmd_turns,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
    "faults": cmd_faults,
    "trace": cmd_trace,
    "selection": cmd_selection,
    "saturation": cmd_saturation,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (KeyError, ValueError) as exc:
        # A bad name, spec or value: a usage error, never a traceback.
        parser.error(f"{args.command}: {exc.args[0] if exc.args else exc}")


if __name__ == "__main__":
    sys.exit(main())
