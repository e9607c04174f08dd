"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list`` — available algorithms, patterns, and figures;
* ``verify`` — CDG deadlock check + connectivity for an algorithm;
* ``turns`` — render a named prohibition set (Figures 3/5a/9a/10a);
* ``simulate`` — one operating point (algorithm, pattern, load);
* ``sweep`` — a latency/throughput curve over several loads;
* ``figure`` — regenerate one of the paper's figures (13-16);
* ``faults`` — a seeded fault-injection campaign: delivery ratio, drops
  by cause, and retries vs. the number of failed links, per algorithm
  (see docs/FAULTS.md);
* ``trace`` — run one operating point with flit-level observability on:
  JSONL event trace, text/JSON summary (latency percentiles, stall-prone
  routers, hottest channels), and per-direction channel-utilization
  heatmaps (see docs/OBSERVABILITY.md);
* ``selection`` — compare output-selection policies (xy, round-robin,
  max-credits, threshold) across algorithms, patterns, and a shared
  fault plan, with saturation/latency deltas vs the xy baseline (see
  docs/SELECTION.md);
* ``saturation`` — batched bisection searches for the maximum
  sustainable load of each (algorithm x pattern) pair;
* ``bench`` — run the canonical operating points and pin what they
  compute (fingerprints, counted work, event-vs-array bit-identity),
  optionally checked for exact equality against the committed ledger
  ``BENCH_engine.json``; no timing — that is ``bench/run.py`` (see
  docs/PERFORMANCE.md).

``simulate`` and ``trace`` accept ``--profile`` to time the engine's hot
phases (routing decision, switch allocation, flit advance).
``simulate``/``sweep``/``trace``/``figure``/``faults`` accept
``--selection``/``--selection-threshold`` to swap the output-selection
policy.

``sweep``, ``figure``, ``faults``, ``selection``, and ``saturation``
route through the parallel experiment runner: ``--jobs N`` fans the
operating points over N supervised worker processes and
``--cache``/``--no-cache``/``--cache-dir``/``--force`` control the
on-disk result cache (results are bit-identical either way; see
docs/PERFORMANCE.md).  The supervision knobs — ``--point-timeout``,
``--max-point-retries``, ``--keep-going``/``--fail-fast``,
``--journal``, ``--resume`` — make long campaigns survive worker
crashes, hangs, and interruptions (docs/RESILIENCE.md).

Topology specs: ``mesh:16x16`` (any ``AxBxC...``), ``cube:8`` (binary
n-cube), ``torus:8x2`` (k-ary n-cube, k then n).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

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
    campaign_config,
    run_fault_campaign,
)
from .analysis.selection import (
    DEFAULT_COMPARE_ALGORITHMS,
    DEFAULT_COMPARE_PATTERNS,
    DEFAULT_POLICIES,
    comparison_config,
    run_selection_comparison,
)
from .analysis.runner import (
    PATTERN_NAMES,
    ParallelSweepRunner,
    ResultCache,
    make_pattern as _make_pattern,
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
from .routing.registry import algorithm_names, make_algorithm
from .simulation.array_engine import make_simulator
from .simulation.config import BACKENDS, SimulationConfig
from .simulation.selection import output_policy_names
from .topology.base import Topology
from .topology.mesh import Mesh2D
from .verification import check_connectivity, verify_algorithm
from .viz import hottest_channels, render_turn_set, render_utilization_heatmaps

TURN_MODELS = {
    "xy": TurnModel.xy,
    "west-first": TurnModel.west_first,
    "north-last": TurnModel.north_last,
    "negative-first": TurnModel.negative_first,
}

def parse_topology(spec: str) -> Topology:
    """Parse ``mesh:16x16`` / ``cube:8`` / ``torus:8x2`` specs."""
    try:
        return parse_topology_spec(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def make_pattern(name: str, topology: Topology):
    try:
        return _make_pattern(name, topology)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def cmd_list(args) -> int:
    print("algorithms :", ", ".join(algorithm_names()))
    print("patterns   :", ", ".join(PATTERN_NAMES))
    print("turn models:", ", ".join(sorted(TURN_MODELS)))
    print("figures    :", ", ".join(sorted(FIGURE_HARNESSES)))
    print("selection  :", ", ".join(output_policy_names()))
    return 0


def cmd_verify(args) -> int:
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
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
    factory = TURN_MODELS.get(args.model)
    if factory is None:
        raise SystemExit(
            f"unknown turn model {args.model!r}; choose from "
            f"{sorted(TURN_MODELS)}"
        )
    print(render_turn_set(factory()))
    return 0


def _positive_int(text: str) -> int:
    """argparse type: an integer that must be strictly positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float that must be strictly positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer that must be >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _config(args) -> SimulationConfig:
    return SimulationConfig(
        offered_load=getattr(args, "load", 1.0),
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        seed=args.seed,
        buffer_depth=args.buffer_depth,
        virtual_channels=getattr(args, "vc", 1),
        output_selection=getattr(args, "selection", "xy"),
        selection_threshold=getattr(args, "selection_threshold", 2),
        deadlock_threshold=getattr(args, "deadlock_threshold", 5_000),
        packet_timeout=getattr(args, "packet_timeout", 0),
        max_retries=getattr(args, "max_retries", 0),
        retry_backoff_base=getattr(args, "retry_backoff_base", 32),
        retry_backoff_cap=getattr(args, "retry_backoff_cap", 2_048),
        backend=getattr(args, "backend", "event"),
    )


def cmd_simulate(args) -> int:
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
    pattern = make_pattern(args.pattern, topology)
    profiler = PhaseProfiler() if args.profile else None
    result = make_simulator(
        algorithm, pattern, _config(args), profiler=profiler
    ).run()
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
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
    pattern = make_pattern(args.pattern, topology)
    kinds = None
    if args.events:
        kinds = [part.strip() for part in args.events.split(",") if part.strip()]
        unknown = sorted(set(kinds) - set(EVENT_KINDS))
        if unknown:
            raise SystemExit(
                f"unknown trace event kinds {unknown}; "
                f"choose from {list(EVENT_KINDS)}"
            )
    config = _config(args).with_observability(
        channel_series_period=args.series_period
    )
    header = trace_header(
        topology=args.topology,
        algorithm=algorithm.name,
        pattern=getattr(pattern, "name", type(pattern).__name__),
        config_hash=config.stable_hash(),
    )
    sink = JsonlTraceSink(args.out, header=header)
    if kinds is not None:
        sink = FilteringSink(sink, kinds)
    profiler = PhaseProfiler() if args.profile else None
    simulator = make_simulator(
        algorithm, pattern, config, sink=sink, profiler=profiler
    )
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
            raise SystemExit(
                "--heatmap requires a 2D mesh topology (mesh:AxB)"
            )
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
    pct = {
        f"p{p:g}": result.latency_percentile(p) for p in (50, 90, 99, 100)
    }
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


def _make_runner(args) -> ParallelSweepRunner:
    """Build the experiment runner the sweep/figure commands route
    through, from the shared ``--jobs``/``--cache*``/``--force`` flags
    and the supervision knobs (docs/RESILIENCE.md)."""
    cache = None
    if getattr(args, "cache", True):
        cache = ResultCache(getattr(args, "cache_dir", None))
    try:
        return ParallelSweepRunner(
            jobs=getattr(args, "jobs", 1),
            cache=cache,
            force=getattr(args, "force", False),
            point_timeout=getattr(args, "point_timeout", None),
            max_point_retries=getattr(args, "max_point_retries", 0),
            keep_going=getattr(args, "keep_going", False),
            journal=getattr(args, "journal", None),
            resume=getattr(args, "resume", False),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _print_array_coverage(args, configs, force: bool = False) -> None:
    """For ``--backend array`` runs: print what fraction of the points
    ride the vectorized kernels (and why the rest demoted to the
    scalar-member fallback), so silent fast-path loss is visible."""
    if not force and getattr(args, "backend", "event") != "array":
        return
    if not configs or getattr(args, "json", False):
        return
    from .simulation.array_engine import demotion_reasons

    reasons_per_point = [demotion_reasons(config) for config in configs]
    vectorized = sum(1 for reasons in reasons_per_point if not reasons)
    line = (
        f"[array backend: {vectorized}/{len(configs)} point(s) "
        f"vectorized ({vectorized / len(configs):.0%})"
    )
    if vectorized < len(configs):
        counts: Dict[str, int] = {}
        for reasons in reasons_per_point:
            for reason in reasons:
                counts[reason] = counts.get(reason, 0) + 1
        line += "; demoted by " + ", ".join(
            f"{reason} x{count}" for reason, count in sorted(counts.items())
        )
    print(line + "]")


def _finish_runner(runner: ParallelSweepRunner, args) -> int:
    """Print the runner's stats line and failure manifest; close the
    journal.  Returns the command exit code: 0 clean, 3 when points
    permanently failed under ``--keep-going`` (partial results were
    still printed)."""
    quiet = getattr(args, "json", False)
    if not quiet:
        print(f"[{runner.stats.summary()}]")
    if runner.failures:
        print(
            f"{len(runner.failures)} point(s) permanently failed:",
            file=sys.stderr,
        )
        for failure in runner.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        manifest = getattr(args, "failure_manifest", None)
        if manifest:
            with open(manifest, "w", encoding="utf-8") as fh:
                for failure in runner.failures:
                    fh.write(
                        json.dumps(
                            failure.to_dict(), sort_keys=True, default=str
                        )
                        + "\n"
                    )
            print(f"failure manifest written to {manifest}", file=sys.stderr)
        runner.close()
        return 3
    runner.close()
    return 0


def cmd_sweep(args) -> int:
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm, topology)
    pattern = make_pattern(args.pattern, topology)
    loads = [float(part) for part in args.loads.split(",")]
    runner = _make_runner(args)
    series = run_sweep(
        algorithm,
        pattern,
        loads,
        _config(args),
        progress=lambda r: print("  ", r.summary(), flush=True),
        runner=runner,
    )
    print()
    for row in series.rows():
        print(row)
    print(
        f"max sustainable throughput: "
        f"{series.max_sustainable_throughput():.1f} flits/us"
    )
    _print_array_coverage(args, [_config(args)] * len(loads))
    return _finish_runner(runner, args)


def _resolve_figure(name: str):
    """Accept both ``fig13`` and the bare paper number ``13``."""
    harness = FIGURE_HARNESSES.get(name)
    if harness is None:
        harness = FIGURE_HARNESSES.get(f"fig{name}")
        if harness is not None:
            name = f"fig{name}"
    if harness is None:
        raise SystemExit(
            f"unknown figure {name!r}; choose from "
            f"{sorted(FIGURE_HARNESSES)}"
        )
    return name, harness


def cmd_figure(args) -> int:
    from dataclasses import replace

    name, harness = _resolve_figure(args.name)
    preset = FULL if (args.full or args.preset == "full") else FAST
    overrides = {
        knob: getattr(args, knob)
        for knob in ("deadlock_threshold", "packet_timeout", "max_retries")
        if getattr(args, knob) != getattr(preset, knob)
    }
    if args.selection != preset.output_selection:
        overrides["output_selection"] = args.selection
    if args.selection_threshold != preset.selection_threshold:
        overrides["selection_threshold"] = args.selection_threshold
    if args.backend != preset.backend:
        overrides["backend"] = args.backend
    if overrides:
        preset = replace(preset, **overrides)
    runner = _make_runner(args)
    series = harness(
        preset,
        progress=lambda r: print("  ...", r.summary(), flush=True),
        runner=runner,
    )
    print()
    print(format_figure(name, series))
    return _finish_runner(runner, args)


def cmd_faults(args) -> int:
    algorithms = [part.strip() for part in args.algorithms.split(",") if part.strip()]
    if not algorithms:
        raise SystemExit("--algorithms must name at least one algorithm")
    try:
        fault_counts = [int(part) for part in args.faults.split(",")]
    except ValueError:
        raise SystemExit(f"bad --faults list {args.faults!r}")
    config = campaign_config(
        offered_load=args.load,
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        seed=args.seed,
        packet_timeout=args.packet_timeout,
        max_retries=args.max_retries,
        drain_cycles=args.drain,
        retry_backoff_base=args.retry_backoff_base,
        retry_backoff_cap=args.retry_backoff_cap,
        deadlock_threshold=args.deadlock_threshold,
        output_selection=args.selection,
        selection_threshold=args.selection_threshold,
        backend=args.backend,
    )
    runner = _make_runner(args)
    progress = None
    if not args.json:
        progress = lambda r: print("  ...", r.summary(), flush=True)  # noqa: E731
    try:
        campaign = run_fault_campaign(
            topology=args.topology,
            algorithms=algorithms,
            pattern=args.pattern,
            fault_counts=fault_counts,
            trials=args.trials,
            base_config=config,
            seed=args.campaign_seed,
            fault_start=args.fault_start,
            runner=runner,
            progress=progress,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(campaign.to_dict(), indent=2, sort_keys=True))
    else:
        print()
        for row in campaign.rows():
            print(row)
    _print_array_coverage(args, [config])
    return _finish_runner(runner, args)


def cmd_selection(args) -> int:
    def _csv(text: str) -> List[str]:
        return [part.strip() for part in text.split(",") if part.strip()]

    algorithms = _csv(args.algorithms)
    patterns = _csv(args.patterns)
    policies = _csv(args.policies)
    try:
        loads = [float(part) for part in args.loads.split(",")]
    except ValueError:
        raise SystemExit(f"bad --loads list {args.loads!r}")
    config = comparison_config(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        seed=args.seed,
        backend=args.backend,
    )
    runner = _make_runner(args)
    progress = None
    if not args.json:
        progress = lambda r: print("  ...", r.summary(), flush=True)  # noqa: E731
    try:
        comparison = run_selection_comparison(
            topology=args.topology,
            algorithms=algorithms,
            patterns=patterns,
            policies=policies,
            loads=loads,
            base_config=config,
            fault_links=args.fault_links,
            fault_seed=args.fault_seed,
            selection_threshold=args.selection_threshold,
            runner=runner,
            progress=progress,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print()
        for row in comparison.rows():
            print(row)
    return _finish_runner(runner, args)


def cmd_saturation(args) -> int:
    from .analysis import find_saturation_many, format_saturation_points

    algorithms = [
        part.strip() for part in args.algorithms.split(",") if part.strip()
    ]
    if not algorithms:
        raise SystemExit("--algorithms must name at least one algorithm")
    patterns = [
        part.strip() for part in args.patterns.split(",") if part.strip()
    ]
    if not patterns:
        raise SystemExit("--patterns must name at least one pattern")
    topology = parse_topology(args.topology)
    try:
        pairs = [
            (make_algorithm(algorithm, topology), _make_pattern(p, topology))
            for algorithm in algorithms
            for p in patterns
        ]
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    runner = _make_runner(args)
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
            "points": [
                {
                    "algorithm": p.algorithm,
                    "pattern": p.pattern,
                    "max_sustainable_load": p.max_sustainable_load,
                    "throughput_flits_per_us": p.throughput_flits_per_us,
                    "latency_us": p.latency_us,
                    "probes": p.probes,
                }
                for p in points
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_saturation_points(points))
    return _finish_runner(runner, args)


_PIN_HEADER = (
    f"{'point':32s} {'members':>7s} {'generated':>10s} {'delivered':>10s} "
    f"{'worm-steps':>11s} {'bulk-hops':>10s}  event-check"
)


def _format_pin(pin: Pin) -> str:
    point = pin.point
    if point.backend == "event":
        steps, bulk, check = pin.worm_steps, pin.bulk_flit_hops, "-"
    else:
        verdict = "identical" if pin.bit_identical else "MISMATCH"
        steps, bulk = "-", "-"
        check = f"{point.event_sample}/{point.batch_size} {verdict}"
    return (
        f"{point.id:32s} {point.batch_size:7d} {pin.fingerprint[0]:10d} "
        f"{pin.fingerprint[1]:10d} {steps:>11} {bulk:>10}  {check}"
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
    _print_array_coverage(
        args, [p.config() for p in points if p.backend == "array"], force=True
    )
    if args.out:
        write_report(pins, args.out)
        print(f"ledger written to {args.out}")
    problems = compare_reports(
        pins, committed,
        canonical_ids={p.id for p in bench_points(backend="both")},
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
    p.add_argument(
        "--connectivity", action="store_true", help="also walk all pairs"
    )

    p = sub.add_parser("turns", help="render a prohibition set")
    p.add_argument("model")

    for name, helptext in (
        ("simulate", "one operating point"),
        ("sweep", "latency/throughput curve"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("algorithm")
        p.add_argument("--topology", default="mesh:16x16")
        p.add_argument("--pattern", default="uniform")
        p.add_argument("--warmup", type=int, default=2_000)
        p.add_argument("--cycles", type=int, default=8_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--buffer-depth", type=int, default=1)
        p.add_argument(
            "--vc", type=int, default=1, help="virtual channels per link"
        )
        _add_robustness_flags(p)
        _add_selection_flags(p)
        _add_backend_flag(p)
        if name == "simulate":
            p.add_argument("--load", type=float, default=1.0)
            p.add_argument(
                "--profile",
                action="store_true",
                help="time the engine's hot phases and print the report",
            )
        else:
            p.add_argument("--loads", default="0.5,1.0,1.5,2.0")
            _add_runner_flags(p)

    p = sub.add_parser(
        "trace",
        help="flit-level event trace of one operating point "
        "(docs/OBSERVABILITY.md)",
    )
    p.add_argument("algorithm")
    p.add_argument("--topology", default="mesh:8x8")
    p.add_argument("--pattern", default="uniform")
    p.add_argument("--load", type=float, default=1.0)
    p.add_argument("--warmup", type=int, default=500)
    p.add_argument("--cycles", type=int, default=2_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--buffer-depth", type=int, default=1)
    p.add_argument(
        "--vc", type=int, default=1, help="virtual channels per link"
    )
    p.add_argument(
        "--out",
        default="trace.jsonl",
        help="JSONL trace file to write (default trace.jsonl)",
    )
    p.add_argument(
        "--events",
        default=None,
        help="comma-separated event kinds to keep (default: all)",
    )
    p.add_argument(
        "--series-period",
        type=_positive_int,
        default=100,
        help="bucket width, in cycles, of the utilization time series",
    )
    p.add_argument(
        "--heatmap",
        default=None,
        help="write per-direction channel-utilization heatmaps to this "
        "file ('-' prints them; 2D meshes only)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the run + trace summary as JSON instead of text",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="time the engine's hot phases and print the report",
    )
    _add_robustness_flags(p)
    _add_selection_flags(p)
    _add_backend_flag(p)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("name", help="fig13..fig16, or the bare number")
    p.add_argument(
        "--preset",
        choices=("fast", "full"),
        default="fast",
        help="experiment preset (fast: reduced grid; full: denser/longer)",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="alias for --preset full (kept for compatibility)",
    )
    _add_robustness_flags(p)
    _add_selection_flags(p)
    _add_backend_flag(p)
    _add_runner_flags(p)

    p = sub.add_parser(
        "faults", help="seeded fault-injection campaign (docs/FAULTS.md)"
    )
    p.add_argument("--topology", default="mesh:16x16")
    p.add_argument(
        "--algorithms",
        default=",".join(DEFAULT_ALGORITHMS),
        help="comma-separated routing algorithms to compare",
    )
    p.add_argument("--pattern", default="uniform")
    p.add_argument(
        "--faults",
        default="1,2,4,8",
        help="comma-separated failed-link counts to sweep",
    )
    p.add_argument(
        "--trials",
        type=_positive_int,
        default=3,
        help="fault plans drawn per fault count (default 3)",
    )
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--warmup", type=int, default=500)
    p.add_argument("--cycles", type=int, default=4_000)
    p.add_argument(
        "--drain",
        type=_non_negative_int,
        default=3_000,
        help="post-measurement cycles to let in-flight packets resolve",
    )
    p.add_argument("--seed", type=int, default=1, help="simulation seed")
    p.add_argument(
        "--campaign-seed",
        type=int,
        default=0,
        help="seed the per-trial fault plans derive from",
    )
    p.add_argument(
        "--fault-start",
        type=_non_negative_int,
        default=0,
        help="cycle the failures appear at (0 = broken from the start)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the campaign as JSON instead of the text report",
    )
    _add_robustness_flags(
        p, packet_timeout_default=800, max_retries_default=2
    )
    _add_selection_flags(p)
    _add_backend_flag(p)
    _add_runner_flags(p)

    p = sub.add_parser(
        "selection",
        help="compare output-selection policies across algorithms, "
        "patterns, and a fault plan (docs/SELECTION.md)",
    )
    p.add_argument("--topology", default="mesh:16x16")
    p.add_argument(
        "--algorithms",
        default=",".join(DEFAULT_COMPARE_ALGORITHMS),
        help="comma-separated routing algorithms to compare under",
    )
    p.add_argument(
        "--patterns",
        default=",".join(DEFAULT_COMPARE_PATTERNS),
        help="comma-separated traffic patterns",
    )
    p.add_argument(
        "--policies",
        default=",".join(DEFAULT_POLICIES),
        help="comma-separated selection policies (xy is the baseline)",
    )
    p.add_argument(
        "--loads",
        default="0.6,1.2,2.0",
        help="comma-separated offered loads (flits/us/node)",
    )
    p.add_argument("--warmup", type=int, default=800)
    p.add_argument("--cycles", type=int, default=3_000)
    p.add_argument("--seed", type=int, default=1, help="simulation seed")
    p.add_argument(
        "--fault-links",
        type=_non_negative_int,
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
    p.add_argument(
        "--selection-threshold",
        type=_non_negative_int,
        default=2,
        help="downstream occupancy at which the 'threshold' policy "
        "reroutes",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as JSON instead of the text report",
    )
    _add_backend_flag(p)
    _add_runner_flags(p)

    p = sub.add_parser(
        "saturation",
        help="batched bisection search for each (algorithm x pattern) "
        "pair's maximum sustainable load",
    )
    p.add_argument(
        "--topology", default="mesh:16x16"
    )
    p.add_argument(
        "--algorithms",
        default=",".join(DEFAULT_ALGORITHMS),
        help="comma-separated routing algorithms to search",
    )
    p.add_argument(
        "--patterns",
        default="uniform",
        help="comma-separated traffic patterns",
    )
    p.add_argument("--low", type=float, default=0.0,
                   help="known-sustainable lower bound (flits/us/node)")
    p.add_argument("--high", type=float, default=8.0,
                   help="assumed-unsustainable upper bound")
    p.add_argument(
        "--iterations",
        type=_positive_int,
        default=6,
        help="bisection probes per pair (resolution (high-low)/2**n)",
    )
    p.add_argument("--warmup", type=int, default=2_000)
    p.add_argument("--cycles", type=int, default=8_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--buffer-depth", type=int, default=1)
    p.add_argument(
        "--vc", type=int, default=1, help="virtual channels per link"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the saturation points as JSON instead of the table",
    )
    _add_robustness_flags(p)
    _add_selection_flags(p)
    _add_backend_flag(p)
    _add_runner_flags(p)

    p = sub.add_parser(
        "bench",
        help="pin what the canonical operating points compute "
        "(docs/PERFORMANCE.md); timing is bench/run.py",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="run only the quick subset of points",
    )
    p.add_argument(
        "--backend", choices=("event", "array", "both"), default="event",
        help="engine(s) to pin; array/both need numpy and include the "
        "batched seed sweeps (default event)",
    )
    p.add_argument("--out", default=None, help="write the JSON ledger here")
    p.add_argument(
        "--check-against", default=None,
        help="committed ledger every pin must equal exactly (exit 1 on a "
        "changed, missing, or orphaned pin)",
    )

    return parser


def _add_robustness_flags(
    p: argparse.ArgumentParser,
    packet_timeout_default: int = 0,
    max_retries_default: int = 0,
) -> None:
    """The watchdog/retry knobs shared by simulate/sweep/figure/faults.

    Validation lives in the argparse types: non-positive
    ``--deadlock-threshold`` or backoff values are rejected with a clear
    error instead of surfacing as a config ValueError deep in a worker.
    """
    p.add_argument(
        "--deadlock-threshold",
        type=_positive_int,
        default=5_000,
        help="cycles of global silence before declaring deadlock",
    )
    p.add_argument(
        "--packet-timeout",
        type=_non_negative_int,
        default=packet_timeout_default,
        help="per-packet stall watchdog in cycles (0 disables)",
    )
    p.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=max_retries_default,
        help="source retries after a drop (0 disables)",
    )
    p.add_argument(
        "--retry-backoff-base",
        type=_positive_int,
        default=32,
        help="cycles before the first retry (doubles per attempt)",
    )
    p.add_argument(
        "--retry-backoff-cap",
        type=_positive_int,
        default=2_048,
        help="upper bound on the retry backoff delay",
    )


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    """The engine-backend selector shared by the simulation commands.

    Both backends are bit-identical (docs/SIMULATOR.md); ``array``
    requires the optional numpy extra and shines on batched sweeps.
    """
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default="event",
        help="engine backend (default: event; array requires numpy)",
    )


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    """The output-selection knobs shared by simulate/sweep/trace/figure/
    faults (docs/SELECTION.md).  ``choices`` makes argparse reject an
    unknown policy name with the valid list."""
    p.add_argument(
        "--selection",
        default="xy",
        choices=output_policy_names(),
        help="output-selection policy among the free legal candidates "
        "(default xy, the paper's rule)",
    )
    p.add_argument(
        "--selection-threshold",
        type=_non_negative_int,
        default=2,
        help="downstream occupancy at which the 'threshold' policy "
        "reroutes (other policies ignore it)",
    )


def _add_runner_flags(p: argparse.ArgumentParser) -> None:
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
        default=None,
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="re-simulate even on cache hits (refreshes the cache)",
    )
    p.add_argument(
        "--point-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per operating point; a worker past it is "
        "killed and the point retried or recorded as a timeout failure "
        "(docs/RESILIENCE.md)",
    )
    p.add_argument(
        "--max-point-retries",
        type=_non_negative_int,
        default=0,
        help="re-dispatch attempts after a point crashes, hangs, or "
        "raises, with exponential backoff (default 0)",
    )
    p.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        default=False,
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
        default=None,
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
        default=None,
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
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
