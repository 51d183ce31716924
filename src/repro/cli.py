"""Command-line interface.

``python -m repro <command>`` (or the ``repro`` console script):

* ``study``      — run the Table 1 sweep and print every artifact.
* ``figure ID``  — regenerate one table/figure (``fig01``..``fig15``,
  ``table1``, ``sec4``).
* ``table1``     — print the clip table without running experiments.
* ``generate``   — synthesize a Section IV flow; optionally export
  pcap/CSV.
* ``pcap-info``  — summarize any libpcap file (fragmentation, rates).
* ``telemetry``  — run the sweep fully instrumented; print the metric
  summary and export JSON / JSON-lines / CSV artifacts.
* ``spans``      — run the sweep with causal span tracing; print the
  per-hop waterfalls of the slowest ADUs and the WMS-vs-RealServer
  latency-attribution table; export Chrome-trace / JSONL artifacts.
* ``faults``     — inject a named fault scenario into one pair run and
  print the recovery report (``--list`` shows the scenarios).
* ``cc``         — run one clip set under a named congestion
  controller (``repro.cc``) and print the controller's state summary
  (``--list`` shows the controllers).
* ``repair``     — run one clip set with the loss-repair stack armed
  (``repro.repair``: XOR parity, NACK retransmission, deadline-aware
  scheduling) under a fault scenario and print the repair ledger and
  per-viewer QoE scores.
* ``validate``   — run a seeded study with every runtime invariant
  checked (``repro.validate``); ``--study`` runs the differential
  oracle (sequential vs parallel vs cache), ``--golden`` re-checks the
  pinned golden traces, ``--cc``/``--abr`` pick a transport.
  Non-zero exit on any violation or divergence.
* ``watch``      — replay a streamed study's per-run records (``repro
  study --stream-jsonl``) through rolling z-score baselines; exits 1
  when a rebuffer/loss/delivery anomaly rule trips, so CI can gate on
  study health.
* ``cache``      — inspect or clear the persistent study cache.

``study --progress`` renders a live status line (runs done/total, ETA,
cache state, violations) from heartbeat records, which the parent sends
in library order under any ``--jobs``, with a deterministic non-TTY
fallback; ``study --stream-jsonl PATH`` writes each run's online-folded
turbulence roll-up as one JSON line for ``repro watch``.

``scorecard --modern`` re-runs the sweep under each transport (2002
push, AIMD, delay-gradient, ABR ladder) and prints the figure-for-
figure then-vs-now table (optionally an SVG chart).

Studies fan out across worker processes with ``--jobs N`` (0 = one per
CPU) and, for ``repro study``, persist to the on-disk cache so a second
invocation in a fresh process skips the simulation entirely.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from repro._version import __version__
from repro.errors import ReproError


#: The run-spec flags commands share, by name: (option strings, argparse
#: keywords).  :func:`_spec_flags` builds a parent parser from a subset,
#: and :func:`_spec_from_args` turns the parsed values into a RunSpec.
_SPEC_FLAGS = {
    "jobs": (("--jobs",), dict(
        type=int, default=1,
        help="worker processes (0 = one per usable CPU; default "
             "%(default)s); results are identical to a sequential run's")),
    "set": (("--set",), dict(
        type=int, default=None, dest="set_number",
        help="one Table 1 clip set to sweep (default %(default)s; None "
             "sweeps them all)")),
    "faults": (("--faults",), dict(
        default=None, dest="fault_scenario",
        type=lambda name: None if name == "none" else name,
        help="arm a named fault scenario (see `repro faults --list`; "
             "default %(default)s; 'none' for a clean run)")),
    "cc": (("--cc",), dict(
        default=None, dest="cc_kind",
        help="arm a congestion controller (see `repro cc --list`)")),
    "abr": (("--abr",), dict(
        action="store_true",
        help="run on the ABR segment-ladder transport")),
    "repair": (("--repair",), dict(
        action="store_true",
        help="arm the default loss-repair stack")),
    "fast_path": (("--fast-path",), dict(
        nargs="?", const="on", choices=["on", "strict"], default=None,
        dest="fast_path",
        help="deliver uncontended packet trains analytically instead of "
             "event-per-packet (see repro.netsim.flowlevel); 'strict' "
             "accepts only provably-exact trains")),
}


def _spec_flags(*names: str, **defaults) -> argparse.ArgumentParser:
    """A parent parser with ``--seed``, ``--scale`` and the named
    :data:`_SPEC_FLAGS`, under one command's ``defaults`` (by dest)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=2002)
    parent.add_argument("--scale", type=float, default=1.0,
                        help="clip duration scale (default %(default)s; "
                             "use <1 for a fast run)")
    for name in names:
        flags, options = _SPEC_FLAGS[name]
        parent.add_argument(*flags, **options)
    parent.set_defaults(**defaults)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'MediaPlayer vs RealPlayer: A "
                    "Comparison of Network Turbulence' (WPI 2002)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    study = commands.add_parser(
        "study", parents=[_spec_flags("jobs", "fast_path")],
        help="run the full Table 1 sweep and print the report")
    study.add_argument("--no-cache", action="store_true",
                       help="always simulate; skip the study caches")
    study.add_argument("--progress", action="store_true",
                       help="live status line while the sweep runs "
                            "(single in-place line on a TTY; one "
                            "deterministic line per run otherwise)")
    study.add_argument("--stream-jsonl", default=None,
                       help="write each run's online-folded turbulence "
                            "roll-up as one JSON line (feeds `repro "
                            "watch`); implies a fresh simulation")
    study.add_argument("--plots", action="store_true",
                       help="include ASCII plots")
    study.add_argument("--html",
                       help="also write a standalone HTML report")

    figure = commands.add_parser(
        "figure", parents=[_spec_flags()],
        help="regenerate one paper artifact")
    figure.add_argument("figure_id",
                        help="fig01..fig15, table1, or sec4")
    figure.add_argument("--plots", action="store_true")
    figure.add_argument("--csv", help="also write the data as CSV")

    probe = commands.add_parser(
        "probe", help="TCP-friendliness probe (paper §VI)")
    probe.add_argument("family", choices=["real", "wmp"])
    probe.add_argument("kbps", type=float)
    probe.add_argument("loss", type=float, help="loss fraction, e.g. 0.05")
    probe.add_argument("--rtt", type=float, default=0.200)
    probe.add_argument("--duration", type=float, default=30.0)
    probe.add_argument("--scaling", action="store_true",
                       help="enable media scaling with receiver reports")

    boundary = commands.add_parser(
        "boundary", help="multi-client egress study (paper §VI)")
    boundary.add_argument("--clients", type=int, default=4)
    boundary.add_argument("--duration", type=float, default=40.0)
    boundary.add_argument("--kbps", type=float, default=150.0)
    boundary.add_argument("--seed", type=int, default=2002)

    scorecard = commands.add_parser(
        "scorecard", parents=[_spec_flags("jobs")],
        help="check every paper claim; nonzero on failure "
             "(--modern: then-vs-now transport comparison)")
    scorecard.add_argument("--modern", action="store_true",
                           help="compare the 2002 transports against "
                                "AIMD / delay-gradient congestion "
                                "control and the ABR ladder")
    scorecard.add_argument("--transports", default=None,
                           help="comma-separated transport subset for "
                                "--modern (default: 2002,aimd,gcc,abr)")
    scorecard.add_argument("--svg", default=None,
                           help="write the --modern per-set delivered-"
                                "rate chart as SVG")

    telemetry = commands.add_parser(
        "telemetry", parents=[_spec_flags("jobs")],
        help="run the Table 1 sweep with telemetry enabled "
             "and summarize/export what it saw")
    telemetry.add_argument("--json",
                           help="write the deterministic JSON summary")
    telemetry.add_argument("--events",
                           help="write the trace-event stream as JSON lines")
    telemetry.add_argument("--series-csv",
                           help="write gauge time series (queue depth, "
                                "buffer occupancy) as CSV")
    telemetry.add_argument("--profile", action="store_true",
                           help="also profile the event loop (wall-clock "
                                "numbers; excluded from exports)")
    telemetry.add_argument("--top", type=int, default=12,
                           help="rows shown per summary section")
    telemetry.add_argument("--ring-capacity", type=int, default=None,
                           help="memory-ring capacity in events "
                                "(default 262144; 0 = unbounded); a "
                                "dropped=N warning prints if the ring "
                                "overflows")

    spans = commands.add_parser(
        "spans", parents=[_spec_flags("jobs")],
        help="run the sweep with span tracing; print per-hop "
             "waterfalls and the latency-attribution table")
    spans.add_argument("--top", type=int, default=5,
                       help="slowest ADUs rendered as waterfalls")
    spans.add_argument("--json",
                       help="write the attribution summary as JSON")
    spans.add_argument("--chrome-trace",
                       help="write the span forest as Chrome trace-event "
                            "JSON (load in Perfetto or chrome://tracing)")
    spans.add_argument("--jsonl",
                       help="write the span forest as JSON lines")

    faults = commands.add_parser(
        "faults", parents=[_spec_flags("repair", scale=0.25)],
        help="run one pair experiment under a fault scenario "
             "and print the recovery report")
    faults.add_argument("scenario", nargs="?", default="link-flap",
                        help="scenario name (see --list); "
                             "default: link-flap")
    faults.add_argument("--list", action="store_true",
                        dest="list_scenarios",
                        help="list the known scenarios and exit")
    faults.add_argument("--events",
                        help="write the run's trace-event stream as "
                             "JSON lines")

    cc = commands.add_parser(
        "cc", parents=[_spec_flags("set", scale=0.12, set_number=3)],
        help="run one clip set under a congestion controller and "
             "print its state summary")
    cc.add_argument("controller", nargs="?", default=None,
                    help="controller name (see --list)")
    cc.add_argument("--list", action="store_true",
                    dest="list_controllers",
                    help="list the known controllers and exit")

    repair = commands.add_parser(
        "repair", parents=[_spec_flags("set", "faults", scale=0.12,
                                       set_number=3,
                                       fault_scenario="burst-loss")],
        help="run one clip set with the loss-repair stack "
             "armed and print the repair/QoE report")
    repair.add_argument("--fec-group", type=int, default=8,
                        help="media datagrams per XOR parity group "
                             "(0 disables FEC; default 8)")
    repair.add_argument("--no-nack", action="store_true",
                        help="disable the NACK/retransmission loop "
                             "(parity-only repair)")
    repair.add_argument("--json",
                        help="write the repair/QoE summary as JSON")

    validate = commands.add_parser(
        "validate", parents=[_spec_flags("jobs", "set", "faults", "cc",
                                         "abr", "repair", "fast_path",
                                         scale=0.25, jobs=2)],
        help="check a seeded study against the runtime "
             "invariant catalog; nonzero on any violation")
    validate.add_argument("--study", action="store_true",
                          dest="differential",
                          help="differential oracle: run the study "
                               "sequentially, in parallel, and through "
                               "the disk cache, and diff every surface "
                               "(--jobs sizes the parallel leg)")
    validate.add_argument("--golden", action="store_true",
                          help="re-run the pinned golden scenarios and "
                               "diff their digests")

    watch = commands.add_parser(
        "watch", help="flag anomalies in a streamed study's per-run "
                      "records; nonzero exit when a rule trips")
    watch.add_argument("path",
                       help="JSON-lines file from `repro study "
                            "--stream-jsonl`")
    watch.add_argument("--metric", default=None, dest="metrics",
                       help="comma-separated metrics to watch "
                            "(default: rebuffer_ratio,loss_rate)")
    watch.add_argument("--z", type=float, default=3.0,
                       help="z-score threshold against the rolling "
                            "baseline (default 3.0)")
    watch.add_argument("--window", type=int, default=8,
                       help="rolling-baseline window in runs (default 8)")
    watch.add_argument("--min-baseline", type=int, default=3,
                       help="runs required before a rule may trip "
                            "(default 3)")
    watch.add_argument("--min-delta", type=float, default=0.02,
                       help="absolute deviation floor so flat baselines "
                            "never page on numeric dust (default 0.02)")
    watch.add_argument("--follow", action="store_true",
                       help="keep tailing the file for appended records")
    watch.add_argument("--idle-timeout", type=float, default=5.0,
                       help="with --follow: stop after this many "
                            "seconds without new records (default 5)")

    cache = commands.add_parser(
        "cache", help="inspect or clear the persistent study cache")
    cache.add_argument("action", choices=["info", "clear"], nargs="?",
                       default="info")

    pool = commands.add_parser(
        "pool", help="inspect or stop the persistent study worker pool")
    pool.add_argument("action", choices=["info", "shutdown"], nargs="?",
                      default="info")

    commands.add_parser("table1", help="print Table 1 (no simulation)")

    generate = commands.add_parser(
        "generate", help="synthesize a Section IV flow")
    generate.add_argument("family", choices=["real", "wmp"])
    generate.add_argument("kbps", type=float)
    generate.add_argument("duration", type=float)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--pcap", help="write the flow as libpcap")
    generate.add_argument("--csv", help="write the flow as trace CSV")

    pcap_info = commands.add_parser(
        "pcap-info", help="summarize a libpcap file")
    pcap_info.add_argument("path")

    return parser


#: Every flag that names a file a command writes, under whichever
#: commands have it (14 in all); :func:`main` checks each one given
#: before the command runs, so a bad path costs no simulation.
_OUTPUT_FLAGS = ("--html", "--stream-jsonl", "--csv", "--pcap", "--svg",
                 "--json", "--events", "--series-csv", "--chrome-trace",
                 "--jsonl")


def _check_output(flag: str, path: Optional[str]) -> None:
    """Refuse an output path no file can be written at, before any
    simulation rather than after it.  Nothing is opened, so an existing
    file keeps its bytes until the command writes it.

    Raises:
        ReproError: naming ``flag``.
    """
    if not path:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(path if os.path.exists(path) else directory,
                       os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ReproError(f"{flag}: cannot write {path}: {reason}")


def _check_positive(label: str, value: float) -> None:
    """Refuse a value that is not positive and finite: ``nan`` and
    ``inf`` parse as floats, and NaN passes a plain ``<= 0`` test.

    Raises:
        ReproError: naming ``label``.
    """
    if not (math.isfinite(value) and value > 0):
        raise ReproError(f"{label} must be positive and finite, got {value}")


def _check_nonnegative(label: str, value: float) -> None:
    """Refuse a negative value, or NaN, which passes a plain ``< 0`` test.

    Raises:
        ReproError: naming ``label``.
    """
    if not value >= 0:
        raise ReproError(f"{label} must be >= 0, got {value}")


def _spec_from_args(args: argparse.Namespace):
    """The :class:`~repro.experiments.spec.RunSpec` the shared flags
    describe, checked against the compatibility table.

    Raises:
        ReproError: for a bad value or a refused feature pair.
    """
    from repro.cc.abr import AbrConfig
    from repro.cc.base import CcConfig
    from repro.experiments.datasets import build_table1_library
    from repro.experiments.spec import RunSpec
    from repro.faults import build_scenario
    from repro.netsim.flowlevel import FlowLevelConfig
    from repro.repair import RepairConfig

    options = vars(args)
    _check_positive("--scale", args.scale)
    _check_nonnegative("--jobs", options.get("jobs", 1))
    # `repro faults NAME` and `repro cc NAME` take positionally what
    # the other commands take as --faults / --cc.
    fault = options.get("scenario") or options.get("fault_scenario")
    cc_kind = options.get("controller") or options.get("cc_kind")
    fast_path = options.get("fast_path")
    library = None
    if options.get("set_number") is not None:
        library = build_table1_library(
            duration_scale=args.scale).only_set(args.set_number)
    repair = None
    if "fec_group" in options:  # `repro repair` tunes what it arms
        repair = RepairConfig(fec_group=args.fec_group,
                              nack=not args.no_nack)
    elif options.get("repair"):
        repair = RepairConfig()
    spec = RunSpec(
        library=library, seed=args.seed, duration_scale=args.scale,
        scenario=(build_scenario(fault, args.seed)
                  if fault is not None else None),
        cc=CcConfig(kind=cc_kind) if cc_kind is not None else None,
        abr=AbrConfig() if options.get("abr") else None,
        repair=repair,
        fast_path=(FlowLevelConfig(strict=fast_path == "strict")
                   if fast_path is not None else None))
    spec.check()
    return spec


def _cmd_study(args: argparse.Namespace) -> int:
    import json as json_module
    import resource
    import time
    from dataclasses import replace

    from repro.experiments.report import build_report
    from repro.experiments.runner import run_spec

    spec = _spec_from_args(args)
    record_stream = None
    if args.stream_jsonl:
        record_stream = open(args.stream_jsonl, "w")
    callbacks = []
    renderer = None
    if args.progress:
        from repro.experiments.progress import ProgressRenderer

        renderer = ProgressRenderer(
            stream=sys.stderr,
            cache_note="off" if args.no_cache else "cold")
        callbacks.append(renderer)
    if record_stream is not None:
        from repro.experiments.progress import PHASE_DONE

        def write_record(beat) -> None:
            if beat.phase != PHASE_DONE or beat.rollup is None:
                return
            record = {"index": beat.index, "label": beat.label,
                      "events_folded": beat.events_folded,
                      "violations": beat.violations}
            record.update(beat.rollup)
            record_stream.write(json_module.dumps(record, sort_keys=True)
                                + "\n")
            record_stream.flush()

        callbacks.append(write_record)
    progress = None
    if callbacks:
        def progress(beat) -> None:
            for callback in callbacks:
                callback(beat)
    spec = replace(spec, stream=bool(args.progress or args.stream_jsonl))
    started = time.perf_counter()
    try:
        if args.no_cache or args.stream_jsonl:
            # --stream-jsonl implies a fresh simulation: per-run records
            # cannot be replayed out of a cached sweep.
            study = run_spec(spec, jobs=args.jobs, progress=progress)
            source = ("cache off" if args.no_cache
                      else "cache bypassed (--stream-jsonl)")
        else:
            from repro.experiments.cache import load_or_run_study

            study, origin = load_or_run_study(spec, jobs=args.jobs,
                                              progress=progress)
            source = ("disk cache hit" if origin == "disk"
                      else "memory cache hit" if origin == "memory"
                      else "cache miss")
    finally:
        if renderer is not None:
            renderer.close()
        if record_stream is not None:
            record_stream.close()
    elapsed = time.perf_counter() - started
    jobs_note = f", jobs {args.jobs}" if args.jobs != 1 else ""
    # Cached studies were not executed now; only a fresh simulation's
    # sequential/parallel/auto-downgrade decision is worth reporting.
    ran_now = source in ("cache off", "cache miss",
                         "cache bypassed (--stream-jsonl)")
    exec_note = f", {study.execution}" if ran_now else ""
    if ran_now and study.execution.startswith("parallel"):
        from repro.experiments.parallel import pool_info

        info = pool_info()
        if info["workers"]:
            state = "warm" if info["studies"] > 1 else "cold"
            exec_note += (f", pool {state} "
                          f"({info['workers']} workers)")
    fast_note = f", fast-path {args.fast_path}" if args.fast_path else ""
    # ru_maxrss is KiB on Linux: the process-lifetime high-water mark,
    # which is exactly the number the bounded-memory claim is about.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = build_report(study, plots=args.plots)
    print(f"# study sweep: {len(study)} pair runs in {elapsed:.2f}s "
          f"(seed {args.seed}, scale {args.scale}{jobs_note}{exec_note}"
          f"{fast_note}, {source}, peak rss {peak_kib / 1024:.0f} MiB)\n")
    if spec.fast_path is not None and ran_now:
        fast = sum(r.fastpath.packets_fast for r in study.runs
                   if r.fastpath is not None)
        fell = sum(r.fastpath.packets_fallback for r in study.runs
                   if r.fastpath is not None)
        total = fast + fell
        if total:
            print(f"# fast path: {fast} of {total} packets delivered "
                  f"analytically ({100.0 * fast / total:.1f}%)\n")
    if study.streaming is not None:
        summary = study.streaming
        print(f"# streamed: {summary.events_folded} events folded into "
              f"a bounded summary (fingerprint {summary.fingerprint()})\n")
    if args.stream_jsonl:
        print(f"wrote {args.stream_jsonl}")
    print(report)
    if args.html:
        from repro.experiments.html_report import build_html_report

        with open(args.html, "w") as stream:
            stream.write(build_html_report(study))
        print(f"wrote {args.html}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.report import generate_figure
    from repro.experiments.runner import run_spec

    if args.figure_id not in ALL_FIGURES:
        raise ReproError(f"unknown figure {args.figure_id!r}; choose from: "
                         f"{', '.join(sorted(ALL_FIGURES))}")
    study = run_spec(_spec_from_args(args))
    result = generate_figure(args.figure_id, study)
    print(result.render(plot=args.plots))
    if args.csv:
        with open(args.csv, "w") as stream:
            stream.write(result.to_csv())
        print(f"wrote {args.csv}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.experiments.tcp_friendly import run_probe
    from repro.media.clip import PlayerFamily

    _check_positive("kbps", args.kbps)
    if not 0.0 <= args.loss <= 1.0:
        raise ReproError(f"loss must be a fraction in [0, 1], got {args.loss}")
    _check_positive("--rtt", args.rtt)
    _check_positive("--duration", args.duration)
    family = (PlayerFamily.REAL if args.family == "real"
              else PlayerFamily.WMP)
    result = run_probe(family, args.kbps, loss_probability=args.loss,
                       duration=args.duration, rtt=args.rtt,
                       scaling=args.scaling)
    print(f"{family.display_name} {args.kbps:.0f} Kbps, "
          f"loss {args.loss * 100:.0f}%, RTT {args.rtt * 1000:.0f} ms, "
          f"scaling {'on' if args.scaling else 'off'}:")
    print(f"  offered load:       {result.offered_kbps:8.1f} Kbps")
    print(f"  delivered goodput:  {result.achieved_kbps:8.1f} Kbps")
    if result.tcp_friendly_kbps != float("inf"):
        print(f"  TCP-friendly bound: {result.tcp_friendly_kbps:8.1f} "
              "Kbps")
    print(f"  friendliness index: {result.friendliness_index:8.2f} "
          "(> 1 = unfriendly)")
    if args.scaling:
        print(f"  final rate scale:   {result.final_rate_scale:8.2f}")
    return 0


def _cmd_boundary(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.core.turbulence import TurbulenceProfile
    from repro.experiments.aggregate import run_boundary_study

    _check_positive("--clients", args.clients)
    _check_positive("--duration", args.duration)
    _check_positive("--kbps", args.kbps)
    result = run_boundary_study(client_count=args.clients,
                                duration=args.duration,
                                encoded_kbps=args.kbps, seed=args.seed)
    print(format_table(TurbulenceProfile.SUMMARY_HEADERS,
                       [p.summary_row()
                        for p in result.per_flow_profiles]))
    print(f"aggregate {result.aggregate_kbps:.0f} Kbps while all flows "
          f"active; CV {result.common_window_cv:.2f} -> "
          f"{result.full_span_cv:.2f} over the full span "
          f"(cliff factor {result.cliff_factor:.1f})")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.datasets import table1_rows

    print(format_table(("Data Set", "Pair", "Encode (Kbps)", "Genre",
                        "Length"), table1_rows()))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.capture.pcap import write_pcap
    from repro.capture.serialize import write_csv
    from repro.core.fitting import fit_schedule
    from repro.core.generator import generate_flow
    from repro.core.turbulence import TurbulenceProfile
    from repro.analysis.report import format_table
    from repro.media.clip import PlayerFamily

    _check_positive("kbps", args.kbps)
    _check_positive("duration", args.duration)
    family = (PlayerFamily.REAL if args.family == "real"
              else PlayerFamily.WMP)
    flow = generate_flow(family, args.kbps, args.duration, seed=args.seed)
    profile = fit_schedule(flow, f"{args.family} {args.kbps:.0f}K").profile
    print(f"generated {flow.packet_count} packets "
          f"({flow.total_wire_bytes / 1024:.0f} KiB) over "
          f"{flow.streaming_duration:.1f}s")
    print(format_table(TurbulenceProfile.SUMMARY_HEADERS,
                       [profile.summary_row()]))
    if args.pcap or args.csv:
        trace = flow.to_trace()
        if args.pcap:
            write_pcap(trace, args.pcap)
            print(f"wrote {args.pcap}")
        if args.csv:
            write_csv(trace, args.csv)
            print(f"wrote {args.csv}")
    return 0


def _cmd_pcap_info(args: argparse.Namespace) -> int:
    from repro.capture.pcap import read_pcap
    from repro.capture.reassembly import fragmentation_percent

    trace = read_pcap(args.path)
    print(f"{args.path}: {len(trace)} packets, "
          f"{trace.total_wire_bytes / 1024:.0f} KiB, "
          f"{trace.duration:.1f}s")
    if len(trace) > 0:
        print(f"fragmentation: {fragmentation_percent(trace):.1f}%")
    if trace.duration > 0:
        print(f"average rate: {trace.average_rate_bps() / 1000:.0f} Kbps")
    for src, dst, count in trace.conversations()[:10]:
        print(f"  {src} -> {dst}: {count} packets")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_spec
    from repro.experiments.scorecard import render_scorecard, run_scorecard

    for flag, value in (("--transports", args.transports),
                        ("--svg", args.svg)):
        if value is not None and not args.modern:
            raise ReproError(f"{flag} needs --modern")
    spec = _spec_from_args(args)
    if args.modern:
        from repro.experiments.modern import (
            render_modern_scorecard,
            run_modern_scorecard,
            scorecard_svg,
        )

        transports = (tuple(name.strip()
                            for name in args.transports.split(",")
                            if name.strip())
                      if args.transports else None)
        card = run_modern_scorecard(spec, jobs=args.jobs,
                                    transports=transports)
        print(render_modern_scorecard(card))
        if args.svg:
            with open(args.svg, "w") as stream:
                stream.write(scorecard_svg(card))
            print(f"wrote {args.svg}")
        return 0
    results = run_scorecard(run_spec(spec))
    print(render_scorecard(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_cc(args: argparse.Namespace) -> int:
    from repro.cc.base import cc_descriptions
    from repro.experiments.runner import run_spec
    from repro.telemetry import MemorySink, Telemetry
    from repro.telemetry.events import CC_STATE

    if args.list_controllers:
        for name, description in sorted(cc_descriptions().items()):
            print(f"{name:<8} {description}")
        return 0
    if args.controller is None:
        raise ReproError(
            "a controller name is required (or --list to see them)")
    spec = _spec_from_args(args)
    config = spec.cc
    telemetry = Telemetry(sinks=[MemorySink()])
    study = run_spec(spec, telemetry=telemetry)
    samples = [event for event in telemetry.memory_events()
               if event.type == CC_STATE]
    telemetry.close()
    if not samples:
        why = " (the null controller arms nothing)" if config.is_null else ""
        print(f"error: controller {config.kind!r} recorded no cc_state "
              f"samples{why}; nothing to summarize", file=sys.stderr)
        return 1
    print(f"# cc {config.kind}: {len(study)} pair runs, "
          f"{len(samples)} state samples (seed {args.seed}, "
          f"scale {args.scale}, set {args.set_number}, "
          f"fingerprint {config.fingerprint()})\n")
    by_flow = {}
    for event in samples:
        record = event.field_dict()
        key = f"{record['controller']}/{record['family']}"
        by_flow.setdefault(key, []).append(record)
    for name in sorted(by_flow):
        records = by_flow[name]
        rates = [record["rate_bps"] for record in records
                 if record["rate_bps"] >= 0]
        last = records[-1]
        line = f"  {name}: {len(records)} samples"
        if rates:
            line += (f", rate {min(rates) / 1000:.0f}-"
                     f"{max(rates) / 1000:.0f} Kbps "
                     f"(last {last['rate_bps'] / 1000:.0f})")
        if last["cwnd_bytes"] >= 0:
            line += f", cwnd {last['cwnd_bytes']:.0f} B"
        print(line)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.runner import run_spec
    from repro.telemetry import (
        JsonlSink,
        MemorySink,
        SimProfiler,
        Telemetry,
        rebuffer_timeline,
        series_csv,
        to_json,
    )
    from repro.telemetry.registry import format_labels

    _check_positive("--top", args.top)
    spec = _spec_from_args(args)
    if args.ring_capacity is None:
        sinks = [MemorySink()]
    else:
        _check_nonnegative("--ring-capacity", args.ring_capacity)
        # 0 = unbounded, matching MemorySink(capacity=None).
        sinks = [MemorySink(capacity=args.ring_capacity or None)]
    if args.events:
        sinks.append(JsonlSink(args.events))
    profiler = SimProfiler() if args.profile else None
    telemetry = Telemetry(sinks=sinks, profiler=profiler)
    study = run_spec(spec, telemetry=telemetry, jobs=args.jobs)
    registry = telemetry.registry
    if not list(registry.counters()) and not telemetry.memory_events():
        print("error: the run recorded no telemetry (no counters, no "
              "trace events); nothing to summarize", file=sys.stderr)
        telemetry.close()
        return 1
    print(f"# telemetry: {len(study)} pair runs "
          f"(seed {args.seed}, scale {args.scale})\n")

    counters = sorted(registry.counters(), key=lambda item: -item[2].value)
    print("## counters (top by value)\n")
    print(format_table(("Counter", "Labels", "Value"),
                       [(name, format_labels(labels), str(counter.value))
                        for name, labels, counter in counters[:args.top]]))

    queue_gauges = sorted(
        ((labels, gauge) for name, labels, gauge in registry.gauges()
         if name == "queue.bytes"),
        key=lambda item: -item[1].peak)
    if queue_gauges:
        print("\n## per-hop queue depth (top by peak bytes)\n")
        print(format_table(
            ("Queue", "Peak B", "Last B", "Samples"),
            [(format_labels(labels), f"{gauge.peak:.0f}",
              f"{gauge.value:.0f}", str(len(gauge.series)))
             for labels, gauge in queue_gauges[:args.top]]))

    histograms = list(registry.histograms())
    if histograms:
        print("\n## histograms\n")
        print(format_table(
            ("Histogram", "Labels", "Count", "Mean", "Max"),
            [(name, format_labels(labels), str(h.count),
              f"{h.mean:.4g}", f"{h.max:.4g}" if h.max is not None else "-")
             for name, labels, h in histograms[:args.top]]))

    events = telemetry.memory_events()
    by_type = {}
    for event in events:
        by_type[event.type] = by_type.get(event.type, 0) + 1
    print(f"\n## trace events ({len(events)} retained)\n")
    print(format_table(("Event", "Count"),
                       [(etype, str(count))
                        for etype, count in sorted(by_type.items())]))

    timelines = rebuffer_timeline(events)
    if timelines:
        print("\n## playout / rebuffer timelines\n")
        for player, entries in sorted(timelines.items()):
            rendered = ", ".join(f"{etype}@{time:.2f}s"
                                 for etype, time in entries)
            print(f"  {player}: {rendered}")

    if profiler is not None:
        print("\n## event-loop profile (wall clock; not exported)\n")
        print(profiler.report.render())

    if args.json:
        with open(args.json, "w") as stream:
            stream.write(to_json(telemetry))
        print(f"\nwrote {args.json}")
    if args.series_csv:
        with open(args.series_csv, "w") as stream:
            stream.write(series_csv(registry))
        print(f"wrote {args.series_csv}")
    dropped = telemetry.dropped_events()
    if dropped:
        print(f"warning: memory ring dropped={dropped} events; the "
              f"oldest events are missing from every view above "
              f"(raise --ring-capacity, or pass 0 for unbounded)",
              file=sys.stderr)
    telemetry.close()
    if args.events:
        print(f"wrote {args.events}")
    return 0


def _seconds(value: float) -> str:
    return f"{value:.6f}s"


def _render_waterfall(latency, width: int = 44) -> str:
    """One ADU's journey as offset/duration rows with an ASCII bar."""
    run = f" run={latency.run}" if latency.run else ""
    lines = [f"adu#{latency.sequence} [{latency.family}]{run}  "
             f"total {_seconds(latency.total)}, "
             f"{latency.fragment_count} packet(s)"]
    stages = []
    offset = 0.0
    for hop in latency.hops:
        for stage, duration in (("queue", hop.queue), ("tx", hop.tx),
                                ("prop", hop.prop)):
            stages.append((f"{stage} {hop.link}", offset, duration))
            offset += duration
    stages.append(("reassembly wait", offset, latency.reassembly_wait))
    offset += latency.reassembly_wait
    stages.append(("buffer wait", offset, latency.buffer_wait))
    total = latency.total or 1.0
    name_width = max(len(name) for name, _, _ in stages)
    for name, start, duration in stages:
        begin = int(round(width * start / total))
        bar_width = (max(1, int(round(width * duration / total)))
                     if duration > 0 else 0)
        bar = (" " * begin + "#" * bar_width)[:width]
        lines.append(f"  {name:<{name_width}}  +{_seconds(start)}  "
                     f"{_seconds(duration)}  |{bar:<{width}}|")
    return "\n".join(lines) + "\n"


def _cmd_spans(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import format_table
    from repro.experiments.runner import run_spec
    from repro.telemetry import (
        SpanRecorder,
        Telemetry,
        aggregate_attribution,
        attribute_latency,
        attribution_dict,
        slowest,
        write_chrome_trace,
        write_spans_jsonl,
    )
    from repro.telemetry.critical_path import COMPONENT_NAMES

    _check_positive("--top", args.top)
    spec = _spec_from_args(args)
    recorder = SpanRecorder()
    telemetry = Telemetry(spans=recorder)
    study = run_spec(spec, telemetry=telemetry, jobs=args.jobs)
    latencies = attribute_latency(recorder)
    if not latencies:
        print("error: the run recorded no completed ADU traces; nothing "
              "to attribute", file=sys.stderr)
        return 1
    print(f"# spans: {len(recorder)} spans, {len(recorder.roots())} ADU "
          f"traces, {len(latencies)} attributed "
          f"({len(study)} pair runs, seed {args.seed}, "
          f"scale {args.scale})\n")

    aggregate = aggregate_attribution(latencies)
    families = sorted(aggregate)
    rows = [("ADUs attributed",)
            + tuple(str(int(aggregate[f]["count"])) for f in families),
            ("mean packets/ADU",)
            + tuple(f"{aggregate[f]['mean_fragments']:.2f}"
                    for f in families),
            ("mean end-to-end",)
            + tuple(_seconds(aggregate[f]["mean_total"])
                    for f in families)]
    for name in COMPONENT_NAMES:
        rows.append(
            (name.replace("_", " "),)
            + tuple(f"{_seconds(aggregate[f]['mean_' + name])} "
                    f"({aggregate[f]['share_' + name]:.2f}%)"
                    for f in families))
    print("## latency attribution (per-family means)\n")
    print(format_table(("Component",) + tuple(families), rows))

    print(f"\n## slowest ADUs (top {args.top})\n")
    for latency in slowest(latencies, args.top):
        print(_render_waterfall(latency))

    if args.json:
        document = attribution_dict(latencies, top=args.top)
        with open(args.json, "w") as stream:
            stream.write(json.dumps(document, sort_keys=True, indent=2))
        print(f"wrote {args.json}")
    if args.chrome_trace:
        write_chrome_trace(recorder, args.chrome_trace)
        print(f"wrote {args.chrome_trace}")
    if args.jsonl:
        write_spans_jsonl(recorder, args.jsonl)
        print(f"wrote {args.jsonl}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_pair_experiment, study_conditions
    from repro.faults import build_scenario, recovery_report, scenario_names
    from repro.telemetry import JsonlSink, MemorySink, Telemetry

    if args.list_scenarios:
        for name in scenario_names():
            description = build_scenario(name, args.seed).description
            print(f"{name:<18} {description}")
        return 0
    spec = _spec_from_args(args)
    clip_set, pair = spec.clip_library().all_pairs()[0]
    conditions = study_conditions(spec.seed, 0)
    sinks = [MemorySink()]
    if args.events:
        sinks.append(JsonlSink(args.events))
    telemetry = Telemetry(sinks=sinks)
    result = run_pair_experiment(clip_set, pair, seed=spec.seed,
                                 conditions=conditions,
                                 telemetry=telemetry,
                                 scenario=spec.scenario, repair=spec.repair)
    report = recovery_report(telemetry.memory_events(),
                             scenario=spec.scenario.name)
    telemetry.close()
    print(f"# fault run: set {clip_set.number} {pair.band.value} "
          f"(seed {args.seed}, scale {args.scale}, "
          f"{conditions.describe()})\n")
    print(report.render())
    def _eos(value):
        return "never" if value is None else f"{value:.3f}s"

    print(f"\nstream outcomes: real eos_at={_eos(result.real_stats.eos_at)},"
          f" wmp eos_at={_eos(result.wmp_stats.eos_at)}")
    if args.events:
        print(f"wrote {args.events}")
    if not report.faults:
        print("error: the scenario injected no faults (nothing "
              "executed before the run ended)", file=sys.stderr)
        return 1
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    import json as json_module
    from dataclasses import replace

    from repro.experiments.runner import run_spec
    from repro.telemetry import MemorySink, Telemetry

    spec = _spec_from_args(args)
    config = spec.repair
    if config.is_null:
        raise ReproError("--fec-group 0 with --no-nack arms no repair "
                         "mechanism at all; nothing to report")
    telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
    study = run_spec(replace(spec, stream=True), telemetry=telemetry)
    telemetry.close()
    stream = study.streaming

    fault_note = (args.fault_scenario if spec.scenario is not None
                  else "no faults")
    print(f"# repair: {len(study)} pair runs (seed {args.seed}, "
          f"scale {args.scale}, set {args.set_number}, {fault_note}, "
          f"fingerprint {config.fingerprint()})\n")
    section = stream.rollup.as_dict().get("repair")
    if section is None:
        print("no repair activity (nothing sent, nothing lost)")
    else:
        qoe = section.pop("qoe")
        for key in sorted(section):
            print(f"  {key:<26} {section[key]}")
        print(f"  {'qoe mean/min/max':<26} {qoe['mean']}"
              f" / {qoe['min']} / {qoe['max']}")
    print("\nper-viewer QoE:")
    payload = {"repair": section, "runs": []}
    for run in study:
        for name, stats in (("real", run.real_stats),
                            ("wmp", run.wmp_stats)):
            score = stats.qoe()
            print(f"  {run.label}/{name}: score {score.score:.2f} "
                  f"(startup {score.startup_delay:.2f}s, rebuffer "
                  f"{100 * score.rebuffer_ratio:.1f}%, frames "
                  f"{100 * score.frame_delivery:.1f}%, repaired "
                  f"{100 * score.repair_ratio:.1f}% — lost "
                  f"{stats.packets_lost}, recovered "
                  f"{stats.packets_recovered})")
            payload["runs"].append(
                {"run": run.label, "player": name,
                 "packets_lost": stats.packets_lost,
                 "packets_recovered": stats.packets_recovered,
                 "qoe": score.as_dict()})
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.runner import run_spec
    from repro.validate import (
        GOLDEN_SCENARIOS,
        RunValidator,
        check_golden,
        run_differential,
    )

    spec = _spec_from_args(args)
    if args.golden:
        failures = 0
        for name in sorted(GOLDEN_SCENARIOS):
            mismatches = check_golden(GOLDEN_SCENARIOS[name])
            if mismatches:
                failures += 1
                print(f"golden {name}: {len(mismatches)} mismatch"
                      f"{'es' if len(mismatches) != 1 else ''}")
                for entry in mismatches:
                    print(f"  ! {entry}")
            else:
                print(f"golden {name}: ok")
        return 1 if failures else 0

    if args.differential:
        report = run_differential(spec=spec, jobs=args.jobs)
        print(f"# differential oracle (seed {args.seed}, "
              f"scale {args.scale}"
              + (f", fast-path {args.fast_path}" if args.fast_path else "")
              + ")\n")
        print(report.summary())
        return 0 if report.ok else 1

    validator = RunValidator(raise_on_violation=False)
    # Arm full telemetry (unbounded ring) plus an online streaming
    # summary so the stream-equivalence invariant has both sides to
    # compare: the per-run fold and the buffered events it must match.
    from repro.telemetry import MemorySink, Telemetry

    telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
    study = run_spec(replace(spec, stream=True), telemetry=telemetry,
                     validate=validator)
    transport_note = ((f", cc {args.cc_kind}" if args.cc_kind else "")
                      + (", abr" if args.abr else "")
                      + (", repair" if args.repair else "")
                      + (f", fast-path {args.fast_path}"
                         if args.fast_path else ""))
    print(f"# invariant check: {len(study)} pair runs "
          f"(seed {args.seed}, scale {args.scale}"
          + (f", faults {args.fault_scenario}"
             if args.fault_scenario else "")
          + transport_note + ")\n")
    print(validator.report())
    return 1 if validator.violations else 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.errors import AnalysisError
    from repro.experiments.watch import (
        DEFAULT_METRICS,
        build_rules,
        load_records,
        tail_records,
        watch_records,
    )

    if args.metrics is not None:
        metrics = tuple(metric.strip()
                        for metric in args.metrics.split(",")
                        if metric.strip())
        if not metrics:
            raise ReproError("--metric needs at least one metric name")
    else:
        metrics = DEFAULT_METRICS
    _check_nonnegative("--idle-timeout", args.idle_timeout)
    rules = build_rules(metrics, z_threshold=args.z, window=args.window,
                        min_baseline=args.min_baseline,
                        min_delta=args.min_delta)
    try:
        if args.follow:
            report = watch_records(
                tail_records(args.path, idle_timeout=args.idle_timeout),
                rules)
        else:
            report = watch_records(load_records(args.path), rules)
    except AnalysisError as exc:  # a malformed record: a problem found
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# watch: {report.records_checked} run records, "
          f"{len(rules)} rules (metrics {', '.join(metrics)}, "
          f"z {args.z:g}, window {args.window}, "
          f"min-baseline {args.min_baseline})\n")
    if report.records_checked == 0:
        print("error: no run records to watch", file=sys.stderr)
        return 1
    if report.tripped:
        for alert in report.alerts:
            print(alert.render())
        plural = "s" if len(report.alerts) != 1 else ""
        print(f"\n{len(report.alerts)} watch rule trip{plural}")
        return 1
    print("no anomalies")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import (
        cache_dir,
        clear_disk_cache,
        disk_cache_enabled,
        disk_cache_entries,
    )

    if args.action == "clear":
        removed = clear_disk_cache()
        print(f"cleared {removed} cached stud"
              f"{'y' if removed == 1 else 'ies'} from {cache_dir()}")
        return 0
    entries = disk_cache_entries()
    state = "enabled" if disk_cache_enabled() else "disabled (REPRO_STUDY_CACHE=0)"
    print(f"study cache: {cache_dir()} ({state}, "
          f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'})")
    for entry in entries:
        print(f"  seed {entry.get('seed')}, scale "
              f"{entry.get('duration_scale')}, loss "
              f"{entry.get('loss_probability')}, "
              f"{entry.get('runs')} runs, "
              f"{entry.get('size_bytes', 0) / 1024:.0f} KiB "
              f"(code {entry.get('code')})")
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import pool_info, shutdown_pool

    if args.action == "shutdown":
        stopped = shutdown_pool()
        print("stopped the warm worker pool" if stopped
              else "no warm worker pool to stop")
        return 0
    info = pool_info()
    if not info["workers"]:
        print("worker pool: cold (no persistent pool in this process); "
              "a parallel run_study() warms one and later studies "
              "reuse it until shutdown_pool() or process exit")
        return 0
    print(f"worker pool: warm, {info['workers']} workers, "
          f"{info['studies']} stud"
          f"{'y' if info['studies'] == 1 else 'ies'} served")
    return 0


_HANDLERS = {
    "study": _cmd_study,
    "pool": _cmd_pool,
    "faults": _cmd_faults,
    "cc": _cmd_cc,
    "repair": _cmd_repair,
    "validate": _cmd_validate,
    "watch": _cmd_watch,
    "cache": _cmd_cache,
    "telemetry": _cmd_telemetry,
    "spans": _cmd_spans,
    "scorecard": _cmd_scorecard,
    "figure": _cmd_figure,
    "table1": _cmd_table1,
    "generate": _cmd_generate,
    "pcap-info": _cmd_pcap_info,
    "probe": _cmd_probe,
    "boundary": _cmd_boundary,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line: 0 on success, 1 when the command ran and
    found a problem, and 2 after one ``error:`` line on stderr for an
    input any layer refuses with a :class:`~repro.errors.ReproError` or
    an :class:`OSError` (argparse exits 2 itself on a malformed line)."""
    args = build_parser().parse_args(argv)
    try:
        for flag in _OUTPUT_FLAGS:
            _check_output(flag, getattr(args, flag[2:].replace("-", "_"),
                                        None))
        return _HANDLERS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
