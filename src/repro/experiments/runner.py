"""The paper's experiment methodology, end to end.

One *pair run* reproduces Section II.D for one clip pair: build the
path to a pair of co-located servers under sampled network conditions,
verify them with ping and tracert, start Ethereal (the sniffer), stream
the RealPlayer and MediaPlayer clips **simultaneously** from the two
servers to the one client, record application statistics with both
trackers, then ping/tracert again.  A *study* is the full sweep over
Table 1's thirteen pairs, each with freshly sampled conditions — the
corpus every figure draws from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.capture.sniffer import Sniffer
from repro.capture.trace import Trace
from repro.errors import ExperimentError
from repro.experiments.conditions import NetworkConditions, sample_conditions
from repro.media.clip import Clip
from repro.media.library import ClipLibrary, ClipPair, ClipSet, RateBand
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.rng import RandomStreams
from repro.netsim.routing import RouteManager
from repro.netsim.tcp import TcpReliability
from repro.netsim.topology import PathTopology, build_path_topology
from repro.experiments.progress import (
    PHASE_DONE,
    PHASE_START,
    Heartbeat,
    ProgressCallback,
)
from repro.experiments.spec import RunSpec, check_compatible, repair_armed
from repro.players.mediatracker import MediaTracker
from repro.players.realtracker import RealTracker
from repro.players.stats import PlayerStats
from repro.servers.realserver import RealServer
from repro.servers.wms import WindowsMediaServer
from repro.tools.ping import PingReport, run_ping
from repro.tools.stability import StabilityVerdict, verify_stability
from repro.tools.tracert import TracerouteReport, run_tracert

if TYPE_CHECKING:  # pragma: no cover - imported where a spec arms them
    from repro.cc.abr import AbrConfig
    from repro.cc.base import CcConfig
    from repro.core.turbulence import TurbulenceProfile
    from repro.faults.scenario import FaultScenario
    from repro.netsim.flowlevel import FastPathSummary, FlowLevelConfig
    from repro.repair.base import RepairConfig
    from repro.telemetry.core import Telemetry, TelemetrySnapshot
    from repro.telemetry.streaming import StreamingSummary
    from repro.validate.checker import RunValidator

#: Below this many pair runs a parallel request silently downgrades to
#: sequential execution: the pool's fork/merge overhead exceeds the
#: win on small sweeps (BENCH_substrate.json: the 13-run study at
#: default size gains from workers, a 2-run one-set sweep does not).
PARALLEL_MIN_RUNS = 6


@dataclass
class PairRunResult:
    """Everything one simultaneous-stream run produced."""

    set_number: int
    genre: str
    band: RateBand
    conditions: NetworkConditions
    real_clip: Clip
    wmp_clip: Clip
    real_stats: PlayerStats
    wmp_stats: PlayerStats
    trace: Trace
    real_server: IPAddress
    wmp_server: IPAddress
    ping_before: PingReport
    ping_after: PingReport
    tracert: TracerouteReport
    tracert_after: TracerouteReport
    stability: StabilityVerdict
    #: Flow-level fast-path outcome for this run, when the study opted
    #: in (``None`` on packet-level runs).
    fastpath: Optional["FastPathSummary"] = None

    # ------------------------------------------------------------------
    # Per-flow views
    # ------------------------------------------------------------------
    def real_flow(self) -> Trace:
        """The RealPlayer media packets of the shared capture."""
        return self._media_flow(self.real_server)

    def wmp_flow(self) -> Trace:
        """The MediaPlayer media packets of the shared capture."""
        return self._media_flow(self.wmp_server)

    def _media_flow(self, server: IPAddress) -> Trace:
        """The UDP media packets ``server`` sent, in one pass."""
        address = server.value
        return Trace((r for r in self.trace.records
                      if r.payload_kind == "media" and r.protocol == "UDP"
                      and r.src.value == address), self.trace.description)

    def real_profile(self) -> TurbulenceProfile:
        from repro.core.fitting import fit_profile

        return fit_profile(self.real_flow(), self.real_clip.encoded_kbps,
                           label=self.real_clip.label(),
                           stats=self.real_stats)

    def wmp_profile(self) -> TurbulenceProfile:
        from repro.core.fitting import fit_profile

        return fit_profile(self.wmp_flow(), self.wmp_clip.encoded_kbps,
                           label=self.wmp_clip.label(),
                           stats=self.wmp_stats)

    @property
    def label(self) -> str:
        return run_label(self.set_number, self.band)


def run_label(set_number: int, band: RateBand) -> str:
    """The ``set<N>-<band>`` label a pair run carries everywhere: its
    ``run=`` telemetry context, heartbeats, and validator reports."""
    return f"set{set_number}-{band.short}"


@dataclass
class StudyResults:
    """All pair runs of one study sweep."""

    runs: List[PairRunResult] = field(default_factory=list)
    #: The shared telemetry facade the sweep ran under, when one was
    #: requested — its registry holds every run's metrics, scoped by a
    #: ``run=<label>`` context label.
    telemetry: Optional[Telemetry] = None
    #: How the sweep actually executed: "sequential", "parallel
    #: jobs=N" (plus how many runs were re-run, when a worker died), or
    #: the auto-downgrade note when a parallel request fell back to
    #: sequential on a small sweep; a ``jobs`` request clamped to the
    #: usable CPUs adds e.g. "(4 asked, 2 usable CPUs)".
    execution: str = "sequential"
    #: The online-folded study summary, when the sweep streamed (see
    #: :mod:`repro.telemetry.streaming`): every pair run folded into a
    #: fresh per-run summary, merged here in library order — identical
    #: bytes whether the sweep ran sequentially, on a pool, or came
    #: back from the disk cache.
    streaming: Optional[StreamingSummary] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def by_band(self, band: RateBand) -> List[PairRunResult]:
        return [run for run in self.runs if run.band == band]

    def rtt_samples(self) -> List[float]:
        """Every per-probe RTT across all runs' pings (Figure 1's data)."""
        samples: List[float] = []
        for run in self.runs:
            samples.extend(run.ping_before.rtts)
            samples.extend(run.ping_after.rtts)
        return samples

    def hop_samples(self) -> List[int]:
        """Per-run tracert hop counts (Figure 2's data)."""
        return [run.tracert.hop_count for run in self.runs]

    def loss_percent(self) -> float:
        """Aggregate ping loss across the study (paper: "near 0%")."""
        sent = sum(r.ping_before.sent + r.ping_after.sent for r in self.runs)
        received = sum(r.ping_before.received + r.ping_after.received
                       for r in self.runs)
        if sent == 0:
            return 0.0
        return 100.0 * (sent - received) / sent


def _fault_links(topology: PathTopology,
                 conditions: NetworkConditions) -> Dict[str, object]:
    """Map symbolic link roles onto the built path.

    ``access`` is the client's first hop; ``middle`` is the same link
    the topology builder treats as the lossy/jittery mid-path hop.
    """
    path_links = len(topology.links) - len(topology.servers)
    middle_index = min(conditions.hop_count // 2, path_links - 1)
    return {"access": topology.links[0],
            "middle": topology.links[middle_index]}


def run_pair_experiment(clip_set: ClipSet, pair: ClipPair, seed: int,
                        conditions: Optional[NetworkConditions] = None,
                        preroll_seconds: float = 5.0,
                        telemetry: Optional[Telemetry] = None,
                        scenario: Optional[FaultScenario] = None,
                        validate: Optional["RunValidator"] = None,
                        cc: Optional["CcConfig"] = None,
                        abr: Optional["AbrConfig"] = None,
                        repair: Optional["RepairConfig"] = None,
                        fast_path: Optional["FlowLevelConfig"] = None,
                        ) -> PairRunResult:
    """Run the simultaneous-stream methodology for one clip pair.

    Args:
        seed: fully determines the run (topology randomness, server
            packetization draws, jitter).
        conditions: override the sampled network conditions.
        telemetry: optional facade; bound to this run's simulator so
            every instrumented layer (links, IP, pacers, buffers)
            reports into it.
        scenario: optional fault schedule.  Attaching one also arms the
            whole robustness stack — failure-aware routing, TCP
            retransmission, server media scaling, and player graceful
            degradation — none of which is active (or costs a single
            scheduled event) on a plain run.
        validate: optional :class:`~repro.validate.checker.RunValidator`;
            its invariant sweep runs once the streams are done (after
            the post-run stability check, before results assemble).
            Validation schedules nothing, so the run itself is
            byte-identical with or without it.
        cc: optional :class:`~repro.cc.CcConfig`.  A non-null config
            arms the congestion-control stack: receiver reports flow at
            the config's feedback interval, payloads carry send stamps,
            and a per-session controller throttles each pacer.  ``None``
            — or the null controller — arms *nothing*, keeping the run
            byte-identical to the 2002 code path.
        abr: optional :class:`~repro.cc.AbrConfig`.  Replaces both
            2002 server/player pairs with the segment-ladder ABR
            transport (same stats schema, same REAL/WMP labels).
        repair: optional :class:`~repro.repair.RepairConfig`.  A
            non-null config arms the loss-repair stack on both 2002
            server/player pairs: servers emit XOR parity and answer
            NACKs, players decode and request retransmissions.
            ``None`` — or the null config — arms nothing, keeping the
            run byte-identical to the unrepaired code path.
        fast_path: optional
            :class:`~repro.netsim.flowlevel.FlowLevelConfig`.  Delivers
            analytically-tractable packet trains in closed form instead
            of event-per-packet (see :mod:`repro.netsim.flowlevel`),
            falling back to packet-level per train whenever contention,
            loss, faults, cross traffic, or an active congestion
            controller make the model invalid.  ``None`` (the default)
            keeps the run byte-identical to a pre-fast-path build.

    Raises:
        ExperimentError: for a feature pair the compatibility table
            refuses (see :mod:`repro.experiments.spec`).
        ExperimentError: if a stream never finishes within the safety
            horizon (indicates a modeling bug, not a network condition).
            Under a fault scenario, congestion control, or ABR an
            unfinished stream is an expected outcome and is finalized
            deterministically instead.
        ValidationError: if ``validate`` finds violations and is
            configured to raise.
    """
    check_compatible(cc=cc, abr=abr, repair=repair, fast_path=fast_path,
                     telemetry=telemetry)
    cc_armed = cc is not None and not cc.is_null
    repair_on = repair_armed(repair)
    sim = Simulator(seed=seed, telemetry=telemetry, validate=validate,
                    fast_path=fast_path)
    if conditions is None:
        conditions = sample_conditions(sim.streams.stream("conditions"))
    topology = build_path_topology(
        sim, hop_count=conditions.hop_count, rtt=conditions.rtt,
        loss_probability=conditions.loss_probability,
        jitter_std=conditions.jitter_std)

    real_host, wmp_host = topology.servers[0], topology.servers[1]
    scaling = None
    if scenario is not None:
        from repro.servers.scaling import MediaScalingPolicy

        # Robustness stack, armed only for fault runs so that plain
        # runs stay event-for-event identical to the pre-fault code.
        scaling = MediaScalingPolicy
        reliability = TcpReliability()
        for node in (topology.client, real_host, wmp_host):
            node.tcp.reliability = reliability
        RouteManager(sim, [topology.client] + list(topology.routers)
                     + list(topology.servers)).attach()
    if abr is not None:
        from repro.media.clip import PlayerFamily
        from repro.servers.abr import AbrServer

        # The ABR ladder *is* the adaptation mechanism; the 2002
        # media-scaling policy never rides along.
        real_server = AbrServer(real_host, family=PlayerFamily.REAL,
                                config=abr)
        wms = AbrServer(wmp_host, family=PlayerFamily.WMP, config=abr)
    else:
        cc_factory = cc.build if cc_armed else None
        repair_factory = None
        if repair_on:
            from repro.repair.sender import SenderRepair

            repair_factory = lambda: SenderRepair(repair)  # noqa: E731
        real_server = RealServer(real_host, scaling_policy_factory=scaling,
                                 cc_factory=cc_factory,
                                 repair_factory=repair_factory)
        wms = WindowsMediaServer(wmp_host, scaling_policy_factory=scaling,
                                 cc_factory=cc_factory,
                                 repair_factory=repair_factory)
    real_server.add_clip(pair.real)
    wms.add_clip(pair.wmp)

    # Section II.D: verify the path before the run.
    ping_before = run_ping(topology.client, real_host.address)
    tracert_report = run_tracert(topology.client, real_host.address,
                                 probes_per_hop=1)

    sniffer = Sniffer(topology.client).start()
    robustness = scenario is not None
    feedback = 1.0 if scenario is not None else None
    if cc_armed:
        # Congestion control needs the report loop even on clean runs.
        feedback = cc.feedback_interval
    if abr is not None:
        from repro.media.clip import PlayerFamily
        from repro.players.abrtracker import AbrTracker

        # ABR always keeps the watchdog armed: a lost segment-boundary
        # datagram would otherwise park the request loop forever.
        real_player = AbrTracker(topology.client, real_host.address,
                                 family=PlayerFamily.REAL, config=abr,
                                 preroll_seconds=preroll_seconds,
                                 feedback_interval=feedback or 1.0,
                                 robustness=True)
        wmp_player = AbrTracker(topology.client, wmp_host.address,
                                family=PlayerFamily.WMP, config=abr,
                                preroll_seconds=preroll_seconds,
                                feedback_interval=feedback or 1.0,
                                robustness=True)
    else:
        player_repair = repair if repair_on else None
        real_player = RealTracker(topology.client, real_host.address,
                                  preroll_seconds=preroll_seconds,
                                  feedback_interval=feedback,
                                  robustness=robustness,
                                  repair=player_repair)
        wmp_player = MediaTracker(topology.client, wmp_host.address,
                                  preroll_seconds=preroll_seconds,
                                  feedback_interval=feedback,
                                  robustness=robustness,
                                  repair=player_repair)
    real_player.play(pair.real.title)
    wmp_player.play(pair.wmp.title)

    if scenario is not None:
        from repro.faults.controller import FaultController

        FaultController(
            sim, scenario,
            links=_fault_links(topology, conditions),
            servers={"real": real_server, "wmp": wms},
            surge_endpoints=(wmp_host, topology.client),
            reference_duration=clip_set.duration).arm()

    horizon = sim.now + clip_set.duration * 2.0 + 120.0
    sim.run(until=horizon)
    if not (real_player.done and wmp_player.done):
        if scenario is None and abr is None and not cc_armed:
            raise ExperimentError(
                f"streams did not finish by t={horizon:.0f}s for "
                f"set {clip_set.number} {pair.band.value}")
        # A fault, a throttling controller, or a lost ABR boundary can
        # legitimately leave a stream unfinished; close the books
        # deterministically (eos_timeout event, stop at last arrival).
        for player in (real_player, wmp_player):
            if not player.done:
                player.finalize()
    trace = sniffer.stop()

    # ...and verify it again after (Section II.D).
    ping_after = run_ping(topology.client, real_host.address)
    tracert_after = run_tracert(topology.client, real_host.address,
                                probes_per_hop=1)
    stability = verify_stability(ping_before, ping_after,
                                 tracert_report, tracert_after)

    if validate is not None:
        validate.check_run(run=run_label(clip_set.number, pair.band),
                           seed=seed)

    return PairRunResult(
        set_number=clip_set.number, genre=clip_set.genre, band=pair.band,
        conditions=conditions, real_clip=pair.real, wmp_clip=pair.wmp,
        real_stats=real_player.stats, wmp_stats=wmp_player.stats,
        trace=trace, real_server=real_host.address,
        wmp_server=wmp_host.address, ping_before=ping_before,
        ping_after=ping_after, tracert=tracert_report,
        tracert_after=tracert_after, stability=stability,
        fastpath=(sim.fast_path.summary()
                  if sim.fast_path is not None else None))


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask, where the
    platform reports one, else the CPU count."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """The worker count a ``jobs`` request runs with: 0 means one per
    usable CPU, and an explicit count is clamped to the usable CPUs
    (more workers than CPUs only take turns on them).

    Raises:
        ExperimentError: if ``jobs`` is negative.
    """
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    usable = usable_cpus()
    return usable if jobs == 0 else min(jobs, usable)


def study_conditions(seed: int, index: int,
                     loss_probability: float = 0.0) -> NetworkConditions:
    """The network conditions run ``index`` of a sweep samples.

    Derived straight from ``RandomStreams(seed + index)`` — the same
    named stream a run's own simulator would hand out, so the draws are
    identical to sampling inside the run, and any process (sequential
    loop, pool worker, a test) can reproduce them independently.
    """
    rng = RandomStreams(seed + index).stream("conditions")
    return sample_conditions(rng, loss_probability=loss_probability)


def work_order(library: ClipLibrary, seed: int) -> List[int]:
    """The sweep's run indices, the run with the most estimated work
    first; equal estimates keep library order.

    A run's estimate is its packet-hop work: the encoded kbps of both
    clips times the clip duration times the hop count
    :func:`study_conditions` samples for it.  Table 1's runs differ in
    it by 30-50x, and it tracks their measured times closely, so a pool
    fed in this order does not leave the longest run until last.
    """
    work = [(pair.real.encoded_kbps + pair.wmp.encoded_kbps)
            * clip_set.duration * study_conditions(seed, index).hop_count
            for index, (clip_set, pair) in enumerate(library.all_pairs())]
    return sorted(range(len(work)), key=lambda index: (-work[index], index))


def run_study(library: Optional[ClipLibrary] = None, seed: int = 2002,
              duration_scale: float = 1.0,
              loss_probability: float = 0.0,
              telemetry: Optional[Telemetry] = None,
              jobs: int = 1,
              scenario: Optional[FaultScenario] = None,
              validate: Optional["RunValidator"] = None,
              cc: Optional["CcConfig"] = None,
              abr: Optional["AbrConfig"] = None,
              repair: Optional["RepairConfig"] = None,
              fast_path: Optional["FlowLevelConfig"] = None,
              min_parallel_runs: int = PARALLEL_MIN_RUNS,
              stream: Optional[StreamingSummary] = None,
              progress: Optional[ProgressCallback] = None) -> StudyResults:
    """Run the full Table 1 sweep (the corpus behind every figure).

    The study parameters (``library`` through ``fast_path``, plus
    whether ``stream`` is given) are the fields of
    :class:`~repro.experiments.spec.RunSpec`; the rest say how to
    execute it (see :func:`run_spec`).
    """
    spec = RunSpec(library=library, seed=seed,
                   duration_scale=duration_scale,
                   loss_probability=loss_probability, scenario=scenario,
                   cc=cc, abr=abr, repair=repair, fast_path=fast_path,
                   stream=stream is not None)
    return run_spec(spec, telemetry=telemetry, jobs=jobs, validate=validate,
                    min_parallel_runs=min_parallel_runs, stream=stream,
                    progress=progress)


def run_spec(spec: RunSpec, *, telemetry: Optional[Telemetry] = None,
             jobs: int = 1,
             validate: Optional["RunValidator"] = None,
             min_parallel_runs: int = PARALLEL_MIN_RUNS,
             stream: Optional[StreamingSummary] = None,
             progress: Optional[ProgressCallback] = None) -> StudyResults:
    """Run the sweep ``spec`` declares.

    Args:
        spec: the study (library, seed, conditions, opt-in features).
            Every config in it is pure data, so pool workers rebuild
            fault controllers, transports, repair stacks, and fast-path
            directors from it independently.
        telemetry: optional shared facade.  One registry and one event
            bus serve every pair run; a ``run=<label>`` context label
            keeps the runs' instruments apart, and the facade comes
            back on ``StudyResults.telemetry``.
        jobs: worker processes to fan the pair runs across (each run
            is an independent simulation fully determined by ``seed +
            index``).  1 (the default) runs in-process; 0 means one
            worker per usable CPU, and a larger count is clamped to the
            usable CPUs (noted on ``StudyResults.execution``, e.g.
            ``parallel jobs=2 (4 asked, 2 usable CPUs)``).  Runs are
            submitted by descending estimated work
            (:func:`work_order`) and collected in library order, so
            results are identical to sequential
            execution: worker telemetry folds into the shared facade
            post-hoc (the facade's profiler, being wall-clock, stays
            parent-only).  A worker that dies costs one re-run of the
            lost runs on a fresh pool, noted on
            ``StudyResults.execution``.
        validate: optional :class:`~repro.validate.checker.RunValidator`
            shared by every pair run of the sweep; each run gets an
            invariant sweep at its end.  Sequential execution only:
            refused unless ``jobs`` is 1, whatever the CPU count.
        min_parallel_runs: sweeps smaller than this auto-downgrade a
            ``jobs > 1`` request to sequential execution (fork overhead
            beats the win on small sweeps); the decision lands on
            ``StudyResults.execution``.  Pass 0 to force the pool.
        stream: the :class:`~repro.telemetry.streaming.StreamingSummary`
            to fold the sweep into online (a fresh one when omitted and
            ``spec.stream`` is set; giving one sets it).  Each pair run
            folds into a fresh summary via a per-run bus sink (no event
            buffering), and the per-run summaries merge into ``stream``
            in library order — byte-identical across sequential,
            parallel, and cached execution.  Works with or without a
            ``telemetry`` facade; the merged summary also lands on
            ``StudyResults.streaming``.
        progress: optional heartbeat consumer (see
            :mod:`repro.experiments.progress`); called in this process
            with one :class:`Heartbeat` as each pair run starts and one
            as it ends, in library order, whichever executor ran it.

    Raises:
        ExperimentError: before any pair run, for a feature pair the
            compatibility table refuses (including ``validate`` with
            any ``jobs`` but 1).
    """
    asked, jobs = jobs, resolve_jobs(jobs)
    # Refuse on the request, not on the host's CPU count, so the answer
    # is the same on every machine.
    spec.check(validate=validate, jobs=asked, telemetry=telemetry)
    clamped = ""
    if jobs < asked:
        clamped = (f" ({asked} asked, {jobs} usable "
                   f"CPU{'s' if jobs != 1 else ''})")
    spec = replace(spec, library=spec.clip_library(),
                   stream=spec.stream or stream is not None)
    if stream is None and spec.stream:
        from repro.telemetry.streaming import StreamingSummary

        stream = StreamingSummary()
    runs = len(spec.library.all_pairs())
    execution = "sequential" + clamped
    if jobs > 1 and runs > 1:
        if runs >= min_parallel_runs:
            from repro.experiments.parallel import run_study_parallel

            results = run_study_parallel(spec, telemetry=telemetry,
                                         jobs=jobs, stream=stream,
                                         progress=progress)
            results.execution = results.execution.replace(
                f"jobs={jobs}", f"jobs={jobs}{clamped}", 1)
            return results
        execution = (f"sequential (auto-downgraded from jobs={jobs}"
                     f"{clamped}: {runs} runs < {min_parallel_runs})")
    results = collect_runs(
        spec,
        lambda index: run_index(spec, index, telemetry, validate),
        telemetry=telemetry, stream=stream, progress=progress,
        validate=validate)
    results.execution = execution
    return results


#: One pair run's outcome: its result, the telemetry snapshot a pool
#: worker ships home (``None`` in-process, where the caller's facade
#: saw the run live), and its per-run streaming summary (``None`` when
#: the sweep does not stream), shipped pre-reduced so the parent merges
#: O(1) state instead of re-folding event rows.
RunOutcome = Tuple[PairRunResult, Optional["TelemetrySnapshot"],
                   Optional["StreamingSummary"]]


def run_index(spec: RunSpec, index: int,
              telemetry: Optional[Telemetry] = None,
              validate: Optional["RunValidator"] = None) -> RunOutcome:
    """Pair run ``index`` of the sweep ``spec`` declares (its library
    resolved): the one per-run body both executors share.

    The sequential loop calls it in-process with the caller's facade;
    pool workers call it with their mirrored facade and add its
    snapshot.  The run's conditions derive from ``seed + index`` (see
    :func:`study_conditions`), so a worker needs nothing but the index.
    When ``spec.stream`` is set, the run folds into a fresh
    :class:`StreamingSummary` through a per-run bus sink, on an
    internal facade with no sinks when ``telemetry`` is None; the
    run's span slice folds in once it is done.

    Args:
        telemetry: the facade to run under, scoped to this run with a
            ``run=<label>`` context.
    """
    clip_set, pair = spec.library.all_pairs()[index]
    if telemetry is not None:
        telemetry.set_context(run=run_label(clip_set.number, pair.band))
    facade = telemetry
    per_run = None
    if spec.stream:
        from repro.telemetry.core import Telemetry
        from repro.telemetry.streaming import StreamingSink, StreamingSummary

        if facade is None:
            # Its bus stays inactive except while the per-run sink is
            # attached.
            facade = Telemetry(sinks=[])
        per_run = StreamingSummary()
        sink = StreamingSink(per_run)
        span_base = len(facade.spans.spans) if facade.spans is not None else 0
        facade.bus.attach(sink)
    try:
        result = run_pair_experiment(
            clip_set, pair, seed=spec.seed + index,
            conditions=study_conditions(
                spec.seed, index, loss_probability=spec.loss_probability),
            telemetry=facade, scenario=spec.scenario, validate=validate,
            cc=spec.cc, abr=spec.abr, repair=spec.repair,
            fast_path=spec.fast_path)
    finally:
        if per_run is not None:
            facade.bus.detach(sink)
    if per_run is not None and facade.spans is not None:
        per_run.fold_spans(facade.spans.spans[span_base:])
    return result, None, per_run


def collect_runs(spec: RunSpec, outcome: Callable[[int], RunOutcome], *,
                 telemetry: Optional[Telemetry] = None,
                 stream: Optional[StreamingSummary] = None,
                 progress: Optional[ProgressCallback] = None,
                 validate: Optional["RunValidator"] = None
                 ) -> StudyResults:
    """Gather a sweep's outcomes in library order, from either executor.

    ``outcome(i)`` runs pair ``i`` in-process or waits for its pool
    future.  Each snapshot merges into ``telemetry`` and each per-run
    summary into ``stream``, and the START(i) and DONE(i) heartbeats
    fire here around each outcome, so ``progress`` sees the identical
    sequence whichever executor ran the sweep.
    """
    pairs = spec.library.all_pairs()
    results = StudyResults(telemetry=telemetry)
    for index, (clip_set, pair) in enumerate(pairs):
        start = Heartbeat(index=index, total=len(pairs),
                          label=run_label(clip_set.number, pair.band),
                          phase=PHASE_START)
        if progress is not None:
            progress(start)
        result, snapshot, per_run = outcome(index)
        if snapshot is not None:
            offset = telemetry.merge(snapshot)
            if offset:
                result.trace.rebase_spans(offset)
        if per_run is not None:
            stream.merge(per_run)
        results.runs.append(result)
        if progress is not None:
            rollup = per_run.rollup.as_dict() if per_run else None
            progress(replace(
                start, phase=PHASE_DONE,
                events_folded=per_run.events_folded if per_run else 0,
                faults_fired=rollup["faults_fired"] if rollup else 0,
                violations=(len(validate.violations)
                            if validate is not None else 0),
                rollup=rollup))
    if telemetry is not None:
        telemetry.clear_context()
    results.streaming = stream
    return results
