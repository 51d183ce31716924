"""Layer-by-layer ledger for the benchmark's traced sweep.

The program is measured from outside.  :class:`Tracer` wraps the public
entry points of each layer (``Simulator.run``, ``Router.handle_packet``,
``Link.send_from``, ``DropTailQueue.offer``/``poll``, ``IpLayer.send``/
``receive``, ``UdpSocket.send``, ``FlowLevelDirector.try_deliver``,
``Sniffer.stop``, ``build_path_topology``, ``run_ping``, ``run_tracert``,
``run_pair_experiment``, ``fit_profile``) in a self-time stack, and
splits the work the engine dispatches by the module of each callback
through the public ``Telemetry(profiler=...)`` hook.  Two more hooks
name the receiver of work that arrives through a callback: packet taps
registered with ``Node.add_tap`` (the sniffer), and the datagram upcall
``UdpSocket._deliver``, whose ``on_receive`` callback is how a player or
server gets its datagrams; it is the one private name wrapped.

A *site* is ``"<layer>:<function>"``; its self time is its duration
minus the time of the sites it called.  Counts come from the public
stats objects of each pair run (``DirectionStats``, ``Link.queue_stats``,
``IpStats``, ``FastPathSummary``, ``PlayerStats``, the repair senders and
receivers, the fault controllers).  In pool workers the wrappers are
inherited through fork, and each pair run's ledger travels home on its
result.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.figures import ALL_FIGURES
from repro.faults.controller import FaultController
from repro.repair.receiver import ReceiverRepair
from repro.repair.sender import SenderRepair
from repro.telemetry.profiler import SimProfiler

#: The traced window's own frame: its self time is what no site claims.
WINDOW_SITE = "unattributed:window"
STUDY_SITE = "experiments.runner:run_study"
RUN_SITE = "experiments.runner:run_pair_experiment"
ENGINE_SITE = "netsim.engine:Simulator.run"
TOPOLOGY_SITE = "netsim.topology:build_path_topology"
UDP_SEND_SITE = "netsim.udp:UdpSocket.send"
UDP_DELIVER_SITE = "netsim.udp:UdpSocket._deliver"
#: Attribute under which a worker's per-run ledger rides home.
ATTACHED = "_e2e_bench_ledger"

#: Public methods timed as their module's layer: (module, class, method).
TIMED_METHODS = (
    ("repro.netsim.node", "Router", "handle_packet"),
    ("repro.netsim.node", "Host", "handle_packet"),
    ("repro.netsim.link", "Link", "send_from"),
    ("repro.netsim.queues", "DropTailQueue", "offer"),
    ("repro.netsim.queues", "DropTailQueue", "poll"),
    ("repro.netsim.ip", "IpLayer", "send"),
    ("repro.netsim.ip", "IpLayer", "receive"),
    ("repro.netsim.udp", "UdpSocket", "send"),
    ("repro.netsim.flowlevel", "FlowLevelDirector", "try_deliver"),
    ("repro.capture.sniffer", "Sniffer", "stop"),
    ("repro.repair.sender", "SenderRepair", "on_media_sent"),
    ("repro.repair.sender", "SenderRepair", "on_nack"),
    ("repro.repair.receiver", "ReceiverRepair", "on_media"),
    ("repro.repair.receiver", "ReceiverRepair", "on_gap"),
    ("repro.repair.receiver", "ReceiverRepair", "on_parity"),
    ("repro.repair.receiver", "ReceiverRepair", "on_retransmit"),
)
#: Public functions timed as their module's layer: (module, function).
TIMED_FUNCTIONS = (
    ("repro.tools.ping", "run_ping"),
    ("repro.tools.tracert", "run_tracert"),
    ("repro.experiments.parallel", "run_study_parallel"),
    ("repro.core.fitting", "fit_profile"),
)
#: Classes whose instances hold a pair run's counters.
COUNTED = (FaultController, SenderRepair, ReceiverRepair)

#: Packages whose second level names a layer (``netsim.link``); in the
#: others the package is the layer (``players.base`` is ``players``).
_TWO_LEVEL = frozenset({"netsim", "servers", "experiments", "core"})


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to."""
    if not module.startswith("repro."):
        return "other"
    parts = module[len("repro."):].split(".")
    return ".".join(parts[:2] if parts[0] in _TWO_LEVEL else parts[:1])


def layer_of_site(site: str) -> str:
    return site.split(":", 1)[0]


class Ledger:
    """Calls, self and inclusive seconds per site, plus counts."""

    def __init__(self) -> None:
        self.sites: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[list] = []

    def enter(self, site: str) -> None:
        self._stack.append([site, time.perf_counter(), 0.0])

    def leave(self) -> None:
        site, started, children = self._stack.pop()
        elapsed = time.perf_counter() - started
        record = self.sites.get(site)
        if record is None:
            record = self.sites[site] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed - children
        record[2] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def export(self) -> dict:
        return {"sites": {site: list(record)
                          for site, record in self.sites.items()},
                "counts": dict(self.counts)}

    def absorb(self, exported: dict) -> None:
        """Add another ledger's export (peaks, named ``max_``, take max)."""
        for site, (calls, self_s, total_s) in exported["sites"].items():
            record = self.sites.setdefault(site, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += self_s
            record[2] += total_s
        for key, value in exported["counts"].items():
            if ".max_" in key:
                self.peak(key, value)
            else:
                self.count(key, value)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Self seconds and calls rolled up from sites to layers."""
        rolled: Dict[str, Dict[str, float]] = {}
        for site, (calls, self_s, _) in self.sites.items():
            entry = rolled.setdefault(layer_of_site(site),
                                      {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["calls"] += calls
        return rolled


def callback_site(callback: Callable[..., object]) -> str:
    """``"<layer>:<qualified name>"`` of a callback."""
    function = getattr(callback, "__func__", callback)
    module = getattr(function, "__module__", None) or ""
    name = (getattr(function, "__qualname__", None)
            or type(function).__qualname__)
    return f"{layer_of_module(module)}:{name}"


class LayerProfiler(SimProfiler):
    """Engine hook: each dispatched callback runs as a site of its
    module's layer, so the engine's own self time is heap and loop."""

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__()
        self._tracer = tracer

    def run_event(self, callback, args, heap_depth) -> None:
        if heap_depth > self.report.max_heap_depth:
            self.report.max_heap_depth = heap_depth
        self._tracer.call(self._tracer.site_of(callback), callback, *args)


class Tracer:
    """Installs the wrappers and owns the ledger they write to."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        self.profiler = LayerProfiler(self)
        self._pid = os.getpid()
        self._sites: Dict[object, str] = {}
        self._run: Optional[Dict[str, object]] = None
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Sites and frames
    # ------------------------------------------------------------------
    def site_of(self, callback: Callable[..., object]) -> str:
        function = getattr(callback, "__func__", callback)
        key = getattr(function, "__code__", None) or type(function)
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = callback_site(callback)
        return site

    def call(self, site: str, function: Callable[..., object],
             *args, **kwargs):
        ledger = self.ledger
        ledger.enter(site)
        try:
            return function(*args, **kwargs)
        finally:
            ledger.leave()

    def reset(self) -> None:
        self.ledger = Ledger()

    def _timed(self, site: str, original: Callable[..., object]):
        def timed(*args, **kwargs):
            return self.call(site, original, *args, **kwargs)
        return timed

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        for module_name, class_name, method in TIMED_METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            site = (f"{layer_of_module(module_name)}:"
                    f"{class_name}.{method}")
            self._patch(owner, method,
                        self._timed(site, owner.__dict__[method]))
        for module_name, function in TIMED_FUNCTIONS:
            site = f"{layer_of_module(module_name)}:{function}"
            self._patch_everywhere(
                module_name, function,
                lambda original, site=site: self._timed(site, original))
        self._patch_everywhere("repro.experiments.runner",
                               "run_pair_experiment", self._pair_run)
        self._patch_everywhere("repro.netsim.topology", "build_path_topology",
                               self._topology)
        from repro.netsim.engine import Simulator
        from repro.netsim.node import Node
        from repro.netsim.udp import UdpSocket

        self._patch(Simulator, "run", self._engine(Simulator.run))
        self._patch(Node, "add_tap", self._add_tap(Node.add_tap))
        self._patch(UdpSocket, "_deliver", self._upcall(UdpSocket._deliver))
        for owner in COUNTED:
            self._patch(owner, "__init__", self._collect(owner.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: object, attribute: str, wrapper: object) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def _patch_everywhere(self, module_name: str, name: str,
                          make_wrapper: Callable[[object], object]) -> None:
        """Wrap ``module_name.name`` in every ``repro`` module holding it
        (the function's own module and each ``from ... import``)."""
        original = getattr(importlib.import_module(module_name), name)
        wrapper = make_wrapper(original)
        for holder_name, holder in list(sys.modules.items()):
            if not (holder_name == "repro" or holder_name.startswith("repro.")):
                continue
            if getattr(holder, name, None) is original:
                self._patch(holder, name, wrapper)

    # ------------------------------------------------------------------
    # Wrappers with more to do than time a frame
    # ------------------------------------------------------------------
    def _engine(self, original):
        def run(sim, *args, **kwargs):
            telemetry = sim.telemetry
            if telemetry is not None and telemetry.profiler is None:
                # A pool worker's facade: give it this process's hook.
                telemetry.profiler = self.profiler
            executed = self.call(ENGINE_SITE, original, sim, *args, **kwargs)
            self.ledger.count("netsim.engine.events", executed)
            self.ledger.peak("netsim.engine.max_heap_depth",
                             self.profiler.report.max_heap_depth)
            return executed
        return run

    def _add_tap(self, original):
        def add_tap(node, callback):
            def tap(*args):
                return self.call(self.site_of(callback), callback, *args)
            return original(node, tap)
        return add_tap

    def _upcall(self, original):
        def deliver(socket, datagram):
            callback = socket.on_receive
            site = (UDP_DELIVER_SITE if callback is None
                    else self.site_of(callback))
            return self.call(site, original, socket, datagram)
        return deliver

    def _collect(self, original):
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            if self._run is not None:
                self._run["objects"].append(instance)
        return init

    def _topology(self, original):
        def build(*args, **kwargs):
            topology = self.call(TOPOLOGY_SITE, original, *args, **kwargs)
            if self._run is not None:
                self._run["topology"] = topology
            return topology
        return build

    def _pair_run(self, original):
        def pair_run(*args, **kwargs):
            worker = os.getpid() != self._pid
            if worker:
                self.reset()
            self._run = {"topology": None, "objects": []}
            result = self.call(RUN_SITE, original, *args, **kwargs)
            self._harvest(result)
            self._run = None
            if worker:
                result.__dict__[ATTACHED] = self.ledger.export()
            return result
        return pair_run

    def _harvest(self, result) -> None:
        """Add one pair run's public counters to the ledger."""
        count = self.ledger.count
        topology = self._run["topology"]
        count("netsim.node.forwards",
              sum(router.forwarded for router in topology.routers))
        for link in topology.links:
            for sender in (link.a, link.b):
                direction = link.direction_stats(sender)
                queue = link.queue_stats(sender)
                count("netsim.link.sends", direction.packets_sent)
                count("netsim.link.drops", direction.packets_lost)
                count("netsim.queues.offers", queue.enqueued + queue.dropped)
                count("netsim.queues.drops", queue.dropped)
                self.ledger.peak("netsim.queues.max_depth", queue.peak_bytes)
        for host in [topology.client] + list(topology.servers):
            count("netsim.ip.fragments", host.ip.stats.fragments_sent)
            count("netsim.ip.datagrams_delivered",
                  host.ip.stats.datagrams_delivered)
            count("netsim.ip.reassembly_timeouts",
                  host.ip.stats.reassembly_timeouts)
        if result.fastpath is not None:
            summary = result.fastpath
            count("netsim.flowlevel.trains", summary.trains_fast)
            count("netsim.flowlevel.packets_fast", summary.packets_fast)
            count("netsim.flowlevel.packets_offered",
                  summary.packets_fast + summary.packets_fallback)
        for stats in (result.real_stats, result.wmp_stats):
            count("players.datagrams", stats.packets_received)
            count("players.rebuffer_sim_s", stats.rebuffer_seconds)
            count("players.lost", stats.packets_lost)
            count("players.recovered", stats.packets_recovered)
        for instance in self._run["objects"]:
            if isinstance(instance, SenderRepair):
                count("repair.parity_sent", instance.parity_groups_sent)
            elif isinstance(instance, ReceiverRepair):
                count("repair.nacks", instance.nacks_sent)
            else:
                count("faults.fired", instance.executed)
        count("capture.records", len(result.trace))


#: Per-layer metrics of a traced sweep: name -> unit.
PER_LAYER: Dict[str, str] = {
    "netsim.node.forwards": "count",
    "netsim.node.self_s": "s",
    "netsim.engine.events": "count",
    "netsim.engine.self_s": "s",
    "netsim.engine.events_per_s": "1/s",
    "netsim.engine.max_heap_depth": "count",
    "netsim.link.sends": "count",
    "netsim.link.self_s": "s",
    "netsim.link.drops": "count",
    "netsim.queues.offers": "count",
    "netsim.queues.self_s": "s",
    "netsim.queues.drops": "count",
    "netsim.queues.max_depth": "B",
    "netsim.ip.fragments": "count",
    "netsim.ip.datagrams_delivered": "count",
    "netsim.ip.reassembly_timeouts": "count",
    "netsim.ip.self_s": "s",
    "netsim.udp.sends": "count",
    "netsim.udp.self_s": "s",
    "netsim.flowlevel.trains": "count",
    "netsim.flowlevel.fast_share": "ratio",
    "netsim.flowlevel.self_s": "s",
    "servers.pacing.ticks": "count",
    "servers.pacing.self_s": "s",
    "players.datagrams": "count",
    "players.self_s": "s",
    "players.rebuffer_sim_s": "s",
    "repair.parity_sent": "count",
    "repair.nacks": "count",
    "repair.recovered_ratio": "ratio",
    "repair.self_s": "s",
    "faults.fired": "count",
    "capture.records": "count",
    "capture.self_s": "s",
    "tools.probe_s": "s",
    "experiments.runner.build_s": "s",
    "experiments.runner.pair_run_p50_s": "s",
    "experiments.runner.pair_run_p90_s": "s",
    "experiments.parallel.result_bytes": "B",
    "experiments.parallel.worker_busy_s": "s",
    "experiments.parallel.utilisation": "ratio",
    "core.fitting.self_s": "s",
    **{f"experiments.figures.{figure_id}_s": "s"
       for figure_id in ALL_FIGURES},
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report(parent: Ledger, workers: Ledger, *, jobs: int, study_s: float,
           untraced: Dict[str, List[float]], result_bytes: int) -> dict:
    """The traced sweep's ledger and its per-layer metrics.

    ``parent`` holds this process's sites under the window frame, whose
    own self time is the unattributed rest; ``workers`` holds what the
    pool workers measured (empty for a sequential sweep).  ``study_s``
    is the traced ``run_study`` wall time.  The ``untraced`` samples
    (``study_wall_s``, ``figures_wall_s``, ``pair_run_s``) give the
    tracing overhead, events per wall second and the pair-run
    percentiles.
    """
    untraced_study_s = statistics.median(untraced["study_wall_s"])
    pair_deciles = statistics.quantiles(untraced["pair_run_s"], n=10)
    _, unattributed_s, window_s = parent.sites[WINDOW_SITE]
    self_sum_s = sum(record[1] for record in parent.sites.values())
    combined = Ledger()
    combined.absorb(parent.export())
    combined.absorb(workers.export())
    sites, counts = combined.sites, combined.counts
    layers = combined.layers()

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def total_s(site: str) -> float:
        return sites.get(site, (0, 0.0, 0.0))[2]

    worker_busy_s = workers.sites.get(RUN_SITE, (0, 0.0, 0.0))[2]
    values = {
        "netsim.engine.events_per_s": _ratio(
            counts.get("netsim.engine.events", 0), untraced_study_s),
        "netsim.udp.sends": sites.get(UDP_SEND_SITE, (0,))[0],
        "netsim.flowlevel.fast_share": _ratio(
            counts.get("netsim.flowlevel.packets_fast", 0),
            counts.get("netsim.flowlevel.packets_offered", 0)),
        "servers.pacing.ticks": layers.get("servers.pacing",
                                           {}).get("calls", 0),
        "repair.recovered_ratio": _ratio(counts.get("players.recovered", 0),
                                         counts.get("players.lost", 0)),
        "tools.probe_s": total_s("tools:run_ping")
        + total_s("tools:run_tracert"),
        "experiments.runner.build_s": sites.get(RUN_SITE, (0, 0.0))[1]
        + self_s("netsim.topology"),
        "experiments.runner.pair_run_p50_s": pair_deciles[4],
        "experiments.runner.pair_run_p90_s": pair_deciles[8],
        "experiments.parallel.result_bytes": result_bytes,
        "experiments.parallel.worker_busy_s": worker_busy_s,
        "experiments.parallel.utilisation": _ratio(worker_busy_s,
                                                   jobs * study_s)
        if jobs > 1 else 0.0,
        "unattributed_s": unattributed_s,
        "trace_overhead": _ratio(
            window_s,
            untraced_study_s + statistics.median(untraced["figures_wall_s"])),
    }
    for figure_id in ALL_FIGURES:
        values[f"experiments.figures.{figure_id}_s"] = total_s(
            f"experiments.figures.{figure_id}:generate")
    for name in PER_LAYER:
        if name not in values:
            base, _, kind = name.rpartition(".")
            values[name] = (self_s(base) if kind == "self_s"
                            else counts.get(name, 0))
    ranked = sorted(combined.sites.items(), key=lambda item: -item[1][1])
    return {
        "window_s": window_s,
        "unattributed_s": unattributed_s,
        "self_sum_s": self_sum_s,
        "sum_error": abs(self_sum_s - window_s) / window_s,
        "study_s": study_s,
        "trace_overhead": values["trace_overhead"],
        "layers": _shares(parent.layers(), window_s),
        "worker_layers": _shares(workers.layers(), worker_busy_s),
        "sites": [{"site": site, "calls": record[0], "self_s": record[1],
                   "total_s": record[2]} for site, record in ranked[:60]],
        "counts": counts,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }


def _shares(layers: Dict[str, Dict[str, float]],
            whole: float) -> Dict[str, Dict[str, float]]:
    ordered = sorted(layers.items(), key=lambda item: -item[1]["self_s"])
    return {layer: dict(entry, share=_ratio(entry["self_s"], whole))
            for layer, entry in ordered}
