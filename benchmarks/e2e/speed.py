"""How fast the machine runs while the program runs, sampled from inside.

The reference machine is a VM on a shared host.  Its speed flips between
full and about half several times a second, and the share of time spent
slow drifts from ~25% to ~90% over tens of seconds, so one run of the
benchmark can take 20% longer than the next with no change to the
program.  No median over a run removes that.

A ``Sampler`` therefore measures the machine's speed during the work
itself: every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs a
small fixed kernel and records its speed, ``REFERENCE_S`` over the
kernel's time, where ``REFERENCE_S`` is the kernel's time on the
reference machine at full speed.  Samples fall evenly in wall time, so
their mean speed times a duration is that duration in *reference
seconds*: what it would have taken on the reference machine at full
speed.  The kernel is the benchmark's own code, so a change to the
program moves reference seconds exactly as it moves wall seconds; only
the machine's drift is divided out.

The kernel is a small store-and-forward simulation with the same mix of
work as the program's event loop: heap pushes and pops, attribute and
dict access, small objects and calls.  The handler's own time is
counted, so that callers can take it out of what they time.
"""

from __future__ import annotations

import gc
import heapq
import mmap
import signal
import time
from typing import Dict, List, Tuple

#: Kernel time on the reference machine (2-vCPU Intel Xeon VM, Python
#: 3.11.7) at full speed, interleaved with the program's work.
REFERENCE_S = 0.0014
SAMPLE_EVENTS = 1000
INTERVAL_S = 0.05


class _Packet:
    __slots__ = ("flow", "size", "hops")

    def __init__(self, flow: int, size: int) -> None:
        self.flow = flow
        self.size = size
        self.hops = 0


class _Hop:
    __slots__ = ("rate", "busy_until", "sent")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.busy_until = 0.0
        self.sent: Dict[int, int] = {}

    def transmit(self, packet: _Packet, now: float) -> float:
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + packet.size * 8 / self.rate
        self.sent[packet.flow] = self.sent.get(packet.flow, 0) + 1
        return self.busy_until


def kernel(events: int = SAMPLE_EVENTS) -> int:
    """Run ``events`` events; returns a checksum that depends on all."""
    hops = [_Hop(1e6 + 1e5 * index) for index in range(8)]
    routes = {flow: [hops[(flow + k) % 8] for k in range(5)]
              for flow in range(16)}
    heap = [(0.0, flow, flow) for flow in range(16)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    sequence, delivered, state = 16, 0, 1
    for _ in range(events):
        now, _, item = pop(heap)
        if isinstance(item, int):  # a source emits its next packet
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            packet = _Packet(item, 200 + state % 1300)
            push(heap, (now + 0.001 + (state % 97) * 1e-5, sequence, item))
            sequence += 1
        else:
            packet = item
            packet.hops += 1
        route = routes[packet.flow]
        if packet.hops == len(route):
            delivered += packet.size
            continue
        push(heap, (route[packet.hops].transmit(packet, now), sequence,
                    packet))
        sequence += 1
    return delivered + sequence


class Sampler:
    """Speed samples, accumulated per slot in memory shared with forks.

    A slot is one piece of work that runs in one process at a time (a
    pair run, a figure render); pool workers forked after the sampler
    was made write into the same memory, so their samples come home.
    Each slot holds the sample count, the sum of speeds and the
    handler's seconds.
    """

    def __init__(self, slots: int) -> None:
        self._totals = memoryview(mmap.mmap(-1, 8 * 3 * slots)).cast("d")
        self._slot = 0
        #: ``on`` does nothing while false (during a traced sweep, whose
        #: self times the handler would blur).
        self.enabled = True
        for _ in range(2):  # specialise the kernel's bytecode
            kernel()

    def on(self, slot: int) -> None:
        """Sample into ``slot`` until ``off``, in this process."""
        if not self.enabled:
            return
        self._slot = slot
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def off(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        took = time.perf_counter() - started
        if enabled:
            gc.enable()
        base = 3 * self._slot
        self._totals[base] += 1.0
        self._totals[base + 1] += REFERENCE_S / took
        self._totals[base + 2] += time.perf_counter() - started

    def reset(self) -> None:
        for index in range(len(self._totals)):
            self._totals[index] = 0.0

    def read(self, slots: List[int]) -> Tuple[float, float]:
        """Mean speed and handler seconds over ``slots`` (mean speed 1.0
        when there is no sample)."""
        count = sum(self._totals[3 * slot] for slot in slots)
        speeds = sum(self._totals[3 * slot + 1] for slot in slots)
        handler_s = sum(self._totals[3 * slot + 2] for slot in slots)
        return (speeds / count if count else 1.0), handler_s

    def reference_seconds(self, wall_s: float, slots: List[int],
                          workers: int = 1) -> Tuple[float, float]:
        """``wall_s`` of work sampled into ``slots`` by ``workers``
        processes at once, less the handler's share, in reference
        seconds; and the mean speed it was converted with."""
        speed, handler_s = self.read(slots)
        return (wall_s - handler_s / workers) * speed, speed
