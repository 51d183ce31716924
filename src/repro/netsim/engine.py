"""Deterministic discrete-event simulation engine.

The engine is a classic event-heap design: callbacks are scheduled at
absolute simulated times and executed in time order.  Two events at the
same timestamp run in scheduling order (a monotonic sequence number
breaks ties), which makes every simulation fully deterministic for a
given seed — a property the test suite relies on heavily.

A heap entry is the event: a list ``[time, sequence, callback, args]``,
returned as the handle (the :mod:`heapq` docs' priority-queue recipe).
Sequence numbers are unique, so a comparison never reaches the
callback, and every heap sift compares floats and ints in C.  The loop
clears the callback of each entry it fires and skips a cleared one, so
:meth:`Simulator.cancel` clears it too: cleared means fired or cancelled.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.netsim.rng import RandomStreams

# Module-level bindings: the event loop calls these millions of times
# per study, and a global load is measurably cheaper than re-resolving
# the ``heapq`` attribute on every schedule/pop.
_heappush = heapq.heappush
_heappop = heapq.heappop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.core import Telemetry
    from repro.validate.checker import RunValidator


class Simulator:
    """Event loop with a simulated clock and seeded randomness.

    Args:
        seed: master seed for all random streams drawn from this
            simulator (see :class:`repro.netsim.rng.RandomStreams`).
        telemetry: optional :class:`~repro.telemetry.core.Telemetry`
            facade.  When given, its clock is bound to this simulator
            and instrumented layers (links, IP, pacers, buffers) will
            find it via ``sim.telemetry``; its profiler, if any,
            samples every :meth:`run`.
        validate: optional :class:`~repro.validate.checker.RunValidator`.
            When given, instrumented layers self-register via
            ``sim.validator`` at construction so the validator can
            sweep their conservation laws at run end.  Attaching a
            validator schedules no events and perturbs nothing.
        fast_path: optional
            :class:`~repro.netsim.flowlevel.FlowLevelConfig`.  When
            given, a :class:`~repro.netsim.flowlevel.FlowLevelDirector`
            delivers eligible packet trains analytically instead of
            event-per-packet (see :mod:`repro.netsim.flowlevel`); with
            ``None`` (the default) every packet takes the event path
            and the run is byte-identical to a pre-fast-path build.

    Attributes:
        now: current simulated time in seconds.
        streams: named, independently-seeded random streams.
        telemetry: the attached facade, or None (the default — every
            instrumented path is a no-op then).
        validator: the attached validator, or None (the default).
        fast_path: the flow-level director, or None (the default).
    """

    def __init__(self, seed: int = 0,
                 telemetry: Optional["Telemetry"] = None,
                 validate: Optional["RunValidator"] = None,
                 fast_path: Optional[object] = None) -> None:
        self.now: float = 0.0
        self.streams = RandomStreams(seed)
        self._heap: List[list] = []
        self._sequence = 0
        self._running = False
        self._event_count = 0
        #: Bumped by every link mutator (up/down, bandwidth, delay,
        #: loss); the flow-level director revalidates its cached
        #: per-path static profiles when this changes.
        self.topology_epoch = 0
        self.telemetry = telemetry
        self.validator = validate
        if telemetry is not None:
            telemetry.bind(self)
        if validate is not None:
            validate.bind(self)
        self.fast_path = None
        if fast_path is not None:
            # Local import: flowlevel imports link/packet, which lead
            # back here for type checking only.
            from repro.netsim.flowlevel import FlowLevelDirector

            self.fast_path = FlowLevelDirector(self, fast_path)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute simulated ``time``;
        return the heap entry, the handle :meth:`cancel` takes.

        Raises:
            SimulationError: if ``time`` is in the past or NaN.
        """
        # Written so that NaN fails it too: a NaN entry would compare
        # False against everything and silently disorder the heap.
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}s; clock is at {self.now:.6f}s")
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = [time, sequence, callback, args]
        _heappush(self._heap, entry)
        return entry

    def reserve_sequence(self) -> int:
        """Take the sequence number an event scheduled now would get.

        Passing it to :meth:`schedule_reserved` later runs that event,
        among events at its time, where it would have run had it been
        scheduled now.  A link does this, inline, to decide only once a
        packet waits whether its transmitter needs a completion event.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        return sequence

    def schedule_reserved(self, time: float, sequence: int,
                          callback: Callable[..., None],
                          *args: Any) -> list:
        """Schedule ``callback(*args)`` at ``time`` under a sequence
        number from :meth:`reserve_sequence` (use each one once).

        Raises:
            SimulationError: if ``time`` is in the past or NaN.
        """
        # The body of schedule_at, which does not call this: it is the
        # hottest call in a sweep, and one more frame would show.
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}s; clock is at {self.now:.6f}s")
        entry = [time, sequence, callback, args]
        _heappush(self._heap, entry)
        return entry

    def schedule_in(self, delay: float, callback: Callable[..., None],
                    *args: Any) -> list:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Raises:
            SimulationError: if ``delay`` is negative or NaN.
        """
        if not delay >= 0:
            raise SimulationError(f"delay must be nonnegative, got {delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    @staticmethod
    def cancel(entry: list) -> None:
        """Keep a scheduled entry from firing (a no-op once it has fired
        or been cancelled: its callback is already cleared then)."""
        entry[2] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the heap drains or limits are hit.

        Args:
            until: stop once the clock would pass this time.  The clock
                is advanced to ``until`` on return so follow-up
                scheduling is relative to it.
            max_events: stop after this many events (safety valve for
                runaway simulations).

        Returns:
            The number of events executed by this call.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        executed = 0
        # The profiler decision is made once per run() call; the
        # unprofiled loop below is the pre-telemetry one with the heap,
        # the pop, and the loop bounds held in locals — the loop body
        # is the hottest code in a study sweep, and each saved
        # attribute load is paid millions of times.
        profiler = (self.telemetry.profiler
                    if self.telemetry is not None else None)
        heap = self._heap
        pop = _heappop
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                entry = heap[0]
                time, _, callback, args = entry
                if callback is None:
                    pop(heap)
                    continue
                if until is not None and time > until:
                    break
                pop(heap)
                entry[2] = None
                self.now = time
                if profiler is not None:
                    profiler.run_event(callback, args, len(heap))
                else:
                    callback(*args)
                executed += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        self._event_count += executed
        return executed

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns:
            True if an event ran, False if the heap was empty.
        """
        while self._heap:
            entry = _heappop(self._heap)
            time, _, callback, args = entry
            if callback is None:
                continue
            entry[2] = None
            self.now = time
            callback(*args)
            self._event_count += 1
            return True
        return False

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events.

        Counted from the heap when read: an O(heap) scan, which its
        readers (the run-end invariant sweep, tests) can afford and the
        event loop then need not pay for on every schedule and pop.
        """
        return sum(1 for entry in self._heap if entry[2] is not None)

    @property
    def executed_events(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._event_count
