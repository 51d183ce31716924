"""Live study progress: heartbeat records and the status-line renderer.

A study run used to be a silent multi-second wait; this module is the
observable version.  The study's collection loop (see
:func:`~repro.experiments.runner.collect_runs`) emits one
:class:`Heartbeat` as each pair run starts and one as it finishes, in
library order and in the parent process, whether the run executed
in-process or on a pool worker; a progress callback consumes them.
:class:`ProgressRenderer` is the CLI's callback: on a TTY it redraws a
single in-place status line (runs done/total, ETA, cache note,
violations); on anything else it falls back to one deterministic
``run i/N done`` line per run, so CI logs and tests see stable bytes.

Determinism discipline: heartbeats carry only simulated quantities
(run index, events folded, faults fired, violations).  Wall-clock
appears exclusively in the TTY rendering (elapsed/ETA), which is never
exported and never reaches the non-TTY path.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: Heartbeat phases: one of each per pair run.
PHASE_START = "start"
PHASE_DONE = "done"


@dataclass(frozen=True)
class Heartbeat:
    """One liveness record from a running study.

    Attributes:
        index: zero-based pair-run index in library order.
        total: pair runs in the sweep.
        label: the run's ``set<N>-<band>`` label.
        phase: :data:`PHASE_START` or :data:`PHASE_DONE`.
        events_folded: events the run's streaming summary absorbed
            (0 when the study is not streaming).
        faults_fired: fault-controller actions the run executed.
        violations: invariant violations recorded so far (sequential
            validated studies only; workers never validate).
        rollup: the run's turbulence roll-up dict (delivered rate,
            rebuffer ratio, ...), present on ``done`` heartbeats of
            streaming studies — the payload ``repro watch`` consumes.
    """

    index: int
    total: int
    label: str
    phase: str
    events_folded: int = 0
    faults_fired: int = 0
    violations: int = 0
    rollup: Optional[Dict[str, object]] = None


#: A progress consumer: any callable taking one heartbeat.
ProgressCallback = Callable[[Heartbeat], None]


class ProgressRenderer:
    """Render heartbeats as a terminal status display.

    Args:
        stream: output stream (default ``sys.stderr``, keeping stdout
            artifacts clean for redirection).
        cache_note: short cache-state tag shown on the line (the CLI
            passes ``off``/``cold``; a warm cache never renders at all
            because no heartbeats fire).
        force_tty: override TTY detection (tests pin both paths).
        clock: wall-clock source for elapsed/ETA (injectable in tests).
    """

    def __init__(self, stream=None, cache_note: str = "cold",
                 force_tty: Optional[bool] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._cache_note = cache_note
        isatty = getattr(self._stream, "isatty", None)
        self._tty = (force_tty if force_tty is not None
                     else bool(isatty and isatty()))
        self._clock = clock
        self._started = clock()
        self.done = 0
        self.total = 0
        self.events_folded = 0
        self.faults_fired = 0
        self.violations = 0
        self._rendered = False

    # ------------------------------------------------------------------
    # The callback
    # ------------------------------------------------------------------
    def __call__(self, beat: Heartbeat) -> None:
        self.total = max(self.total, beat.total)
        if beat.phase == PHASE_DONE:
            self.done += 1
            self.events_folded += beat.events_folded
            self.faults_fired += beat.faults_fired
            self.violations = max(self.violations, beat.violations)
        if self._tty:
            self._render_line()
        elif beat.phase == PHASE_DONE:
            self._stream.write(
                f"run {beat.index + 1}/{beat.total} done {beat.label} "
                f"events={beat.events_folded} faults={beat.faults_fired} "
                f"violations={beat.violations}\n")
            self._stream.flush()

    def _render_line(self) -> None:
        elapsed = self._clock() - self._started
        if self.done and self.done < self.total:
            eta = elapsed / self.done * (self.total - self.done)
            eta_note = f" eta {eta:.1f}s"
        else:
            eta_note = ""
        line = (f"study {self.done}/{self.total} runs"
                f" elapsed {elapsed:.1f}s{eta_note}"
                f" cache {self._cache_note}"
                f" events {self.events_folded}"
                f" faults {self.faults_fired}"
                f" violations {self.violations}")
        self._stream.write("\r\x1b[2K" + line)
        self._stream.flush()
        self._rendered = True

    def close(self) -> None:
        """Finish the display (newline after the in-place TTY line)."""
        if self._tty and self._rendered:
            self._stream.write("\n")
            self._stream.flush()
