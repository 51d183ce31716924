"""Per-session glue between receiver reports and the pacer.

Shaped like ``servers.scaling.ScalingController``: the server creates
one per PLAY, and ``StreamingServer._on_feedback`` routes each
``ReceiverReport`` here.  The controller translates report fields into
controller signals, then applies the resulting pacing rate to the
pacer as a delay floor — it never rewrites the pacer's budget ledger,
so the pacer-budget invariant holds unchanged under cc.
"""

from typing import List, Optional, Tuple

from repro.cc.base import CongestionControl


class CcSessionController:
    def __init__(self, cc: CongestionControl, pacer, sim, family: str) -> None:
        self.cc = cc
        self.pacer = pacer
        self.sim = sim
        self.family = family
        self.state_log: List[Tuple[float, Optional[float], float]] = []
        self._blackout_opened = False
        pacer.enable_cc_stamping()
        validator = getattr(sim, "validator", None)
        if validator is not None:
            validator.register_cc(self)

    def on_report(self, report, now: float) -> None:
        if report.delay_sample is not None:
            self.cc.on_rtt_sample(now, report.delay_sample)
        if report.interval_lost > 0:
            self.cc.on_loss(now, report.interval_lost)
        if report.interval_bytes > 0:
            self.cc.on_ack(now, report.interval_bytes)
        rate = self.cc.pacing_rate_bps(now)
        if rate is not None:
            self.pacer.set_cc_rate(rate)
            if not self._blackout_opened:
                self._blackout_opened = True
                fast_path = getattr(self.sim, "fast_path", None)
                if fast_path is not None:
                    # Once cc shapes the send rate, pacing depends on
                    # the feedback loop's timing; the analytic model
                    # has no seat at that table for the rest of the run.
                    fast_path.add_blackout(now, float("inf"))
        self.state_log.append((now, rate, self.cc.cwnd_bytes))
        if self.sim.telemetry is not None:
            from repro.telemetry.events import CC_STATE

            self.sim.telemetry.emit(
                CC_STATE, controller=self.cc.name,
                family=self.family,
                rate_bps=round(rate, 6) if rate is not None else -1.0,
                cwnd_bytes=round(self.cc.cwnd_bytes, 6),
                jitter=(round(report.jitter_sample, 9)
                        if report.jitter_sample is not None else -1.0))
