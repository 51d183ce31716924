"""`repro watch`: anomaly detection over streamed per-run records.

A streamed study can emit one JSON line per pair run (``repro study
--stream-jsonl PATH``): the run's turbulence roll-up — delivered rate,
rebuffer ratio, loss rate — as produced by the online fold.  This
module is the consumer: it replays those records through rolling
per-metric baselines and flags runs whose value spikes beyond a
z-score threshold, the way a fleet health watcher would page on a
regression mid-sweep.

The detector is deliberately boring and deterministic:

* a bounded window (default 8 runs) of *prior* values per metric;
* a minimum baseline population (default 3) before any run can trip —
  the first runs of a study are calibration, not anomalies;
* a z-threshold (default 3.0) against the window's population std,
  **and** an absolute ``min_delta`` floor so a near-constant baseline
  (std → 0) cannot page on numeric dust;
* direction awareness: rebuffer ratio and loss rate alarm on spikes
  *up*, delivered rate on drops *down*.

Exit-code contract (the CLI's): 1 when any rule trips or the record
stream is empty, 2 on bad arguments, 0 on a clean watch — so CI can
gate on a live study's health with one pipeline step.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import AnalysisError

#: Metrics a watch rule may target: per-run turbulence roll-up fields
#: that are rates or counts comparable across runs.
WATCHABLE_METRICS: Tuple[str, ...] = (
    "rebuffer_ratio", "loss_rate", "delivered_rate_kbps",
    "rebuffer_seconds", "queue_drops", "lost_packets", "faults_fired",
    "recovery_count",
)

#: Metrics where *lower* is the anomaly (everything else alarms high).
_LOW_IS_BAD = frozenset({"delivered_rate_kbps"})

DEFAULT_METRICS: Tuple[str, ...] = ("rebuffer_ratio", "loss_rate")
DEFAULT_Z_THRESHOLD = 3.0
DEFAULT_WINDOW = 8
DEFAULT_MIN_BASELINE = 3
DEFAULT_MIN_DELTA = 0.02


@dataclass(frozen=True)
class WatchRule:
    """One metric's alarm condition against its rolling baseline."""

    metric: str
    z_threshold: float = DEFAULT_Z_THRESHOLD
    window: int = DEFAULT_WINDOW
    min_baseline: int = DEFAULT_MIN_BASELINE
    min_delta: float = DEFAULT_MIN_DELTA

    def __post_init__(self) -> None:
        if self.metric not in WATCHABLE_METRICS:
            raise AnalysisError(
                f"unknown watch metric {self.metric!r}; choose from "
                f"{', '.join(WATCHABLE_METRICS)}")
        if not (math.isfinite(self.z_threshold) and self.z_threshold > 0):
            raise AnalysisError(
                f"z-threshold must be > 0 and finite, got {self.z_threshold}")
        if self.window < 2:
            raise AnalysisError(f"window must be >= 2, got {self.window}")
        if self.min_baseline < 2:
            raise AnalysisError(
                f"min-baseline must be >= 2, got {self.min_baseline}")
        if self.min_baseline > self.window:
            # The rolling baseline holds at most ``window`` values, so
            # a larger minimum would silently disable the rule.
            raise AnalysisError(
                f"min-baseline ({self.min_baseline}) must be <= window "
                f"({self.window})")
        if not (math.isfinite(self.min_delta) and self.min_delta >= 0):
            raise AnalysisError(
                f"min-delta must be >= 0 and finite, got {self.min_delta}")

    @property
    def direction(self) -> str:
        """``high`` (spike up is bad) or ``low`` (drop down is bad)."""
        return "low" if self.metric in _LOW_IS_BAD else "high"


@dataclass(frozen=True)
class WatchAlert:
    """One tripped rule: which run, which metric, how far out."""

    metric: str
    index: int
    label: str
    value: float
    baseline_mean: float
    baseline_std: float
    z: float
    direction: str

    def render(self) -> str:
        arrow = "^" if self.direction == "high" else "v"
        return (f"ALERT {self.metric} run {self.index} ({self.label}): "
                f"value {self.value:.6g} {arrow} baseline "
                f"{self.baseline_mean:.6g} +/- {self.baseline_std:.6g} "
                f"(z={self.z:.2f})")


@dataclass
class WatchReport:
    """Everything one watch pass over a record stream produced."""

    alerts: List[WatchAlert]
    records_checked: int = 0

    @property
    def tripped(self) -> bool:
        return bool(self.alerts)


class _RollingBaseline:
    """Bounded window of prior values with population mean/std."""

    __slots__ = ("values",)

    def __init__(self, window: int) -> None:
        # No deque holds more than sys.maxsize values: clamp a larger
        # window to it.
        self.values: Deque[float] = deque(maxlen=min(window, sys.maxsize))

    def observe(self, value: float) -> None:
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def stats(self) -> Tuple[float, float]:
        count = len(self.values)
        mean = sum(self.values) / count
        variance = sum((v - mean) ** 2 for v in self.values) / count
        return mean, math.sqrt(variance)


def watch_records(records: Iterable[Dict[str, object]],
                  rules: Iterable[WatchRule]) -> WatchReport:
    """Replay per-run records through every rule's rolling baseline.

    Each record is one run's roll-up dict (``repro study
    --stream-jsonl`` lines, or :meth:`TurbulenceRollup.as_dict` plus
    ``index``/``label``).  A record missing a rule's metric simply
    does not feed that rule.  Every value — anomalous or not — joins
    the baseline after its check, so a sustained shift alarms once and
    then becomes the new normal, which is the rolling-baseline
    contract.
    """
    rules = list(rules)
    baselines: Dict[str, _RollingBaseline] = {
        rule.metric: _RollingBaseline(rule.window) for rule in rules}
    alerts: List[WatchAlert] = []
    checked = 0
    for position, record in enumerate(records):
        checked += 1
        index = int(record.get("index", position))
        label = str(record.get("label", f"run{index}"))
        for rule in rules:
            raw = record.get(rule.metric)
            if raw is None:
                continue
            value = float(raw)
            baseline = baselines[rule.metric]
            if len(baseline) >= rule.min_baseline:
                mean, std = baseline.stats()
                delta = (value - mean if rule.direction == "high"
                         else mean - value)
                z = delta / std if std > 0 else math.inf
                if delta > rule.min_delta and z > rule.z_threshold:
                    alerts.append(WatchAlert(
                        metric=rule.metric, index=index, label=label,
                        value=value, baseline_mean=mean, baseline_std=std,
                        z=(z if math.isfinite(z) else math.inf),
                        direction=rule.direction))
            baseline.observe(value)
    return WatchReport(alerts=alerts, records_checked=checked)


def load_records(path: str) -> List[Dict[str, object]]:
    """Parse a stream-JSONL file into per-run record dicts.

    Raises:
        AnalysisError: on an unparseable line (a truncated tail line
            — the writer died mid-record — is reported, not ignored:
            a watcher that silently skips data is worse than none).
        OSError: when the file cannot be read (caller maps to exit 2).
    """
    records: List[Dict[str, object]] = []
    with open(path, "r") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise AnalysisError(
                    f"{path}:{number}: unparseable record: {exc}") from exc
            if not isinstance(record, dict):
                raise AnalysisError(
                    f"{path}:{number}: expected a JSON object per line")
            records.append(record)
    return records


def tail_records(path: str, idle_timeout: float = 5.0,
                 poll: float = 0.2) -> Iterable[Dict[str, object]]:
    """Yield records as a live writer appends them (``watch --follow``).

    Follows the file until no new *complete* line has arrived for
    ``idle_timeout`` seconds, so a watcher started alongside ``repro
    study --stream-jsonl`` sees every run and exits shortly after the
    study does.  A trailing partial line (the writer mid-record) is
    buffered, never parsed early.  ``idle_timeout=0`` degrades to a
    one-shot read-to-EOF, which is what deterministic tests use.
    """
    last_new = time.monotonic()
    partial = ""
    with open(path, "r") as handle:
        number = 0
        while True:
            line = handle.readline()
            if line.endswith("\n"):
                number += 1
                text = (partial + line).strip()
                partial = ""
                last_new = time.monotonic()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except ValueError as exc:
                    raise AnalysisError(
                        f"{path}:{number}: unparseable record: "
                        f"{exc}") from exc
                if not isinstance(record, dict):
                    raise AnalysisError(
                        f"{path}:{number}: expected a JSON object per "
                        f"line")
                yield record
            elif line:
                partial += line
                time.sleep(poll)
            else:
                if time.monotonic() - last_new >= idle_timeout:
                    return
                time.sleep(poll)


def build_rules(metrics: Iterable[str],
                z_threshold: float = DEFAULT_Z_THRESHOLD,
                window: int = DEFAULT_WINDOW,
                min_baseline: int = DEFAULT_MIN_BASELINE,
                min_delta: float = DEFAULT_MIN_DELTA) -> List[WatchRule]:
    """One rule per metric, sharing the scalar knobs (the CLI's shape)."""
    return [WatchRule(metric=metric, z_threshold=z_threshold,
                      window=window, min_baseline=min_baseline,
                      min_delta=min_delta)
            for metric in metrics]
