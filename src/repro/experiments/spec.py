"""One declared study configuration: :class:`RunSpec`.

Every study is the paper's Section II.D recipe — a clip library swept
under seeded network conditions — plus optional variations: a fault
schedule, a congestion controller or the ABR ladder, loss repair, the
flow-level fast path, and an online streaming summary.  A frozen
``RunSpec`` names that whole bundle once, so the runner, the worker
pool, both cache layers, the differential oracle, and the CLI all pass
one value instead of ten parameters.

The spec also owns the one **compatibility table**: every pair of
features that cannot run together, with the single reason string that
the pair runner, the study runner, and the CLI all report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.datasets import build_table1_library
from repro.media.library import ClipLibrary
from repro.telemetry.spans import SPANS_REFUSAL

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cc.abr import AbrConfig
    from repro.cc.base import CcConfig
    from repro.faults.scenario import FaultScenario
    from repro.netsim.flowlevel import FlowLevelConfig
    from repro.repair.base import RepairConfig
    from repro.telemetry.core import Telemetry
    from repro.validate.checker import RunValidator

#: Feature pairs that refuse to run together, each with its one reason.
#: Feature names: ``cc``, ``abr``, ``fast_path`` (set when configured),
#: ``repair`` (set when armed, i.e. not the null config), ``validate``
#: (a validator attached), ``jobs>1`` (a worker pool asked for: any
#: ``jobs`` but 1, since 0 means one per CPU), and ``spans``
#: (span tracing on the telemetry facade).  Checked in this order.
COMPATIBILITY: Tuple[Tuple[Tuple[str, str], str], ...] = (
    (("cc", "abr"),
     "cc and abr are mutually exclusive transports; pick one"),
    (("fast_path", "abr"),
     "fast_path and abr are mutually exclusive: the ABR request loop "
     "keys on per-segment timing the analytic model does not reproduce"),
    (("fast_path", "repair"),
     "fast_path requires a null repair config: loss repair only matters "
     "on lossy paths, which the fast path refuses anyway"),
    (("repair", "abr"),
     "repair and abr are mutually exclusive: the ABR transport retries "
     "lost segments itself and never arms loss repair"),
    (("validate", "jobs>1"),
     "validation requires sequential execution (jobs=1): the validator "
     "inspects live simulation objects and cannot cross a "
     "worker-process boundary"),
    (("fast_path", "spans"), SPANS_REFUSAL),
)


def repair_armed(repair: Optional["RepairConfig"]) -> bool:
    """True when ``repair`` arms at least one repair mechanism."""
    return repair is not None and not repair.is_null


def check_compatible(*, cc: Optional["CcConfig"] = None,
                     abr: Optional["AbrConfig"] = None,
                     repair: Optional["RepairConfig"] = None,
                     fast_path: Optional["FlowLevelConfig"] = None,
                     validate: Optional["RunValidator"] = None,
                     jobs: int = 1,
                     telemetry: Optional["Telemetry"] = None) -> None:
    """Refuse the first :data:`COMPATIBILITY` pair these features hit.

    Raises:
        ExperimentError: with the table's reason string.
    """
    active = {name for name, on in (
        ("cc", cc is not None),
        ("abr", abr is not None),
        ("fast_path", fast_path is not None),
        ("repair", repair_armed(repair)),
        ("validate", validate is not None),
        ("jobs>1", jobs != 1),
        ("spans", telemetry is not None and telemetry.spans is not None),
    ) if on}
    for pair, reason in COMPATIBILITY:
        if active.issuperset(pair):
            raise ExperimentError(reason)


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines a study's results.

    Attributes:
        library: the clip library to sweep; ``None`` means the Table 1
            library at ``duration_scale`` (and fingerprints as exactly
            that library).
        seed: master seed; pair run ``i`` uses ``seed + i``.
        duration_scale: clip-duration scale of the default library.
        loss_probability: middle-link loss for congestion studies.
        scenario: fault schedule applied to every pair run.
        cc: congestion-control config (2002 servers under a controller).
        abr: ABR ladder config (replaces the 2002 servers).
        repair: loss-repair config.
        fast_path: flow-level fast-path config.
        stream: fold the sweep into an online streaming summary.
    """

    library: Optional[ClipLibrary] = None
    seed: int = 2002
    duration_scale: float = 1.0
    loss_probability: float = 0.0
    scenario: Optional["FaultScenario"] = None
    cc: Optional["CcConfig"] = None
    abr: Optional["AbrConfig"] = None
    repair: Optional["RepairConfig"] = None
    fast_path: Optional["FlowLevelConfig"] = None
    stream: bool = False

    def clip_library(self) -> ClipLibrary:
        """The library this spec sweeps (built when ``library`` is None)."""
        if self.library is not None:
            return self.library
        return build_table1_library(duration_scale=self.duration_scale)

    def check(self, *, validate: Optional["RunValidator"] = None,
              jobs: int = 1,
              telemetry: Optional["Telemetry"] = None) -> None:
        """:func:`check_compatible` for this spec under one execution."""
        check_compatible(cc=self.cc, abr=self.abr, repair=self.repair,
                         fast_path=self.fast_path, validate=validate,
                         jobs=jobs, telemetry=telemetry)

    def describe(self) -> Dict[str, object]:
        """The spec as plain data: scalars plus component fingerprints
        (``None`` for an absent component).  The disk cache writes this
        beside each stored sweep; ``repro cache info`` reads it back."""
        def fingerprint(component) -> Optional[str]:
            return component.fingerprint() if component is not None else None

        return {"library": self.clip_library().fingerprint(),
                "seed": self.seed,
                "duration_scale": self.duration_scale,
                "loss_probability": self.loss_probability,
                "scenario": fingerprint(self.scenario),
                "cc": fingerprint(self.cc),
                "abr": fingerprint(self.abr),
                "repair": fingerprint(self.repair),
                "fast_path": fingerprint(self.fast_path),
                "stream": self.stream}

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON of :meth:`describe`."""
        material = json.dumps(self.describe(), sort_keys=True,
                              separators=(",", ":"))
        return hashlib.sha256(material.encode()).hexdigest()
