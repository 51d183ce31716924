"""Golden-trace regression suite: canonical runs with pinned digests.

The differential oracle (:mod:`repro.validate.differential`) proves the
execution paths agree with *each other*; the goldens pin them to
*history*.  Each golden scenario is a small, fully-seeded study — one
clip set, short clips — whose complete observable surface (trace CSV,
tracker logs, run metadata, telemetry summary, event stream, span
forest) is digested and checked into ``tests/golden/``.  Any commit
that shifts a single packet, event, or span in these runs fails the
regression test and must either fix the regression or consciously
re-pin via ``python scripts/update_goldens.py``.

Most scenarios study one clip set under one opt-in feature (faults,
congestion control, ABR, repair, the fast path).  Four more sweep the
whole Table 1 library, packet-level, on the fast path in both its
modes, and under burst loss with repair armed, because every figure
draws on all thirteen pairs: their
documents also pin each paper artifact (``figure[<id>]``, a digest of
its ``render()`` plus ``to_csv()``), so a change to the analysis shows
even when every packet stays put.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.cc.abr import AbrConfig
from repro.cc.base import CcConfig
from repro.experiments.datasets import build_table1_library
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import run_spec
from repro.experiments.spec import RunSpec
from repro.faults.scenario import build_scenario
from repro.netsim.flowlevel import FlowLevelConfig
from repro.repair.base import RepairConfig
from repro.validate.differential import (
    _digest,
    _fresh_telemetry,
    diff_surfaces,
    study_surface,
)

#: Schema marker inside every golden file; bump on format changes so a
#: stale checkout fails loudly instead of diffing apples to oranges.
#: Schema 2: goldens run with an online streaming summary and pin its
#: canonical JSON as the ``streaming.summary`` surface; the telemetry
#: summary surface also carries the ring's dropped-event count.
#: Schema 3: scenarios gain a ``repair`` axis (loss-repair stack armed
#: with the default :class:`~repro.repair.RepairConfig`).
#: Schema 4: scenarios gain a ``fast_path`` axis (flow-level analytic
#: delivery, strict mode); fast-path scenarios pin a span-free
#: telemetry surface because the director refuses span tracing.
GOLDEN_SCHEMA = 4


@dataclass(frozen=True)
class GoldenScenario:
    """One pinned canonical run."""

    name: str
    description: str
    seed: int
    set_number: Optional[int]  # one clip set, or None for all 13 pairs
    duration_scale: float
    fault: Optional[str] = None  # fault-scenario name, or None
    cc: Optional[str] = None  # congestion-controller kind, or None
    abr: bool = False  # run on the ABR segment-ladder transport
    repair: bool = False  # arm the default loss-repair stack
    fast_path: bool = False  # deliver via the flow-level fast path
    #: Strict or chained fast path; a document records chained as
    #: ``"fast_path": "chained"`` (``true`` means strict, as in schema 4).
    strict: bool = True


GOLDEN_SCENARIOS: Dict[str, GoldenScenario] = {
    scenario.name: scenario for scenario in (
        GoldenScenario(
            name="baseline_pair",
            description="One clip set, both servers, clean network — "
                        "the paper's base methodology in miniature",
            seed=424, set_number=3, duration_scale=0.04),
        GoldenScenario(
            name="fault_linkflap",
            description="The same set with the robustness stack armed "
                        "and the access link flapping mid-run",
            seed=424, set_number=3, duration_scale=0.12,
            fault="link-flap"),
        GoldenScenario(
            name="cc_aimd",
            description="The baseline set under the AIMD congestion "
                        "controller with burst loss driving backoff",
            seed=424, set_number=3, duration_scale=0.12,
            fault="burst-loss", cc="aimd"),
        GoldenScenario(
            name="abr_baseline",
            description="The baseline set on the ABR segment-ladder "
                        "transport, clean network",
            seed=424, set_number=3, duration_scale=0.12, abr=True),
        GoldenScenario(
            name="repair_baseline",
            description="The baseline set with the loss-repair stack "
                        "armed on a clean network (parity flows, "
                        "nothing to repair)",
            seed=424, set_number=3, duration_scale=0.04, repair=True),
        GoldenScenario(
            name="fastpath_baseline",
            description="The baseline set delivered by the flow-level "
                        "fast path in strict mode — pins the analytic "
                        "schedule itself to history",
            seed=424, set_number=3, duration_scale=0.04,
            fast_path=True),
        GoldenScenario(
            name="fault_burstloss_repair",
            description="Burst loss with repair armed — parity decode "
                        "and the NACK/retransmit loop actually firing",
            seed=424, set_number=3, duration_scale=0.12,
            fault="burst-loss", repair=True),
        GoldenScenario(
            name="table1_packet",
            description="All 13 Table 1 pairs, packet-level, plus every "
                        "paper artifact rendered from them",
            seed=424, set_number=None, duration_scale=0.04),
        GoldenScenario(
            name="table1_fastpath",
            description="All 13 Table 1 pairs on the strict fast path, "
                        "plus every paper artifact rendered from them",
            seed=424, set_number=None, duration_scale=0.04,
            fast_path=True),
        GoldenScenario(
            name="table1_chained",
            description="All 13 Table 1 pairs on the fast path in its "
                        "default chained mode, plus every paper artifact "
                        "rendered from them",
            seed=424, set_number=None, duration_scale=0.04,
            fast_path=True, strict=False),
        GoldenScenario(
            name="table1_burstloss_repair",
            description="All 13 Table 1 pairs under burst loss with the "
                        "loss-repair stack armed, plus every paper "
                        "artifact rendered from them",
            seed=424, set_number=None, duration_scale=0.04,
            fault="burst-loss", repair=True),
    )
}


def default_golden_dir() -> Path:
    """``tests/golden/`` of this checkout (repo-layout resolution)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(name: str, directory: Optional[Path] = None) -> Path:
    directory = directory if directory is not None else default_golden_dir()
    return directory / f"{name}.json"


def _golden_spec(scenario: GoldenScenario) -> RunSpec:
    """The streamed study a golden scenario pins."""
    library = build_table1_library(duration_scale=scenario.duration_scale)
    if scenario.set_number is not None:
        library = library.only_set(scenario.set_number)
    return RunSpec(
        library=library, seed=scenario.seed,
        duration_scale=scenario.duration_scale,
        scenario=(build_scenario(scenario.fault, scenario.seed)
                  if scenario.fault is not None else None),
        cc=CcConfig(kind=scenario.cc) if scenario.cc is not None else None,
        abr=AbrConfig() if scenario.abr else None,
        repair=RepairConfig() if scenario.repair else None,
        fast_path=(FlowLevelConfig(strict=scenario.strict)
                   if scenario.fast_path else None),
        stream=True)


def compute_golden(scenario: GoldenScenario) -> Dict[str, object]:
    """Run the scenario and return its golden document.

    The document carries the parameters alongside the digests so a
    drifted definition (changed seed, different set) is distinguishable
    from a behavioral regression.  Fast-path scenarios pin a span-free
    telemetry surface (see :func:`_fresh_telemetry`).  Whole-library
    scenarios also pin every paper artifact, as ``figure[<id>]``.
    """
    spec = _golden_spec(scenario)
    telemetry = _fresh_telemetry(spec)
    study = run_spec(spec, telemetry=telemetry, jobs=1)
    digests = study_surface(study, telemetry)
    if scenario.set_number is None:
        for figure_id, generate in ALL_FIGURES.items():
            result = generate(study)
            digests[f"figure[{figure_id}]"] = _digest(
                result.render() + result.to_csv())
    return {
        "schema": GOLDEN_SCHEMA,
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": scenario.seed,
        "set_number": scenario.set_number,
        "duration_scale": scenario.duration_scale,
        "fault": scenario.fault,
        "cc": scenario.cc,
        "abr": scenario.abr,
        "repair": scenario.repair,
        "fast_path": scenario.fast_path if scenario.strict else "chained",
        "digests": digests,
    }


def write_golden(document: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")


def load_golden(path: Path) -> Dict[str, object]:
    return json.loads(path.read_text())


#: The document fields that define a scenario; a change in any of
#: them is drift in the definition, not a behavioral regression.
_HEADER_FIELDS = ("schema", "scenario", "seed", "set_number",
                  "duration_scale", "fault", "cc", "abr", "repair",
                  "fast_path")


def compare_golden(expected: Dict[str, object],
                   actual: Dict[str, object]) -> List[str]:
    """Every way ``actual`` disagrees with the checked-in ``expected``:
    the scenario's parameters first, then its surface digests.

    Returns an empty list when the run still matches its golden.  A
    non-empty result means either a regression or an intentional
    behavior change; the refresher workflow is::

        python scripts/update_goldens.py   # inspect the diff, commit
    """
    def header(document: Dict[str, object]) -> Dict[str, object]:
        return {name: document.get(name) for name in _HEADER_FIELDS}

    return (diff_surfaces(header(expected), header(actual), "golden")
            + diff_surfaces(expected.get("digests", {}),
                            actual.get("digests", {}), "golden"))


def check_golden(scenario: GoldenScenario,
                 directory: Optional[Path] = None) -> List[str]:
    """Recompute one scenario and diff it against its checked-in file.

    Returns the mismatch list; a missing golden file is reported as a
    single mismatch pointing at the refresher script.
    """
    path = golden_path(scenario.name, directory)
    if not path.is_file():
        return [f"golden file {path} missing — run "
                "`python scripts/update_goldens.py` and commit it"]
    return compare_golden(load_golden(path), compute_golden(scenario))
