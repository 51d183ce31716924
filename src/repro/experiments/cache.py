"""Memoized study runs: an in-process layer over a persistent one.

A full Table 1 sweep takes tens of seconds of wall time; every figure
generator consumes the same :class:`~repro.experiments.runner.StudyResults`.
Two layers keep that cost paid once:

* **Memory** — a process-local dict, so a benchmark session (17
  benches) or a test module runs the sweep once per parameter set.
* **Disk** — pickled sweeps under ``~/.cache/repro-study/`` (override
  with ``REPRO_STUDY_CACHE_DIR``; ``XDG_CACHE_HOME`` is honored), so a
  *fresh process* — a new CLI invocation, a new CI step — skips the
  simulation entirely.  Set ``REPRO_STUDY_CACHE=0`` to bypass the disk
  layer, or run ``repro cache clear`` to drop it.

Both layers key on :meth:`~repro.experiments.spec.RunSpec.fingerprint`:
the study's scalars plus the fingerprints of its clip library (see
:meth:`~repro.media.library.ClipLibrary.fingerprint`) and of every
opt-in config, so a custom library, a fault scenario, or a different
transport can never alias a memoized default Table 1 study.  The disk
layer additionally keys on a digest of the ``repro`` package's own
sources — any code change invalidates every stored sweep, because a
cached result is only as trustworthy as the code that produced it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro._version import __version__
from repro.experiments.runner import StudyResults, run_spec
from repro.experiments.spec import RunSpec

#: Environment escape hatch: ``REPRO_STUDY_CACHE=0`` disables the disk
#: layer entirely (memory memoization stays on — it is free and has no
#: staleness to worry about).
CACHE_ENV = "REPRO_STUDY_CACHE"

#: Overrides the disk cache directory (tests point this at a tmpdir).
CACHE_DIR_ENV = "REPRO_STUDY_CACHE_DIR"

#: Memoized studies by :meth:`RunSpec.fingerprint`.
_CACHE: Dict[str, StudyResults] = {}

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """A digest of every ``repro`` source file, computed once.

    Part of the disk key: editing any module silently invalidates all
    stored sweeps, which is the only safe default for cached
    simulation output.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()[:16]
    return _code_fingerprint


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------

def disk_cache_enabled() -> bool:
    return os.environ.get(CACHE_ENV, "1") != "0"


def cache_dir() -> Path:
    """Where stored sweeps live (not created until something is stored)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-study"


def _entry_paths(key: str) -> Tuple[Path, Path]:
    """(pickle path, spec sidecar path) for one spec fingerprint."""
    material = f"{key}:{code_fingerprint()}"
    digest = hashlib.sha256(material.encode()).hexdigest()[:32]
    directory = cache_dir()
    return directory / f"{digest}.pkl", directory / f"{digest}.json"


def _disk_load(key: str) -> Optional[StudyResults]:
    """The stored sweep for ``key``, or None (missing/unreadable)."""
    pickle_path, _ = _entry_paths(key)
    try:
        with open(pickle_path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        return None
    except Exception:
        # A truncated or version-skewed entry is a miss, not an error;
        # the fresh run below overwrites it.
        return None
    if not (isinstance(payload, dict)
            and isinstance(payload.get("runs"), list)):
        # Only the shape _disk_store writes is a hit; anything else at
        # this path is a miss, overwritten like a truncated entry.
        return None
    return StudyResults(runs=payload["runs"],
                        streaming=payload.get("streaming"))


def _disk_store(spec: RunSpec, key: str, study: StudyResults) -> None:
    """Persist a sweep (runs plus any streaming summary — the telemetry
    facade holds live clock closures and is never cached), atomically,
    with the spec's description beside it for ``repro cache info``."""
    pickle_path, key_path = _entry_paths(key)
    try:
        pickle_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = pickle_path.with_suffix(".pkl.tmp")
        with open(tmp, "wb") as handle:
            pickle.dump({"runs": study.runs, "streaming": study.streaming},
                        handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, pickle_path)
        sidecar = dict(spec.describe(), code=code_fingerprint(),
                       version=__version__, runs=len(study))
        key_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2)
                            + "\n")
    except OSError:
        # A read-only or full cache directory must never fail a study.
        return


def clear_disk_cache() -> int:
    """Remove every stored sweep; returns how many entries went."""
    directory = cache_dir()
    removed = 0
    if not directory.is_dir():
        return 0
    for path in directory.iterdir():
        if path.suffix in (".pkl", ".json", ".tmp"):
            try:
                removed += path.suffix == ".pkl"
                path.unlink()
            except OSError:
                pass
    return removed


def disk_cache_entries() -> List[Dict[str, object]]:
    """The stored sweeps' key sidecars (for ``repro cache info``)."""
    directory = cache_dir()
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        entry["size_bytes"] = (
            path.with_suffix(".pkl").stat().st_size
            if path.with_suffix(".pkl").is_file() else 0)
        entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# The lookup everything goes through
# ----------------------------------------------------------------------

def load_or_run_study(spec: RunSpec, jobs: int = 1, progress=None,
                      ) -> Tuple[StudyResults, str]:
    """The study ``spec`` declares, plus where it came from.

    Args:
        spec: the study; with ``spec.stream`` the online summary is part
            of the cached payload, so a cache hit returns the identical
            bytes a fresh streamed run would produce.
        jobs: worker processes on a cache miss (results are identical
            for any value, so ``jobs`` is not part of the key).
        progress: optional heartbeat callback, forwarded to
            :func:`~repro.experiments.runner.run_spec` on a cache miss
            (hits emit no heartbeats — there are no runs to beat).

    Returns:
        ``(study, source)`` with source one of ``"memory"``, ``"disk"``
        or ``"run"`` — the CLI surfaces it so cache behavior is visible
        from the terminal.
    """
    key = spec.fingerprint()
    study = _CACHE.get(key)
    if study is not None:
        return study, "memory"
    if disk_cache_enabled():
        study = _disk_load(key)
        if study is not None:
            _CACHE[key] = study
            return study, "disk"
    study = run_spec(spec, jobs=jobs, progress=progress)
    _CACHE[key] = study
    if disk_cache_enabled():
        _disk_store(spec, key, study)
    return study, "run"


def get_study(spec: RunSpec, jobs: int = 1) -> StudyResults:
    """The study ``spec`` declares, running it on first request."""
    study, _ = load_or_run_study(spec, jobs=jobs)
    return study


def clear_cache() -> None:
    """Drop all memoized studies in this process (tests that need
    isolation).  Disk entries survive; see :func:`clear_disk_cache`."""
    _CACHE.clear()
