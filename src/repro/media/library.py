"""Clip libraries: the containers Table 1's datasets are built from.

The paper organizes clips as *sets*: one content item (a sports clip, a
movie trailer...) encoded for both players at matched advertised rates,
in a low band (~56 Kbps modem), a high band (~300 Kbps broadband), and
— for one set — a very high band (~600 Kbps).  :class:`ClipPair` holds
the Real/WMP pair for one band; :class:`ClipSet` one content item's
pairs; :class:`ClipLibrary` the whole study.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MediaError
from repro.media.clip import Clip, PlayerFamily


class RateBand(Enum):
    """The advertised-rate bands of the paper's clip selection."""

    LOW = "low"            # ~56 Kbps ("l" rows of Table 1)
    HIGH = "high"          # ~300 Kbps ("h" rows)
    VERY_HIGH = "very_high"  # ~600 Kbps ("v" row, data set 6 only)

    @property
    def short(self) -> str:
        return {"low": "l", "high": "h", "very_high": "v"}[self.value]


@dataclass(frozen=True)
class ClipPair:
    """The same content in RealPlayer and MediaPlayer encodings."""

    band: RateBand
    real: Clip
    wmp: Clip

    def __post_init__(self) -> None:
        if self.real.family != PlayerFamily.REAL:
            raise MediaError("ClipPair.real must be a RealPlayer encoding")
        if self.wmp.family != PlayerFamily.WMP:
            raise MediaError("ClipPair.wmp must be a MediaPlayer encoding")
        if abs(self.real.duration - self.wmp.duration) > 1e-9:
            raise MediaError(
                "paired clips must share content length "
                f"({self.real.duration} vs {self.wmp.duration})")

    def clips(self) -> Tuple[Clip, Clip]:
        return (self.real, self.wmp)

    def by_family(self, family: PlayerFamily) -> Clip:
        return self.real if family == PlayerFamily.REAL else self.wmp


@dataclass
class ClipSet:
    """One content item with its per-band pairs (a Table 1 row group)."""

    number: int
    genre: str
    duration: float
    pairs: Dict[RateBand, ClipPair] = field(default_factory=dict)

    def add_pair(self, pair: ClipPair) -> None:
        if pair.band in self.pairs:
            raise MediaError(
                f"set {self.number} already has a {pair.band.value} pair")
        self.pairs[pair.band] = pair

    def pair(self, band: RateBand) -> ClipPair:
        try:
            return self.pairs[band]
        except KeyError as exc:
            raise MediaError(
                f"set {self.number} has no {band.value} pair") from exc

    @property
    def bands(self) -> List[RateBand]:
        return [band for band in RateBand if band in self.pairs]

    def clips(self) -> List[Clip]:
        result: List[Clip] = []
        for band in self.bands:
            result.extend(self.pairs[band].clips())
        return result


class ClipLibrary:
    """All clip sets of a study, with the iteration patterns the
    experiment sweeps need."""

    def __init__(self) -> None:
        self._sets: Dict[int, ClipSet] = {}

    def add_set(self, clip_set: ClipSet) -> None:
        if clip_set.number in self._sets:
            raise MediaError(f"duplicate set number {clip_set.number}")
        self._sets[clip_set.number] = clip_set

    def get_set(self, number: int) -> ClipSet:
        try:
            return self._sets[number]
        except KeyError as exc:
            raise MediaError(f"no clip set {number}") from exc

    def only_set(self, number: int) -> "ClipLibrary":
        """A library holding just set ``number`` of this one.

        Raises:
            MediaError: if there is no such set.
        """
        library = ClipLibrary()
        library.add_set(self.get_set(number))
        return library

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[ClipSet]:
        return iter(sorted(self._sets.values(), key=lambda s: s.number))

    def all_clips(self, family: Optional[PlayerFamily] = None) -> List[Clip]:
        """Every clip in the library, optionally for one player only."""
        clips: List[Clip] = []
        for clip_set in self:
            for band in clip_set.bands:
                pair = clip_set.pairs[band]
                if family is None:
                    clips.extend(pair.clips())
                else:
                    clips.append(pair.by_family(family))
        return clips

    def all_pairs(self) -> List[Tuple[ClipSet, ClipPair]]:
        """Every (set, pair) combination — the unit of one experiment run."""
        return [(clip_set, clip_set.pairs[band])
                for clip_set in self for band in clip_set.bands]

    @property
    def clip_count(self) -> int:
        return len(self.all_clips())

    def fingerprint(self) -> str:
        """A stable digest of the library's experimental content.

        Two libraries that would drive identical study sweeps (same
        sets, bands, titles, rates, durations) share a fingerprint;
        any content difference changes it.  The study cache keys on
        this so a custom library can never alias a memoized default
        Table 1 sweep.
        """
        digest = hashlib.sha256()
        for clip_set in self:
            digest.update(f"set:{clip_set.number}:{clip_set.genre}:"
                          f"{clip_set.duration!r};".encode())
            for band in clip_set.bands:
                for clip in clip_set.pairs[band].clips():
                    digest.update(
                        f"{band.value}:{clip.family.name}:{clip.title}:"
                        f"{clip.encoded_kbps!r}:"
                        f"{clip.encoding.advertised_kbps!r}:"
                        f"{clip.duration!r};".encode())
        return digest.hexdigest()
