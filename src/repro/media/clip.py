"""Clip and encoding models.

A :class:`Clip` is one encoded video: a title, genre, duration, and a
:class:`ClipEncoding` that records both the *advertised* connection
rate (the label on the 2002 web page) and the *actual* encoded rate the
instrumented players observed.  The paper's Section III.B finding — for
the same advertised 300 Kbps, RealPlayer clips encode at ~284 Kbps and
MediaPlayer clips at ~323 Kbps — is preserved verbatim in the Table 1
dataset built on these classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro import units
from repro.errors import MediaError


class PlayerFamily(Enum):
    """The two commercial streaming products the paper compares."""

    REAL = "real"
    WMP = "wmp"

    @property
    def display_name(self) -> str:
        return {"real": "RealPlayer", "wmp": "Windows Media Player"}[self.value]


@dataclass(frozen=True)
class ClipEncoding:
    """One encoding of a clip for one player family."""

    family: PlayerFamily
    encoded_kbps: float
    advertised_kbps: float

    def __post_init__(self) -> None:
        # In bits per second too: 1e308 Kbps is a finite float, but the
        # rate the codec spends is not.
        for name, rate in (("encoded", self.encoded_kbps),
                           ("advertised", self.advertised_kbps)):
            if not (rate > 0 and math.isfinite(units.kbps(rate))):
                raise MediaError(f"{name} rate must be positive and finite, "
                                 f"got {rate:g} Kbps")

    @property
    def encoded_bps(self) -> float:
        """Encoded rate in bits/second."""
        return units.kbps(self.encoded_kbps)


@dataclass(frozen=True)
class Clip:
    """One playable video clip (a single encoding of one content item)."""

    title: str
    genre: str
    duration: float
    encoding: ClipEncoding

    def __post_init__(self) -> None:
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise MediaError(
                f"duration must be positive and finite, got {self.duration:g}")
        # The paper's clip-selection rule: lengths between 30 s and 5 min.
        # Enforced softly — the library warns at build time, not here —
        # because users may model clips outside the study's range.

    @property
    def family(self) -> PlayerFamily:
        return self.encoding.family

    @property
    def encoded_kbps(self) -> float:
        return self.encoding.encoded_kbps

    @property
    def encoded_bps(self) -> float:
        return self.encoding.encoded_bps

    @property
    def total_media_bytes(self) -> float:
        """Total encoded media bytes in the clip."""
        return units.bits_to_bytes(self.encoded_bps * self.duration)

    def label(self) -> str:
        """A figure-legend label like ``"Real Player (284K)"``."""
        prefix = ("Real Player" if self.family == PlayerFamily.REAL
                  else "Windows Media Player")
        return f"{prefix} ({self.encoded_kbps:.0f}K)"

    def __str__(self) -> str:
        return (f"{self.title} [{self.family.display_name}, "
                f"{self.encoded_kbps:.1f} Kbps, {self.duration:.0f}s]")
