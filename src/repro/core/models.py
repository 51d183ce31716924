"""Section IV flow models: synthesizing realistic streaming traffic.

The paper sketches how to simulate a 2002 commercial streaming flow:

    "...select an RTT based on Figure 1. Then, we would select an
    encoding rate and clip length from one of the data sets in Table 1.
    We would select packet sizes from distributions based on Figures 6
    and 7 and generate packets at intervals based on distributions from
    Figures 8 and 9. MediaPlayer packets should include IP
    fragmentation rates based on Figure 5. RealPlayer data rates for
    the first 20 seconds (for low data rate clips) to 40 seconds (for
    high data rate clips) should be higher than the encoded rate based
    on Figure 11."

These classes implement that recipe directly — no event-driven
simulator required — producing per-packet schedules a network simulator
(ns-2 then, anything now) can replay as an unresponsive UDP source.
The numeric calibrations are shared with the in-simulator server models
so fitted and generated flows agree.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import units
from repro.errors import MediaError
from repro.media.clip import PlayerFamily
from repro.servers.pacing import (
    REAL_INTERARRIVAL_SHAPE,
    draw_wms_packetization,
    real_mean_packet_bytes,
    real_packet_bytes,
)
from repro.servers.realserver import buffering_ratio, burst_duration


@dataclass(frozen=True)
class PacketEvent:
    """One wire packet of a synthetic flow."""

    time: float
    ip_bytes: int
    group_sequence: int
    is_trailing_fragment: bool
    more_fragments: bool
    fragment_offset: int  # 8-byte units, as on the wire

    @property
    def wire_bytes(self) -> int:
        return units.wire_frame_bytes(self.ip_bytes)

    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.fragment_offset > 0


# ----------------------------------------------------------------------
# Network-condition sampling (Figures 1 and 2)
# ----------------------------------------------------------------------

#: Piecewise-linear inverse CDF of the paper's Figure 1 RTTs:
#: median 40 ms, maximum 160 ms.
_RTT_QUANTILES: Tuple[Tuple[float, float], ...] = (
    (0.00, 0.010),
    (0.25, 0.030),
    (0.50, 0.040),
    (0.75, 0.055),
    (0.90, 0.095),
    (1.00, 0.160),
)

#: Figure 2's hop counts: "most of the servers were between 15 and 20
#: hops away", full range roughly 12-25.
_HOP_BUCKETS: Tuple[Tuple[Tuple[int, int], float], ...] = (
    ((12, 14), 0.15),
    ((15, 20), 0.70),
    ((21, 25), 0.15),
)


def sample_rtt(rng: random.Random) -> float:
    """Draw an RTT (seconds) from Figure 1's empirical distribution."""
    u = rng.random()
    for (q_low, v_low), (q_high, v_high) in zip(_RTT_QUANTILES,
                                                _RTT_QUANTILES[1:]):
        if u <= q_high:
            span = q_high - q_low
            weight = (u - q_low) / span if span else 0.0
            return v_low + weight * (v_high - v_low)
    return _RTT_QUANTILES[-1][1]


def sample_hop_count(rng: random.Random) -> int:
    """Draw a hop count from Figure 2's empirical distribution."""
    u = rng.random()
    cumulative = 0.0
    for (low, high), weight in _HOP_BUCKETS:
        cumulative += weight
        if u <= cumulative:
            return rng.randint(low, high)
    return rng.randint(*_HOP_BUCKETS[-1][0])


# ----------------------------------------------------------------------
# Flow models
# ----------------------------------------------------------------------
class MediaPlayerFlowModel:
    """Generate Windows-Media-like turbulence (CBR + fragmentation).

    Args:
        encoded_kbps: the clip's encoding rate (pick from Table 1).
        rng: random source (only the per-clip ADU size draws from it;
            the flow itself is CBR).
    """

    def __init__(self, encoded_kbps: float,
                 rng: Optional[random.Random] = None) -> None:
        if encoded_kbps <= 0:
            raise MediaError(f"rate must be positive: {encoded_kbps}")
        self.encoded_kbps = encoded_kbps
        self.adu_bytes, self.tick_interval = draw_wms_packetization(
            units.kbps(encoded_kbps), rng or random.Random(0))

    def group_payloads(self, duration: float) -> List[Tuple[float, int]]:
        """(send time, ADU payload bytes) for a clip of ``duration``."""
        # Integer byte budget: a fractional remainder would otherwise
        # produce a zero-byte tail payload and a non-terminating loop.
        total_bytes = int(round(units.bits_to_bytes(
            units.kbps(self.encoded_kbps) * duration)))
        payloads: List[Tuple[float, int]] = []
        sent = 0
        tick = 0
        while sent < total_bytes:
            payload = int(min(self.adu_bytes, total_bytes - sent))
            payloads.append((tick * self.tick_interval, payload))
            sent += payload
            tick += 1
        return payloads

    def packet_schedule(self, duration: float) -> List[PacketEvent]:
        """Expand ADUs into the on-wire fragment trains."""
        events: List[PacketEvent] = []
        chunk = units.FRAGMENT_PAYLOAD_BYTES
        for group, (time, payload) in enumerate(
                self.group_payloads(duration)):
            ip_payload = payload + units.UDP_HEADER_BYTES
            count = max(1, math.ceil(ip_payload / chunk))
            offset = 0
            remaining = ip_payload
            for index in range(count):
                this_payload = min(chunk, remaining)
                events.append(PacketEvent(
                    time=time,
                    ip_bytes=units.IPV4_HEADER_BYTES + this_payload,
                    group_sequence=group,
                    is_trailing_fragment=index > 0,
                    more_fragments=(count > 1 and index < count - 1),
                    fragment_offset=offset // 8))
                offset += this_payload
                remaining -= this_payload
        return events


class RealPlayerFlowModel:
    """Generate RealPlayer-like turbulence (VBR + buffering burst).

    Args:
        encoded_kbps: the clip's encoding rate.
        rng: random source for size/interval draws.
        burst_ratio / burst_seconds: override the Figure 11 defaults.
    """

    def __init__(self, encoded_kbps: float,
                 rng: Optional[random.Random] = None,
                 burst_ratio: Optional[float] = None,
                 burst_seconds: Optional[float] = None) -> None:
        if encoded_kbps <= 0:
            raise MediaError(f"rate must be positive: {encoded_kbps}")
        self.encoded_kbps = encoded_kbps
        self._rng = rng or random.Random(0)
        self.burst_ratio = (burst_ratio if burst_ratio is not None
                            else buffering_ratio(encoded_kbps))
        self.burst_seconds = (burst_seconds if burst_seconds is not None
                              else burst_duration(encoded_kbps))
        self.mean_packet_bytes = real_mean_packet_bytes(encoded_kbps)

    def packet_schedule(self, duration: float) -> List[PacketEvent]:
        """The full on-wire schedule for a clip of ``duration``.

        Total bytes are conserved (rate × duration); the burst phase
        simply front-loads them, so the generated flow ends early just
        like a measured RealPlayer stream.
        """
        total_bytes = int(round(units.bits_to_bytes(
            units.kbps(self.encoded_kbps) * duration)))
        events: List[PacketEvent] = []
        time = 0.0
        sent = 0
        group = 0
        rate_bps = units.kbps(self.encoded_kbps)
        while sent < total_bytes:
            size = real_packet_bytes(self._rng, self.mean_packet_bytes)
            payload = min(size, int(total_bytes - sent))
            events.append(PacketEvent(
                time=time,
                ip_bytes=(units.IPV4_HEADER_BYTES + units.UDP_HEADER_BYTES
                          + payload),
                group_sequence=group,
                is_trailing_fragment=False,
                more_fragments=False,
                fragment_offset=0))
            sent += payload
            group += 1
            ratio = (self.burst_ratio if time < self.burst_seconds else 1.0)
            mean_gap = payload * 8.0 / (rate_bps * ratio)
            shape = REAL_INTERARRIVAL_SHAPE
            time += self._rng.gammavariate(shape, mean_gap / shape)
        return events


def flow_model_for(family: PlayerFamily, encoded_kbps: float,
                   rng: Optional[random.Random] = None):
    """The Section IV model class for a player family."""
    if family == PlayerFamily.WMP:
        return MediaPlayerFlowModel(encoded_kbps, rng)
    return RealPlayerFlowModel(encoded_kbps, rng)
