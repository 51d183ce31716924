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
simulator required — producing datagram schedules a network simulator
(ns-2 then, anything now) can replay as an unresponsive UDP source;
the IP layer's own rule (:func:`repro.units.fragment_payloads`) turns
each datagram into the packets on the wire.
The numeric calibrations are shared with the in-simulator server models
so fitted and generated flows agree.
"""

from __future__ import annotations

import random
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


class RealPlayerFlowModel:
    """Generate RealPlayer-like turbulence (VBR + buffering burst).

    Args:
        encoded_kbps: the clip's encoding rate.
        rng: random source for size/interval draws.
    """

    def __init__(self, encoded_kbps: float,
                 rng: Optional[random.Random] = None) -> None:
        if encoded_kbps <= 0:
            raise MediaError(f"rate must be positive: {encoded_kbps}")
        self.encoded_kbps = encoded_kbps
        self._rng = rng or random.Random(0)
        self.burst_ratio = buffering_ratio(encoded_kbps)
        self.burst_seconds = burst_duration(encoded_kbps)
        self.mean_packet_bytes = real_mean_packet_bytes(encoded_kbps)

    def group_payloads(self, duration: float) -> List[Tuple[float, int]]:
        """(send time, UDP payload bytes) for a clip of ``duration``.

        Total bytes are conserved (rate × duration); the burst phase
        simply front-loads them, so the generated flow ends early just
        like a measured RealPlayer stream.
        """
        total_bytes = int(round(units.bits_to_bytes(
            units.kbps(self.encoded_kbps) * duration)))
        payloads: List[Tuple[float, int]] = []
        time = 0.0
        sent = 0
        rate_bps = units.kbps(self.encoded_kbps)
        while sent < total_bytes:
            size = real_packet_bytes(self._rng, self.mean_packet_bytes)
            payload = min(size, int(total_bytes - sent))
            payloads.append((time, payload))
            sent += payload
            ratio = (self.burst_ratio if time < self.burst_seconds else 1.0)
            mean_gap = payload * 8.0 / (rate_bps * ratio)
            shape = REAL_INTERARRIVAL_SHAPE
            time += self._rng.gammavariate(shape, mean_gap / shape)
        return payloads


def flow_model_for(family: PlayerFamily, encoded_kbps: float,
                   rng: Optional[random.Random] = None):
    """The Section IV model class for a player family."""
    if family == PlayerFamily.WMP:
        return MediaPlayerFlowModel(encoded_kbps, rng)
    return RealPlayerFlowModel(encoded_kbps, rng)
