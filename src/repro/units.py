"""Unit helpers: bit rates, byte sizes, and time quantities.

The paper reports rates in Kbits/sec, packet sizes in bytes, and times in
seconds and milliseconds.  Internally the library uses **bits per second**
for rates, **bytes** for sizes, and **float seconds** for times.  These
helpers keep conversions explicit at the boundaries.

The constants at the bottom encode the wire-format arithmetic of
IP-over-Ethernet that the paper's fragmentation analysis depends on: a
1514-byte maximum wire frame is a 1500-byte IP packet (the Windows
default MTU, per the paper's footnote 8) behind a 14-byte Ethernet
header, leaving 1480 bytes of IP payload per fragment and 1472 bytes of
UDP payload in an unfragmented datagram.
"""

from __future__ import annotations

from typing import List

KILO = 1000
MEGA = 1000 * 1000

ETHERNET_HEADER_BYTES = 14
IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
ICMP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20

#: Default Maximum Transfer Unit for Windows 2000 (paper, Section III.C).
DEFAULT_MTU_BYTES = 1500

#: Maximum Ethernet wire frame observed in the paper's traces (1500 + 14).
MAX_WIRE_FRAME_BYTES = DEFAULT_MTU_BYTES + ETHERNET_HEADER_BYTES

#: Largest UDP payload that fits in a single unfragmented IP packet.
MAX_UNFRAGMENTED_UDP_PAYLOAD = DEFAULT_MTU_BYTES - IPV4_HEADER_BYTES - UDP_HEADER_BYTES


def kbps(value: float) -> float:
    """Convert kilobits/second (the paper's unit) to bits/second."""
    return float(value) * KILO


def mbps(value: float) -> float:
    """Convert megabits/second to bits/second."""
    return float(value) * MEGA


def to_kbps(bits_per_second: float) -> float:
    """Convert bits/second back to kilobits/second for reporting."""
    return float(bits_per_second) / KILO


def bits_to_bytes(bits: float) -> float:
    """Convert a bit count to bytes (may be fractional)."""
    return float(bits) / 8.0


def bytes_to_bits(nbytes: float) -> float:
    """Convert a byte count to bits."""
    return float(nbytes) * 8.0


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return float(value) / 1000.0


def to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds for reporting."""
    return float(seconds) * 1000.0


def transmission_delay(nbytes: float, rate_bps: float) -> float:
    """Seconds to serialize ``nbytes`` onto a link of ``rate_bps``.

    Raises:
        ValueError: if the rate is not positive.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    return bytes_to_bits(nbytes) / float(rate_bps)


def wire_frame_bytes(ip_packet_bytes: int) -> int:
    """Total Ethernet wire bytes for an IP packet of the given size."""
    return int(ip_packet_bytes) + ETHERNET_HEADER_BYTES


def fragment_payloads(ip_payload: int,
                      mtu: int = DEFAULT_MTU_BYTES) -> List[int]:
    """IP payload bytes of each packet a datagram leaves as.

    One packet when ``ip_payload`` fits the MTU behind an IP header.
    Otherwise full fragments of the largest multiple of 8 bytes that
    fits (fragment offsets count 8-byte units), then the remainder.
    The one fragmentation rule: the IP layer sends by it and the
    Section IV traces are expanded by it.
    """
    max_payload = mtu - IPV4_HEADER_BYTES
    if ip_payload <= max_payload:
        return [ip_payload]
    chunk = max_payload // 8 * 8
    full, rest = divmod(ip_payload, chunk)
    sizes = [chunk] * full
    if rest:
        sizes.append(rest)
    return sizes
