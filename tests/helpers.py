"""Shared test helpers: synthetic capture records, call counting."""

import importlib
import sys

from repro.capture.trace import PacketRecord
from repro.netsim.addressing import IPAddress

SERVER = IPAddress.parse("64.14.118.1")
CLIENT = IPAddress.parse("130.215.0.1")


def make_record(number=1, time=0.0, direction="rx", src=SERVER, dst=CLIENT,
                protocol="UDP", ip_bytes=1000, ttl=110, identification=1,
                more_fragments=False, fragment_offset=0, src_port=5005,
                dst_port=7000, payload_kind="media", adu_sequence=None,
                datagram_id=0):
    """Build a PacketRecord with sensible defaults for tests."""
    is_fragment = more_fragments or fragment_offset > 0
    is_trailing = fragment_offset > 0
    if is_trailing:
        src_port = dst_port = None
    return PacketRecord(
        number=number, time=time, direction=direction, src=src, dst=dst,
        protocol=protocol, ip_bytes=ip_bytes, wire_bytes=ip_bytes + 14,
        ttl=ttl, identification=identification, is_fragment=is_fragment,
        is_trailing_fragment=is_trailing, more_fragments=more_fragments,
        fragment_offset=fragment_offset, src_port=src_port,
        dst_port=dst_port, payload_kind=payload_kind,
        adu_sequence=adu_sequence, datagram_id=datagram_id)


def make_fragment_train(start_number=1, start_time=0.0, identification=1,
                        fragment_count=3, src=SERVER, dst=CLIENT,
                        gap=0.0012):
    """Build a group: first fragment (UDP visible) + trailing fragments."""
    records = []
    offset_units = 0
    for index in range(fragment_count):
        last = index == fragment_count - 1
        payload = 1480 if not last else 888
        records.append(make_record(
            number=start_number + index, time=start_time + index * gap,
            src=src, dst=dst, ip_bytes=20 + payload,
            identification=identification, more_fragments=not last,
            fragment_offset=offset_units))
        offset_units += payload // 8
    return records


def count_calls(monkeypatch, module_name, name):
    """Count calls of ``module_name.name`` from anywhere in ``repro``.

    Wraps the function in its own module and in every ``repro`` module
    that imported it by name; returns the list each call appends to.
    """
    original = getattr(importlib.import_module(module_name), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for holder_name, holder in list(sys.modules.items()):
        if (holder_name.split(".")[0] == "repro"
                and getattr(holder, name, None) is original):
            monkeypatch.setattr(holder, name, counted)
    return calls
