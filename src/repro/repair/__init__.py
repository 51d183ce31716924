"""Frame-aware loss repair: FEC parity, NACK/retransmission, and
deadline-aware repair scheduling.

The 2002 players both repaired loss — the paper's *recovered packets*
statistic exists because of it — and this package gives the
reproduction that capability: XOR-parity FEC groups on the sender,
receiver-driven NACK -> retransmission with exponential backoff, and a
most-valuable-bytes-first scheduler that drops repairs whose decode
deadline has passed.  Strictly opt-in: a study with ``repair=None``
is byte-identical to one run before this package existed.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("RepairConfig",),
    ".fec": ("FecGroupEncoder", "FecGroupSpec", "FecMember", "recover_block",
             "xor_parity"),
    ".nack": ("NackManager", "NackRequest"),
    ".receiver": ("ReceiverRepair", "Recovery"),
    ".scheduler": ("RepairCandidate", "schedule_repairs"),
    ".sender": ("SenderRepair",),
})
