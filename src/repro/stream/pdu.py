"""L4 protocol data units and in-order stream segments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.conntrack.five_tuple import FiveTuple
from repro.packet.mbuf import Mbuf
from repro.packet.stack import PacketStack

# Raw TCP flag bits. ``flags`` is a plain int, and masking it with
# ints skips the ``enum.IntFlag`` construction that testing against
# ``TcpFlags`` members costs on every reassembled segment.
FIN = 0x01
SYN = 0x02
RST = 0x04


@dataclass
class L4Pdu:
    """One transport segment as handed to the reassembler.

    ``payload`` is a copy of the frame's L4 bytes (shared-memory slots
    recycle under held PDUs); ``mbuf`` is the held reference the lazy
    reassembler charges memory for. ``from_orig`` orients the segment
    relative to the connection originator.
    """

    mbuf: Mbuf
    payload: bytes
    seq: int
    flags: int
    from_orig: bool
    timestamp: float

    @classmethod
    def from_stack(
        cls,
        stack: PacketStack,
        five_tuple: FiveTuple,
        conn_tuple: FiveTuple,
        payload: Optional[bytes] = None,
    ) -> "L4Pdu":
        """Build a PDU from a parsed packet.

        UDP datagrams get a synthetic always-in-order sequence of 0 and
        no flags — they bypass reordering by construction. Callers that
        already computed ``stack.l4_payload()`` pass it in to avoid
        re-slicing.
        """
        if payload is None:
            payload = stack.l4_payload()
        tcp = stack.tcp
        if tcp is not None:
            seq = tcp.seq_no()
            flags = tcp.flags_raw()
        else:
            seq, flags = 0, 0
        return cls(
            mbuf=stack.mbuf,
            payload=payload,
            seq=seq,
            flags=flags,
            from_orig=conn_tuple.same_direction(five_tuple),
            timestamp=stack.mbuf.timestamp,
        )

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def seq_span(self) -> int:
        """Sequence numbers this segment consumes."""
        flags = self.flags
        return len(self.payload) + (1 if flags & SYN else 0) + \
            (1 if flags & FIN else 0)


@dataclass
class StreamSegment:
    """An in-order chunk of application bytes leaving the reassembler."""

    payload: bytes
    from_orig: bool
    timestamp: float
    #: True if this segment had arrived out of order and was held.
    was_held: bool = False
