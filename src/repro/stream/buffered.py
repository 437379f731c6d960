"""Traditional copy-based stream reassembly (ablation baseline).

This is the design Section 5.2 argues against: every payload is copied
into a per-direction receive buffer keyed by stream offset, and
contiguous prefixes are handed to the application as they complete.
Memory cost is the buffered byte count (copies), not held references.
Delivered segments are the lazy reassembler's: each keeps its own
arrival timestamp, and the first copy buffered at a sequence number
wins over later duplicates.
Used by the lazy-vs-eager ablation benchmark and the IDS baselines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.stream.pdu import SYN, L4Pdu, StreamSegment
from repro.stream.reassembly import seq_diff

_SEQ_MOD = 1 << 32


class _BufferedDirection:
    """Receive buffer for one direction."""

    __slots__ = ("base", "segments", "buffered_bytes", "ooo_events",
                 "dup_segments", "copied_bytes", "max_buffer",
                 "truncated_segments", "truncated_bytes",
                 "pending_truncations")

    def __init__(self, max_buffer: int) -> None:
        self.base: Optional[int] = None  # seq of next byte to deliver
        #: Out-of-order byte ranges (copies) with their arrival
        #: timestamps, keyed by sequence number.
        self.segments: Dict[int, Tuple[bytes, float]] = {}
        self.buffered_bytes = 0
        self.ooo_events = 0
        self.dup_segments = 0
        #: Total bytes memcpy'd — the cost lazy reassembly avoids.
        self.copied_bytes = 0
        self.max_buffer = max_buffer
        #: Segments dropped because buffering them would overflow
        #: ``max_buffer`` (typically a never-filled hole forcing
        #: unbounded out-of-order growth). Each drop truncates the
        #: reconstructed stream; the pipeline drains
        #: ``pending_truncations`` into telemetry and the loss ledger
        #: so the loss is explicit, not just a memory-accounting blip.
        self.truncated_segments = 0
        self.truncated_bytes = 0
        self.pending_truncations: List[int] = []

    def push(self, pdu: L4Pdu) -> List[StreamSegment]:
        seq = (pdu.seq + (1 if pdu.flags & SYN else 0)) % _SEQ_MOD
        if self.base is None:
            self.base = seq
        payload = pdu.payload
        if payload:
            diff = seq_diff(seq, self.base)
            if diff < 0:
                if diff + len(payload) <= 0:
                    self.dup_segments += 1
                    payload = b""
                else:
                    payload = payload[-(diff + len(payload)):]
                    seq = self.base
            if payload and self.buffered_bytes + len(payload) \
                    <= self.max_buffer:
                if seq_diff(seq, self.base) > 0:
                    self.ooo_events += 1
                if seq not in self.segments:
                    # The copy: this is the work the lazy design skips.
                    self.segments[seq] = (bytes(payload), pdu.timestamp)
                    self.copied_bytes += len(payload)
                    self.buffered_bytes += len(payload)
            elif payload:
                # Buffer overflow: the segment is dropped and the
                # stream truncated at the hole. Record an explicit
                # truncation event for the pipeline to drain.
                self.truncated_segments += 1
                self.truncated_bytes += len(payload)
                self.pending_truncations.append(len(payload))
        # A FIN consumes a seqno but carries no data to copy.
        return self._drain(pdu)

    def _drain(self, pdu: L4Pdu) -> List[StreamSegment]:
        out: List[StreamSegment] = []
        while True:
            entry = self.segments.pop(self.base, None)
            if entry is None:
                # Tolerate overlap-trimmed segments starting below base.
                stale = [
                    s for s in self.segments if seq_diff(s, self.base) < 0
                ]
                for s in stale:
                    data, ts = self.segments.pop(s)
                    self.buffered_bytes -= len(data)
                    keep = seq_diff(s, self.base) + len(data)
                    if keep > 0:
                        self.segments[self.base] = (data[-keep:], ts)
                        self.buffered_bytes += keep
                if not stale:
                    break
                continue
            chunk, ts = entry
            self.buffered_bytes -= len(chunk)
            self.base = (self.base + len(chunk)) % _SEQ_MOD
            out.append(StreamSegment(chunk, pdu.from_orig, ts))
        return out

    @property
    def memory_bytes(self) -> int:
        return self.buffered_bytes


class BufferedReassembler:
    """Two-direction traditional reassembler for one connection."""

    def __init__(self, max_buffer: int = 4 * 1024 * 1024) -> None:
        self.orig = _BufferedDirection(max_buffer)
        self.resp = _BufferedDirection(max_buffer)

    def push(self, pdu: L4Pdu) -> List[StreamSegment]:
        state = self.orig if pdu.from_orig else self.resp
        return state.push(pdu)

    @property
    def ooo_events(self) -> int:
        return self.orig.ooo_events + self.resp.ooo_events

    @property
    def truncated_segments(self) -> int:
        return self.orig.truncated_segments + self.resp.truncated_segments

    @property
    def truncated_bytes(self) -> int:
        return self.orig.truncated_bytes + self.resp.truncated_bytes

    def drain_truncations(self) -> List[int]:
        """Pop the dropped-payload byte counts recorded since the last
        drain (orig direction first — a deterministic order)."""
        if not self.orig.pending_truncations and \
                not self.resp.pending_truncations:
            return []
        events = self.orig.pending_truncations + \
            self.resp.pending_truncations
        self.orig.pending_truncations = []
        self.resp.pending_truncations = []
        return events

    @property
    def copied_bytes(self) -> int:
        return self.orig.copied_bytes + self.resp.copied_bytes

    @property
    def memory_bytes(self) -> int:
        return self.orig.memory_bytes + self.resp.memory_bytes

    @property
    def has_hole(self) -> bool:
        return bool(self.orig.segments) or bool(self.resp.segments)
