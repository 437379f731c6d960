"""Packet construction with correct lengths and checksums.

The traffic generators synthesize real frames with these helpers, so the
parsing path is exercised against byte-accurate packets (including IPv4
header checksums and TCP/UDP pseudo-header checksums).
"""

from __future__ import annotations

import ipaddress
import struct
from typing import Optional, Union

from repro.packet.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP

IPAddr = Union[str, bytes, ipaddress.IPv4Address, ipaddress.IPv6Address]

_DEFAULT_SRC_MAC = bytes.fromhex("02aabbccdd01")
_DEFAULT_DST_MAC = bytes.fromhex("02aabbccdd02")


def _complement(total: int) -> int:
    """The checksum of data whose 16-bit words sum to ``total``.

    Any ``total`` congruent to the word sum modulo 0xFFFF will do: the
    end-around-carry fold of RFC 1071 is that residue, except that a
    nonzero sum folds to 0xFFFF (checksum 0), never 0. Only all-zero
    data sums to 0 and has checksum 0xFFFF.
    """
    if not total:
        return 0xFFFF
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)


def checksum16(data: bytes) -> int:
    """RFC 1071 ones'-complement 16-bit checksum.

    ``data`` read as one big-endian integer is the sum of its 16-bit
    words times powers of 2**16, and 2**16 = 1 (mod 0xFFFF), so that
    integer is congruent to the word sum and one modulo folds it.
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8
    return _complement(total)


def packed_ip(addr: IPAddr) -> bytes:
    """The 4- or 16-byte packed form of ``addr``; packed bytes pass
    through unparsed."""
    if type(addr) is bytes and len(addr) in (4, 16):
        return addr
    return ipaddress.ip_address(addr).packed


def build_ethernet(
    payload: bytes,
    ethertype: int,
    src_mac: bytes = _DEFAULT_SRC_MAC,
    dst_mac: bytes = _DEFAULT_DST_MAC,
) -> bytes:
    """Wrap ``payload`` in an Ethernet II header."""
    return dst_mac + src_mac + struct.pack("!H", ethertype) + payload


def build_ipv4(
    payload: bytes,
    src: IPAddr,
    dst: IPAddr,
    protocol: int,
    ttl: int = 64,
    identification: int = 0,
    dscp: int = 0,
) -> bytes:
    """Build an IPv4 header (no options) with a valid header checksum."""
    total_length = 20 + len(payload)
    header = struct.pack(
        "!BBHHHBBH4s4s",
        (4 << 4) | 5,
        dscp << 2,
        total_length,
        identification,
        0,  # flags/fragment offset
        ttl,
        protocol,
        0,  # checksum placeholder
        packed_ip(src),
        packed_ip(dst),
    )
    csum = checksum16(header)
    return header[:10] + struct.pack("!H", csum) + header[12:] + payload


def build_ipv6(
    payload: bytes,
    src: IPAddr,
    dst: IPAddr,
    next_header: int,
    hop_limit: int = 64,
    flow_label: int = 0,
) -> bytes:
    """Build a fixed IPv6 header (no extension headers)."""
    first_word = (6 << 28) | (flow_label & 0xFFFFF)
    header = struct.pack(
        "!IHBB16s16s",
        first_word,
        len(payload),
        next_header,
        hop_limit,
        packed_ip(src),
        packed_ip(dst),
    )
    return header + payload


def _pseudo_header(src: IPAddr, dst: IPAddr, protocol: int, length: int) -> bytes:
    src_b, dst_b = packed_ip(src), packed_ip(dst)
    if len(src_b) == 4:
        return src_b + dst_b + struct.pack("!BBH", 0, protocol, length)
    return src_b + dst_b + struct.pack("!IHBB", length, 0, 0, protocol)


def build_tcp(
    payload: bytes,
    src: IPAddr,
    dst: IPAddr,
    src_port: int,
    dst_port: int,
    seq: int = 0,
    ack: int = 0,
    flags: int = 0x10,
    window: int = 65535,
) -> bytes:
    """Build a TCP segment with a valid pseudo-header checksum."""
    header = struct.pack(
        "!HHIIBBHHH",
        src_port,
        dst_port,
        seq & 0xFFFFFFFF,
        ack & 0xFFFFFFFF,
        5 << 4,
        flags,
        window,
        0,  # checksum placeholder
        0,  # urgent pointer
    )
    segment = header + payload
    csum = checksum16(_pseudo_header(src, dst, PROTO_TCP, len(segment)) + segment)
    return segment[:16] + struct.pack("!H", csum) + segment[18:]


def build_udp(
    payload: bytes,
    src: IPAddr,
    dst: IPAddr,
    src_port: int,
    dst_port: int,
) -> bytes:
    """Build a UDP datagram with a valid pseudo-header checksum."""
    length = 8 + len(payload)
    header = struct.pack("!HHHH", src_port, dst_port, length, 0)
    datagram = header + payload
    csum = checksum16(_pseudo_header(src, dst, PROTO_UDP, length) + datagram)
    if csum == 0:
        csum = 0xFFFF
    return datagram[:6] + struct.pack("!H", csum) + datagram[8:]


#: Frame layouts behind :class:`FrameTemplate`. IPv4: Ethernet header
#: plus version/DSCP bytes | total length | id, fragment, TTL, protocol
#: | header checksum | addresses and ports. IPv6: Ethernet header plus
#: version/flow-label word | payload length | next header, hop limit,
#: addresses and ports. Then the rest of the TCP or UDP header.
_V4_TCP = struct.Struct("!16sH6sH12sIIBBHHH")
_V6_TCP = struct.Struct("!18sH38sIIBBHHH")
_V4_UDP = struct.Struct("!16sH6sH12sHH")
_V6_UDP = struct.Struct("!18sH38sHH")


class FrameTemplate:
    """Ethernet/IP/TCP-or-UDP headers for the frames one endpoint of a
    flow sends.

    What stays fixed over the flow is packed once: the Ethernet header,
    the IP header but for its length (and IPv4 checksum), the ports, and
    the checksum sums of those fixed words. A frame packs only its own
    fields; each checksum is a fixed sum plus the frame's words,
    complemented (sums add unfolded; see :func:`checksum16`).
    """

    __slots__ = ("_v4", "_head", "_mid", "_tail", "_ip_sum", "_l4_sum")

    def __init__(self, src: IPAddr, dst: IPAddr, protocol: int,
                 src_port: int, dst_port: int, ttl: int = 64) -> None:
        src_b, dst_b = packed_ip(src), packed_ip(dst)
        ports = struct.pack("!HH", src_port, dst_port)
        self._v4 = len(src_b) == 4
        if self._v4:
            self._head = build_ethernet(b"\x45\x00", ETHERTYPE_IPV4)
            self._mid = struct.pack("!HHBB", 0, 0, ttl, protocol)
            self._tail = src_b + dst_b + ports
            self._ip_sum = (0x4500 + (ttl << 8 | protocol)
                            + int.from_bytes(src_b + dst_b, "big"))
        else:
            self._head = build_ethernet(struct.pack("!I", 6 << 28),
                                        ETHERTYPE_IPV6)
            self._mid = struct.pack("!BB", protocol, ttl) \
                + src_b + dst_b + ports
        # Pseudo-header addresses and protocol, plus the ports.
        self._l4_sum = (int.from_bytes(src_b + dst_b, "big") + protocol
                        + src_port + dst_port)

    def tcp(self, payload: bytes, seq: int, ack: int, flags: int,
            window: int = 65535) -> bytes:
        """A TCP segment's frame, with valid IP and TCP checksums."""
        seq &= 0xFFFFFFFF
        ack &= 0xFFFFFFFF
        length = 20 + len(payload)
        data = int.from_bytes(payload, "big")
        if length & 1:
            data <<= 8
        csum = _complement(self._l4_sum + length + seq + ack
                           + (0x5000 | flags) + window + data)
        if self._v4:
            return _V4_TCP.pack(
                self._head, 20 + length, self._mid,
                _complement(self._ip_sum + 20 + length), self._tail,
                seq, ack, 0x50, flags, window, csum, 0) + payload
        return _V6_TCP.pack(self._head, length, self._mid,
                            seq, ack, 0x50, flags, window, csum, 0) + payload

    def udp(self, payload: bytes) -> bytes:
        """A UDP datagram's frame, with valid IP and UDP checksums."""
        length = 8 + len(payload)
        data = int.from_bytes(payload, "big")
        if length & 1:
            data <<= 8
        # The length is in both the pseudo-header and the UDP header.
        csum = _complement(self._l4_sum + 2 * length + data) or 0xFFFF
        if self._v4:
            return _V4_UDP.pack(
                self._head, 20 + length, self._mid,
                _complement(self._ip_sum + 20 + length), self._tail,
                length, csum) + payload
        return _V6_UDP.pack(self._head, length, self._mid,
                            length, csum) + payload


def build_tcp_packet(
    src: IPAddr,
    dst: IPAddr,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    seq: int = 0,
    ack: int = 0,
    flags: int = 0x10,
    ttl: int = 64,
    window: int = 65535,
) -> bytes:
    """Build a full Ethernet/IP/TCP frame (IPv4 or IPv6 by address type)."""
    return FrameTemplate(src, dst, PROTO_TCP, src_port, dst_port,
                         ttl).tcp(payload, seq, ack, flags, window)


def build_icmp_echo(
    src: IPAddr,
    dst: IPAddr,
    identifier: int = 1,
    sequence: int = 1,
    reply: bool = False,
    payload: bytes = b"\x00" * 32,
    ttl: int = 64,
) -> bytes:
    """Build a full Ethernet/IPv4/ICMP echo request or reply frame."""
    icmp_type = 0 if reply else 8
    header = struct.pack("!BBHHH", icmp_type, 0, 0, identifier, sequence)
    message = header + payload
    csum = checksum16(message)
    message = message[:2] + struct.pack("!H", csum) + message[4:]
    packet = build_ipv4(message, src, dst, 1, ttl=ttl)
    return build_ethernet(packet, ETHERTYPE_IPV4)


def build_udp_packet(
    src: IPAddr,
    dst: IPAddr,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    ttl: int = 64,
) -> bytes:
    """Build a full Ethernet/IP/UDP frame (IPv4 or IPv6 by address type)."""
    return FrameTemplate(src, dst, PROTO_UDP, src_port, dst_port,
                         ttl).udp(payload)
