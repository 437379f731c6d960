"""Unit tests for the packet substrate (mbuf, headers, builder)."""

import ipaddress
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PacketParseError
from repro.netem.impair import frame_checksums_ok
from repro.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    Ethernet,
    Ipv4,
    Ipv6,
    Mbuf,
    Tcp,
    TcpFlags,
    Udp,
    build_ethernet,
    build_ipv4,
    build_ipv6,
    build_tcp,
    build_tcp_packet,
    build_udp,
    build_udp_packet,
    checksum16,
    parse_stack,
)
from repro.packet.builder import FrameTemplate
from repro.packet.ethernet import ETHERTYPE_VLAN
from repro.packet.fragments import fragment_ipv4
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP


def make_tcp_mbuf(**kwargs):
    defaults = dict(
        src="10.0.0.1", dst="192.168.1.2", src_port=12345, dst_port=443,
        payload=b"hello", seq=1000, flags=int(TcpFlags.PSH | TcpFlags.ACK),
    )
    defaults.update(kwargs)
    return Mbuf(build_tcp_packet(**defaults))


def _layered(l4: bytes, src: str, dst: str, protocol: int,
             ttl: int) -> bytes:
    """A frame assembled from the one-header-at-a-time builders."""
    if ipaddress.ip_address(src).version == 4:
        return build_ethernet(build_ipv4(l4, src, dst, protocol, ttl=ttl),
                              ETHERTYPE_IPV4)
    return build_ethernet(build_ipv6(l4, src, dst, protocol, hop_limit=ttl),
                          ETHERTYPE_IPV6)


class TestEthernet:
    def test_parse_fields(self):
        mbuf = make_tcp_mbuf()
        eth = Ethernet.parse(mbuf)
        assert eth.next_protocol() == ETHERTYPE_IPV4
        assert eth.header_len() == 14
        assert len(eth.src_mac()) == 6
        assert len(eth.dst_mac()) == 6

    def test_truncated_frame_raises(self):
        with pytest.raises(PacketParseError):
            Ethernet.parse(Mbuf(b"\x00" * 10))

    def test_vlan_tag_skipped(self):
        inner = build_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)[14:]
        tag = struct.pack("!HH", 100, ETHERTYPE_IPV4)  # TCI=100, inner type
        frame = build_ethernet(tag + inner, ETHERTYPE_VLAN)
        eth = Ethernet.parse(Mbuf(frame))
        assert eth.vlan_ids() == (100,)
        assert eth.header_len() == 18
        assert eth.next_protocol() == ETHERTYPE_IPV4
        ip = Ipv4.parse_from(eth)
        assert str(ip.src_addr()) == "10.0.0.1"


class TestIpv4:
    def test_fields(self):
        mbuf = make_tcp_mbuf(ttl=17)
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        assert ip.version() == 4
        assert ip.ttl() == 17
        assert ip.protocol() == 6
        assert str(ip.src_addr()) == "10.0.0.1"
        assert str(ip.dst_addr()) == "192.168.1.2"
        assert ip.total_length() == len(mbuf.data) - 14

    def test_checksum_valid(self):
        mbuf = make_tcp_mbuf()
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        header = mbuf.data[14:14 + ip.header_len()]
        assert checksum16(header) == 0

    def test_wrong_ethertype_raises(self):
        frame = build_ethernet(b"\x00" * 40, 0x1234)
        with pytest.raises(PacketParseError):
            Ipv4.parse_from(Ethernet.parse(Mbuf(frame)))

    def test_bad_version_raises(self):
        payload = bytearray(build_tcp_packet("1.2.3.4", "5.6.7.8", 1, 2))
        payload[14] = (6 << 4) | 5  # corrupt version nibble
        with pytest.raises(PacketParseError):
            Ipv4.parse_from(Ethernet.parse(Mbuf(bytes(payload))))

    def test_addr_u32(self):
        mbuf = make_tcp_mbuf(src="1.2.3.4")
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        assert ip.src_addr_u32() == 0x01020304


class TestIpv6:
    def test_fields(self):
        mbuf = Mbuf(build_tcp_packet("2001:db8::1", "2001:db8::2", 1, 443))
        eth = Ethernet.parse(mbuf)
        assert eth.next_protocol() == ETHERTYPE_IPV6
        ip = Ipv6.parse_from(eth)
        assert ip.version() == 6
        assert str(ip.src_addr()) == "2001:db8::1"
        assert ip.next_protocol() == 6
        assert ip.header_len() == 40
        tcp = Tcp.parse_from(ip)
        assert tcp.dst_port() == 443

    def test_extension_header_skipped(self):
        # Hand-build: IPv6 fixed header (next=0 hop-by-hop) + 8-byte ext
        # (next=6 TCP) + minimal TCP header.
        tcp_hdr = struct.pack("!HHIIBBHHH", 1, 2, 0, 0, 5 << 4, 0x02, 0, 0, 0)
        ext = struct.pack("!BB6x", 6, 0)
        src = ipaddress.ip_address("2001:db8::1").packed
        dst = ipaddress.ip_address("2001:db8::2").packed
        fixed = struct.pack("!IHBB16s16s", 6 << 28, len(ext) + len(tcp_hdr),
                            0, 64, src, dst)
        frame = build_ethernet(fixed + ext + tcp_hdr, ETHERTYPE_IPV6)
        ip = Ipv6.parse_from(Ethernet.parse(Mbuf(frame)))
        assert ip.next_header() == 0
        assert ip.next_protocol() == 6
        assert ip.header_len() == 48
        assert Tcp.parse_from(ip).src_port() == 1


class TestTcp:
    def test_fields(self):
        mbuf = make_tcp_mbuf(seq=7777, ack=8888)
        tcp = Tcp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert tcp.src_port() == 12345
        assert tcp.dst_port() == 443
        assert tcp.seq_no() == 7777
        assert tcp.ack_no() == 8888
        assert tcp.flags() == TcpFlags.PSH | TcpFlags.ACK

    def test_synack_detection(self):
        mbuf = make_tcp_mbuf(flags=int(TcpFlags.SYN | TcpFlags.ACK))
        tcp = Tcp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert tcp.synack()
        mbuf = make_tcp_mbuf(flags=int(TcpFlags.SYN))
        tcp = Tcp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert not tcp.synack()

    def test_checksum_valid(self):
        mbuf = make_tcp_mbuf(payload=b"data bytes here")
        stack = parse_stack(mbuf)
        from repro.packet.builder import _pseudo_header
        segment = mbuf.data[stack.tcp.offset:]
        pseudo = _pseudo_header("10.0.0.1", "192.168.1.2", 6, len(segment))
        assert checksum16(pseudo + segment) == 0

    def test_not_tcp_raises(self):
        mbuf = Mbuf(build_udp_packet("1.1.1.1", "2.2.2.2", 53, 53))
        ip = Ipv4.parse_from(Ethernet.parse(mbuf))
        with pytest.raises(PacketParseError):
            Tcp.parse_from(ip)


class TestUdp:
    def test_fields(self):
        mbuf = Mbuf(build_udp_packet("1.1.1.1", "8.8.8.8", 5353, 53,
                                     payload=b"q" * 20))
        udp = Udp.parse_from(Ipv4.parse_from(Ethernet.parse(mbuf)))
        assert udp.src_port() == 5353
        assert udp.dst_port() == 53
        assert udp.length() == 28
        assert udp.header_len() == 8


class TestParseStack:
    def test_tcp_stack(self):
        stack = parse_stack(make_tcp_mbuf(payload=b"abcdef"))
        assert stack.eth is not None
        assert stack.ip is not None
        assert stack.tcp is not None
        assert stack.udp is None
        assert stack.transport is stack.tcp
        assert stack.l4_payload() == b"abcdef"

    def test_udp_stack(self):
        mbuf = Mbuf(build_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, b"xy"))
        stack = parse_stack(mbuf)
        assert stack.udp is not None and stack.tcp is None
        assert stack.l4_payload() == b"xy"

    def test_l4_payload_ignores_padding(self):
        # Ethernet frames can be padded; l4_payload must honor IP length.
        frame = build_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload=b"ab")
        stack = parse_stack(Mbuf(frame + b"\x00" * 10))
        assert stack.l4_payload() == b"ab"

    def test_garbage_is_partial(self):
        stack = parse_stack(Mbuf(b"\xff" * 64))
        assert stack.eth is not None  # ethernet always "parses"
        assert stack.ip is None

    def test_short_frame(self):
        stack = parse_stack(Mbuf(b"\x01"))
        assert stack.eth is None


def rfc1071(data: bytes) -> int:
    """The RFC 1071 reference: sum 16-bit words, fold the carries back
    in, complement."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


_ADDRS = st.sampled_from([
    ("10.0.0.1", "192.168.1.2"), ("0.0.0.0", "0.0.0.0"),
    ("255.255.255.255", "255.255.255.255"),
    ("2001:db8::1", "2607:f010:9::9"), ("::", "::"),
    ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "::1"),
])
_U16 = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)


class TestChecksum16:
    @pytest.mark.parametrize("data", [
        b"", b"\x00", b"\x00" * 20, b"\x00" * 21, b"\xff", b"\xff" * 2,
        b"\xff" * 21, b"\xff" * 1500, b"\x00\x01", b"\xff\xfe",
        b"\xff\xff\x00\x00",
    ])
    def test_edge_cases_match_reference(self, data):
        assert checksum16(data) == rfc1071(data)

    def test_all_zero_and_all_ones(self):
        assert checksum16(b"") == checksum16(bytes(40)) == 0xFFFF
        assert checksum16(b"\xff" * 40) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=3000))
    def test_matches_rfc1071_reference(self, data):
        assert checksum16(data) == rfc1071(data)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200), st.integers(0, 99))
    def test_filled_in_checksum_verifies_to_zero(self, data, slot):
        # The check netem.impair and packet.fragments rely on: with the
        # checksum written into its (even-aligned) field, the checksum
        # over the whole header is 0.
        data = bytearray(data + bytes(len(data) % 2))
        at = min(2 * slot, len(data))
        data[at:at + 2] = b"\x00\x00"
        data[at:at + 2] = struct.pack("!H", checksum16(bytes(data)))
        assert checksum16(bytes(data)) == 0

    def test_fragment_headers_verify_to_zero(self):
        frame = build_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2,
                                 bytes(range(256)) * 12)
        fragments = fragment_ipv4(frame, 512)
        assert len(fragments) > 1
        assert all(checksum16(f[14:34]) == 0 for f in fragments)

    @settings(max_examples=100, deadline=None)
    @given(_ADDRS, _U16, _U16, st.binary(max_size=1500), _U32, _U32,
           st.integers(0, 0xFF), _U16, st.integers(1, 255))
    def test_tcp_template_matches_layered_builders(
            self, addrs, sport, dport, payload, seq, ack, flags, window,
            ttl):
        src, dst = addrs
        frame = FrameTemplate(src, dst, PROTO_TCP, sport, dport,
                              ttl).tcp(payload, seq, ack, flags, window)
        segment = build_tcp(payload, src, dst, sport, dport, seq=seq,
                            ack=ack, flags=flags, window=window)
        assert frame == _layered(segment, src, dst, PROTO_TCP, ttl)
        assert frame_checksums_ok(frame) is True

    @settings(max_examples=100, deadline=None)
    @given(_ADDRS, _U16, _U16, st.binary(max_size=1500),
           st.integers(1, 255))
    def test_udp_template_matches_layered_builders(
            self, addrs, sport, dport, payload, ttl):
        src, dst = addrs
        frame = FrameTemplate(src, dst, PROTO_UDP, sport, dport,
                              ttl).udp(payload)
        datagram = build_udp(payload, src, dst, sport, dport)
        assert frame == _layered(datagram, src, dst, PROTO_UDP, ttl)
        assert frame_checksums_ok(frame) is True

    def test_packed_addresses_build_the_same_frame(self):
        for src, dst in (("10.1.2.3", "171.64.9.9"),
                         ("2001:db8::1", "2001:db8::2")):
            packed = (ipaddress.ip_address(src).packed,
                      ipaddress.ip_address(dst).packed)
            assert build_tcp_packet(*packed, 1, 2, b"abc") == \
                build_tcp_packet(src, dst, 1, 2, b"abc")
            assert build_udp_packet(*packed, 1, 2, b"abc") == \
                build_udp_packet(src, dst, 1, 2, b"abc")

    def test_known_vector(self):
        # Classic example from RFC 1071 discussions.
        data = bytes.fromhex("00010f2000348802")
        assert checksum16(data) == 0xFFFF - ((0x0001 + 0x0F20 + 0x0034 + 0x8802) % 0xFFFF)

    def test_odd_length_padded(self):
        assert checksum16(b"\x01") == checksum16(b"\x01\x00")
