"""Columnar-vs-scalar parity over a malformed-frame corpus.

The columnar hot path (bulk header decode, mask-based batch filters,
column-keyed conntrack) must agree with the scalar parse-once path on
*every* frame: fast rows bit-for-bit, slow rows by falling back to
``parse_stack``. This suite drives a corpus of VLAN, QinQ, IPv4-option,
IPv6, extension-header, fragmented, truncated, and plain frames through
both and asserts identical five-tuples, L4 payloads, filter verdicts
(codegen and interp), and end-to-end AggregateStats — and that a
byte-stream run over fast rows never builds a ``PacketStack``.
"""

import json
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Runtime, RuntimeConfig
from repro.filter import compile_filter
from repro.filter.batch import NO_MATCH, encode_verdict
from repro.packet import (
    Mbuf,
    build_icmp_echo,
    build_tcp_packet,
    build_udp_packet,
    parse_stack,
)
from repro.packet import stack as stack_module
from repro.packet.columnar import decode_mbufs, l4_payload
from repro.traffic import CampusTrafficGenerator, FlowSpec, http_flow, \
    tls_flow

ETHERTYPE_VLAN = 0x8100
ETHERTYPE_QINQ = 0x88A8


def _vlan(frame: bytes, tci: int = 0x0064,
          tpid: int = ETHERTYPE_VLAN) -> bytes:
    """Splice one 802.1Q/802.1ad tag after the MAC addresses."""
    return (frame[:12] + struct.pack("!HH", tpid, tci) + frame[12:])


def _ipv4_with_options(frame: bytes) -> bytes:
    """Grow IHL to 6 and splice in one 4-byte option word."""
    out = bytearray(frame)
    out[14] = 0x46
    total_len = struct.unpack_from("!H", out, 16)[0] + 4
    struct.pack_into("!H", out, 16, total_len)
    return bytes(out[:34]) + b"\x01\x01\x01\x00" + bytes(out[34:])


def _ipv4_fragment(frame: bytes, offset_words: int = 4) -> bytes:
    """Set a non-zero fragment offset (a non-first fragment)."""
    out = bytearray(frame)
    struct.pack_into("!H", out, 20, offset_words & 0x1FFF)
    return bytes(out)


def _ipv6_with_hopopts(frame: bytes) -> bytes:
    """Insert a hop-by-hop extension header before the transport."""
    out = bytearray(frame)
    transport_proto = out[20]
    out[20] = 0  # next header: hop-by-hop
    plen = struct.unpack_from("!H", out, 18)[0] + 8
    struct.pack_into("!H", out, 18, plen)
    ext = bytes([transport_proto, 0]) + b"\x00" * 6
    return bytes(out[:54]) + ext + bytes(out[54:])


def _tcp4(payload=b"hello", **kw):
    kw.setdefault("src", "10.0.0.1")
    kw.setdefault("dst", "192.168.1.2")
    kw.setdefault("src_port", 33000)
    kw.setdefault("dst_port", 443)
    return build_tcp_packet(payload=payload, **kw)


def _udp4(payload=b"q", **kw):
    kw.setdefault("src", "10.0.0.9")
    kw.setdefault("dst", "8.8.8.8")
    kw.setdefault("src_port", 5353)
    kw.setdefault("dst_port", 53)
    return build_udp_packet(payload=payload, **kw)


def _tcp6(payload=b"v6 payload", **kw):
    kw.setdefault("src", "2001:db8::1")
    kw.setdefault("dst", "2001:db8:ffff::2")
    kw.setdefault("src_port", 50000)
    kw.setdefault("dst_port", 443)
    return build_tcp_packet(payload=payload, **kw)


def _udp6(payload=b"dns", **kw):
    kw.setdefault("src", "2001:db8::9")
    kw.setdefault("dst", "2606:4700::1111")
    kw.setdefault("src_port", 40000)
    kw.setdefault("dst_port", 53)
    return build_udp_packet(payload=payload, **kw)


def corpus_frames():
    """(name, frame bytes, expect_fast) triples covering every decoder
    gate: plain v4/v6 TCP/UDP are fast; everything the 68-byte
    fixed-offset decode cannot prove simple must take the slow path."""
    return [
        ("tcp4", _tcp4(), True),
        ("tcp4_syn", _tcp4(payload=b"", flags=0x02), True),
        ("udp4", _udp4(), True),
        ("tcp6", _tcp6(), True),
        ("udp6", _udp6(), True),
        ("tcp4_matchport", _tcp4(dst_port=8080), True),
        ("vlan_tcp4", _vlan(_tcp4()), False),
        ("qinq_tcp4", _vlan(_vlan(_tcp4()), tpid=ETHERTYPE_QINQ), False),
        ("ipv4_options_tcp", _ipv4_with_options(_tcp4()), False),
        ("ipv4_fragment", _ipv4_fragment(_tcp4()), False),
        ("ipv6_hopopts_tcp", _ipv6_with_hopopts(_tcp6()), False),
        ("icmp_echo", build_icmp_echo("10.0.0.1", "10.0.0.2"), False),
        ("trunc_eth", _tcp4()[:10], False),
        ("trunc_ipv4", _tcp4()[:14 + 12], False),
        ("trunc_tcp", _tcp4()[:14 + 20 + 8], False),
        ("trunc_ipv6", _tcp6()[:14 + 20], False),
        ("empty", b"", False),
    ]


def corpus_mbufs():
    return [Mbuf(frame, 0.001 * (i + 1), 0)
            for i, (_name, frame, _fast) in enumerate(corpus_frames())]


FILTERS = [
    "tcp",
    "udp",
    "ipv4",
    "ipv6",
    "tcp.dst_port = 443",
    "ipv4.src_addr in 10.0.0.0/8 and tcp",
    "ipv6 and udp.dst_port = 53",
    "udp or tcp.dst_port = 8080",
]


class TestColumnarDecodeParity:
    def test_fast_mask_matches_expectations(self):
        mbufs = corpus_mbufs()
        cols = decode_mbufs(mbufs)
        got = {name: cols.fast[i]
               for i, (name, _f, _e) in enumerate(corpus_frames())}
        want = {name: expect for name, _f, expect in corpus_frames()}
        assert got == want

    def test_fast_row_five_tuples_match_parse_stack(self):
        mbufs = corpus_mbufs()
        cols = decode_mbufs(mbufs)
        for i, mbuf in enumerate(mbufs):
            if not cols.fast[i]:
                continue
            stack = parse_stack(Mbuf(bytes(mbuf.data)))
            ip = stack.ipv4 if stack.ipv4 is not None else stack.ipv6
            transport = stack.tcp if stack.tcp is not None else stack.udp
            assert cols.src_ip[i] == ip.src_addr().packed
            assert cols.dst_ip[i] == ip.dst_addr().packed
            assert cols.src_port[i] == transport.src_port()
            assert cols.dst_port[i] == transport.dst_port()
            assert cols.payload_len[i] == stack.l4_payload_len()
            assert cols.wire[i] == len(mbuf.data)
            if stack.tcp is not None:
                assert cols.proto[i] == 6
                assert cols.tcp_flags[i] == stack.tcp.flags_raw()
                assert cols.tcp_seq[i] == stack.tcp.seq_no()
            else:
                assert cols.proto[i] == 17


class TestColumnarFilterParity:
    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    @pytest.mark.parametrize("filter_str", FILTERS)
    def test_batch_verdicts_match_scalar(self, filter_str, mode):
        compiled = compile_filter(filter_str, mode=mode)
        batch = compiled.packet_filter_batch
        assert batch is not None, \
            f"{filter_str!r} should be batch-expressible"
        mbufs = corpus_mbufs()
        cols = decode_mbufs(mbufs)
        verdicts = batch(cols)
        names = [name for name, _f, _e in corpus_frames()]
        for i, mbuf in enumerate(mbufs):
            if not cols.fast[i]:
                continue  # slow rows always re-run the scalar filter
            result = compiled.packet_filter(Mbuf(bytes(mbuf.data)))
            want = (encode_verdict(result.node, result.terminal)
                    if result.matched else NO_MATCH)
            assert verdicts[i] == want, \
                f"{filter_str!r} [{mode}] disagrees on {names[i]}"


class TestColumnarEndToEnd:
    def _canonical(self, columnar, filter_mode="codegen",
                   filter_str="tcp", datatype="connection"):
        # Replicate the corpus so batches mix fast and slow rows and
        # connections see multiple packets.
        traffic = []
        ts = 0.0
        for rep in range(40):
            for name, frame, _fast in corpus_frames():
                ts += 13e-6
                traffic.append(Mbuf(frame, ts, 0))
        runtime = Runtime(
            RuntimeConfig(cores=2, columnar=columnar,
                          filter_mode=filter_mode),
            filter_str=filter_str, datatype=datatype, callback=None)
        report = runtime.run(iter(traffic))
        return json.dumps(report.stats.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("mode", ["codegen", "interp"])
    def test_aggregate_stats_identical(self, mode):
        scalar = self._canonical(columnar=False, filter_mode=mode)
        columnar = self._canonical(columnar=True, filter_mode=mode)
        assert columnar == scalar

    def test_aggregate_stats_identical_ipv6_filter(self):
        scalar = self._canonical(columnar=False, filter_str="ipv6 and tcp")
        columnar = self._canonical(columnar=True, filter_str="ipv6 and tcp")
        assert columnar == scalar

    def test_tls_handshake_sessions_identical(self):
        """The probe/parse path: parsers see column-fed segments."""
        traffic = list(CampusTrafficGenerator(seed=3).packets(
            duration=1.0, gbps=0.1))

        def sessions(columnar):
            out = []
            runtime = Runtime(RuntimeConfig(cores=2, columnar=columnar),
                              filter_str="tls", datatype="tls_handshake",
                              callback=lambda s: out.append(repr(s)))
            runtime.run(Mbuf(bytes(m.data), m.timestamp) for m in traffic)
            return out

        scalar = sessions(False)
        assert len(scalar) > 10
        assert sessions(True) == scalar


class TestColumnPayloads:
    """Fast rows feed the reassembler from the columns: the payload
    slice must equal the scalar walk's on every fast row."""

    @staticmethod
    def _check(mbufs):
        cols = decode_mbufs(mbufs)
        checked = 0
        for i, mbuf in enumerate(mbufs):
            if not cols.fast[i]:
                continue
            want = parse_stack(Mbuf(bytes(mbuf.data))).l4_payload()
            assert l4_payload(mbuf, cols, i) == want
            checked += bool(want)
        return checked

    def test_corpus_and_campus_sample(self):
        padded = [Mbuf(frame + bytes(60 - len(frame)))
                  for frame in (_tcp4(payload=b""), _tcp4(payload=b"!"),
                                _udp4(payload=b"ab"))]
        campus = list(CampusTrafficGenerator(seed=7).packets(
            duration=0.3, gbps=0.1))
        assert self._check(corpus_mbufs() + padded + campus) > 1000

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, len(corpus_frames()) - 1),
        st.integers(0, 120), st.integers(0, 24)),
        min_size=1, max_size=6))
    def test_truncated_and_padded_frames(self, rows):
        # Cut each corpus frame at an arbitrary length, then zero-pad
        # it: the IP length may then overrun the frame or end early.
        frames = corpus_frames()
        self._check([Mbuf(frames[k][1][:cut] + bytes(pad))
                     for k, cut, pad in rows])


class TestNoStacksOnFastRows:
    """Regression guard: fast rows never walk ``parse_stack``."""

    @pytest.mark.parametrize("filter_str",
                             ["tcp", "tls", "tls.sni ~ '.*\\.com$'"])
    def test_byte_stream_run_parses_no_stack(self, monkeypatch,
                                             filter_str):
        original = stack_module.parse_stack
        calls = []

        def counting(mbuf):
            calls.append(mbuf)
            return original(mbuf)

        # Every module holding its own reference, the filter code
        # generator included (its namespace is built at compile time).
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, "parse_stack", None) is original:
                monkeypatch.setattr(module, "parse_stack", counting)
        packets = sorted(
            tls_flow(FlowSpec("10.0.0.1", "171.64.1.1", 1000, 443),
                     "a.example.com")
            + tls_flow(FlowSpec("2001:db8::1", "2001:db8::2", 1001, 443),
                       "b.example.org", start_ts=0.001)
            + http_flow(FlowSpec("10.0.0.2", "171.64.1.2", 1002, 80),
                        host="h.test", start_ts=0.002),
            key=lambda m: m.timestamp)
        assert all(decode_mbufs(packets).fast)
        chunks = []
        runtime = Runtime(RuntimeConfig(cores=2), filter_str=filter_str,
                          datatype="byte_stream", callback=chunks.append)
        runtime.run(iter(packets))
        assert chunks
        assert calls == []
        assert all(m.stack is None for m in packets)
