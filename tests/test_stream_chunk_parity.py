"""Delivered byte-stream chunks are identical on every data path.

The AggregateStats parity suites hold no payload bytes, so they cannot
see a reassembler fed the wrong slice of a frame. This suite hashes
every delivered :class:`~repro.core.datatypes.StreamChunk` (payload,
direction, timestamp, five-tuple) and compares the per-connection
sequences across three pairs of runs:

* the columnar row path against the scalar ``parse_stack`` path;
* the sequential backend against two shared-memory workers;
* the lazy pass-through reassembler against the copying one.

The corpus covers IPv4 and IPv6 TCP, UDP datagram streams, reordered,
duplicated and overlapping segments, Ethernet-padded frames (IP total
length shorter than the frame), SYN and FIN segments carrying payload,
and zero-payload ACKs.
"""

import hashlib
import os
import random
from collections import defaultdict

import pytest

from repro import Runtime, RuntimeConfig
from repro.packet import Mbuf, build_tcp_packet
from repro.traffic import FlowSpec, TcpFlow, udp_flow

_SYN, _ACK, _FIN, _PSH = 0x02, 0x10, 0x01, 0x08


def _data(n: int, salt: int) -> bytes:
    return bytes((i * 7 + salt) & 0xFF for i in range(n))


def _conversation(spec: FlowSpec, start_ts: float, salt: int,
                  sizes=(300, 2000, 4500)) -> TcpFlow:
    flow = TcpFlow(spec, start_ts=start_ts, mss=700)
    flow.handshake()
    for k, size in enumerate(sizes):
        flow.send(k % 2 == 0, _data(size, salt + k))
    return flow


def _padded(mbuf: Mbuf, to: int = 60) -> Mbuf:
    """Zero-pad a frame to the Ethernet minimum, as NICs do: the IP
    total length then ends before the frame does."""
    pad = max(0, to - len(mbuf.data))
    return Mbuf(bytes(mbuf.data) + bytes(pad), mbuf.timestamp)


def _raw_segments(client: str, server: str, sport: int, start_ts: float,
                  salt: int):
    """Hand-built segments: SYN and FIN carrying payload, an overlap
    that extends delivered data, and padded tiny segments."""
    isn_c, isn_s = 5000, 70000
    hello, more, bye = _data(5, salt), _data(9, salt + 1), \
        _data(3, salt + 2)
    frames = [
        # SYN with payload (TFO-style): data begins at isn + 1.
        (client, server, sport, 443, hello, isn_c, 0, _SYN),
        (server, client, 443, sport, b"", isn_s, isn_c + 6, _SYN | _ACK),
        (client, server, sport, 443, b"", isn_c + 6, isn_s + 1, _ACK),
        # In-order, then a segment overlapping its last 4 bytes.
        (client, server, sport, 443, more, isn_c + 6, isn_s + 1,
         _PSH | _ACK),
        (client, server, sport, 443, more[5:] + _data(6, salt + 3),
         isn_c + 11, isn_s + 1, _PSH | _ACK),
        # A one-byte response (padded below), then FIN with payload.
        (server, client, 443, sport, b"!", isn_s + 1, isn_c + 21,
         _PSH | _ACK),
        (server, client, 443, sport, bye, isn_s + 2, isn_c + 21,
         _FIN | _ACK),
        (client, server, sport, 443, b"", isn_c + 21, isn_s + 6,
         _FIN | _ACK),
    ]
    out = []
    for k, (src, dst, sp, dp, payload, seq, ack, flags) in \
            enumerate(frames):
        frame = build_tcp_packet(src=src, dst=dst, src_port=sp,
                                 dst_port=dp, payload=payload, seq=seq,
                                 ack=ack, flags=flags)
        out.append(_padded(Mbuf(frame, start_ts + k * 1e-4)))
    return out


def corpus():
    rng = random.Random(11)
    packets = []
    specs = [
        FlowSpec("10.0.0.1", "171.64.1.1", 40001, 443),
        FlowSpec("10.0.0.2", "171.64.1.2", 40002, 8080),
        FlowSpec("2001:db8::1", "2001:db8:ffff::2", 40003, 443),
        FlowSpec("2001:db8::3", "2001:db8:ffff::4", 40004, 80),
    ]
    for k, spec in enumerate(specs):
        flow = _conversation(spec, 0.001 * k, salt=17 * k)
        if k % 2:
            # Reordering: displaced data segments, held and flushed.
            flow.shuffle_segments(rng)
            flow.shuffle_segments(rng)
        frames = flow.build()
        # Duplicates: retransmit two data segments a little later.
        data_frames = [m for m in frames if len(m) > 100]
        for m in data_frames[1:3]:
            frames.append(Mbuf(bytes(m.data), m.timestamp + 5e-4))
        # Zero-payload ACKs pass through padded to 60 bytes.
        packets.extend(_padded(m) if len(m) < 60 else m for m in frames)
    packets += _raw_segments("10.0.1.1", "171.64.2.1", 41001, 0.0002, 3)
    packets += _raw_segments("2001:db8::7", "2001:db8::8", 41002,
                             0.0003, 5)
    for k, (client, server) in enumerate((
            ("10.0.2.1", "171.64.3.1"), ("2001:db8::9", "2001:db8::a"))):
        datagrams = udp_flow(FlowSpec(client, server, 42000 + k, 9999),
                             payload_sizes=(1, 120, 0, 900),
                             start_ts=0.0004 * (k + 1))
        packets.extend(_padded(m) for m in datagrams)
    return sorted(packets, key=lambda m: m.timestamp)


class _ChunkSink:
    """Callback appending one line per delivered chunk to a
    per-process file: parallel workers are forked, so an in-memory list
    would stay in the child."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def __call__(self, chunk) -> None:
        digest = hashlib.sha256(chunk.payload).hexdigest()
        path = os.path.join(self.directory, f"{os.getpid()}.txt")
        with open(path, "a") as out:
            out.write(f"{chunk.five_tuple}\t{chunk.from_orig}\t"
                      f"{chunk.timestamp!r}\t{len(chunk.payload)}\t"
                      f"{digest}\n")


def delivered_chunks(packets, directory, filter_str="tcp or udp",
                     **config):
    """Per-connection ordered chunk digests of one run.

    A connection lives on one core, so its lines keep their delivery
    order inside one process's file.
    """
    os.makedirs(directory)
    runtime = Runtime(RuntimeConfig(cores=2, **config),
                      filter_str=filter_str, datatype="byte_stream",
                      callback=_ChunkSink(directory))
    runtime.run(iter(packets))
    chunks = defaultdict(list)
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as lines:
            for line in lines:
                conn, rest = line.rstrip("\n").split("\t", 1)
                chunks[conn].append(rest)
    return dict(chunks)


def _fresh(packets):
    return [Mbuf(bytes(m.data), m.timestamp) for m in packets]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    packets = corpus()
    return packets, delivered_chunks(
        _fresh(packets), str(tmp_path_factory.mktemp("ref") / "c"))


class TestChunkParity:
    def test_corpus_exercises_every_case(self, reference):
        _packets, chunks = reference
        conns = set(chunks)
        assert len(conns) == 8
        assert any("2001:db8" in c and c.endswith("/tcp") for c in conns)
        assert sum(c.endswith("/udp") for c in conns) == 2
        # The SYN payload, the overlap's new tail and the FIN payload
        # all reach the stream; Ethernet padding never does.
        raw = [c for c in conns if ":41001" in c][0]
        sizes = [int(line.split("\t")[2]) for line in chunks[raw]]
        assert sorted(sizes) == [1, 3, 5, 6, 9]

    def test_columnar_matches_scalar(self, reference, tmp_path):
        packets, chunks = reference
        scalar = delivered_chunks(_fresh(packets), str(tmp_path / "s"),
                                  columnar=False)
        assert scalar == chunks

    def test_parallel_shm_matches_sequential(self, reference, tmp_path):
        packets, chunks = reference
        parallel = delivered_chunks(_fresh(packets), str(tmp_path / "p"),
                                    parallel=True, ipc_transport="shm")
        assert parallel == chunks

    @pytest.mark.parametrize("columnar", [True, False])
    def test_lazy_matches_buffered(self, reference, tmp_path, columnar):
        packets, chunks = reference
        buffered = delivered_chunks(_fresh(packets), str(tmp_path / "b"),
                                    reassembler="buffered",
                                    columnar=columnar)
        assert buffered == chunks
