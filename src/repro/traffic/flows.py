"""Byte-accurate flow synthesis.

:class:`TcpFlow` builds a TCP conversation packet by packet — real
handshakes, sequence/ack arithmetic, MSS segmentation, FIN/RST
teardown — and returns timestamped :class:`~repro.packet.mbuf.Mbuf`
frames. Higher-level helpers wrap it with real application payloads
(TLS, HTTP, SSH, DNS) built by the protocol modules' wire-format
builders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.packet.builder import (
    FrameTemplate,
    IPAddr,
    build_icmp_echo,
    packed_ip,
)
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP
from repro.packet.mbuf import Mbuf
from repro.packet.tcp import TcpFlags
from repro.protocols.dns.build import build_dns_query, build_dns_response
from repro.protocols.quic.build import (
    build_quic_initial,
    build_quic_short,
)
from repro.protocols.tls.build import (
    build_application_data,
    build_certificate,
    build_client_hello,
    build_server_hello,
    build_server_hello_done,
)

_SYN = int(TcpFlags.SYN)
_SYNACK = int(TcpFlags.SYN | TcpFlags.ACK)
_ACK = int(TcpFlags.ACK)
_PSH_ACK = int(TcpFlags.PSH | TcpFlags.ACK)
_FIN_ACK = int(TcpFlags.FIN | TcpFlags.ACK)
_RST = int(TcpFlags.RST)
_SYN_FIN = int(TcpFlags.SYN | TcpFlags.FIN)

DEFAULT_MSS = 1448


@dataclass
class FlowSpec:
    """Addressing for one flow; addresses as text or packed bytes."""

    client_ip: IPAddr
    server_ip: IPAddr
    client_port: int
    server_port: int

    def templates(self, protocol: int
                  ) -> Tuple[FrameTemplate, FrameTemplate]:
        """Header templates for the client's and the server's frames.
        Each address is parsed here, once per flow, not per frame."""
        client, server = packed_ip(self.client_ip), packed_ip(self.server_ip)
        return (FrameTemplate(client, server, protocol,
                              self.client_port, self.server_port),
                FrameTemplate(server, client, protocol,
                              self.server_port, self.client_port))


class TcpFlow:
    """Stateful builder for one TCP conversation.

    Timestamps advance by ``packet_gap`` within a burst and by ``rtt``
    when the speaking direction flips, approximating request/response
    pacing.
    """

    def __init__(
        self,
        spec: FlowSpec,
        start_ts: float = 0.0,
        rtt: float = 0.02,
        packet_gap: float = 20e-6,
        mss: int = DEFAULT_MSS,
        client_isn: int = 1000,
        server_isn: int = 9_000_000,
    ) -> None:
        self.spec = spec
        self.ts = start_ts
        self.rtt = rtt
        self.packet_gap = packet_gap
        self.mss = mss
        self.client_seq = client_isn
        self.server_seq = server_isn
        self.packets: List[Mbuf] = []
        self._last_from_client: Optional[bool] = None
        self._client, self._server = spec.templates(PROTO_TCP)

    # -- internals -----------------------------------------------------------
    def _advance_time(self, from_client: bool) -> None:
        if self._last_from_client is None:
            pass
        elif self._last_from_client == from_client:
            self.ts += self.packet_gap
        else:
            self.ts += self.rtt / 2
        self._last_from_client = from_client

    def _emit(self, from_client: bool, payload: bytes, flags: int) -> Mbuf:
        self._advance_time(from_client)
        span = len(payload) + (1 if flags & _SYN_FIN else 0)
        if from_client:
            frame = self._client.tcp(payload, self.client_seq,
                                     self.server_seq, flags)
            self.client_seq = (self.client_seq + span) % (1 << 32)
        else:
            frame = self._server.tcp(payload, self.server_seq,
                                     self.client_seq, flags)
            self.server_seq = (self.server_seq + span) % (1 << 32)
        mbuf = Mbuf(frame, timestamp=self.ts)
        self.packets.append(mbuf)
        return mbuf

    # -- conversation steps ---------------------------------------------------
    def syn(self) -> "TcpFlow":
        self._emit(True, b"", _SYN)
        return self

    def handshake(self, synack_delay: Optional[float] = None) -> "TcpFlow":
        """Three-way handshake; ``synack_delay`` overrides the RTT-based
        SYN→SYN-ACK latency (Table 2 models its P99 at 1 s)."""
        self._emit(True, b"", _SYN)
        if synack_delay is not None:
            self.ts += max(synack_delay - self.rtt / 2, 0.0)
        self._emit(False, b"", _SYNACK)
        self._emit(True, b"", _ACK)
        return self

    def send(self, from_client: bool, data: bytes,
             ack_every: int = 2) -> "TcpFlow":
        """Send ``data``, segmented at the MSS.

        The receiver emits a delayed ACK every ``ack_every`` segments
        (0 disables), reproducing the small-packet population real
        transfers carry (Figure 13's low mode).
        """
        if not data:
            self._emit(from_client, b"", _ACK)
            return self
        segments = 0
        for offset in range(0, len(data), self.mss):
            chunk = data[offset:offset + self.mss]
            self._emit(from_client, chunk, _PSH_ACK)
            segments += 1
            if ack_every and segments % ack_every == 0:
                self._emit(not from_client, b"", _ACK)
        return self

    def ack(self, from_client: bool) -> "TcpFlow":
        self._emit(from_client, b"", _ACK)
        return self

    def fin(self) -> "TcpFlow":
        """Graceful bidirectional teardown."""
        self._emit(True, b"", _FIN_ACK)
        self._emit(False, b"", _FIN_ACK)
        self._emit(True, b"", _ACK)
        return self

    def rst(self, from_client: bool = True) -> "TcpFlow":
        self._emit(from_client, b"", _RST)
        return self

    def idle(self, seconds: float) -> "TcpFlow":
        self.ts += seconds
        return self

    def build(self) -> List[Mbuf]:
        return self.packets

    # -- perturbations ----------------------------------------------------------
    def shuffle_segments(self, rng: random.Random,
                         displacement: int = 3) -> "TcpFlow":
        """Introduce out-of-order arrivals by displacing data packets a
        few slots, as reordering on real paths does (Table 2's 6% of
        flows). Timestamps are re-sorted so the trace stays monotonic."""
        packets = self.packets
        if len(packets) < 4:
            return self
        index = rng.randrange(3, len(packets))
        jump = max(1, min(displacement, index - 3))
        packets[index - jump], packets[index] = \
            packets[index], packets[index - jump]
        times = sorted(m.timestamp for m in packets)
        for mbuf, ts in zip(packets, times):
            mbuf.timestamp = ts
        return self

    def drop_segment(self, rng: random.Random) -> "TcpFlow":
        """Lose one data packet (incomplete flow, Table 2's 4.6%)."""
        candidates = [i for i, m in enumerate(self.packets)
                      if len(m) > 60 and i >= 3]
        if candidates:
            del self.packets[rng.choice(candidates)]
        return self


# ---------------------------------------------------------------------------
# application-level flows
# ---------------------------------------------------------------------------

def tls_flow(
    spec: FlowSpec,
    sni: Optional[str],
    start_ts: float = 0.0,
    client_random: Optional[bytes] = None,
    server_random: Optional[bytes] = None,
    cipher_suite: int = 0x1301,
    selected_version: Optional[int] = 0x0304,
    appdata_bytes: int = 8192,
    appdata_up_bytes: int = 512,
    cert_bytes: int = 3000,
    rtt: float = 0.02,
    teardown: str = "fin",
    synack_delay: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> List[Mbuf]:
    """A full HTTPS-shaped TLS connection with a real handshake."""
    rng = rng or random.Random(0)
    client_random = client_random or rng.randbytes(32)
    server_random = server_random or rng.randbytes(32)
    flow = TcpFlow(spec, start_ts=start_ts, rtt=rtt)
    flow.handshake(synack_delay)
    flow.send(True, build_client_hello(
        sni, client_random,
        supported_versions=[0x0304, 0x0303] if selected_version else None,
    ))
    server_flight = (
        build_server_hello(server_random, cipher_suite=cipher_suite,
                           selected_version=selected_version)
        + build_certificate(b"\x30\x82" + bytes(cert_bytes))
        + build_server_hello_done()
    )
    flow.send(False, server_flight)
    if appdata_up_bytes:
        flow.send(True, build_application_data(bytes(appdata_up_bytes)))
    remaining = appdata_bytes
    while remaining > 0:
        chunk = min(remaining, 16000)
        flow.send(False, build_application_data(bytes(chunk)))
        remaining -= chunk
    if teardown == "fin":
        flow.fin()
    elif teardown == "rst":
        flow.rst()
    return flow.build()


def http_flow(
    spec: FlowSpec,
    host: str = "example.com",
    uri: str = "/",
    method: str = "GET",
    user_agent: str = "Mozilla/5.0",
    status: int = 200,
    response_bytes: int = 4096,
    start_ts: float = 0.0,
    rtt: float = 0.02,
    teardown: str = "fin",
    synack_delay: Optional[float] = None,
) -> List[Mbuf]:
    """A plain HTTP/1.1 transaction over a fresh connection."""
    request = (
        f"{method} {uri} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"User-Agent: {user_agent}\r\n"
        f"Accept: */*\r\n\r\n"
    ).encode()
    body = bytes(response_bytes)
    response = (
        f"HTTP/1.1 {status} OK\r\n"
        f"Content-Type: application/octet-stream\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    flow = TcpFlow(spec, start_ts=start_ts, rtt=rtt)
    flow.handshake(synack_delay)
    flow.send(True, request)
    flow.send(False, response)
    if teardown == "fin":
        flow.fin()
    return flow.build()


def ssh_flow(
    spec: FlowSpec,
    client_software: str = "OpenSSH_8.9p1",
    server_software: str = "OpenSSH_8.4",
    start_ts: float = 0.0,
    kex_bytes: int = 2048,
    rtt: float = 0.02,
    synack_delay: Optional[float] = None,
) -> List[Mbuf]:
    """An SSH connection: banner exchange plus opaque key-exchange."""
    flow = TcpFlow(spec, start_ts=start_ts, rtt=rtt)
    flow.handshake(synack_delay)
    flow.send(True, f"SSH-2.0-{client_software}\r\n".encode())
    flow.send(False, f"SSH-2.0-{server_software}\r\n".encode())
    flow.send(True, bytes(kex_bytes // 2))
    flow.send(False, bytes(kex_bytes // 2))
    flow.fin()
    return flow.build()


def dns_flow(
    spec: FlowSpec,
    name: str = "example.com",
    qtype: str = "A",
    answer: str = "93.184.216.34",
    rcode: int = 0,
    txn_id: int = 0x1234,
    start_ts: float = 0.0,
    rtt: float = 0.01,
) -> List[Mbuf]:
    """A UDP DNS lookup: one query, one response."""
    query = build_dns_query(name, qtype=qtype, txn_id=txn_id)
    response = build_dns_response(name, answer, qtype=qtype,
                                  txn_id=txn_id, rcode=rcode)
    client, server = spec.templates(PROTO_UDP)
    return [Mbuf(client.udp(query), timestamp=start_ts),
            Mbuf(server.udp(response), timestamp=start_ts + rtt)]


def udp_flow(
    spec: FlowSpec,
    payload_sizes: Sequence[int] = (200, 1200, 1200),
    start_ts: float = 0.0,
    gap: float = 0.001,
) -> List[Mbuf]:
    """Generic UDP traffic (QUIC-ish opaque datagrams)."""
    client, server = spec.templates(PROTO_UDP)
    frames = []
    ts = start_ts
    for i, size in enumerate(payload_sizes):
        sender = client if i % 2 == 0 else server
        frames.append(Mbuf(sender.udp(bytes(size)), timestamp=ts))
        ts += gap
    return frames


def quic_flow(
    spec: FlowSpec,
    payload_sizes: Sequence[int] = (1252, 1252, 1000, 1000),
    version: int = 0x00000001,
    dcid: bytes = b"\x11" * 8,
    scid: bytes = b"\x22" * 8,
    start_ts: float = 0.0,
    gap: float = 0.001,
) -> List[Mbuf]:
    """A QUIC connection over UDP: client and server Initials followed
    by short-header 1-RTT packets, with the requested datagram sizes."""
    client, server = spec.templates(PROTO_UDP)
    frames = []
    ts = start_ts
    for i, size in enumerate(payload_sizes):
        from_client = i % 2 == 0
        if i == 0:
            datagram = build_quic_initial(
                dcid, scid, version=version,
                payload_len=max(size - 60, 32))
        elif i == 1:
            datagram = build_quic_initial(
                scid, dcid, version=version,
                payload_len=max(size - 60, 32))
        else:
            datagram = build_quic_short(
                dcid if from_client else scid,
                payload_len=max(size - 20, 16))
        sender = client if from_client else server
        frames.append(Mbuf(sender.udp(datagram), timestamp=ts))
        ts += gap
    return frames


def ping_flow(
    spec: FlowSpec,
    count: int = 3,
    start_ts: float = 0.0,
    rtt: float = 0.01,
) -> List[Mbuf]:
    """An ICMP echo request/reply exchange."""
    client, server = packed_ip(spec.client_ip), packed_ip(spec.server_ip)
    frames = []
    ts = start_ts
    for sequence in range(1, count + 1):
        frames.append(Mbuf(build_icmp_echo(
            client, server, identifier=spec.client_port,
            sequence=sequence), timestamp=ts))
        frames.append(Mbuf(build_icmp_echo(
            server, client, identifier=spec.client_port,
            sequence=sequence, reply=True), timestamp=ts + rtt))
        ts += 1.0
    return frames


def single_syn(spec: FlowSpec, start_ts: float = 0.0) -> List[Mbuf]:
    """An unanswered SYN — the scanner population (65% of campus
    connections, Table 2)."""
    return TcpFlow(spec, start_ts=start_ts).syn().build()


def duplicate_across_ports(packets: Sequence[Mbuf],
                           ports: int = 2) -> List[Mbuf]:
    """Duplicate a traffic stream across NIC ports, interleaved by
    timestamp — the paper's Section 6 stress setup ("packets duplicated
    across the two links such that we receive double the regular
    traffic")."""
    if ports < 1:
        raise ValueError("need at least one port")
    out: List[Mbuf] = []
    for mbuf in packets:
        for port in range(ports):
            out.append(Mbuf(mbuf.data, timestamp=mbuf.timestamp,
                            port=port))
    return out
