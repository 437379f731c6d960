"""Columnar-vs-scalar parity report (CI artifact).

Replays two workloads through the columnar hot path and the scalar
parse-once path and records whether they agree:

1. **Per-packet filter verdicts** over a malformed-frame corpus (VLAN,
   QinQ, IPv4 options, IPv6 extension headers, fragments, truncation,
   plain v4/v6 TCP/UDP) plus a campus traffic sample, for a panel of
   filters in both codegen and interp modes.
2. **End-to-end AggregateStats** byte equality on the campus workload.
3. **Byte-stream chunk digests** on the same campus workload: the
   SHA-256 of every delivered ``StreamChunk`` (five-tuple, direction,
   timestamp, payload), in delivery order. Stats hold no payload bytes,
   so only this section sees a reassembler fed the wrong frame slice.

Writes ``benchmarks/results/columnar_parity.json`` and exits non-zero
on any disagreement, so CI can both gate on and archive the report.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path

from repro import Runtime, RuntimeConfig
from repro.filter import compile_filter
from repro.filter.batch import NO_MATCH, encode_verdict
from repro.packet import Mbuf, build_icmp_echo, build_tcp_packet, \
    build_udp_packet
from repro.packet.columnar import decode_mbufs
from repro.traffic import CampusTrafficGenerator

REPORT_PATH = Path(__file__).parent / "results" / "columnar_parity.json"

FILTERS = (
    "tcp",
    "udp",
    "ipv4",
    "ipv6",
    "tcp.dst_port = 443",
    "ipv4.src_addr in 10.0.0.0/8 and tcp",
    "ipv6 and udp.dst_port = 53",
)


def _vlan(frame: bytes, tpid: int = 0x8100) -> bytes:
    return frame[:12] + struct.pack("!HH", tpid, 0x0064) + frame[12:]


def _ipv4_options(frame: bytes) -> bytes:
    out = bytearray(frame)
    out[14] = 0x46
    struct.pack_into("!H", out, 16,
                     struct.unpack_from("!H", out, 16)[0] + 4)
    return bytes(out[:34]) + b"\x01\x01\x01\x00" + bytes(out[34:])


def _ipv6_hopopts(frame: bytes) -> bytes:
    out = bytearray(frame)
    transport = out[20]
    out[20] = 0
    struct.pack_into("!H", out, 18,
                     struct.unpack_from("!H", out, 18)[0] + 8)
    return bytes(out[:54]) + bytes([transport, 0]) + b"\x00" * 6 \
        + bytes(out[54:])


def corpus():
    tcp4 = build_tcp_packet(src="10.0.0.1", dst="192.168.1.2",
                            src_port=33000, dst_port=443, payload=b"x")
    udp4 = build_udp_packet(src="10.0.0.9", dst="8.8.8.8",
                            src_port=5353, dst_port=53, payload=b"q")
    tcp6 = build_tcp_packet(src="2001:db8::1", dst="2001:db8::2",
                            src_port=50000, dst_port=443, payload=b"y")
    udp6 = build_udp_packet(src="2001:db8::9", dst="2606:4700::1111",
                            src_port=40000, dst_port=53, payload=b"z")
    frag = bytearray(tcp4)
    struct.pack_into("!H", frag, 20, 4)
    frames = [
        tcp4, udp4, tcp6, udp6,
        _vlan(tcp4), _vlan(_vlan(tcp4), tpid=0x88A8),
        _ipv4_options(tcp4), bytes(frag), _ipv6_hopopts(tcp6),
        build_icmp_echo("10.0.0.1", "10.0.0.2"),
        tcp4[:10], tcp4[:26], tcp4[:42], tcp6[:34], b"",
    ]
    return [Mbuf(frame, 0.001 * (i + 1), 0)
            for i, frame in enumerate(frames)]


def check_filters(mbufs) -> dict:
    """Per-row verdict agreement, columnar batch vs scalar walk."""
    cols = decode_mbufs(mbufs)
    fast_rows = sum(1 for f in cols.fast if f)
    out = {"rows": len(mbufs), "fast_rows": fast_rows, "filters": {}}
    failed = False
    for filter_str in FILTERS:
        for mode in ("codegen", "interp"):
            compiled = compile_filter(filter_str, mode=mode)
            batch = compiled.packet_filter_batch
            entry_key = f"{filter_str} [{mode}]"
            if batch is None:
                out["filters"][entry_key] = {"batch_supported": False}
                failed = True
                continue
            verdicts = batch(cols)
            mismatches = 0
            for i, mbuf in enumerate(mbufs):
                if not cols.fast[i]:
                    continue  # slow rows re-run the scalar filter
                result = compiled.packet_filter(Mbuf(bytes(mbuf.data)))
                want = (encode_verdict(result.node, result.terminal)
                        if result.matched else NO_MATCH)
                if verdicts[i] != want:
                    mismatches += 1
            out["filters"][entry_key] = {
                "batch_supported": True,
                "mismatches": mismatches,
            }
            failed = failed or mismatches > 0
    out["ok"] = not failed
    return out


def check_end_to_end() -> dict:
    """AggregateStats byte equality, columnar vs scalar runtime."""

    def canonical(columnar: bool) -> str:
        traffic = list(CampusTrafficGenerator(seed=42).packets(
            duration=0.1, gbps=0.1))
        runtime = Runtime(RuntimeConfig(cores=2, columnar=columnar),
                          filter_str="tcp", datatype="connection",
                          callback=None)
        report = runtime.run(iter(traffic))
        return json.dumps(report.stats.to_dict(), sort_keys=True)

    scalar = canonical(False)
    columnar = canonical(True)
    return {"stats_bytes": len(scalar),
            "byte_identical": scalar == columnar,
            "ok": scalar == columnar}


def check_chunks() -> dict:
    """Delivered byte-stream chunk digests, columnar vs scalar runtime."""

    def digests(columnar: bool) -> list:
        traffic = CampusTrafficGenerator(seed=42).packets(
            duration=0.1, gbps=0.1)
        out = []

        def sink(chunk) -> None:
            head = f"{chunk.five_tuple}|{chunk.from_orig}|" \
                f"{chunk.timestamp!r}|".encode()
            out.append(hashlib.sha256(head + chunk.payload).hexdigest())

        runtime = Runtime(RuntimeConfig(cores=2, columnar=columnar),
                          filter_str="tcp or udp", datatype="byte_stream",
                          callback=sink)
        runtime.run(iter(traffic))
        return out

    scalar = digests(False)
    columnar = digests(True)
    mismatch = next((i for i, (a, b) in enumerate(zip(scalar, columnar))
                     if a != b), None)
    if mismatch is None and len(scalar) != len(columnar):
        mismatch = min(len(scalar), len(columnar))
    ok = bool(scalar) and mismatch is None
    return {"chunks_scalar": len(scalar), "chunks_columnar": len(columnar),
            "digest": hashlib.sha256("".join(columnar).encode()).hexdigest(),
            "first_mismatch": mismatch, "ok": ok}


def main() -> int:
    mbufs = corpus() + list(CampusTrafficGenerator(seed=7).packets(
        duration=0.02, gbps=0.05))
    report = {
        "verdicts": check_filters(mbufs),
        "end_to_end": check_end_to_end(),
        "stream_chunks": check_chunks(),
    }
    report["ok"] = all(report[k]["ok"] for k in report)
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"(report written to {REPORT_PATH})")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
