"""Per-layer results of a traced run: the Figure-7-shaped table and the
per-layer metrics."""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

#: Table rows in Figure 7's stage order, each with the cost-model stage
#: whose virtual cycles it stands in for (None: the model has none).
ROWS: List[Tuple[str, str]] = [
    ("traffic", None),
    ("packet.decode", "capture"),
    ("packet.parse_stack", None),
    ("nic", "hardware_filter"),
    ("filter.packet", "packet_filter"),
    ("conntrack", "conn_track"),
    ("filter.conn", None),
    ("stream", "reassembly"),
    ("protocols", "parsing"),
    ("filter.session", "session_filter"),
    ("callback", "callback"),
    ("core.pipeline", None),
    ("core.runtime", None),
    ("core.parallel", None),
    ("core.parallel.spawn", None),
    ("core.parallel.wait", None),
    ("core.shm", None),
    ("core.setup", None),
    ("filter.compile", None),
    ("core.report", None),
    ("cli", None),
]

STAGES = ["capture", "hardware_filter", "packet_filter", "conn_track",
          "reassembly", "parsing", "session_filter", "callback"]

_EMPTY = {"self_ns": 0, "calls": 0, "packets": 0, "extra": 0}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def table(traced: dict) -> str:
    """Layer | calls | packets in | self ns per ingress packet | share
    of wall | virtual cycles per ingress packet, with the check that
    the self times add up to the traced wall time."""
    layers = traced["layers"]
    stats = traced["stats"]
    ingress = stats["ingress_packets"]
    wall = traced["traced_ns"]
    names = [name for name, _ in ROWS]
    stage_of = dict(ROWS)
    names += sorted(set(layers) - set(names))
    lines = [f"{'layer':<20} {'calls':>9} {'pkts in':>9} "
             f"{'self ns/pkt':>11} {'share':>7} {'vcycles/pkt':>11}"]
    for name in names:
        row = layers.get(name)
        if row is None:
            continue
        stage = stage_of.get(name)
        cycles = (f"{stats['stage_cycles'][stage] / ingress:11.1f}"
                  if stage else f"{'-':>11}")
        lines.append(
            f"{name:<20} {row['calls']:>9} {row['packets'] or '-':>9} "
            f"{row['self_ns'] / ingress:11.1f} "
            f"{row['self_ns'] / wall:7.1%} {cycles}")
    total = sum(row["self_ns"] for row in layers.values())
    lines.append(f"{'total':<20} {'':>9} {ingress:>9} "
                 f"{total / ingress:11.1f} {total / wall:7.1%} "
                 f"{stats['cycles_per_ingress_packet']:11.1f}")
    verdict = "==" if total == wall else "!="
    lines.append(f"self-time sum {total} ns {verdict} traced wall "
                 f"{wall} ns")
    if traced["untraced_targets"]:
        lines.append("not traced (absent from the program): "
                     + ", ".join(traced["untraced_targets"]))
    return "\n".join(lines)


def per_layer(traced: dict, runs: List[dict]) -> Dict[str, tuple]:
    """Per-layer metrics of one traced run; the rusage busy fractions
    come from the untraced ``runs``, which tracing cannot inflate."""
    layers = traced["layers"]
    stats = traced["stats"]
    health = traced.get("backend_health") or {}
    ingress = stats["ingress_packets"]
    wall = traced["traced_ns"]

    def get(name):
        return layers.get(name, _EMPTY)

    funnel = {row["layer"]: row for row in stats["filter_funnel"]}

    def passed(layer):
        row = funnel[layer]
        return _div(row["packets_out"], row["packets_in"])

    decode, parse, nic = get("packet.decode"), \
        get("packet.parse_stack"), get("nic")
    pkt_filter, conntrack = get("filter.packet"), get("conntrack")
    stream, protocols = get("stream"), get("protocols")
    pipeline, callback, shm = get("core.pipeline"), get("callback"), \
        get("core.shm")
    rows = traced["queue_rows"]
    block_ns = health.get("feeder_block_seconds", 0.0) * 1e9
    untraced_ns = statistics.median(run["main_ns"] for run in runs)
    metrics = {
        "traffic.source_ns_per_pkt": (
            _div(get("traffic")["self_ns"], ingress), "ns"),
        "traffic.source_share": (
            _div(get("traffic")["self_ns"], wall), "share"),
        "packet.decode_ns_per_pkt": (
            _div(decode["self_ns"], decode["packets"]), "ns"),
        "packet.slow_row_frac": (
            _div(decode["extra"], decode["packets"]), "share"),
        "packet.parse_stack_per_pkt": (
            _div(parse["calls"], ingress), "calls/pkt"),
        "packet.parse_stack_ns": (
            _div(parse["self_ns"], parse["calls"]), "ns"),
        "nic.rx_ns_per_pkt": (_div(nic["self_ns"], nic["calls"]), "ns"),
        "nic.hw_drop_frac": (
            _div(stats["hw_dropped_packets"], ingress), "share"),
        "nic.queue_skew": (_div(max(rows, default=0),
                                _div(sum(rows), len(rows))), "x"),
        "filter.packet_ns_per_pkt": (
            _div(pkt_filter["self_ns"], pkt_filter["packets"]), "ns"),
        "filter.packet_pass_frac": (passed("packet_filter"), "share"),
        "filter.conn_pass_frac": (passed("connection_filter"), "share"),
        "filter.session_pass_frac": (passed("session_filter"), "share"),
        "filter.compile_ms": (get("filter.compile")["self_ns"] / 1e6,
                              "ms"),
        "conntrack.ns_per_pkt": (
            _div(conntrack["self_ns"], conntrack["packets"]), "ns"),
        "conntrack.conns_created": (stats["conns_created"], "count"),
        "conntrack.peak_live": (stats["peak_live_connections"], "count"),
        "stream.push_ns_per_seg": (
            _div(stream["self_ns"], stream["calls"]), "ns"),
        "stream.segments_per_pkt": (
            _div(stream["calls"], ingress), "segs/pkt"),
        "protocols.calls_per_pkt": (
            _div(protocols["calls"], ingress), "calls/pkt"),
        "protocols.ns_per_call": (
            _div(protocols["self_ns"], protocols["calls"]), "ns"),
        "core.runtime.self_ns_per_pkt": (
            _div(get("core.runtime")["self_ns"], ingress), "ns"),
        "core.pipeline.self_ns_per_pkt": (
            _div(pipeline["self_ns"], pipeline["packets"]), "ns"),
        "core.pipeline.rows_per_call": (
            _div(pipeline["packets"], pipeline["calls"]), "rows"),
        "core.report_ms": (get("core.report")["self_ns"] / 1e6, "ms"),
        "callback.calls_per_pkt": (
            _div(callback["calls"], ingress), "calls/pkt"),
        "callback.ns_per_call": (
            _div(callback["self_ns"], callback["calls"]), "ns"),
        "ipc.feeder_busy_frac": (statistics.median(
            run["self_cpu_s"] * 1e9 / run["main_ns"] for run in runs),
            "share"),
        "ipc.worker_busy_frac": (statistics.median(
            run["children_cpu_s"] * 1e9 / run["main_ns"] for run in runs),
            "share"),
        "ipc.feeder_block_frac": (_div(block_ns, wall), "share"),
        "ipc.pack_ns_per_pkt": (
            _div(max(shm["self_ns"] - block_ns, 0.0), shm["packets"]),
            "ns"),
        "ipc.bytes_per_pkt": (health.get("ipc_bytes_per_packet", 0.0),
                              "B"),
        "ipc.ring_highwater": (health.get("ring_highwater", 0), "count"),
        "ipc.slot_starvation_waits": (
            health.get("slot_starvation_waits", 0), "count"),
    }
    for stage in STAGES:
        metrics[f"model.cycles_per_pkt.{stage}"] = (
            _div(stats["stage_cycles"][stage],
                 stats["stage_invocations"][stage]), "cycles")
    metrics["trace.overhead_x"] = (traced["main_ns"] / untraced_ns, "x")
    return metrics
