"""Workloads, input traces, output checks and metric arithmetic.

Everything here is pure bookkeeping around the program under test: it
builds the seeded inputs, checks each run's outputs, and turns raw
timings into the reported metrics. ``run.py`` drives it; ``child.py``
and ``tracing.py`` do the measuring inside the fresh CLI process.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import statistics
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Campus-generator parameters of every trace: ~70k frames (~270
#: bursts), so one CLI process takes ~1-6 s and a measured run pools
#: >=1000 bursts over several processes.
TRACE_DURATION = "3.0"
TRACE_GBPS = "0.2"
#: The pcap workloads replay a fixed pool of campus flows: POOL_CHUNKS
#: campus sub-traces (sub-seeds 0, 1, ..., each TRACE_DURATION /
#: POOL_CHUNKS virtual seconds from time 0) that the seed shifts in
#: time. Every chunk is pinned in ``pins.json``, so every seed's trace
#: is pinned: the placement is this file's arithmetic. The seed changes
#: interleaving, concurrency and burst contents but not the traffic
#: mix: with a mix drawn per seed, TLS payload packets ranged from 24%
#: to 47% of a trace over seeds 0-9, and pcap_stream's pkts_per_s
#: followed them over a 2x range.
POOL_CHUNKS = 8
#: ``--synthetic campus --seed`` values for synth_conn, picked by the
#: benchmark seed modulo 8, each with the frames its trace holds. The
#: CLI's generator draws its mix per seed: over seeds 0-9 a trace held
#: 39k-90k frames, which moved synth_conn's peak_rss_mb and burst times
#: beyond any bound. These are the first eight seeds from 10 up whose
#: trace is within 5% of the pool's 69,878 frames with at least 81% TCP
#: frames, so synth_conn carries pcap_conn's mix.
SYNTH_SEEDS = ((17, 70622), (22, 71133), (33, 69356), (39, 71199),
               (42, 66622), (48, 66462), (51, 72888), (57, 66653))

_CONN = ["--filter", "tcp", "--datatype", "connection", "--cores", "4"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI subscription over a traffic source.

    ``reference`` names the extra CLI flags (replacing ``flags``) of the
    sequential run whose stats every measured run must reproduce; None
    means the workload is itself sequential and its runs must agree
    with each other.
    """

    name: str
    source: str  # "pcap" or "synthetic"
    flags: Tuple[str, ...]
    reference: Optional[Tuple[str, ...]] = None
    min_cpus: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # conntrack, columnar decode, NIC and packet filter do the work;
    # generation, stream, protocols and IPC are bypassed.
    Workload("pcap_conn", "pcap", tuple(_CONN)),
    # Every TLS payload byte is reassembled and delivered: stream,
    # scalar parse_stack and callbacks dominate.
    Workload("pcap_stream", "pcap", ("--filter", "tls", "--datatype",
                                     "byte_stream", "--cores", "4")),
    # The pcap_conn job fed by the in-memory campus generator: the only
    # workload where the traffic source shows end to end.
    Workload("synth_conn", "synthetic", tuple(_CONN)),
    # Feeder plus one shm worker: the only workload crossing the IPC
    # ring. Its stats must equal the sequential backend's at 1 core.
    Workload("pcap_conn_par1", "pcap", tuple(_CONN) + ("--parallel", "1"),
             reference=("--filter", "tcp", "--datatype", "connection",
                        "--cores", "1"), min_cpus=2),
)}


def source_args(workload: Workload, seed: int, pcap: Path) -> List[str]:
    """CLI flags selecting the workload's traffic source."""
    if workload.source == "pcap":
        return ["--pcap", str(pcap)]
    cli_seed = SYNTH_SEEDS[seed % len(SYNTH_SEEDS)][0]
    return ["--synthetic", "campus", "--seed", str(cli_seed),
            "--duration", TRACE_DURATION, "--gbps", TRACE_GBPS]


# ---------------------------------------------------------------------------
# input traces
# ---------------------------------------------------------------------------
_GLOBAL = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")


class TraceError(Exception):
    """A trace file is unreadable, truncated, or not the pinned trace."""


def trace_digest(path: Path) -> Tuple[int, str]:
    """Frame count and SHA-256 over every record header (timestamp and
    lengths) and frame of a classic little-endian pcap file."""
    digest = hashlib.sha256()
    frames = 0
    with open(path, "rb") as handle:
        header = handle.read(_GLOBAL.size)
        if len(header) < _GLOBAL.size or \
                _GLOBAL.unpack(header)[0] != 0xA1B2C3D4:
            raise TraceError(f"{path}: not a little-endian classic pcap")
        while True:
            record = handle.read(_RECORD.size)
            if not record:
                return frames, digest.hexdigest()
            if len(record) < _RECORD.size:
                raise TraceError(f"{path}: truncated record header")
            frame = handle.read(_RECORD.unpack(record)[2])
            if len(frame) < _RECORD.unpack(record)[2]:
                raise TraceError(f"{path}: truncated frame")
            digest.update(record)
            digest.update(frame)
            frames += 1


def write_chunk(path: Path, k: int) -> None:
    """Write pool chunk ``k`` to ``path`` (needs ``src`` on sys.path).

    Run as ``python3 perfbench/harness.py DIR K...`` with ``src`` on
    PYTHONPATH, which keeps the generator's memory out of the benchmark
    process."""
    from repro.traffic import CampusTrafficGenerator
    from repro.traffic.pcap import write_pcap
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write_pcap(tmp, CampusTrafficGenerator(seed=k).packets(
        duration=float(TRACE_DURATION) / POOL_CHUNKS,
        gbps=float(TRACE_GBPS)))
    tmp.replace(path)


def placement_us(seed: int) -> List[int]:
    """The seed's start time of each pool chunk, in microseconds."""
    rng = random.Random(seed)
    span = float(TRACE_DURATION) / POOL_CHUNKS
    return [round(rng.uniform(0.0, float(TRACE_DURATION) - span) * 1e6)
            for _ in range(POOL_CHUNKS)]


def _records(path: Path, k: int, shift_us: int):
    """(timestamp us, chunk, index, lengths, frame) of every record,
    shifted by ``shift_us``; chunk and index break timestamp ties."""
    with open(path, "rb") as handle:
        handle.read(_GLOBAL.size)
        index = 0
        while True:
            record = handle.read(_RECORD.size)
            if not record:
                return
            sec, usec, incl, orig = _RECORD.unpack(record)
            yield (sec * 1_000_000 + usec + shift_us, k, index, incl,
                   orig, handle.read(incl))
            index += 1


def write_trace(path: Path, chunks: Sequence[Path], seed: int) -> int:
    """Merge the pool chunks, each shifted to the seed's start time, in
    timestamp order into the pcap ``path``; returns its frame count."""
    with open(chunks[0], "rb") as handle:
        header = handle.read(_GLOBAL.size)
    frames = 0
    with open(path, "wb") as out:
        out.write(header)
        for ts, _, _, incl, orig, frame in heapq.merge(*(
                _records(chunk, k, shift) for k, (chunk, shift)
                in enumerate(zip(chunks, placement_us(seed))))):
            out.write(_RECORD.pack(ts // 1_000_000, ts % 1_000_000,
                                   incl, orig))
            out.write(frame)
            frames += 1
    return frames


def check_pool_params(pins: dict) -> None:
    """Raise TraceError unless the pins are for this file's pool."""
    have = (pins["duration"], pins["gbps"], len(pins["chunks"]))
    if have != (TRACE_DURATION, TRACE_GBPS, POOL_CHUNKS):
        raise TraceError(f"pins are for the pool {have}, not "
                         f"{(TRACE_DURATION, TRACE_GBPS, POOL_CHUNKS)}")


def check_pin(frames: int, sha256: str, pin: dict) -> None:
    """Raise TraceError unless the trace matches the pinned one."""
    if (frames, sha256) != (pin["frames"], pin["sha256"]):
        raise TraceError(
            f"trace does not match its pin: {frames} frames "
            f"sha256 {sha256[:16]}..., pinned {pin['frames']} frames "
            f"sha256 {pin['sha256'][:16]}...")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def check_stats(raw: bytes, frames: int,
                reference: Optional[bytes]) -> List[str]:
    """Problems with one run's ``--json-stats`` output (empty if none).

    The stats must parse, equal the reference run's byte for byte when
    one is given, pass the filter-funnel conservation check, and count
    every frame of the trace as ingress.
    """
    from repro.telemetry.funnel import FunnelLayer, check_funnel
    try:
        stats = json.loads(raw)
    except ValueError as exc:
        return [f"stats are not JSON: {exc}"]
    problems = []
    if reference is not None and raw != reference:
        problems.append("stats differ from the reference run")
    try:
        check_funnel([FunnelLayer(row["layer"], row["packets_in"],
                                  row["packets_out"], row["bytes_in"],
                                  row["bytes_out"])
                      for row in stats["filter_funnel"]])
    except (AssertionError, KeyError, TypeError) as exc:
        problems.append(f"funnel check failed: {exc!r}")
    if stats.get("ingress_packets") != frames:
        problems.append(f"ingress_packets {stats.get('ingress_packets')} "
                        f"!= {frames} frames")
    return problems


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def interquartile_mean(values: Iterable[float]) -> float:
    """Mean of the middle half of ``values`` (all of them if fewer
    than four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail_quantile(n: int) -> float:
    """The highest quantile (at most p99) with at least ten of ``n``
    samples beyond it."""
    if n < 11:
        raise ValueError(f"{n} samples: need at least 11 for a tail")
    return min(99, 100 * (n - 10) // n) / 100


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------
#: Mean wall ms of one ``child.kernel`` sample on the reference host
#: that every time metric is scaled to.
HOST_REF_MS = 0.2


def host_slowness(runs: List[dict]) -> float:
    """How much slower than the reference host the invocation ran: the
    mean of every host-speed sample taken during its runs, divided by
    HOST_REF_MS."""
    return statistics.fmean(
        ns for run in runs for ns in run["host_samples_ns"]) / 1e6 \
        / HOST_REF_MS


def end_to_end(runs: List[dict], attempted: int) -> Tuple[dict, dict]:
    """End-to-end metrics over the passing runs, and the conditions
    they were measured under.

    Every time is the median over the runs (set-up: the interquartile
    mean), divided by the invocation's ``host_slowness``: the shared host's speed drifts by 2x and more
    within minutes, and the kernel timed during each run drifts with
    it, so the metrics move with the program and not with the host.
    The unscaled medians are in the conditions.
    """
    bursts = [ns for run in runs for ns in run["bursts_ns"]]
    q = tail_quantile(len(bursts))
    packets = runs[0]["stats"]["ingress_packets"]
    slowness = host_slowness(runs)

    raw = {
        "pkts_per_s": statistics.median(
            packets / (run["main_ns"] / 1e9) for run in runs),
        "burst_ms_mean": statistics.median(
            statistics.fmean(run["bursts_ns"]) / 1e6 for run in runs),
        "cpu_s_per_mpkt": statistics.median(
            run["cpu_s"] / packets * 1e6 for run in runs),
        "setup_s": interquartile_mean(run["setup_ns"] / 1e9
                                      for run in runs),
    }
    metrics = {
        "pkts_per_s": (raw["pkts_per_s"] * slowness, "pkts/s"),
        "burst_ms_mean": (raw["burst_ms_mean"] / slowness, "ms"),
        "cpu_s_per_mpkt": (raw["cpu_s_per_mpkt"] / slowness, "s/Mpkt"),
        "peak_rss_mb": (statistics.median(
            run["peak_rss_kb"] for run in runs) / 1024, "MB"),
        "setup_s": (raw["setup_s"] / slowness, "s"),
        "ok_frac": (len(runs) / attempted, "share"),
    }
    cuts = statistics.quantiles(bursts, n=100, method="inclusive")
    conditions = {"runs": len(runs), "bursts": len(bursts),
                  "tail_quantile": q, "packets_per_run": packets,
                  "host_slowness": slowness, "unscaled": raw,
                  "burst_ms_p50": cuts[49] / 1e6,
                  "burst_ms_p99": cuts[round(q * 100) - 1] / 1e6,
                  "run_pkts_per_s": [round(packets / (run["main_ns"] / 1e9))
                                     for run in runs],
                  "run_setup_ms": [round(run["setup_ns"] / 1e6, 1)
                                   for run in runs],
                  "run_host_ms": [
                      round(statistics.fmean(run["host_samples_ns"]) / 1e6,
                            4) for run in runs]}
    return metrics, conditions


if __name__ == "__main__":
    import sys
    for arg in sys.argv[2:]:
        write_chunk(Path(sys.argv[1]) / f"pool-{arg}.pcap", int(arg))
