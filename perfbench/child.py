"""Run the repro CLI once in this fresh process and record its timings.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/child.py OUT.json TRACE CLI-ARG...

TRACE is 0 for a measured run and 1 for a traced one. OUT.json receives
the wall and CPU times, set-up time, per-burst runtime times and, on a
traced run, the per-layer spans. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import struct
import sys
import time
from typing import List

#: Wall seconds between two host-speed samples while the program runs.
SAMPLE_INTERVAL_S = 0.02
_WORD = struct.Struct("<I")
_BYTES = bytes(range(256)) * 4


def kernel(counts: dict) -> int:
    """A fixed piece of interpreter work that shares no code with the
    program: 300 dict updates, struct unpacks and list appends over 1k
    keys, ~0.2 ms."""
    out = []
    for i in range(300):
        key = (i * 2654435761) & 0x3FF
        counts[key] += 1
        out.append(_WORD.unpack_from(_BYTES, key & 0x3F0)[0] ^ key)
    return len(out)


class HostSampler:
    """Times ``kernel`` every SAMPLE_INTERVAL_S of wall time while the
    program runs, from a SIGALRM handler in the main thread, so the
    samples meet the host load the program meets. ``wall_ns`` and
    ``cpu_ns`` are the time the samples took, which the run's timings
    leave out."""

    def __init__(self) -> None:
        self.samples_ns: List[int] = []
        self.wall_ns = 0
        self.cpu_ns = 0
        self._counts = dict.fromkeys(range(1024), 0)

    def _sample(self, signum, frame) -> None:
        cpu0 = time.thread_time_ns()
        t0 = time.perf_counter_ns()
        kernel(self._counts)
        took = time.perf_counter_ns() - t0
        self.samples_ns.append(took)
        self.wall_ns += took
        self.cpu_ns += time.thread_time_ns() - cpu0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    """High-water RSS of this process image. ``ru_maxrss`` would also
    count the parent's RSS at fork time, which survives exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    out, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter_ns()
    import repro.cli
    import_ns = time.perf_counter_ns() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Probe

    probe = Probe(traced)
    tracer = probe.tracer
    self0 = _cpu(resource.RUSAGE_SELF)
    children0 = _cpu(resource.RUSAGE_CHILDREN)
    root = tracer.layer("cli") if tracer is not None else None
    begin = tracer.begin() if tracer is not None else 0
    sampler = HostSampler()
    probe.paused = lambda: sampler.wall_ns
    t1 = time.perf_counter_ns()
    if not traced:  # samples would land inside the spans
        sampler.start()
    try:
        rc = repro.cli.main(argv)
    finally:
        sampler.stop()
    main_ns = time.perf_counter_ns() - t1 - sampler.wall_ns
    if tracer is not None:
        traced_ns = tracer.end(root, begin)
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0 - sampler.cpu_ns / 1e9
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - children0
    probe.patches.undo()

    spawn_ns = (probe.first_pull - probe.run_entry
                if probe.first_pull is not None else 0)
    report = probe.report
    result = {
        "rc": rc,
        "main_ns": main_ns,
        "import_ns": import_ns,
        "init_ns": probe.init_ns,
        "spawn_ns": spawn_ns,
        "setup_ns": import_ns + probe.init_ns + spawn_ns,
        "self_cpu_s": self_cpu,
        "children_cpu_s": children_cpu,
        "cpu_s": self_cpu + children_cpu,
        "peak_rss_kb": (
            _peak_rss_kb()
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "bursts_ns": list(probe.bursts),
        "host_samples_ns": sampler.samples_ns,
        "queue_rows": probe.queue_rows(),
        "backend_health": (report.backend_health
                           if report is not None else None),
    }
    if tracer is not None:
        result["traced_ns"] = traced_ns
        result["untraced_targets"] = probe.missing
        result["layers"] = {name: layer.to_dict()
                            for name, layer in tracer.layers.items()}
    with open(out, "w") as handle:
        json.dump(result, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
