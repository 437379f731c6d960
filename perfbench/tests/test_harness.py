"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from tracing import Tracer, timed_source  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small campus pcap and the CLI's stats over it."""
    from repro.cli import main
    from repro.traffic import CampusTrafficGenerator
    from repro.traffic.pcap import write_pcap

    tmp = tmp_path_factory.mktemp("run")
    pcap = tmp / "t.pcap"
    frames = write_pcap(pcap, CampusTrafficGenerator(seed=3).packets(
        duration=0.05, gbps=0.2))
    stats = tmp / "stats.json"
    assert main(["--pcap", str(pcap), "--filter", "tcp", "--datatype",
                 "connection", "--print-limit", "0",
                 "--json-stats", str(stats)]) == 0
    return pcap, frames, stats.read_bytes()


@pytest.mark.parametrize("n,q", [(11, 0.09), (100, 0.90), (500, 0.98),
                                 (999, 0.98), (1000, 0.99),
                                 (50000, 0.99)])
def test_tail_quantile_leaves_ten_samples_beyond(n, q):
    assert harness.tail_quantile(n) == q
    assert n * (1 - q) >= 10 - 1e-9


def test_tail_quantile_needs_eleven_samples():
    with pytest.raises(ValueError):
        harness.tail_quantile(10)


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 30

    traced_inner = tracer.wrap("inner", inner, lambda args: 4)

    def outer():
        clock.now += 10
        traced_inner()
        traced_inner()
        clock.now += 5

    traced_outer = tracer.wrap("outer", outer)
    root = tracer.layer("root")
    t0 = tracer.begin()
    traced_outer()
    clock.now += 7
    wall = tracer.end(root, t0)

    layers = tracer.layers
    assert layers["inner"].self_ns == 60
    assert layers["inner"].calls == 2
    assert layers["inner"].packets == 8
    assert layers["outer"].self_ns == 15
    assert layers["root"].self_ns == 7
    assert wall == 82
    assert sum(layer.self_ns for layer in layers.values()) == wall


def _consume(source, clock, work_per_burst):
    """A runtime-shaped consumer: pull a burst, then work on it."""
    it = iter(source)
    seen = []
    while True:
        chunk = list(islice(it, 256))
        if not chunk:
            return seen
        seen.extend(chunk)
        clock.now += work_per_burst


@pytest.mark.parametrize("source_cost", [0, 1, 500])
def test_slow_source_leaves_burst_times_unchanged(source_cost):
    clock = FakeClock()

    def source():
        for i in range(256 * 8 + 17):
            clock.now += source_cost
            yield i

    class Sink:
        first_pull = None
        bursts = []

    sink = Sink()
    seen = _consume(timed_source(source(), sink, clock=clock), clock, 1000)
    assert seen == list(range(256 * 8 + 17))
    # Eight full bursts; the partial tail burst is not a sample.
    assert sink.bursts == [1000] * 8
    assert sink.first_pull == 0


def test_packed_batches_pass_through_whole():
    from repro.packet.batch import PackedBatch
    from repro.packet.mbuf import Mbuf

    clock = FakeClock()
    batches = [PackedBatch.pack([Mbuf(b"\x00" * 60, timestamp=i)
                                 for _ in range(128)])
               for i in range(4)]

    class Sink:
        first_pull = None
        bursts = []

    out = list(timed_source(iter(batches), Sink(), clock=clock))
    assert all(a is b for a, b in zip(out, batches)) and len(out) == 4
    assert Sink.bursts == [0, 0]  # 512 rows: two full bursts


@pytest.mark.parametrize("values,mean", [([5.0], 5.0), ([1, 2, 3], 2.0),
                                         ([9, 1, 2, 3], 2.5),
                                         ([100, 2, 2, 3, 3, 0, 2, 3], 2.5)])
def test_interquartile_mean_drops_the_outer_quarters(values, mean):
    assert harness.interquartile_mean(values) == mean


def _fake_run(slow: float, packets: int = 70000) -> dict:
    """A run's timings on a host ``slow`` times the reference's
    slowness: every wall and CPU time, host-speed samples included,
    stretched by the same factor."""
    ms = 1_000_000
    return {"main_ns": round(2000 * ms * slow),
            "bursts_ns": [round(6 * ms * slow)] * 300,
            "cpu_s": 2.0 * slow,
            "setup_ns": round(200 * ms * slow),
            "peak_rss_kb": 34_000,
            "host_samples_ns": [round(harness.HOST_REF_MS * ms * slow)] * 99,
            "stats": {"ingress_packets": packets}}


def test_host_sampler_times_the_kernel_while_the_program_runs():
    import child
    sampler = child.HostSampler()
    sampler.start()
    end = time.perf_counter() + 0.3
    try:
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert 5 <= len(sampler.samples_ns) <= 16
    assert sampler.wall_ns == sum(sampler.samples_ns)
    assert 0 < sampler.cpu_ns <= sampler.wall_ns * 1.5
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_sampler_time_is_left_out_of_burst_times():
    clock = FakeClock()
    paused = [0]

    def source():
        for i in range(256 * 4):
            yield i

    class Sink:
        first_pull = None
        bursts = []

    it = timed_source(source(), Sink(), clock=clock,
                      paused=lambda: paused[0])
    for chunk in iter(lambda: list(islice(it, 256)), []):
        clock.now += 1000
        paused[0] += 300  # a sample taken inside the burst
        clock.now += 300
    assert Sink.bursts == [1000] * 4


def test_time_metrics_are_scaled_to_the_reference_host():
    on_ref, _ = harness.end_to_end([_fake_run(1.0)] * 4, 4)
    for slow in (0.5, 1.7, 2.0):
        metrics, conditions = harness.end_to_end([_fake_run(slow)] * 4, 4)
        assert conditions["host_slowness"] == pytest.approx(slow)
        assert conditions["unscaled"]["pkts_per_s"] == \
            pytest.approx(35_000 / slow)
        for name, (value, unit) in metrics.items():
            assert value == pytest.approx(on_ref[name][0]), name
            assert unit == on_ref[name][1]
    assert on_ref["pkts_per_s"][0] == pytest.approx(35_000)
    assert on_ref["setup_s"][0] == pytest.approx(0.2)


def test_output_check_accepts_good_stats(small_run):
    _, frames, raw = small_run
    assert harness.check_stats(raw, frames, raw) == []
    assert harness.check_stats(raw, frames, None) == []


def test_output_check_rejects_tampered_stats(small_run):
    _, frames, raw = small_run
    stats = json.loads(raw)
    stats["ingress_packets"] += 1
    tampered = json.dumps(stats, indent=2).encode()
    problems = harness.check_stats(tampered, frames, raw)
    assert any("reference" in p for p in problems)
    assert any("ingress_packets" in p for p in problems)

    stats = json.loads(raw)
    row = stats["filter_funnel"][2]
    row["packets_out"] = row["packets_in"] + 1
    problems = harness.check_stats(json.dumps(stats).encode(), frames,
                                   None)
    assert any("funnel" in p for p in problems)
    assert harness.check_stats(b"{not json", frames, None)


def test_truncated_pcap_is_rejected(small_run, tmp_path):
    pcap, frames, _ = small_run
    assert harness.trace_digest(pcap)[0] == frames
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(pcap.read_bytes()[:-10])
    with pytest.raises(harness.TraceError):
        harness.trace_digest(cut)


@pytest.mark.parametrize("offset", [24, 24 + 16 + 20])
def test_pin_catches_changed_trace(small_run, tmp_path, offset):
    """A flipped byte in the first timestamp or the first frame."""
    pcap, frames, _ = small_run
    pin = dict(zip(("frames", "sha256"), harness.trace_digest(pcap)))
    harness.check_pin(*harness.trace_digest(pcap), pin)
    data = bytearray(pcap.read_bytes())
    data[offset] ^= 0x01
    changed = tmp_path / "changed.pcap"
    changed.write_bytes(bytes(data))
    with pytest.raises(harness.TraceError):
        harness.check_pin(*harness.trace_digest(changed), pin)


def test_forked_worker_runs_the_unwrapped_callback():
    from repro.core.runtime import Runtime
    from tracing import Probe

    @dataclasses.dataclass
    class Spec:
        callback: object

    def callback(item):
        pass

    init = Runtime.__dict__["__init__"]
    probe = Probe(traced=True)
    assert Runtime.__dict__["__init__"] is not init
    seen = []
    worker_main = probe._unprobed(lambda spec, *args: seen.append(spec))
    worker_main(Spec(probe.tracer.wrap("callback", callback)), 1, 2)
    assert seen[0].callback is callback
    assert Runtime.__dict__["__init__"] is init


def test_seed_trace_is_the_pool_shifted_by_the_seed(small_run, tmp_path):
    pcap, frames, _ = small_run
    chunks = [pcap] * harness.POOL_CHUNKS
    a, b, c = (tmp_path / f"{name}.pcap" for name in "abc")
    assert harness.write_trace(a, chunks, 1) == \
        frames * harness.POOL_CHUNKS
    harness.write_trace(b, chunks, 1)
    harness.write_trace(c, chunks, 2)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    stamps = [record[0] for record in harness._records(a, 0, 0)]
    assert stamps == sorted(stamps)


def test_pins_cover_the_pool():
    pins = json.loads((HERE / "pins.json").read_text())["pool"]
    harness.check_pool_params(pins)
    with pytest.raises(harness.TraceError):
        harness.check_pool_params({**pins, "chunks": pins["chunks"][1:]})


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pcap_conn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
