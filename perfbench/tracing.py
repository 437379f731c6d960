"""Probes for one CLI run: burst clock, set-up clock and layer spans.

Every probe is a wrapper installed from outside the program, around a
call into one layer's public functions; no program code changes. The
untraced run installs only the burst and set-up clocks (two wrappers on
``Runtime``); the traced run adds a span around each layer call.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional

from repro.packet.batch import PackedBatch

#: Packets per timed burst: the runtime's default ingress burst.
BURST = 256


class Layer:
    """Accumulated spans of one layer."""

    __slots__ = ("self_ns", "calls", "packets", "extra")

    def __init__(self) -> None:
        self.self_ns = 0
        self.calls = 0
        self.packets = 0
        self.extra = 0

    def to_dict(self) -> dict:
        return {"self_ns": self.self_ns, "calls": self.calls,
                "packets": self.packets, "extra": self.extra}


class Tracer:
    """Nested spans kept on a stack of child-time accumulators.

    A span's self time is its duration minus the durations of the spans
    opened inside it, so the self times of all layers add up to the
    root span's duration exactly.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.layers: Dict[str, Layer] = {}
        self._stack: List[int] = [0]

    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    def begin(self) -> int:
        self._stack.append(0)
        return self.clock()

    def end(self, layer: Layer, t0: int, packets: int = 0) -> int:
        duration = self.clock() - t0
        stack = self._stack
        layer.self_ns += duration - stack.pop()
        layer.calls += 1
        layer.packets += packets
        stack[-1] += duration
        return duration

    def wrap(self, name: str, fn: Callable,
             packets: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span of layer ``name``;
        ``packets(args)`` gives the packets a call takes in.

        The wrapper inlines :meth:`begin` and :meth:`end`: it runs once
        per packet on several layers, so two method calls would add to
        the tracing overhead."""
        layer = self.layer(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                layer.self_ns += duration - stack.pop()
                layer.calls += 1
                stack[-1] += duration
                if packets is not None:
                    layer.packets += packets(args)

        traced.__wrapped__ = fn
        return traced


def timed_source(traffic: Iterable, sink, burst: int = BURST,
                 clock: Callable[[], int] = time.perf_counter_ns,
                 tracer: Optional[Tracer] = None,
                 paused: Callable[[], int] = lambda: 0):
    """Yield ``traffic``'s items unchanged, timing the consumer.

    The source is pulled ahead one burst at a time; the consumer's wall
    time from receiving a full burst to asking for the next one is
    appended to ``sink.bursts``, so time spent inside the source never
    counts. ``sink.first_pull`` is set at the consumer's first pull.
    ``PackedBatch`` items pass through whole and count as their rows.
    """
    it = iter(traffic)
    layer = tracer.layer("traffic") if tracer is not None else None
    handed_at = None
    full = False
    while True:
        now = clock()
        if handed_at is None:
            sink.first_pull = now
        elif full:
            sink.bursts.append(now - handed_at - (paused() - paused_at))
        t0 = tracer.begin() if tracer is not None else 0
        block = []
        n = 0
        for item in it:
            block.append(item)
            n += len(item) if type(item) is PackedBatch else 1
            if n >= burst:
                break
        if tracer is not None:
            tracer.end(layer, t0, n)
        if not block:
            return
        full = n >= burst
        paused_at = paused()
        handed_at = clock()
        yield from block


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def attr(self, owner, name: str, make: Callable) -> None:
        """Replace ``owner.name`` (a class or module attribute) with
        ``make(current)``; class- and static methods keep their kind."""
        raw = owner.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._undo.append((owner, name, raw))

    def function(self, module: str, name: str, make: Callable) -> None:
        """Replace a module-level function in its module and in every
        loaded ``repro`` module that imported it by name."""
        orig = vars(importlib.import_module(module))[name]
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if vars(mod).get(name) is orig:
                setattr(mod, name, new)
                self._undo.append((mod, name, orig))

    def undo(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


def _one(args) -> int:
    return 1


def _len1(args) -> int:
    return len(args[1])


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Probe:
    """All probes of one CLI run, installed on construction."""

    def __init__(self, traced: bool) -> None:
        from repro.core.runtime import Runtime

        self.tracer = Tracer() if traced else None
        self.bursts = array("q")
        self.init_ns = 0
        self.run_entry: Optional[int] = None
        self.first_pull: Optional[int] = None
        self.runtime = None
        self.report = None
        #: Wall ns the run spent outside the program so far.
        self.paused: Callable[[], int] = lambda: 0
        #: Span targets the program no longer has; their time shows up
        #: as their callers' self time.
        self.missing: List[str] = []
        self.patches = Patches()
        probe = self
        clock = time.perf_counter_ns

        def make_init(orig):
            def init(runtime, *args, **kwargs):
                if traced and kwargs.get("callback") is not None:
                    kwargs["callback"] = probe.tracer.wrap(
                        "callback", kwargs["callback"], _one)
                t0 = clock()
                try:
                    orig(runtime, *args, **kwargs)
                finally:
                    probe.init_ns += clock() - t0
                probe.runtime = runtime
            return init

        def make_run(orig):
            def run(runtime, traffic, *args, **kwargs):
                probe.run_entry = clock()
                probe.report = orig(runtime, timed_source(
                    traffic, probe, tracer=probe.tracer,
                    paused=probe.paused), *args, **kwargs)
                return probe.report
            return run

        self.patches.attr(Runtime, "__init__", make_init)
        self.patches.attr(Runtime, "run", make_run)
        if traced:
            self._install_spans()

    # -- traced run ---------------------------------------------------------
    def _install_spans(self) -> None:
        tracer = self.tracer
        patches = self.patches
        wrap = tracer.wrap

        def span(name, packets=None):
            return lambda fn: wrap(name, fn, packets)

        def method(module, cls_name, names, name, packets=None):
            try:
                cls = getattr(importlib.import_module(module), cls_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{cls_name}")
                return
            for attr in names:
                if attr in cls.__dict__:
                    patches.attr(cls, attr, span(name, packets))
                else:
                    self.missing.append(f"{module}.{cls_name}.{attr}")

        def function(module, name, make):
            try:
                patches.function(module, name, make)
            except (ImportError, KeyError):
                self.missing.append(f"{module}.{name}")

        method("repro.core.runtime", "Runtime", ["__init__"], "core.setup")
        method("repro.core.runtime", "Runtime", ["run"], "core.runtime")
        method("repro.core.runtime", "Runtime", ["aggregate"],
               "core.report")
        method("repro.core.stats", "AggregateStats",
               ["to_dict", "describe"], "core.report")
        patches.attr(json, "dump", span("core.report"))
        function("repro.telemetry.export", "write_metrics",
                 span("core.report"))
        method("repro.traffic.campus", "CampusTrafficGenerator",
               ["packets"], "traffic")
        function("repro.packet.stack", "parse_stack",
                 span("packet.parse_stack", _one))
        function("repro.packet.columnar", "decode_mbufs", self._decode_span)
        method("repro.nic.device", "SimNic",
               ["receive", "receive_columnar"], "nic", _one)
        function("repro.filter", "compile_filter", self._compile_span)
        method("repro.conntrack.table", "ConnTable",
               ["lookup", "lookup_key", "create_with_key",
                "get_or_create", "touch", "schedule_removal", "expire",
                "drain"], "conntrack")
        method("repro.conntrack.conn", "Connection", ["record_packet"],
               "conntrack", _one)
        method("repro.stream.reassembly", "LazyReassembler", ["push"],
               "stream", _one)
        method("repro.stream.buffered", "BufferedReassembler", ["push"],
               "stream", _one)
        from repro.protocols.base import ConnParser
        for module in ("dns", "http", "quic", "ssh", "tls"):
            importlib.import_module(f"repro.protocols.{module}.parser")
        for cls in _subclasses(ConnParser):
            for attr in ("probe", "parse"):
                if attr in cls.__dict__:
                    patches.attr(cls, attr, span("protocols", _one))
        method("repro.core.pipeline", "CorePipeline",
               ["process_batch", "process_batch_rows"], "core.pipeline",
               _len1)
        function("repro.core.parallel", "run_parallel",
                 span("core.parallel"))
        method("repro.core.parallel", "_WorkerPool", ["__init__"],
               "core.parallel.spawn")
        method("repro.core.parallel", "_WorkerPool", ["gather"],
               "core.parallel.wait")
        method("repro.core.shm", "ShmFeederChannel",
               ["send_mbufs", "send_packed"], "core.shm", _len1)
        method("repro.core.shm", "ShmFeederChannel",
               ["send_ctrl", "send_sample"], "core.shm")
        method("repro.packet.batch", "PackedBatch", ["pack"], "core.shm",
               _len1)
        # Forked workers inherit these patches; a worker restores the
        # originals first, the subscription's callback included, so it
        # runs unprobed (its spans could not be reported anyway) and is
        # measured by its rusage instead.
        function("repro.core.parallel", "_worker_main", self._unprobed)

    def _decode_span(self, fn):
        traced = self.tracer.wrap("packet.decode", fn, lambda a: len(a[0]))
        layer = self.tracer.layer("packet.decode")

        def decode(mbufs):
            cols = traced(mbufs)
            layer.extra += cols.n - sum(cols.fast)  # slow rows
            return cols
        return decode

    def _compile_span(self, fn):
        wrap = self.tracer.wrap
        traced = wrap("filter.compile", fn)

        def compile_filter(*args, **kwargs):
            compiled = traced(*args, **kwargs)
            compiled.packet_filter = wrap(
                "filter.packet", compiled.packet_filter, _one)
            if compiled.packet_filter_batch is not None:
                compiled.packet_filter_batch = wrap(
                    "filter.packet", compiled.packet_filter_batch,
                    lambda a: a[0].n)
            compiled.connection_filter = wrap(
                "filter.conn", compiled.connection_filter, _one)
            compiled.session_filter = wrap(
                "filter.session", compiled.session_filter, _one)
            return compiled
        return compile_filter

    def _unprobed(self, fn):
        patches = self.patches

        def worker_main(spec, *args, **kwargs):
            patches.undo()
            callback = getattr(spec.callback, "__wrapped__", None)
            if callback is not None:
                spec = dataclasses.replace(spec, callback=callback)
            return fn(spec, *args, **kwargs)
        return worker_main

    # -- results --------------------------------------------------------------
    def queue_rows(self) -> List[int]:
        """Packets dispatched to each RSS queue, over every NIC port."""
        runtime = self.runtime
        if runtime is None:
            return []
        rows = [0] * runtime.config.cores
        for nic in runtime.nics:
            for queue, n in nic.stats.dispatched_packets.items():
                if 0 <= queue < len(rows):
                    rows[queue] += n
        return rows
