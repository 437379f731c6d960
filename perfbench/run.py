"""The repository benchmark: source-to-report runs of the repro CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload pcap_conn --seed 0 --seconds 15 \\
        --trace 0

Each measured run is ``repro.cli.main`` in a fresh process over inputs
made from ``--seed``; runs repeat until ``--seconds`` have passed and at
least 1000 bursts are pooled. Every run's output is checked, and the
last stdout line is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of an extra traced run with
``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Pooled bursts a measured run needs for a p99 with ten samples beyond.
MIN_BURSTS = 1000
MIN_RUNS = 3
#: Wall budget after which no further CLI process is started.
HARD_STOP_S = 90.0
CHILD_TIMEOUT_S = 60.0


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(root: Path, out: Path, traced: bool,
               cli_args: List[str]) -> Tuple[int, Optional[dict]]:
    """One CLI process; returns its exit code and recorded timings.

    The child gets its own process group, so a hung run is killed
    together with any worker processes it forked.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(out),
         "1" if traced else "0", *cli_args],
        cwd=root, env=_env(root), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, None
    finally:
        try:  # reap anything the run left in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    if not out.exists():
        return proc.returncode, None
    return proc.returncode, json.loads(out.read_text())


class Bench:
    """Inputs, reference output and measured runs of one invocation."""

    def __init__(self, root: Path, workload: harness.Workload,
                 seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench"
        self.tmp = self.work / f"run-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.input_problem: Optional[str] = None
        self.pcap, self.frames = self._prepare_trace()
        self.reference: Optional[bytes] = None
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def _prepare_trace(self) -> Tuple[Path, int]:
        """The seed's pcap and the workload's expected ingress frames.

        The pool chunks are written once and checked against their pins
        on every use; a cached chunk that fails its pin is written
        again, and one that still fails fails every run. The seed's
        trace is then merged from the checked chunks. The pins also
        guard the synthetic workload, which runs the same generator.
        """
        pins = json.loads((HERE / "pins.json").read_text())["pool"]
        chunks = [self.work / f"pool-{k}.pcap"
                  for k in range(harness.POOL_CHUNKS)]
        pcap = self.tmp / f"campus-{self.seed}.pcap"
        try:
            harness.check_pool_params(pins)
            stale = [k for k, path in enumerate(chunks)
                     if not self._chunk_ok(path, pins["chunks"][k])]
            if stale:
                subprocess.run([sys.executable, str(HERE / "harness.py"),
                                str(self.work), *map(str, stale)],
                               env=_env(self.root), check=True,
                               timeout=CHILD_TIMEOUT_S)
            for k in stale:
                harness.check_pin(*harness.trace_digest(chunks[k]),
                                  pins["chunks"][k])
            frames = harness.write_trace(pcap, chunks, self.seed)
        except (harness.TraceError, OSError,
                subprocess.SubprocessError) as exc:
            self.input_problem = str(exc)
            return pcap, -1
        if self.workload.source == "synthetic":
            frames = harness.SYNTH_SEEDS[
                self.seed % len(harness.SYNTH_SEEDS)][1]
        return pcap, frames

    @staticmethod
    def _chunk_ok(path: Path, pin: dict) -> bool:
        try:
            harness.check_pin(*harness.trace_digest(path), pin)
        except (harness.TraceError, OSError):
            return False
        return True

    def cli_args(self, flags, stats: Path, extra=()) -> List[str]:
        return [*harness.source_args(self.workload, self.seed, self.pcap),
                *flags, "--json-stats", str(stats), *extra]

    def run(self, traced: bool = False, flags=None,
            extra=()) -> Optional[dict]:
        """One checked CLI run; None (and counted failed) on any
        crash, timeout, nonzero exit or failed output check."""
        self._n += 1
        stats = self.tmp / f"stats-{self._n}.json"
        out = self.tmp / f"run-{self._n}.json"
        flags = self.workload.flags if flags is None else flags
        rc, result = _run_child(self.root, out, traced,
                                self.cli_args(flags, stats, extra))
        problems = []
        if self.input_problem:
            problems.append(self.input_problem)
        if rc != 0 or result is None:
            problems.append(f"exit code {rc}")
        elif not stats.exists():
            problems.append("no stats written")
        else:
            raw = stats.read_bytes()
            if self.reference is None and self.workload.reference is None:
                self.reference = raw  # sequential: runs must agree
            problems += harness.check_stats(raw, self.frames,
                                            self.reference)
            result["stats"] = json.loads(raw)
            result["stats_raw"] = raw
        if problems:
            print(f"run {self._n} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            return None
        return result

    def measure(self, seconds: float) -> List[dict]:
        """Checked runs until ``seconds`` have passed and enough bursts
        are pooled; failed runs are counted and their timings dropped."""
        if self.workload.reference is not None and not self.input_problem:
            ref = self.run(flags=self.workload.reference)
            if ref is None:
                self.input_problem = "reference run failed"
            else:
                self.reference = ref["stats_raw"]
        runs: List[dict] = []
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            bursts = sum(len(r["bursts_ns"]) for r in runs)
            if elapsed >= HARD_STOP_S or (
                    elapsed >= seconds and bursts >= MIN_BURSTS
                    and len(runs) >= MIN_RUNS):
                break
            if self.attempted >= MIN_RUNS and not runs:
                break  # every run fails: stop early, report failure
            self.attempted += 1
            result = self.run()
            if result is None:
                self.failed += 1
            else:
                runs.append(result)
        return runs

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _conditions(root: Path, bench: Bench, extra: dict) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        source.update(path.read_bytes())
    return {"workload": bench.workload.name, "seed": bench.seed,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_rev": rev,
            "source_sha256": source.hexdigest()[:16],
            "trace_frames": bench.frames, "attempted": bench.attempted,
            "failed": bench.failed, **extra}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the repository root (src/repro/cli.py "
              "not found)", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    cpus = len(os.sched_getaffinity(0))
    if cpus < workload.min_cpus:
        print(f"invalid: {workload.name} needs {workload.min_cpus} "
              f"usable CPUs, {cpus} available; not reported",
              file=sys.stderr)
        return 3
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, workload, args.seed)
    try:
        runs = bench.measure(args.seconds)
        if not runs:
            print("error: no run passed its output check",
                  file=sys.stderr)
            return 1
        e2e, extra = harness.end_to_end(runs, bench.attempted)
        if args.trace:
            bench.attempted += 1
            # Telemetry on the parallel backend fills backend_health.
            flags = ("--metrics-out", str(bench.tmp / "metrics.prom")) \
                if "--parallel" in workload.flags else ()
            traced = bench.run(traced=True, extra=flags)
            if traced is None:
                bench.failed += 1
                print("error: the traced run failed", file=sys.stderr)
                return 1
            print(layers.table(traced))
            metrics = layers.per_layer(traced, runs)
        else:
            metrics = e2e
        print("conditions: " + json.dumps(_conditions(root, bench, extra),
                                          sort_keys=True))
    finally:
        bench.close()
    print(json.dumps({
        "correct": bench.failed == 0 and bench.input_problem is None,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
