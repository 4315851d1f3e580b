"""One fresh benchmark process: set up a workload, then measure it.

Run by ``run.py``; not meant to be called by hand.  With
``--setup-only`` the process stops once set-up is done.  Either way it
prints one JSON object on its last line of standard output, carrying
``ready`` -- the ``time.monotonic()`` instant set-up finished, so the
parent can time set-up from the moment it spawned this interpreter.

Set-up is: import the simulator from ``src/`` of this checkout, build
the workload's scenarios, and run its short warm-up cells through
``repro.run``.  The measured phase then repeats passes over the
workload: as many as ``--seconds`` buys at the workload's nominal pass
time (at least one), so the work is the same on every run.  A pass is
closed-loop with one caller:

- cold: each cell through ``Runtime(cache_dir, n_workers=1).map``, one
  cell per call, each starting when the previous one finished, with a
  fresh cache directory for the pass;
- warm: right after its cold run, the cell through ``map`` again, a
  cache hit, repeated so that the pass makes at least ``WARM_MIN_HITS``
  recalls.  Recalling each cell next to its cold run spreads the warm
  samples over the whole pass, as the cold ones are.

The end-to-end metrics use each cell's median cold and median warm
time over all its runs, in reference seconds: host seconds corrected
for the host's speed, which a probe measures throughout the untraced
passes (see :mod:`speed` and :meth:`Measurement.end_to_end`).

With ``--trace 1`` every pass is run twice: untraced, then traced
(``tracer.Tracer``), and the process reports per-layer metrics instead
of end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import Speedometer, Stopwatch
from tracer import HOOKS, ROOT as TRACE_ROOT, Tracer

ROOT = Path(__file__).resolve().parent.parent
WARM_MIN_HITS = 1024
#: Every end-to-end metric and its unit, in the order printed (run.py
#: adds the set-up time and the peak memory).
END_TO_END_UNITS = {
    "sim_packets_per_s": "1/s",
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "cache_hits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_delivered_fraction": "fraction",
    "sim_latency_p99_ns": "ns",
}


def unit(metric: str) -> str:
    """The unit of an end-to-end or per-layer metric."""
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric in LAYER_TIMES:
        return "s"
    if metric.endswith("fraction"):
        return "fraction"
    if metric.endswith("bytes"):
        return "bytes"
    if metric == "traffic.us_per_packet":
        return "us"
    if metric == "engine.ns_per_event":
        return "ns"
    return "count"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    source = Path(repro.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        raise SystemExit(f"error: imported repro from {source}, not this checkout")
    return repro


def run_pass(cells, cache_dir: Path, clock) -> dict:
    """One pass over ``cells``: each cell runs cold, then is recalled warm.

    Times are kept as pairs of ``clock()`` readings, converted once the
    pass is over (see :class:`speed.Speedometer`).
    """
    from repro import Runtime

    runtime = Runtime(cache_dir=cache_dir, n_workers=1)
    rounds = math.ceil(WARM_MIN_HITS / len(cells))
    cold, warm, payloads, texts, errors = [], {}, [], [], {}
    for index, cell in enumerate(cells):
        begin = clock()
        try:
            payload = runtime.map([cell])[0]
        except Exception as exc:  # a failing cell is counted, not fatal
            payload = None
            errors[index] = f"{type(exc).__name__}: {exc}"
        cold.append((begin, clock()))
        payloads.append(payload)
        text = None if payload is None else workloads.canonical(payload)
        texts.append(text)
        if text is None:
            continue
        recalls = []
        for _ in range(rounds):
            begin = clock()
            recalled = runtime.map([cell])[0]
            recalls.append((begin, clock()))
            # Byte-compare outside the timed call.
            if workloads.canonical(recalled) != text:
                errors.setdefault(index, "warm recall differs from the cold payload")
        warm[index] = recalls
    return {
        "cold": cold,
        "warm": warm,
        "payloads": payloads,
        "texts": texts,
        "errors": errors,
        "hits": rounds * len(warm),
    }


class Measurement:
    """Folds passes into checks and per-cell times as they finish.

    Only the first pass's canonical texts are kept (strings, which the
    garbage collector does not traverse); later passes add only their
    times, so memory and collector work barely grow with the number of
    passes.  Times are converted by
    ``watch`` (a :class:`speed.Speedometer` or :class:`speed.Stopwatch`).
    """

    def __init__(self, workload, watch) -> None:
        self.cells = workload.cells
        self.watch = watch
        self.reference = None
        self.sim = None
        self.packets = {}
        self.cold_s, self.warm_s = {}, {}  # cell -> its timed runs
        self.passes = self.attempted = self.failed = self.warm_hits = 0
        self.problems = []

    def add(self, result: dict) -> None:
        if self.reference is None:
            self.reference = result["texts"]
            self.sim = workloads.simulated_stats(self.cells, result["payloads"])
        for i, cell in enumerate(self.cells):
            self.attempted += 1
            payload = result["payloads"][i]
            found = [result["errors"][i]] if i in result["errors"] else []
            if payload is not None:
                try:
                    found += workloads.check(cell, payload)
                except (KeyError, TypeError) as exc:
                    found.append(f"payload lacks a ledger field: {exc!r}")
                if result["texts"][i] != self.reference[i]:
                    found.append("payload differs from the first pass")
                self.packets[i] = workloads.offered_packets(cell, payload)
                self.cold_s.setdefault(i, []).append(
                    self.watch.scaled(*result["cold"][i])
                )
                self.warm_s.setdefault(i, []).extend(
                    self.watch.scaled(*pair) for pair in result["warm"][i]
                )
            if found:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(
                        f"pass {self.passes} cell {i}: {'; '.join(found)}"
                    )
        self.passes += 1
        self.warm_hits += result["hits"]

    def verdict(self) -> dict:
        digest = hashlib.sha256()
        for text in self.reference:
            digest.update((text or "null").encode("utf-8"))
            digest.update(b"\n")
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "fingerprint": digest.hexdigest(),
        }

    def end_to_end(self) -> tuple:
        """End-to-end metrics from every cell's median time over its runs,
        in reference seconds (see :mod:`speed`)."""
        if not self.cold_s:  # every cell raised: nothing was timed
            return dict.fromkeys(END_TO_END_UNITS, 0.0), {"passes": self.passes}
        cold = [statistics.median(runs) for runs in self.cold_s.values()]
        warm = [statistics.median(runs) for runs in self.warm_s.values()]
        busy = sum(cold)
        cold_ms = sorted(t * 1e3 for t in cold)
        metrics = {
            "sim_packets_per_s": sum(self.packets.values()) / busy,
            "cells_per_s": len(cold) / busy,
            "cell_ms_p50": statistics.median(cold_ms),
            "cell_ms_p90": _quantile(cold_ms, 0.9),
            "cache_hits_per_s": len(warm) / sum(warm),
            "sim_delivered_fraction": self.sim["sim_delivered_fraction"],
            "sim_latency_p99_ns": self.sim["sim_latency_p99_ns"],
        }
        samples = {
            "passes": self.passes,
            "cells": len(cold),
            "cold_runs": self.attempted,
            "warm_hits": self.warm_hits,
            "speed": self.watch.summary(),
        }
        return metrics, samples


def _timed_pass(workload, tmp_root: Path, clock, tracer=None) -> tuple:
    """Run one pass in a fresh cache directory; returns (result, wall_s)."""
    with tempfile.TemporaryDirectory(dir=tmp_root) as cache_dir:
        start = time.perf_counter()
        if tracer is None:
            result = run_pass(workload.cells, Path(cache_dir), clock)
        else:
            tracer.install()
            try:
                result = tracer.root(
                    lambda: run_pass(workload.cells, Path(cache_dir), clock)
                )
            finally:
                tracer.uninstall()
        return result, time.perf_counter() - start


def measure(workload, seconds: float, trace: bool, tmp_root: Path) -> tuple:
    """Run the passes that ``seconds`` buys at the workload's nominal pace
    (at least one); with ``trace``, half as many untraced passes, each
    followed by a traced one.  Returns the measurement and, per traced
    pass, (untraced wall, traced wall, span summary, missing hooks).

    Untraced, a :class:`speed.Speedometer` probes the host throughout;
    traced, no probe runs, so that spans hold only the program."""
    passes = max(1, int(seconds // workload.pass_s))
    if trace:
        passes = max(1, passes // 2)
    watch = Stopwatch() if trace else Speedometer()
    measurement, traces = Measurement(workload, watch), []
    watch.start()
    try:
        for _ in range(passes):
            result, wall = _timed_pass(workload, tmp_root, watch.clock)
            measurement.add(result)
            if trace:
                tracer = Tracer()
                result, traced_wall = _timed_pass(
                    workload, tmp_root, watch.clock, tracer
                )
                measurement.add(result)
                traces.append((wall, traced_wall, tracer.summary(), tracer.missing))
    finally:
        watch.stop()
    return measurement, traces


def _quantile(values, fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[round(fraction * 100) - 1]


#: Per-layer time metrics: metric -> span names whose self time it sums
#: (``@layer`` stands for every span of that layer).
LAYER_TIMES = {
    "traffic.s": ["@traffic"],
    "sps.assign_fibers_s": ["assign_fibers"],
    "sps.partition_s": ["SplitParallelSwitch.partition_packets"],
    "sps.self_s": ["SplitParallelSwitch.run", "SplitParallelSwitch.run_stream"],
    "hbm_switch.offer_s": ["HBMSwitch.stream_offer"],
    "hbm_switch.self_s": [
        "HBMSwitch.run", "HBMSwitch.stream_advance", "HBMSwitch.stream_finish",
    ],
    "engine.self_s": ["Engine.run"],
    "input_port.s": ["@input_port"],
    "tail_sram.s": ["@tail_sram"],
    "head_sram.s": ["@head_sram"],
    "output_port.s": ["@output_port"],
    "stats.s": ["@stats"],
    "reporting.s": ["@reporting"],
    "runtime.digest_s": ["Scenario.digest"],
    "runtime.cache_store_s": ["ResultCache.store"],
    "runtime.cache_load_s": ["ResultCache.load"],
    "flow.s": ["@flow"],
    "control.tick_s": ["ControlLoop.tick"],
    "fabric.s": ["@fabric"],
    "telemetry.s": ["@telemetry"],
}

#: Per-layer call counts: metric -> span names whose calls it sums.
LAYER_CALLS = {
    "input_port.calls": ["@input_port"],
    "tail_sram.calls": ["@tail_sram"],
    "output_port.calls": ["@output_port"],
    "stats.calls": ["@stats"],
    "flow.cells": ["execute_fault_scenario_flow", "execute_attack_trial_flow"],
    "control.ticks": ["ControlLoop.tick"],
    "fabric.cells": ["simulate_fabric"],
}


#: Per-layer metrics derived from hook counts: metric -> span names.
LAYER_DERIVED = {
    "traffic.packets": ["TrafficGenerator.materialize", "ArrivalBlock.to_packets"],
    "traffic.us_per_packet": ["@traffic"],
    "engine.events": ["Engine.run"],
    "engine.events_per_packet": ["Engine.run"],
    "engine.ns_per_event": ["Engine.run"],
    "runtime.cache_hit_fraction": ["ResultCache.load"],
}


def per_layer(measurement, traces) -> tuple:
    """Per-layer metrics averaged over the traced passes."""
    n = len(traces)
    merged = {}
    for _, _, summary, _ in traces:
        for name, row in summary.items():
            into = merged.setdefault(name, {"layer": row["layer"]})
            for key in ("self_s", "calls", "count", "total_s"):
                if key in row:
                    into[key] = into.get(key, 0) + row[key]
    missing = sorted({m for _, _, _, hooks in traces for m in hooks})
    missing_names = {m.split(":")[1] for m in missing}
    hooked = {target.split(":")[1]: layer for layer, target, _, _ in HOOKS}

    def expand(sources):
        names = []
        for source in sources:
            if source.startswith("@"):
                names += [q for q, layer in hooked.items() if layer == source[1:]]
            else:
                names.append(source)
        return names

    def total(sources, key):
        return sum(merged.get(name, {}).get(key, 0) for name in expand(sources)) / n

    missing_metrics = [
        metric
        for table in (LAYER_TIMES, LAYER_CALLS, LAYER_DERIVED)
        for metric, sources in table.items()
        if set(expand(sources)) <= missing_names
    ]
    metrics = {metric: total(sources, "self_s") for metric, sources in LAYER_TIMES.items()}
    metrics.update(
        {metric: total(sources, "calls") for metric, sources in LAYER_CALLS.items()}
    )
    sim = measurement.sim
    packets = total(LAYER_DERIVED["traffic.packets"], "count")
    events = total(["Engine.run"], "count")
    loads = total(["ResultCache.load"], "calls")
    metrics.update({
        "traffic.packets": packets,
        "traffic.us_per_packet": (
            metrics["traffic.s"] / packets * 1e6 if packets else 0.0
        ),
        "engine.events": events,
        "engine.events_per_packet": (
            events / sim["offered_packets"] if events else 0.0
        ),
        "engine.ns_per_event": (
            metrics["engine.self_s"] / events * 1e9 if events else 0.0
        ),
        "runtime.cache_hit_fraction": (
            total(["ResultCache.load"], "count") / loads if loads else 0.0
        ),
    })
    metrics.update({k: v for k, v in sim.items() if k.startswith(("pfi.", "sim."))})
    untraced = sum(u for u, _, _, _ in traces)
    traced = sum(t for _, t, _, _ in traces)
    root = merged[TRACE_ROOT]
    metrics["trace.overhead_fraction"] = traced / untraced - 1.0
    metrics["trace.unattributed_fraction"] = root["self_s"] / root["total_s"]
    attributed = sum(
        row["self_s"] for name, row in merged.items() if name != TRACE_ROOT
    )
    layers = {}
    for name, row in merged.items():
        if name != TRACE_ROOT:
            layer = layers.setdefault(row["layer"], {"self_s": 0.0, "calls": 0})
            layer["self_s"] += row["self_s"] / n
            layer["calls"] += row["calls"] // n
    detail = {
        "traced_passes": n,
        "traced_wall_s": root["total_s"] / n,
        "layer_self_s": layers,
        "unattributed_s": root["self_s"] / n,
        "closure_error_s": (root["total_s"] - attributed - root["self_s"]) / n,
        "missing_hooks": missing,
        "missing_metrics": missing_metrics,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Exit through the finally blocks (temporary directories) on SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    repro = _import_program()
    workload = workloads.build(args.workload, args.seed)
    for cell in workload.warmup:
        repro.run(cell)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        measurement, traces = measure(workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run still uses it
            pass
    out = {"ready": ready, "verify": measurement.verdict()}
    if args.trace:
        out["metrics"], out["trace"] = per_layer(measurement, traces)
    else:
        out["metrics"], out["samples"] = measurement.end_to_end()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
