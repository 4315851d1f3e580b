"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the simulator's layers from the
outside: no file under ``src/`` knows it exists.  Every call through a
wrapped function records one span -- (name, start, end, parent) -- in
flat arrays, so a run of a few hundred thousand packets costs tens of
megabytes, not a Python object per span.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.  The root span covers the
measured phase; its own self time is the time no hook attributes to a
layer ("unattributed").  Because spans nest strictly (one thread), the
layer self times plus the unattributed time add up to the root span's
duration exactly, up to float rounding.

A hook whose target no longer exists (a refactor renamed or deleted
it) is listed in :attr:`Tracer.missing` and skipped; the run goes on.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

def _events_before(args) -> int:
    return args[0].events_fired


def _events_after(args, result, before) -> int:
    return args[0].events_fired - before


def _packets_after(args, result, before) -> int:
    return len(result)


def _hit_after(args, result, before) -> int:
    return 0 if result is None else 1


#: (layer, "module:qualname", generator?, (before, after) counter or None).
#: ``generator`` hooks time every ``next()`` of the returned iterator.
HOOKS: Tuple[Tuple[str, str, bool, Optional[tuple]], ...] = (
    ("traffic", "repro.traffic.generators:TrafficGenerator.materialize", False,
     (None, _packets_after)),
    ("traffic", "repro.traffic.stream:HeavyTailSource.blocks", True, None),
    ("traffic", "repro.traffic.stream:ArrivalBlock.to_packets", False,
     (None, _packets_after)),
    ("sps", "repro.core.sps:assign_fibers", False, None),
    ("sps", "repro.core.sps:SplitParallelSwitch.partition_packets", False,
     None),
    ("sps", "repro.core.sps:SplitParallelSwitch.run", False, None),
    ("sps", "repro.core.sps:SplitParallelSwitch.run_stream", False, None),
    ("hbm_switch", "repro.core.hbm_switch:HBMSwitch.stream_offer", False,
     None),
    ("hbm_switch", "repro.core.hbm_switch:HBMSwitch.run", False, None),
    ("hbm_switch", "repro.core.hbm_switch:HBMSwitch.stream_advance", False,
     None),
    ("hbm_switch", "repro.core.hbm_switch:HBMSwitch.stream_finish", False,
     None),
    ("engine", "repro.sim.engine:Engine.run", False,
     (_events_before, _events_after)),
    ("input_port", "repro.core.input_port:InputPort.on_packet", False, None),
    ("input_port", "repro.core.input_port:InputPort.pop_batch", False, None),
    ("tail_sram", "repro.core.tail_sram:TailSRAM.on_batch", False, None),
    ("tail_sram", "repro.core.tail_sram:TailSRAM.pop_frame", False, None),
    ("tail_sram", "repro.core.tail_sram:TailSRAM.pop_frame_for", False, None),
    ("tail_sram", "repro.core.tail_sram:TailSRAM.padded_frame_for", False,
     None),
    ("head_sram", "repro.core.head_sram:HeadSRAM.on_frame", False, None),
    ("head_sram", "repro.core.head_sram:HeadSRAM.pop_frame", False, None),
    ("output_port", "repro.core.output_port:OutputPort.transmit_frame", False,
     None),
    ("stats", "repro.sim.stats:LatencyRecorder.record", False, None),
    ("stats", "repro.sim.stats:ThroughputMeter.record", False, None),
    ("reporting", "repro.reporting.export:report_to_dict", False, None),
    ("runtime", "repro.runtime.scenario:Scenario.digest", False, None),
    ("runtime", "repro.runtime.cache:ResultCache.store", False,
     None),
    ("runtime", "repro.runtime.cache:ResultCache.load", False,
     (None, _hit_after)),
    ("flow", "repro.flow.engine:execute_fault_scenario_flow", False, None),
    ("flow", "repro.flow.attack:execute_attack_trial_flow", False, None),
    ("flow", "repro.flow.engine:simulate_flow_router", False, None),
    ("flow", "repro.flow.engine:simulate_flow_switch", False, None),
    ("flow", "repro.flow.engine:flow_degradation", False, None),
    ("flow", "repro.flow.engine:flow_router_result", False, None),
    ("flow", "repro.flow.engine:flow_router_report", False, None),
    ("control", "repro.control.loop:ControlLoop.tick", False, None),
    ("fabric", "repro.fabric.engine:simulate_fabric", False, None),
    ("telemetry", "repro.telemetry.registry:MetricsRegistry.to_dict", False,
     None),
    ("telemetry", "repro.telemetry.registry:MetricsRegistry.merge_dict", False,
     None),
)

#: Name of the root span that covers the measured phase.
ROOT = "measured"


class _TimedIterator:
    """Times every ``next()`` of a wrapped generator as one span."""

    __slots__ = ("_it", "_enter", "_exit")

    def __init__(self, it, enter, exit_) -> None:
        self._it = it
        self._enter = enter
        self._exit = exit_

    def __iter__(self):
        return self

    def __next__(self):
        index = self._enter()
        try:
            return next(self._it)
        finally:
            self._exit(index)


class Tracer:
    """Records spans around hooked functions while installed."""

    def __init__(self) -> None:
        #: Span-name table; a span stores its name's index.
        self.names: List[str] = [ROOT]
        self._name_index: Dict[str, int] = {ROOT: 0}
        #: Layer of each span name (the root has none).
        self.layer_of: Dict[str, Optional[str]] = {ROOT: None}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = [-1]
        #: Per span name: extra counts (packets, events, cache hits).
        self.counts: Dict[str, int] = {}
        #: Hook targets that do not exist in the code under test.
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _code(self, name: str, layer: Optional[str]) -> int:
        code = self._name_index.get(name)
        if code is None:
            code = len(self.names)
            self.names.append(name)
            self._name_index[name] = code
            self.layer_of[name] = layer
            self.counts[name] = 0
        return code

    def _enter(self, code: int) -> int:
        index = len(self.span_name)
        self.span_name.append(code)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def root(self, fn: Callable[[], object]):
        """Run ``fn`` inside a root span; returns its result."""
        index = self._enter(0)
        try:
            return fn()
        finally:
            self._exit(index)

    # -- hook installation ---------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, generator: bool, counter):
        code = self._code(name, layer)
        enter, exit_ = self._enter, self._exit
        if generator:
            def span_enter() -> int:
                return enter(code)

            def generator_wrapper(*args, **kwargs):
                return _TimedIterator(fn(*args, **kwargs), span_enter, exit_)

            return generator_wrapper
        if counter is None:
            def wrapper(*args, **kwargs):
                index = enter(code)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(index)

            return wrapper
        before_fn, after_fn = counter
        counts = self.counts
        stack = self._stack

        def counting_wrapper(*args, **kwargs):
            before = before_fn(args) if before_fn is not None else None
            index = enter(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(index)
            if not self._nested_in_layer(stack[-1], layer):
                counts[name] += after_fn(args, result, before)
            return result

        return counting_wrapper

    def _nested_in_layer(self, parent: int, layer: str) -> bool:
        """Whether the span ``parent`` belongs to ``layer`` (so a call
        from it is internal to the layer and must not count twice)."""
        if parent < 0:
            return False
        return self.layer_of[self.names[self.span_name[parent]]] == layer

    def install(self) -> None:
        """Wrap every hook target that exists; record the rest as missing."""
        for layer, target, generator, counter in HOOKS:
            module_name, qualname = target.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (
                vars(owner).get(attr) if owner is not None else None
            )
            if original is None or not callable(original):
                self.missing.append(target)
                continue
            wrapped = self._wrap(original, qualname, layer, generator, counter)
            if owner_name:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                # A module-level function may have been imported by name
                # into other modules: rebind every reference to it.
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != "repro" and not mod_name.startswith("repro."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``self_s``, ``calls`` and ``count``; the root
        span's ``self_s`` is the unattributed time of the measured phase
        and its ``total_s`` the phase's traced wall time."""
        n_names = len(self.names)
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        duration = np.array(self.span_end) - np.array(self.span_start)
        has_parent = parents >= 0
        children = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(names)
        )
        own = np.bincount(names, weights=duration - children, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)
        result = {
            name: {
                "layer": self.layer_of[name],
                "self_s": float(own[i]),
                "calls": int(calls[i]),
                "count": self.counts.get(name, 0),
            }
            for i, name in enumerate(self.names)
        }
        result[ROOT]["total_s"] = float(duration[names == 0].sum())
        return result
