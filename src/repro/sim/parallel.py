"""Parallel execution of independent switch simulations.

The Split-Parallel Switch's central property is that its H switches
share nothing: no electronic load balancing, no inter-switch state, one
O/E/O per packet (:mod:`repro.core.sps`).  The router simulation is
therefore *embarrassingly parallel* -- H independent discrete-event
simulations plus a passive fiber assignment -- and this module exploits
exactly that and nothing more.

Design constraints:

- **Determinism.**  Each :class:`SwitchWorkUnit` is a self-contained,
  picklable description of one switch run.  A unit's result depends only
  on the unit (each worker builds its own engine, RNG-free pipeline and
  report), so executing units in any process, in any order, yields
  bit-identical :class:`~repro.core.hbm_switch.SwitchReport`s.  The
  merge step reassembles results by unit index, so the aggregate
  :class:`~repro.core.sps.RouterReport` is byte-identical to a
  sequential run.
- **Graceful degradation.**  With one worker (or one unit) the pool is
  skipped entirely and units run inline -- no pickling, no processes --
  which is also the fallback on platforms without working
  multiprocessing.

Workers re-simulate copies of the packets, so mutations workers make
(``departure_ns``, egress lane) are visible only in their reports, not
on the caller's :class:`~repro.traffic.packet.Packet` objects; run
sequentially when per-packet post-mortems of the originals are needed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class SwitchWorkUnit:
    """One picklable, self-contained switch simulation.

    ``index`` identifies the unit in the deterministic merge; the rest
    mirrors the :meth:`~repro.core.hbm_switch.HBMSwitch.run` signature.
    """

    index: int
    config: object  # HBMSwitchConfig (kept loose to avoid an import cycle)
    options: object  # PFIOptions
    timing: Optional[object]  # HBMTiming
    packets: Tuple = field(repr=False)
    duration_ns: float = 0.0
    drain: bool = True
    max_drain_ns: Optional[float] = None
    #: Optional per-switch fault projection
    #: (:class:`~repro.faults.schedule.SwitchFaultView`); ``None`` keeps
    #: the exact unfaulted simulation path.
    faults: Optional[object] = None
    #: When True the worker instruments its switch with a fresh
    #: per-switch :class:`~repro.telemetry.MetricsRegistry` and ships
    #: the dump back on ``SwitchReport.telemetry``.  A plain flag (not a
    #: registry object) keeps the unit cheaply picklable; the parent
    #: merges worker dumps in unit-index order, so the aggregate is
    #: byte-identical to a sequential run.
    telemetry: bool = False


def build_switch(
    index: int,
    config,
    options,
    timing,
    faults=None,
    telemetry: bool = False,
    latency_sample_cap: Optional[int] = None,
):
    """One live switch of the router, ready to simulate.

    Instrumented switches get a fresh per-switch
    :class:`~repro.telemetry.MetricsRegistry` behind a
    :class:`~repro.telemetry.SwitchTelemetry` labelled ``switch=index``;
    the registry is reachable as ``switch.telemetry.registry``.  The
    router core and :func:`execute_work_unit` both build their switches
    here, so a switch is built the same way in-process and on the pool.
    """
    from ..core.hbm_switch import HBMSwitch

    switch_telemetry = None
    if telemetry:
        from ..telemetry import MetricsRegistry, SwitchTelemetry

        switch_telemetry = SwitchTelemetry(MetricsRegistry(), config, index)
    return HBMSwitch(
        config,
        options,
        timing,
        faults=faults,
        telemetry=switch_telemetry,
        latency_sample_cap=latency_sample_cap,
    )


def execute_work_unit(unit: SwitchWorkUnit):
    """Run one unit to completion; returns ``(index, SwitchReport)``.

    Module-level (not a closure or method) so it pickles for worker
    processes regardless of the multiprocessing start method.
    """
    switch = build_switch(
        unit.index,
        unit.config,
        unit.options,
        unit.timing,
        faults=unit.faults,
        telemetry=unit.telemetry,
    )
    report = switch.run(
        list(unit.packets),
        unit.duration_ns,
        drain=unit.drain,
        max_drain_ns=unit.max_drain_ns,
    )
    if switch.telemetry is not None:
        report.telemetry = switch.telemetry.registry.to_dict()
    return unit.index, report


def resolve_worker_count(n_workers: Optional[int], n_units: int) -> int:
    """Effective pool size: requested (or CPU count), capped at the
    number of units -- idle workers only cost startup time."""
    if n_units <= 0:
        return 0
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers <= 0:
        raise ConfigError(f"n_workers must be positive, got {n_workers}")
    return min(n_workers, n_units)


def run_work_units(
    units: Sequence[SwitchWorkUnit],
    n_workers: Optional[int] = None,
    executor_factory: Callable[..., ProcessPoolExecutor] = ProcessPoolExecutor,
) -> List:
    """Execute every unit and return reports ordered by position in
    ``units`` (NOT by completion time -- the merge is deterministic).

    Fans out over a process pool when it can help; runs inline when a
    pool cannot beat sequential execution (one unit or one worker).
    """
    workers = resolve_worker_count(n_workers, len(units))
    if workers <= 1:
        return [execute_work_unit(unit)[1] for unit in units]
    by_index = {}
    with executor_factory(max_workers=workers) as pool:
        for index, report in pool.map(execute_work_unit, units):
            by_index[index] = report
    return [by_index[unit.index] for unit in units]


def run_parallel_tasks(
    fn: Callable,
    items: Sequence,
    n_workers: Optional[int] = None,
    executor_factory: Callable[..., ProcessPoolExecutor] = ProcessPoolExecutor,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List:
    """Order-preserving parallel map with the same worker policy as
    :func:`run_work_units`.

    ``fn`` must be a module-level callable and every item picklable --
    the contract worker processes impose.  With one worker (or one item)
    everything runs inline, which is also the fallback on platforms
    without working multiprocessing.  Fault-injection campaigns
    (:mod:`repro.faults.campaign`) fan whole faulted router runs out
    through this: the parallelism is *between* independent scenarios,
    so each worker still simulates its scenario sequentially and
    deterministically.

    ``on_result(index, result)`` is invoked in the parent, in input
    order, as each result becomes available (inline: after each item;
    pool: as the ordered result stream drains).  The scenario runtime
    checkpoints sweep cells through this hook, so a killed run keeps
    every cell that finished before the kill.
    """
    items = list(items)
    workers = resolve_worker_count(n_workers, len(items))
    if workers <= 1:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    results = []
    with executor_factory(max_workers=workers) as pool:
        for index, result in enumerate(pool.map(fn, items)):
            if on_result is not None:
                on_result(index, result)
            results.append(result)
    return results
