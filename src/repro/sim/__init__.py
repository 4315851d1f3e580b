"""Discrete-event simulation substrate.

A minimal, deterministic event engine shared by the HBM switch, the
baselines and the benches:

- :class:`~repro.sim.engine.Engine` -- an event queue with a monotonic
  clock; events at equal times fire in scheduling order, which keeps runs
  reproducible.
- :mod:`~repro.sim.stats` -- throughput meters, latency recorders with
  percentiles, queue-occupancy trackers and drop counters.
- :mod:`~repro.sim.parallel` -- process-pool fan-out of independent
  switch simulations with a deterministic, bit-identical merge.
"""

from .engine import Engine, Event
from .parallel import (
    SwitchWorkUnit,
    execute_work_unit,
    resolve_worker_count,
    run_work_units,
)
from .stats import (
    DropCounter,
    LatencyRecorder,
    ThroughputMeter,
)
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "Engine",
    "Event",
    "SwitchWorkUnit",
    "execute_work_unit",
    "resolve_worker_count",
    "run_work_units",
    "ThroughputMeter",
    "LatencyRecorder",
    "DropCounter",
    "TraceRecorder",
    "TraceRecord",
]
