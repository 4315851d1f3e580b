"""The Split-Parallel Switch: the top-level router (Fig. 1).

SPS spatially splits each ribbon's F fibers across H *independent* HBM
switches -- no electronic load balancing, no inter-switch coordination,
one O/E/O conversion per packet.  Because the switches share nothing,
the router simulation is H independent switch simulations plus the
(passive) fiber-to-switch assignment, which is exactly how the real
device would behave.

Upstream routers hash flows across the fibers of a bundle (ECMP/LAG), so
a flow arrives on one fiber, lands in one switch, and can never be
reordered by the split -- a property :func:`assign_fibers` preserves by
hashing on the 5-tuple.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import RouterConfig
from ..errors import ConfigError
from ..hbm.timing import HBMTiming
from ..photonics.oeo import OEOConverter
from ..sim.parallel import SwitchWorkUnit, build_switch, run_work_units
from ..traffic.ecmp import hash_to_choice
from ..traffic.flows import FiveTuple
from ..traffic.packet import Packet
from ..units import bytes_per_ns_to_rate
from .fiber_split import FiberSplitter, PseudoRandomSplitter, split_imbalance
from .hbm_switch import SwitchReport
from .pfi import PFIOptions

#: Execution modes of :meth:`SplitParallelSwitch.run`.
RUN_MODES = ("sequential", "parallel", "auto")


def assign_fibers(packets: Sequence[Packet], n_fibers: int, salt: int = 0xECA) -> List[int]:
    """Pick the arrival fiber of each packet by upstream ECMP/LAG hash.

    Flow-stable: all packets of a flow use the same fiber, so the split
    cannot reorder a flow.
    """
    if n_fibers <= 0:
        raise ConfigError(f"n_fibers must be positive, got {n_fibers}")
    # Packets of a flow repeat its hash: compute it once per flow.
    memo: Dict[FiveTuple, int] = {}
    lookup = memo.get
    fibers = []
    append = fibers.append
    for packet in packets:
        flow = packet.flow
        fiber = lookup(flow)
        if fiber is None:
            fiber = memo[flow] = hash_to_choice(flow, n_fibers, salt)
        append(fiber)
    return fibers


@dataclass
class RouterReport:
    """Aggregate of the H independent switch runs.

    ``failed_switches`` lists switches injected as dead for the whole
    run (SS 2.2 *Modularity*: switches share nothing, so a failure costs
    exactly the traffic of its fibers -- 1/H of capacity -- and nothing
    else).  ``failed_offered_bytes`` is the traffic that arrived on a
    dead switch's fibers and was lost; ``fault_lost_bytes`` is traffic
    lost to other split-level faults (fiber cuts) and ``fault_events``
    describes the injected schedule, if any.
    """

    switch_reports: List[SwitchReport]
    per_switch_offered_bytes: List[int]
    duration_ns: float
    failed_switches: List[int] = field(default_factory=list)
    failed_offered_bytes: int = 0
    fault_lost_bytes: int = 0
    fault_events: List[str] = field(default_factory=list)
    #: Merged telemetry dump of the whole run (split-level series plus
    #: every switch's registry, merged in switch-index order), or
    #: ``None`` for uninstrumented runs.
    telemetry: Optional[Dict] = None

    @property
    def offered_bytes(self) -> int:
        """All traffic that reached the package, including traffic lost
        on failed switches' fibers and on cut fibers."""
        return (
            sum(r.offered_bytes for r in self.switch_reports)
            + self.failed_offered_bytes
            + self.fault_lost_bytes
        )

    @property
    def delivered_bytes(self) -> int:
        return sum(r.delivered_bytes for r in self.switch_reports)

    @property
    def dropped_bytes(self) -> int:
        return sum(r.dropped_bytes for r in self.switch_reports)

    @property
    def residual_bytes(self) -> int:
        """Payload still queued inside the surviving switches."""
        return sum(r.residual_bytes for r in self.switch_reports)

    @property
    def lost_bytes(self) -> int:
        """Every byte that entered the package and will never leave it:
        in-switch drops plus split-level losses (dead switches' fibers,
        cut fibers).  Complements :attr:`residual_bytes`:
        offered = delivered + lost + residual."""
        return self.dropped_bytes + self.failed_offered_bytes + self.fault_lost_bytes

    @property
    def throughput_bps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return bytes_per_ns_to_rate(self.delivered_bytes / self.duration_ns)

    @property
    def delivery_fraction(self) -> float:
        if self.offered_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    @property
    def delivered_fraction(self) -> float:
        """Delivered bytes over *total* offered bytes.

        The denominator is the symmetric total -- surviving-switch
        offered + ``failed_offered_bytes`` + ``fault_lost_bytes`` --
        i.e. exactly the byte population that :attr:`loss_fraction`
        draws from, so ``delivered_fraction + loss_fraction +
        residual/offered == 1`` holds by construction.
        """
        if self.offered_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    @property
    def loss_fraction(self) -> float:
        """Lost bytes over total offered bytes (same denominator as
        :attr:`delivered_fraction` -- the accounting is symmetric)."""
        if self.offered_bytes <= 0:
            return 0.0
        return self.lost_bytes / self.offered_bytes

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean of per-switch offered load (1.0 = perfect)."""
        return split_imbalance(np.asarray(self.per_switch_offered_bytes, dtype=float))

    @property
    def ordering_violations(self) -> int:
        return sum(r.ordering_violations for r in self.switch_reports)

    def latency_summary(self) -> Dict[str, float]:
        """Combined latency view: exact for mean/max (count-weighted),
        approximate for percentiles (reports carry summaries, not raw
        samples; benches that need exact percentiles read per switch)."""
        # Switches that delivered nothing carry NaN latencies and a 0
        # count; only the populated ones contribute to the roll-up.
        populated = [r for r in self.switch_reports if r.latency["count"] > 0]
        counts = sum(r.latency["count"] for r in populated)
        if counts == 0:
            nan = float("nan")
            return {
                "count": 0.0,
                "mean_ns": nan,
                "p50_ns": nan,
                "p99_ns": nan,
                "max_ns": nan,
            }
        mean = (
            sum(r.latency["mean_ns"] * r.latency["count"] for r in populated)
            / counts
        )
        return {
            "count": counts,
            "mean_ns": mean,
            "p50_ns": float(np.median([r.latency["p50_ns"] for r in populated])),
            "p99_ns": max(r.latency["p99_ns"] for r in populated),
            "max_ns": max(r.latency["max_ns"] for r in populated),
        }

    def stage_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-pipeline-stage latency roll-up from the telemetry dump.

        ``{stage: {count, mean_ns, p50_ns, p99_ns}}`` over the span
        taxonomy of :data:`repro.telemetry.STAGES`; empty dict when the
        run was not instrumented.
        """
        if self.telemetry is None:
            return {}
        from ..telemetry import MetricsRegistry, stage_summaries

        return stage_summaries(MetricsRegistry.from_dict(self.telemetry))


class SplitParallelSwitch:
    """The petabit router: H parallel HBM switches behind a fiber split."""

    def __init__(
        self,
        config: RouterConfig,
        splitter: Optional[FiberSplitter] = None,
        options: PFIOptions = PFIOptions(),
        timing: Optional[HBMTiming] = None,
    ) -> None:
        self.config = config
        self.options = options
        self.timing = timing
        self.splitter = (
            splitter
            if splitter is not None
            else PseudoRandomSplitter(config.fibers_per_ribbon, config.n_switches)
        )
        if self.splitter.n_fibers != config.fibers_per_ribbon:
            raise ConfigError(
                f"splitter covers {self.splitter.n_fibers} fibers, router has "
                f"{config.fibers_per_ribbon}"
            )
        if self.splitter.n_switches != config.n_switches:
            raise ConfigError(
                f"splitter targets {self.splitter.n_switches} switches, router "
                f"has {config.n_switches}"
            )
        self.oeo = OEOConverter()
        # Cache assignments: ribbon -> fiber -> switch.
        self._assignments = [
            self.splitter.assignment(r) for r in range(config.n_ribbons)
        ]

    def switch_for(self, ribbon: int, fiber: int) -> int:
        """Which HBM switch serves (ribbon, fiber)."""
        if not 0 <= ribbon < self.config.n_ribbons:
            raise ConfigError(f"ribbon {ribbon} out of range")
        if not 0 <= fiber < self.config.fibers_per_ribbon:
            raise ConfigError(f"fiber {fiber} out of range")
        return self._assignments[ribbon][fiber]

    def partition_packets(
        self, packets: Sequence[Packet], fibers: Sequence[int]
    ) -> List[List[Packet]]:
        """Split a packet stream into per-switch streams by arrival fiber."""
        if len(packets) != len(fibers):
            raise ConfigError("packets and fibers must align")
        per_switch: List[List[Packet]] = [[] for _ in range(self.config.n_switches)]
        # switch_for's lookup and range checks, on local state.
        appends = [queue.append for queue in per_switch]
        assignments = self._assignments
        n_ribbons = self.config.n_ribbons
        n_fibers = self.config.fibers_per_ribbon
        for packet, fiber in zip(packets, fibers):
            ribbon = packet.input_port
            if not 0 <= ribbon < n_ribbons:
                raise ConfigError(f"ribbon {ribbon} out of range")
            if not 0 <= fiber < n_fibers:
                raise ConfigError(f"fiber {fiber} out of range")
            appends[assignments[ribbon][fiber]](packet)
        return per_switch

    def run(
        self,
        packets: Sequence[Packet],
        duration_ns: float,
        fibers: Optional[Sequence[int]] = None,
        drain: bool = True,
        mode: str = "sequential",
        n_workers: Optional[int] = None,
        fault_schedule=None,
        telemetry=None,
        control=None,
    ) -> RouterReport:
        """Simulate the whole router.

        ``fibers[i]`` is packet i's arrival fiber within its ribbon; by
        default fibers are chosen by upstream ECMP hash.  The H switches
        are simulated independently (they share nothing), each fed its
        split of the traffic.

        ``fault_schedule`` (a :class:`~repro.faults.FaultSchedule`)
        injects faults.  Whole-run switch deaths lose their traffic at
        the (passive) split and the survivors run exactly as before --
        the modularity/fault-isolation property of SS 2.2; pass
        ``FaultSchedule.from_failed_switches(...)`` for that degenerate
        case.  Windowed deaths / HBM channel losses / OEO degradations
        are handed to the affected switches as per-switch views, and
        fiber cuts filter their traffic at the split into
        ``fault_lost_bytes``.  An empty (or ``None``) schedule leaves
        every simulation path bit-identical to an unfaulted run.

        ``mode`` selects how the H independent simulations execute:

        - ``"sequential"`` (default): the router core in this process,
          fed ``packets`` as one chunk -- the caller's packet objects
          are simulated in place, so ``departure_ns`` is written back.
        - ``"parallel"``: the core's split, then each live switch's
          share fanned out over a process pool of ``n_workers``
          (default: CPU count) via :mod:`repro.sim.parallel`.  Reports
          are merged in switch-index order, so the result is
          byte-identical to sequential mode; the caller's packet
          objects are, however, simulated as copies (``departure_ns``
          is not written back).
        - ``"auto"``: parallel when it can help (several switches and
          several CPUs), sequential otherwise.

        ``telemetry`` (a :class:`~repro.telemetry.MetricsRegistry`)
        instruments the whole pipeline: split-level series are recorded
        here, each live switch runs with its own per-switch registry
        (in *both* modes -- workers ship dumps back on their reports),
        and the dumps are merged into ``telemetry`` in switch-index
        order.  Because per-switch series never overlap and the merge
        order is fixed, parallel and sequential runs of the same
        workload produce byte-identical dumps.  The merged dump is also
        stored on :attr:`RouterReport.telemetry`.

        ``control`` (a :class:`~repro.control.ControlLoop`) closes the
        control loop inside the router core (see :meth:`_run_chunks`).
        The loop reads the switches as they run, so a closed-loop run
        always takes the in-process core whatever ``mode`` says --
        sequential == parallel by construction.
        """
        if mode not in RUN_MODES:
            raise ConfigError(f"mode must be one of {RUN_MODES}, got {mode!r}")
        split = _Split(self, fault_schedule, telemetry)
        if control is not None:
            mode = "sequential"
        elif mode == "auto":
            workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
            parallel = len(split.live) > 1 and workers > 1
            mode = "parallel" if parallel else "sequential"
        if fibers is None:
            fibers = assign_fibers(packets, self.config.fibers_per_ribbon)
        if mode == "sequential":
            return self._run_chunks(
                split,
                [(packets, fibers, duration_ns)],
                duration_ns,
                drain,
                control=control,
            )
        per_switch = split.split(packets, fibers)
        units = [
            SwitchWorkUnit(
                index=h,
                config=self.config.switch,
                options=self.options,
                timing=self.timing,
                packets=tuple(per_switch[h]),
                duration_ns=duration_ns,
                drain=drain,
                faults=split.view(h),
                telemetry=telemetry is not None,
            )
            for h in split.live
        ]
        return split.report(run_work_units(units, n_workers=n_workers), duration_ns)

    def run_stream(
        self,
        blocks,
        duration_ns: float,
        fibers_fn=None,
        drain: bool = True,
        max_drain_ns: Optional[float] = None,
        fault_schedule=None,
        telemetry=None,
        departure_sink=None,
        latency_sample_cap: Optional[int] = None,
        control=None,
    ) -> RouterReport:
        """Simulate the router from a stream of arrival blocks.

        The bounded-memory ingest path: ``blocks`` is any iterable of
        :class:`~repro.traffic.stream.ArrivalBlock` (typically
        ``source.blocks(duration_ns)``).  Each block is partitioned
        across the H switches and every engine is advanced to the block
        boundary before the next block is pulled, so at most one block
        of packets is ever materialized.  Every block is one chunk of
        the same router core that :meth:`run` feeds its packet list to
        as a single chunk, so reports -- and telemetry dumps -- are
        byte-identical to :meth:`run` on the concatenated packets by
        construction: the engines see the same arrivals and the
        split-level tallies are sums.  The streaming path is inherently
        sequential (the switches advance in lockstep with the source),
        so there is no ``mode`` knob here.

        ``fibers_fn(packets, block)`` supplies per-packet arrival
        fibers for one block (default: the upstream ECMP hash of
        :func:`assign_fibers` -- stateless, so chunking cannot change
        it; stateful policies carry their cursors in a closure).

        ``departure_sink(packet)`` fires per delivered packet at
        departure-stamp time on every switch -- the streaming
        degradation path bins delivered bytes here.
        ``latency_sample_cap`` bounds retained latency samples per
        output port (see :class:`~repro.sim.stats.LatencyRecorder`);
        both default to off, keeping the bit-exact historical path.
        ``control`` closes the control loop, as in :meth:`run`.
        """
        split = _Split(self, fault_schedule, telemetry)
        n_fibers = self.config.fibers_per_ribbon

        def chunks():
            for block in blocks:
                packets = block.to_packets()
                fibers = (
                    fibers_fn(packets, block)
                    if fibers_fn is not None
                    else assign_fibers(packets, n_fibers)
                )
                yield packets, fibers, min(block.end_ns, duration_ns)

        return self._run_chunks(
            split,
            chunks(),
            duration_ns,
            drain,
            max_drain_ns=max_drain_ns,
            departure_sink=departure_sink,
            latency_sample_cap=latency_sample_cap,
            control=control,
        )

    def _run_chunks(
        self,
        split: "_Split",
        chunks: Iterable[Tuple[Sequence[Packet], Sequence[int], float]],
        duration_ns: float,
        drain: bool,
        max_drain_ns: Optional[float] = None,
        departure_sink=None,
        latency_sample_cap: Optional[int] = None,
        control=None,
    ) -> RouterReport:
        """The router core: split each ``(packets, fibers, boundary_ns)``
        chunk, step every live switch to the chunk's boundary, then
        finish, drain and report.

        Within a chunk one switch is offered its share and advanced
        before the next is offered: the switches are independent, so
        each one's events are unchanged, and only one switch's arrival
        cursor is held at a time.

        With a ``control`` loop the chunks are further cut at the
        control ticks (:class:`~repro.control.packet.SplitControl`):
        each tick reads the switches stepped to it, and the next piece
        is reweighted and thinned just before the split.
        """
        closed = None
        if control is not None:
            from ..control.packet import SplitControl

            closed = SplitControl(control, self, duration_ns)
            # A closing empty chunk fires the ticks past the last block.
            chunks = itertools.chain(chunks, [((), (), duration_ns)])
        switches = [
            build_switch(
                h,
                self.config.switch,
                self.options,
                self.timing,
                faults=split.view(h),
                telemetry=split.telemetry is not None,
                latency_sample_cap=latency_sample_cap,
            )
            for h in split.live
        ]
        for switch in switches:
            if departure_sink is not None:
                for output in switch.outputs:
                    output.departure_sink = departure_sink
            switch.stream_begin()
        for chunk in chunks:
            pieces = [(*chunk, None)] if closed is None else closed.pieces(*chunk)
            for packets, fibers, boundary_ns, tick_ns in pieces:
                per_switch = split.split(packets, fibers)
                for h, switch in zip(split.live, switches):
                    switch.stream_offer(per_switch[h], duration_ns)
                    switch.stream_advance(boundary_ns)
                if tick_ns is not None:
                    closed.tick(tick_ns, split, switches)
        if closed is not None:
            closed.finish(duration_ns)
        reports: List[SwitchReport] = []
        for switch in switches:
            report = switch.stream_finish(duration_ns, drain, max_drain_ns)
            if switch.telemetry is not None:
                report.telemetry = switch.telemetry.registry.to_dict()
            reports.append(report)
        return split.report(reports, duration_ns)


class _Split:
    """The passive fiber split of one router run, with its tallies.

    Every ingest route shares it: the fault schedule is normalised and
    its windows tagged once, each chunk of traffic goes through
    :meth:`split` (fiber-cut filtering, partitioning, per-switch offered
    bytes, split telemetry), and :meth:`report` turns the live
    switches' reports into the :class:`RouterReport`.  Whole-run dead
    switches are never built: their traffic dies at the split.
    """

    def __init__(self, router: SplitParallelSwitch, fault_schedule, telemetry) -> None:
        config = router.config
        schedule = fault_schedule
        if schedule is not None:
            schedule.validate(config)
            if schedule.is_empty:
                schedule = None
        if telemetry is not None:
            router.oeo.attach_telemetry(telemetry)
            if schedule is not None:
                from ..telemetry import tag_fault_windows

                tag_fault_windows(telemetry, schedule)
        self.router = router
        self.schedule = schedule
        self.telemetry = telemetry
        self.dead = (
            frozenset(schedule.whole_run_dead_switches())
            if schedule is not None
            else frozenset()
        )
        #: Indices of the switches that run, in switch-index order.
        self.live = [h for h in range(config.n_switches) if h not in self.dead]
        self.offered = [0] * config.n_switches
        self.fault_lost = 0
        self._cut_lost: Dict[tuple, int] = {}

    def view(self, h: int):
        """Switch ``h``'s slice of the schedule (``None`` unfaulted)."""
        if self.schedule is None:
            return None
        return self.schedule.switch_view(h, self.router.config.switch.total_channels)

    def split(
        self, packets: Sequence[Packet], fibers: Sequence[int]
    ) -> List[List[Packet]]:
        """One chunk through the split: per-switch packet lists."""
        schedule = self.schedule
        telemetry = self.telemetry
        if schedule is not None and schedule.has_fiber_cuts:
            # A cut fiber's traffic never reaches the package: filter it
            # at the (passive) split, before partitioning.
            kept_packets: List[Packet] = []
            kept_fibers: List[int] = []
            cut_lost = self._cut_lost
            for packet, fiber in zip(packets, fibers):
                if schedule.fiber_cut_active(
                    packet.input_port, fiber, packet.arrival_ns
                ):
                    self.fault_lost += packet.size_bytes
                    if telemetry is not None:
                        key = (packet.input_port, fiber)
                        cut_lost[key] = cut_lost.get(key, 0) + packet.size_bytes
                else:
                    kept_packets.append(packet)
                    kept_fibers.append(fiber)
            packets, fibers = kept_packets, kept_fibers
        per_switch = self.router.partition_packets(packets, fibers)
        for h, share in enumerate(per_switch):
            self.offered[h] += sum(p.size_bytes for p in share)
            if telemetry is not None:
                # The split is passive (0 ns); the observable is the
                # per-switch packet count -- the load balance of E10.
                # Per-chunk increments sum to the one-chunk values (the
                # registry dump is value-sorted, never insertion-ordered).
                telemetry.histogram(
                    "repro_stage_latency_ns",
                    "passive fiber-split assignment (count = per-switch load)",
                    stage="split", switch=str(h),
                ).observe_n(0.0, len(share))
                # Time-resolved view of the same split: offered bytes per
                # window per switch, recorded at the (passive) split
                # point so dead switches' offered load shows up too.
                split_series = telemetry.timeseries(
                    "repro_split_window_bytes",
                    "offered bytes per window at the fiber split",
                    switch=str(h),
                )
                for packet in share:
                    split_series.observe(packet.arrival_ns, packet.size_bytes)
        return per_switch

    def report(self, reports: List[SwitchReport], duration_ns: float) -> RouterReport:
        """Assemble the run's :class:`RouterReport` from the live
        switches' reports, in switch-index order."""
        telemetry = self.telemetry
        dead = sorted(self.dead)
        if telemetry is not None:
            from ..telemetry import record_fault_loss

            for (ribbon, fiber), n_bytes in sorted(self._cut_lost.items()):
                record_fault_loss(telemetry, "fiber", f"{ribbon}/{fiber}", n_bytes)
            for h in dead:
                record_fault_loss(telemetry, "switch", str(h), self.offered[h])
        for report in reports:
            # One O/E + one E/O per bit through a switch (the SPS property).
            self.router.oeo.convert(
                8.0 * (report.offered_bytes + report.delivered_bytes)
            )
        telemetry_dump = None
        if telemetry is not None:
            # Per-switch registries merge in switch-index order whichever
            # way the switches ran, so the aggregate dump is
            # byte-identical in-process, streamed or on the pool.
            for report in reports:
                if report.telemetry is not None:
                    telemetry.merge_dict(report.telemetry)
            telemetry_dump = telemetry.to_dict()
        return RouterReport(
            switch_reports=reports,
            per_switch_offered_bytes=self.offered,
            duration_ns=duration_ns,
            failed_switches=dead,
            failed_offered_bytes=sum(self.offered[h] for h in dead),
            fault_lost_bytes=self.fault_lost,
            fault_events=(
                self.schedule.describe() if self.schedule is not None else []
            ),
            telemetry=telemetry_dump,
        )
