"""Output port (Fig. 3, stage 6).

Received batches are cut back into variable-length packets, converted to
optical signals, and hashed across the ribbon's alpha fibers x W
wavelengths by flow 5-tuple, as in ECMP/LAG (SS 3.2 step 6).

Transmission is modelled analytically: the port is a single server at
the line rate; a frame's packets depart back-to-back in batch order
(padding is discarded in the cut-back step and consumes no wire time).

Latency accounting is deferred: a transmitted batch appends its
packets' arrival times and its own stage timestamps to flat lists, and
the per-packet latency and breakdown samples are computed from them
with numpy when :attr:`OutputPort.latency` or
:attr:`OutputPort.breakdown` is read (or the lists grow long).  The
samples are the very floats the per-packet computation produced, in
the same order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..config import HBMSwitchConfig
from ..errors import OrderingViolation
from ..sim.stats import LatencyRecorder, ThroughputMeter
from ..traffic.ecmp import EcmpSelector
from ..traffic.flows import FiveTuple
from ..units import rate_to_bytes_per_ns
from .frames import Frame

#: Pending delivered packets that trigger a flush into the recorders;
#: bounds the deferred lists on long (streamed) runs.
FLUSH_PACKETS = 8192

BREAKDOWN_STAGES = ("batch_fill", "frame_fill", "hbm_wait", "egress")


class OutputPort:
    """One of the N output ports of an HBM switch."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        port: int,
        n_fibers: int = 4,
        n_wavelengths: int = 16,
        telemetry=None,
        latency_sample_cap=None,
    ):
        self.config = config
        self.port = port
        #: Optional :class:`~repro.telemetry.SwitchTelemetry`; the drain
        #: span is recorded per transmitted batch when attached.
        self.telemetry = telemetry
        self._rate = rate_to_bytes_per_ns(config.port_rate_bps)
        self._busy_until = 0.0
        self.ecmp = EcmpSelector(n_fibers, n_wavelengths)
        self.throughput = ThroughputMeter()
        #: ``latency_sample_cap`` bounds the retained latency samples
        #: (seeded reservoir) for internet-scale streaming runs; the
        #: default ``None`` keeps every sample, bit-identical to the
        #: historical recorder.
        self._latency = LatencyRecorder(capacity=latency_sample_cap)
        self._breakdown = {
            stage: LatencyRecorder(capacity=latency_sample_cap)
            for stage in BREAKDOWN_STAGES
        }
        #: Deferred accounting: each delivered packet's arrival time,
        #: and per transmitted batch ``(packets, batch created, frame
        #: created, ready, finish)``.
        self._pending_arrivals: List[float] = []
        self._pending_batches: List[Tuple[int, float, float, float, float]] = []
        #: Optional per-departure callback ``sink(packet)`` fired the
        #: instant a packet's departure time is stamped -- the streaming
        #: degradation path bins delivered bytes here instead of
        #: post-scanning a materialized packet list.
        self.departure_sink = None
        self._flow_last_pid: Dict[FiveTuple, int] = {}
        #: Optional fault hook (:mod:`repro.faults`): maps a timestamp to
        #: the egress-rate factor in (0, 1] -- OEO/laser degradation.
        #: ``None`` keeps the exact nominal-rate path.
        self.rate_factor_fn = None
        self.ordering_violations = 0
        self.padding_discarded_bytes = 0
        #: Bytes sent per (fiber, wavelength) egress lane -- the ECMP
        #: spreading that E10/SS 4 relies on, observable per port.
        self.lane_bytes: Dict[Tuple[int, int], int] = {}

    @property
    def latency(self) -> LatencyRecorder:
        """Per delivered packet: departure minus arrival (ns)."""
        self._flush()
        return self._latency

    @property
    def breakdown(self) -> Dict[str, LatencyRecorder]:
        """Where the nanoseconds go, per delivered packet: time to fill
        its batch, to fill its frame, the HBM round-trip wait, and the
        egress drain.  Components sum to the total latency."""
        self._flush()
        return self._breakdown

    @property
    def busy_until(self) -> float:
        """When the port finishes everything handed to it so far."""
        return self._busy_until

    def transmit_frame(self, frame: Frame, ready_ns: float) -> float:
        """Send a frame's payload onto the wire; returns its finish time.

        Packets depart at the instant their last byte leaves.  Padding
        (batch filler and missing batches of padded frames) is dropped
        at the cut-back step and takes no wire time.
        """
        start = max(ready_ns, self._busy_until)
        cursor = start
        for batch in frame.batches:
            if batch.payload_bytes > 0:
                cursor = self._transmit_batch(batch, cursor, frame, ready_ns)
            self.padding_discarded_bytes += batch.padding_bytes
        # Whole missing batches of a padded frame: pure filler.
        missing = frame.size_bytes - sum(b.size_bytes for b in frame.batches)
        self.padding_discarded_bytes += max(0, missing)
        self._busy_until = cursor
        return cursor

    def _transmit_batch(self, batch, start_ns: float, frame: Frame, ready_ns: float) -> float:
        """Transmit one batch's payload; finalise its completing packets."""
        rate = self._rate
        if self.rate_factor_fn is not None:
            # Degraded OEO: the factor is sampled at batch start (a batch
            # is the atomic wire unit; windows are >> one batch time).
            rate = self._rate * self.rate_factor_fn(start_ns)
        finish = start_ns + batch.payload_bytes / rate
        completing = batch.completing
        if completing:
            # Packets complete in arrival (pid) order within the batch;
            # model their last bytes as spread to the batch end in order.
            sink = self.departure_sink
            select = self.ecmp.select
            lane_bytes = self.lane_bytes
            last_pid = self._flow_last_pid
            arrived = self._pending_arrivals.append
            for packet in completing:
                packet.departure_ns = finish
                if sink is not None:
                    sink(packet)
                flow = packet.flow
                packet.fiber, packet.wavelength = lane = select(flow)
                lane_bytes[lane] = lane_bytes.get(lane, 0) + packet.size_bytes
                arrived(packet.arrival_ns)
                # Flows must not reorder: pids within a flow are monotonic.
                last = last_pid.get(flow)
                if last is not None and packet.pid < last:
                    self.ordering_violations += 1
                else:
                    last_pid[flow] = packet.pid
            self._pending_batches.append(
                (len(completing), batch.created_ns, frame.created_ns, ready_ns, finish)
            )
            if len(self._pending_arrivals) >= FLUSH_PACKETS:
                self._flush()
        self.throughput.record(batch.payload_bytes, finish)
        if self.telemetry is not None:
            # Output drain: wire time of this batch's payload (longer
            # under OEO degradation -- the rate factor is inside).
            self.telemetry.drain.observe(finish - start_ns)
            self.telemetry.packets_out.inc(len(completing))
            self.telemetry.bytes_out.inc(batch.payload_bytes)
            self.telemetry.win_bytes_out.observe(finish, batch.payload_bytes)
        return finish

    def _flush(self) -> None:
        """Turn the deferred timestamps into latency samples.

        Decomposes each packet's latency along the pipeline stages.
        Stage boundaries are the timestamps the objects carry: batch
        completion, frame completion, frame arrival at the head SRAM
        (``ready``), and wire departure (``finish``).  Clamped at zero
        for the rare bypass/padding paths where a later stage's
        timestamp precedes an earlier one's bookkeeping time.
        """
        if not self._pending_arrivals:
            return
        arrival = np.array(self._pending_arrivals)
        per_batch = np.array(self._pending_batches)
        self._pending_arrivals.clear()
        self._pending_batches.clear()
        counts = per_batch[:, 0].astype(np.int64)
        created_batch, created_frame, ready, finish = (
            np.repeat(per_batch[:, k], counts) for k in range(1, 5)
        )
        t_batch = np.maximum(created_batch, arrival)
        t_frame = np.maximum(created_frame, t_batch)
        t_ready = np.maximum(ready, t_frame)
        self._latency.extend(finish - arrival)
        self._breakdown["batch_fill"].extend(t_batch - arrival)
        self._breakdown["frame_fill"].extend(t_frame - t_batch)
        self._breakdown["hbm_wait"].extend(t_ready - t_frame)
        self._breakdown["egress"].extend(np.maximum(finish - t_ready, 0.0))

    def raise_on_reorder(self) -> None:
        """Escalate recorded reorderings (used by integration tests)."""
        if self.ordering_violations:
            raise OrderingViolation(
                f"output {self.port} saw {self.ordering_violations} reordered packets"
            )
