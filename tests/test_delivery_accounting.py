"""Pinned digests of the packet pipeline's delivery accounting.

Every per-delivered-packet quantity -- departure stamps, egress lanes,
latency samples and their stage breakdown, telemetry series -- feeds the
reports hashed here.  The digests were recorded from the per-sample
accounting path (one ``LatencyRecorder.record`` per packet and stage);
any change to how those samples are gathered must reproduce them bit
for bit.  The ingest pins (:class:`TestIngestPins`) were recorded before
packet and flow construction, fiber hashing, partitioning and the SRAM
occupancy bookkeeping were cut down to the work their outputs need.
"""

import hashlib
import json

from repro.config import scaled_router
from repro.core import HBMSwitch, PFIOptions, SplitParallelSwitch, output_port
from repro.faults import FaultSchedule, FiberCut, OEODegradation, SwitchFailure
from repro.reporting import report_to_dict
from repro.telemetry import MetricsRegistry, SwitchTelemetry
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix
from repro.traffic.stream import workload_source

DURATION_NS = 12_000.0

STREAM_REPORT = "a9253f07fb53da52c80ebf48c1ca74621454ab3c589bf60cf197d482ee1daa52"
STREAM_DEPARTURES = "22541c0da57fb28a2689def4dd6ccc1033b0883c290d6bc9c0b684afd5c3c0ce"
CAPPED_REPORT = "9431df496238809a009e78713db849c6ce965788ea9c873b730d38e420cd537b"
SWITCH = {
    "report": "c17028b89c5c4ea506652670dc292b1960c5a3a2f2fb92588a4e0ec82b8b388a",
    "lanes": "3b1e19e60b2d57e86b3012bae8082f6ae24f4373b4046827f68be831ec4039cf",
    "stamps": "1e12ad546c2fccbf949ef55ffff97e764e721f7ad99ff4c0425389e6918afb27",
    "telemetry": "c3b6d63ea358f1907f67b84f4012dd3307b27c4037a1cbb9b9d2ca4bc5edace1",
}
EAGER_CUT = {
    "report": "2efe974d1773f8d7574d6fc9f104ef954e6d099d03e15a6ad7953c4ed5532267",
    "stamps": "66b3db90124631928a11f49f16fda23d95064f94439cf9988e9a35d815a4f50b",
}
PARETO_DROPS = {
    "report": "7d4230e16f357b2e3604ec22c17f42c427e92fce273929871e80bb01f2c822f5",
    "departures": "ad4627dfa0c9cf45780e14aaef8eb7cc271b04e1c5b94fe9cf5155c693379485",
}

SCHEDULE = FaultSchedule([
    OEODegradation(switch=0, rate_factor=0.6, start_ns=2_000.0, end_ns=9_000.0),
    SwitchFailure(switch=1, start_ns=4_000.0, end_ns=7_000.0),
])


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _router_generator(config, seed=21):
    return TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, 0.8),
        size_dist=FixedSize(64),
        seed=seed,
    )


def _streamed_router(latency_sample_cap=None):
    """A 64 B router cell on the streaming degradation path."""
    config = scaled_router()
    departures = []

    def sink(packet):
        departures.append(
            (packet.pid, packet.departure_ns, packet.size_bytes)
        )

    registry = MetricsRegistry()
    report = SplitParallelSwitch(config, options=PFIOptions()).run_stream(
        _router_generator(config).blocks(DURATION_NS),
        DURATION_NS,
        fault_schedule=SCHEDULE,
        telemetry=registry,
        departure_sink=sink,
        latency_sample_cap=latency_sample_cap,
    )
    return report, departures


class TestRouterReportDigest:
    def test_streamed_faulted_router_report(self):
        report, departures = _streamed_router()
        assert report.delivered_bytes > 0
        assert report.telemetry is not None
        assert _digest(report_to_dict(report)) == STREAM_REPORT
        assert _digest(departures) == STREAM_DEPARTURES

    def test_capped_reservoir_router_report(self):
        report, _ = _streamed_router(latency_sample_cap=500)
        assert _digest(report_to_dict(report)) == CAPPED_REPORT


def _degraded_switch():
    """Digests of an OEO-degraded, instrumented switch's eager run."""
    config = scaled_router()
    registry = MetricsRegistry()
    switch = HBMSwitch(
        config.switch,
        PFIOptions(),
        faults=SCHEDULE.switch_view(0, config.switch.total_channels),
        telemetry=SwitchTelemetry(registry, config.switch, 0),
    )
    generator = TrafficGenerator(
        n_ports=config.switch.n_ports,
        port_rate_bps=config.switch.port_rate_bps,
        matrix=uniform_matrix(config.switch.n_ports, 0.8),
        size_dist=FixedSize(64),
        seed=5,
    )
    packets = generator.materialize(DURATION_NS)
    report = switch.run(packets, DURATION_NS)
    lanes = [
        sorted([list(lane), nbytes] for lane, nbytes in o.lane_bytes.items())
        for o in switch.outputs
    ]
    stamped = [
        (p.pid, p.departure_ns, p.fiber, p.wavelength) for p in packets
    ]
    return {
        "report": _digest(report_to_dict(report)),
        "lanes": _digest(lanes),
        "stamps": _digest(stamped),
        "telemetry": _digest(registry.to_dict()),
    }


class TestSwitchLaneDigest:
    def test_degraded_switch_lanes_and_breakdown(self):
        assert _degraded_switch() == SWITCH


class TestFlushChunking:
    """Flushing the deferred accounting in small chunks mid-run (the
    bounded-memory path of long runs) changes nothing."""

    def test_switch(self, monkeypatch):
        monkeypatch.setattr(output_port, "FLUSH_PACKETS", 7)
        assert _degraded_switch() == SWITCH

    def test_capped_router(self, monkeypatch):
        monkeypatch.setattr(output_port, "FLUSH_PACKETS", 7)
        report, _ = _streamed_router(latency_sample_cap=500)
        assert _digest(report_to_dict(report)) == CAPPED_REPORT


def _eager_cut_router():
    """Digests of an eager 64 B router run with a windowed fiber cut.

    Covers ``materialize``, :func:`assign_fibers`, the cut filter and
    ``partition_packets`` on the eager path, with telemetry on.
    """
    config = scaled_router()
    packets = _router_generator(config, seed=33).materialize(DURATION_NS)
    schedule = FaultSchedule([
        FiberCut(ribbon=1, fiber=3, start_ns=3_000.0, end_ns=8_000.0),
        FiberCut(ribbon=2, fiber=0, start_ns=6_000.0, end_ns=10_000.0),
    ])
    registry = MetricsRegistry()
    report = SplitParallelSwitch(config, options=PFIOptions()).run(
        packets, DURATION_NS, fault_schedule=schedule, telemetry=registry,
    )
    assert report.fault_lost_bytes > 0
    stamped = [
        (p.pid, p.departure_ns, p.fiber, p.wavelength) for p in packets
    ]
    return {
        "report": _digest(report_to_dict(report)),
        "stamps": _digest(stamped),
    }


def _streamed_pareto_drops():
    """Digests of a streamed Pareto 1500 B router cell that drops at
    both the input SRAM and the tail SRAM."""
    config = scaled_router()
    duration_ns = 50_000.0
    source = workload_source(
        "pareto",
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        load=0.95,
        seed=1,
        duration_ns=duration_ns,
    )
    departures = []

    def sink(packet):
        departures.append(
            (packet.pid, packet.departure_ns, packet.size_bytes)
        )

    registry = MetricsRegistry()
    report = SplitParallelSwitch(config, options=PFIOptions()).run_stream(
        source.blocks(duration_ns),
        duration_ns,
        telemetry=registry,
        departure_sink=sink,
    )
    reasons = set()
    for switch_report in report.switch_reports:
        reasons.update(switch_report.drops_by_reason)
    assert reasons == {"input-sram-overflow", "tail-sram-overflow"}
    return {
        "report": _digest(report_to_dict(report)),
        "departures": _digest(departures),
    }


class TestIngestPins:
    """Front-end and drop-path pins: packet construction, fiber
    hashing, the fiber-cut filter, partitioning and both SRAM drop
    paths."""

    def test_eager_fiber_cut_router(self):
        assert _eager_cut_router() == EAGER_CUT

    def test_streamed_pareto_with_drops(self):
        assert _streamed_pareto_drops() == PARETO_DROPS
