#!/usr/bin/env python3
"""Quickstart: simulate a Split-Parallel Switch router end to end.

Builds a scaled SPS router (same structure as the paper's petabit
reference design: pseudo-random fiber split, H independent HBM switches
running PFI with padding and bypass), pushes admissible IMIX traffic
through it, and prints throughput, latency, loss and ordering results.

Run:  python examples/quickstart.py
"""

from repro import PFIOptions, SplitParallelSwitch, scaled_router
from repro.core.sps import assign_fibers
from repro.reporting import Table
from repro.traffic import ImixSize, TrafficGenerator, uniform_matrix
from repro.units import format_rate, format_time


def main() -> None:
    config = scaled_router()
    print("Router configuration")
    print(f"  ribbons (N):          {config.n_ribbons}")
    print(f"  fibers per ribbon:    {config.fibers_per_ribbon}")
    print(f"  HBM switches (H):     {config.n_switches}")
    print(f"  package ingress:      {format_rate(config.io_per_direction_bps)}")
    print(f"  per-switch memory IO: {format_rate(config.per_switch_io_bps)}")

    # Admissible traffic at 80% load: the matrix entries are fractions of
    # one ribbon's rate; upstream ECMP hashes flows across fibers.
    duration_ns = 50_000.0
    generator = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, 0.8),
        size_dist=ImixSize(),
        seed=7,
        flows_per_pair=256,
    )
    packets = generator.materialize(duration_ns)
    fibers = assign_fibers(packets, config.fibers_per_ribbon)
    print(f"\nGenerated {len(packets)} packets over {format_time(duration_ns)}")

    router = SplitParallelSwitch(config, options=PFIOptions(padding=True, bypass=True))
    report = router.run(packets, duration_ns, fibers=fibers)

    table = Table("Router run", ["metric", "value"])
    table.add("offered", format_rate(8 * report.offered_bytes / duration_ns * 1e9))
    table.add("delivered", f"{report.delivery_fraction:.2%}")
    table.add("dropped bytes", report.dropped_bytes)
    table.add("flow reorderings", report.ordering_violations)
    table.add("per-switch load imbalance", f"{report.load_imbalance:.3f}")
    latency = report.latency_summary()
    table.add("mean latency", format_time(latency["mean_ns"]))
    table.add("p99 latency", format_time(latency["p99_ns"]))
    table.show()

    for h, sub in enumerate(report.switch_reports):
        print(
            f"  switch {h}: {sub.delivered_packets} pkts, "
            f"throughput {sub.normalized_throughput:.2%} of capacity, "
            f"{sub.pfi.frames_written} frames written, "
            f"{sub.pfi.bypassed_frames} bypassed"
        )


if __name__ == "__main__":
    main()
