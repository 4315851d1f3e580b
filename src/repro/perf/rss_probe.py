"""Peak-RSS probe for the streaming traffic substrate.

The bounded-memory claim behind :class:`~repro.traffic.stream.TrafficSource`
is a *process*-level property: a 10x larger offered workload streamed
block by block through one switch must not move the resident set, while
the eager ``materialize()`` path grows linearly with the packet count.
``ru_maxrss`` is a lifetime high-water mark, so two measurements taken
inside one interpreter would only ever see the larger of the two -- each
probe therefore runs in its own interpreter and reports a small JSON
document on stdout.

Run directly for one measurement::

    python -m repro.perf.rss_probe --target-packets 1000000 --mode stream

The probe calibrates the simulated duration from a short generation-only
pilot (packets per nanosecond of the seeded source), so ``--target-packets``
is an offered-count floor, not an estimate.  ``--mode eager`` materializes
the same workload into a list first -- the contrast case; keep its target
small enough for the host.  The per-output latency reservoirs are capped
(:class:`~repro.sim.stats.LatencyRecorder`), otherwise delivered-packet
samples would grow the resident set and mask the substrate's flatness.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, Optional

#: Packets-per-output retained by the latency reservoir during probes.
#: Large enough for stable percentiles, small enough that sample storage
#: cannot be confused with traffic-substrate growth.
PROBE_LATENCY_CAP = 4096

#: Simulated span of the generation-only calibration pilot.
PILOT_NS = 100_000.0


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set, in bytes (0 if the
    platform has no ``resource`` module)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024


def run_probe(
    target_packets: int,
    mode: str = "stream",
    workload: str = "pareto",
    load: float = 0.8,
    seed: int = 0,
    block_ns: Optional[float] = None,
) -> Dict[str, Any]:
    """Offer at least ``target_packets`` through one switch; report RSS.

    ``stream`` consumes the source block by block via
    :meth:`~repro.core.hbm_switch.HBMSwitch.run_stream`; ``eager``
    materializes the full packet list first and feeds the classic
    :meth:`run` -- identical simulation, unbounded staging memory.
    """
    from ..config import scaled_router
    from ..core import PFIOptions
    from ..core.hbm_switch import HBMSwitch
    from ..errors import ConfigError
    from ..traffic import DEFAULT_BLOCK_NS, workload_source

    if target_packets <= 0:
        raise ConfigError(
            f"target_packets must be positive, got {target_packets}"
        )
    if mode not in ("stream", "eager"):
        raise ConfigError(f"mode must be stream or eager, got {mode!r}")
    span = block_ns if block_ns is not None else DEFAULT_BLOCK_NS
    config = scaled_router().switch

    def source(duration_ns: float):
        return workload_source(
            workload,
            n_ports=config.n_ports,
            port_rate_bps=config.port_rate_bps,
            load=load,
            seed=seed,
            duration_ns=duration_ns,
        )

    # Generation-only pilot: packets per simulated nanosecond of this
    # exact (workload, load, seed) source, so the calibrated duration
    # offers >= target_packets without materializing anything.
    pilot = sum(len(b) for b in source(PILOT_NS).blocks(PILOT_NS, span))
    if pilot == 0:
        raise ConfigError(
            f"workload {workload!r} generated no packets in the pilot"
        )
    duration_ns = PILOT_NS * (target_packets / pilot) * 1.02

    switch = HBMSwitch(
        config,
        PFIOptions(padding=True, bypass=True),
        latency_sample_cap=PROBE_LATENCY_CAP,
    )
    src = source(duration_ns)
    start = time.perf_counter()
    if mode == "stream":
        report = switch.run_stream(src.blocks(duration_ns, span), duration_ns)
    else:
        report = switch.run(src.materialize(duration_ns), duration_ns)
    wall = time.perf_counter() - start
    return {
        "mode": mode,
        "workload": workload,
        "load": load,
        "seed": seed,
        "block_ns": span,
        "target_packets": target_packets,
        "duration_ns": duration_ns,
        "offered_packets": report.offered_packets,
        "offered_bytes": report.offered_bytes,
        "delivered_bytes": report.delivered_bytes,
        "delivery_fraction": report.delivery_fraction,
        "wall_s": wall,
        "packets_per_sec": report.offered_packets / wall if wall > 0 else 0.0,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="peak-RSS probe: one streamed/eager switch run"
    )
    parser.add_argument("--target-packets", type=int, required=True)
    parser.add_argument(
        "--mode", choices=["stream", "eager"], default="stream"
    )
    parser.add_argument("--workload", type=str, default="pareto")
    parser.add_argument("--load", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--block-ns", type=float, default=None,
        help="block span in ns (default: the substrate default)",
    )
    args = parser.parse_args(argv)
    document = run_probe(
        target_packets=args.target_packets,
        mode=args.mode,
        workload=args.workload,
        load=args.load,
        seed=args.seed,
        block_ns=args.block_ns,
    )
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
