"""Benchmark workloads: seeded scenario grids, output checks, statistics.

Every workload is a list of :class:`repro.Scenario` cells generated from
the benchmark seed; the simulator only ever sees those scenarios.  The
same seed always yields the same cells, so the same payloads.

- ``router_64b``: four packet-fidelity router cells of 64 B packets
  (100 us simulated in all), eager
  :class:`~repro.traffic.TrafficGenerator` ingest.  Per-packet cost
  dominates.
- ``router_pareto_stream``: 48 packet-fidelity router cells of
  Pareto mice and elephants (1500 B packets), streamed block by block
  through ``run_stream``.  Batch/frame layers and the drop path carry
  the cost.  Many short cells, because a heavy-tailed cell's statistics
  swing from one seed to the next and only their mean is steady.
- ``flow_campaign``: about 1000 flow-fidelity cells -- open- and
  closed-loop fault cells, burst-synchronised attack cells with
  telemetry, and Clos/expander/rotation fabric cells under direct and
  VLB routing.  Per-cell runtime overhead carries the cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

WORKLOADS = ("router_64b", "router_pareto_stream", "flow_campaign")

#: Float slack allowed on a fraction summed from parts (a sum of
#: per-path shares can land a few ulps above 1).
FRACTION_TOLERANCE = 1e-9

#: Packet-equivalent size used to express flow-fidelity traffic in packets.
FLOW_PACKET_BYTES = 1500

ROUTER_64B_CELLS = 4
ROUTER_64B_DURATION_NS = 25_000.0
PARETO_CELLS = 48
PARETO_DURATION_NS = 50_000.0
FAULT_OPEN_CELLS = 400
FAULT_CLOSED_CELLS = 200
ATTACK_CELLS = 300
FABRIC_REPEATS = 16  # x 3 topologies x 2 routing policies


@dataclass(frozen=True)
class Workload:
    name: str
    #: The measured cells, in run order.
    cells: tuple
    #: Short cells of the same families run once during set-up, so lazy
    #: imports and first-call costs land outside the measured phase.
    warmup: tuple
    #: Nominal seconds of one pass over ``cells`` (cold and warm), as
    #: measured on a 2-vCPU Xeon VM.  It turns ``--seconds`` into a fixed
    #: pass count, so every run on any host does the same work.
    pass_s: float


def _seeds(seed: int, stream: int, n: int) -> List[int]:
    state = np.random.SeedSequence([seed, stream]).generate_state(n)
    return [int(s) for s in state]


def _router_cells(config, seeds, duration_ns, packet_size, workload=None):
    from repro import Scenario

    return tuple(
        Scenario(
            kind="router",
            config=config,
            load=0.8,
            duration_ns=duration_ns,
            packet_size=packet_size,
            seed=s,
            workload=workload,
            mode="sequential",
        )
        for s in seeds
    )


def _flow_grid(config, rng, n_open, n_closed, n_attack, fabric_repeats):
    from repro import ControlConfig, Scenario
    from repro.adversary import AttackCampaignParams, BurstSynchronizedAttack
    from repro.faults.campaign import CampaignParams
    from repro.fabric.topology import (
        ClosTopology,
        ExpanderTopology,
        RotationTopology,
    )
    from repro.runtime import AttackCampaign, FaultCampaign

    def draw_seed() -> int:
        return int(rng.integers(0, 2**31 - 1))

    cells = list(
        FaultCampaign(
            config,
            CampaignParams(n_scenarios=n_open, seed=draw_seed()),
            fidelity="flow",
        ).scenarios()
    )
    cells += FaultCampaign(
        config,
        CampaignParams(n_scenarios=n_closed, seed=draw_seed()),
        fidelity="flow",
        control=ControlConfig(),
    ).scenarios()
    cells += AttackCampaign(
        config,
        AttackCampaignParams(
            strategy=BurstSynchronizedAttack(),
            n_trials=n_attack,
            seed=draw_seed(),
            telemetry=True,
        ),
        fidelity="flow",
    ).scenarios()
    for i in range(fabric_repeats):
        topologies = (
            ClosTopology(k=2),
            ExpanderTopology(n_routers=8, degree=4, seed=int(rng.integers(0, 1000))),
            RotationTopology(n_routers=4),
        )
        for topology in topologies:
            for routing in ("direct", "vlb"):
                cells.append(
                    Scenario(
                        kind="fabric",
                        config=config,
                        topology=topology,
                        routing=routing,
                        fidelity="flow",
                        load=float(rng.uniform(0.3, 0.7)),
                        link_delay_ns=float(rng.uniform(0.0, 200.0)),
                        duration_ns=50_000.0,
                        seed=draw_seed(),
                        tag=i,
                    )
                )
    return tuple(cells)


def build(name: str, seed: int) -> Workload:
    """The cells of workload ``name`` for benchmark seed ``seed``."""
    from repro import scaled_router

    config = scaled_router()
    if name == "router_64b":
        seeds = _seeds(seed, 1, ROUTER_64B_CELLS + 1)
        return Workload(
            name,
            _router_cells(config, seeds[:-1], ROUTER_64B_DURATION_NS, 64),
            _router_cells(config, seeds[-1:], 2_000.0, 64),
            pass_s=4.5,
        )
    if name == "router_pareto_stream":
        seeds = _seeds(seed, 2, PARETO_CELLS + 1)
        return Workload(
            name,
            _router_cells(config, seeds[:-1], PARETO_DURATION_NS, 1500, "pareto"),
            _router_cells(config, seeds[-1:], 10_000.0, 1500, "pareto"),
            pass_s=9.0,
        )
    if name == "flow_campaign":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        return Workload(
            name,
            _flow_grid(
                config, rng, FAULT_OPEN_CELLS, FAULT_CLOSED_CELLS,
                ATTACK_CELLS, FABRIC_REPEATS,
            ),
            # One cell per family (six fabric cells), from another stream.
            _flow_grid(
                config, np.random.default_rng(np.random.SeedSequence([seed, 4])),
                1, 1, 1, 1,
            ),
            pass_s=7.0,
        )
    raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")


# -- payloads -------------------------------------------------------------------


def canonical(payload) -> str:
    """The canonical JSON text of a payload (what the cache checksums)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _family(cell) -> str:
    if cell.kind in ("router", "fabric"):
        return cell.kind
    return f"{cell.kind}_{cell.fidelity}"


def check(cell, payload) -> List[str]:
    """Ledger problems in one cell's payload (empty when it is sound)."""
    family = _family(cell)
    problems: List[str] = []
    if family == "router":
        report = payload["report"]
        lost = (
            report["dropped_bytes"]
            + report["failed_offered_bytes"]
            + report["fault_lost_bytes"]
        )
        if report["lost_bytes"] != lost:
            problems.append(f"lost {report['lost_bytes']} != drops+failed+cut {lost}")
        balance = (
            report["offered_bytes"]
            - report["delivered_bytes"]
            - report["lost_bytes"]
            - report["residual_bytes"]
        )
        if balance != 0:
            problems.append(f"router offered-delivered-lost-residual = {balance}")
        for h, switch in enumerate(report["switches"]):
            balance = (
                switch["offered_bytes"]
                - switch["delivered_bytes"]
                - switch["dropped_bytes"]
                - switch["residual_bytes"]
            )
            if balance != 0:
                problems.append(f"switch {h} ledger off by {balance}")
        if report["offered_bytes"] <= 0:
            problems.append("router offered no bytes")
    elif family == "fault_cell_flow":
        # The payload omits the residual: offered = delivered + lost +
        # residual, so the implied residual must be a whole byte count
        # >= 0 (the fluid engine rounds its drained remainder to bytes).
        offered = payload["offered_bytes"]
        residual = offered - payload["delivered_bytes"] - payload["lost_bytes"]
        if residual < 0:
            problems.append(f"fault cell delivered + lost exceed offered by {-residual}")
        if offered <= 0 or not (
            math.isclose(payload["delivered_fraction"], payload["delivered_bytes"] / offered)
            and math.isclose(payload["loss_fraction"], payload["lost_bytes"] / offered)
        ):
            problems.append("fault cell fractions disagree with its byte counts")
    elif family == "attack_flow":
        offered = payload["sim_offered_bytes"]
        total = payload["sim_delivered_fraction"] + payload["sim_loss_fraction"]
        if offered > 0:
            total += payload["sim_residual_bytes"] / offered
        if offered <= 0 or not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            problems.append(f"attack delivered+lost+residual fractions = {total}")
    elif family == "fabric":
        report = payload["report"]
        fraction = report["delivered_fraction"]
        if not -FRACTION_TOLERANCE <= fraction <= 1.0 + FRACTION_TOLERANCE:
            problems.append(f"fabric delivered fraction {fraction}")
        if not math.isclose(
            report["delivered_bps"], fraction * report["offered_bps"], rel_tol=1e-9
        ):
            problems.append("fabric delivered_bps != fraction * offered_bps")
        for flow in report["flows"]:
            if not (
                -FRACTION_TOLERANCE
                <= flow["delivered_fraction"]
                <= 1.0 + FRACTION_TOLERANCE
            ):
                problems.append(
                    f"fabric flow {flow['src']}->{flow['dst']} delivered "
                    f"{flow['delivered_fraction']}"
                )
    else:
        problems.append(f"no ledger check for cell family {family}")
    return problems


def offered_packets(cell, payload) -> float:
    """Offered packets of one cell (packet equivalents at flow fidelity)."""
    family = _family(cell)
    if family == "router":
        return sum(s["offered_packets"] for s in payload["report"]["switches"])
    if family == "fault_cell_flow":
        offered_bytes = payload["offered_bytes"]
    elif family == "attack_flow":
        offered_bytes = payload["sim_offered_bytes"]
    else:
        report = payload["report"]
        offered_bytes = report["offered_bps"] * report["duration_ns"] / 8e9
    return offered_bytes / FLOW_PACKET_BYTES


def _delivered_fraction(cell, payload) -> float:
    family = _family(cell)
    if family in ("router", "fabric"):
        return payload["report"]["delivered_fraction"]
    if family == "attack_flow":
        return payload["sim_delivered_fraction"]
    return payload["delivered_fraction"]


def simulated_stats(cells: Sequence, payloads: Sequence[dict]) -> Dict[str, float]:
    """Simulated statistics of one pass: the ``sim_`` end-to-end metrics
    and the payload-derived per-layer ones (``pfi.*``, ``sim.*``)."""
    pairs = [(c, p) for c, p in zip(cells, payloads) if p is not None]
    stats: Dict[str, float] = {
        "sim_delivered_fraction": (
            float(np.mean([_delivered_fraction(c, p) for c, p in pairs]))
            if pairs else 0.0
        ),
        "offered_packets": float(sum(offered_packets(c, p) for c, p in pairs)),
    }
    routers = [p["report"] for c, p in pairs if _family(c) == "router"]
    if routers:
        # Mean over cells of each cell's p99 (router p99 = worst switch).
        stats["sim_latency_p99_ns"] = float(
            np.mean([r["latency"]["p99_ns"] for r in routers])
        )
    else:
        # Flow fidelity has no per-packet latency: the p99 over every
        # fabric flow's simulated end-to-end path latency.
        latencies = [
            flow["mean_latency_ns"]
            for c, p in pairs
            if _family(c) == "fabric"
            for flow in p["report"]["flows"]
        ]
        stats["sim_latency_p99_ns"] = (
            float(np.percentile(latencies, 99)) if latencies else 0.0
        )
    switches = [s for r in routers for s in r["switches"]]
    pfi = {key: sum(s["pfi"][key] for s in switches) for key in (
        "write_phases", "read_phases", "idle_write_phases", "wasted_read_slots",
        "frames_written", "bypassed_frames", "padded_frames",
    )}
    phases = pfi["write_phases"] + pfi["read_phases"]
    frames = pfi["frames_written"] + pfi["bypassed_frames"]
    stats.update({
        "pfi.phases": phases,
        "pfi.idle_phase_fraction": (
            (pfi["idle_write_phases"] + pfi["wasted_read_slots"]) / phases
            if phases else 0.0
        ),
        "pfi.padded_frame_fraction": pfi["padded_frames"] / frames if frames else 0.0,
        "pfi.bypass_fraction": pfi["bypassed_frames"] / frames if frames else 0.0,
        "sim.dropped_bytes": sum(r["dropped_bytes"] for r in routers),
        "sim.input_sram_peak_bytes": max(
            (s["input_sram_peak_bytes"] for s in switches), default=0
        ),
        "sim.hbm_peak_frames": max(
            (s["hbm_peak_frames"] for s in switches), default=0
        ),
    })
    return stats
