"""Acceptance checks on speed ratios and control behaviour.

Throughput itself is measured by the same-host benchmark under
``perfbench/`` and gated against the parent revision by
``tools/perfbench_ab.py``.  What stays here are the claims that are
ratios within one process, or plain behaviour, and so hold on any
host: the fluid engine outruns the packet engine it is validated
against, a warm cache outruns cold execution, and the control loop
ticks and reacts as configured.  Each timed ratio takes the best of a
few repeats of the fast side, whose runs are sub-millisecond.
"""

from __future__ import annotations

import json
import time

from repro.config import scaled_router
from repro.control import ControlConfig
from repro.core import PFIOptions, SplitParallelSwitch
from repro.faults import FaultSchedule, SwitchFailure
from repro.flow import flow_degradation, flow_router_report
from repro.runtime import Runtime, switch_scenario
from repro.traffic import FixedSize, TrafficGenerator, uniform_matrix


def _best_wall(fn, repeats=5):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
    return result, min(walls)


def test_flow_engine_outruns_packet_engine_with_parity():
    # >= 100x packets-equivalent throughput over the packet engine on
    # the same scenario, with delivered fractions within 2 %.
    config = scaled_router(fibers_per_ribbon=16, n_switches=4)
    load, duration_ns = 0.7, 20_000.0
    packets = TrafficGenerator(
        n_ports=config.n_ribbons,
        port_rate_bps=config.fibers_per_ribbon * config.per_fiber_rate_bps,
        matrix=uniform_matrix(config.n_ribbons, load),
        size_dist=FixedSize(1500),
        seed=0,
        flows_per_pair=256,
    ).materialize(duration_ns)
    router = SplitParallelSwitch(config, options=PFIOptions(padding=True, bypass=True))
    start = time.perf_counter()
    packet = router.run(packets, duration_ns)
    packet_wall = time.perf_counter() - start

    flow, flow_wall = _best_wall(
        lambda: flow_router_report(config, load=load, duration_ns=duration_ns)
    )
    assert packet_wall / flow_wall >= 100.0, (packet_wall, flow_wall)
    assert abs(flow.delivered_fraction - packet.delivered_fraction) <= 0.02


def test_million_packet_flow_cell_under_ten_seconds():
    config = scaled_router(n_ribbons=64, fibers_per_ribbon=64, n_switches=16)
    start = time.perf_counter()
    report = flow_router_report(config, load=0.7, duration_ns=1_000_000.0)
    wall = time.perf_counter() - start
    assert report.offered_bytes / 1500.0 >= 1_000_000
    assert wall < 10.0, wall


def test_warm_cache_recall_outruns_cold_execution(tmp_path):
    # Every warm cell is a hit, byte-identical to its cold run, and the
    # warm sweep takes at most a fifth of the cold one.
    grid = [
        switch_scenario(
            scaled_router().switch, load=load, duration_ns=10_000.0, seed=0
        )
        for load in (0.3, 0.55, 0.8)
    ]
    start = time.perf_counter()
    cold = Runtime(cache_dir=str(tmp_path), n_workers=1).map(grid)
    cold_wall = time.perf_counter() - start

    def warm_pass():
        runtime = Runtime(cache_dir=str(tmp_path), n_workers=1)
        return runtime, runtime.map(grid)

    (runtime, warm), warm_wall = _best_wall(warm_pass, repeats=3)
    stats = runtime.cache.stats()
    assert stats["hits"] == len(grid) and stats["misses"] == 0, stats
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
    assert cold_wall / warm_wall >= 5.0, (cold_wall, warm_wall)


def test_control_loop_ticks_and_reacts_to_mid_run_failure():
    duration_ns = 10_000.0
    config = scaled_router(fibers_per_ribbon=16, n_switches=4)
    schedule = FaultSchedule([
        SwitchFailure(
            switch=0, start_ns=duration_ns / 3.0, end_ns=2.0 * duration_ns / 3.0
        )
    ])
    report = flow_degradation(
        config,
        schedule=schedule,
        load=0.6,
        duration_ns=duration_ns,
        control=ControlConfig(tick_ns=100.0),
    )
    assert int(report.control["ticks"]) == 99
    # The mid-run switch failure must provoke the reweight controller.
    assert int(report.control["n_state_changes"]) > 0
    assert 0.9 < report.delivered_fraction <= 1.0
