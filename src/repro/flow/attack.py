"""Attack trials at flow fidelity.

:func:`execute_attack_trial_flow` mirrors
:func:`repro.adversary.campaign.execute_attack_trial` key for key: the
analytic half (fiber weights pushed through the split algebra) is
computed identically, and the simulated half replaces the packet
pipeline with :func:`repro.flow.engine.simulate_flow_router` fed rate
components derived from the strategy:

- the default strategies offer a uniform matrix at ``load`` whose fiber
  spread *is* the strategy's mixed weight vector -- at flow fidelity
  that becomes one always-on :class:`~repro.flow.engine.RateComponent`
  routed with those weights;
- :class:`~repro.adversary.strategies.BurstSynchronizedAttack` becomes a
  background component at ``load - attack_load`` plus an ON-window
  component whose rate reproduces the packet builder's quantisation
  (``per_window`` packets of ``packet_bytes`` over each ON window), so
  the fluid burst carries exactly the bytes the packet burst does.

Like the packet trial, the run uses ``drain=False``: a victim switch
with deep HBM does not drop, it falls behind, and the overload shows up
as undelivered ``sim_residual_bytes``.  The fluid model has no arrival
jitter, so ``traffic_seed`` does not influence the result (recorded in
the summary for shape parity); burst-phase collision effects inside a
window are below its resolution -- the documented place fidelity="flow"
is an approximation (see ``docs/flow_engine.md``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..adversary.campaign import make_splitter
from ..adversary.strategies import (
    AttackStrategy,
    BurstSynchronizedAttack,
    attack_windows_for,
)
from ..config import RouterConfig
from ..core.fiber_split import (
    overload_loss_fraction,
    per_switch_loads,
    per_switch_port_loads,
    split_imbalance,
)
from ..telemetry import (
    MetricsRegistry,
    record_victim_series,
    tag_attack_window,
)
from ..traffic import uniform_matrix
from ..units import rate_to_bytes_per_ns
from .engine import RateComponent, simulate_flow_router


def _strategy_components(
    strategy: AttackStrategy,
    config: RouterConfig,
    load: float,
    duration_ns: float,
    packet_bytes: float = 1500.0,
) -> List[RateComponent]:
    """Rate components equivalent to ``strategy.build_workload``."""
    n = config.n_ribbons
    ribbon_rate = rate_to_bytes_per_ns(
        config.fibers_per_ribbon * config.per_fiber_rate_bps
    )
    if not isinstance(strategy, BurstSynchronizedAttack):
        # Every non-burst strategy shapes the *split*, not the offered
        # stream: uniform matrix at the full load.
        return [
            RateComponent(
                uniform_matrix(n, load) * ribbon_rate,
                ((0.0, duration_ns),),
            )
        ]
    components: List[RateComponent] = []
    attack_load = strategy.attack_fraction * load
    background_load = load - attack_load
    if background_load > 0:
        components.append(
            RateComponent(
                uniform_matrix(n, background_load) * ribbon_rate,
                ((0.0, duration_ns),),
            )
        )
    on_rate = min(1.0, attack_load / strategy.duty) * ribbon_rate
    if attack_load > 0 and on_rate > 0:
        # Reproduce the packet builder's quantisation: per ON window each
        # ribbon emits per_window packets of packet_bytes, spread
        # uniformly over the ribbon's outputs by the (r + w + k) % N
        # round-robin.
        gap_ns = packet_bytes / on_rate
        on_ns = strategy.duty * strategy.period_ns
        per_window = max(int(on_ns / gap_ns), 1)
        rate = per_window * packet_bytes / on_ns
        matrix = np.full((n, n), rate / n)
        windows: List[Tuple[float, float]] = []
        window = 0
        while window * strategy.period_ns < duration_ns:
            start = window * strategy.period_ns
            windows.append((start, min(start + on_ns, duration_ns)))
            window += 1
        components.append(RateComponent(matrix, tuple(windows)))
    return components


def execute_attack_trial_flow(trial) -> dict:
    """Flow-fidelity twin of ``execute_attack_trial`` (same summary keys)."""
    config = trial.config
    splitter = make_splitter(
        trial.splitter_kind,
        config.fibers_per_ribbon,
        config.n_switches,
        seed=trial.splitter_seed,
    )
    strategy = trial.strategy
    victim = strategy.victim_switch(splitter)

    # Analytic view -- identical to the packet trial.
    weights = strategy.fiber_weights(splitter, config.n_ribbons)
    fiber_loads = [trial.load * w for w in weights]
    switch_loads = per_switch_loads(splitter, fiber_loads)
    total = float(switch_loads.sum())
    uniform_share = total / config.n_switches
    worst = int(np.argmax(switch_loads))
    target = victim if victim is not None else worst
    victim_gain = float(switch_loads[target] / uniform_share)
    port_loads = per_switch_port_loads(splitter, fiber_loads)
    overload = overload_loss_fraction(port_loads, 1.0 / config.n_switches)

    registry = MetricsRegistry() if trial.telemetry else None
    if registry is not None:
        tag_attack_window(
            registry,
            strategy=strategy.name,
            splitter=trial.splitter_kind,
            victim=victim,
            start_ns=0.0,
            end_ns=trial.duration_ns,
        )

    # Simulated view -- the fluid tandem on the strategy's rate stream.
    components = _strategy_components(
        strategy, config, trial.load, trial.duration_ns
    )
    result = simulate_flow_router(
        config,
        components,
        duration_ns=trial.duration_ns,
        drain=False,
        weights=np.stack(weights),
        splitter=splitter,
        schedule=trial.fault_schedule,
        telemetry=registry,
        control=trial.control,
        attack_windows=attack_windows_for(strategy, trial.duration_ns),
    )
    report = result.report
    offered = report.per_switch_offered_bytes
    sim_total = float(sum(offered))
    sim_target = target if victim is not None else (
        int(np.argmax(offered)) if sim_total > 0 else target
    )
    sim_victim_gain = (
        float(offered[sim_target] * config.n_switches / sim_total)
        if sim_total > 0
        else 1.0
    )
    if registry is not None:
        record_victim_series(registry, offered, victim)

    summary = {
        "trial": trial.index,
        "splitter": trial.splitter_kind,
        "splitter_seed": trial.splitter_seed,
        "traffic_seed": trial.traffic_seed,
        "strategy": strategy.describe(),
        "victim_switch": target,
        "victim_gain": victim_gain,
        "split_imbalance": float(split_imbalance(switch_loads)),
        "overload_loss_fraction": overload,
        "sim_victim_switch": sim_target,
        "sim_victim_gain": sim_victim_gain,
        "sim_offered_bytes": int(report.offered_bytes),
        "sim_delivered_fraction": report.delivered_fraction,
        "sim_loss_fraction": report.loss_fraction,
        "sim_residual_bytes": int(report.residual_bytes),
        "fault_events": list(report.fault_events),
        "telemetry": registry.to_dict() if registry is not None else None,
    }
    if result.control is not None:
        summary["control"] = result.control
    return summary
