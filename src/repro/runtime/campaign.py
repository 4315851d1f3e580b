"""The Campaign protocol: multi-cell experiments on the runtime.

A campaign is "a grid of scenarios plus an aggregate": it *declares*
its cells (:meth:`Campaign.scenarios`) and folds their payloads into a
result object (:meth:`Campaign.aggregate`), while the runtime owns all
dispatch, caching, checkpointing and sharding.  The fault Monte-Carlo
and adversarial campaigns -- which each used to carry their own seeded
fan-out and pool plumbing -- are the two concrete instances here, and
:meth:`~repro.runtime.Runtime.run_campaign` is the one way to run
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..adversary.campaign import (
    AttackCampaignParams,
    AttackCampaignResult,
    trial_seeds,
)
from ..config import RouterConfig
from ..faults.campaign import (
    CampaignParams,
    CampaignResult,
    draw_fault_schedule,
)
from ..faults.schedule import FaultSchedule
from .scenario import Scenario


@runtime_checkable
class Campaign(Protocol):
    """What the runtime needs from any multi-cell experiment."""

    def scenarios(self) -> Sequence[Scenario]:
        """The campaign's cells, in aggregation order."""
        ...

    def aggregate(self, payloads: Sequence[dict]):
        """Fold the cells' payloads (same order) into the result."""
        ...


@dataclass(frozen=True)
class FaultCampaign:
    """Seeded Monte-Carlo fault campaign as a runtime campaign.

    Cell ``i`` draws its schedule from ``default_rng((params.seed, i))``
    and simulates with traffic seed ``params.seed + i``, so the
    aggregate :class:`~repro.faults.campaign.CampaignResult` serialises
    byte-identically for the same ``(config, params)``.
    """

    config: RouterConfig
    params: CampaignParams
    base_schedule: Optional[FaultSchedule] = None
    fidelity: str = "packet"
    #: Optional :class:`~repro.control.ControlConfig` applied to every
    #: cell -- the closed-loop variant of the same campaign.
    control: Optional[object] = None
    #: Optional streaming workload spec applied to every cell
    #: (:func:`~repro.traffic.stream.workload_source`); ``None`` keeps
    #: the historical smooth fixed-size traffic.
    workload: Optional[str] = None

    def scenarios(self) -> List[Scenario]:
        cells = []
        for i in range(self.params.n_scenarios):
            rng = np.random.default_rng((self.params.seed, i))
            schedule = draw_fault_schedule(self.config, self.params, rng)
            if self.base_schedule is not None:
                schedule = schedule.merged(self.base_schedule)
            schedule.validate(self.config)
            cells.append(
                Scenario(
                    kind="fault_cell",
                    config=self.config,
                    load=self.params.load,
                    duration_ns=self.params.duration_ns,
                    seed=self.params.seed + i,
                    schedule=schedule,
                    n_intervals=self.params.n_intervals,
                    fidelity=self.fidelity,
                    tag=i,
                    control=self.control,
                    workload=self.workload,
                )
            )
        return cells

    def aggregate(self, payloads: Sequence[dict]) -> CampaignResult:
        return CampaignResult(params=self.params, scenarios=list(payloads))


@dataclass(frozen=True)
class AttackCampaign:
    """Seeded multi-trial attack campaign as a runtime campaign.

    Trial ``i`` derives its traffic and splitter seeds from
    ``SeedSequence((params.seed, i))`` and composes with an optional
    fault schedule (whole-run deaths via
    :meth:`~repro.faults.FaultSchedule.from_failed_switches`), so the
    aggregate :class:`~repro.adversary.campaign.AttackCampaignResult`
    (including the trial-index-ordered telemetry merge) is
    byte-identical to the pre-runtime implementation.
    """

    config: RouterConfig
    params: AttackCampaignParams
    fault_schedule: Optional[FaultSchedule] = None
    fidelity: str = "packet"
    #: Optional :class:`~repro.control.ControlConfig` applied to every
    #: trial -- the closed-loop variant of the same campaign.
    control: Optional[object] = None
    #: Optional carrier-traffic spec applied to every trial
    #: (:func:`~repro.traffic.stream.workload_source`); ``None`` keeps
    #: the historical fixed-size Poisson carrier.
    workload: Optional[str] = None

    def scenarios(self) -> List[Scenario]:
        schedule = self.fault_schedule
        if schedule is not None:
            schedule.validate(self.config)
        cells = []
        for i in range(self.params.n_trials):
            traffic_seed, splitter_seed = trial_seeds(self.params.seed, i)
            cells.append(
                Scenario(
                    kind="attack",
                    config=self.config,
                    load=self.params.load,
                    duration_ns=self.params.duration_ns,
                    seed=traffic_seed,
                    schedule=schedule,
                    splitter_kind=self.params.splitter,
                    splitter_seed=splitter_seed,
                    strategy=self.params.strategy,
                    traffic_seed=traffic_seed,
                    telemetry=self.params.telemetry,
                    fidelity=self.fidelity,
                    tag=i,
                    control=self.control,
                    workload=self.workload,
                )
            )
        return cells

    def aggregate(self, payloads: Sequence[dict]) -> AttackCampaignResult:
        trials = list(payloads)
        merged = None
        if self.params.telemetry:
            from ..telemetry import MetricsRegistry

            registry = MetricsRegistry()
            # Trial-index order keeps cached, sharded and pooled runs
            # byte-identical to a fresh sequential campaign.
            for trial in trials:
                if trial.get("telemetry") is not None:
                    registry.merge_dict(trial["telemetry"])
            merged = registry.to_dict()
        return AttackCampaignResult(
            params=self.params, trials=trials, telemetry=merged
        )
