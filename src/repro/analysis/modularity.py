"""Modularity (SS 2.2, *Modularity*): one dense package or many small ones.

"The SPS architecture enables a modular approach, from a single dense
1.31 Pb/s I/O package with 16 HBM switches, to 16 parallel packages of
1/16th the capacity."  Because the switches share nothing, any grouping
of them into packages yields the same aggregate capacity, power and
buffering; what changes is the failure/replacement granularity and the
per-package I/O.  This module enumerates those deployments and the
graceful-degradation arithmetic the fault-injection simulation
(:meth:`SplitParallelSwitch.run` with
``fault_schedule=FaultSchedule.from_failed_switches(...)``) confirms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import RouterConfig
from ..errors import ConfigError
from .power import hbm_switch_power


@dataclass(frozen=True)
class ModularDeployment:
    """One way to package the H switches."""

    n_packages: int
    switches_per_package: int
    capacity_per_package_bps: float
    power_per_package_w: float
    io_fibers_per_package: int

    @property
    def total_capacity_bps(self) -> float:
        return self.n_packages * self.capacity_per_package_bps

    @property
    def total_power_w(self) -> float:
        return self.n_packages * self.power_per_package_w

    def capacity_after_failures(self, failed_switches: int) -> float:
        """Aggregate capacity with some switches dead -- linear, because
        switches are independent (the fault-isolation property)."""
        total_switches = self.n_packages * self.switches_per_package
        if not 0 <= failed_switches <= total_switches:
            raise ConfigError(
                f"failed_switches must be in [0, {total_switches}]"
            )
        surviving = total_switches - failed_switches
        return self.total_capacity_bps * surviving / total_switches


def modular_deployments(config: RouterConfig) -> List[ModularDeployment]:
    """Every divisor grouping of the H switches into packages.

    All rows have identical totals -- the modularity claim -- differing
    only in per-package numbers.
    """
    h = config.n_switches
    per_switch_capacity = config.total_io_bps / h
    per_switch_power = hbm_switch_power(config.switch).total_w
    fibers_per_switch_total = config.total_fibers // h
    deployments = []
    for n_packages in range(1, h + 1):
        if h % n_packages != 0:
            continue
        per_package = h // n_packages
        deployments.append(
            ModularDeployment(
                n_packages=n_packages,
                switches_per_package=per_package,
                capacity_per_package_bps=per_package * per_switch_capacity,
                power_per_package_w=per_package * per_switch_power,
                io_fibers_per_package=per_package * fibers_per_switch_total,
            )
        )
    return deployments


def capacity_fraction_after_failures(n_switches: int, n_failed: int) -> float:
    """The closed form of SS 2.2: killing k of H share-nothing switches
    leaves exactly (H - k)/H of capacity.

    This is the analytic reference the fault-injection layer
    (:mod:`repro.faults`) cross-checks its measured delivered capacity
    against.
    """
    if n_switches <= 0:
        raise ConfigError(f"n_switches must be positive, got {n_switches}")
    if not 0 <= n_failed <= n_switches:
        raise ConfigError(
            f"n_failed must be in [0, {n_switches}], got {n_failed}"
        )
    return (n_switches - n_failed) / n_switches


def degradation_curve(config: RouterConfig) -> List[float]:
    """Fraction of capacity remaining as 0..H switches fail."""
    h = config.n_switches
    return [capacity_fraction_after_failures(h, k) for k in range(h + 1)]
