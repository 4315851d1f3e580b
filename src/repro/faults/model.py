"""Typed fault events: what can break, where, and when.

The SPS reliability story (SS 2.2, *Modularity*) is that the H switches
share nothing, so any failure is contained to the capacity it directly
serves.  This module gives that story an executable vocabulary: each
fault is a frozen dataclass with an *injection scope* (which switch,
ribbon/fiber, or memory channels) and a *time window* ``[start_ns,
end_ns)`` during which it is active.  ``end_ns = inf`` models a
permanent failure; a finite window models repair/recovery (MTTR).

Four fault classes cover the package's failure surfaces:

- :class:`SwitchFailure` -- one HBM switch dies (power, HBM stack, or
  logic die): traffic arriving on its fibers while it is down is lost.
- :class:`HBMChannelLoss` -- some of a switch's T memory channels stop
  responding: the interleave stripes over fewer channels, so the PFI
  drain rate shrinks proportionally.
- :class:`OEODegradation` -- a laser/modulator ages or an O/E/O stage
  degrades: the affected switch's egress lanes run at a reduced rate.
- :class:`FiberCut` -- one fiber of one ribbon is severed upstream of
  the passive split: only that fiber's traffic is lost.

Two further classes widen the scope from one package to a *fabric* of
packages (:mod:`repro.fabric`):

- :class:`RouterDown` -- a whole router-in-a-package node of a fabric is
  offline; the fabric engine expands it into per-switch failures inside
  that node's runs.
- :class:`LinkCut` -- an inter-package link (both directions) is severed;
  traffic routed over it during the window is lost.

Fabric-scoped events are ignored by the single-package machinery
(:meth:`~repro.faults.schedule.FaultSchedule.validate` and the per-switch
projections skip them); the fabric engine validates them against its
topology instead.

Events carry no behaviour beyond window arithmetic; the simulation
hooks live in :mod:`repro.faults.schedule` (per-switch projections) and
the core (:class:`~repro.core.sps.SplitParallelSwitch`,
:class:`~repro.core.hbm_switch.HBMSwitch`, the PFI engine and the HBM
controller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError

#: Sentinel for a fault that never recovers.
FOREVER_NS = math.inf


def _validate_window(start_ns: float, end_ns: float) -> None:
    if start_ns < 0:
        raise ConfigError(f"fault start must be >= 0, got {start_ns}")
    if not end_ns > start_ns:
        raise ConfigError(
            f"fault window must be non-empty: start {start_ns} ns, end {end_ns} ns"
        )


class _Windowed:
    """Window arithmetic shared by every fault event (no fields)."""

    start_ns: float
    end_ns: float

    def active_at(self, t_ns: float) -> bool:
        """Whether the fault is in effect at time ``t_ns`` (half-open)."""
        return self.start_ns <= t_ns < self.end_ns

    @property
    def permanent(self) -> bool:
        """The fault never recovers."""
        return math.isinf(self.end_ns)

    @property
    def whole_run(self) -> bool:
        """Active from t = 0 with no recovery -- the degenerate schedule
        of :meth:`~repro.faults.FaultSchedule.from_failed_switches`."""
        return self.start_ns <= 0.0 and self.permanent


@dataclass(frozen=True)
class SwitchFailure(_Windowed):
    """HBM switch ``switch`` is dead during ``[start_ns, end_ns)``.

    While dead, traffic arriving on the switch's fibers is lost (the
    share-nothing property: nothing else is affected).  A whole-run
    failure (``start_ns = 0``, ``end_ns = inf``) is handled at the
    split: the switch is never built and its traffic is lost there.
    """

    switch: int
    start_ns: float = 0.0
    end_ns: float = FOREVER_NS

    def __post_init__(self) -> None:
        if self.switch < 0:
            raise ConfigError(f"switch index must be >= 0, got {self.switch}")
        _validate_window(self.start_ns, self.end_ns)

    def describe(self) -> str:
        return f"switch {self.switch} dead [{self.start_ns:g}, {self.end_ns:g}) ns"


@dataclass(frozen=True)
class HBMChannelLoss(_Windowed):
    """``n_channels`` of switch ``switch``'s T memory channels are lost.

    PFI stripes each frame over all T channels, so losing c of them
    stretches every write/read phase by T / (T - c) -- the drain rate
    degrades linearly, which is what the per-interval capacity report
    measures.  Losing every channel halts the memory (no frames move
    until recovery).
    """

    switch: int
    n_channels: int = 1
    start_ns: float = 0.0
    end_ns: float = FOREVER_NS

    def __post_init__(self) -> None:
        if self.switch < 0:
            raise ConfigError(f"switch index must be >= 0, got {self.switch}")
        if self.n_channels <= 0:
            raise ConfigError(
                f"n_channels must be positive, got {self.n_channels}"
            )
        _validate_window(self.start_ns, self.end_ns)

    def describe(self) -> str:
        return (
            f"switch {self.switch} loses {self.n_channels} HBM channel(s) "
            f"[{self.start_ns:g}, {self.end_ns:g}) ns"
        )


@dataclass(frozen=True)
class OEODegradation(_Windowed):
    """Switch ``switch``'s egress O/E/O runs at ``rate_factor`` of nominal.

    Models laser aging / modulator drift: the switch still forwards, but
    its output ports drain at ``rate_factor * P``.  Under load this
    shows up as growing head-of-line latency and, eventually, input-SRAM
    drops -- degradation rather than outage.
    """

    switch: int
    rate_factor: float = 0.5
    start_ns: float = 0.0
    end_ns: float = FOREVER_NS

    def __post_init__(self) -> None:
        if self.switch < 0:
            raise ConfigError(f"switch index must be >= 0, got {self.switch}")
        if not 0.0 < self.rate_factor <= 1.0:
            raise ConfigError(
                f"rate_factor must be in (0, 1], got {self.rate_factor}"
            )
        _validate_window(self.start_ns, self.end_ns)

    def describe(self) -> str:
        return (
            f"switch {self.switch} egress at {self.rate_factor:.0%} "
            f"[{self.start_ns:g}, {self.end_ns:g}) ns"
        )


@dataclass(frozen=True)
class FiberCut(_Windowed):
    """Fiber ``fiber`` of ribbon ``ribbon`` is cut upstream of the split.

    Lost traffic is exactly that fiber's share (1 / (F * N) of package
    ingress under even spreading); the switch the fiber feeds keeps
    serving its other fibers -- failure granularity *below* a switch.
    """

    ribbon: int
    fiber: int
    start_ns: float = 0.0
    end_ns: float = FOREVER_NS

    def __post_init__(self) -> None:
        if self.ribbon < 0:
            raise ConfigError(f"ribbon index must be >= 0, got {self.ribbon}")
        if self.fiber < 0:
            raise ConfigError(f"fiber index must be >= 0, got {self.fiber}")
        _validate_window(self.start_ns, self.end_ns)

    def describe(self) -> str:
        return (
            f"fiber ({self.ribbon}, {self.fiber}) cut "
            f"[{self.start_ns:g}, {self.end_ns:g}) ns"
        )


@dataclass(frozen=True)
class RouterDown(_Windowed):
    """Fabric scope: router node ``router`` is offline during the window.

    Models a whole package failing (power, cooling, control plane).  The
    fabric engine maps the window onto a :class:`SwitchFailure` for every
    one of the node's H switches, so traffic sourced at, destined to, or
    transiting the node during the window is lost exactly as the
    single-package engines compute it.
    """

    router: int
    start_ns: float = 0.0
    end_ns: float = FOREVER_NS

    def __post_init__(self) -> None:
        if self.router < 0:
            raise ConfigError(f"router index must be >= 0, got {self.router}")
        _validate_window(self.start_ns, self.end_ns)

    def describe(self) -> str:
        return f"router {self.router} down [{self.start_ns:g}, {self.end_ns:g}) ns"


@dataclass(frozen=True)
class LinkCut(_Windowed):
    """Fabric scope: the inter-package link ``a -- b`` is severed.

    The cut is undirected (a fiber bundle carries both directions), so
    traffic routed over the link either way during the window is lost.
    Endpoints are stored sorted so ``LinkCut(2, 5)`` and ``LinkCut(5, 2)``
    are the same event.
    """

    a: int
    b: int
    start_ns: float = 0.0
    end_ns: float = FOREVER_NS

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ConfigError(
                f"link endpoints must be >= 0, got ({self.a}, {self.b})"
            )
        if self.a == self.b:
            raise ConfigError(f"link endpoints must differ, got {self.a}")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)
        _validate_window(self.start_ns, self.end_ns)

    def touches(self, u: int, v: int) -> bool:
        """Whether this cut severs the (directed) link ``u -> v``."""
        return (min(u, v), max(u, v)) == (self.a, self.b)

    def describe(self) -> str:
        return (
            f"link {self.a}--{self.b} cut "
            f"[{self.start_ns:g}, {self.end_ns:g}) ns"
        )


#: Every concrete fault type, for isinstance checks and (de)serialisation.
FAULT_TYPES = (
    SwitchFailure,
    HBMChannelLoss,
    OEODegradation,
    FiberCut,
    RouterDown,
    LinkCut,
)

#: The fabric-scoped subset (targets routers/links of a topology, not
#: the internals of one package).
FABRIC_FAULT_TYPES = (RouterDown, LinkCut)


def event_to_dict(event) -> dict:
    """JSON-safe dict of one fault event (``inf`` end becomes ``None``)."""
    import dataclasses

    data = dataclasses.asdict(event)
    data["kind"] = type(event).__name__
    if math.isinf(data["end_ns"]):
        data["end_ns"] = None
    return data


def event_from_dict(data: dict):
    """Inverse of :func:`event_to_dict`."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    by_name = {cls.__name__: cls for cls in FAULT_TYPES}
    if kind not in by_name:
        raise ConfigError(f"unknown fault kind {kind!r}")
    if payload.get("end_ns") is None:
        payload["end_ns"] = FOREVER_NS
    return by_name[kind](**payload)
