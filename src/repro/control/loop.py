"""The closed loop: per-switch controllers driven on window ticks.

One :class:`ControlLoop` instance governs one router run.  The engine
(the fluid tandem, or the packet router core of
:class:`~repro.core.sps.SplitParallelSwitch`) calls :meth:`tick` at
every control period boundary with the per-switch signals observed over
the *previous* tick window -- offered bytes, delivered bytes and buffer
backlog; the attack-window flag comes from the windows the loop was
built with.  The loop folds them through the three controller families
(:mod:`repro.control.config`) and exposes two actuator arrays the
engine applies to the *next* window (decisions are causal: the control
plane only ever sees the past):

- ``admit``  -- per-switch ingress admission fraction in
  ``[floor, 1]``: the fraction of traffic addressed to switch ``h``
  that is let through; the rest is backpressured (counted, not
  silently vanished).  Driven down by the admission controller
  (occupancy vs. the buffer limit) and the mitigation controller
  (offered-share gain during attack windows) -- the effective admit is
  the min of the two.
- ``weight`` -- per-switch split-weight multiplier in ``[floor, 1]``:
  scales the switch's share of the H-way fiber split (renormalised by
  the engine), so a RED switch sheds load to its healthy siblings.
  Driven by the reweight controller (goodput deficit).

Every decision lands in the :class:`~repro.control.actions.ActionLog`
and -- when a telemetry registry is attached -- in the
``repro_control_state`` / ``repro_control_throttle_fraction`` time
series, windowed at the control period.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .actions import ActionLog
from .config import ControlConfig
from .controller import STATES, Controller

#: Control-plane time-series names.
CONTROL_STATE = "repro_control_state"
CONTROL_THROTTLE = "repro_control_throttle_fraction"

#: Offered bytes below which a tick carries no reweight information
#: (an idle switch is not a broken switch).
_SIGNAL_EPS = 1.0


class ControlLoop:
    """Drives one run's controllers; owns the actuator state.

    ``attack_windows`` are the ``[start, end)`` spans during which
    ``repro_attack_active_window`` fires; a tick whose window overlaps
    one arms the mitigation controller.
    """

    def __init__(
        self,
        config: ControlConfig,
        n_switches: int,
        occupancy_limit_bytes: float,
        log: Optional[ActionLog] = None,
        telemetry=None,
        attack_windows: Sequence[Tuple[float, float]] = (),
    ) -> None:
        self.config = config
        self.n_switches = n_switches
        self.occupancy_limit = float(occupancy_limit_bytes)
        self.log = log if log is not None else ActionLog()
        self.telemetry = telemetry
        self.attack_windows = tuple(attack_windows)
        self.ticks = 0
        self.n_state_changes = 0
        self.throttled_bytes = 0.0
        self._admission = _bank(config.admission, n_switches)
        self._reweight = _bank(config.reweight, n_switches)
        self._mitigation = _bank(config.mitigation, n_switches)
        self.admit = np.ones(n_switches)
        self.weight = np.ones(n_switches)
        self.log.emit(
            "control_start",
            t_ns=0.0,
            tick_ns=config.tick_ns,
            n_switches=n_switches,
            controllers=[
                name
                for name, bank in (
                    ("admission", self._admission),
                    ("reweight", self._reweight),
                    ("mitigation", self._mitigation),
                )
                if bank is not None
            ],
        )

    @classmethod
    def for_router(
        cls,
        config: ControlConfig,
        router_config,
        telemetry=None,
        attack_windows: Sequence[Tuple[float, float]] = (),
    ) -> "ControlLoop":
        """The loop of one run of a :class:`~repro.config.RouterConfig`
        router: one controller bank per switch, the admission controller
        guarding each switch's buffer limit."""
        from ..flow.engine import buffer_limit_bytes

        return cls(
            config,
            router_config.n_switches,
            buffer_limit_bytes(router_config.switch),
            telemetry=telemetry,
            attack_windows=attack_windows,
        )

    # -- the tick ------------------------------------------------------------

    def tick(
        self,
        t_ns: float,
        offered: np.ndarray,
        delivered: np.ndarray,
        backlog: np.ndarray,
        attack_active: Optional[bool] = None,
    ) -> None:
        """Fold one window's per-switch signals; update the actuators.

        ``offered``/``delivered``/``backlog`` are (H,) byte arrays for
        the window that just closed.  Decisions apply from ``t_ns`` on.
        ``attack_active`` defaults to whether the closed window
        ``[t_ns - tick_ns, t_ns)`` overlaps one of the loop's attack
        windows.
        """
        if attack_active is None:
            start = t_ns - self.config.tick_ns
            attack_active = any(
                s < t_ns and e > start for s, e in self.attack_windows
            )
        index = self.ticks
        self.ticks += 1
        total = float(offered.sum())
        admit_a = np.ones(self.n_switches)
        admit_m = np.ones(self.n_switches)
        for h in range(self.n_switches):
            if self._admission is not None:
                signal = float(backlog[h]) / self.occupancy_limit
                admit_a[h] = self._step(
                    "admission", self._admission[h], h, index, t_ns, signal
                )
            if self._reweight is not None:
                if offered[h] > _SIGNAL_EPS:
                    deficit = max(
                        0.0, 1.0 - float(delivered[h]) / float(offered[h])
                    )
                else:
                    deficit = 0.0
                self.weight[h] = self._step(
                    "reweight", self._reweight[h], h, index, t_ns, deficit
                )
            if self._mitigation is not None:
                if attack_active and total > _SIGNAL_EPS:
                    gain = float(offered[h]) * self.n_switches / total
                else:
                    gain = 0.0
                admit_m[h] = self._step(
                    "mitigation", self._mitigation[h], h, index, t_ns, gain
                )
        self.admit = np.minimum(admit_a, admit_m)
        if self.telemetry is not None:
            for h in range(self.n_switches):
                throttle = 1.0 - float(self.admit[h])
                self.telemetry.timeseries(
                    CONTROL_THROTTLE,
                    "ingress throttle fraction per control tick",
                    window_ns=self.config.tick_ns,
                    agg="max",
                    switch=str(h),
                ).observe(t_ns, throttle)

    def _step(
        self,
        name: str,
        controller: Controller,
        switch: int,
        index: int,
        t_ns: float,
        signal: float,
    ) -> float:
        before_state = controller.state
        before_value = controller.value
        state, value, changed = controller.update(signal)
        if changed:
            self.n_state_changes += 1
            self.log.emit(
                "state_change",
                t_ns=t_ns,
                tick=index,
                switch=switch,
                controller=name,
                from_state=STATES[before_state],
                to_state=STATES[state],
                signal=round(float(controller.smoothed), 9),
            )
        if value != before_value:
            self.log.emit(
                "actuation",
                t_ns=t_ns,
                tick=index,
                switch=switch,
                controller=name,
                value=round(float(value), 9),
            )
        if self.telemetry is not None:
            self.telemetry.timeseries(
                CONTROL_STATE,
                "controller state per control tick (0=GREEN..3=RED)",
                window_ns=self.config.tick_ns,
                agg="max",
                controller=name,
                switch=str(switch),
            ).observe(t_ns, float(state))
        return value

    # -- wrap-up -------------------------------------------------------------

    def finish(self, t_ns: float) -> None:
        self.log.emit(
            "control_finish",
            t_ns=t_ns,
            ticks=self.ticks,
            n_state_changes=self.n_state_changes,
            throttled_bytes=int(round(self.throttled_bytes)),
        )

    def summary(self) -> Dict[str, Any]:
        """Compact JSON-safe digest of the run's control activity --
        what campaign cell payloads embed (byte-identical across
        sequential/parallel/cached runs)."""
        return {
            "ticks": self.ticks,
            "n_actions": len(self.log),
            "n_state_changes": self.n_state_changes,
            "throttled_bytes": int(round(self.throttled_bytes)),
            "final_admit": [round(float(v), 9) for v in self.admit],
            "final_weight": [round(float(v), 9) for v in self.weight],
        }


def _bank(params, n_switches: int) -> Optional[List[Controller]]:
    if params is None:
        return None
    return [Controller(params) for _ in range(n_switches)]
