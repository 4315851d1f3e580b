"""Packet-fidelity control: the loop closed inside the router core.

A closed-loop packet run goes through the same split -> step -> report
core as every other router run
(:meth:`~repro.core.sps.SplitParallelSwitch._run_chunks`).
:class:`SplitControl` cuts the run's traffic at the control ticks
``k * tick_ns``, whether it arrives as one eager list or as streamed
blocks, and acts where a real SPS control plane would: at the split,
before packets commit to a fiber.

- **reweight** -- a packet bound for a down-weighted switch is
  deterministically redirected (error diffusion per switch, smooth
  weighted round-robin over the healthier switches, round-robin over
  the ribbon's fibers feeding the new switch via
  :meth:`~repro.core.fiber_split.FiberSplitter.fibers_to`);
- **admission / mitigation** -- a throttled packet never reaches the
  split; its bytes are tallied per switch (a throttled byte is an
  explicit backpressure loss, never a vanished offer).

At each tick every live switch has been stepped to the boundary, so the
loop reads what the switches themselves hold: the bytes offered to each
switch at the split (throttled bytes included), the bytes its outputs
delivered, and its queued payload.  A dead switch delivers nothing by
itself.  Tick ``k``'s decisions apply to the traffic after it and were
computed purely from the window before it.  Nothing here draws random
numbers or reads a clock.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .loop import ControlLoop

#: Multiplier below which a switch's weight counts as actuated (floats
#: recover to exactly ``ceiling=1.0`` via the clamped step-up).
_WEIGHT_EPS = 1e-9


class SplitControl:
    """One closed-loop router run's control plane at the split."""

    def __init__(self, loop: ControlLoop, router, duration_ns: float) -> None:
        config = router.config
        n_switches = config.n_switches
        self.loop = loop
        self.tick_ns = loop.config.tick_ns
        self.n_ticks = max(math.ceil(duration_ns / self.tick_ns - 1e-9), 1)
        self._next_tick = 1
        splitter = router.splitter
        self._assignments = [
            splitter.assignment(r) for r in range(config.n_ribbons)
        ]
        self._lanes = [
            [splitter.fibers_to(r, h) for h in range(n_switches)]
            for r in range(config.n_ribbons)
        ]
        self._lane_cursor = np.zeros((config.n_ribbons, n_switches), dtype=np.int64)
        self._keep_credit = np.zeros(n_switches)  # reweight error diffusion
        self._admit_credit = np.zeros(n_switches)  # admission error diffusion
        self._wrr_credit = np.zeros(n_switches)  # smooth WRR over switches
        #: Bytes throttled per switch so far.
        self.throttled = np.zeros(n_switches)
        self._offered_seen = np.zeros(n_switches)
        self._delivered_seen = np.zeros(n_switches)

    def pieces(
        self, packets: Sequence, fibers: Sequence[int], boundary_ns: float
    ) -> Iterator[Tuple[List, List[int], float, Optional[float]]]:
        """Cut one chunk at the ticks it spans; actuate each piece.

        Yields ``(packets, fibers, boundary_ns, tick_ns)``; ``tick_ns``
        is set when the piece ends on a tick, and the caller then calls
        :meth:`tick` before pulling the next piece -- which is actuated
        only when pulled, so it sees that tick's decisions.
        """
        tick_ns = self.tick_ns
        arrivals = np.fromiter(
            (p.arrival_ns for p in packets), np.float64, len(packets)
        )
        index = np.minimum((arrivals / tick_ns).astype(np.int64), self.n_ticks - 1)
        order = np.argsort(index, kind="stable")
        index = index[order]
        start = 0
        while (
            self._next_tick < self.n_ticks
            and self._next_tick * tick_ns <= boundary_ns
        ):
            at = self._next_tick * tick_ns
            stop = int(np.searchsorted(index, self._next_tick))
            yield (*self._actuate(packets, fibers, order[start:stop]), at, at)
            start = stop
            self._next_tick += 1
        yield (*self._actuate(packets, fibers, order[start:]), boundary_ns, None)

    def _actuate(
        self, packets: Sequence, fibers: Sequence[int], order: np.ndarray
    ) -> Tuple[List, List[int]]:
        """Reweight and thin the packets at ``order`` for the split."""
        loop = self.loop
        weight = loop.weight
        admit = loop.admit
        keep_credit = self._keep_credit
        admit_credit = self._admit_credit
        assignments = self._assignments
        kept: List = []
        kept_fibers: List[int] = []
        for i in order.tolist():
            packet = packets[i]
            fiber = fibers[i]
            ribbon = packet.input_port
            target = assignments[ribbon][fiber]
            if weight[target] < 1.0 - _WEIGHT_EPS:
                keep_credit[target] += weight[target]
                if keep_credit[target] >= 1.0:
                    keep_credit[target] -= 1.0
                else:
                    self._wrr_credit += weight
                    target = int(np.argmax(self._wrr_credit))
                    self._wrr_credit[target] -= float(weight.sum())
                    lanes = self._lanes[ribbon][target]
                    cursor = self._lane_cursor[ribbon, target]
                    fiber = lanes[cursor % len(lanes)]
                    self._lane_cursor[ribbon, target] = cursor + 1
            admit_credit[target] += admit[target]
            if admit_credit[target] >= 1.0:
                admit_credit[target] -= 1.0
                kept.append(packet)
                kept_fibers.append(fiber)
            else:
                self.throttled[target] += packet.size_bytes
        return kept, kept_fibers

    def tick(self, t_ns: float, split, switches: Sequence) -> None:
        """Close the window ending at ``t_ns`` on the switches' signals.

        ``split`` is the run's :class:`~repro.core.sps._Split` and
        ``switches`` its live switches (``split.live`` order), each
        stepped to ``t_ns``.
        """
        offered = np.asarray(split.offered, dtype=np.float64) + self.throttled
        delivered = np.zeros(self.loop.n_switches)
        backlog = np.zeros(self.loop.n_switches)
        for h, switch in zip(split.live, switches):
            delivered[h] = switch.delivered_bytes
            backlog[h] = switch.tracked_residual_bytes
        self.loop.tick(
            t_ns,
            offered - self._offered_seen,
            delivered - self._delivered_seen,
            backlog,
        )
        self._offered_seen = offered
        self._delivered_seen = delivered

    def finish(self, duration_ns: float) -> None:
        self.loop.throttled_bytes = float(self.throttled.sum())
        self.loop.finish(duration_ns)
