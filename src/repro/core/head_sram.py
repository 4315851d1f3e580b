"""Head SRAM (Fig. 3, stage 5).

Symmetric to the tail: N SRAM modules each receive a frame slice from
the HBM read, cut it into batch slices, queue them per output, and feed
the output-side cyclical crossbar.  The simulator queues whole frames
per output and lets the output port drain them at line rate; occupancy
here is the "frames landed but not yet on the wire" backlog.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..config import HBMSwitchConfig
from ..errors import ConfigError
from .frames import Frame


class HeadSRAM:
    """Per-output frame staging between HBM reads and output ports."""

    def __init__(self, config: HBMSwitchConfig):
        self.config = config
        self._queues: List[Deque[Frame]] = [deque() for _ in range(config.n_ports)]
        self._bytes = 0
        #: High-water mark of :attr:`occupancy_bytes`, updated only
        #: where occupancy grows: an accepted frame.
        self.peak_bytes = 0

    @property
    def occupancy_bytes(self) -> int:
        return self._bytes

    def queued_frames(self, output: int) -> int:
        self._check(output)
        return len(self._queues[output])

    def on_frame(self, frame: Frame, now: float) -> None:
        """Accept one frame from an HBM read (or a bypass)."""
        self._check(frame.output)
        self._queues[frame.output].append(frame)
        self._bytes += frame.size_bytes
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes

    def pop_frame(self, output: int, now: float) -> Optional[Frame]:
        """Next frame for ``output`` to transmit, FIFO order."""
        self._check(output)
        if not self._queues[output]:
            return None
        frame = self._queues[output].popleft()
        self._bytes -= frame.size_bytes
        return frame

    def payload_backlog_bytes(self) -> int:
        """Real payload bytes still staged (excludes padding)."""
        return sum(
            frame.payload_bytes for queue in self._queues for frame in queue
        )

    def _check(self, output: int) -> None:
        if not 0 <= output < self.config.n_ports:
            raise ConfigError(f"output {output} out of range")
