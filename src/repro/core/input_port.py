"""Input port SRAM (Fig. 3, stage 1).

After O/E conversion, a processing chiplet classifies each packet to an
HBM-switch output, queues it in one of N per-output SRAM queues, and
packs queues into fixed k-byte batches (packets may straddle two
batches).  Completed batches enter a FIFO awaiting their turn on the
cyclical crossbar.

The SRAM is finite: when a packet would push the port's occupancy past
``sram_capacity_bytes`` it is dropped (tail-drop), which is how the
simulator surfaces overload instead of buffering infinitely.  The
port's high-water mark (:attr:`InputPort.peak_bytes`) is updated only
where occupancy grows: an accepted packet and a padding flush.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..config import HBMSwitchConfig
from ..sim.stats import DropCounter
from ..traffic.packet import Packet
from .frames import Batch, BatchAssembler


class InputPort:
    """One of the N input ports of an HBM switch."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        port: int,
        sram_capacity_bytes: Optional[int] = None,
    ) -> None:
        self.config = config
        self.port = port
        # Default capacity: a generous multiple of the structural need
        # (one batch forming per output plus a FIFO of in-flight batches).
        if sram_capacity_bytes is None:
            sram_capacity_bytes = 64 * config.n_ports * config.batch_bytes
        self.sram_capacity_bytes = sram_capacity_bytes
        self._assemblers = [
            BatchAssembler(output, config.batch_bytes) for output in range(config.n_ports)
        ]
        self.fifo: Deque[Batch] = deque()
        self.drops = DropCounter()
        #: High-water mark of :attr:`occupancy_bytes`.
        self.peak_bytes = 0
        self._fifo_bytes = 0
        # Maintained at enqueue/dequeue time so the occupancy check in
        # on_packet (and the switch's residual accounting) is O(1)
        # instead of a sum over N assemblers per packet.
        self._partial_bytes = 0

    # -- state ---------------------------------------------------------------

    @property
    def partial_bytes(self) -> int:
        """Bytes sitting in not-yet-complete batches."""
        return self._partial_bytes

    @property
    def occupancy_bytes(self) -> int:
        return self.partial_bytes + self._fifo_bytes

    @property
    def fifo_bytes(self) -> int:
        return self._fifo_bytes

    # -- dataplane ---------------------------------------------------------------

    def on_packet(self, packet: Packet, now: float) -> Optional[List[Batch]]:
        """Accept one packet; returns the batches completed by it.

        Completed batches are also appended to :attr:`fifo`; the switch
        schedules the crossbar drain.  An overflowing packet is dropped
        whole (no partial admission) and the call returns ``None``.
        """
        size = packet.size_bytes
        occupancy = self._partial_bytes + self._fifo_bytes + size
        if occupancy > self.sram_capacity_bytes:
            self.drops.record(size, reason="input-sram-overflow")
            return None
        emitted = self._assemblers[packet.output_port].add(packet, now)
        if emitted:
            # Emitted batches are full (no padding): their bytes move
            # from the partial batches to the FIFO.
            moved = len(emitted) * self.config.batch_bytes
            self.fifo.extend(emitted)
            self._fifo_bytes += moved
            self._partial_bytes += size - moved
        else:
            self._partial_bytes += size
        if occupancy > self.peak_bytes:
            self.peak_bytes = occupancy
        return emitted

    def pop_batch(self, now: float) -> Optional[Batch]:
        """Remove the head-of-line batch for transmission."""
        if not self.fifo:
            return None
        batch = self.fifo.popleft()
        self._fifo_bytes -= batch.size_bytes
        return batch

    def flush_partials(self, now: float) -> List[Batch]:
        """Pad out all partial batches (used at drain time with padding on)."""
        flushed = []
        for assembler in self._assemblers:
            fill_before = assembler.fill_bytes
            batch = assembler.flush(now)
            if batch is not None:
                self._partial_bytes -= fill_before
                self.fifo.append(batch)
                self._fifo_bytes += batch.size_bytes
                flushed.append(batch)
        if flushed and self.occupancy_bytes > self.peak_bytes:
            self.peak_bytes = self.occupancy_bytes
        return flushed
