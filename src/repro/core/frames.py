"""Batches and frames: PFI's two-stage aggregation (Design 6, step 1).

At each input, variable-size packets are cut and assembled into
fixed-size **batches** of k = 4 KB; packets may straddle two batches
(SS 3.2 step 1).  At the tail SRAM, batches for the same output aggregate
into **frames** of K = 512 KB = 128 batches (step 2).

The simulator tracks data at batch granularity; a packet is *carried* by
the batch containing its last byte, which is when its content is fully
available downstream -- latency is measured at that batch's departure.
Padding bytes (from the SS 4 latency optimisation) are tracked separately
so goodput and raw throughput can be reported apart.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from ..traffic.packet import Packet


class Batch:
    """One fixed-size batch of ``size_bytes`` (= k), for one output."""

    __slots__ = ("output", "seq", "size_bytes", "payload_bytes", "completing", "created_ns")

    def __init__(
        self,
        output: int,
        seq: int,
        size_bytes: int,
        payload_bytes: int,
        completing: List[Packet],
        created_ns: float,
    ) -> None:
        self.output = output
        self.seq = seq
        self.size_bytes = size_bytes
        self.payload_bytes = payload_bytes
        self.completing = completing
        self.created_ns = created_ns

    @property
    def padding_bytes(self) -> int:
        """Filler bytes added when the batch was flushed before full."""
        return self.size_bytes - self.payload_bytes

    def slice_bytes(self, n_modules: int) -> int:
        """Size of one of the N equal slices (k/N = 256 B reference)."""
        if self.size_bytes % n_modules != 0:
            raise ConfigError(
                f"batch of {self.size_bytes} B does not slice into {n_modules}"
            )
        return self.size_bytes // n_modules

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Batch(out={self.output}, seq={self.seq}, "
            f"{self.payload_bytes}/{self.size_bytes}B, "
            f"{len(self.completing)} pkts)"
        )


class BatchAssembler:
    """Per-(input, output) queue that cuts packets into batches.

    Packets accumulate; every time the fill crosses a k-byte boundary a
    batch is emitted.  A packet completing exactly at a boundary belongs
    to the batch it fills (its last byte is inside it).
    """

    def __init__(self, output: int, batch_bytes: int):
        if batch_bytes <= 0:
            raise ConfigError(f"batch size must be positive, got {batch_bytes}")
        self.output = output
        self.batch_bytes = batch_bytes
        self._fill = 0  # bytes in the current partial batch
        self._completing: List[Packet] = []
        self._seq = 0

    @property
    def fill_bytes(self) -> int:
        """Bytes currently buffered in the partial batch."""
        return self._fill

    @property
    def batches_emitted(self) -> int:
        return self._seq

    def add(self, packet: Packet, now: float) -> List[Batch]:
        """Feed one packet; return the batches it completes (possibly [])."""
        if packet.output_port != self.output:
            raise ConfigError(
                f"packet for output {packet.output_port} fed to assembler "
                f"for output {self.output}"
            )
        fill = self._fill + packet.size_bytes
        if fill < self.batch_bytes:
            # The common case: the packet completes inside the
            # still-forming batch and emits nothing.
            self._fill = fill
            self._completing.append(packet)
            return []
        emitted: List[Batch] = []
        remaining = packet.size_bytes
        while remaining > 0:
            space = self.batch_bytes - self._fill
            take = min(space, remaining)
            self._fill += take
            remaining -= take
            if remaining == 0:
                self._completing.append(packet)
            if self._fill == self.batch_bytes:
                emitted.append(self._emit(now, padding=0))
        return emitted

    def flush(self, now: float) -> Optional[Batch]:
        """Emit the partial batch padded to full size (frame padding).

        Returns ``None`` when nothing is buffered.
        """
        if self._fill == 0:
            return None
        padding = self.batch_bytes - self._fill
        self._fill = self.batch_bytes
        return self._emit(now, padding=padding)

    def _emit(self, now: float, padding: int) -> Batch:
        batch = Batch(
            output=self.output,
            seq=self._seq,
            size_bytes=self.batch_bytes,
            payload_bytes=self.batch_bytes - padding,
            completing=self._completing,
            created_ns=now,
        )
        self._seq += 1
        self._fill = 0
        self._completing = []
        return batch


class Frame:
    """One K-byte frame: ``batches_per_frame`` batches for one output."""

    __slots__ = ("output", "index", "batches", "size_bytes", "created_ns", "bypassed", "payload_bytes")

    def __init__(self, output: int, index: int, batches: List[Batch], size_bytes: int, created_ns: float):
        self.output = output
        self.index = index
        self.batches = batches
        self.size_bytes = size_bytes
        self.created_ns = created_ns
        self.bypassed = False
        #: Real (non-padding, non-filler) bytes; batches are fixed at
        #: emission time, so this is computed once instead of per query
        #: (residual accounting reads it on every enqueue/dequeue).
        self.payload_bytes = sum(batch.payload_bytes for batch in batches)

    @property
    def padding_bytes(self) -> int:
        """Filler: batch padding plus whole missing batches (padded frames)."""
        return self.size_bytes - self.payload_bytes

    @property
    def completing_packets(self) -> List[Packet]:
        return [packet for batch in self.batches for packet in batch.completing]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame(out={self.output}, idx={self.index}, "
            f"{len(self.batches)} batches, {self.payload_bytes}/{self.size_bytes}B)"
        )


class FrameAssembler:
    """Per-output frame builder living in the tail SRAM.

    Collects batches; emits a frame when ``batches_per_frame`` have
    accumulated.  ``flush`` builds a *padded frame* from fewer batches
    (the SS 4 latency optimisation), keeping the frame size fixed so the
    HBM schedule is unchanged.
    """

    def __init__(self, output: int, batch_bytes: int, batches_per_frame: int):
        if batches_per_frame <= 0:
            raise ConfigError(
                f"batches_per_frame must be positive, got {batches_per_frame}"
            )
        self.output = output
        self.batch_bytes = batch_bytes
        self.batches_per_frame = batches_per_frame
        self._pending: List[Batch] = []
        self._index = 0

    @property
    def frame_bytes(self) -> int:
        return self.batch_bytes * self.batches_per_frame

    @property
    def pending_batches(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return len(self._pending) * self.batch_bytes

    def add(self, batch: Batch, now: float) -> Optional[Frame]:
        """Feed one batch; return a full frame when one completes."""
        if batch.output != self.output:
            raise ConfigError(
                f"batch for output {batch.output} fed to frame assembler "
                f"for output {self.output}"
            )
        self._pending.append(batch)
        if len(self._pending) == self.batches_per_frame:
            return self._emit(now)
        return None

    def flush(self, now: float) -> Optional[Frame]:
        """Emit a padded frame from whatever is pending (possibly none)."""
        if not self._pending:
            return None
        return self._emit(now)

    def _emit(self, now: float) -> Frame:
        frame = Frame(
            output=self.output,
            index=self._index,
            batches=self._pending,
            size_bytes=self.frame_bytes,
            created_ns=now,
        )
        self._index += 1
        self._pending = []
        return frame
