"""MLMQ: a multi-level multi-queue scheduler behind the WorkScheduler API.

The Multi-Level-Multi-Queue design (arXiv:2602.10080) is a direct
successor to ADDS' single circular bucket queue.  Instead of one queue
per Δ-band it keeps

- **level 0**: ``l0_bands`` fine Δ-bands, each backed by
  ``queues_per_band`` independent queues.  Writers spread same-band
  pushes across the band's queues (by vertex id here, a stand-in for
  the paper's per-SM queue affinity), cutting reservation contention on
  the hot head band; the manager drains a band's queues as one priority
  class.
- **level 1**: ``l1_bands`` coarse far-bands, each ``coarse_ratio`` Δ
  wide, one queue per band.  Far work lands here with only coarse
  ordering and is scanned at the lowest priority (workers reach it only
  when the fine window has nothing left to hand out), exactly the
  role of the far pile in near-far Δ-stepping.

Coarse bands are mapped relative to the *sliding* window base at push
time and their physical slots are never recycled: a coarse item may
therefore be relaxed "late", after the fine window has slid past its
band.  That costs only extra work, never correctness — ADDS is
label-correcting, so out-of-priority relaxations are re-checked against
the distance array — and it keeps every slot under the unmodified SRMW
resv/WCC/read/CWC protocol (storage is still reclaimed FIFO through
``retire_read_blocks``).  Final distances are bit-identical to the
bucket scheduler's; only the work schedule differs.  The PR 5 protocol
checker and schedule fuzzer run against it unchanged
(``repro check --scheduler mlmq``).

Physical slot layout (``n_buckets = l0_bands * queues_per_band + l1_bands``)::

    [band0 q0][band0 q1][band1 q0][band1 q1]...[band15 q1] [coarse0]...[coarse7]
     `-- level 0: circular in units of whole bands --'      `-- level 1: fixed --'

``rotate()`` recycles *all* queues of the head fine band at once and
advances ``base_dist`` by one Δ, so the MTB's rotation guards (read-out
+ CWC match) apply per physical slot just as for the bucket queue.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AddsConfig
from repro.core.scheduler import WorkScheduler, register_scheduler
from repro.gpu.memory import GlobalPool, SimMemory

__all__ = ["MLMQScheduler"]


@register_scheduler(
    "mlmq",
    description=(
        "multi-level multi-queue (arXiv:2602.10080): 16 fine Δ-bands × 2 "
        "queues + 8 coarse 4Δ far-bands"
    ),
)
class MLMQScheduler(WorkScheduler):
    """Two-level queue array: fine multi-queue window over a coarse far pile."""

    #: fine Δ-bands in the level-0 window
    l0_bands = 16
    #: independent queues per fine band (the "multi-queue" axis)
    queues_per_band = 2
    #: coarse far-bands at level 1
    l1_bands = 8
    #: width of one coarse band, in units of Δ
    coarse_ratio = 4

    def __init__(
        self,
        mem: SimMemory,
        pool: GlobalPool,
        config: AddsConfig,
        *,
        initial_delta: float,
    ) -> None:
        n_slots = self.l0_bands * self.queues_per_band + self.l1_bands
        super().__init__(
            mem, pool, config, initial_delta=initial_delta, n_slots=n_slots,
        )
        # bands l0_bands .. l0_bands + l1_bands*coarse_ratio - 1 are the
        # coarse window; anything farther clips into the last coarse band
        self._band_limit = self.l0_bands + self.l1_bands * self.coarse_ratio - 1
        self._coarse_base = self.l0_bands * self.queues_per_band
        # ``head`` (from the base class) is the circular index of the
        # current head *fine band*; one rotation slides one fine band
        self.max_rotate_burst = self.l0_bands - 1
        # _slot_table[head][rel * qpb + q]: fine band rel < l0_bands lives
        # in queue q of band (head + rel) % l0_bands; a coarse band
        # ignores q.  One table per head position, so a push is one gather.
        l0 = self.l0_bands
        qpb = self.queues_per_band
        rel = np.repeat(np.arange(self._band_limit + 1), qpb)
        queue = np.tile(np.arange(qpb), self._band_limit + 1)
        coarse = self._coarse_base + (rel - l0) // self.coarse_ratio
        self._slot_table = [
            np.where(rel < l0, (h + rel) % l0 * qpb + queue, coarse)
            for h in range(l0)
        ]

    # ------------------------------------------------------------------ #
    # band → physical slot mapping
    # ------------------------------------------------------------------ #

    def rel_of(self, slot: int) -> int:
        if slot < self._coarse_base:
            return (slot // self.queues_per_band - self.head) % self.l0_bands
        return self.l0_bands + (slot - self._coarse_base) * self.coarse_ratio

    def _is_tail_slot(self, slot: int) -> bool:
        # high clips land in the last coarse band: that slot drives the
        # Δ controller's clip guard, like the tail bucket does for the
        # bucket queue
        return slot == self.n_buckets - 1

    def push_slots(self, vertices: np.ndarray, dists: np.ndarray) -> np.ndarray:
        # the queue within a fine band is picked by vertex hash
        qpb = self.queues_per_band
        idx = self.rel_bands_for(dists)
        idx *= qpb
        idx += vertices % qpb
        return self._slot_table[self.head][idx]

    def head_slots(self):
        base = self.head * self.queues_per_band
        return tuple(range(base, base + self.queues_per_band))

    def assign_slots(self, active: int):
        qpb = self.queues_per_band
        l0 = self.l0_bands
        head = self.head
        out = []
        for rel in range(min(active, l0)):
            base = ((head + rel) % l0) * qpb
            out.extend(range(base, base + qpb))
        # coarse far-bands last: scanned only while idle workers remain
        # after the fine window was handed out
        out.extend(range(self._coarse_base, self._coarse_base + self.l1_bands))
        return tuple(out)

    def seed_slot(self) -> int:
        return self.head * self.queues_per_band

    def rotate(self) -> None:
        """Recycle every queue of the head fine band; slide the window Δ."""
        base = self.head * self.queues_per_band
        for slot in range(base, base + self.queues_per_band):
            self._recycle_slot(slot)
        self.head = (self.head + 1) % self.l0_bands
        self.base_dist += self.delta
        self.rotations += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "queue", "rotate", self._clock(), cat="queue",
                new_head=self.head, base_dist=self.base_dist,
                rotation=self.rotations,
            )
