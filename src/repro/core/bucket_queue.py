"""§5.2/§5.4: the circular multi-bucket priority queue with SRMW access.

Data structure recap from the paper:

- an ordered circular queue of ``n_buckets`` (32) buckets; priorities
  increase with distance; the *head* bucket holds the lowest-distance band
  ``[base_dist, base_dist + Δ)``;
- WTBs (the many writers) add work with an atomic bump of the bucket's
  **resv_ptr**, write their items into the reserved slots, execute a
  memory fence, and atomically increment the **WCC** of each touched
  N-slot segment;
- the MTB (the single reader) derives the *readable range* from segment
  WCCs: a segment with ``WCC == N`` is fully written; for a partial
  segment, ``segment_base + WCC == resv_ptr`` (checked after a fence)
  proves everything up to ``resv_ptr`` is written; otherwise nothing past
  the previous segment boundary may be trusted (§5.2 verbatim);
- a per-bucket **CWC** counts completed work items; the head bucket may
  only rotate once ``CWC == resv_ptr`` *and* everything was read —
  rotating earlier causes the "continuous cramming of work into ever
  fewer buckets" failure (§5.4), reproducible here via
  ``AddsConfig.unsafe_rotation``;
- distances outside the 32-band window are **clipped** into the tail (or
  head) bucket, losing ordering but never correctness (§5.5 / Figure 6b).

Distance payloads are float64 bit-cast into the int64 slot lane, so the
same storage serves int- and float-weighted graphs (like the artifact's
single GR payload word).

The SRMW slot machinery itself (resv/WCC/read/CWC protocol, storage,
band clipping, tracing/checking attachment) lives in the scheduler base
class — see :mod:`repro.core.scheduler` — so rival designs such as
:mod:`repro.core.mlmq` share it; this module keeps only the bucket
queue's *policy*: the circular head-relative band→slot mapping and
single-bucket rotation.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AddsConfig
from repro.core.scheduler import (
    WorkScheduler,
    decode_dist,
    encode_dist,
    register_scheduler,
)
from repro.gpu.memory import GlobalPool, SimMemory

__all__ = ["BucketQueue", "encode_dist", "decode_dist"]


@register_scheduler(
    "bucket",
    description="the paper's circular 32-bucket Δ-band queue (§5.2/§5.4)",
)
class BucketQueue(WorkScheduler):
    """The ADDS work queue: 32 circular buckets plus their metadata."""

    def __init__(
        self,
        mem: SimMemory,
        pool: GlobalPool,
        config: AddsConfig,
        *,
        initial_delta: float,
    ) -> None:
        super().__init__(
            mem, pool, config,
            initial_delta=initial_delta, n_slots=config.n_buckets,
        )
        self._band_limit = self.n_buckets - 1
        self.max_rotate_burst = self.n_buckets - 1
        # _slot_table[head][rel] = (head + rel) % n_buckets: one table per
        # head position, so a push is one gather
        bands = np.arange(self._band_limit + 1)
        self._slot_table = [
            (h + bands) % self.n_buckets for h in range(self.n_buckets)
        ]

    # ------------------------------------------------------------------ #
    # priority mapping: band ``rel`` lives in physical slot
    # ``(head + rel) % n_buckets``
    # ------------------------------------------------------------------ #

    def slot_of(self, rel: int) -> int:
        """Physical bucket index of the ``rel``-th band from the head."""
        return (self.head + rel) % self.n_buckets

    def rel_of(self, slot: int) -> int:
        return (slot - self.head) % self.n_buckets

    def _is_tail_slot(self, slot: int) -> bool:
        return (slot - self.head) % self.n_buckets == self.n_buckets - 1

    def push_slots(self, vertices: np.ndarray, dists: np.ndarray) -> np.ndarray:
        return self._slot_table[self.head][self.rel_bands_for(dists)]

    def head_slots(self):
        return (self.head,)

    def assign_slots(self, active: int):
        head = self.head
        nb = self.n_buckets
        return tuple((head + rel) % nb for rel in range(active))

    def seed_slot(self) -> int:
        return self.head

    def rotate(self) -> None:
        """Recycle the head bucket as the new farthest band (§5.4)."""
        self._recycle_slot(self.head)
        self.head = (self.head + 1) % self.n_buckets
        self.base_dist += self.delta
        self.rotations += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "queue", "rotate", self._clock(), cat="queue",
                new_head=self.head, base_dist=self.base_dist,
                rotation=self.rotations,
            )
