"""Simulated device memory: atomics, fences and traffic accounting.

The event engine in :mod:`repro.gpu.device` is cooperative (a block's
program runs uninterrupted between ``yield`` points), so the *values*
produced by these atomics are trivially correct; what this module adds is

- the **API shape** of the CUDA primitives the paper's kernels use
  (``atomicAdd``/``atomicMin``/``atomicCAS``, ``__threadfence``), so the
  ADDS code reads like the algorithm in §5;
- **operation counters**, which feed reports and tests (e.g. the tests
  that assert the MTB performs a fence before trusting ``resv_ptr``); and
- a **pre-allocated arena** (:class:`GlobalPool`) from which the ADDS
  block allocator draws its 64 Ki-word blocks, mirroring the paper's
  "large block of pre-allocated GPU memory" (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import AllocationError
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = ["MemoryStats", "SimMemory", "GlobalPool", "WORDS_PER_BLOCK"]

#: The paper's allocation granularity: blocks of 64 Ki 32-bit words (§5.3).
WORDS_PER_BLOCK = 1 << 16


@dataclass
class MemoryStats:
    """Counters of simulated memory operations, by kind."""

    global_reads: int = 0
    global_writes: int = 0
    scratchpad_reads: int = 0
    scratchpad_writes: int = 0
    atomics: int = 0
    fences: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "global_reads": self.global_reads,
            "global_writes": self.global_writes,
            "scratchpad_reads": self.scratchpad_reads,
            "scratchpad_writes": self.scratchpad_writes,
            "atomics": self.atomics,
            "fences": self.fences,
        }


class SimMemory:
    """Atomic primitives over NumPy arrays, with operation accounting.

    One instance is shared by all thread-block programs on a device; the
    distinction between "global" and "scratchpad" exists only in the
    counters (and in the cost events programs emit), exactly as on real
    hardware where it is an address-space property.
    """

    def __init__(self) -> None:
        self.stats = MemoryStats()
        # dynamic protocol checker (repro.check): verifies atomic-min
        # monotonicity/winner semantics when attached, one branch when not
        self._checker = None

    def attach_checker(self, checker) -> None:
        """Route ``atomic_min``/``atomic_min_batch`` outcomes through a
        :class:`repro.check.ProtocolChecker` (or None to detach)."""
        self._checker = checker

    # -- atomics ----------------------------------------------------------- #

    def atomic_add(self, arr: np.ndarray, index: int, value) -> int:
        """``atomicAdd``: add, return the *old* value."""
        self.stats.atomics += 1
        old = arr.item(index)
        arr[index] = old + value
        return old

    def atomic_add_batch(
        self, arr: np.ndarray, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Vectorized ``atomicAdd`` over possibly-duplicated indices.

        One counted atomic per entry — a warp issuing k ``atomicAdd``s
        still performs k atomics, it just does so without a host-side
        Python loop.  Implemented with ``np.add.at`` (unbuffered
        scatter-add, so duplicate indices accumulate like real atomics).
        """
        self.stats.atomics += int(np.asarray(indices).size)
        np.add.at(arr, indices, values)

    def atomic_min(self, arr: np.ndarray, index: int, value) -> bool:
        """``atomicMin``: returns True iff the stored value decreased."""
        self.stats.atomics += 1
        old = arr.item(index)
        if value < old:
            arr[index] = value
            if self._checker is not None:
                self._checker.on_atomic_min(arr, index, value, old)
            return True
        return False

    def atomic_min_batch(
        self,
        arr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        payload: np.ndarray = None,
        payload_out: np.ndarray = None,
    ) -> np.ndarray:
        """Vectorized atomic-min over possibly-duplicated indices.

        Returns a boolean mask marking the entries whose value became the
        new minimum at their index (i.e. "my atomicMin won"), matching the
        semantics each GPU thread observes.  Implemented with
        ``np.minimum.at`` (an unbuffered scatter-min, the NumPy analog of
        hardware atomics).

        When ``payload``/``payload_out`` are given, each winning entry also
        stores ``payload[i]`` into ``payload_out[indices[i]]`` — the
        64-bit packed (distance, predecessor) update GPU SSSP kernels use
        to keep the shortest-path tree consistent with the distances.

        **Fused-call contract**: dedup never crosses an index, so for
        index sets that are disjoint *across* sub-batches, one call
        over the concatenation is bit-equivalent to the sequential
        per-sub-batch calls — each concatenated slice of the winner mask
        equals the solo mask, ``arr``/``payload_out`` land identically,
        and ``stats.atomics`` grows by the same total.  Within a
        sub-batch duplicates dedup to the first best entry on both the
        scalar (``n <= 16``) and vectorized paths, so the equivalence
        holds regardless of which path each call shape takes.
        """
        n = int(indices.size)
        self.stats.atomics += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        checker = self._checker
        pre_vals = arr[indices] if checker is not None else None
        if n <= 16:
            # Small batches (the common WTB case: a handful of edges per
            # chunk) pay more for the eight-odd NumPy dispatches below
            # than for the arithmetic; a scalar pass computes the same
            # winner mask — first entry per index that improves on the
            # pre-batch value and holds the post-batch minimum.  The
            # cutoff is the measured crossover (numpy 2.4, x86-64 Xeon,
            # batches recorded from ADDS solves): the scalar pass is ~8%
            # faster at 15-16 entries, even at 17-20, ~14% slower at 21-24.
            winners = np.zeros(n, dtype=bool)
            state: dict = {}  # idx -> [pre-batch value, best value, position]
            idx_l = indices.tolist()
            val_l = values.tolist()
            arr_item = arr.item
            for i in range(n):
                j = idx_l[i]
                v = val_l[i]
                rec = state.get(j)
                if rec is None:
                    state[j] = [arr_item(j), v, i]
                elif v < rec[1]:
                    rec[1] = v
                    rec[2] = i
            has_payload = payload is not None and payload_out is not None
            for j, (pre, best, pos) in state.items():
                if best < pre:
                    arr[j] = best
                    winners[pos] = True
                    if has_payload:
                        payload_out[j] = payload[pos]
            if checker is not None:
                checker.on_atomic_min_batch(arr, indices, values, pre_vals, winners)
            return winners
        before = arr[indices]  # fancy indexing already copies
        np.minimum.at(arr, indices, values)
        after = arr[indices]
        # A thread "wins" if it improved on the pre-batch value and is the
        # (first) entry that holds the post-batch minimum for its index.
        improved = values < before
        is_final = values == after
        winners = improved & is_final
        # Deduplicate: when several entries tie on the same index, keep
        # the first.  For the small winner counts WTB chunks produce, a
        # scalar first-occurrence scan beats the sort inside np.unique;
        # the BSP baselines push thousands of winners per superstep, so
        # big sets keep the vectorized path.  Both keep the first
        # occurrence per index, so the mask is identical either way.
        any_winners = bool(winners.any())
        if any_winners:
            order = winners.nonzero()[0]
            if 1 < order.size <= 64:
                idx_w = indices[order]
                seen: set = set()
                keep = []
                dup = False
                for pos, j in zip(order.tolist(), idx_w.tolist()):
                    if j in seen:
                        dup = True
                    else:
                        seen.add(j)
                        keep.append(pos)
                if dup:
                    winners = np.zeros_like(winners)
                    winners[keep] = True
            elif order.size > 64:
                idx_w = indices[order]
                uniq, first = np.unique(idx_w, return_index=True)
                if uniq.size < idx_w.size:
                    keep = order[first]
                    winners = np.zeros_like(winners)
                    winners[keep] = True
        if payload is not None and payload_out is not None and any_winners:
            payload_out[indices[winners]] = payload[winners]
        if checker is not None:
            checker.on_atomic_min_batch(arr, indices, values, pre_vals, winners)
        return winners

    def atomic_cas(self, arr: np.ndarray, index: int, expected, desired) -> int:
        """``atomicCAS``: conditional swap, returns the old value."""
        self.stats.atomics += 1
        old = arr.item(index)
        if old == expected:
            arr[index] = desired
        return old

    # -- fences and plain accesses ------------------------------------------ #

    def fence(self) -> None:
        """``__threadfence``: in the cooperative simulator ordering is
        already sequential; the call is counted so protocol tests can
        assert it happened where §5.2 requires it."""
        self.stats.fences += 1

    def read(self, n: int = 1, *, scratchpad: bool = False) -> None:
        if scratchpad:
            self.stats.scratchpad_reads += n
        else:
            self.stats.global_reads += n

    def write(self, n: int = 1, *, scratchpad: bool = False) -> None:
        if scratchpad:
            self.stats.scratchpad_writes += n
        else:
            self.stats.global_writes += n


class GlobalPool:
    """The pre-allocated arena backing ADDS's bucket blocks (§5.3).

    ``acquire`` hands out fixed-size int64 blocks ("64K 32-bit words" in
    the paper; we store (vertex, distance) pairs per slot, so the slot
    count per block is what matches).  ``release`` returns a block for
    reuse.  The FIFO usage pattern of the bucket queue means a simple
    free list suffices — that simplicity is the paper's point.
    """

    def __init__(self, num_blocks: int, words_per_block: int = WORDS_PER_BLOCK) -> None:
        if num_blocks < 1:
            raise AllocationError("pool needs at least one block")
        self.words_per_block = int(words_per_block)
        self._free = list(range(num_blocks - 1, -1, -1))
        # Membership twin of ``_free``: the double-free guard in
        # ``release`` must not scan the list (O(free) per release made
        # the allocator quadratic over a run).
        self._free_set = set(self._free)
        self.num_blocks = num_blocks
        # storage[i] holds block i; two int64 lanes: vertex id and distance
        # bit pattern (distances are stored via a codec by the queue).
        self.storage = np.zeros((num_blocks, self.words_per_block, 2), dtype=np.int64)
        self.high_water = 0
        self._tracer: Tracer = NULL_TRACER
        self._clock: Callable[[], float] = lambda: 0.0

    def attach_tracer(
        self, tracer: Optional[Tracer], clock: Callable[[], float]
    ) -> None:
        """Emit ``pool_blocks_in_use`` counter samples on acquire/release.

        ``clock`` supplies the current simulated time in µs (the pool has
        no device reference of its own)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def blocks_in_use(self) -> int:
        return self.num_blocks - len(self._free)

    def acquire(self) -> int:
        """Take a free block id; raises :class:`AllocationError` when empty."""
        if not self._free:
            raise AllocationError(
                f"global pool exhausted ({self.num_blocks} blocks in use)"
            )
        blk = self._free.pop()
        self._free_set.discard(blk)
        self.high_water = max(self.high_water, self.num_blocks - len(self._free))
        if self._tracer.enabled:
            self._tracer.counter(
                "pool_blocks_in_use", self._clock(), self.blocks_in_use
            )
        return blk

    def release(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise AllocationError(f"release of unknown block {block_id}")
        if block_id in self._free_set:
            raise AllocationError(f"double free of block {block_id}")
        self._free.append(block_id)
        self._free_set.add(block_id)
        if self._tracer.enabled:
            self._tracer.counter(
                "pool_blocks_in_use", self._clock(), self.blocks_in_use
            )
