"""Tests for simulated memory: atomics, batch atomic-min, the block pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.gpu import SimMemory
from repro.gpu.memory import WORDS_PER_BLOCK, GlobalPool


@pytest.fixture
def mem():
    return SimMemory()


class TestAtomics:
    def test_atomic_add_returns_old(self, mem):
        a = np.array([5], dtype=np.int64)
        assert mem.atomic_add(a, 0, 3) == 5
        assert a[0] == 8

    def test_atomic_min_improves(self, mem):
        a = np.array([10], dtype=np.int64)
        assert mem.atomic_min(a, 0, 7) is True
        assert a[0] == 7

    def test_atomic_min_no_change(self, mem):
        a = np.array([5], dtype=np.int64)
        assert mem.atomic_min(a, 0, 9) is False
        assert a[0] == 5

    def test_atomic_cas_success(self, mem):
        a = np.array([1], dtype=np.int64)
        assert mem.atomic_cas(a, 0, 1, 42) == 1
        assert a[0] == 42

    def test_atomic_cas_failure(self, mem):
        a = np.array([2], dtype=np.int64)
        assert mem.atomic_cas(a, 0, 1, 42) == 2
        assert a[0] == 2

    def test_counters(self, mem):
        a = np.array([0], dtype=np.int64)
        mem.atomic_add(a, 0, 1)
        mem.atomic_min(a, 0, -1)
        mem.fence()
        mem.read(3)
        mem.write(2, scratchpad=True)
        s = mem.stats.snapshot()
        assert s["atomics"] == 2
        assert s["fences"] == 1
        assert s["global_reads"] == 3
        assert s["scratchpad_writes"] == 2


class TestAtomicMinBatch:
    def test_simple_batch(self, mem):
        dist = np.array([10, 10, 10], dtype=np.float64)
        winners = mem.atomic_min_batch(
            dist, np.array([0, 2]), np.array([5.0, 20.0])
        )
        assert dist.tolist() == [5, 10, 10]
        assert winners.tolist() == [True, False]

    def test_duplicate_indices_single_winner(self, mem):
        dist = np.array([100.0])
        winners = mem.atomic_min_batch(
            dist, np.array([0, 0, 0]), np.array([7.0, 3.0, 7.0])
        )
        assert dist[0] == 3.0
        assert winners.sum() == 1
        assert winners[1]  # the value that holds the final minimum

    def test_tied_duplicates_one_winner(self, mem):
        dist = np.array([100.0])
        winners = mem.atomic_min_batch(
            dist, np.array([0, 0]), np.array([4.0, 4.0])
        )
        assert winners.sum() == 1

    def test_no_improvement_no_winners(self, mem):
        dist = np.array([1.0, 2.0])
        winners = mem.atomic_min_batch(
            dist, np.array([0, 1]), np.array([5.0, 5.0])
        )
        assert not winners.any()

    def test_empty_batch(self, mem):
        dist = np.array([1.0])
        winners = mem.atomic_min_batch(dist, np.array([], dtype=np.int64), np.array([]))
        assert winners.size == 0

    def test_counts_every_atomic(self, mem):
        dist = np.full(4, 9.0)
        mem.atomic_min_batch(dist, np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
        assert mem.stats.atomics == 3

    def test_matches_serial_semantics(self, mem):
        rng = np.random.default_rng(0)
        dist = rng.uniform(0, 100, size=50)
        idx = rng.integers(0, 50, size=500)
        vals = rng.uniform(0, 100, size=500)
        expect = dist.copy()
        for i, v in zip(idx, vals):
            expect[i] = min(expect[i], v)
        mem.atomic_min_batch(dist, idx, vals)
        assert np.allclose(dist, expect)

    @pytest.mark.parametrize(
        "n", [11, 12, 13, 14, 15, 16, 17, 18, 31, 32, 33, 34]
    )
    def test_winners_match_atomicmin_rule(self, mem, n):
        """Both paths (scalar at n <= 16, vectorized above) against a
        scalar reference of the atomicMin winner rule of gardenia's
        ``sssp_wlw.h``: a thread wins iff ``altdist < atomicMin(&d, altdist)``.
        The reference runs the threads best-first (by value, then by
        position), the schedule the batch semantics pin: per index the
        first entry holding the minimum wins, if it improves on the
        pre-batch value.  Small value ranges force duplicate indices and
        ties, both among entries and with the pre-batch value."""
        rng = np.random.default_rng(n)
        for _ in range(50):
            idx = rng.integers(0, max(2, n // 3), size=n)
            vals = rng.integers(0, 6, size=n).astype(np.float64)
            dist = rng.integers(0, 6, size=idx.max() + 1).astype(np.float64)
            payload = np.arange(n, dtype=np.int64)
            pred = np.full(dist.size, -1, dtype=np.int64)

            ref_dist = dist.copy()
            ref_pred = pred.copy()
            ref_win = np.zeros(n, dtype=bool)
            for i in sorted(range(n), key=lambda i: (vals[i], i)):
                j = idx[i]
                if vals[i] < ref_dist[j]:
                    old = ref_dist[j]
                    ref_dist[j] = min(old, vals[i])
                    if vals[i] < old:
                        ref_win[i] = True
                        ref_pred[j] = payload[i]

            win = mem.atomic_min_batch(
                dist, idx, vals, payload=payload, payload_out=pred
            )
            np.testing.assert_array_equal(win, ref_win)
            np.testing.assert_array_equal(dist, ref_dist)
            np.testing.assert_array_equal(pred, ref_pred)

    @pytest.mark.parametrize("sizes", [(3, 5), (20, 30), (30, 40, 50)])
    def test_fused_call_contract(self, mem, sizes):
        """One call over a disjoint-across-sub-batch concatenation must be
        bit-equivalent to the sequential per-sub-batch calls — winner mask
        slices, array contents, payload and atomics counter alike."""
        rng = np.random.default_rng(7)
        n_vert = sum(sizes) * 2
        # disjoint index pools per sub-batch; duplicates *within* each one
        pools = []
        lo = 0
        for s in sizes:
            pools.append(rng.integers(lo, lo + s, size=s))
            lo += 2 * s
        values = [rng.uniform(0, 100, size=p.size) for p in pools]
        payloads = [rng.integers(0, 1000, size=p.size) for p in pools]

        solo_dist = rng.uniform(0, 100, size=n_vert)
        fused_dist = solo_dist.copy()
        solo_pred = np.full(n_vert, -1, dtype=np.int64)
        fused_pred = solo_pred.copy()

        solo = SimMemory()
        masks = [
            solo.atomic_min_batch(
                solo_dist, p, v, payload=pl, payload_out=solo_pred
            )
            for p, v, pl in zip(pools, values, payloads)
        ]
        fused_mask = mem.atomic_min_batch(
            fused_dist,
            np.concatenate(pools),
            np.concatenate(values),
            payload=np.concatenate(payloads),
            payload_out=fused_pred,
        )
        np.testing.assert_array_equal(
            fused_mask, np.concatenate(masks)
        )
        np.testing.assert_array_equal(fused_dist, solo_dist)
        np.testing.assert_array_equal(fused_pred, solo_pred)
        assert mem.stats.atomics == solo.stats.atomics


class TestGlobalPool:
    def test_acquire_release_cycle(self):
        pool = GlobalPool(3, words_per_block=16)
        a = pool.acquire()
        b = pool.acquire()
        assert a != b
        assert pool.free_blocks == 1
        pool.release(a)
        assert pool.free_blocks == 2

    def test_exhaustion_raises(self):
        pool = GlobalPool(1, words_per_block=16)
        pool.acquire()
        with pytest.raises(AllocationError, match="exhausted"):
            pool.acquire()

    def test_double_free_raises(self):
        pool = GlobalPool(2, words_per_block=16)
        a = pool.acquire()
        pool.release(a)
        with pytest.raises(AllocationError, match="double free"):
            pool.release(a)

    def test_unknown_block_release(self):
        pool = GlobalPool(2, words_per_block=16)
        with pytest.raises(AllocationError, match="unknown block"):
            pool.release(99)

    def test_default_block_size_is_the_papers(self):
        pool = GlobalPool(1)
        assert pool.words_per_block == WORDS_PER_BLOCK == 65536

    def test_high_water_mark(self):
        pool = GlobalPool(4, words_per_block=8)
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        pool.release(b)
        pool.acquire()
        assert pool.high_water == 2

    def test_storage_shape(self):
        pool = GlobalPool(2, words_per_block=32)
        assert pool.storage.shape == (2, 32, 2)

    def test_zero_blocks_rejected(self):
        with pytest.raises(AllocationError):
            GlobalPool(0)


class _CountingList(list):
    """A list that counts membership scans (the O(n) guard we removed)."""

    def __init__(self, items):
        super().__init__(items)
        self.contains_calls = 0

    def __contains__(self, item):
        self.contains_calls += 1
        return super().__contains__(item)


class TestPoolReleaseComplexity:
    def test_release_never_scans_the_free_list(self):
        """The double-free guard must be O(1): release goes through the
        membership set, never ``in`` on the free list itself."""
        pool = GlobalPool(64, words_per_block=8)
        pool._free = _CountingList(pool._free)
        blocks = [pool.acquire() for _ in range(64)]
        for b in blocks:
            pool.release(b)
        assert pool._free.contains_calls == 0

    def test_set_guard_still_catches_double_free(self):
        pool = GlobalPool(4, words_per_block=8)
        a = pool.acquire()
        b = pool.acquire()
        pool.release(a)
        pool.release(b)
        with pytest.raises(AllocationError, match="double free"):
            pool.release(a)
        # the set and list stay in lockstep across reuse
        c = pool.acquire()
        pool.release(c)
        assert sorted(pool._free) == sorted(pool._free_set)


class TestAtomicAddBatch:
    def test_counts_one_atomic_per_entry(self):
        mem = SimMemory()
        arr = np.zeros(4, dtype=np.int64)
        before = mem.stats.atomics
        mem.atomic_add_batch(arr, np.array([0, 1, 1, 3]), np.array([5, 1, 2, 7]))
        assert mem.stats.atomics - before == 4
        assert arr.tolist() == [5, 3, 0, 7]  # duplicates accumulate
