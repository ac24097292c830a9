"""The WTB push path: ``push_slots`` band→slot mapping and slot grouping.

``WorkScheduler.push_slots`` maps a whole batch of relaxation winners to
physical slots in one vectorized pass.  The property test below holds it
to a scalar reference — the per-item Δ-band clip rule (§5.5 / Figure
6(b)) followed by each policy's per-item band→slot mapping — for every
registered scheduler.  The grouping test pins the two protocol-visible
orders of the WTB's publication step: slots are reserved in ascending
order, and items keep their push order within a slot.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AddsConfig
from repro.core.scheduler import get_scheduler_info, scheduler_names
from repro.core.wtb import AF_ASSIGNED, wtb_program
from repro.gpu.memory import GlobalPool, SimMemory
from repro.trace.tracer import NULL_TRACER

ALL_SCHEDULERS = scheduler_names()


def make_scheduler(name: str, delta: float = 10.0):
    cfg = AddsConfig(segment_size=4, slots_per_block=32, pool_blocks=256)
    mem = SimMemory()
    pool = GlobalPool(cfg.pool_blocks, words_per_block=cfg.slots_per_block)
    q = get_scheduler_info(name).create(mem, pool, cfg, initial_delta=delta)
    for s in range(q.n_buckets):
        q.storage[s].ensure_capacity(4 * cfg.slots_per_block)
    return q


def head_ring(q) -> int:
    """Number of distinct ``head`` positions of the scheduler's window."""
    return q.l0_bands if q.name == "mlmq" else q.n_buckets


def reference_push_slots(q, vertices, dists):
    """Scalar reference: per-item clip rule, then per-item band→slot."""
    limit = q._band_limit
    low = high = 0
    slots = []
    for v, d in zip(vertices.tolist(), dists.tolist()):
        r = int(np.floor_divide(d - q.base_dist, q.delta))
        if r < 0:
            low += 1
            r = 0
        elif r > limit:
            high += 1
            r = limit
        if q.name == "bucket":
            slots.append((q.head + r) % q.n_buckets)
        elif q.name != "mlmq":
            raise NotImplementedError(f"no reference mapping for {q.name}")
        elif r < q.l0_bands:
            band = (q.head + r) % q.l0_bands
            slots.append(band * q.queues_per_band + v % q.queues_per_band)
        else:
            slots.append(q._coarse_base + (r - q.l0_bands) // q.coarse_ratio)
    return slots, low, high


# A pushed distance, in units of Δ relative to base_dist: an exact band
# boundary, a point inside a band, or far beyond any window (high clip).
# Negative band offsets fall below the window (low clip).
band_offsets = st.one_of(
    st.integers(-4, 60).map(float),
    st.floats(-4.0, 60.0, allow_nan=False),
    st.floats(1e6, 1e12, allow_nan=False),
)


class TestPushSlotsProperty:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    @given(
        head=st.integers(0, 63),
        base=st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_nan=False)),
        delta=st.floats(0.01, 1e4, allow_nan=False),
        items=st.lists(
            st.tuples(st.integers(0, 10**6), band_offsets),
            min_size=1,
            max_size=40,
        ),
        vdtype=st.sampled_from([np.int32, np.int64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(
        self, name, head, base, delta, items, vdtype
    ):
        q = make_scheduler(name, delta=delta)
        q.head = head % head_ring(q)
        q.base_dist = base
        vertices = np.array([v for v, _ in items], dtype=vdtype)
        dists = np.array(
            [max(0.0, base + off * delta) for _, off in items]
        )
        ref = make_scheduler(name, delta=delta)
        ref.head = q.head
        ref.base_dist = base
        want, low, high = reference_push_slots(ref, vertices, dists)

        slots = q.push_slots(vertices, dists)
        assert slots.dtype == np.int64
        assert slots.tolist() == want
        assert (q.low_clips, q.high_clips) == (low, high)


class TestWtbGrouping:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_ascending_slots_and_push_order_within_a_slot(self, name):
        q = make_scheduler(name, delta=10.0)
        q.head = 3 % head_ring(q)
        # winners in push order; their bands interleave so every slot's
        # items are scattered through the batch
        new_v = np.array([11, 4, 7, 20, 2, 9, 15, 6], dtype=np.int64)
        dist = np.zeros(32)
        dist[new_v] = [25.0, 3.0, 21.0, 14.0, 0.0, 28.0, 12.0, 500.0]
        slots = q.push_slots(new_v, dist[new_v]).tolist()
        assert len(set(slots)) > 2
        want = [
            (s, [v for v, t in zip(new_v.tolist(), slots) if t == s])
            for s in sorted(set(slots))
        ]

        reserves = []
        reserve = q.reserve

        def recording_reserve(slot, k):
            reserves.append((slot, k))
            return reserve(slot, k)

        q.reserve = recording_reserve
        seed = q.seed_slot()

        dev = SimpleNamespace(
            tracer=NULL_TRACER, cost=SimpleNamespace(atomic_cycles=1.0),
            now_us=0.0, annotate=lambda *a, **k: None,
        )
        state = SimpleNamespace(
            device=dev, queue=q, dist=dist,
            af_state=np.array([AF_ASSIGNED]), af_edges=np.zeros(1),
            outstanding_edges=0.0,
        )
        kernel = SimpleNamespace(
            dispatch=lambda wid: (
                seed, 1, 0, 1, 8, 1.0, 0, new_v, int(new_v.size)
            )
        )
        prog = wtb_program(state, 0, kernel)
        assert next(prog)[0] == "wait"
        assert prog.send(None)[0] == "relax"
        assert prog.send(None)[0] == "busy"

        assert reserves == [(s, len(vs)) for s, vs in want]
        for s, vs in want:
            got, _ = q.read_items(s, 0, len(vs))
            assert got.tolist() == vs
