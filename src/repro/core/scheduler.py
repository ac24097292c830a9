"""The ``WorkScheduler`` protocol: pluggable priority work queues.

ADDS (§5 of the paper) is built around one concrete scheduler — the
circular 32-bucket queue of :mod:`repro.core.bucket_queue` — but nothing
in the MTB/WTB programs or the SRMW access protocol actually depends on
*how* distances map to physical slots.  This module extracts the
slot-generic machinery into :class:`WorkScheduler` so rival queue
designs (e.g. :class:`repro.core.mlmq.MLMQScheduler`) drop in with full
checking, tracing, and benching for free, and registers implementations
in a :data:`SCHEDULERS` registry mirroring the solver registry of
:mod:`repro.baselines.common`.

The split of responsibilities:

``WorkScheduler`` (here)
    Everything per-physical-slot: the ``resv_ptr`` / segment ``WCC`` /
    ``read_ptr`` / ``CWC`` arrays and their SRMW protocol operations
    (:meth:`~WorkScheduler.reserve`, :meth:`~WorkScheduler.publish`,
    :meth:`~WorkScheduler.complete`, :meth:`~WorkScheduler.readable_upper`,
    :meth:`~WorkScheduler.read_items`, ...), block-allocator storage,
    capacity wake channels, Δ-band mapping with clip counting, tracer /
    checker / device attachment, termination counters, and
    :meth:`~WorkScheduler.snapshot`.

Subclasses (the scheduling *policy*)
    How distances map to physical slots (:meth:`~WorkScheduler.push_slots`),
    which slots the MTB scans and in what priority order
    (:meth:`~WorkScheduler.assign_slots`), which slots form the current
    head band (:meth:`~WorkScheduler.head_slots`), and what
    :meth:`~WorkScheduler.rotate` recycles when the window slides.

Everything a subclass stores per slot is indexed by *physical slot*
``0 .. n_buckets-1``; the :class:`repro.check.ProtocolChecker` sizes its
mirrors from ``n_buckets`` and checks every implementation against the
same invariant set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.block_alloc import BucketStorage, TranslationCache
from repro.core.config import AddsConfig
from repro.errors import ProtocolError, SolverError
from repro.gpu.memory import GlobalPool, SimMemory
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "WorkScheduler",
    "SchedulerInfo",
    "SCHEDULERS",
    "DEFAULT_SCHEDULER",
    "register_scheduler",
    "get_scheduler_info",
    "scheduler_names",
    "encode_dist",
    "decode_dist",
]

DEFAULT_SCHEDULER = "bucket"


def encode_dist(d: np.ndarray) -> np.ndarray:
    """float64 distances → int64 bit patterns (order-preserving for d ≥ 0)."""
    if isinstance(d, np.ndarray) and d.dtype == np.float64 and d.flags.c_contiguous:
        return d.view(np.int64)  # hot path: already the right layout
    return np.ascontiguousarray(np.asarray(d, dtype=np.float64)).view(np.int64)


def decode_dist(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_dist`."""
    if (
        isinstance(bits, np.ndarray)
        and bits.dtype == np.int64
        and bits.flags.c_contiguous
    ):
        return bits.view(np.float64)
    return np.ascontiguousarray(np.asarray(bits, dtype=np.int64)).view(np.float64)


class WorkScheduler:
    """Base class: SRMW slot machinery shared by every scheduler.

    Subclasses must set two attributes in ``__init__`` (after calling
    ``super().__init__``):

    ``_band_limit``
        Highest valid Δ-band index; distances beyond it clip into the
        last band (Figure 6(b)), distances below the window clip to
        band 0.  Clip counts feed the Δ controller.
    ``max_rotate_burst``
        Upper bound on consecutive :meth:`rotate` calls in one MTB pass
        (the bucket queue uses ``n_buckets - 1`` so the head can never
        lap itself).

    and implement the policy hooks :meth:`rel_of`, :meth:`_is_tail_slot`,
    :meth:`push_slots`, :meth:`head_slots`, :meth:`assign_slots`,
    :meth:`seed_slot`, and :meth:`rotate`.
    """

    #: registry name, filled in by :func:`register_scheduler`
    name: str = "?"

    def __init__(
        self,
        mem: SimMemory,
        pool: GlobalPool,
        config: AddsConfig,
        *,
        initial_delta: float,
        n_slots: int,
    ) -> None:
        if initial_delta <= 0:
            raise ProtocolError("initial delta must be positive")
        self.mem = mem
        self.pool = pool
        self.config = config
        self.n_buckets = n_slots
        self.segment_size = config.segment_size

        # shared metadata arrays (global memory on the real device)
        self.resv = np.zeros(n_slots, dtype=np.int64)
        self.read = np.zeros(n_slots, dtype=np.int64)
        self.cwc = np.zeros(n_slots, dtype=np.int64)
        # Slot reuse epoch: the simulator's stand-in for the monotonic
        # 32-bit circular index.  A completion that arrives after its
        # slot was recycled (possible only under unsafe_rotation) is
        # dropped from the recycled slot's CWC but still counts globally.
        self.epoch = np.zeros(n_slots, dtype=np.int64)
        # Per-slot segment WCC counters, indexed by segment number.
        # Dense int64 arrays (grown on demand as slots gain capacity)
        # instead of dicts: publish and readable_upper operate on whole
        # segment ranges, which a dict forces into per-segment Python
        # loops on the hottest writer/reader paths.
        self.wcc: List[np.ndarray] = [
            np.zeros(self._initial_segments(), dtype=np.int64)
            for _ in range(n_slots)
        ]
        self.storage = [
            BucketStorage(pool, config.slots_per_block, name=f"b{i}")
            for i in range(n_slots)
        ]
        self.mtb_cache = TranslationCache()
        # Wake-channel keys for capacity waiters, one per slot; WTBs
        # register on cap_keys[slot] and ensure_capacity notifies it.
        self.cap_keys = tuple(("cap", s) for s in range(n_slots))
        self._device = None

        # priority window state (owned by the MTB).  ``head`` is the
        # scheduler's logical head position — the physical head slot for
        # the bucket queue, the head fine band for MLMQ.
        self.head = 0
        self.base_dist = 0.0
        self.delta = float(initial_delta)
        self.rotations = 0

        # counters feeding termination and the Δ controller
        self.total_pushed = 0
        self.total_completed = 0
        self.pushes_since_check = 0
        self.tail_pushes_since_check = 0
        self.low_clips = 0
        self.high_clips = 0

        # observability (zero-cost unless attach_tracer enables it)
        self._tracer: Tracer = NULL_TRACER
        self._clock: Callable[[], float] = lambda: 0.0
        # dynamic protocol checker (repro.check); one branch per op when
        # detached, full SRMW invariant enforcement when attached
        self._checker = None

    def _initial_segments(self) -> int:
        """WCC array size covering one storage block's worth of slots."""
        return max(1, -(-self.config.slots_per_block // self.segment_size))

    def _wcc_through(self, slot: int, last_seg: int) -> np.ndarray:
        """The slot's WCC array, grown (×2 amortized) to index ``last_seg``."""
        wcc = self.wcc[slot]
        if last_seg >= wcc.size:
            grown = np.zeros(max(last_seg + 1, 2 * wcc.size), dtype=np.int64)
            grown[: wcc.size] = wcc
            self.wcc[slot] = wcc = grown
        return wcc

    def attach_tracer(
        self, tracer: Optional[Tracer], clock: Callable[[], float]
    ) -> None:
        """Emit bucket push/pop/rotate events on the ``queue`` track.

        ``clock`` supplies the simulated time in µs (the queue itself has
        no device reference; the ADDS solver wires it to
        ``device.now_us``)."""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock

    def attach_checker(self, checker) -> None:
        """Route every protocol operation through a
        :class:`repro.check.ProtocolChecker` (or None to detach).

        The checker learns who performed each operation from the bound
        device's :meth:`~repro.gpu.device.Device.current_block_name`, so
        attach it via :meth:`ProtocolChecker.attach`, which wires both
        sides."""
        self._checker = checker

    def bind_device(self, device) -> None:
        """Wire capacity-channel notifications to ``device.notify``.

        Without a bound device the queue still works — capacity waiters
        just fall back to the engine's rescue rescan (tests exercising
        the queue standalone rely on this)."""
        self._device = device

    # ------------------------------------------------------------------ #
    # scheduling policy hooks (subclass responsibility)
    # ------------------------------------------------------------------ #

    def rel_of(self, slot: int) -> int:
        """Logical priority position of a physical slot (0 = head band)."""
        raise NotImplementedError

    def _is_tail_slot(self, slot: int) -> bool:
        """Whether a push into ``slot`` counts toward the Δ controller's
        tail-push fraction (its clip guard, §5.5)."""
        raise NotImplementedError

    def push_slots(self, vertices: np.ndarray, dists: np.ndarray) -> np.ndarray:
        """Physical destination slot (int64 array) for each pushed item.

        Vectorized over the whole batch: the WTB maps all of a
        dispatch's relaxation winners in one call (hot path)."""
        raise NotImplementedError

    def head_slots(self) -> Tuple[int, ...]:
        """Physical slots forming the current head (lowest-priority-band)
        group: kept pre-grown by the MTB allocator, and the unit of
        :meth:`rotate`."""
        raise NotImplementedError

    def assign_slots(self, active: int):
        """Physical slots the MTB scans for assignable work, highest
        priority first, given an active window of ``active`` bands."""
        raise NotImplementedError

    def seed_slot(self) -> int:
        """Physical slot that receives the distance-0 seed batch."""
        raise NotImplementedError

    def rotate(self) -> None:
        """Slide the priority window one Δ band forward, recycling the
        head slot group (§5.4).  Implementations recycle each head slot
        via :meth:`_recycle_slot` and then advance head/``base_dist``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # priority-band mapping (shared; parameterized by ``_band_limit``)
    # ------------------------------------------------------------------ #

    def rel_bands_for(self, dists: np.ndarray) -> np.ndarray:
        """Band index (0 = head) for each distance, with clipping.

        Below-window distances clip to the head band (work spawned for an
        already-rotated band, §5.4); beyond-window distances clip to the
        tail band (Figure 6(b)).  Clip counts feed the Δ controller.

        The division stays the ``np.floor_divide`` kernel: its
        fmod-corrected floor division differs from ``floor(a / b)`` at
        band boundaries.  Clipping happens on the float quotients, before
        the int64 cast, so a far-out distance cannot overflow the cast.
        """
        limit = self._band_limit
        rel = np.floor_divide(dists - self.base_dist, self.delta)
        if rel.min() < 0 or rel.max() > limit:
            self.low_clips += int(np.count_nonzero(rel < 0))
            self.high_clips += int(np.count_nonzero(rel > limit))
            np.clip(rel, 0, limit, out=rel)
        return rel.astype(np.int64)

    # ------------------------------------------------------------------ #
    # writer (WTB) side
    # ------------------------------------------------------------------ #

    def reserve(self, slot: int, k: int) -> int:
        """Atomically reserve ``k`` slots; returns the starting index."""
        if k <= 0:
            raise ProtocolError("reserve of non-positive count")
        start = int(self.mem.atomic_add(self.resv, slot, k))
        self.total_pushed += k
        self.pushes_since_check += k
        if self._is_tail_slot(slot):
            self.tail_pushes_since_check += k
        if self._checker is not None:
            self._checker.on_reserve(slot, start, k)
        return start

    def capacity(self, slot: int) -> int:
        """Allocated capacity (virtual slots) of a bucket."""
        return self.storage[slot].capacity

    def ensure_capacity(self, slot: int, slots: int) -> int:
        """Grow a bucket's block table to ``slots`` (MTB allocator path).

        Returns blocks added; growth notifies the bucket's capacity wake
        channel so a WTB stalled on an unbacked reservation re-checks.
        """
        if self._checker is not None:
            self._checker.on_ensure_capacity(slot)
        added = self.storage[slot].ensure_capacity(slots)
        if added and self._device is not None:
            self._device.notify(self.cap_keys[slot])
        return added

    def publish(self, slot: int, start: int, vertices: np.ndarray, dists: np.ndarray) -> int:
        """Write reserved slots, fence, bump segment WCCs (§5.2 writer path).

        Returns the number of segments touched (for cost accounting).
        """
        k = int(vertices.size)
        if k == 0:
            return 0
        if self._checker is not None:
            # before the write: a publish outside the writer's own
            # reservation must fail before it corrupts storage
            self._checker.on_publish(slot, int(start), k)
        self.storage[slot].write_range(start, vertices, encode_dist(dists))
        self.mem.fence()  # items fully written before WCC increments
        ss = self.segment_size
        first = start // ss
        last = (start + k - 1) // ss
        wcc = self._wcc_through(slot, last)
        if first == last:
            old = self.mem.atomic_add(wcc, first, k)
            if old + k > ss:
                raise ProtocolError(
                    f"bucket {slot}: segment {first} WCC {old + k} exceeds N"
                )
        else:
            # contribution per touched segment: partial ends, full middle
            counts = np.full(last - first + 1, ss, dtype=np.int64)
            counts[0] = (first + 1) * ss - start
            counts[-1] = (start + k) - last * ss
            self.mem.atomic_add_batch(
                wcc, np.arange(first, last + 1), counts
            )
            seg_counts = wcc[first : last + 1]
            if int(seg_counts.max()) > ss:
                seg = first + int((seg_counts > ss).argmax())
                raise ProtocolError(
                    f"bucket {slot}: segment {seg} WCC {wcc[seg]} exceeds N"
                )
        if self._tracer.enabled:
            self._tracer.instant(
                "queue", "bucket_push", self._clock(), cat="queue",
                bucket=slot, rel=self.rel_of(slot), items=k,
            )
            self._tracer.counter(
                "queue_outstanding", self._clock(), self.outstanding()
            )
        return last - first + 1

    def complete(self, slot: int, k: int, epoch: int) -> None:
        """WTB finished ``k`` assigned items: bump the bucket's CWC.

        ``epoch`` is the bucket epoch captured at assignment time; a
        mismatch (bucket recycled meanwhile — unsafe rotation only) drops
        the per-bucket update but keeps the global completion count sound.
        """
        if k < 0:
            raise ProtocolError("negative completion count")
        if self._checker is not None:
            self._checker.on_complete(slot, k, epoch)
        self.mem.fence()  # spawned pushes visible before the CWC update
        if self.epoch.item(slot) == epoch:
            self.mem.atomic_add(self.cwc, slot, k)
        self.total_completed += k

    # ------------------------------------------------------------------ #
    # reader (MTB) side
    # ------------------------------------------------------------------ #

    def readable_upper(self, slot: int) -> Tuple[int, int]:
        """§5.2's readable-range computation.

        Returns ``(upper, segments_scanned)``: all slots in
        ``[read_ptr, upper)`` are guaranteed fully written.
        """
        r = self.read.item(slot)
        self.mem.fence()
        resv = self.resv.item(slot)
        if r >= resv:
            return r, 0
        ss = self.segment_size
        wcc = self.wcc[slot]
        seg0 = r // ss
        seg_end = -(-resv // ss)  # exclusive: ceil(resv / ss)
        # The leading run of fully-written segments is safe wholesale; a
        # reservation-only segment past the WCC array's extent counts 0.
        window = wcc[seg0 : min(seg_end, wcc.size)]
        if window.size:
            not_full = window != ss
            i = int(not_full.argmax())
            n_full = i if not_full[i] else int(window.size)
        else:
            n_full = 0
        scanned = n_full
        upper = max(r, (seg0 + n_full) * ss)
        if upper < resv:
            # partial segment: trust it only if WCC accounts for every
            # reservation made in it (re-read resv after a fence so the
            # comparison is not against a stale pointer)
            scanned += 1
            seg = seg0 + n_full
            count = wcc.item(seg) if seg < wcc.size else 0
            self.mem.fence()
            resv = self.resv.item(slot)
            if seg * ss + count == resv and resv > upper:
                upper = resv
        if upper > resv:
            raise ProtocolError(
                f"bucket {slot}: readable upper {upper} beyond resv {resv}"
            )
        if self._checker is not None:
            self._checker.on_readable_upper(slot, int(r), int(upper))
        return upper, scanned

    def advance_read(self, slot: int, upto: int) -> None:
        if upto < self.read[slot]:
            raise ProtocolError("read_ptr may not move backwards")
        if self._checker is not None:
            self._checker.on_advance_read(slot, int(upto))
        self.read[slot] = upto

    def read_items(self, slot: int, start: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch items (vertices, distances) from a readable range."""
        if self._checker is not None:
            self._checker.on_read(slot, int(start), int(end))
        verts, bits = self.storage[slot].read_range(start, end)
        spb = self.storage[slot].slots_per_block
        for vb in range(start // spb, max(start, end - 1) // spb + 1):
            self.mtb_cache.access(vb)
        if self._tracer.enabled:
            self._tracer.instant(
                "queue", "bucket_pop", self._clock(), cat="queue",
                bucket=slot, rel=self.rel_of(slot), items=end - start,
            )
        return verts, decode_dist(bits)

    def bucket_drained(self, slot: int) -> bool:
        """Everything reserved has been read *and* completed."""
        resv = self.resv.item(slot)
        if self.read.item(slot) != resv:
            return False
        self.mem.fence()
        return self.cwc.item(slot) == self.resv.item(slot)

    def bucket_read_out(self, slot: int) -> bool:
        """Everything reserved has been read (completion not required)."""
        return self.read.item(slot) == self.resv.item(slot)

    def _recycle_slot(self, slot: int) -> None:
        """Guarded reset of one physical slot for reuse as a new band.

        Shared by every :meth:`rotate` implementation: checker first
        (it must see the pre-rotation counters to diagnose an unsafe
        rotation precisely), then the §5.4 guards, then the reset.
        """
        if self._checker is not None:
            self._checker.on_rotate(slot)
        if not self.bucket_read_out(slot):
            raise ProtocolError("rotation with unread work in the head bucket")
        if not self.config.unsafe_rotation and int(self.cwc[slot]) != int(self.resv[slot]):
            raise ProtocolError(
                "rotation before the head bucket's CWC matched resv_ptr"
            )
        # CWC may lag resv under unsafe rotation; the epoch bump reroutes
        # those late completions to the global counter only.
        self.storage[slot].reset()
        self.wcc[slot].fill(0)
        self.resv[slot] = 0
        self.read[slot] = 0
        self.cwc[slot] = 0
        self.epoch[slot] += 1

    def retire_read_blocks(self, slot: int) -> int:
        """Free whole blocks below both read_ptr and CWC (FIFO shrink)."""
        if self._checker is not None:
            self._checker.on_retire(slot)
        safe = min(self.read.item(slot), self.cwc.item(slot))
        return self.storage[slot].retire_below(safe)

    # ------------------------------------------------------------------ #
    # controller hooks
    # ------------------------------------------------------------------ #

    def set_delta(self, new_delta: float) -> None:
        if new_delta <= 0:
            raise ProtocolError("delta must stay positive")
        self.delta = float(new_delta)

    def reset_push_window(self) -> None:
        self.pushes_since_check = 0
        self.tail_pushes_since_check = 0

    def tail_push_fraction(self) -> float:
        if self.pushes_since_check == 0:
            return 0.0
        return self.tail_pushes_since_check / self.pushes_since_check

    def outstanding(self) -> int:
        """Items pushed but not yet completed (device-wide)."""
        return self.total_pushed - self.total_completed

    def snapshot(self) -> dict:
        """Debug/report view of the queue metadata."""
        return {
            "head": self.head,
            "base_dist": self.base_dist,
            "delta": self.delta,
            "rotations": self.rotations,
            "resv": self.resv.copy(),
            "read": self.read.copy(),
            "cwc": self.cwc.copy(),
            "total_pushed": self.total_pushed,
            "total_completed": self.total_completed,
            "pool_high_water": self.pool.high_water,
        }


# ---------------------------------------------------------------------- #
# registry (mirrors the SolverInfo pattern of repro.baselines.common)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SchedulerInfo:
    """A registered scheduler implementation and its metadata."""

    name: str
    cls: Type[WorkScheduler]
    description: str = ""

    def create(
        self,
        mem: SimMemory,
        pool: GlobalPool,
        config: AddsConfig,
        *,
        initial_delta: float,
    ) -> WorkScheduler:
        """Instantiate the scheduler on a device's memory and pool."""
        return self.cls(mem, pool, config, initial_delta=initial_delta)


SCHEDULERS: Dict[str, SchedulerInfo] = {}


def register_scheduler(name: str, *, description: str = ""):
    """Class decorator registering a :class:`WorkScheduler` subclass."""

    def deco(cls: Type[WorkScheduler]) -> Type[WorkScheduler]:
        if name in SCHEDULERS:
            raise ValueError(f"scheduler {name!r} already registered")
        cls.name = name
        SCHEDULERS[name] = SchedulerInfo(name=name, cls=cls, description=description)
        return cls

    return deco


def _ensure_builtin_schedulers() -> None:
    """Import the built-in implementations so the registry is populated
    regardless of which repro module the caller entered through."""
    import repro.core.bucket_queue  # noqa: F401  (registers "bucket")
    import repro.core.mlmq  # noqa: F401  (registers "mlmq")


def get_scheduler_info(name: str) -> SchedulerInfo:
    """Look up a scheduler by registry name (raises :class:`SolverError`)."""
    _ensure_builtin_schedulers()
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise SolverError(
            f"unknown scheduler {name!r}; available: "
            + ", ".join(sorted(SCHEDULERS))
        ) from None


def scheduler_names() -> Tuple[str, ...]:
    """All registered scheduler names, sorted."""
    _ensure_builtin_schedulers()
    return tuple(sorted(SCHEDULERS))
