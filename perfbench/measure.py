"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "Ledger",
    "REFERENCE_PROBE_S",
    "calibration_probe",
    "host_probe",
    "host_scale",
    "per_op_min",
    "geomean",
    "peak_rss_mb",
    "percentile",
    "ratio",
]


class Ledger:
    """Op accounting: every op the benchmark attempts, and which failed.

    A failed op is one that raised, was refused, went unanswered, or
    gave an answer the oracle rejects; its latency counts as infinite,
    so it misses any latency limit.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failures.append(why)

    def check(self, passed: bool, why: str) -> bool:
        """Record one op as passed or failed; returns ``passed``."""
        if passed:
            self.ok()
        else:
            self.fail(why)
        return passed


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1), interpolated linearly between ranks.
    ``inf`` values (failed ops) sort last; a quantile that reaches one
    is ``inf``, so a failed op misses every limit it lies under."""
    a = np.sort(np.asarray(values, dtype=np.float64))
    if math.isinf(a[math.ceil(q * (a.size - 1))]):
        return math.inf
    return float(np.quantile(a, q))


def per_op_min(samples: Sequence[Sequence[float]]) -> List[float]:
    """Per op, the fastest of its repeated timings (``samples[op]``);
    ``inf`` if it failed in any.  Every repeat does identical work, and
    interference from the host only ever slows a repeat down, so the
    fastest one is the least disturbed reading of the program's speed."""
    return [math.inf if math.isinf(max(ts)) else min(ts) for ts in samples]


def ratio(a: float, b: float) -> float:
    """``a / b``, or 0 when there is nothing to divide by."""
    return a / b if b else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def _probe_body() -> None:
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.arange(64, dtype=np.float64)
    for _ in range(2_000):
        a = np.minimum(a, a[::-1] + 1.0)
    np.sort(np.random.default_rng(0).random(20_000))


def calibration_probe() -> Dict[str, float]:
    """Host speed at this moment, for the run's details: the fastest of
    5 runs of the probe body, in ms."""
    return {"probe_ms": round(host_probe(5) * 1e3, 4)}


#: the probe body's fastest reading on the reference host (an Intel Xeon
#: at 2.1 GHz, Python 3.11), in seconds; host-time metrics are reported
#: in seconds of that host
REFERENCE_PROBE_S = 0.009


def host_probe(repeats: int = 3) -> float:
    """Seconds of the fastest of ``repeats`` runs of the probe body."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _probe_body()
        best = min(best, time.perf_counter() - t0)
    return best


def host_scale(repeats: int = 3) -> float:
    """The factor that turns host seconds measured right after this call
    into seconds of the reference host.

    On a host whose cores other tenants share, speed drifts by up to 2x
    over seconds and minutes, and the program's time moves with it.  A
    fixed probe timed next to each op moves the same way, so the op's
    time over the probe's stays put where the raw time does not.  The
    probe is the benchmark's own code: a change to the program cannot
    change it.
    """
    return REFERENCE_PROBE_S / host_probe(repeats)
