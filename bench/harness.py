"""Operation ledger, timing clock and the percentile rule.

A timing is reported as its median and its 90th percentile, and the
90th percentile only with at least ten samples beyond it.
"""

from __future__ import annotations

import math
import time
from typing import Callable


class Ledger:
    """Operations attempted and failed.

    An operation is a CLI call, a ``predict`` call, a ``contextualize``
    call or a read of a generated file by the program. It fails on an
    exception, a nonzero exit code or a failed correctness check; an
    operation counts as failed at most once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._names: list[str] = []
        self._failed: set[int] = set()

    def begin(self, what: str) -> int:
        self.attempted += 1
        self._names.append(what)
        return len(self._names) - 1

    def fail(self, op: int, reason: str) -> None:
        if op not in self._failed:
            self._failed.add(op)
            self.failures.append(f"{self._names[op]}: {reason}")

    def check(self, op: int, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(op, reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Clock:
    """Times calls and accumulates the timed total.

    With a recorder attached, spans are recorded only inside timed calls,
    so the recorder sees exactly the work the untraced run times.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.total = 0.0
        self.started = 0.0      # perf_counter at the start of the latest call

    def run(self, fn: Callable, *args, **kwargs):
        """Return ``(fn(*args, **kwargs), seconds)``; exceptions propagate."""
        rec = self.recorder
        if rec is not None:
            rec.active = True
        start = self.started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.total += elapsed
            if rec is not None:
                rec.active = False
        return result, elapsed


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile position."""
    return count - max(1, math.ceil(p / 100.0 * count))
