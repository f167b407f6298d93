"""Summary statistics and output digests shared by the benchmark and its tests.

Pure standard library, so it can be imported before numpy is configured.
"""

from __future__ import annotations

import hashlib
import math
from array import array

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_percentile(values) -> tuple[int, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value, samples_beyond)`` using nearest-rank
    percentiles over the sorted samples.  Percentiles below the median are
    not tails: when fewer than ``2 * TAIL_BEYOND`` samples exist none of
    p50..p99 qualifies, and the maximum (reported as p100, with 0 samples
    beyond) stands in for the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def solve_digest(iterations: int, residuals, events_jsonl: str) -> str:
    """Digest of one solve: iterations, residual-history bytes, fault-event log."""
    h = hashlib.sha256()
    h.update(f"{iterations}\n".encode())
    h.update(array("d", residuals).tobytes())
    h.update(events_jsonl.encode())
    return h.hexdigest()


def text_digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()
