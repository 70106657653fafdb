"""Arithmetic of the benchmark: percentiles, intervals and operation tallies."""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

# Samples that must lie above the reported tail percentile.
TAIL_BEYOND = 10
# Two-sided 95% normal quantile for the Wilson interval.
Z95 = 1.959963984540054
# Tracebacks an OpTally keeps.
MAX_ERRORS = 5


def tail_percentile(n: int) -> int | None:
    """Highest integer percentile whose nearest-rank value leaves at least
    TAIL_BEYOND of ``n`` samples above it, or None when n <= TAIL_BEYOND."""
    if n <= TAIL_BEYOND:
        return None
    return 100 * (n - TAIL_BEYOND) // n


def nearest_rank(sorted_values: list[float], p: int) -> float:
    """Nearest-rank p-th percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, (p * n + 99) // 100)
    return sorted_values[rank - 1]


def summarize(values: list[float]) -> dict:
    """Nearest-rank median and tail (see :func:`tail_percentile`), and the
    sample count."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return {
        "p50": nearest_rank(ordered, 50) if ordered else None,
        "tail": nearest_rank(ordered, p) if p is not None else None,
        "tail_percentile": p,
        "samples": len(ordered),
    }


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for k successes in n trials."""
    if n <= 0:
        return 0.0, 1.0
    phat = k / n
    z2 = Z95 * Z95
    denom = 1 + z2 / n
    centre = (phat + z2 / (2 * n)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass
class OpTally:
    """Counts operations attempted and those that raised.

    A raising operation is recorded with its traceback (the first
    MAX_ERRORS of them) and the caller carries on with the next one.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, fn, *args, **kwargs):
        """Call fn; returns (True, result) or (False, None) if it raised."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(traceback.format_exc(limit=4))
            return False, None
