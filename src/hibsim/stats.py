"""Empirical CDFs with median plotting positions.

Plotting position i/(N+1) (i = 1..N) keeps the extremes off probability 0/1,
so quantile interpolation stays sane for small sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CdfSeries:
    """Sorted samples with their plotting positions."""

    values: np.ndarray = field(repr=False)  # ascending
    probs: np.ndarray = field(repr=False)  # i/(N+1), strictly increasing

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def quantile(self, p) -> float | np.ndarray:
        """Linear interpolation between plotting positions; clamps to the
        extreme samples outside [p_1, p_N]."""
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("quantile probability must lie in [0, 1]")
        out = np.interp(p, self.probs, self.values)
        return float(out) if out.ndim == 0 else out

    @property
    def median(self) -> float:
        return self.quantile(0.5)


def make_cdf(samples) -> CdfSeries:
    """Empirical CDF of a non-empty, all-finite sample set."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot build a CDF from zero samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    values = np.sort(arr)
    probs = np.arange(1, arr.size + 1) / (arr.size + 1.0)
    return CdfSeries(values=values, probs=probs)


def median(samples) -> float:
    return make_cdf(samples).median
