"""Axis-aligned boxes.

Boxes are the workhorse of the invariant-set machinery: attractor hulls are
boxes, separation checks compare image boxes, and box masses are taken over
half-open boxes.  A :class:`Box` is a closed product of intervals
``[lo_1, hi_1] x ... x [lo_m, hi_m]`` stored as two read-only float arrays.

All geometry here is plain binary floating point.  Where a decision depends
on a comparison (disjointness, containment) the callers add an explicit
outward slack instead of pretending the arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = ["Box", "box_gaps"]


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box ``[lo, hi]`` in R^m with lo <= hi."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionError(f"box corners must be equal-length vectors, got {lo.shape} and {hi.shape}")
        if np.any(hi < lo):
            raise ValueError(f"box has hi < lo: lo={lo}, hi={hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ---- basic descriptors -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def halfwidth(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)


def box_gaps(lo: np.ndarray, hi: np.ndarray, lo2: np.ndarray, hi2: np.ndarray) -> np.ndarray:
    """Euclidean gaps between boxes [lo, hi] and [lo2, hi2], broadcast over
    the leading axes.  The squared sum is a stacked ``d @ d``, the dot that
    ``np.linalg.norm`` takes, so each gap equals one pair's bit for bit."""
    d = np.maximum(0.0, np.maximum(lo2 - hi, lo - hi2))
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
