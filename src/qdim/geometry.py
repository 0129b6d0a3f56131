"""Axis-aligned boxes and small point-set utilities.

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

from .errors import DimensionError, EmptySet

__all__ = ["Box", "hausdorff_distance"]


def _as_points(x: np.ndarray) -> np.ndarray:
    """Coerce to a (k, m) float array; 1-d input is read as k points in R^1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionError(f"expected a (k, m) point array, got shape {a.shape}")
    return a


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

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    # ---- derived boxes -----------------------------------------------------

    @staticmethod
    def hull_of(boxes: "list[Box] | tuple[Box, ...]") -> "Box":
        """Smallest box containing every box in the list."""
        if not boxes:
            raise EmptySet("hull of an empty collection of boxes")
        lo = np.min([b.lo for b in boxes], axis=0)
        hi = np.max([b.hi for b in boxes], axis=0)
        return Box(lo, hi)

    # ---- predicates and metrics ---------------------------------------------

    def contains_box(self, other: "Box", slack: float = 0.0) -> bool:
        """True when ``other`` fits inside this box inflated by ``slack``."""
        return bool(np.all(other.lo >= self.lo - slack) and np.all(other.hi <= self.hi + slack))

    def contains_points(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Boolean mask of points lying inside the closed box (with slack)."""
        p = _as_points(points)
        if p.shape[1] != self.dim:
            raise DimensionError(f"points live in R^{p.shape[1]}, box in R^{self.dim}")
        return np.all((p >= self.lo - slack) & (p <= self.hi + slack), axis=1)

    def gap_to(self, other: "Box") -> float:
        """Euclidean distance between the two closed boxes (0 when they meet)."""
        d = np.maximum(0.0, np.maximum(other.lo - self.hi, self.lo - other.hi))
        return float(np.linalg.norm(d))


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite non-empty point sets in R^m.

    ``max( max_x min_y |x-y|, max_y min_x |x-y| )`` with the Euclidean norm.
    Uses a KD-tree for the directed nearest-neighbour scans, so sets with
    10^5 points are fine.

    Raises
    ------
    EmptySet
        if either set has no points.
    DimensionError
        if the two sets live in different ambient dimensions.
    """
    from scipy.spatial import cKDTree

    pa = _as_points(a)
    pb = _as_points(b)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise EmptySet("hausdorff_distance needs two non-empty point sets")
    if pa.shape[1] != pb.shape[1]:
        raise DimensionError(f"point sets live in R^{pa.shape[1]} and R^{pb.shape[1]}")
    d_ab = cKDTree(pb).query(pa)[0].max()
    d_ba = cKDTree(pa).query(pb)[0].max()
    return float(max(d_ab, d_ba))
