"""Quantization-dimension solvers for weighted IFS.

For order ``r > 0`` the dimension candidate ``kappa_r`` is the unique
positive root of ``F(kappa) = sum_i (p_i s_i**r)**(kappa / (r + kappa)) - 1``
(Graf & Luschgy, LNM 1730, 2000), with ratios ``s_i`` and weights ``p_i``.
With ``q = p / sum(p)``, ``b_i = kappa log s_i - log q_i`` and
``t = r / (r + kappa)``, exactly ``F = sum_i q_i expm1(t b_i) = t H`` with
``H = sum_i q_i expm1(t b_i) / t``.  H stays exact at both ends of the range
of r: it tends to ``sum_i q_i b_i`` as ``t -> 0``, whose root is the
order-zero dimension ``d0 = sum p log p / sum p log s``, and equals
``sum_i s_i**kappa - 1`` at ``t = 1`` (``r -> inf``), whose root is the
similarity dimension.  F decreases in kappa from ``N - 1`` at ``0+`` and, by
Hoelder, is non-positive at the similarity dimension, which is at most
``log N / log(1 / max s)``.  One vectorised bisection on that bracket, run
until the midpoint equals an endpoint, solves a whole grid of orders; a
root whose residual ``|F|`` exceeds ``RESIDUAL_TOL`` is refused.  The
reported dimension clamps at the ambient dimension: ``d_r = min(kappa_r, m)``.

The order-zero dimension has its own closed form; ``solve_kappa`` refuses
``r <= 0`` rather than silently extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UseD0Path
from .ifs import WIFS

__all__ = [
    "DimensionResult",
    "KappaCurve",
    "solve_kappa",
    "quantization_dimension",
    "d0_dimension",
    "kappa_curve",
    "similarity_dimension",
]

#: A root whose equation residual |F| exceeds this is refused.
RESIDUAL_TOL = 1e-12

#: Slack used when flagging a curve as monotone.
MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class DimensionResult:
    """Solution record for one order r.

    kappa_r    unclamped root of the implicit equation
    d_r        min(kappa_r, ambient dimension)
    theta      kappa_r / (r + kappa_r), the exponent on p_i s_i^r
    residual   |F(kappa_r)|, the defining-equation mismatch
    iterations bisection halvings taken
    """

    kappa_r: float
    d_r: float
    theta: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class KappaCurve:
    """kappa_r along a grid of orders, with a monotonicity verdict."""

    rs: tuple[float, ...]
    results: tuple[DimensionResult, ...]
    monotone: bool


def _kappa_roots(wifs: WIFS, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of H for every order in ``rs`` (the largest float gives t = 1).

    Returns (kappa, residual |F|, halvings), one entry per order.  A single
    map has the empty bracket [0, 0] and root 0.
    """
    q = wifs.probs / math.fsum(wifs.probs.tolist())
    log_q = np.log(q)
    log_s = np.log(wifs.scales)
    r = rs[:, None]

    def f(kappa: np.ndarray) -> np.ndarray:
        """F(kappa) = t * H(kappa), which has the sign of H."""
        k = kappa[:, None]
        # t underflows to 0 for r below ~1e-308 * kappa, and F = t * H with it,
        # losing the sign of H.  Flooring t at 1e-300 moves H off its t -> 0
        # limit sum_i q_i b_i by about t * sum_i q_i b_i**2 / 2, far below the
        # rounding of its terms.
        t = np.maximum(r / (r + k), 1e-300)
        return np.expm1(t * (k * log_s - log_q)) @ q

    lo = np.zeros(rs.shape[0])
    hi = np.full(rs.shape[0], math.log(wifs.n_maps) / -math.log(wifs.max_scale))
    halvings = np.zeros(rs.shape[0], dtype=np.int64)
    while True:
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
        if not np.count_nonzero(active):
            break
        halvings += active
        above = f(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    residual = np.abs(f(mid))
    bad = ~(residual <= RESIDUAL_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise RuntimeError(f"kappa solve refused at r = {rs[k]!r}: residual {residual[k]!r} "
                           f"exceeds {RESIDUAL_TOL!r}")
    return mid, residual, halvings


def _solve(wifs: WIFS, rs: tuple[float, ...], caller: str) -> tuple[DimensionResult, ...]:
    if not all(math.isfinite(r) for r in rs):
        raise ValueError(f"{caller} needs finite orders, got {list(rs)}")
    if any(r <= 0.0 for r in rs):
        raise UseD0Path(f"{caller} needs r > 0 (got {list(rs)}); use d0_dimension for order zero")
    kappas, residuals, halvings = _kappa_roots(wifs, np.array(rs, dtype=float))
    m = float(wifs.dim)
    return tuple(DimensionResult(float(k), min(float(k), m), float(k / (r + k)), float(res), int(it))
                 for r, k, res, it in zip(rs, kappas, residuals, halvings))


def solve_kappa(wifs: WIFS, r: float) -> DimensionResult:
    """Solve the implicit equation for the order-r dimension candidate.

    Raises
    ------
    UseD0Path
        for ``r <= 0``; the order-zero dimension has its own closed form.
    ValueError
        for a non-finite ``r``.
    RuntimeError
        when the root's residual exceeds ``RESIDUAL_TOL``.
    """
    return _solve(wifs, (float(r),), "solve_kappa")[0]


def quantization_dimension(wifs: WIFS, r: float) -> float:
    """The clamped dimension ``min(kappa_r, ambient dim)``."""
    return solve_kappa(wifs, r).d_r


def d0_dimension(wifs: WIFS) -> float:
    """Closed-form order-zero (geometric mean error) dimension.

    ``sum_i p_i log p_i / sum_i p_i log s_i``; a single-map system has
    dimension zero.
    """
    if wifs.n_maps == 1:
        return 0.0
    p = wifs.probs
    s = wifs.scales
    return float(np.sum(p * np.log(p)) / np.sum(p * np.log(s)))


def kappa_curve(wifs: WIFS, r_grid: Sequence[float]) -> KappaCurve:
    """Solve along a strictly increasing grid of positive orders.

    The ``monotone`` flag records whether kappa_r never decreases along the
    grid beyond a 1e-10 slack.  An empty grid yields an empty curve.
    """
    rs = tuple(float(r) for r in r_grid)
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r grid must be strictly increasing")
    results = _solve(wifs, rs, "kappa_curve")
    kappas = [res.kappa_r for res in results]
    monotone = all(b >= a - MONOTONE_SLACK for a, b in zip(kappas, kappas[1:]))
    return KappaCurve(rs, results, monotone)


def similarity_dimension(wifs: WIFS) -> float:
    """Root of ``sum_i s_i**D = 1``: the ``t = 1`` member of the same kernel.

    This is the natural ceiling for kappa_r: as r grows, kappa_r increases
    toward it.
    """
    # r + kappa rounds to r at the largest float, so t is exactly 1 there.
    return float(_kappa_roots(wifs, np.array([np.finfo(float).max]))[0][0])
