"""Reference values for the benchmark, computed without calling qdim.

Every function here is independent of the package under test: spectral
roots come from mpmath bisection at ``DIGITS`` digits, transport distances
from scipy (``wasserstein_distance`` in R^1, a HiGHS LP in R^m), hulls and
separation gaps from closed forms.  The benchmark calls them outside every
timed region.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, vstack
from scipy.spatial import cKDTree
from scipy.stats import wasserstein_distance

DIGITS = 50

#: Relative tolerance on kappa_r and D_r rows.
KAPPA_RTOL = 1e-8
#: Absolute tolerance on dl / tv values, hull endpoints and separation gaps.
ABS_TOL = 1e-9
#: The separation guard band of the program (pairs closer than 2 * GUARD count as touching).
GUARD = 1e-12


def kappa(probs, scales, r: float) -> float:
    """Root of ``sum_i (p_i s_i^r)^(k/(r+k)) = 1`` by bisection on k.

    The weights are renormalised at ``DIGITS`` digits: float weights that
    sum to 1 +- 1e-16 would move the root by ~2e-4 at r = 1e-12.  The left
    side decreases in k from N - 1 > 0, so the bracket (0, hi] with hi
    doubled until the sign changes always holds the root.  The bracket is
    narrowed to 1e-16 relative, below the float the root is returned as.
    """
    with mpmath.workdps(DIGITS):
        p = [mpmath.mpf(float(x)) for x in probs]
        total = mpmath.fsum(p)
        r = mpmath.mpf(float(r))
        logb = [mpmath.log(pi / total) + r * mpmath.log(mpmath.mpf(float(si)))
                for pi, si in zip(p, scales)]

        def f(k):
            theta = k / (r + k)
            return mpmath.fsum(mpmath.exp(theta * lb) for lb in logb) - 1

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while f(hi) > 0:
            lo, hi = hi, 2 * hi
        eps = mpmath.mpf(10) ** -16
        while hi - lo > eps * hi:
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def d0(probs, scales) -> float:
    """Closed-form order-zero dimension ``sum p log p / sum p log s``."""
    with mpmath.workdps(DIGITS):
        p = [mpmath.mpf(float(x)) for x in probs]
        total = mpmath.fsum(p)
        p = [x / total for x in p]
        num = mpmath.fsum(x * mpmath.log(x) for x in p)
        den = mpmath.fsum(x * mpmath.log(mpmath.mpf(float(s))) for x, s in zip(p, scales))
        return float(num / den)


def cantor_dimension() -> float:
    """log 2 / log 3: every D_r of the uniform middle-third Cantor measure."""
    return math.log(2.0) / math.log(3.0)


def graf_luschgy_v2(n: int) -> float:
    """Optimal r = 2 distortion of the uniform Cantor measure at n = 2^k.

    The optimal codebook is the set of level-k interval midpoints, so each
    cell holds a 3^-k-scaled Cantor measure of variance 1/8:
    V = (1/8) * 9^-k (Graf & Luschgy, Math. Nachr. 183, 1997).
    """
    k = n.bit_length() - 1
    if n != 1 << k:
        raise ValueError(f"n = {n} is not a power of two")
    return 0.125 * 9.0 ** (-k)


def dl_1d(atoms_a, weights_a, atoms_b, weights_b) -> float:
    """Wasserstein-1 distance on the line (scipy's CDF integral)."""
    return float(wasserstein_distance(np.ravel(atoms_a), np.ravel(atoms_b),
                                      np.asarray(weights_a), np.asarray(weights_b)))


def dl_lp(atoms_a, weights_a, atoms_b, weights_b) -> float:
    """Wasserstein-1 distance in R^m as a HiGHS transport LP."""
    a, b = np.asarray(atoms_a, float), np.asarray(atoms_b, float)
    ka, kb = a.shape[0], b.shape[0]
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).ravel()
    cols = np.arange(ka * kb)
    ones = np.ones(ka * kb)
    rows_a = coo_matrix((ones, (np.repeat(np.arange(ka), kb), cols)), shape=(ka, ka * kb))
    rows_b = coo_matrix((ones, (np.tile(np.arange(kb), ka), cols)), shape=(kb, ka * kb))
    res = linprog(cost, A_eq=vstack([rows_a, rows_b]).tocsr(),
                  b_eq=np.concatenate([weights_a, weights_b]), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def tv(atoms_a, weights_a, atoms_b, weights_b) -> float:
    """``sum_x max(mu{x} - nu{x}, 0)`` over the union of exact atom locations."""
    atoms = np.vstack([np.asarray(atoms_a, float), np.asarray(atoms_b, float)]) + 0.0
    signed = np.concatenate([np.asarray(weights_a, float), -np.asarray(weights_b, float)])
    _, group = np.unique(atoms, axis=0, return_inverse=True)
    net = np.bincount(group.ravel(), weights=signed)
    return math.fsum(net[net > 0.0].tolist())


# ---------------------------------------------------------------------------
# hulls and separation, for maps x -> s R x + t with R a signed permutation
# ---------------------------------------------------------------------------


def fixed_point_hull(maps) -> tuple[np.ndarray, np.ndarray]:
    """Attractor bounding box of maps ``x -> s x + t`` (no rotation).

    Each coordinate map is increasing, so the attractor's extreme
    coordinates are the extreme fixed points ``t / (1 - s)``.
    """
    fixed = np.array([np.asarray(t, float) / (1.0 - s) for s, _, t in maps])
    return fixed.min(axis=0), fixed.max(axis=0)


def compose(maps, word: str):
    """``f_w = f_{w1} o ... o f_{wk}`` (rightmost symbol acts first)."""
    m = len(maps[0][2])
    s, rot, t = 1.0, np.eye(m), np.zeros(m)
    for sym in word:
        si, ri, ti = maps[int(sym) - 1]
        s, rot, t = s * si, rot @ ri, s * (rot @ np.asarray(ti, float)) + t
    return s, rot, t


def image_box(f, lo, hi):
    s, rot, t = f
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    pts = s * corners @ rot.T + t
    return pts.min(axis=0), pts.max(axis=0)


def box_gap(a, b) -> float:
    d = np.maximum(0.0, np.maximum(b[0] - a[1], a[0] - b[1]))
    return float(np.linalg.norm(d))


def separation(maps, words, lo, hi, condition: str) -> tuple[str, float]:
    """Expected (status, min_gap) of a check-sep call on the family ``words``.

    SSC holds when every pair of image boxes is more than the guard band
    apart.  The OSC check adds, in R^1 only, families whose open images are
    disjoint; anything else is "Unknown" (the checks are sufficient only).
    """
    images = [image_box(compose(maps, w), lo, hi) for w in words]
    gaps = [box_gap(a, b) for a, b in itertools.combinations(images, 2)]
    min_gap = min(gaps) if gaps else math.inf
    if min_gap > 2.0 * GUARD:
        return "Satisfied", min_gap
    if condition == "osc" and len(lo) == 1:
        ivals = sorted((float(a[0][0]), float(a[1][0])) for a in images)
        if all(nxt[0] >= cur[1] - GUARD for cur, nxt in zip(ivals, ivals[1:])):
            return "Satisfied", max(min_gap, 0.0)
    return "Unknown", min_gap


def centroid_codebook(maps, probs, level: int) -> np.ndarray:
    """Images of the measure's centroid under every word of length ``level``.

    The centroid c solves ``c = sum_i p_i f_i(c)``; its level-k images are the
    centroids of the level-k cylinders, a natural n = N^k reference codebook.
    """
    m = len(maps[0][2])
    lin = np.eye(m) - sum(p * s * rot for p, (s, rot, _) in zip(probs, maps))
    c = np.linalg.solve(lin, sum(p * np.asarray(t, float) for p, (_, _, t) in zip(probs, maps)))
    words = itertools.product("".join(str(i + 1) for i in range(len(maps))), repeat=level)
    return np.array([s * rot @ c + t for s, rot, t in (compose(maps, w) for w in words)])


def distortion_r2(points, code) -> float:
    """Mean squared distance from each point to its nearest code point."""
    d, _ = cKDTree(np.asarray(code, float)).query(np.asarray(points, float), k=1)
    return float(np.mean(d ** 2))
