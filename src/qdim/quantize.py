"""Chaos-game sampling, generalized Lloyd codebooks, and dimension fits.

The empirical pipeline mirrors the theory: draw a long orbit of the random
iteration ``x_{k+1} = f_{I_k}(x_k)`` (the invariant measure's natural
sampler), optimise an n-point codebook for the order-r error on those
samples, repeat along a ladder of codebook sizes, and read the dimension
off the log-log slope:

    r > 0:   V_hat(n) = mean_k  d(x_k, A)^r,     D_hat = r / slope
    r = 0:   log e_hat(n) = mean_k log d(x_k, A), D_hat = 1 / slope

with ``slope`` the least-squares slope of ``-log V_hat`` (resp.
``-log e_hat``) against ``log n``.

Codebook optimisation is Lloyd-style: nearest-point assignment alternates
with per-cell recentering (mean for r = 2, median for r = 1, a bounded
scalar minimisation for other positive orders, and an exact search over
cell sample points for the logarithmic objective, whose minimisers sit on
samples).  Empty cells are re-seeded at the sample farthest from the
current codebook.  Log distances are floored at 1e-12 to keep the r = 0
objective finite.

Everything is reproducible: the chaos game is driven by a single integer
seed, and each codebook run derives its generator from (seed, n, restart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.spatial import cKDTree

from .errors import DegenerateFit
from .ifs import WIFS, attractor_hull, wifs_fingerprint
from .util import parallel_map

__all__ = [
    "SampleSet",
    "Codebook",
    "DimensionFit",
    "chaos_game",
    "optimize_codebook",
    "estimate_vnr",
    "fit_dimension",
    "fit_dimension_from_samples",
    "ladder_seed",
    "quantization_coefficients",
]

#: Floor applied to distances inside logarithms (r = 0 objective).
EPS_LOG = 1e-12

#: Lloyd stops when the relative distortion improvement drops below this.
REL_IMPROVEMENT_TOL = 1e-10

#: ... or after this many rounds.
MAX_ROUNDS = 500

#: Candidate count per cell for the exact r = 0 recentering search.
_LOG_CANDIDATES = 33


# ---------------------------------------------------------------------------
# sample sets and the chaos game
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Points drawn from (or standing in for) an invariant measure.

    ``wifs_fingerprint`` records which system generated the points ("external"
    for hand-made sets); ``seed``/``burn_in`` make chaos-game sets auditable.
    """

    points: np.ndarray
    seed: int
    burn_in: int
    wifs_fingerprint: str

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"points must be a non-empty (k, m) array, got shape {pts.shape}")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])


def chaos_game(wifs: WIFS, count: int, seed: int, burn_in: int = 100) -> SampleSet:
    """Sample the invariant measure by the random iteration algorithm.

    Starts at the attractor-hull centre, applies ``burn_in`` warm-up steps,
    then records ``count`` further iterates.  Identical inputs produce a
    bit-identical sample set.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(seed)
    total = burn_in + count
    picks = rng.choice(wifs.n_maps, size=total, p=wifs.probs)
    m = wifs.dim
    x = attractor_hull(wifs).center

    if m == 1:
        slopes = [f.scale * float(f.isometry[0, 0]) for f in wifs.maps]
        offsets = [float(f.translation[0]) for f in wifs.maps]
        out = np.empty(total)
        xv = float(x[0])
        for k, i in enumerate(picks.tolist()):
            xv = slopes[i] * xv + offsets[i]
            out[k] = xv
        pts = out[burn_in:, None]
    else:
        mats = [f.scale * f.isometry for f in wifs.maps]
        offs = [f.translation for f in wifs.maps]
        out = np.empty((total, m))
        for k, i in enumerate(picks.tolist()):
            x = mats[i] @ x + offs[i]
            out[k] = x
        pts = out[burn_in:]
    return SampleSet(points=pts, seed=int(seed), burn_in=int(burn_in),
                     wifs_fingerprint=wifs_fingerprint(wifs))


# ---------------------------------------------------------------------------
# nearest-point machinery
# ---------------------------------------------------------------------------


def _assign(x: np.ndarray, code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and cell indices of each sample to its nearest code point."""
    if x.shape[1] == 1:
        order = np.argsort(code[:, 0], kind="stable")
        cs = code[order, 0]
        mids = 0.5 * (cs[1:] + cs[:-1])
        pos = np.searchsorted(mids, x[:, 0])
        d = np.abs(x[:, 0] - cs[pos])
        return d, order[pos]
    d, idx = cKDTree(code).query(x, k=1)
    return d, idx


def _distortion(d: np.ndarray, r: float) -> float:
    if r > 0.0:
        return float(np.mean(d ** r))
    return float(np.mean(np.log(np.maximum(d, EPS_LOG))))


def _cell_objective(x: np.ndarray, idx: np.ndarray, centers: np.ndarray, r: float, n: int) -> np.ndarray:
    """Per-cell order-r objective of assigning each sample to centers[idx]."""
    if x.shape[1] == 1:
        d = np.abs(x[:, 0] - centers[idx, 0])
    else:
        d = np.linalg.norm(x - centers[idx], axis=1)
    vals = d ** r if r > 0.0 else np.log(np.maximum(d, EPS_LOG))
    return np.bincount(idx, weights=vals, minlength=n)


# ---------------------------------------------------------------------------
# per-cell recentering
# ---------------------------------------------------------------------------


def _recenter(x: np.ndarray, idx: np.ndarray, code: np.ndarray, r: float) -> np.ndarray:
    """Optimal (or safeguarded) new centers for the current assignment."""
    n = code.shape[0]
    m = x.shape[1]
    counts = np.bincount(idx, minlength=n)
    nonempty = counts > 0
    new = code.copy()

    if r == 2.0:
        for c in range(m):
            sums = np.bincount(idx, weights=x[:, c], minlength=n)
            new[nonempty, c] = sums[nonempty] / counts[nonempty]
        return new

    if r == 1.0 and m == 1:
        order = np.lexsort((x[:, 0], idx))
        xs = x[order, 0]
        starts = np.searchsorted(idx[order], np.arange(n))
        lo_mid = starts + (counts - 1) // 2
        hi_mid = starts + counts // 2
        ne = np.nonzero(nonempty)[0]
        new[ne, 0] = 0.5 * (xs[lo_mid[ne]] + xs[hi_mid[ne]])
        return new

    if r == 0.0 and m == 1:
        return _recenter_log_1d(x, idx, code, counts)

    # Remaining paths have no closed form; they all end with a keep-better
    # safeguard so a Lloyd step can never increase the objective.
    proposal = new.copy()
    cells = np.nonzero(nonempty)[0]
    if r == 1.0:
        for c in cells:
            proposal[c] = _weiszfeld(x[idx == c], code[c])
    elif r == 0.0:
        for c in cells:
            proposal[c] = _best_log_candidate(x[idx == c], code[c])
    elif m == 1:
        order = np.lexsort((x[:, 0], idx))
        xs = x[order, 0]
        starts = np.searchsorted(idx[order], np.arange(n))
        for c in cells:
            seg = xs[starts[c]:starts[c] + counts[c]]
            res = minimize_scalar(lambda t: float(np.sum(np.abs(seg - t) ** r)),
                                  bounds=(float(seg[0]), float(seg[-1])), method="bounded",
                                  options={"xatol": 1e-13})
            proposal[c, 0] = res.x
    else:
        for c in cells:
            pts = x[idx == c]

            def fun(z: np.ndarray) -> float:
                return float(np.sum(np.linalg.norm(pts - z, axis=1) ** r))

            def jac(z: np.ndarray) -> np.ndarray:
                diff = z - pts
                d = np.maximum(np.linalg.norm(diff, axis=1), 1e-30)
                return r * np.sum((d ** (r - 2.0))[:, None] * diff, axis=0)

            res = minimize(fun, code[c], jac=jac, method="L-BFGS-B",
                           options={"maxiter": 200})
            proposal[c] = res.x

    worse = _cell_objective(x, idx, proposal, r, n) > _cell_objective(x, idx, code, r, n)
    proposal[worse] = code[worse]
    return proposal


def _recenter_log_1d(x: np.ndarray, idx: np.ndarray, code: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
    """Exact-on-candidates recentering for the 1-d logarithmic objective.

    Between consecutive samples the map ``c -> sum log|c - x_i|`` is concave,
    so every local minimiser of the floored objective sits on a sample point.
    Evaluating all cell samples is quadratic, so we score a spread of cell
    quantiles (plus the incumbent) and keep the best; the floored log dip at
    each candidate has the same depth, hence quantile resolution only affects
    the smooth part of the objective.
    """
    n = code.shape[0]
    order = np.lexsort((x[:, 0], idx))
    xs = x[order, 0]
    starts = np.searchsorted(idx[order], np.arange(n))
    nonempty = counts > 0
    ne = np.nonzero(nonempty)[0]

    cand_cols = [code[:, 0]]
    for q in range(_LOG_CANDIDATES):
        pos = starts + ((counts - 1) * q) // (_LOG_CANDIDATES - 1)
        col = code[:, 0].copy()
        col[ne] = xs[pos[ne]]
        cand_cols.append(col)

    best_val = np.full(n, np.inf)
    best_col = code[:, 0].copy()
    for col in cand_cols:
        per_sample = np.log(np.maximum(np.abs(x[:, 0] - col[idx]), EPS_LOG))
        val = np.bincount(idx, weights=per_sample, minlength=n)
        better = nonempty & (val < best_val)
        best_val[better] = val[better]
        best_col[better] = col[better]
    new = code.copy()
    new[:, 0] = best_col
    return new


def _weiszfeld(pts: np.ndarray, start: np.ndarray, iters: int = 100) -> np.ndarray:
    """Geometric median of a point cloud by damped Weiszfeld iteration."""
    z = start.astype(float).copy()
    if pts.shape[0] == 1:
        return pts[0].copy()
    scale = max(float(np.max(np.abs(pts))), 1.0)
    for _ in range(iters):
        d = np.maximum(np.linalg.norm(pts - z, axis=1), 1e-30)
        w = 1.0 / d
        z_next = (pts * w[:, None]).sum(axis=0) / w.sum()
        if np.max(np.abs(z_next - z)) < 1e-14 * scale:
            z = z_next
            break
        z = z_next
    return z


def _best_log_candidate(pts: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Best of (strided cell samples + incumbent) for the log objective."""
    take = np.unique(np.linspace(0, pts.shape[0] - 1, num=min(pts.shape[0], _LOG_CANDIDATES)).astype(int))
    cands = np.vstack([pts[take], current[None, :]])
    best, best_val = current, math.inf
    for c in cands:
        val = float(np.sum(np.log(np.maximum(np.linalg.norm(pts - c, axis=1), EPS_LOG))))
        if val < best_val:
            best, best_val = c, val
    return np.array(best, dtype=float)


# ---------------------------------------------------------------------------
# Lloyd iteration and restarts
# ---------------------------------------------------------------------------


def _reseed_empty(x: np.ndarray, code: np.ndarray, d: np.ndarray, idx: np.ndarray
                  ) -> tuple[np.ndarray, bool]:
    """Move centers of empty cells onto the samples farthest from the codebook."""
    n = code.shape[0]
    counts = np.bincount(idx, minlength=n)
    empty = np.nonzero(counts == 0)[0]
    if empty.size == 0:
        return code, False
    far = np.argsort(-d, kind="stable")[: empty.size]
    code = code.copy()
    code[empty] = x[far]
    return code, True


def _lloyd(x: np.ndarray, code: np.ndarray, r: float,
           max_rounds: int = MAX_ROUNDS) -> tuple[np.ndarray, float, list[float]]:
    """Run Lloyd iterations to (near) convergence.

    Returns the final codebook, its distortion, and the per-round distortion
    history (non-increasing up to float dust).
    """
    history: list[float] = []
    prev = math.inf
    for _ in range(max_rounds):
        d, idx = _assign(x, code)
        code, reseeded = _reseed_empty(x, code, d, idx)
        if reseeded:
            d, idx = _assign(x, code)
        dist = _distortion(d, r)
        history.append(dist)
        if prev - dist < REL_IMPROVEMENT_TOL * max(1.0, abs(prev)) and math.isfinite(prev):
            break
        prev = dist
        code = _recenter(x, idx, code, r)
    return code, history[-1], history


@dataclass(frozen=True, eq=False)
class Codebook:
    """An optimised n-point codebook for the order-r error on a sample set.

    ``distortion`` is the mean r-th power distance for r > 0 and the mean
    floored log-distance for r = 0 (so it can be negative, and is -inf in
    the degenerate all-points case).
    """

    points: np.ndarray
    r: float
    distortion: float
    restarts_used: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def _seed_kmeanspp(x: np.ndarray, n: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding with distance^r weighting (uniform for r = 0)."""
    k = x.shape[0]
    centers = np.empty((n, x.shape[1]))
    centers[0] = x[rng.integers(k)]
    if x.shape[1] == 1:
        dmin = np.abs(x[:, 0] - centers[0, 0])
    else:
        dmin = np.linalg.norm(x - centers[0], axis=1)
    for j in range(1, n):
        w = dmin ** r if r > 0.0 else (dmin > 0.0).astype(float)
        total = float(w.sum())
        if total > 0.0:
            pick = rng.choice(k, p=w / total)
        else:
            pick = int(rng.integers(k))
        centers[j] = x[pick]
        if x.shape[1] == 1:
            dnew = np.abs(x[:, 0] - centers[j, 0])
        else:
            dnew = np.linalg.norm(x - centers[j], axis=1)
        np.minimum(dmin, dnew, out=dmin)
    return centers


def optimize_codebook(samples: SampleSet, n: int, r: float, restarts: int = 5,
                      seed: int = 0) -> Codebook:
    """Best codebook over several seeded Lloyd runs.

    Each restart draws its own k-means++-style initialisation (distance^r
    weighted) from a generator derived from ``(seed, restart)``, runs
    Lloyd to convergence, and the lowest-distortion run wins.  When ``n``
    is at least the sample count the distinct sample points themselves are
    returned (distortion 0, or -inf for r = 0).
    """
    if n < 1:
        raise ValueError(f"codebook size must be >= 1, got {n}")
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"order r must be finite and >= 0, got {r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    x = samples.points
    if n >= x.shape[0]:
        distinct = np.unique(x, axis=0)
        return Codebook(points=distinct, r=r,
                        distortion=(0.0 if r > 0.0 else -math.inf), restarts_used=0)

    best_code: np.ndarray | None = None
    best_dist = math.inf
    for rep in range(restarts):
        rng = np.random.default_rng([seed, rep])
        code, dist, _ = _lloyd(x, _seed_kmeanspp(x, n, r, rng), r)
        if dist < best_dist:
            best_dist = dist
            best_code = code
    assert best_code is not None
    order = np.lexsort(best_code.T[::-1])
    return Codebook(points=best_code[order], r=r, distortion=best_dist, restarts_used=restarts)


def estimate_vnr(samples: SampleSet, codebook, r: float) -> float:
    """Empirical order-r error of a codebook on a sample set.

    For r > 0 this is ``mean d^r``; for r = 0 it is the geometric mean
    ``exp(mean log d)`` with distances floored at 1e-12, so a codebook that
    sits exactly on samples still yields a positive value.
    """
    code = codebook.points if isinstance(codebook, Codebook) else np.asarray(codebook, dtype=float)
    if code.ndim == 1:
        code = code[:, None]
    d, _ = _assign(samples.points, code)
    if r > 0.0:
        return float(np.mean(d ** r))
    return float(np.exp(np.mean(np.log(np.maximum(d, EPS_LOG)))))


# ---------------------------------------------------------------------------
# dimension fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionFit:
    """Least-squares dimension estimate from a codebook-size ladder.

    ``pairs`` holds (n, V_hat) for r > 0 and (n, log e_hat) for r = 0.
    ``ci_halfwidth`` is twice the propagated standard error of the
    estimate (2 * se_slope * |d estimate / d slope|).
    """

    r: float
    pairs: tuple[tuple[int, float], ...]
    slope: float
    estimate: float
    ci_halfwidth: float


def ladder_seed(seed: int, n: int) -> int:
    """Seed for the size-n ladder rung, derived stably from (seed, n)."""
    return int(np.random.SeedSequence([seed, n]).generate_state(1)[0])


def fit_dimension_from_samples(samples: SampleSet, r: float, n_list, seed: int,
                               restarts: int = 5) -> DimensionFit:
    """Fit the order-r dimension on an existing sample set.

    Runs :func:`optimize_codebook` for every n (generator derived from
    ``(seed, n)``), then regresses ``-log V_hat`` (or ``-log e_hat``)
    on ``log n``.

    Raises
    ------
    DegenerateFit
        fewer than two ladder sizes, a zero/flat error estimate, or a
        non-positive slope.
    ValueError
        when ``max(n_list) > samples.count / 100`` - with fewer than ~100
        samples per code point the error estimate is pure noise.
    """
    ns = [int(n) for n in n_list]
    if len(ns) < 2:
        raise DegenerateFit(f"need at least two codebook sizes, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("n_list must be strictly increasing positive integers")
    if max(ns) > samples.count / 100:
        raise ValueError(
            f"max(n_list)={max(ns)} too large for {samples.count} samples "
            "(need at least 100 samples per code point)"
        )
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"order r must be finite and >= 0, got {r}")

    def run(n: int) -> tuple[int, float]:
        book = optimize_codebook(samples, n, r, restarts=restarts, seed=ladder_seed(seed, n))
        return n, book.distortion

    pairs = tuple(parallel_map(run, ns))

    xs = np.log([float(n) for n, _ in pairs])
    if r > 0.0:
        if any(v <= 0.0 for _, v in pairs):
            raise DegenerateFit("zero empirical quantization error in the ladder")
        ys = -np.log([v for _, v in pairs])
    else:
        if any(not math.isfinite(v) for _, v in pairs):
            raise DegenerateFit("degenerate log-error in the ladder")
        ys = -np.array([v for _, v in pairs])

    xbar, ybar = xs.mean(), ys.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / sxx)
    if slope <= 0.0:
        raise DegenerateFit(f"non-positive log-log slope {slope}")
    estimate = (r if r > 0.0 else 1.0) / slope
    resid = ys - (ybar + slope * (xs - xbar))
    dof = len(ns) - 2
    if dof > 0:
        se_slope = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
        ci = 2.0 * se_slope * estimate / slope
    else:
        ci = math.inf
    return DimensionFit(r=r, pairs=pairs, slope=slope, estimate=estimate, ci_halfwidth=ci)


def fit_dimension(wifs: WIFS, r: float, n_list, samples_per_run: int, seed: int,
                  restarts: int = 5, burn_in: int = 100) -> DimensionFit:
    """Chaos-game sample, then :func:`fit_dimension_from_samples`.

    One sample set (of size ``samples_per_run``) is shared by every ladder
    size; only the codebook optimisation re-randomises per n.
    """
    samples = chaos_game(wifs, samples_per_run, seed, burn_in=burn_in)
    return fit_dimension_from_samples(samples, r, n_list, seed, restarts=restarts)


def quantization_coefficients(fit: DimensionFit, s: float) -> list[tuple[int, float]]:
    """Diagnostic trajectories ``n^(r/s) * V_hat(n)`` for a trial dimension s.

    For r = 0 the analogue ``n^(1/s) * e_hat(n)`` is returned.  Bounded
    trajectories suggest ``s`` matches the true dimension; this is a
    qualitative tool only.
    """
    if s <= 0.0:
        raise ValueError(f"trial dimension must be positive, got {s}")
    out = []
    for n, v in fit.pairs:
        if fit.r > 0.0:
            out.append((n, float(n ** (fit.r / s) * v)))
        else:
            out.append((n, float(n ** (1.0 / s) * math.exp(v))))
    return out
