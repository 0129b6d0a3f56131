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
with recentering, which moves every cell at once in any dimension: means
for r = 2 and, on a line, medians for r = 1; damped Newton steps for the
other convex orders r >= 1; majorize-minimize (generalised Weiszfeld)
steps plus a search over cell samples for 0 < r < 1; and a search over
cell samples for the logarithmic objective, whose minimisers sit on
samples.  Empty cells are re-seeded at the sample farthest from the
current codebook.  Log distances are floored at 1e-12 to keep the r = 0
objective finite.

On a line the samples are stably sorted once per sample set, and every
Voronoi cell is an interval, hence a run of that one order: the split
tree's cells are runs of it, assignment cuts the sorted samples, gathered
once per Lloyd run, at the code midpoints, and medians and sample
candidates read each cell's run.

A Lloyd round spends its work on what can still change.  In R^m each
sample carries a lower bound on its distance to the centers other than its
own (Hamerly's drift update, Elkan's center-gap lemma), and only samples
whose bound no longer clears their own distance are queried again in a
KD-tree (scipy's, imported on the first R^m assignment, so the 1-d path
never loads it).  Damped Newton steps and their trials read only the
samples of the cells still moving, and at r = 0 a recentering searches
only the cells whose sample set changed since the previous one (both read
every sample while those cells hold more than half of them).  Sums (means,
distortions, objectives) still run in sample order, so every assignment,
center and distortion is bit-identical to full rescans and per-sample
searches.

Every Lloyd run starts from one deterministic codebook.  A fit that knows
its system (:func:`fit_dimension`) seeds each rung with the system's own
codebook {f_w(a*) : w in Gamma}: Gamma is an antichain of n words grown by
splitting the word of largest p_w s_w^r, and a* the measure's mean (the
codebooks of Graf & Luschgy's upper bounds, LNM 1730, ch. 14; on the
Cantor measure at n = 2^k the optimal one).  Fits on bare sample sets,
and codebooks asked for without a start, seed from the samples' split
tree: the same priority split, made on cells of samples instead of words
(Linde, Buzo & Gray's splitting design), with every rung a prefix of one
tree.

Everything is reproducible: the chaos game is driven by a single integer
seed, and nothing after it draws random numbers.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit
from .ifs import WIFS, attractor_hull
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
    "antichain_codebook",
]

#: Floor applied to distances inside logarithms (r = 0 objective).
EPS_LOG = 1e-12

#: Lloyd stops when a round lowers the distortion by less than this times
#: max(1, |distortion|): an absolute threshold whenever |distortion| < 1,
#: as most positive-order distortions are, and a relative one only above 1.
REL_IMPROVEMENT_TOL = 1e-10

#: ... or after this many rounds, on the codebook the last round measured.
MAX_ROUNDS = 500

#: Candidate count per cell (and per refinement) of the sample search that
#: recenters for r < 1.
_LOG_CANDIDATES = 33

#: Cap on majorize-minimize steps (0 < r < 1) per Lloyd round.
_MM_STEPS = 30

#: Cap on damped Newton steps (r >= 1) per Lloyd round.
_NEWTON_STEPS = 20

#: Newton Hessians get this times the cell's weight sum on the diagonal: at
#: r = 1 a cell whose samples are collinear with its center has a singular
#: Hessian.
_NEWTON_RIDGE = 1e-6

#: Iterative recentering stops once no center moves by more than this
#: times the sample scale max(1, max |x|).
_STEP_TOL = 1e-10

#: A sample keeps its R^m center without a KD-tree query only when its
#: distance undercuts its lower bound to the other centers by this times the
#: scale max(1, max |x|, max |code|).  Each round's bound arithmetic rounds
#: by a few ulps of that scale, so even MAX_ROUNDS rounds without a query
#: stay below 1e-12 of it.
_BOUND_SLACK = 1e-10

#: Distances below this are raised to it in the d^(r-2) weights, which
#: would otherwise overflow as a center converges onto a sample.
_D_FLOOR = 1e-150


# ---------------------------------------------------------------------------
# sample sets and the chaos game
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Points drawn from (or standing in for) an invariant measure."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"points must be a non-empty (k, m) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @functools.cached_property
    def line_order(self) -> np.ndarray | None:
        """The points' :func:`_line_order`, sorted once for every codebook."""
        return _line_order(self.points)


def chaos_game(wifs: WIFS, count: int, seed: int, burn_in: int = 100) -> SampleSet:
    """Sample the invariant measure by the random iteration algorithm.

    Starts at the attractor-hull centre, applies ``burn_in`` warm-up steps,
    then records ``count`` further iterates.  The orbit is composed by one
    doubling scan over the drawn affine steps, in every dimension: after the
    pass at width ``step``, step k holds the composition of the 2 * step
    steps ending at k (of all of them, with the start folded into step 0,
    once k < 2 * step), so ceil(log2(burn_in + count)) passes leave the
    whole orbit.  The scan runs coordinate-major: ``lin[i, j]`` is the
    (i, j) entry of every step's linear part and ``x[i]`` its offset's
    coordinate i, each one contiguous row, and a pass forms every entry of
    the new offsets, then of the new linear parts, as a sum of row products
    in index order.  Samples equal the sequential orbit up to rounding;
    identical inputs produce a bit-identical sample set.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(seed)
    total = burn_in + count
    picks = rng.choice(wifs.n_maps, size=total, p=wifs.probs)
    mats = np.stack([f.scale * f.isometry for f in wifs.maps])
    m = mats.shape[1]
    lin = np.take(mats.transpose(1, 2, 0), picks, axis=2)
    x = np.take(np.stack([f.translation for f in wifs.maps], axis=1), picks, axis=1)
    x[:, 0] += mats[picks[0]] @ attractor_hull(wifs).center
    del picks
    step = 1
    while step < total:
        new = np.empty((m, m, total - step))
        # The new offsets first, all from the old ones: their sums go to
        # new[-1], with new[0, 0] as the scratch row, and are added at once.
        for i in range(m):
            _row_products(lin[i, :, step:], x[:, :-step], new[-1, i], new[0, 0])
        x[:, step:] += new[-1]
        # Then the linear parts.  The last entry is formed last, so its row
        # is the scratch until then; it reads no lin[i, j] with i, j < m - 1,
        # so those take their new values first and free new[0, 0] for it.
        # (At m = 1 every sum has one product and no scratch is touched.)
        last = new[-1, -1]
        for i, j in itertools.islice(itertools.product(range(m), repeat=2), m * m - 1):
            _row_products(lin[i, :, step:], lin[:, j, :-step], new[i, j], last)
        lin[:-1, :-1, step:] = new[:-1, :-1]
        _row_products(lin[-1, :, step:], lin[:, -1, :-step], last, new[0, 0])
        lin[-1, :, step:] = new[-1]
        lin[:-1, -1, step:] = new[:-1, -1]
        del new, last
        step *= 2
    return SampleSet(points=x[:, burn_in:].T)


def _row_products(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out = sum_j a[j] * b[j]`` over rows, summed in j order; ``tmp`` is
    a scratch row for every product after the first."""
    np.multiply(a[0], b[0], out=out)
    for j in range(1, len(a)):
        out += np.multiply(a[j], b[j], out=tmp)


# ---------------------------------------------------------------------------
# nearest-point machinery
# ---------------------------------------------------------------------------


def _line_order(x: np.ndarray) -> np.ndarray | None:
    """Stable sort order of samples on a line; None in R^m.

    In 1-d every Voronoi cell is an interval, so under this one order each
    cell is a contiguous run of samples, ties in x kept in sample order.
    Seeding, assignment and the per-cell slices all read it.  numpy's
    default (unstable, vectorised) sort serves when the sorted values hold
    no two equal neighbours: then only one order sorts them, the stable one.
    Otherwise (-0.0 == 0.0 included) the stable sort runs.
    """
    if x.shape[1] != 1:
        return None
    order = np.argsort(x[:, 0])
    xs = x[order, 0]
    if np.any(xs[1:] == xs[:-1]):
        order = np.argsort(x[:, 0], kind="stable")
    return order


def _assigner(x: np.ndarray, xt: np.ndarray, order: np.ndarray | None):
    """``code -> (d, idx)``, the nearest-center distances and cells of samples
    ``x`` (``xt`` its (m, k) transpose): :func:`_assign_line` on a line, where
    ``order`` is their :func:`_line_order`, else a :class:`_BoundedAssign`."""
    if order is None:
        return _BoundedAssign(x, xt)
    return functools.partial(_assign_line, xt[0], xt[0, order], order)


def _assign_line(x: np.ndarray, xs: np.ndarray, order: np.ndarray, code: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Distances and cell indices of samples ``x`` on a line to their nearest
    code point, the samples sorted as ``xs = x[order]``.

    The n - 1 code midpoints cut the sorted samples into the cells: a sample
    goes to the first code point whose upper midpoint is not below it, as
    ``searchsorted(mids, x)`` would place it.
    """
    corder = np.argsort(code[:, 0], kind="stable")
    cs = code[corder, 0]
    mids = 0.5 * (cs[1:] + cs[:-1])
    cuts = np.searchsorted(xs, mids, side="right")
    idx = np.empty(x.size, dtype=np.intp)
    idx[order] = np.repeat(corder, np.diff(cuts, prepend=0, append=x.size))
    d = code[idx, 0]  # |x - c| in place: the caller already holds two more arrays
    np.subtract(x, d, out=d)
    return np.abs(d, out=d), idx


class _BoundedAssign:
    """Exact nearest-center assignment in R^m along one Lloyd run's codebooks.

    Each sample keeps its center ``idx`` and a lower bound ``low`` on its
    distance to every other center.  A new codebook lowers ``low`` by the
    largest drift among the other centers (Hamerly, SDM 2010), then raises
    it to ``gap - d``, where ``gap`` is the own center's distance to its
    nearest other center (Elkan, ICML 2003: |x - c_j| >= |c_a - c_j| - d).
    ``d`` is computed exactly, as the KD-tree computes it.  A sample
    whose ``d`` stays below ``low`` by ``_BOUND_SLACK`` times the scale
    keeps its center; only the others are queried again.  Each call returns
    new ``d`` and ``idx`` arrays, equal to ``cKDTree(code).query(x, k=1)``.
    """

    def __init__(self, x: np.ndarray, xt: np.ndarray):
        self.x, self.xt = x, xt
        self.scale = max(1.0, float(np.max(np.abs(xt))))
        self.code: np.ndarray | None = None

    def __call__(self, code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from scipy.spatial import cKDTree

        tree = cKDTree(code)
        slack = _BOUND_SLACK * max(self.scale, float(np.max(np.abs(code))))
        if self.code is None:
            d, idx, low = _query_two(tree, self.x, slack)
        else:
            idx, low = self.idx.copy(), self.low
            low -= _largest_other(_norm((code - self.code).T), idx)
            d = _tree_norm(_offsets(self.xt, idx, code))
            bound = tree.query(code, k=2)[0][idx, 1]
            bound -= d
            np.maximum(low, bound, out=low)
            bound = np.subtract(low, slack, out=bound)
            stale = np.flatnonzero(~(d < bound))
            del bound
            if stale.size:
                d[stale], idx[stale], low[stale] = _query_two(tree, self.x[stale], slack)
        self.code, self.idx, self.low = code.copy(), idx, low
        return d, idx


def _query_two(tree: cKDTree, x: np.ndarray, slack: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-center distances and indices of ``x``, as a ``k=1`` query gives
    them, and a lower bound on each sample's distance to every other center.

    A ``k=2`` query serves samples whose two nearest centers are more than
    ``slack`` apart; the rest take a ``k=1`` query, so that ties resolve as
    in a full ``k=1`` query.  Their bound is the nearest distance.
    """
    dd, ii = tree.query(x, k=2)
    idx = ii[:, 0].copy()
    del ii
    d, low = dd[:, 0].copy(), dd[:, 1].copy()
    del dd
    tie = np.flatnonzero(~(low - d > slack))
    if tie.size:
        low[tie] = d[tie]
        d[tie], idx[tie] = tree.query(x[tie], k=1)
    return d, idx, low


def _largest_other(drift: np.ndarray, idx: np.ndarray) -> np.ndarray | float:
    """Per sample, the largest ``drift`` among the centers other than ``idx``."""
    if drift.size < 2:
        return 0.0
    top = int(np.argmax(drift))
    second = float(np.max(np.delete(drift, top)))
    return np.where(idx == top, second, drift[top])


def _offsets(xt: np.ndarray, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``z[idx] - x`` for samples ``xt`` held as an (m, k) array.

    The kernels below keep one contiguous row per coordinate: on (k, m)
    arrays with m = 2, numpy's row gathers and row norms are several times
    slower.
    """
    v = np.take(z.T, idx, axis=1)
    v -= xt
    return v


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each column of an (m, k) array."""
    if v.shape[0] == 1:  # exact where sqrt(x*x) underflows (|x| < ~1e-154), and ~7x faster
        return np.abs(v[0])
    d = np.einsum("ij,ij->j", v, v)
    return np.sqrt(d, out=d)


def _tree_norm(v: np.ndarray) -> np.ndarray:
    """:func:`_norm` summed in the order of scipy's KD-tree distance, so it
    equals the tree's distance bit for bit: four running sums over the
    coordinates in steps of four, added in turn, then the remaining
    coordinates one at a time.  Below m = 8 that is :func:`_norm`'s order.
    Overwrites ``v``.
    """
    m = v.shape[0]
    sq = np.multiply(v, v, out=v)
    head = m - m % 4
    if head:
        acc = sq[:4]
        for i in range(4, head, 4):
            acc += sq[i:i + 4]
        s = acc[0] + acc[1] + acc[2] + acc[3]
    else:
        s = sq[0].copy()  # squares are >= +0, so 0 + sq[0] is sq[0]
        head = 1
    for i in range(head, m):
        s += sq[i]
    return np.sqrt(s, out=s)


def _loss(d: np.ndarray, r: float) -> np.ndarray:
    """Per-sample order-r loss: d^r, or the floored log-distance at r = 0."""
    return d ** r if r > 0.0 else np.log(np.maximum(d, EPS_LOG))


def _cell_objective(xt: np.ndarray, idx: np.ndarray, centers: np.ndarray, r: float,
                    n: int) -> np.ndarray:
    """Per-cell order-r objective of assigning each sample to centers[idx]."""
    return np.bincount(idx, weights=_loss(_norm(_offsets(xt, idx, centers)), r), minlength=n)


# ---------------------------------------------------------------------------
# per-cell recentering
# ---------------------------------------------------------------------------
#
# Each kernel moves every cell's center at once, from per-cell sums
# (``np.bincount`` over the cell index), in any dimension m.  Samples come
# as ``xt``, an (m, k) array.


def _recenter(xt: np.ndarray, idx: np.ndarray, loss: np.ndarray, code: np.ndarray,
              r: float, order: np.ndarray | None = None, changed: np.ndarray | None = None
              ) -> np.ndarray:
    """Optimal (or safeguarded) new centers for the current assignment.

    ``loss`` holds each sample's :func:`_loss` at its current center,
    ``code[idx]``.
    ``order``, if given, is a stable sort of the samples under which every
    cell is one contiguous run, as the 1-d cells of :func:`_assign_line`
    are under :func:`_line_order`.  ``changed``, if given at r = 0, masks the
    cells whose sample set changed since the recentering that produced
    ``code``: every other cell's center won that search over the same
    samples, with the same value, so no candidate can beat it and only the
    changed cells are searched.
    """
    n, m = code.shape
    counts = np.bincount(idx, minlength=n)
    nonempty = counts > 0
    new = code.copy()

    if r == 2.0:
        for c in range(m):
            sums = np.bincount(idx, weights=xt[c], minlength=n)
            new[nonempty, c] = sums[nonempty] / counts[nonempty]
        return new

    if r == 1.0 and m == 1:
        runs, starts = _cell_runs(xt, idx, counts, order)
        ne = np.nonzero(nonempty)[0]
        lo_mid = runs[starts[ne] + (counts[ne] - 1) // 2]
        hi_mid = runs[starts[ne] + counts[ne] // 2]
        new[ne, 0] = 0.5 * (xt[0, lo_mid] + xt[0, hi_mid])
        return new

    incumbent = np.bincount(idx, weights=loss, minlength=n)
    if r == 0.0:
        return _best_candidates(xt, idx, code, r, counts, incumbent, order, cells=changed)[0]
    if r >= 1.0:
        return _damped_newton(xt, idx, code, r, incumbent)

    # d^r is concave in d: minimisers sit on or near samples, where the
    # majoriser's weights blow up and its steps stall, so the better of its
    # result and the sample candidates wins, and the incumbent if neither
    # improves on it.
    new = _majorize_minimize(xt, idx, code, r)
    value = _cell_objective(xt, idx, new, r, n)
    cand, cand_value = _best_candidates(xt, idx, code, r, counts, incumbent, order, refine=True)
    take = cand_value < value
    new[take] = cand[take]
    value[take] = cand_value[take]
    worse = value > incumbent
    new[worse] = code[worse]
    return new


def _cell_runs(xt: np.ndarray, idx: np.ndarray, counts: np.ndarray,
               order: np.ndarray | None, sel: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Samples in runs by cell, each run sorted by first coordinate with ties
    in sample order, and the position where each nonempty cell's run starts.

    With ``order`` (see :func:`_recenter`) the runs are already there and
    only their starts are read off; otherwise the samples are sorted by
    cell, only those in ``sel`` (sample indices in sample order, the cells
    whose ``counts`` are kept nonzero) when it is given.  Either way a
    cell's run holds the same samples in the same order.
    """
    if order is None:
        runs = np.lexsort((xt[0], idx)) if sel is None else sel[np.lexsort((xt[0, sel], idx[sel]))]
        return runs, np.cumsum(counts) - counts
    cell = idx[order]
    first = np.flatnonzero(cell[1:] != cell[:-1]) + 1
    starts = np.zeros(counts.size, dtype=np.intp)
    starts[cell[first]] = first
    return order, starts


def _weights(d: np.ndarray, r: float) -> np.ndarray:
    """``d^(r-2)`` per sample; a sample on its center gets weight 0.

    Such a sample has no tangent to majorise with (and an infinite Newton
    curvature for r < 2): it would pin the center to itself, and centers do
    land on samples (empty-cell re-seeds and the sample candidates of r < 1
    put them there).  Leaving it out keeps the step defined; the caller's
    keep-better test covers it.
    """
    w = np.maximum(d, _D_FLOOR)
    w **= r - 2.0
    w[d == 0.0] = 0.0
    return w


def _best_candidates(xt: np.ndarray, idx: np.ndarray, code: np.ndarray, r: float,
                     counts: np.ndarray, incumbent: np.ndarray, order: np.ndarray | None,
                     refine: bool = False, cells: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Best of the incumbent and a spread of each cell's own samples.

    On a line, between consecutive samples the map ``c -> sum log|c - x_i|``
    (and ``sum |c - x_i|^r`` for r < 1) is concave, so every local minimiser
    of the floored objective sits on a sample point.  Scoring all cell
    samples is quadratic, so we score a spread of cell quantiles (samples
    ordered by their first coordinate) plus the incumbent, whose per-cell
    objective is ``incumbent``, and keep the best; the floored log dip at
    each candidate has the same depth, hence quantile resolution only
    affects the smooth part of the objective.  With ``refine`` the spread is
    narrowed around the best quantile and scored again until it holds
    consecutive samples.  ``order`` is as in :func:`_recenter`.  Only the
    cells in the mask ``cells`` (all when None) are searched, over their own
    samples (see :func:`_samples_of`); the rest keep the incumbent.  Returns the centers and
    their per-cell objectives.
    """
    n = code.shape[0]
    xs, ids, sel = xt, idx, None
    searched = counts > 0
    if cells is not None:
        searched &= cells
        xs, ids = _samples_of(xt, idx, cells)
        # R^m copies: sort only those samples.  A line reads its runs off
        # ``order``, so it needs no index list and no counts zeroed.
        if order is None and ids is not idx:
            sel = np.flatnonzero(cells[idx])
            counts = np.where(cells, counts, 0)
    runs, starts = _cell_runs(xt, idx, counts, order, sel)
    ne = np.flatnonzero(searched)
    starts = starts[ne]
    best = code.copy()
    best_val = incumbent.copy()
    cand = code.copy()
    last = counts[ne] - 1
    lo = np.zeros_like(last)
    span = last.copy()
    top = lo.copy()
    while True:
        for q in range(_LOG_CANDIDATES):
            rank = lo + (span * q) // (_LOG_CANDIDATES - 1)
            cand[ne] = xt[:, runs[starts + rank]].T
            val = _cell_objective(xs, ids, cand, r, n)[ne]
            better = val < best_val[ne]
            won = ne[better]
            best_val[won] = val[better]
            best[won] = cand[won]
            top[better] = rank[better]
        if not refine or span.max() < _LOG_CANDIDATES:
            return best, best_val
        reach = -(-span // (_LOG_CANDIDATES - 1))
        lo = np.maximum(top - reach, 0)
        span = np.minimum(top + reach, last) - lo


def _majorize_minimize(xt: np.ndarray, idx: np.ndarray, code: np.ndarray,
                       r: float) -> np.ndarray:
    """Generalised Weiszfeld steps for 0 < r < 1, all cells at once.

    ``d^r = (d^2)^(r/2)`` is concave in ``d^2``, so its tangent at the
    current center majorises the cell objective by a weighted sum of
    squares with weights ``d^(r-2)``; each step moves the center to that
    majoriser's minimiser, the weighted mean of the cell.
    """
    n = code.shape[0]
    z = code.copy()
    tol = _STEP_TOL * max(float(np.max(np.abs(xt))), 1.0)
    for _ in range(_MM_STEPS):
        v = _offsets(xt, idx, z)
        w = _weights(_norm(v), r)
        wsum = np.bincount(idx, weights=w, minlength=n)
        step = np.stack([np.bincount(idx, weights=w * vc, minlength=n) for vc in v], axis=1)
        step /= np.where(wsum > 0.0, wsum, 1.0)[:, None]
        z -= step
        if np.max(np.abs(step)) <= tol:
            break
    return z


def _damped_newton(xt: np.ndarray, idx: np.ndarray, code: np.ndarray, r: float,
                   value: np.ndarray) -> np.ndarray:
    """Damped Newton steps for r >= 1, all cells at once.

    The cell objective ``sum_i |z - x_i|^r`` (per-cell values ``value`` at
    ``code``) is convex, with gradient ``r sum_i w_i (z - x_i)`` and Hessian
    ``r sum_i w_i (I + (r-2) u_i u_i^T)``, where ``w_i = d_i^(r-2)`` and
    ``u_i`` is the unit vector from ``x_i`` to ``z``.  A cell whose full
    Newton step does not lower its objective (at r = 1 the Hessian has no
    radial curvature, so steps near a sample overshoot) falls back to the
    gradient step scaled by the largest curvature ``max(1, r-1) sum_i w_i``,
    which for r <= 2 is the majorize-minimize (Weiszfeld) step and so
    descends, halved until it lowers the objective.  A cell stops once its
    step is below tolerance without a decrease.

    Each step reads only the samples of the cells still active, and each
    trial only those of the cells it tries (see :func:`_samples_of`);
    per-cell sums keep sample order, so they equal full-sample sums bit for
    bit.  A cell moves only to a center of lower objective, so no cell ends
    above its ``value``.
    """
    n, m = code.shape
    z = code.copy()
    f = value.copy()
    tol = _STEP_TOL * max(float(np.max(np.abs(xt))), 1.0)
    eye = np.eye(m)
    active = np.ones(n, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        v = _offsets(xt, idx, z)
        d = _norm(v)
        w = _weights(d, r)
        wsum = np.bincount(idx, weights=w, minlength=n)
        grad = np.stack([np.bincount(idx, weights=w * va, minlength=n) for va in v], axis=1)
        d[d == 0.0] = 1.0
        v /= d  # now the unit vectors u_i
        del d  # one sample-length array fewer at the step's peak
        hess = ((1.0 + _NEWTON_RIDGE) * wsum)[:, None, None] * eye
        for a in range(m):
            for b in range(a, m):
                h = (r - 2.0) * np.bincount(idx, weights=w * v[a] * v[b], minlength=n)
                hess[:, a, b] += h
                if b != a:
                    hess[:, b, a] += h
        del v, w  # the trials below need no sample-length step arrays
        flat = wsum <= 0.0
        hess[flat] = eye
        newton = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        safe = -grad / np.where(flat, 1.0, max(1.0, r - 1.0) * wsum)[:, None]
        moved = np.zeros(n, dtype=bool)
        for step, halve in ((newton, False), (safe, True)):
            length = np.max(np.abs(step), axis=1)
            pending = active & ~moved
            t = 1.0
            while True:
                pending &= t * length > tol
                if not pending.any():
                    break
                trial = z + t * step
                val = _cell_objective(*_samples_of(xt, idx, pending), trial, r, n)
                ok = pending & (val < f)
                z[ok] = trial[ok]
                f[ok] = val[ok]
                moved |= ok
                pending &= ~ok
                if not halve:
                    break
                t *= 0.5
        active &= moved
        if not active.any():
            break
        xt, idx = _samples_of(xt, idx, active)
    return z


def _samples_of(xt: np.ndarray, idx: np.ndarray, cells: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The samples of the cells in the mask ``cells`` and their cell indices,
    in sample order, or the arrays themselves when the cells hold more than
    half of them: per-cell sums over those cells are the same either way,
    and the copies would take more memory than the samples they leave out."""
    keep = cells[idx]
    if 2 * np.count_nonzero(keep) > keep.size:
        return xt, idx
    return xt[:, keep], idx[keep]


# ---------------------------------------------------------------------------
# Lloyd iteration
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


def _lloyd(x: np.ndarray, code: np.ndarray, r: float, order: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Run Lloyd iterations to (near) convergence, or for ``MAX_ROUNDS``
    rounds.

    ``order`` is the samples' :func:`_line_order`, computed here when not
    given; every round assigns through one :func:`_assigner`.  At r = 0 each
    recentering searches only the cells whose sample set changed since the
    previous one.  Returns the last codebook measured, its assignment (the
    run ends right after making it, re-seeds included), its distortion, and
    the per-round distortion history (non-increasing up to float dust).
    """
    history: list[float] = []
    prev = math.inf
    xt = np.ascontiguousarray(x.T)
    assign = _assigner(x, xt, _line_order(x) if order is None else order)
    before = None
    while True:
        d, idx = assign(code)
        code, reseeded = _reseed_empty(x, code, d, idx)
        if reseeded:
            d, idx = assign(code)
        loss = _loss(d, r)
        del d
        dist = float(np.mean(loss))
        history.append(dist)
        if (prev - dist < REL_IMPROVEMENT_TOL * max(1.0, abs(prev)) and math.isfinite(prev)
                or len(history) == MAX_ROUNDS):
            break
        prev = dist
        changed = None
        if r == 0.0 and before is not None:
            changed = _changed_cells(before, idx, code.shape[0])
        code = _recenter(xt, idx, loss, code, r, order, changed)
        # Free the round's arrays before the next assignment allocates its
        # own; r = 0 keeps each sample's cell, in the smallest integer type.
        before = idx.astype(np.min_scalar_type(code.shape[0] - 1)) if r == 0.0 else None
        del loss, idx
    return code, idx, dist, history


def _changed_cells(before: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Mask of the cells that gained or lost a sample from ``before`` to ``idx``."""
    moved = np.flatnonzero(before != idx)
    changed = np.zeros(n, dtype=bool)
    changed[before[moved]] = True
    changed[idx[moved]] = True
    return changed


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

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


# ---------------------------------------------------------------------------
# start codebooks
# ---------------------------------------------------------------------------


def _split_tree(samples: SampleSet, r: float, sizes) -> dict[int, np.ndarray]:
    """The leaf centers of one divisive split tree at each size in ``sizes``.

    The tree starts from one leaf, all samples, centred at their mean, and
    repeatedly splits the leaf whose split lowers the summed order-r loss
    (floored at r = 0, see :func:`_loss`) the most, ties going to the split
    found first (Linde, Buzo & Gray's splitting design, IEEE Trans. Comm.
    28, 1980).  A split is a two-center r = 2 :func:`_lloyd` run on the
    leaf's samples, started at its center +- one standard deviation along
    their principal axis; its two centers and final cells are the new leaves.
    After j splits the j + 1 leaf centers are the codebook of size j + 1.
    A leaf whose split leaves a cell empty (all its samples are equal)
    never splits; once none can, the leaves repeat, and Lloyd re-seeds the
    cells they leave empty.  On a line every leaf's samples are a run of
    the samples' :func:`_line_order`, so they are sorted.
    """
    x, line = samples.points, samples.line_order
    center = x.mean(axis=0)
    leaves = [(np.arange(samples.count) if line is None else line, center,
               float(np.sum(_loss(_norm((x - center).T), r))))]
    heap: list = []
    pushed = itertools.count()

    def push(i: int) -> None:
        cell, center, loss = leaves[i]
        xc = x[cell]
        dev = xc - center
        var, axes = np.linalg.eigh(dev.T @ dev / cell.size)
        step = math.sqrt(max(var[-1], 0.0)) * axes[:, -1]
        order = None if line is None else np.arange(cell.size)
        code, idx, _, _ = _lloyd(xc, np.stack([center - step, center + step]), 2.0, order=order)
        if idx.min() < idx.max():
            kid_loss = _cell_objective(xc.T, idx, code, r, 2)
            kids = [(cell[idx == h], code[h], float(kid_loss[h])) for h in (0, 1)]
            heapq.heappush(heap, (float(kid_loss.sum()) - loss, next(pushed), i, kids))

    top = max(sizes)
    if top > 1:
        push(0)
    books = {}
    for size in range(1, top + 1):
        if size > 1 and heap:
            _, _, i, kids = heapq.heappop(heap)
            leaves[i] = kids[0]
            leaves.append(kids[1])
            if size < top:
                push(i)
                push(len(leaves) - 1)
        if size in sizes:
            books[size] = np.resize([c for _, c, _ in leaves], (size, x.shape[1]))
    return books


def antichain_codebook(wifs: WIFS, n: int, r: float) -> np.ndarray:
    """The n points f_w(a*), w over an antichain of words grown by priority.

    Starting from the empty word, the word of largest p_w s_w^r (p_w at
    r = 0; ties go to the smaller word) is replaced by its children, as a
    heap pops it, until a full split would pass n; then the top word gives
    way to only its n - |Gamma| + 1 highest-priority children.  a* is the
    measure's mean, the fixed point of a -> sum_i p_i f_i(a), for every r.
    Each point is a* pushed through the word's maps, rightmost first, as
    :func:`~qdim.ifs.compose_word` composes them, one batch per map and
    position.  Returns the points in word order.

    Raises
    ------
    DegenerateFit
        for n > 1 on a one-map system, whose words never split.
    """
    k, m = wifs.n_maps, wifs.dim
    if k == 1 and n > 1:
        raise DegenerateFit(f"a one-map system has no antichain of {n} words")
    q = [float(p) * f.scale ** r for p, f in zip(wifs.probs, wifs.maps)]
    children = sorted(range(k), key=lambda i: (-q[i], i))
    heap: list[tuple[float, tuple[int, ...]]] = [(-1.0, ())]
    while len(heap) < n:
        neg, word = heapq.heappop(heap)
        for i in children[:min(k, n - len(heap))]:
            heapq.heappush(heap, (neg * q[i], word + (i,)))
    words = sorted(word for _, word in heap)

    drift = sum(p * f.scale * f.isometry for p, f in zip(wifs.probs, wifs.maps))
    mean = np.linalg.solve(np.eye(m) - drift,
                           sum(p * f.translation for p, f in zip(wifs.probs, wifs.maps)))
    depth = max(map(len, words))
    symbols = np.array([w + (-1,) * (depth - len(w)) for w in words])
    code = np.tile(mean, (n, 1))
    for j in range(depth - 1, -1, -1):
        for i, f in enumerate(wifs.maps):
            at = symbols[:, j] == i
            code[at] = f.apply(code[at])
    return code


def optimize_codebook(samples: SampleSet, n: int, r: float,
                      start: np.ndarray | None = None) -> Codebook:
    """One Lloyd run from ``start``, an (n, m) codebook, or from the n leaf
    centers of the samples' split tree (see :func:`_split_tree`) without it.

    No random numbers are drawn.  When ``n`` is at least the sample count
    the distinct sample points themselves are returned (distortion 0, or
    -inf for r = 0).
    """
    if n < 1:
        raise ValueError(f"codebook size must be >= 1, got {n}")
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"order r must be finite and >= 0, got {r}")
    x = samples.points
    if start is not None and np.shape(start) != (n, samples.dim):
        raise ValueError(f"start codebook must have shape {(n, samples.dim)}, "
                         f"got {np.shape(start)}")
    if n >= x.shape[0]:
        distinct = np.unique(x, axis=0)
        return Codebook(points=distinct, r=r, distortion=(0.0 if r > 0.0 else -math.inf))

    if start is None:
        start = _split_tree(samples, r, [n])[n]
    code, _, dist, _ = _lloyd(x, np.array(start, dtype=float), r, order=samples.line_order)
    return Codebook(points=code[np.lexsort(code.T[::-1])], r=r, distortion=dist)


def estimate_vnr(samples: SampleSet, codebook, r: float) -> float:
    """Empirical order-r error of a codebook on a sample set.

    For r > 0 this is ``mean d^r``; for r = 0 it is the geometric mean
    ``exp(mean log d)`` with distances floored at 1e-12, so a codebook that
    sits exactly on samples still yields a positive value.
    """
    code = codebook.points if isinstance(codebook, Codebook) else np.asarray(codebook, dtype=float)
    if code.ndim == 1:
        code = code[:, None]
    d, _ = _assigner(samples.points, samples.points.T.copy(), samples.line_order)(code)
    loss = np.mean(_loss(d, r))
    return float(loss if r > 0.0 else np.exp(loss))


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


def _ladder(n_list, r: float, count: int) -> list[int]:
    """``n_list`` as ints, once it is a ladder of two or more strictly
    increasing positive sizes that ``count`` samples can fit (at least 100
    samples per code point, below which the error estimate is pure noise)
    and ``r`` is finite and >= 0.  Raises ``DegenerateFit`` for fewer than
    two sizes and ``ValueError`` otherwise."""
    ns = [int(n) for n in n_list]
    if len(ns) < 2:
        raise DegenerateFit(f"need at least two codebook sizes, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError(f"need strictly increasing positive sizes, got {ns}")
    if max(ns) > count / 100:
        raise ValueError(f"max n = {max(ns)} needs at least {100 * max(ns)} samples, "
                         f"got {count}")
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"order r must be finite and >= 0, got {r}")
    return ns


def fit_dimension_from_samples(samples: SampleSet, r: float, n_list) -> DimensionFit:
    """Fit the order-r dimension on an existing sample set.

    Builds the samples' split tree (:func:`_split_tree`) once, up to
    ``max(n_list)`` leaves, runs one Lloyd run from its size-n leaves for
    every n, then regresses ``-log V_hat`` (or ``-log e_hat``) on ``log n``.
    No random numbers are drawn.

    Raises
    ------
    DegenerateFit
        fewer than two ladder sizes, a zero/flat error estimate, or a
        non-positive slope.
    ValueError
        a ladder or order that :func:`_ladder` refuses, checked before the
        tree is built.
    """
    ns = _ladder(n_list, r, samples.count)
    return _fit_ladder(samples, r, ns, _split_tree(samples, r, ns).__getitem__)


def fit_dimension(wifs: WIFS, r: float, n_list, samples_per_run: int, seed: int,
                  burn_in: int = 100) -> DimensionFit:
    """Chaos-game sample, then fit as :func:`fit_dimension_from_samples` does,
    but with each rung one Lloyd run from :func:`antichain_codebook`.

    One sample set (of size ``samples_per_run``) is shared by every ladder
    size, and no rung draws random numbers.  The ladder is checked before
    any sample is drawn.  Raises as :func:`fit_dimension_from_samples`, and
    ``DegenerateFit`` for a one-map system.
    """
    ns = _ladder(n_list, r, samples_per_run)
    samples = chaos_game(wifs, samples_per_run, seed, burn_in=burn_in)
    return _fit_ladder(samples, r, ns, functools.partial(antichain_codebook, wifs, r=r))


def _fit_ladder(samples: SampleSet, r: float, ns: list[int], start) -> DimensionFit:
    """Run one Lloyd run per rung n of the :func:`_ladder` ``ns`` in
    parallel from ``start(n)`` (the samples sorted once, before), and
    regress the log errors on log n."""
    samples.line_order  # sorted here once, not in every rung's thread
    pairs = tuple(parallel_map(
        lambda n: (n, optimize_codebook(samples, n, r, start=start(n)).distortion), ns))

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
