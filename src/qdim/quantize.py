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

The recentering rules are written once, against a per-cell interface
that two layouts supply.  On a line the sample values are sorted once per
sample set, the codebook is kept sorted, and every Voronoi cell is a slice
of the sorted values: assignment is the cut indices of the code midpoints,
per-cell sums are ``np.add.reduceat`` over the cuts, per-sample centers
are ``np.repeat`` of the codebook by the cell counts, and medians and
sample candidates read each slice; the split tree's leaves are slices too.
In R^m each sample carries its cell index and sums are ``np.bincount`` in
sample order.  Slice sums round differently from sample-order sums, so on
a line the distortions, and the centers at r >= 2, differ from those in
the last bits.

A Lloyd round spends its work on what can still change.  In R^m each
sample carries a lower bound on its distance to the centers other than its
own (Hamerly's drift update, Elkan's center-gap lemma), and only samples
whose bound no longer clears their own distance are queried again in a
KD-tree (scipy's, imported on the first R^m assignment, so the 1-d path
never loads it).  The first assignment runs the same test from a guessed
center: a chaos-game sample is born in the cylinder f_w(conv K) of the maps
just drawn, so the start codebook's point f_w(a*) for the antichain word w
its address starts with is a guess that Elkan's half-gap lemma certifies
for nearly every sample.  Damped Newton steps and their trials read only the
samples of the cells still moving.  At every order a recentering reports the
cells it left unsettled (the Newton cells the step cap cut short, and every
cell at 0 < r < 1), the next one searches only the cells whose samples or
center changed or that are unsettled (reading every sample while those
cells hold more than half of them), and a run stops once there are none.
A cell's sum depends only on its own samples in their order, so every
assignment, center and distortion is bit-identical to full rescans and
per-sample searches.

Every Lloyd run starts from one deterministic codebook.  A fit that knows
its system (:func:`fit_dimension`) seeds each rung with the system's own
codebook {f_w(a*) : w in Gamma}: Gamma is an antichain of n words grown by
splitting the word of largest p_w s_w^r, and a* the measure's mean (the
codebooks of Graf & Luschgy's upper bounds, LNM 1730, ch. 14; on the
Cantor measure at n = 2^k the optimal one), from one priority walk per
ladder.  Fits on bare sample sets, and codebooks asked for without a
start, seed from the samples' split tree: the same priority split, made
on cells of samples instead of words (Linde, Buzo & Gray's splitting
design), with every rung a prefix of one tree.  A ladder's rungs run in
turn on the calling thread, in every dimension.

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
from .ifs import (WIFS, antichain_index, antichain_words, attractor_hull, compose_words,
                  point_images, stack_maps)
from .util import parallel_map  # noqa: F401  (perfbench's trace wraps quantize.parallel_map)

__all__ = [
    "SampleSet",
    "Codebook",
    "DimensionFit",
    "chaos_game",
    "optimize_codebook",
    "estimate_vnr",
    "fit_dimension",
    "fit_dimension_from_samples",
    "antichain_codebooks",
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
    """Points drawn from (or standing in for) an invariant measure.

    ``picks``, on a set that :func:`chaos_game` drew, holds the orbit's
    0-based map indices in draw order, burn-in first: they address each
    sample's cylinder (see :func:`~qdim.ifs.antichain_index`).  A bare
    sample set has none.
    """

    points: np.ndarray
    picks: np.ndarray | None = None

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
        if self.picks is not None:
            picks = np.array(self.picks)
            if picks.ndim != 1 or picks.size < pts.shape[0]:
                raise ValueError(f"picks must be one index per orbit step, at least one per "
                                 f"sample, got shape {picks.shape}")
            picks.flags.writeable = False
            object.__setattr__(self, "picks", picks)

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @functools.cached_property
    def line_values(self) -> np.ndarray | None:
        """The points' :func:`_line_values`, sorted once for every codebook."""
        return _line_values(self.points)

    @functools.cached_property
    def first_order(self) -> np.ndarray:
        """The samples' stable order by first coordinate (ties in sample
        order), made once for every codebook's cell runs."""
        return np.argsort(self.points[:, 0], kind="stable")


def chaos_game(wifs: WIFS, count: int, seed: int, burn_in: int = 100) -> SampleSet:
    """Sample the invariant measure by the random iteration algorithm.

    Starts at the attractor-hull centre, applies ``burn_in`` warm-up steps,
    then records ``count`` further iterates, keeping the drawn map indices
    as ``picks`` in the smallest unsigned type.  The orbit is composed by
    one doubling scan over the drawn affine steps, in every dimension:
    after the pass at width ``step``, step k holds the composition of the
    2 * step steps ending at k (of all of them, with the start folded into
    step 0, once k < 2 * step), so ceil(log2(burn_in + count)) passes leave
    the whole orbit.  The scan runs coordinate-major: ``lin[i, j]`` is the
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
    scale, iso, tr = stack_maps(wifs.maps)
    mats = scale[:, None, None] * iso
    m = mats.shape[1]
    lin = np.take(mats.transpose(1, 2, 0), picks, axis=2)
    x = np.take(tr.T, picks, axis=1)
    x[:, 0] += mats[picks[0]] @ attractor_hull(wifs).center
    picks = picks.astype(np.min_scalar_type(wifs.n_maps - 1))
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
    return SampleSet(points=x[:, burn_in:].T, picks=picks)


def _row_products(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out = sum_j a[j] * b[j]`` over rows, summed in j order; ``tmp`` is
    a scratch row for every product after the first."""
    np.multiply(a[0], b[0], out=out)
    for j in range(1, len(a)):
        out += np.multiply(a[j], b[j], out=tmp)


# ---------------------------------------------------------------------------
# nearest-point machinery
# ---------------------------------------------------------------------------
#
# A Lloyd run assigns through one assigner, which returns each codebook's
# nearest-center distances and its cells: ``_Slices`` on a line, where the
# samples are sorted and every cell is a slice of them, ``_Indexed`` in R^m,
# where each sample carries its cell index.  Both supply the per-cell
# interface the recentering rules below are written against: ``counts``,
# ``sum`` (per-cell sums of per-sample values), ``offsets`` and
# ``distances`` (each sample's center spread to it, minus the sample, and
# its length), ``restrict`` (the samples of a cell mask), ``run_starts``
# and ``ranked`` (each cell's samples in order of their first coordinate),
# ``members`` (one cell's samples, as an index), and ``key``/``changed``
# (which cells' samples moved between two assignments).


def _line_values(x: np.ndarray) -> np.ndarray | None:
    """The sorted sample values on a line, read-only; None in R^m."""
    if x.shape[1] != 1:
        return None
    xs = np.sort(x[:, 0])
    xs.flags.writeable = False
    return xs


def _assigner(x: np.ndarray, xs: np.ndarray | None = None, first=None,
              guess: np.ndarray | None = None):
    """A fresh assigner for one Lloyd run over samples ``x``: a :class:`_Line`
    over their sorted values ``xs`` (sorted here when not given) on a line,
    else a :class:`_BoundedAssign` with the order source ``first`` and the
    first guess ``guess`` (see there)."""
    if x.shape[1] == 1:
        return _Line(_line_values(x) if xs is None else xs)
    return _BoundedAssign(x, np.ascontiguousarray(x.T), first, guess)


class _Line:
    """Nearest-center assignment of sorted samples ``xs`` on a line.

    A call sorts the codebook (stably) unless it already is, and cuts the
    samples at the n - 1 code midpoints: a sample goes to the first code
    point whose upper midpoint is not below it.  Returns the sorted
    codebook, each sample's distance (in sorted order) and the cells.
    """

    def __init__(self, xs: np.ndarray):
        self.xs = xs

    def __call__(self, code: np.ndarray) -> tuple[np.ndarray, np.ndarray, _Slices]:
        c = code[:, 0]
        if np.any(c[1:] < c[:-1]):
            code = code[np.argsort(c, kind="stable")]
            c = code[:, 0]
        xs = self.xs
        cuts = np.empty(c.size + 1, dtype=np.intp)
        cuts[0], cuts[-1] = 0, xs.size
        cuts[1:-1] = np.searchsorted(xs, 0.5 * (c[1:] + c[:-1]), side="right")
        cells = _Slices(xs, cuts)
        return code, cells.distances(code), cells


class _Slices:
    """The cells of sorted samples ``xs`` on a line: cell c is the slice
    ``xs[cuts[c]:cuts[c + 1]]``, already in order.

    Per-cell sums are ``np.add.reduceat`` over the nonempty cells' starts,
    so an empty cell, whose start repeats the next one's, reads 0.
    """

    def __init__(self, xs: np.ndarray, cuts: np.ndarray):
        self.xt = xs[None]
        self.cuts = cuts
        self.counts = np.diff(cuts)
        self.run_starts = cuts[:-1]
        self._ne = None if self.counts.all() else np.flatnonzero(self.counts)

    def sum(self, v: np.ndarray) -> np.ndarray:
        """Per-cell sums of ``v`` (k,), or of each row of an (m, k) ``v`` as (n, m)."""
        if self._ne is None:
            out = np.add.reduceat(v, self.run_starts, axis=-1)
        else:
            out = np.zeros(v.shape[:-1] + self.counts.shape)
            if self._ne.size:
                out[..., self._ne] = np.add.reduceat(v, self.run_starts[self._ne], axis=-1)
        return out.T

    def offsets(self, z: np.ndarray) -> np.ndarray:
        """``z[cell] - x`` for every sample, as a (1, k) array."""
        v = np.repeat(z.T, self.counts, axis=1)
        v -= self.xt
        return v

    def distances(self, z: np.ndarray) -> np.ndarray:
        """``|z[cell] - x|`` for every sample."""
        v = self.offsets(z)[0]
        return np.abs(v, out=v)

    def restrict(self, cells: np.ndarray) -> _Slices:
        """The cells in the mask ``cells`` alone (the others emptied), or
        these cells themselves when those hold more than half the samples."""
        counts = np.where(cells, self.counts, 0)
        if 2 * int(counts.sum()) > self.xt.shape[1]:
            return self
        cuts = np.zeros_like(self.cuts)
        np.cumsum(counts, out=cuts[1:])
        return _Slices(self.xt[0, np.repeat(cells, self.counts)], cuts)

    def ranked(self, pos: np.ndarray) -> np.ndarray:
        """The samples at positions ``pos`` of the cell runs, as (1, len(pos))."""
        return self.xt[:, pos]

    def members(self, c: int) -> slice:
        return slice(self.cuts[c], self.cuts[c + 1])

    def key(self) -> np.ndarray:
        return self.cuts.copy()

    def changed(self, key: np.ndarray) -> np.ndarray:
        """Mask of the cells whose cut pair moved since ``key``."""
        return (self.cuts[:-1] != key[:-1]) | (self.cuts[1:] != key[1:])


class _Indexed:
    """The cells of samples ``xt`` (an (m, k) array) in R^m: sample i lies in
    cell ``idx[i]``.  Sums are ``np.bincount`` in sample order.  ``first``,
    when given, returns the samples' stable order by first coordinate for
    :meth:`ranked` (a cells object without it, a restricted copy included,
    sorts its own samples)."""

    def __init__(self, xt: np.ndarray, idx: np.ndarray, n: int, counts: np.ndarray | None = None,
                 first=None):
        self.xt, self.idx, self.n, self.first = xt, idx, n, first
        self.counts = np.bincount(idx, minlength=n) if counts is None else counts

    def sum(self, v: np.ndarray) -> np.ndarray:
        """Per-cell sums of ``v`` (k,), or of each row of an (m, k) ``v`` as (n, m)."""
        if v.ndim == 1:
            return np.bincount(self.idx, weights=v, minlength=self.n)
        return np.stack([np.bincount(self.idx, weights=row, minlength=self.n) for row in v], axis=1)

    def offsets(self, z: np.ndarray) -> np.ndarray:
        return _offsets(self.xt, self.idx, z)

    def distances(self, z: np.ndarray) -> np.ndarray:
        return _norm(self.offsets(z))

    def restrict(self, cells: np.ndarray) -> _Indexed:
        """The samples of the cells in the mask ``cells``, in sample order, or
        these cells themselves when those hold more than half the samples:
        per-cell sums over those cells are the same either way, and the
        copies would take more memory than the samples they leave out."""
        keep = cells[self.idx]
        if 2 * np.count_nonzero(keep) > keep.size:
            return self
        return _Indexed(self.xt[:, keep], self.idx[keep], self.n, np.where(cells, self.counts, 0))

    @functools.cached_property
    def _runs(self) -> np.ndarray:
        """``np.lexsort((xt[0], idx))``: the first-coordinate order, then a
        stable (radix, on one- and two-byte cells) sort by cell."""
        first = np.argsort(self.xt[0], kind="stable") if self.first is None else self.first()
        cell = self.idx[first].astype(np.min_scalar_type(self.n - 1))
        return first[np.argsort(cell, kind="stable")]

    @property
    def run_starts(self) -> np.ndarray:
        return np.cumsum(self.counts) - self.counts

    def ranked(self, pos: np.ndarray) -> np.ndarray:
        """The samples at positions ``pos`` of the cell runs (samples sorted
        by cell, then first coordinate, ties in sample order), as (m, len(pos))."""
        return self.xt[:, self._runs[pos]]

    def members(self, c: int) -> np.ndarray:
        return self.idx == c

    def key(self) -> np.ndarray:
        return self.idx.astype(np.min_scalar_type(self.n - 1))

    def changed(self, key: np.ndarray) -> np.ndarray:
        """Mask of the cells that gained or lost a sample since ``key``."""
        moved = np.flatnonzero(key != self.idx)
        changed = np.zeros(self.n, dtype=bool)
        changed[key[moved]] = True
        changed[self.idx[moved]] = True
        return changed


class _BoundedAssign:
    """Exact nearest-center assignment in R^m along one Lloyd run's codebooks.

    Each sample keeps a center ``idx`` and a lower bound ``low`` on its
    distance to every other center.  A new codebook lowers ``low`` by the
    largest drift among the other centers (Hamerly, SDM 2010), then raises
    it to ``gap - d``, where ``gap`` is the center's distance to its nearest
    other center (Elkan, ICML 2003: |x - c_j| >= |c_a - c_j| - d, for any
    center a).  ``d`` is computed exactly, as the KD-tree computes it.  A
    sample whose ``d`` stays below ``low`` by ``_BOUND_SLACK`` times the
    scale keeps its center; only the others are queried in the tree.  The
    first call runs the same test from ``guess``, with ``low = -inf`` and
    no drift, so a good guess, such as each chaos-game sample's own cylinder
    (:func:`~qdim.ifs.antichain_index`), spares most of the first query;
    without a guess it queries every sample.  Each call returns the
    codebook, new ``d`` and the cells of new ``idx`` (with the order source
    ``first``, see :class:`_Indexed`), equal to ``cKDTree(code).query(x,
    k=1)`` whatever the guess.
    """

    def __init__(self, x: np.ndarray, xt: np.ndarray, first=None, guess: np.ndarray | None = None):
        self.x, self.xt = x, xt
        self.scale = max(1.0, float(np.max(np.abs(xt))))
        self.first = first
        self.code: np.ndarray | None = None
        self.idx = guess
        self.low = np.full(x.shape[0], -np.inf)

    def __call__(self, code: np.ndarray) -> tuple[np.ndarray, np.ndarray, _Indexed]:
        from scipy.spatial import cKDTree

        tree = cKDTree(code)
        slack = _BOUND_SLACK * max(self.scale, float(np.max(np.abs(code))))
        if self.idx is None:
            d, idx, low = _query_two(tree, self.x, slack)
        else:
            idx, low = self.idx.copy(), self.low
            if self.code is not None:
                low -= _largest_other(_norm((code - self.code).T), idx)
            d = _norm(_offsets(self.xt, idx, code))
            bound = tree.query(code, k=2)[0][idx, 1]
            bound -= d
            np.maximum(low, bound, out=low)
            bound = np.subtract(low, slack, out=bound)
            stale = np.flatnonzero(~(d < bound))
            del bound
            if stale.size:
                d[stale], idx[stale], low[stale] = _query_two(tree, self.x[stale], slack)
        self.code, self.idx, self.low = code.copy(), idx, low
        return code, d, _Indexed(self.xt, idx, code.shape[0], first=self.first)


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
    """Euclidean length of each column of an (m, k) array, summed in the
    order of scipy's KD-tree distance, so it equals the tree's distance bit
    for bit: four running sums over the coordinates in steps of four, added
    in turn, then the remaining coordinates one at a time (below m = 8, the
    coordinates in order)."""
    m = v.shape[0]
    if m == 1:  # exact where sqrt(x*x) underflows (|x| < ~1e-154), and ~7x faster
        return np.abs(v[0])
    sq, head = v * v, max(4, m - m % 4)
    for i in range(4, head, 4):
        sq[:4] += sq[i:i + 4]
    s = sq[0]
    for i in (*range(1, min(4, m)), *range(head, m)):
        s += sq[i]
    return np.sqrt(s, out=s)


def _loss(d: np.ndarray, r: float) -> np.ndarray:
    """Per-sample order-r loss: d^r, or the floored log-distance at r = 0,
    written over the distances ``d``."""
    if r > 0.0:
        d **= r
        return d
    np.maximum(d, EPS_LOG, out=d)
    return np.log(d, out=d)


def _cell_objective(cells, centers: np.ndarray, r: float) -> np.ndarray:
    """Per-cell order-r objective of assigning each sample of ``cells`` to
    its cell's row of ``centers``."""
    return cells.sum(_loss(cells.distances(centers), r))


# ---------------------------------------------------------------------------
# per-cell recentering
# ---------------------------------------------------------------------------
#
# Each rule moves every cell's center at once, from per-cell sums over the
# cells of one assignment (``_Slices`` or ``_Indexed``), in any dimension m.


def _recenter(cells, loss: np.ndarray, code: np.ndarray, r: float,
              changed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (or safeguarded) new centers for the assignment ``cells``, and
    the mask of the cells they leave unsettled: a cell whose center a second
    recentering over the same samples could still move.

    ``loss`` holds each sample's :func:`_loss` at its current center.
    ``changed`` masks the cells whose samples or center changed since the
    recentering that produced ``code``, or that it left unsettled (all of
    them at a run's first recentering): every other cell's center ended
    that recentering over the same samples, so would end it again, and
    only the changed cells are searched.  Means, line medians and the
    r = 0 search read nothing but a cell's samples and leave no cell
    unsettled; damped Newton leaves the cells the step cap cut short; the
    majorize-minimize steps of 0 < r < 1 start from the incumbent, so they
    leave every cell unsettled.
    """
    n, m = code.shape
    counts = cells.counts
    nonempty = counts > 0
    new = code.copy()
    none = np.zeros(n, dtype=bool)

    if r == 2.0:
        sums = cells.sum(cells.xt)
        new[nonempty] = sums[nonempty] / counts[nonempty, None]
        return new, none

    if r == 1.0 and m == 1:
        ne = np.flatnonzero(nonempty)
        starts = cells.run_starts[ne]
        lo_mid = cells.ranked(starts + (counts[ne] - 1) // 2)
        hi_mid = cells.ranked(starts + counts[ne] // 2)
        new[ne, 0] = 0.5 * (lo_mid[0] + hi_mid[0])
        return new, none

    incumbent = cells.sum(loss)
    if r == 0.0:
        return _best_candidates(cells, code, r, incumbent, changed)[0], none
    if r >= 1.0:
        return _damped_newton(cells, code, r, incumbent, changed)

    # d^r is concave in d: minimisers sit on or near samples, where the
    # majoriser's weights blow up and its steps stall, so the better of its
    # result and the sample candidates wins.  The candidates start at the
    # incumbent and only improve on it, so the winner never ends above it.
    new = _majorize_minimize(cells, code, r)
    cand, cand_value = _best_candidates(cells, code, r, incumbent, changed)
    take = cand_value < _cell_objective(cells, new, r)
    new[take] = cand[take]
    return new, ~none


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


def _best_candidates(cells, code: np.ndarray, r: float, incumbent: np.ndarray,
                     mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best of the incumbent and a spread of each cell's own samples.

    On a line, between consecutive samples the map ``c -> sum log|c - x_i|``
    (and ``sum |c - x_i|^r`` for r < 1) is concave, so every local minimiser
    of the floored objective sits on a sample point.  Scoring all cell
    samples is quadratic, so we score a spread of cell quantiles (samples
    ordered by their first coordinate) plus the incumbent, whose per-cell
    objective is ``incumbent``, and keep the best; the floored log dip at
    each candidate has the same depth, hence quantile resolution only
    affects the smooth part of the objective.  At r > 0 the spread is
    narrowed around the best quantile and scored again until it holds
    consecutive samples.  Only the cells in ``mask`` are searched, over
    their own samples; the rest keep the incumbent.  Returns the centers
    and their per-cell objectives.
    """
    # Candidates come from the runs of ``cells`` and are scored on ``part``,
    # so a restricted copy never orders its samples again.
    part = cells.restrict(mask)
    ne = np.flatnonzero(mask & (cells.counts > 0))
    starts = cells.run_starts[ne]
    best = code.copy()
    best_val = incumbent.copy()
    cand = code.copy()
    last = cells.counts[ne] - 1
    lo = np.zeros_like(last)
    span = last.copy()
    top = lo.copy()
    while True:
        for q in range(_LOG_CANDIDATES):
            rank = lo + (span * q) // (_LOG_CANDIDATES - 1)
            cand[ne] = cells.ranked(starts + rank).T
            val = _cell_objective(part, cand, r)[ne]
            better = val < best_val[ne]
            won = ne[better]
            best_val[won] = val[better]
            best[won] = cand[won]
            top[better] = rank[better]
        if r == 0.0 or span.max(initial=0) < _LOG_CANDIDATES:
            return best, best_val
        reach = -(-span // (_LOG_CANDIDATES - 1))
        lo = np.maximum(top - reach, 0)
        span = np.minimum(top + reach, last) - lo


def _majorize_minimize(cells, code: np.ndarray, r: float) -> np.ndarray:
    """Generalised Weiszfeld steps for 0 < r < 1, all cells at once.

    ``d^r = (d^2)^(r/2)`` is concave in ``d^2``, so its tangent at the
    current center majorises the cell objective by a weighted sum of
    squares with weights ``d^(r-2)``; each step moves the center to that
    majoriser's minimiser, the weighted mean of the cell.
    """
    z = code.copy()
    tol = _STEP_TOL * max(float(np.max(np.abs(cells.xt))), 1.0)
    for _ in range(_MM_STEPS):
        v = cells.offsets(z)
        w = _weights(_norm(v), r)
        wsum = cells.sum(w)
        step = cells.sum(w * v)
        step /= np.where(wsum > 0.0, wsum, 1.0)[:, None]
        z -= step
        if np.max(np.abs(step)) <= tol:
            break
    return z


def _damped_newton(cells, code: np.ndarray, r: float, value: np.ndarray,
                   mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    step is below tolerance without a decrease.  Only the cells in ``mask``
    start active.

    Each step reads only the samples of the cells still active, and each
    trial only those of the cells it tries (see ``restrict``); per-cell
    sums keep their order, so they equal full-sample sums bit for bit.  A
    cell moves only to a center of lower objective, so no cell ends above
    its ``value``.  Returns the centers and the mask of the cells still
    active when ``_NEWTON_STEPS`` stopped them.
    """
    n, m = code.shape
    z = code.copy()
    f = value.copy()
    tol = _STEP_TOL * max(float(np.max(np.abs(cells.xt))), 1.0)
    eye = np.eye(m)
    active = mask.copy()
    for _ in range(_NEWTON_STEPS):
        if not active.any():
            break
        cells = cells.restrict(active)
        v = cells.offsets(z)
        d = _norm(v)
        w = _weights(d, r)
        wsum = cells.sum(w)
        grad = cells.sum(w * v)
        hess = ((1.0 + _NEWTON_RIDGE) * wsum)[:, None, None] * eye
        if m == 1:
            # u_i = +-1, or 0 where w_i = 0: sum_i w_i u_i u_i is wsum exactly
            hess[:, 0, 0] += (r - 2.0) * wsum
        else:
            d[d == 0.0] = 1.0
            v /= d  # now the unit vectors u_i
            del d  # one sample-length array fewer at the step's peak
            for a in range(m):
                for b in range(a, m):
                    h = (r - 2.0) * cells.sum(w * v[a] * v[b])
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
                val = _cell_objective(cells.restrict(pending), trial, r)
                ok = pending & (val < f)
                z[ok] = trial[ok]
                f[ok] = val[ok]
                moved |= ok
                pending &= ~ok
                if not halve:
                    break
                t *= 0.5
        active &= moved
    return z, active


# ---------------------------------------------------------------------------
# Lloyd iteration
# ---------------------------------------------------------------------------


def _reseed_empty(code: np.ndarray, d: np.ndarray, cells) -> tuple[np.ndarray, bool]:
    """Move centers of empty cells onto the samples farthest from the codebook."""
    empty = np.flatnonzero(cells.counts == 0)
    if empty.size == 0:
        return code, False
    far = np.argsort(-d, kind="stable")[: empty.size]
    code = code.copy()
    code[empty] = cells.xt[:, far].T
    return code, True


def _lloyd(assign, code: np.ndarray, r: float) -> tuple[np.ndarray, object, float, list, bool]:
    """Run Lloyd iterations to (near) convergence, or for ``MAX_ROUNDS``
    rounds, every round assigning through ``assign`` (see :func:`_assigner`).

    Each recentering searches only the cells whose samples or center
    changed since the previous one, or which it left unsettled (see
    :func:`_recenter`), and the run stops once there are none: the next
    round would measure the same codebook again.  Returns the last codebook
    measured (sorted on a line), its cells (the run ends right after making
    them, re-seeds included), its distortion, the per-round distortion
    history (non-increasing up to float dust), and whether ``MAX_ROUNDS``
    cut the run short.
    """
    history: list[float] = []
    prev = math.inf
    while True:
        code, d, cells = assign(code)
        code, reseeded = _reseed_empty(code, d, cells)
        if reseeded:
            code, d, cells = assign(code)
        loss = _loss(d, r)
        del d
        dist = float(np.mean(loss))
        history.append(dist)
        if prev - dist < REL_IMPROVEMENT_TOL * max(1.0, abs(prev)) and math.isfinite(prev):
            break
        if len(history) == MAX_ROUNDS:
            return code, cells, dist, history, True
        prev = dist
        changed = np.ones(code.shape[0], dtype=bool)
        if len(history) > 1:
            key, searched, unsettled = before
            changed = cells.changed(key) | np.any(code != searched, axis=1) | unsettled
            if not changed.any():
                history.append(dist)
                break
        code, unsettled = _recenter(cells, loss, code, r, changed)
        # Free the round's arrays (a cached run order too) before the next
        # assignment allocates its own; keep each cell's key, the centers
        # found and the cells left unsettled.
        before = (cells.key(), code, unsettled)
        del loss, cells
    return code, cells, dist, history, False


@dataclass(frozen=True, eq=False)
class Codebook:
    """An optimised n-point codebook for the order-r error on a sample set.

    ``distortion`` is the mean r-th power distance for r > 0 and the mean
    floored log-distance for r = 0 (so it can be negative, and is -inf in
    the degenerate all-points case).  ``rounds`` and ``capped`` are the
    run's history length and whether ``MAX_ROUNDS`` cut it short.
    """

    points: np.ndarray
    r: float
    distortion: float
    rounds: int = 0
    capped: bool = False

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
    cells they leave empty.  On a line a leaf is a slice of the sorted
    sample values, and its split cuts that slice in two.
    """
    x = samples.points
    center = x.mean(axis=0)
    leaves = [(np.arange(samples.count), center, float(np.sum(_loss(_norm((x - center).T), r))))]
    if samples.line_values is not None:  # a leaf's samples then come sorted
        x = samples.line_values[:, None]
    heap: list = []
    pushed = itertools.count()

    def push(i: int) -> None:
        cell, center, loss = leaves[i]
        xc = x[cell]
        dev = xc - center
        var, axes = np.linalg.eigh(dev.T @ dev / cell.size)
        step = math.sqrt(max(var[-1], 0.0)) * axes[:, -1]
        start = np.stack([center - step, center + step])
        code, cells, _, _, _ = _lloyd(_assigner(xc, xc[:, 0]), start, 2.0)
        if cells.counts.all():
            kid_loss = _cell_objective(cells, code, r)
            kids = [(cell[cells.members(h)], code[h], float(kid_loss[h])) for h in (0, 1)]
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


def antichain_codebooks(wifs: WIFS, sizes, r: float) -> dict[int, np.ndarray]:
    """The points f_w(a*), w over each antichain Gamma_n of
    :func:`~qdim.ifs.antichain_words`, n in ``sizes``, in word order.

    a* is the measure's mean, the fixed point of a -> sum_i p_i f_i(a).  All
    the words, right-padded with 0 to one depth, compose in one
    :func:`~qdim.ifs.compose_words` call, and one
    :func:`~qdim.ifs.point_images` call sends a* through them.  Raises
    ``DegenerateFit`` for n > 1 on a one-map system.
    """
    return _antichain_starts(wifs, sizes, r)[0]


def _antichain_starts(wifs: WIFS, sizes, r: float) -> tuple[dict, dict]:
    """:func:`antichain_codebooks` and the antichains Gamma_n they come
    from, from one :func:`~qdim.ifs.antichain_words` walk."""
    gammas = antichain_words(wifs, sizes, r)
    s, iso, t = stack_maps(wifs.maps)
    drift = np.sum((wifs.probs * s)[:, None, None] * iso, axis=0)
    mean = np.linalg.solve(np.eye(wifs.dim) - drift, np.sum(wifs.probs[:, None] * t, axis=0))
    words = [w for gamma in gammas.values() for w in gamma]
    depth = max(map(len, words))
    symbols = np.reshape([w + (0,) * (depth - len(w)) for w in words], (len(words), depth))
    points = point_images(*compose_words(wifs, symbols), mean[None])[:, 0]
    return dict(zip(gammas, np.split(points, np.cumsum(list(gammas))[:-1]))), gammas


def optimize_codebook(samples: SampleSet, n: int, r: float,
                      start: np.ndarray | None = None, _words=None) -> Codebook:
    """One Lloyd run from ``start``, an (n, m) codebook, or from the n leaf
    centers of the samples' split tree (see :func:`_split_tree`) without it.

    ``_words``, private, are the antichain whose points ``start`` holds, in
    its row order: in R^m the run's first assignment then starts from each
    chaos-game sample's own cylinder (:func:`~qdim.ifs.antichain_index`).

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
    guess = None
    if _words is not None and samples.picks is not None and samples.dim > 1:
        guess = antichain_index(_words, samples.picks, samples.count)
    assign = _assigner(x, samples.line_values, lambda: samples.first_order, guess)
    code, _, dist, history, capped = _lloyd(assign, np.array(start, dtype=float), r)
    return Codebook(points=code[np.lexsort(code.T[::-1])], r=r, distortion=dist,
                    rounds=len(history), capped=capped)


def estimate_vnr(samples: SampleSet, codebook, r: float) -> float:
    """Empirical order-r error of a codebook on a sample set.

    For r > 0 this is ``mean d^r``; for r = 0 it is the geometric mean
    ``exp(mean log d)`` with distances floored at 1e-12, so a codebook that
    sits exactly on samples still yields a positive value.
    """
    code = codebook.points if isinstance(codebook, Codebook) else np.asarray(codebook, dtype=float)
    if code.ndim == 1:
        code = code[:, None]
    _, d, _ = _assigner(samples.points, samples.line_values)(code)
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
    estimate (2 * se_slope * |d estimate / d slope|); ``rounds`` and
    ``capped`` hold each rung's :class:`Codebook` fields.
    """

    r: float
    pairs: tuple[tuple[int, float], ...]
    slope: float
    estimate: float
    ci_halfwidth: float
    rounds: tuple[int, ...]
    capped: tuple[bool, ...]


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
    return _fit_ladder(samples, r, ns, _split_tree(samples, r, ns))


def fit_dimension(wifs: WIFS, r: float, n_list, samples_per_run: int, seed: int,
                  burn_in: int = 100) -> DimensionFit:
    """Chaos-game sample, then fit as :func:`fit_dimension_from_samples` does,
    but with each rung one Lloyd run from :func:`antichain_codebooks`.

    One sample set (of size ``samples_per_run``) is shared by every ladder
    size, and no rung draws random numbers.  The ladder is checked before
    any sample is drawn.  Raises as :func:`fit_dimension_from_samples`, and
    ``DegenerateFit`` for a one-map system.
    """
    ns = _ladder(n_list, r, samples_per_run)
    starts, words = _antichain_starts(wifs, ns, r)
    samples = chaos_game(wifs, samples_per_run, seed, burn_in=burn_in)
    return _fit_ladder(samples, r, ns, starts, words)


def _fit_ladder(samples: SampleSet, r: float, ns: list[int], starts: dict,
                words: dict | None = None) -> DimensionFit:
    """One Lloyd run per rung n of the :func:`_ladder` ``ns`` from
    ``starts[n]`` (and, given, the antichain ``words[n]`` it holds), and the
    log errors regressed on log n.  The rungs run in turn, on the calling
    thread, in every dimension: on a line numpy holds the GIL for most of a
    rung, and in R^m a rung's first assignment, which starts from each
    sample's own cylinder, queries the KD-tree for a few samples only, so
    threads would have little to overlap."""
    books = [optimize_codebook(samples, n, r, start=starts[n],
                               _words=None if words is None else words[n]) for n in ns]
    vs = [book.distortion for book in books]

    xs = np.log(np.array(ns, dtype=float))
    if r > 0.0:
        if any(v <= 0.0 for v in vs):
            raise DegenerateFit("zero empirical quantization error in the ladder")
        ys = -np.log(vs)
    else:
        if any(not math.isfinite(v) for v in vs):
            raise DegenerateFit("degenerate log-error in the ladder")
        ys = -np.array(vs)

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
    return DimensionFit(r=r, pairs=tuple(zip(ns, vs)), slope=slope, estimate=estimate,
                        ci_halfwidth=ci, rounds=tuple(b.rounds for b in books),
                        capped=tuple(b.capped for b in books))
