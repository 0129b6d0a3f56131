"""Chaos game, Lloyd optimisation, and the dimension-fit ladder.

Lloyd correctness is checked through its defining invariant - the
distortion history never increases (up to float dust) for every supported
order r - plus small hand-checkable configurations where the optimal
codebook is known.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdim.ifs as ifs
import qdim.quantize as quantize
from qdim.errors import DegenerateFit
from qdim.ifs import WIFS, Similitude, antichain_words, attractor_hull, compose_words, similitude_1d
from qdim.instances import cantor, quarter_maps, random_ssc_wifs, uniform_halves
import scipy.spatial
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from qdim.quantize import (
    _LOG_CANDIDATES,
    _NEWTON_RIDGE,
    _NEWTON_STEPS,
    _STEP_TOL,
    EPS_LOG,
    Codebook,
    SampleSet,
    _BoundedAssign,
    _Indexed,
    _Line,
    _Slices,
    _assigner,
    _cell_objective,
    _damped_newton,
    _line_values,
    _lloyd,
    _loss,
    _recenter,
    _split_tree,
    antichain_codebooks,
    chaos_game,
    estimate_vnr,
    fit_dimension,
    fit_dimension_from_samples,
    optimize_codebook,
)

import per_word


def _run(x, init, r):
    """One Lloyd run over samples ``x`` from ``init``, in their own layout."""
    return _lloyd(_assigner(x), init, r)


def _sample_cells(x, cells):
    """Each sample's cell, in sample order: a line's cells are slices of
    the sorted samples, and equal samples share a cell."""
    if isinstance(cells, _Indexed):
        return cells.idx
    idx = np.empty(x.shape[0], dtype=np.intp)
    idx[np.argsort(x[:, 0], kind="stable")] = np.repeat(np.arange(cells.counts.size), cells.counts)
    return idx


def _assign(x, code):
    """Distances and cells of samples ``x`` at ``code``, in sample order and
    as rows of ``code``, as a Lloyd run's first assignment gives them."""
    sorted_code, d, cells = _assigner(x)(code)
    idx = _sample_cells(x, cells)
    if x.shape[1] > 1:
        return d, idx
    dx = np.empty_like(d)
    dx[np.argsort(x[:, 0], kind="stable")] = d
    return dx, np.argsort(code[:, 0], kind="stable")[idx]


def _both_layouts(x, code):
    """One assignment of 1-d samples ``x`` at ``code``, kept by both layouts:
    the sorted codebook, the line's cells and distances, and the same cells
    indexed in sample order with their distances."""
    code, d, line = _assigner(x)(code)
    dx = np.empty_like(d)
    dx[np.argsort(x[:, 0], kind="stable")] = d
    indexed = _Indexed(np.ascontiguousarray(x.T), _sample_cells(x, line), code.shape[0])
    return code, (line, d), (indexed, dx)


@pytest.fixture(scope="module")
def cantor_samples():
    return chaos_game(cantor(), 5000, seed=17)


# ---------------------------------------------------------------------------
# chaos game
# ---------------------------------------------------------------------------


def test_chaos_game_is_deterministic():
    a = chaos_game(cantor(), 500, seed=3)
    b = chaos_game(cantor(), 500, seed=3)
    np.testing.assert_array_equal(a.points, b.points)


def test_chaos_game_seed_and_burn_in_matter():
    a = chaos_game(cantor(), 500, seed=3)
    b = chaos_game(cantor(), 500, seed=4)
    c = chaos_game(cantor(), 500, seed=3, burn_in=101)
    assert not np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_chaos_game_stays_in_hull(cantor_samples):
    hull = attractor_hull(cantor())
    pts = cantor_samples.points
    assert np.all(pts >= hull.lo[0]) and np.all(pts <= hull.hi[0])
    # middle third is empty for the Cantor attractor
    assert not np.any((pts > 1.0 / 3.0 + 1e-9) & (pts < 2.0 / 3.0 - 1e-9))


def test_chaos_game_matches_marginals(cantor_samples):
    # each branch carries half the mass
    frac_left = float(np.mean(cantor_samples.points[:, 0] < 0.5))
    assert frac_left == pytest.approx(0.5, abs=0.03)


def test_chaos_game_2d_path():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = WIFS(maps=(Similitude(scale=0.5, isometry=rot, translation=np.zeros(2)),
                   Similitude(scale=0.5, isometry=np.eye(2), translation=np.array([0.5, 0.5]))),
             probs=(0.5, 0.5))
    s = chaos_game(w, 1000, seed=9)
    assert s.points.shape == (1000, 2)
    hull = attractor_hull(w)
    assert np.all((s.points >= hull.lo - 1e-9) & (s.points <= hull.hi + 1e-9))


def _sequential_orbit(wifs, count, seed, burn_in):
    """Reference: the random iteration one step at a time, same map draws."""
    picks = np.random.default_rng(seed).choice(wifs.n_maps, size=burn_in + count, p=wifs.probs)
    mats = [f.scale * f.isometry for f in wifs.maps]
    offs = [f.translation for f in wifs.maps]
    x = attractor_hull(wifs).center
    out = np.empty((burn_in + count, wifs.dim))
    for k, i in enumerate(picks.tolist()):
        x = mats[i] @ x + offs[i]
        out[k] = x
    return out[burn_in:]


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


_SCAN_SYSTEMS = {
    "cantor": cantor(),
    "reflection_0.99": WIFS(maps=(similitude_1d(0.99, 0.0, -1), similitude_1d(0.99, 0.01)),
                            probs=(0.5, 0.5)),
    "rot90_0.99": WIFS(maps=(Similitude(0.99, _rotation(np.pi / 2), np.zeros(2)),
                             Similitude(0.99, np.eye(2), np.array([0.01, 0.01]))),
                       probs=(0.3, 0.7)),
    "rot_generic_0.7": WIFS(maps=(Similitude(0.7, _rotation(1.0), np.array([0.2, -0.1])),
                                  Similitude(0.5, _rotation(-2.3), np.array([1.0, 0.5])),
                                  Similitude(0.3, np.eye(2), np.array([-0.4, 0.9]))),
                            probs=(0.5, 0.3, 0.2)),
    "orthogonal_3d": WIFS(maps=(Similitude(0.6, np.linalg.qr(np.random.default_rng(5).normal(
                                    size=(3, 3)))[0], np.array([0.3, -0.2, 0.1])),
                                Similitude(0.4, np.eye(3), np.array([-1.0, 0.5, 2.0]))),
                          probs=(0.6, 0.4)),
}


@pytest.mark.parametrize("count,burn_in", [(1, 100), (1, 0), (300, 0), (100_000, 100)])
@pytest.mark.parametrize("name", sorted(_SCAN_SYSTEMS))
def test_chaos_game_scan_matches_sequential_orbit(name, count, burn_in):
    w = _SCAN_SYSTEMS[name]
    pts = chaos_game(w, count, seed=23, burn_in=burn_in).points
    ref = _sequential_orbit(w, count, 23, burn_in)
    assert pts.shape == ref.shape == (count, w.dim)
    # the scan regroups each sample's sum of products: rounding only
    assert np.max(np.abs(pts - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
    if w.dim <= 2:
        hull = attractor_hull(w)
        assert np.all((pts >= hull.lo - 1e-9) & (pts <= hull.hi + 1e-9))


def _step_major_scan(wifs, count, seed, burn_in):
    """Reference: the same doubling scan on step-major (k, m, m) and (k, m)
    arrays, one einsum and one stacked matmul per pass."""
    picks = np.random.default_rng(seed).choice(wifs.n_maps, size=burn_in + count, p=wifs.probs)
    lin = np.stack([f.scale * f.isometry for f in wifs.maps])[picks]
    x = np.stack([f.translation for f in wifs.maps])[picks]
    x[0] += lin[0] @ attractor_hull(wifs).center
    step = 1
    while step < burn_in + count:
        x[step:] += np.einsum("kij,kj->ki", lin[step:], x[:-step])
        lin[step:] = lin[step:] @ lin[:-step]
        step *= 2
    return x[burn_in:]


#: Systems whose composed linear parts are scaled signed permutations, so each
#: entry of a product is one rounded product plus exact zeros, whatever the
#: summation.  rot_generic_0.7's entries sum two rounded products, which the
#: stacked matmul's BLAS kernel may fuse into one multiply-add (OpenBLAS's
#: Haswell kernel does); the scan rounds each product.
_EXACT_SUMS = ("cantor", "reflection_0.99", "rot90_0.99")


@pytest.mark.parametrize("count,burn_in", [(1, 100), (1, 0), (300, 0), (100_000, 100)])
@pytest.mark.parametrize("name", sorted(n for n, w in _SCAN_SYSTEMS.items() if w.dim <= 2))
def test_chaos_game_scan_matches_step_major_scan(name, count, burn_in):
    w = _SCAN_SYSTEMS[name]
    pts = chaos_game(w, count, seed=23, burn_in=burn_in).points
    ref = _step_major_scan(w, count, 23, burn_in)
    if name in _EXACT_SUMS:
        assert np.array_equal(pts, ref)
    else:
        assert np.max(np.abs(pts - ref)) <= 1e-15 * max(1.0, float(np.max(np.abs(ref))))


_DUST = WIFS(maps=tuple(Similitude(1 / 3, iso, np.array(t)) for iso, t in
                        [(np.eye(2), [0.0, 0.0]), (np.eye(2), [2 / 3, 0.0]),
                         (np.array([[0.0, -1.0], [1.0, 0.0]]), [1 / 3, 2 / 3]),
                         (np.eye(2), [2 / 3, 2 / 3])]),
             probs=(0.4, 0.3, 0.2, 0.1))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_chaos_game_is_bit_identical_to_step_major_scan_at_ladder_sizes(seed):
    # the Cantor and the rotated dust at the sample counts of their ladders
    for w, count in ((cantor(), 30_000), (_DUST, 15_000)):
        assert np.array_equal(chaos_game(w, count, seed).points, _step_major_scan(w, count, seed, 100))


def test_line_values_are_the_sorted_samples():
    rng = np.random.default_rng(31)
    sets = [rng.integers(0, 20, size=500).astype(float)]
    for _ in range(8):  # one 0.0 and one -0.0, equal under == but not bitwise
        x = rng.normal(size=1000)
        x[rng.choice(1000, size=2, replace=False)] = [0.0, -0.0]
        sets.append(x)
    sets += [chaos_game(cantor(), 30_000, seed=s).points[:, 0] for s in range(1, 5)]
    for x in sets:
        xs = _line_values(x[:, None])
        np.testing.assert_array_equal(xs, x[np.argsort(x, kind="stable")])
        assert not xs.flags.writeable
    assert _line_values(np.zeros((3, 2))) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampleset_refuses_non_finite_points(cantor_samples, bad):
    pts = cantor_samples.points.copy()
    pts[17, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_dimension_from_samples(SampleSet(points=pts), 2.0, [8, 16, 32])
    with pytest.raises(ValueError, match="finite"):
        optimize_codebook(SampleSet(points=pts), 8, 2.0)


def test_chaos_game_validates():
    with pytest.raises(ValueError):
        chaos_game(cantor(), 0, seed=1)
    with pytest.raises(ValueError):
        chaos_game(cantor(), 10, seed=1, burn_in=-1)


def test_sampleset_flat_points_become_column():
    s = SampleSet(points=np.array([0.0, 1.0]))
    assert s.points.shape == (2, 1)
    with pytest.raises(ValueError):
        s.points[0, 0] = 3.0


# ---------------------------------------------------------------------------
# Lloyd iteration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.5])
def test_lloyd_history_never_increases(cantor_samples, r):
    rng = np.random.default_rng(23)
    init = cantor_samples.points[rng.choice(cantor_samples.count, size=6, replace=False)]
    _, _, _, history, _ = _run(cantor_samples.points, init, r)
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12), f"history increased by {diffs.max()}"


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5])
def test_lloyd_history_never_increases_2d(r):
    rng = np.random.default_rng(29)
    pts = rng.uniform(size=(1500, 2))
    init = pts[rng.choice(1500, size=5, replace=False)]
    _, _, _, history, _ = _run(pts, init, r)
    assert np.all(np.diff(history) <= 1e-12)


# Final _lloyd distortions of the per-cell scipy recentering (bounded Brent
# on a line, L-BFGS-B in R^2) that the batched kernels replaced, on the
# fixtures of the two history tests above.
_SCIPY_KERNEL_DISTORTIONS = {
    ("cantor", 0.25): 0.4042365677520837,
    ("cantor", 0.5): 0.19357739702038032,
    ("cantor", 0.75): 0.10281857462837347,
    ("uniform", 0.25): 0.635495669297427,
    ("uniform", 0.5): 0.4111539176990412,
    ("uniform", 0.75): 0.2655846918513788,
}


@pytest.mark.parametrize("fixture, r", sorted(_SCIPY_KERNEL_DISTORTIONS))
def test_fractional_orders_no_worse_than_scipy_kernel(cantor_samples, fixture, r):
    if fixture == "cantor":
        rng = np.random.default_rng(23)
        pts = cantor_samples.points
        init = pts[rng.choice(cantor_samples.count, size=6, replace=False)]
    else:
        rng = np.random.default_rng(29)
        pts = rng.uniform(size=(1500, 2))
        init = pts[rng.choice(1500, size=5, replace=False)]
    _, _, dist, _, _ = _run(pts, init, r)
    assert dist <= _SCIPY_KERNEL_DISTORTIONS[fixture, r]


def _random_cells(m, seed, n=8):
    """Gaussian blobs of 20..199 samples, each center on one of its samples."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 200, size=n)
    x = np.concatenate([rng.normal(size=(k, m)) * rng.uniform(0.1, 2.0) + rng.uniform(-5, 5, size=m)
                        for k in sizes])
    idx = np.repeat(np.arange(n), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return x, idx, x[starts + rng.integers(0, sizes)]


def _scipy_cell_minimum(pts, r):
    def fun(z):
        return float(np.sum(np.linalg.norm(pts - z, axis=1) ** r))

    def jac(z):
        diff = z - pts
        d = np.maximum(np.linalg.norm(diff, axis=1), 1e-300)
        return r * np.sum((d ** (r - 2.0))[:, None] * diff, axis=0)

    res = minimize(fun, pts.mean(axis=0), jac=jac, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
    return res.fun


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0, 3.5])
def test_recenter_reaches_scipy_cell_minimum(m, r):
    # one recentering from centers on samples (as k-means++ leaves them)
    # must reach each convex cell objective's minimum, in both layouts
    for seed in range(4):
        x, idx, code = _random_cells(m, seed)
        d = np.linalg.norm(x - code[idx], axis=1)
        cells = _Indexed(np.ascontiguousarray(x.T), idx, code.shape[0])
        layouts = [(cells, d)]
        if m == 1:  # the same cells as slices, each one sorted
            order = np.lexsort((x[:, 0], idx))
            cuts = np.concatenate([[0], np.cumsum(cells.counts)])
            layouts.append((_Slices(x[order, 0], cuts), d[order]))
        want = np.array([_scipy_cell_minimum(x[idx == c], r) for c in range(code.shape[0])])
        for cells, dd in layouts:
            new, _ = _recenter(cells, _loss(dd, r), code, r, np.ones(code.shape[0], bool))
            np.testing.assert_allclose(_cell_objective(cells, new, r), want, rtol=1e-9)


def _damped_newton_reference(xt, idx, code, r, value):
    """The damped Newton kernel as it was before steps and trials read only
    the samples of the cells they move: every sum runs over all samples."""
    n, m = code.shape
    z = code.copy()
    f = value.copy()
    tol = _STEP_TOL * max(float(np.max(np.abs(xt))), 1.0)
    eye = np.eye(m)
    active = np.ones(n, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        v = np.take(z.T, idx, axis=1) - xt
        d = np.sqrt(np.einsum("ij,ij->j", v, v)) if m > 1 else np.abs(v[0])
        w = np.maximum(d, 1e-150) ** (r - 2.0)
        w[d == 0.0] = 0.0
        wsum = np.bincount(idx, weights=w, minlength=n)
        grad = np.stack([np.bincount(idx, weights=w * va, minlength=n) for va in v], axis=1)
        d[d == 0.0] = 1.0
        v /= d
        hess = ((1.0 + _NEWTON_RIDGE) * wsum)[:, None, None] * eye
        for a in range(m):
            for b in range(a, m):
                h = (r - 2.0) * np.bincount(idx, weights=w * v[a] * v[b], minlength=n)
                hess[:, a, b] += h
                if b != a:
                    hess[:, b, a] += h
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
                val = _cell_objective(_Indexed(xt, idx, n), trial, r)
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
    return z


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
def test_active_cell_newton_matches_full_sample_reference(m, r):
    # Steps and trials on the samples of active cells only must give the
    # full-sample kernel's centers bit for bit, from centers on samples (as
    # k-means++ leaves them) and from the centers one step has already moved.
    for seed in range(4):
        x, idx, code = _random_cells(m, seed, n=12)
        xt = np.ascontiguousarray(x.T)
        cells = _Indexed(xt, idx, code.shape[0])
        for _ in range(2):
            value = _cell_objective(cells, code, r)
            got, _ = _damped_newton(cells, code, r, value, np.ones(code.shape[0], bool))
            want = _damped_newton_reference(xt, idx, code, r, value)
            np.testing.assert_array_equal(got, want)
            assert np.all(_cell_objective(cells, got, r) <= value)
            code = got


def _log_candidates_reference(x, idx, code):
    """The per-column loop the batched r = 0 candidate kernel replaced (R^1)."""
    n = code.shape[0]
    counts = np.bincount(idx, minlength=n)
    order = np.lexsort((x[:, 0], idx))
    xs = x[order, 0]
    starts = np.searchsorted(idx[order], np.arange(n))
    ne = np.nonzero(counts)[0]
    cols = [code[:, 0]]
    for q in range(_LOG_CANDIDATES):
        pos = starts + ((counts - 1) * q) // (_LOG_CANDIDATES - 1)
        col = code[:, 0].copy()
        col[ne] = xs[pos[ne]]
        cols.append(col)
    best_val = np.full(n, np.inf)
    best = code[:, 0].copy()
    for col in cols:
        val = np.bincount(idx, weights=np.log(np.maximum(np.abs(x[:, 0] - col[idx]), EPS_LOG)),
                          minlength=n)
        better = (counts > 0) & (val < best_val)
        best_val[better] = val[better]
        best[better] = col[better]
    return best[:, None]


def test_log_recentering_is_bit_identical_to_reference_1d(cantor_samples):
    x = cantor_samples.points
    rng = np.random.default_rng(37)
    for n in (3, 16, 64):
        code = x[rng.choice(cantor_samples.count, size=n, replace=False)]
        # the line's cells held in sample order, as R^m holds its cells
        code, _, (cells, d) = _both_layouts(x, code)
        new, _ = _recenter(cells, _loss(d, 0.0), code, 0.0, np.ones(n, bool))
        np.testing.assert_array_equal(new, _log_candidates_reference(x, cells.idx, code))


def _line_fixture(name):
    if name == "cantor":
        return chaos_game(cantor(), 5000, seed=17).points
    # eighths: duplicate samples, and samples exactly on center midpoints
    return np.random.default_rng(47).integers(0, 64, size=(3000, 1)) / 8.0


def _assign_by_midpoint_search(x, code):
    """The 1-d assignment the midpoint cuts replaced: each sample searched
    among the sorted code midpoints."""
    order = np.argsort(code[:, 0], kind="stable")
    cs = code[order, 0]
    mids = 0.5 * (cs[1:] + cs[:-1])
    pos = np.searchsorted(mids, x[:, 0])
    return np.abs(x[:, 0] - cs[pos]), order[pos]


@st.composite
def _line_assignments(draw):
    eighths = st.integers(-40, 40).map(lambda i: i / 8.0)
    values = eighths | st.floats(-10.0, 10.0)
    code = draw(st.lists(values, min_size=1, max_size=12))
    cs = sorted(code)
    on_mids = [0.5 * (a + b) for a, b in zip(cs, cs[1:])]
    x = draw(st.lists(values | st.sampled_from(code + on_mids), min_size=1, max_size=60))
    return np.array(x)[:, None], np.array(code)[:, None]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_line_assignments())
@example((np.array([[-1.0], [0.0], [2.5]]), np.array([[0.5]])))
@example((np.array([[0.25], [0.5], [0.75], [1.0]]), np.array([[0.5], [0.5], [1.0]])))
@example((np.array([[0.5], [0.5], [0.0], [1.0]]), np.array([[1.0], [0.0]])))
def test_line_assignment_matches_midpoint_search(case):
    x, code = case
    d, idx = _assign(x, code)
    want_d, want_idx = _assign_by_midpoint_search(x, code)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(d, want_d)


@pytest.mark.parametrize("fixture", ["cantor", "grid"])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_line_cells_read_from_the_sorted_samples(fixture, r):
    # 1-d cells are slices of the sorted samples: reading them there must
    # give the centers that sorting the samples by cell gives, up to the
    # rounding of the slice sums at 0 < r < 1 (where majorize-minimize
    # steps weigh the samples)
    x = _line_fixture(fixture)
    rng = np.random.default_rng(37)
    for n in (3, 16, 40):
        code = x[rng.choice(x.shape[0], size=n, replace=False)]
        code[1] = code[0]  # a duplicate center leaves one cell empty
        code, (line, d), (indexed, dx) = _both_layouts(x, code)
        got, _ = _recenter(line, _loss(d, r), code, r, np.ones(n, bool))
        want, _ = _recenter(indexed, _loss(dx, r), code, r, np.ones(n, bool))
        if r in (0.0, 1.0):
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(_cell_objective(line, got, r),
                                       _cell_objective(line, want, r), rtol=1e-12)


@pytest.mark.parametrize("layout", [0, 1], ids=["line", "indexed"])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_recenter_reports_its_unsettled_cells(layout, r):
    # Every rule returns a bool mask over the cells.  Means, medians and the
    # r = 0 search read only their cells' samples and leave none unsettled;
    # majorize-minimize steps start from the incumbent, so at 0 < r < 1
    # every cell is left unsettled.
    x = _line_fixture("cantor")
    n = 16
    code = x[np.random.default_rng(37).choice(x.shape[0], size=n, replace=False)]
    code, *layouts = _both_layouts(x, code)
    cells, d = layouts[layout]
    _, unsettled = _recenter(cells, _loss(d, r), code, r, np.ones(n, bool))
    assert unsettled.dtype == bool and unsettled.shape == (n,)
    if r in (0.0, 1.0, 2.0):
        assert not unsettled.any()
    elif r == 0.5:
        assert unsettled.all()


@pytest.mark.parametrize("fixture", ["grid", "cantor", "grid2", "uniform2"])
def test_log_lloyd_changed_cells_match_full_rescan(fixture, monkeypatch):
    # At r = 0 each recentering searches only the cells whose samples or
    # center changed, and the run stops once none did; a full _lloyd must
    # equal one that searches every cell every round, also through reseeds
    # after the first round (which the grids produce).
    if fixture in ("grid", "cantor"):
        x = _line_fixture(fixture)
    elif fixture == "grid2":
        x = np.random.default_rng(47).integers(0, 16, size=(3000, 2)) / 8.0
    else:
        x = np.random.default_rng(29).uniform(size=(1500, 2))
    runs = []
    for rescan in (False, True):
        if rescan:
            _always_changed(monkeypatch)
        out = []
        for n in (6, 16, 40):
            for seed in range(3):
                init = x[np.random.default_rng(seed).choice(x.shape[0], size=n, replace=False)]
                out.append(_run(x, init, 0.0))
        runs.append(out)
    for (code, cells, dist, hist, _), (want_code, want_cells, want_dist, want_hist, _) in zip(*runs):
        np.testing.assert_array_equal(code, want_code)
        np.testing.assert_array_equal(_sample_cells(x, cells), _sample_cells(x, want_cells))
        assert dist == want_dist and hist == want_hist


def _record_reseeds(monkeypatch):
    """Patch ``_reseed_empty`` to log, per call, whether it re-seeded."""
    reseeded = []
    reseed = quantize._reseed_empty

    def recording(code, d, cells):
        out = reseed(code, d, cells)
        reseeded.append(out[1])
        return out

    monkeypatch.setattr(quantize, "_reseed_empty", recording)
    return reseeded


def test_log_lloyd_fixtures_reseed_after_the_first_round(monkeypatch):
    # the changed-cell test above must see reseeds in later rounds
    reseeded = _record_reseeds(monkeypatch)
    x = _line_fixture("grid")
    init = x[np.random.default_rng(0).choice(x.shape[0], size=40, replace=False)]
    _run(x, init, 0.0)
    assert any(reseeded[1:])


def _fresh_cells(x, code):
    """Each sample's nearest center, found without the Lloyd machinery."""
    if x.shape[1] == 1:
        return _assign_by_midpoint_search(x, code)[1]
    return cKDTree(code).query(x, k=1)[1]


def _always_changed(monkeypatch):
    """Make every recentering search every cell, and so every run take its
    confirming round, in both layouts."""
    for layout in (_Slices, _Indexed):
        monkeypatch.setattr(layout, "changed", lambda self, key: np.ones(self.counts.size, bool))


@pytest.mark.parametrize("w,r,least", [(cantor(), 0.0, 4), (_DUST, 0.0, 1), (cantor(), 1.0, 4),
                                       (cantor(), 2.0, 3), (_DUST, 2.0, 4)],
                         ids=["line", "plane", "line-r1", "line-r2", "plane-r2"])
def test_log_lloyd_stops_once_no_cell_changed(w, r, least, monkeypatch):
    # A recentering that left every cell's samples and center as they were
    # is the last: the next round would measure the same codebook again.
    # The run ends with its distortion twice in the history, as that round
    # would leave it, and one recentering fewer.  Means and line medians
    # read only their cells' samples, so they stop by the same rule; at
    # least ``least`` of the four runs stop so.
    samples = chaos_game(w, 30_000 if w.dim == 1 else 15_000, seed=1 if w.dim == 1 else 12345)
    searches = []
    recenter = quantize._recenter
    monkeypatch.setattr(quantize, "_recenter", lambda *a: searches.append(1) or recenter(*a))
    runs, stopped = [], 0
    for rescan in (False, True):
        if rescan:
            _always_changed(monkeypatch)
        out = []
        for n in (16, 32, 64, 128):
            searches.clear()
            code, cells, dist, hist, _ = _run(samples.points, antichain_codebooks(w, [n], r)[n], r)
            out.append((code, _sample_cells(samples.points, cells), dist, hist, len(searches)))
        runs.append(out)
    for got, want in zip(*runs):
        for a, b in zip(got[:2], want[:2]):  # codebooks and cells
            np.testing.assert_array_equal(a, b)
        assert got[2:4] == want[2:4]  # distortion and history
        k, hist = got[4], got[3]
        assert k in (want[4], want[4] - 1)
        if k < want[4]:
            stopped += 1
            assert hist[-1] == hist[-2]
    assert stopped >= least


def _newton_runs(x, starts, r, monkeypatch):
    """``_lloyd`` from each start with the settled-cell skip and with every
    cell recentred every round, and each run's ``_recenter`` call count."""
    calls = []
    recenter = quantize._recenter
    monkeypatch.setattr(quantize, "_recenter", lambda *a: calls.append(1) or recenter(*a))
    runs = []
    for rescan in (False, True):
        if rescan:
            _always_changed(monkeypatch)
        out = []
        for init in starts:
            calls.clear()
            code, cells, dist, hist, _ = _run(x, init, r)
            out.append((code, _sample_cells(x, cells), dist, hist, len(calls)))
        runs.append(out)
    return runs


@pytest.mark.parametrize("r", [1.0, 3.0])
def test_newton_lloyd_skips_settled_cells(r, monkeypatch):
    # Newton steps from where the last ones stopped, on the same samples,
    # stop again: skipping those cells changes no codebook, cell,
    # distortion or history.  On the dust every rung's first recentering
    # leaves every cell's samples as they were, so the second is not called.
    samples = chaos_game(_DUST, 15_000, seed=12345)
    starts = [antichain_codebooks(_DUST, [n], r)[n] for n in (16, 32, 64, 128)]
    skip, full = _newton_runs(samples.points, starts, r, monkeypatch)
    for got, want in zip(skip, full):
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(a, b)
        assert got[2:4] == want[2:4]
        assert got[4] == 1 and want[4] == 2 and got[3][-1] == got[3][-2]


@pytest.mark.parametrize("m,r", [(1, 1.5), (1, 3.0), (2, 1.0), (2, 3.0)])
def test_newton_lloyd_recentres_cells_cut_at_the_step_cap(m, r, monkeypatch):
    # With one Newton step per round nearly every moving cell hits the cap:
    # those cells must be searched again even where nothing else changed.
    monkeypatch.setattr(quantize, "_NEWTON_STEPS", 1)
    x = np.random.default_rng(31 + m).uniform(size=(2000, m))
    starts = [x[np.random.default_rng(seed).choice(x.shape[0], size=n, replace=False)]
              for n, seed in ((5, 0), (12, 1), (30, 2))]
    skip, full = _newton_runs(x, starts, r, monkeypatch)
    for got, want in zip(skip, full):
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(a, b)
        assert got[2:4] == want[2:4]
        assert got[4] <= want[4]


def _sorted_slices(x, cells):
    """Each cell's samples, cut from ``np.sort`` of the samples."""
    xs = np.sort(x[:, 0])
    return [xs[lo:hi] for lo, hi in zip(cells.cuts[:-1], cells.cuts[1:])]


def _log_objective(z, s):
    return math.fsum(np.log(np.maximum(np.abs(z - s), EPS_LOG)).tolist())


@pytest.mark.parametrize("fixture", ["cantor", "grid", "zeros"])
def test_line_recentering_matches_sorted_slice_references(fixture):
    # Per cell, against the sorted samples sliced at the cuts: medians bit
    # for bit, means within 1e-14 of the correctly rounded mean (slice sums
    # round as reduceat does, not as np.sum), and each r = 0 choice one of
    # its 33 candidates or the incumbent, of least objective among them
    # within 1e-12.
    x = _line_fixture("cantor" if fixture == "zeros" else fixture)
    if fixture == "zeros":  # duplicates of 0.0 and -0.0, and centers on them
        x = np.concatenate([x, np.zeros((40, 1)), np.full((40, 1), -0.0)])
    rng = np.random.default_rng(41)
    for n in (3, 16, 40):
        code = x[rng.choice(x.shape[0], size=n, replace=False)]
        if fixture == "zeros":
            code[0] = -0.0
        code, d, cells = _assigner(x)(code)
        slices = _sorted_slices(x, cells)
        every = np.ones(n, bool)
        med, _ = _recenter(cells, _loss(d.copy(), 1.0), code, 1.0, every)
        mean, _ = _recenter(cells, _loss(d.copy(), 2.0), code, 2.0, every)
        log, _ = _recenter(cells, _loss(d.copy(), 0.0), code, 0.0, every)
        for c, s in enumerate(slices):
            if not s.size:
                assert med[c] == mean[c] == log[c] == code[c]
                continue
            assert med[c, 0].tobytes() == np.median(s).tobytes()
            want = math.fsum(s.tolist()) / s.size
            assert abs(mean[c, 0] - want) <= 1e-14 * abs(want)
            cands = [s[(s.size - 1) * q // (_LOG_CANDIDATES - 1)] for q in range(_LOG_CANDIDATES)]
            cands.append(code[c, 0])
            assert log[c, 0] in cands
            best = min(_log_objective(z, s) for z in cands)
            assert _log_objective(log[c, 0], s) <= best + 1e-12 * abs(best)


def _layout_fixture(name):
    """1-d samples for the layout comparison, and Lloyd starts on them."""
    rng = np.random.default_rng(53)
    x = chaos_game(cantor(), 4000, seed=59).points
    if name == "dups":  # repeated samples, 0.0 and -0.0 among them
        x = np.concatenate([np.repeat(x[:1500], rng.integers(1, 4, size=1500), axis=0),
                            np.zeros((20, 1)), np.full((20, 1), -0.0)])
    x = x[rng.permutation(x.shape[0])]
    inits = []
    for n in (6, 10, 16):
        init = x[rng.choice(x.shape[0], size=n, replace=False)].copy()  # centers on samples
        init[1] = x.max() + 1.0  # a center past the samples: its cell is empty, then reseeded
        inits.append(init)
    return x, inits


@pytest.mark.parametrize("cap", [2, quantize.MAX_ROUNDS])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("fixture", ["cantor", "dups"])
def test_line_and_generic_layouts_agree_on_one_dimensional_samples(fixture, r, cap, monkeypatch):
    # Lloyd on sorted slices and Lloyd on indexed cells with KD-tree
    # assignment, on the same 1-d samples from the same starts.  Their sums
    # round differently: r = 0 and r = 1 pick samples and agree exactly,
    # r = 2 centers agree to 1e-12, and at r = 3 and r = 0.5 the distortions
    # agree to 1e-12 while centers sit within a few step tolerances of each
    # other on the flat of the cell objective.
    monkeypatch.setattr(quantize, "MAX_ROUNDS", cap)
    x, inits = _layout_fixture(fixture)
    tol = 10 * _STEP_TOL * max(1.0, float(np.max(np.abs(x))))
    for init in inits:
        line = _lloyd(_Line(np.sort(x[:, 0])), init, r)
        generic = _lloyd(_BoundedAssign(x, np.ascontiguousarray(x.T)), init, r)
        (code, cells, dist, hist, _), (gcode, gcells, gdist, ghist, _) = line, generic
        gcode = np.sort(gcode, axis=0)
        assert len(hist) == len(ghist) <= cap
        np.testing.assert_array_equal(_sample_cells(x, cells), _fresh_cells(x, code))
        if r in (0.0, 1.0):
            np.testing.assert_array_equal(code, gcode)
        elif r == 2.0:
            np.testing.assert_allclose(code, gcode, rtol=1e-12, atol=0)
        else:
            np.testing.assert_allclose(code, gcode, rtol=0, atol=tol)
        assert abs(dist - gdist) <= 1e-12 * abs(gdist)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_line_lloyd_with_more_centers_than_distinct_samples(r):
    # Ten centers on seven distinct sample values: a center that repeats
    # another keeps an empty slice through every reseed, and each
    # recentering must leave such slices out of its sums (reduceat would
    # read the next slice's first sample there).  Every value keeps a
    # center on it, so the error is 0, or the log floor at r = 0.
    values = 2.0 ** np.arange(7) - 1.0
    x = np.repeat(values, 50)[np.random.default_rng(61).permutation(350), None]
    init = np.concatenate([values, values[[0, 3, 6]]])[:, None]
    code, cells, dist, hist, _ = _run(x, init, r)
    assert not cells.counts.all()
    np.testing.assert_array_equal(np.unique(code), values)
    np.testing.assert_array_equal(_sample_cells(x, cells), _fresh_cells(x, code))
    assert dist == (0.0 if r > 0.0 else pytest.approx(math.log(EPS_LOG), rel=1e-15))
    assert len(hist) <= 3


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2])
def test_lloyd_returns_the_assignment_of_its_codebook(m, r):
    x = _line_fixture("cantor") if m == 1 else np.random.default_rng(29).uniform(size=(1500, 2))
    init = x[np.random.default_rng(23).choice(x.shape[0], size=6, replace=False)]
    code, cells, _, _, _ = _run(x, init, r)
    np.testing.assert_array_equal(_sample_cells(x, cells), _fresh_cells(x, code))


@pytest.mark.parametrize("r", [0.0, 2.0])
@pytest.mark.parametrize("m", [1, 2])
def test_lloyd_assignment_holds_through_reseeds_and_the_round_cap(m, r, monkeypatch):
    # A duplicate center leaves a cell empty, so the first round re-seeds and
    # assigns again; a cap of one round ends the run right there.  The grids
    # put samples on code midpoints and on equidistant corners.
    reseeded = _record_reseeds(monkeypatch)
    x = _line_fixture("grid") if m == 1 else \
        np.random.default_rng(47).integers(0, 16, size=(3000, 2)) / 8.0
    init = x[np.random.default_rng(0).choice(x.shape[0], size=40, replace=False)]
    init[1] = init[0]
    for cap in (1, 2, 3):
        monkeypatch.setattr(quantize, "MAX_ROUNDS", cap)
        reseeded.clear()
        code, cells, _, history, _ = _run(x, init, r)
        assert len(history) == cap and reseeded[0]
        np.testing.assert_array_equal(_sample_cells(x, cells), _fresh_cells(x, code))


@st.composite
def _codebook_sequences(draw):
    """Samples in R^2 or R^3 and a codebook that drifts, jumps onto a sample
    (as a reseed does), duplicates a center, or stays put."""
    m = draw(st.sampled_from([2, 3]))
    coord = st.integers(-16, 16).map(lambda i: i / 8.0) | st.floats(-2.0, 2.0)
    point = st.lists(coord, min_size=m, max_size=m)
    x = draw(st.lists(point, min_size=1, max_size=40))
    n = draw(st.integers(1, 6))
    code = np.array(draw(st.lists(point | st.sampled_from(x), min_size=n, max_size=n)))
    # samples equidistant from two centers
    x += [(0.5 * (code[i] + code[j])).tolist()
          for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                    max_size=4))]
    x = np.array(x)
    codes = [code]
    for _ in range(draw(st.integers(1, 6))):
        code = code.copy()
        j = draw(st.integers(0, n - 1))
        move = draw(st.sampled_from(["drift", "reseed", "duplicate", "stay"]))
        if move == "drift":
            size = draw(st.sampled_from([1e-13, 1e-6, 1e-2, 0.5]))
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            noise = np.array(draw(st.lists(point, min_size=n, max_size=n)))
            code += size * mask[:, None] * noise
        elif move == "reseed":
            code[j] = x[draw(st.integers(0, x.shape[0] - 1))]
        elif move == "duplicate":
            code[j] = code[draw(st.integers(0, n - 1))]
        codes.append(code)
    return x, codes


def _still_codebook(m):
    """Float samples in R^m and one codebook twice: the second round keeps
    nearly every sample, so its own distance must be the tree's."""
    x = np.random.default_rng(m).uniform(-2.0, 2.0, size=(30, m))
    return x, [x[:3].copy(), x[:3].copy()]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_codebook_sequences())
@example(_still_codebook(9))
# the midpoint of centers 0 and 1 while center 0 moves by a few ulps: the
# bound arithmetic rounds the sample's lower bound up to its own distance
@example((np.array([[1.166965115141623, 1.3091087066586093]]),
          [np.array([[0.6115573595124899, 0.6571479772153519], [1.722372870770756, 1.9610694361018668],
                     [-1.7447515009489143, -0.8987879231198996]]),
           np.array([[0.6115573595124887, 0.6571479772153529], [1.722372870770756, 1.9610694361018668],
                     [-1.7447515009489143, -0.8987879231198996]])]))
def test_bounded_assignment_matches_full_query(case):
    # The first call starts from a guess, certified by the same half-gap
    # bound as every later call, or from a query of every sample without
    # one: the guess may be right, random, all zero or the farthest center,
    # and no call may depend on it.
    x, codes = case
    want = [cKDTree(code).query(x, k=1) for code in codes]
    n = codes[0].shape[0]
    span = np.linalg.norm(x[:, None] - codes[0][None], axis=2)
    guesses = [want[0][1], np.random.default_rng(x.shape[0]).integers(0, n, x.shape[0]),
               np.zeros(x.shape[0], dtype=np.intp), np.argmax(span, axis=1)]
    for guess in [None, *(g.astype(np.intp) for g in guesses)]:
        assign = _BoundedAssign(x, np.ascontiguousarray(x.T), guess=guess)
        for code, (want_d, want_idx) in zip(codes, want):
            _, d, cells = assign(code)
            np.testing.assert_array_equal(cells.idx, want_idx)
            np.testing.assert_array_equal(d, want_d)


def test_bounded_assignment_without_a_guess_queries_every_sample_once(monkeypatch):
    # A bare sample set has no cylinder to guess from: the first call sends
    # every sample to one _query_two, whose answer is the full k=1 query's,
    # ties (a duplicated center) included.
    queried = []
    query_two = quantize._query_two
    monkeypatch.setattr(quantize, "_query_two",
                        lambda tree, x, slack: queried.append(len(x)) or query_two(tree, x, slack))
    x = chaos_game(_DUST, 15_000, seed=3).points
    for n in (16, 64):
        code = x[np.random.default_rng(n).choice(x.shape[0], size=n, replace=False)]
        code[1] = code[0]
        queried.clear()
        _, d, cells = _BoundedAssign(x, np.ascontiguousarray(x.T))(code)
        assert queried == [x.shape[0]]
        want_d, want_idx = cKDTree(code).query(x, k=1)
        np.testing.assert_array_equal(cells.idx, want_idx)
        np.testing.assert_array_equal(d, want_d)


def test_cell_runs_are_the_lexsort_order():
    # One stable first-coordinate order per sample set, then a stable sort
    # by cell: the permutation np.lexsort((x0, idx)) gives, ties (and +-0.0)
    # in sample order, on one- and two-byte cells and on restricted cells.
    rng = np.random.default_rng(61)
    x = rng.integers(-3, 4, size=(3000, 2)).astype(float)
    x[::7, 0], x[::5, 0] = -0.0, 0.0
    samples = SampleSet(points=x)
    xt = np.ascontiguousarray(x.T)
    for n in (1, 5, 300):
        idx = rng.integers(0, n, size=x.shape[0])
        for first in (None, lambda: samples.first_order):
            cells = _Indexed(xt, idx, n, first=first)
            np.testing.assert_array_equal(cells._runs, np.lexsort((x[:, 0], idx)))
        mask = rng.random(n) < 0.3
        mask[0] = True
        part = cells.restrict(mask)
        np.testing.assert_array_equal(part._runs, np.lexsort((part.xt[0], part.idx)))
        for c in np.flatnonzero(mask):
            ranks = np.arange(cells.counts[c])
            np.testing.assert_array_equal(part.ranked(part.run_starts[c] + ranks),
                                          cells.ranked(cells.run_starts[c] + ranks))


@pytest.mark.parametrize("m", range(1, 12))
def test_norm_is_the_kd_tree_distance_and_keeps_its_input(m):
    # the bounded assignment compares it with the tree's distances, in the
    # tree's summation order (four running sums from m = 8 on)
    rng = np.random.default_rng(m)
    x, code = rng.normal(size=(200, m)), rng.normal(size=(5, m))
    d, idx = cKDTree(code).query(x, k=1)
    v = code[idx].T - x.T
    before = v.copy()
    assert quantize._norm(v).tobytes() == d.tobytes()
    assert v.tobytes() == before.tobytes()


def test_lloyd_two_clusters_exact():
    # two tight clusters, two centers: optimum is the cluster means (r = 2)
    pts = np.concatenate([np.full(50, 0.0), np.full(50, 1.0)])[:, None]
    s = SampleSet(points=pts)
    book = optimize_codebook(s, 2, 2.0)
    np.testing.assert_allclose(np.sort(book.points.ravel()), [0.0, 1.0], atol=1e-12)
    assert book.distortion == pytest.approx(0.0, abs=1e-24)


def test_uniform_quantizer_matches_theory():
    # n-point optimal r = 2 quantizer of U[0,1] has distortion 1/(12 n^2)
    s = chaos_game(uniform_halves(), 40_000, seed=31)
    book = optimize_codebook(s, 8, 2.0)
    assert book.distortion == pytest.approx(1.0 / (12 * 64), rel=0.05)
    mids = np.sort(book.points.ravel())
    np.testing.assert_allclose(mids, (2 * np.arange(8) + 1) / 16.0, atol=0.01)


def test_codebook_is_deterministic_and_sorted(cantor_samples):
    a = optimize_codebook(cantor_samples, 5, 1.0)
    b = optimize_codebook(cantor_samples, 5, 1.0)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.distortion == b.distortion
    assert np.all(np.diff(a.points[:, 0]) >= 0.0)


def test_codebook_covers_all_points_when_n_large(cantor_samples):
    small = SampleSet(points=np.array([[0.0], [0.5], [0.5], [1.0]]))
    book = optimize_codebook(small, 10, 2.0)
    assert book.size == 3  # distinct points only
    assert book.distortion == 0.0
    log_book = optimize_codebook(small, 10, 0.0)
    assert log_book.distortion == -math.inf


def test_optimize_codebook_validates(cantor_samples):
    with pytest.raises(ValueError):
        optimize_codebook(cantor_samples, 0, 2.0)
    with pytest.raises(ValueError):
        optimize_codebook(cantor_samples, 4, -1.0)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError):
            optimize_codebook(cantor_samples, 4, r)
        with pytest.raises(ValueError):
            fit_dimension_from_samples(cantor_samples, r, [4, 8])


def test_assignment_handles_duplicate_centers():
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    code = np.array([[0.25], [0.25], [0.75]])
    d, idx = _assign(pts, code)
    assert set(idx.tolist()) <= {0, 1, 2}
    np.testing.assert_allclose(d, np.min(np.abs(pts - code.ravel()), axis=1))


# ---------------------------------------------------------------------------
# error estimation
# ---------------------------------------------------------------------------


def test_estimate_vnr_matches_codebook_distortion(cantor_samples):
    for samples in (cantor_samples, chaos_game(_dust(), 5000, seed=17)):
        book = optimize_codebook(samples, 6, 2.0)
        assert estimate_vnr(samples, book, 2.0) == book.distortion


def test_estimate_vnr_log_floor():
    # samples {0, 1} with the single code point {0}: distances (0, 1) floor
    # to (1e-12, 1), so the geometric mean is exactly 1e-6
    s = SampleSet(points=np.array([[0.0], [1.0]]))
    val = estimate_vnr(s, np.array([[0.0]]), 0.0)
    assert val == pytest.approx(1e-6, rel=1e-9)
    assert estimate_vnr(s, np.array([[0.0]]), 2.0) == 0.5


# ---------------------------------------------------------------------------
# dimension fits
# ---------------------------------------------------------------------------


def test_fit_recovers_uniform_dimension():
    fit = fit_dimension(uniform_halves(), 2.0, [8, 16, 32, 64], 20_000, seed=41)
    assert fit.estimate == pytest.approx(1.0, abs=0.1)
    assert fit.slope == pytest.approx(2.0, abs=0.2)
    assert fit.ci_halfwidth < 0.2
    assert [n for n, _ in fit.pairs] == [8, 16, 32, 64]


def test_fit_r0_pairs_hold_log_errors():
    samples = chaos_game(uniform_halves(), 20_000, seed=43)
    fit = fit_dimension_from_samples(samples, 0.0, [8, 16, 32])
    assert fit.r == 0.0
    assert all(v < 0.0 for _, v in fit.pairs)  # log of sub-unit errors
    assert fit.estimate == pytest.approx(1.0, abs=0.15)


def test_fit_is_deterministic():
    samples = chaos_game(cantor(), 10_000, seed=51)
    a = fit_dimension_from_samples(samples, 2.0, [8, 16, 32])
    b = fit_dimension_from_samples(samples, 2.0, [8, 16, 32])
    assert a.estimate == b.estimate and a.pairs == b.pairs


def test_fit_validates_ladder(cantor_samples):
    with pytest.raises(DegenerateFit):
        fit_dimension_from_samples(cantor_samples, 2.0, [8])
    with pytest.raises(ValueError):
        fit_dimension_from_samples(cantor_samples, 2.0, [16, 8])
    with pytest.raises(ValueError):
        # 5000 samples cannot support a 500-point codebook estimate
        fit_dimension_from_samples(cantor_samples, 2.0, [8, 500])


def test_fit_degenerates_on_constant_samples():
    # No cell of equal samples splits: the tree's one leaf repeats, and
    # every rung's error is 0 (r = 2) or the log floor (r = 0).
    for m in (1, 2):
        s = SampleSet(points=np.zeros((500, m)))
        with pytest.raises(DegenerateFit):
            fit_dimension_from_samples(s, 2.0, [1, 2])
        with pytest.raises(DegenerateFit):
            fit_dimension_from_samples(s, 0.0, [2, 4])


def test_fit_sorts_each_sample_set_once(monkeypatch):
    sorts = []
    real = quantize._line_values
    monkeypatch.setattr(quantize, "_line_values", lambda x: sorts.append(1) or real(x))
    samples = chaos_game(cantor(), 10_000, seed=51)
    fit_dimension_from_samples(samples, 2.0, [8, 16, 32, 64, 96])
    fit_dimension_from_samples(samples, 0.0, [8, 16, 32])
    assert estimate_vnr(samples, np.array([[0.25], [0.75]]), 2.0) > 0.0
    assert len(sorts) == 1
    np.testing.assert_array_equal(samples.line_values, np.sort(samples.points[:, 0]))
    fit_dimension(cantor(), 1.0, [8, 16, 32], 5000, seed=3)
    assert len(sorts) == 2
    assert chaos_game(quarter_maps(), 10, seed=1).line_values is not None
    assert SampleSet(np.zeros((3, 2))).line_values is None


# ---------------------------------------------------------------------------
# antichain codebooks
# ---------------------------------------------------------------------------


def _dust():
    """Four corner maps of ratio 1/3, the third turned by 90 degrees."""
    eye, rot90 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    maps = tuple(Similitude(1 / 3, iso, np.array(t)) for iso, t in
                 [(eye, [0.0, 0.0]), (eye, [2 / 3, 0.0]), (rot90, [1 / 3, 2 / 3]), (eye, [2 / 3, 2 / 3])])
    return WIFS(maps=maps, probs=(0.4, 0.3, 0.2, 0.1))


def _antichain_words(w, n, r):
    """Split the top word of a sorted list, one word at a time; returns the
    leaves' 0-based words in word order."""
    q = [float(p) * f.scale ** r for p, f in zip(w.probs, w.maps)]
    leaves = [(1.0, ())]
    while len(leaves) < n:
        leaves.sort(key=lambda leaf: (-leaf[0], leaf[1]))
        prio, word = leaves.pop(0)
        kids = sorted(range(w.n_maps), key=lambda i: (-q[i], i))[:n - len(leaves)]
        leaves += [(prio * q[i], word + (i,)) for i in kids]
    return sorted(word for _, word in leaves)


def _antichain_reference(w, n, r):
    """Map the mean (found by iterating a -> sum_i p_i f_i(a)) through the
    per-word fold of each word of :func:`_antichain_words`."""
    mean = np.zeros(w.dim)
    for _ in range(200):
        mean = sum(p * per_word.apply(f.scale, f.isometry, f.translation, mean)
                   for p, f in zip(w.probs, w.maps))
    return np.array([per_word.apply(*per_word.fold_word(w, [i + 1 for i in word]), mean)
                     for word in _antichain_words(w, n, r)])


def _exact_distinct(w, n, r):
    """How many distinct points the words of :func:`_antichain_words` send
    the mean to, in exact rational arithmetic, for a 1-d system whose
    parameters are read as the decimals they print as (0.2 as 1/5)."""
    def exact(x):
        return Fraction(repr(float(x)))

    probs = [exact(p) for p in w.probs]
    maps = [(exact(f.scale) * exact(f.isometry[0, 0]), exact(f.translation[0])) for f in w.maps]
    mean = (sum(p * t for p, (_, t) in zip(probs, maps))
            / (1 - sum(p * a for p, (a, _) in zip(probs, maps))))
    points = set()
    for word in _antichain_words(w, n, r):
        x = mean
        for i in reversed(word):
            x = maps[i][0] * x + maps[i][1]
        points.add(x)
    return len(points)


@pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 3.0])
def test_cantor_antichain_codebook_is_the_cylinder_midpoints(r):
    codes = antichain_codebooks(cantor(), [2 ** k for k in range(9)], r)
    for k in range(9):
        left = np.zeros(1)
        for j in range(1, k + 1):  # level-j left endpoints, digits 0 and 2
            left = np.concatenate([left, left + 2.0 * 3.0 ** -j])
        mids = np.sort(left) + 0.5 * 3.0 ** -k
        code = codes[2 ** k]
        assert code.shape == (2 ** k, 1)
        np.testing.assert_allclose(code[:, 0], mids, rtol=0, atol=1e-15)


@pytest.mark.parametrize("w,sizes", [
    (random_ssc_wifs(np.random.default_rng(5), n_min=3, n_max=3), (1, 2, 4, 6, 10, 24)),
    (quarter_maps(0.2), (2, 4, 8, 16, 30)),
    (_dust(), (2, 16, 32, 64, 100, 128)),
])
@pytest.mark.parametrize("r", [0.0, 2.0, 3.0])
def test_antichain_codebook_has_exactly_n_points(w, sizes, r):
    # 3 and 4 maps: each full split adds 2 or 3 words, so most sizes need a
    # partial split of the last word; on the dust 32 and 128 both do.
    codes = antichain_codebooks(w, sizes, r)
    for n in sizes:
        code = codes[n]
        assert code.shape == (n, w.dim)
        # Distinct words can compose to one map where the images overlap, so
        # on a line the count is the exact one; the dust is separated.
        assert len(np.unique(code, axis=0)) == (n if w.dim > 1 else _exact_distinct(w, n, r))
        np.testing.assert_allclose(code, _antichain_reference(w, n, r), rtol=0, atol=1e-14)


def test_overlapping_words_give_one_antichain_point():
    # On quarter_maps(0.2) the words 132 and 211 both compose to x/64 + 1/5,
    # so the antichains of 16 and 30 words hold 15 and 29 points.
    w = quarter_maps(0.2)
    assert [_exact_distinct(w, n, 2.0) for n in (2, 4, 8, 16, 30)] == [2, 4, 8, 15, 29]
    scale, lin, tr = compose_words(w, [[1, 3, 2], [2, 1, 1]])
    assert scale.tolist() == [1 / 64] * 2 and tr.tolist() == [[0.2], [0.2]]
    # on a separated system every word gives its own point
    assert all(_exact_distinct(random_ssc_wifs(np.random.default_rng(5), n_min=3, n_max=3), n, r) == n
               for n in (1, 2, 4, 6, 10, 24) for r in (0.0, 2.0))


_WALKED = [cantor(), _dust(), quarter_maps(0.2)] + [
    random_ssc_wifs(np.random.default_rng(seed)) for seed in range(8)]


@pytest.mark.parametrize("w", _WALKED, ids=lambda w: f"{w.n_maps}maps{w.dim}d")
def test_antichain_ladder_walk_equals_the_per_size_walk(w):
    # One walk in increasing n serves every size of a ladder: its antichains
    # are the per-size walk's words, and its codebooks those of one-size
    # calls bit for bit.  With 3 or 4 maps, runs like 16, 17, 18, 19 split
    # one word partially at one size and further at the next.
    sizes = [1, 2, 3, 5, 16, 17, 18, 19, 40, 64, 65, 100, 129, 256]
    for r in (0.0, 0.5, 1.0, 2.0, 3.0):
        gammas = antichain_words(w, sizes, r)
        codes = antichain_codebooks(w, sizes, r)
        assert list(gammas) == list(codes) == sizes
        for n in sizes:
            assert gammas[n] == [tuple(i + 1 for i in word) for word in _antichain_words(w, n, r)]
            np.testing.assert_array_equal(codes[n], antichain_codebooks(w, [n], r)[n])


def _random_plane_wifs(rng):
    """2 to 6 turned maps of ratio 0.15 to 0.45 in the unit square."""
    maps = []
    for _ in range(int(rng.integers(2, 7))):
        a = rng.uniform(0.0, 2 * np.pi)
        iso = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        maps.append(Similitude(rng.uniform(0.15, 0.45), iso, rng.uniform(0.0, 1.0, 2)))
    probs = rng.uniform(0.1, 1.0, len(maps))
    return WIFS(maps=tuple(maps), probs=probs / probs.sum())


@pytest.mark.parametrize("burn_in", [0, 1, 100])
def test_antichain_index_follows_each_sample_address(burn_in):
    # Sample k of the orbit lies in the cylinder of (i_t, i_{t-1}, ...),
    # t = burn_in + k.  Wherever a word of Gamma_n starts that address
    # within its first burn_in + 1 symbols, the helper names that word;
    # elsewhere (an omitted child of a partial split, an address cut
    # short) it may name any word.
    rng = np.random.default_rng(burn_in)
    hits = total = 0
    for trial in range(6):
        w = _random_plane_wifs(rng)
        samples = chaos_game(w, 300, seed=trial, burn_in=burn_in)
        picks = samples.picks
        assert picks.dtype == np.uint8 and picks.size == burn_in + 300 and not picks.flags.writeable
        for r, gammas in ((0.0, antichain_words(w, [16, 17, 18, 19, 128], 0.0)),
                          (2.0, antichain_words(w, [16, 17, 18, 19, 128], 2.0))):
            for n, words in gammas.items():
                got = ifs.antichain_index(words, picks, samples.count)
                assert got.shape == (300,) and got.min() >= 0 and got.max() < n
                where = {word: i for i, word in enumerate(words)}
                for k in range(samples.count):
                    address = tuple(int(picks[burn_in + k - j]) + 1 for j in range(burn_in + 1))
                    want = next((where[address[:d]] for d in range(1, len(address) + 1)
                                 if address[:d] in where), None)
                    total += 1
                    if want is not None:
                        hits += 1
                        assert got[k] == want
    assert hits > (0.9 if burn_in == 100 else 0.0) * total
    assert SampleSet(points=np.zeros((3, 2))).picks is None


def test_cylinder_guess_spares_most_first_queries(monkeypatch):
    # On the dust's antichain starts each rung's first assignment certifies
    # nearly every sample's own cylinder center by the half-gap bound, so
    # the KD-tree answers for under 5% of them.
    queried, first = [], []
    query, call = quantize._query_two, _BoundedAssign.__call__

    def count_query(tree, x, slack):
        queried.append(len(x))
        return query(tree, x, slack)

    def count_first(self, code):
        fresh, before = self.code is None, sum(queried)
        out = call(self, code)
        if fresh:
            first.append(sum(queried) - before)
        return out

    monkeypatch.setattr(quantize, "_query_two", count_query)
    monkeypatch.setattr(_BoundedAssign, "__call__", count_first)
    for r in (0.0, 2.0):
        first.clear()
        fit_dimension(_dust(), r, [16, 32, 64, 128], 15_000, seed=2101)
        assert len(first) == 4 and max(first) < 0.05 * 15_000, first


def test_antichain_codebook_of_one_map_cannot_split():
    single = WIFS(maps=(similitude_1d(1 / 3, 0.0),), probs=(1.0,))
    np.testing.assert_allclose(antichain_codebooks(single, [1], 2.0)[1], [[0.0]])
    for sizes in ([2], [1, 2], [1, 4]):
        with pytest.raises(DegenerateFit):
            antichain_codebooks(single, sizes, 2.0)
    with pytest.raises(DegenerateFit):
        fit_dimension(single, 2.0, [2, 4], 500, seed=3)


def test_start_codebook_runs_lloyd_once(cantor_samples):
    start = antichain_codebooks(cantor(), [8], 2.0)[8]
    book = optimize_codebook(cantor_samples, 8, 2.0, start=start)
    code, _, dist, _, _ = _run(cantor_samples.points, start, 2.0)
    assert book.distortion == dist
    np.testing.assert_array_equal(book.points, np.sort(code, axis=0))
    with pytest.raises(ValueError):
        optimize_codebook(cantor_samples, 8, 2.0, start=start[:7])


@pytest.mark.parametrize("w", [cantor(), _dust()], ids=["line", "plane"])
def test_lloyd_cut_at_the_round_cap_ends_on_a_codebook_it_measured(w, monkeypatch):
    # A run that MAX_ROUNDS cuts short reports the last codebook it measured
    # at that codebook's own distortion, and each round more lowers it.
    samples = chaos_game(w, 20_000, seed=1)
    seen = []
    for cap in (1, 2, 3):
        monkeypatch.setattr(quantize, "MAX_ROUNDS", cap)
        book = optimize_codebook(samples, 8, 2.0, start=samples.points[:8])
        assert book.distortion == estimate_vnr(samples, book, 2.0)
        seen.append(book.distortion)
    assert seen[0] > seen[1] > seen[2]


@pytest.mark.parametrize("r", [0.0, 2.0])
def test_codebook_records_its_rounds_and_the_round_cap(r, monkeypatch):
    # The r = 0 stop once no cell changed adds a round to the history but
    # is no cap, even where that round is the MAX_ROUNDS-th.
    samples = chaos_game(cantor(), 30_000, seed=1)
    start = antichain_codebooks(cantor(), [24], r)[24]
    _, _, _, hist, capped = _run(samples.points, start, r)
    book = optimize_codebook(samples, 24, r, start=start)
    assert (book.rounds, book.capped, capped) == (len(hist), False, False)
    if r == 0.0:
        assert hist[-1] == hist[-2]
        monkeypatch.setattr(quantize, "MAX_ROUNDS", len(hist))
        assert _run(samples.points, start, r)[3:] == (hist, False)
    monkeypatch.setattr(quantize, "MAX_ROUNDS", 2)
    book = optimize_codebook(samples, 24, r, start=start)
    assert (book.rounds, book.capped) == (2, True)
    fit = fit_dimension(cantor(), r, [6, 24], 30_000, seed=1)
    assert (fit.rounds, fit.capped) == ((2, 2), (True, True))


@pytest.mark.parametrize("r, n_list", [(2.0, [8, 5000]), (2.0, [16, 8]), (2.0, [8]),
                                       (math.nan, [8, 16])])
def test_fit_checks_the_ladder_before_sampling(monkeypatch, r, n_list):
    def sample(*args, **kwargs):
        raise AssertionError("chaos_game ran before the ladder was checked")

    monkeypatch.setattr(quantize, "chaos_game", sample)
    with pytest.raises(ValueError):
        fit_dimension(cantor(), r, n_list, 400_000, seed=1)


def test_cantor_fit_rungs_reach_the_graf_luschgy_optimum():
    # From the antichain codebook every rung n = 2^k of the Cantor r = 2 fit
    # ends within 10% of the optimal V = (1/8) 9^-k (Graf & Luschgy 1997).
    # The best of five k-means++ runs ends 1.46-1.90 times above it at
    # n = 32, 64 and 128 on these samples.
    fit = fit_dimension(cantor(), 2.0, [8, 16, 32, 64, 128], 20_000, seed=61)
    for n, v in fit.pairs:
        ratio = v / (0.125 * 9.0 ** -math.log2(n))
        assert 1 / 1.1 <= ratio <= 1.1, (n, ratio)


# ---------------------------------------------------------------------------
# split trees
# ---------------------------------------------------------------------------


def test_cantor_split_tree_rungs_reach_the_graf_luschgy_optimum():
    # The bare-sample fit, seeded by the split tree, reaches what the
    # antichain seed reaches above: every Cantor r = 2 rung n = 2^k within
    # 10% of (1/8) 9^-k.  The best of five k-means++ runs ends 1.46-1.90
    # times above it at n = 32, 64 and 128 on these samples.
    samples = chaos_game(cantor(), 20_000, seed=61)
    fit = fit_dimension_from_samples(samples, 2.0, [8, 16, 32, 64, 128])
    for n, v in fit.pairs:
        ratio = v / (0.125 * 9.0 ** -math.log2(n))
        assert 1 / 1.1 <= ratio <= 1.1, (n, ratio)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("w", [cantor(), _dust()], ids=["line", "plane"])
def test_codebook_without_start_is_one_lloyd_run_from_the_split_tree(w, r):
    s = chaos_game(w, 3000, seed=71)
    for n in (1, 5, 16):
        book = optimize_codebook(s, n, r)
        leaves = _split_tree(s, r, [n])[n]
        assert leaves.shape == (n, w.dim)
        code, _, dist, _, _ = _run(s.points, leaves, r)
        assert book.distortion == dist
        np.testing.assert_array_equal(book.points, code[np.lexsort(code.T[::-1])])


@pytest.mark.parametrize("w", [cantor(), _dust()], ids=["line", "plane"])
def test_split_tree_assigns_only_inside_lloyd(w, monkeypatch):
    # Each split keeps the cells its Lloyd run ended on, so every
    # nearest-center search of the tree (the midpoint cuts on a line, the
    # KD-tree queries in the plane) runs inside a _lloyd frame.
    inside = []

    def record():
        f = sys._getframe(2)
        while f is not None and f.f_code is not _lloyd.__code__:
            f = f.f_back
        inside.append(f is not None)

    def assign_line(self, code):
        record()
        return assign(self, code)

    class Tree(cKDTree):
        def query(self, *args, **kwargs):
            record()
            return super().query(*args, **kwargs)

    assign = _Line.__call__
    monkeypatch.setattr(_Line, "__call__", assign_line)
    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    _split_tree(chaos_game(w, 3000, seed=71), 0.0, [16])
    assert inside and all(inside)


def test_split_tree_rungs_are_prefixes_of_one_tree():
    # Each split puts one half in its leaf's place and appends the other:
    # the size-(j+1) codebook differs from the size-j one in one old row.
    s = chaos_game(_dust(), 5000, seed=73)
    books = _split_tree(s, 0.0, range(1, 41))
    for j in range(1, 40):
        assert (books[j + 1][:j] != books[j]).any(axis=1).sum() == 1
    np.testing.assert_array_equal(books[40], _split_tree(s, 0.0, [40])[40])
    np.testing.assert_allclose(books[1], [s.points.mean(axis=0)])


def test_split_tree_repeats_leaves_past_the_distinct_samples():
    x = np.random.default_rng(43).integers(0, 5, size=(400, 1)).astype(float)
    books = _split_tree(SampleSet(points=x), 2.0, [5, 12])
    np.testing.assert_array_equal(np.sort(books[5][:, 0]), np.arange(5.0))
    np.testing.assert_array_equal(books[12], np.resize(books[5], (12, 1)))
    book = optimize_codebook(SampleSet(points=x), 12, 2.0)
    assert book.distortion == 0.0


def test_every_ladder_runs_on_the_calling_thread(monkeypatch):
    # A line's rungs only contend for the GIL, and an R^m rung's first
    # assignment starts from each sample's own cylinder, leaving threads
    # little KD-tree work to overlap: no ladder enters the pool.
    def refuse(fn, items):
        raise AssertionError("a ladder entered the thread pool")

    monkeypatch.setattr(quantize, "parallel_map", refuse)
    for w in (cantor(), _dust()):
        fit_dimension(w, 2.0, [4, 8, 16], 3000, seed=3)
        fit_dimension_from_samples(chaos_game(w, 3000, seed=3), 0.0, [4, 8, 16])


@pytest.mark.parametrize("w", [cantor(), _dust()], ids=["line", "plane"])
def test_bare_sample_fit_is_rerun_and_thread_count_invariant(w, monkeypatch):
    samples = chaos_game(w, 6000, seed=79)
    fits = set()
    for threads in ("1", "2", "2"):
        monkeypatch.setenv("QDIM_THREADS", threads)
        for r in (0.0, 2.0):
            fit = fit_dimension_from_samples(samples, r, [4, 8, 16, 32])
            fits.add((r, fit.pairs, fit.estimate, fit.ci_halfwidth))
    assert len(fits) == 2
