"""Chaos game, Lloyd optimisation, and the dimension-fit ladder.

Lloyd correctness is checked through its defining invariant - the
distortion history never increases (up to float dust) for every supported
order r - plus small hand-checkable configurations where the optimal
codebook is known.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdim.quantize as quantize
from qdim.errors import DegenerateFit
from qdim.ifs import WIFS, Similitude, Word, attractor_hull, compose_word, similitude_1d
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
    _cell_objective,
    _damped_newton,
    _line_order,
    _lloyd,
    _loss,
    _recenter,
    _split_tree,
    antichain_codebook,
    chaos_game,
    estimate_vnr,
    fit_dimension,
    fit_dimension_from_samples,
    optimize_codebook,
)


def _assign(x, code, order=None):
    """Distances and cells of samples ``x`` at ``code``, as a Lloyd run's
    first assignment gives them."""
    order = _line_order(x) if order is None else order
    return quantize._assigner(x, np.ascontiguousarray(x.T), order)(code)


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


def test_line_order_is_the_stable_order():
    rng = np.random.default_rng(31)
    sets = [rng.integers(0, 20, size=500).astype(float)]
    for _ in range(8):  # one 0.0 and one -0.0, equal under == but not bitwise
        x = rng.normal(size=1000)
        x[rng.choice(1000, size=2, replace=False)] = [0.0, -0.0]
        sets.append(x)
    sets += [chaos_game(cantor(), 30_000, seed=s).points[:, 0] for s in range(1, 5)]
    for x in sets:
        np.testing.assert_array_equal(quantize._line_order(x[:, None]), np.argsort(x, kind="stable"))


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
    _, _, _, history = _lloyd(cantor_samples.points, init, r)
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12), f"history increased by {diffs.max()}"


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5])
def test_lloyd_history_never_increases_2d(r):
    rng = np.random.default_rng(29)
    pts = rng.uniform(size=(1500, 2))
    init = pts[rng.choice(1500, size=5, replace=False)]
    _, _, _, history = _lloyd(pts, init, r)
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
    _, _, dist, _ = _lloyd(pts, init, r)
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
    # must reach each convex cell objective's minimum
    for seed in range(4):
        x, idx, code = _random_cells(m, seed)
        xt = np.ascontiguousarray(x.T)
        d = np.linalg.norm(x - code[idx], axis=1)
        new = _recenter(xt, idx, _loss(d, r), code, r)
        got = _cell_objective(xt, idx, new, r, code.shape[0])
        want = np.array([_scipy_cell_minimum(x[idx == c], r) for c in range(code.shape[0])])
        np.testing.assert_allclose(got, want, rtol=1e-9)


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
                val = _cell_objective(xt, idx, trial, r, n)
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
        for _ in range(2):
            value = _cell_objective(xt, idx, code, r, code.shape[0])
            got = _damped_newton(xt, idx, code, r, value)
            want = _damped_newton_reference(xt, idx, code, r, value)
            np.testing.assert_array_equal(got, want)
            assert np.all(_cell_objective(xt, idx, got, r, code.shape[0]) <= value)
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
        d, idx = _assign(x, code)
        new = _recenter(np.ascontiguousarray(x.T), idx, _loss(d, 0.0), code, 0.0)
        np.testing.assert_array_equal(new, _log_candidates_reference(x, idx, code))


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
    # 1-d cells are runs of the samples' stable sort: reading them there
    # must give the centers that sorting the samples by cell gives
    x = _line_fixture(fixture)
    order = np.argsort(x[:, 0], kind="stable")
    xt = np.ascontiguousarray(x.T)
    rng = np.random.default_rng(37)
    for n in (3, 16, 40):
        code = x[rng.choice(x.shape[0], size=n, replace=False)]
        code[1] = code[0]  # a duplicate center leaves one cell empty
        d, idx = _assign(x, code, order)
        loss = _loss(d, r)
        np.testing.assert_array_equal(_recenter(xt, idx, loss, code, r, order),
                                      _recenter(xt, idx, loss, code, r))


@pytest.mark.parametrize("fixture", ["grid", "cantor", "grid2", "uniform2"])
def test_log_lloyd_changed_cells_match_full_rescan(fixture, monkeypatch):
    # At r = 0 each recentering searches only the cells whose sample set
    # changed; a full _lloyd must equal one that searches every cell, also
    # through reseeds after the first round (which the grids produce).
    if fixture in ("grid", "cantor"):
        x = _line_fixture(fixture)
    elif fixture == "grid2":
        x = np.random.default_rng(47).integers(0, 16, size=(3000, 2)) / 8.0
    else:
        x = np.random.default_rng(29).uniform(size=(1500, 2))
    runs = []
    for rescan in (False, True):
        if rescan:
            monkeypatch.setattr(quantize, "_changed_cells", lambda before, idx, n: None)
        out = []
        for n in (6, 16, 40):
            for seed in range(3):
                init = x[np.random.default_rng(seed).choice(x.shape[0], size=n, replace=False)]
                out.append(_lloyd(x, init, 0.0))
        runs.append(out)
    for (code, idx, dist, hist), (want_code, want_idx, want_dist, want_hist) in zip(*runs):
        np.testing.assert_array_equal(code, want_code)
        np.testing.assert_array_equal(idx, want_idx)
        assert dist == want_dist and hist == want_hist


def _record_reseeds(monkeypatch):
    """Patch ``_reseed_empty`` to log, per call, whether it re-seeded."""
    reseeded = []
    reseed = quantize._reseed_empty

    def recording(x, code, d, idx):
        out = reseed(x, code, d, idx)
        reseeded.append(out[1])
        return out

    monkeypatch.setattr(quantize, "_reseed_empty", recording)
    return reseeded


def test_log_lloyd_fixtures_reseed_after_the_first_round(monkeypatch):
    # the changed-cell test above must see reseeds in later rounds
    reseeded = _record_reseeds(monkeypatch)
    x = _line_fixture("grid")
    init = x[np.random.default_rng(0).choice(x.shape[0], size=40, replace=False)]
    _lloyd(x, init, 0.0)
    assert any(reseeded[1:])


def _fresh_cells(x, code):
    """Each sample's nearest center, found without the Lloyd machinery."""
    if x.shape[1] == 1:
        return _assign_by_midpoint_search(x, code)[1]
    return cKDTree(code).query(x, k=1)[1]


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2])
def test_lloyd_returns_the_assignment_of_its_codebook(m, r):
    x = _line_fixture("cantor") if m == 1 else np.random.default_rng(29).uniform(size=(1500, 2))
    init = x[np.random.default_rng(23).choice(x.shape[0], size=6, replace=False)]
    code, idx, _, _ = _lloyd(x, init, r)
    np.testing.assert_array_equal(idx, _fresh_cells(x, code))


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
        code, idx, _, history = _lloyd(x, init, r)
        assert len(history) == cap and reseeded[0]
        np.testing.assert_array_equal(idx, _fresh_cells(x, code))


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
    x, codes = case
    assign = _BoundedAssign(x, np.ascontiguousarray(x.T))
    for code in codes:
        d, idx = assign(code)
        want_d, want_idx = cKDTree(code).query(x, k=1)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(d, want_d)


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
    real = quantize._line_order
    monkeypatch.setattr(quantize, "_line_order", lambda x: sorts.append(1) or real(x))
    samples = chaos_game(cantor(), 10_000, seed=51)
    fit_dimension_from_samples(samples, 2.0, [8, 16, 32, 64, 96])
    fit_dimension_from_samples(samples, 0.0, [8, 16, 32])
    assert estimate_vnr(samples, np.array([[0.25], [0.75]]), 2.0) > 0.0
    assert len(sorts) == 1
    np.testing.assert_array_equal(samples.line_order,
                                  np.argsort(samples.points[:, 0], kind="stable"))
    fit_dimension(cantor(), 1.0, [8, 16, 32], 5000, seed=3)
    assert len(sorts) == 2
    assert chaos_game(quarter_maps(), 10, seed=1).line_order is not None
    assert SampleSet(np.zeros((3, 2))).line_order is None


# ---------------------------------------------------------------------------
# antichain codebooks
# ---------------------------------------------------------------------------


def _dust():
    """Four corner maps of ratio 1/3, the third turned by 90 degrees."""
    eye, rot90 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    maps = tuple(Similitude(1 / 3, iso, np.array(t)) for iso, t in
                 [(eye, [0.0, 0.0]), (eye, [2 / 3, 0.0]), (rot90, [1 / 3, 2 / 3]), (eye, [2 / 3, 2 / 3])])
    return WIFS(maps=maps, probs=(0.4, 0.3, 0.2, 0.1))


def _antichain_reference(w, n, r):
    """Split the top word of a sorted list, one word at a time, and map the
    mean (found by iterating a -> sum_i p_i f_i(a)) through compose_word."""
    q = [float(p) * f.scale ** r for p, f in zip(w.probs, w.maps)]
    leaves = [(1.0, ())]
    while len(leaves) < n:
        leaves.sort(key=lambda leaf: (-leaf[0], leaf[1]))
        prio, word = leaves.pop(0)
        kids = sorted(range(w.n_maps), key=lambda i: (-q[i], i))[:n - len(leaves)]
        leaves += [(prio * q[i], word + (i,)) for i in kids]
    mean = np.zeros(w.dim)
    for _ in range(200):
        mean = sum(p * f.apply(mean) for p, f in zip(w.probs, w.maps))
    return np.array([compose_word(w, Word(tuple(i + 1 for i in word))).apply(mean)
                     for word in sorted(word for _, word in leaves)])


@pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 3.0])
def test_cantor_antichain_codebook_is_the_cylinder_midpoints(r):
    for k in range(9):
        left = np.zeros(1)
        for j in range(1, k + 1):  # level-j left endpoints, digits 0 and 2
            left = np.concatenate([left, left + 2.0 * 3.0 ** -j])
        mids = np.sort(left) + 0.5 * 3.0 ** -k
        code = antichain_codebook(cantor(), 2 ** k, r)
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
    for n in sizes:
        code = antichain_codebook(w, n, r)
        assert code.shape == (n, w.dim)
        assert len(np.unique(code, axis=0)) == n
        np.testing.assert_allclose(code, _antichain_reference(w, n, r), rtol=0, atol=1e-14)


def test_antichain_codebook_of_one_map_cannot_split():
    single = WIFS(maps=(similitude_1d(1 / 3, 0.0),), probs=(1.0,))
    np.testing.assert_allclose(antichain_codebook(single, 1, 2.0), [[0.0]])
    with pytest.raises(DegenerateFit):
        antichain_codebook(single, 2, 2.0)
    with pytest.raises(DegenerateFit):
        fit_dimension(single, 2.0, [2, 4], 500, seed=3)


def test_start_codebook_runs_lloyd_once(cantor_samples):
    start = antichain_codebook(cantor(), 8, 2.0)
    book = optimize_codebook(cantor_samples, 8, 2.0, start=start)
    code, _, dist, _ = _lloyd(cantor_samples.points, start, 2.0)
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
        code, _, dist, _ = _lloyd(s.points, leaves, r)
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

    def assign_line(*args):
        record()
        return assign(*args)

    class Tree(cKDTree):
        def query(self, *args, **kwargs):
            record()
            return super().query(*args, **kwargs)

    assign = quantize._assign_line
    monkeypatch.setattr(quantize, "_assign_line", assign_line)
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
