"""Chaos game, Lloyd optimisation, and the dimension-fit ladder.

Lloyd correctness is checked through its defining invariant - the
distortion history never increases (up to float dust) for every supported
order r - plus small hand-checkable configurations where the optimal
codebook is known.
"""

import math

import numpy as np
import pytest

from qdim.errors import DegenerateFit
from qdim.ifs import WIFS, Similitude, attractor_hull, similitude_1d
from qdim.instances import cantor, uniform_halves
from qdim.quantize import (
    Codebook,
    SampleSet,
    _assign,
    _lloyd,
    chaos_game,
    estimate_vnr,
    fit_dimension,
    fit_dimension_from_samples,
    ladder_seed,
    optimize_codebook,
    quantization_coefficients,
)


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
    assert a.wifs_fingerprint == b.wifs_fingerprint


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
    assert attractor_hull(w).contains_points(s.points, slack=1e-9).all()


def test_chaos_game_validates():
    with pytest.raises(ValueError):
        chaos_game(cantor(), 0, seed=1)
    with pytest.raises(ValueError):
        chaos_game(cantor(), 10, seed=1, burn_in=-1)


def test_sampleset_flat_points_become_column():
    s = SampleSet(points=np.array([0.0, 1.0]), seed=-1, burn_in=0, wifs_fingerprint="x")
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
    _, _, history = _lloyd(cantor_samples.points, init, r)
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12), f"history increased by {diffs.max()}"


@pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
def test_lloyd_history_never_increases_2d(r):
    rng = np.random.default_rng(29)
    pts = rng.uniform(size=(1500, 2))
    init = pts[rng.choice(1500, size=5, replace=False)]
    _, _, history = _lloyd(pts, init, r)
    assert np.all(np.diff(history) <= 1e-12)


def test_lloyd_two_clusters_exact():
    # two tight clusters, two centers: optimum is the cluster means (r = 2)
    pts = np.concatenate([np.full(50, 0.0), np.full(50, 1.0)])[:, None]
    s = SampleSet(points=pts, seed=-1, burn_in=0, wifs_fingerprint="clusters")
    book = optimize_codebook(s, 2, 2.0, restarts=3, seed=1)
    np.testing.assert_allclose(np.sort(book.points.ravel()), [0.0, 1.0], atol=1e-12)
    assert book.distortion == pytest.approx(0.0, abs=1e-24)


def test_uniform_quantizer_matches_theory():
    # n-point optimal r = 2 quantizer of U[0,1] has distortion 1/(12 n^2)
    s = chaos_game(uniform_halves(), 40_000, seed=31)
    book = optimize_codebook(s, 8, 2.0, restarts=3, seed=7)
    assert book.distortion == pytest.approx(1.0 / (12 * 64), rel=0.05)
    mids = np.sort(book.points.ravel())
    np.testing.assert_allclose(mids, (2 * np.arange(8) + 1) / 16.0, atol=0.01)


def test_codebook_is_deterministic_and_sorted(cantor_samples):
    a = optimize_codebook(cantor_samples, 5, 1.0, restarts=2, seed=11)
    b = optimize_codebook(cantor_samples, 5, 1.0, restarts=2, seed=11)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.distortion == b.distortion
    assert np.all(np.diff(a.points[:, 0]) >= 0.0)


def test_more_restarts_never_hurt(cantor_samples):
    one = optimize_codebook(cantor_samples, 7, 2.0, restarts=1, seed=5)
    five = optimize_codebook(cantor_samples, 7, 2.0, restarts=5, seed=5)
    assert five.distortion <= one.distortion + 1e-15


def test_codebook_covers_all_points_when_n_large(cantor_samples):
    small = SampleSet(points=np.array([[0.0], [0.5], [0.5], [1.0]]), seed=-1,
                      burn_in=0, wifs_fingerprint="tiny")
    book = optimize_codebook(small, 10, 2.0, restarts=1, seed=0)
    assert book.size == 3  # distinct points only
    assert book.distortion == 0.0
    assert book.restarts_used == 0
    log_book = optimize_codebook(small, 10, 0.0, restarts=1, seed=0)
    assert log_book.distortion == -math.inf


def test_optimize_codebook_validates(cantor_samples):
    with pytest.raises(ValueError):
        optimize_codebook(cantor_samples, 0, 2.0)
    with pytest.raises(ValueError):
        optimize_codebook(cantor_samples, 4, -1.0)
    with pytest.raises(ValueError):
        optimize_codebook(cantor_samples, 4, 2.0, restarts=0)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError):
            optimize_codebook(cantor_samples, 4, r)
        with pytest.raises(ValueError):
            fit_dimension_from_samples(cantor_samples, r, [4, 8], seed=1)


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
    book = optimize_codebook(cantor_samples, 6, 2.0, restarts=2, seed=13)
    assert estimate_vnr(cantor_samples, book, 2.0) == book.distortion


def test_estimate_vnr_log_floor():
    # samples {0, 1} with the single code point {0}: distances (0, 1) floor
    # to (1e-12, 1), so the geometric mean is exactly 1e-6
    s = SampleSet(points=np.array([[0.0], [1.0]]), seed=-1, burn_in=0, wifs_fingerprint="pair")
    val = estimate_vnr(s, np.array([[0.0]]), 0.0)
    assert val == pytest.approx(1e-6, rel=1e-9)
    assert estimate_vnr(s, np.array([[0.0]]), 2.0) == 0.5


# ---------------------------------------------------------------------------
# dimension fits
# ---------------------------------------------------------------------------


def test_fit_recovers_uniform_dimension():
    fit = fit_dimension(uniform_halves(), 2.0, [8, 16, 32, 64], 20_000, seed=41, restarts=2)
    assert fit.estimate == pytest.approx(1.0, abs=0.1)
    assert fit.slope == pytest.approx(2.0, abs=0.2)
    assert fit.ci_halfwidth < 0.2
    assert [n for n, _ in fit.pairs] == [8, 16, 32, 64]


def test_fit_r0_pairs_hold_log_errors():
    samples = chaos_game(uniform_halves(), 20_000, seed=43)
    fit = fit_dimension_from_samples(samples, 0.0, [8, 16, 32], seed=47, restarts=2)
    assert fit.r == 0.0
    assert all(v < 0.0 for _, v in fit.pairs)  # log of sub-unit errors
    assert fit.estimate == pytest.approx(1.0, abs=0.15)


def test_fit_is_deterministic():
    samples = chaos_game(cantor(), 10_000, seed=51)
    a = fit_dimension_from_samples(samples, 2.0, [8, 16, 32], seed=53, restarts=2)
    b = fit_dimension_from_samples(samples, 2.0, [8, 16, 32], seed=53, restarts=2)
    assert a.estimate == b.estimate and a.pairs == b.pairs


def test_fit_validates_ladder(cantor_samples):
    with pytest.raises(DegenerateFit):
        fit_dimension_from_samples(cantor_samples, 2.0, [8], seed=1)
    with pytest.raises(ValueError):
        fit_dimension_from_samples(cantor_samples, 2.0, [16, 8], seed=1)
    with pytest.raises(ValueError):
        # 5000 samples cannot support a 500-point codebook estimate
        fit_dimension_from_samples(cantor_samples, 2.0, [8, 500], seed=1)


def test_fit_degenerates_on_constant_samples():
    s = SampleSet(points=np.zeros((500, 1)), seed=-1, burn_in=0, wifs_fingerprint="const")
    with pytest.raises(DegenerateFit):
        fit_dimension_from_samples(s, 2.0, [1, 2], seed=1)


def test_ladder_seed_is_frozen():
    # the (seed, n) -> substream map is part of the reproducibility contract
    assert ladder_seed(7, 16) == 3742620831
    assert ladder_seed(7, 32) == 154893639
    assert ladder_seed(8, 16) != ladder_seed(7, 16)


def test_quantization_coefficients_diagnostic():
    samples = chaos_game(uniform_halves(), 20_000, seed=59)
    fit = fit_dimension_from_samples(samples, 2.0, [8, 16, 32], seed=61, restarts=2)
    traj = quantization_coefficients(fit, 1.0)
    assert [n for n, _ in traj] == [8, 16, 32]
    vals = [v for _, v in traj]
    # at the true dimension the rescaled errors stay within a small band
    assert max(vals) / min(vals) < 2.0
    with pytest.raises(ValueError):
        quantization_coefficients(fit, -1.0)
