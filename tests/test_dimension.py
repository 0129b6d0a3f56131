"""Spectral dimension solver: closed forms, frozen references, invariants.

Reference values below were frozen from an independent implementation (a
brute grid scan of the defining equation at 1e-6 resolution in the
substituted variable, then a high-precision refinement) before this
package's solver existed; they guard against silent regressions in the
vectorised kappa bisection.  Property tests pin its two limits, d0 as
r -> 0 and the similarity dimension as r -> inf, and its monotonicity.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdim import dimension
from qdim.dimension import (
    MONOTONE_SLACK,
    d0_dimension,
    kappa_curve,
    quantization_dimension,
    similarity_dimension,
    solve_kappa,
)
from qdim.errors import UseD0Path
from qdim.ifs import WIFS, Word, build_sub_wifs, similitude_1d
from qdim.instances import cantor, random_wifs, uniform_halves

# Frozen references (independent grid-scan + refinement):
#   maps {x/2, x/4}, weights (1/4, 3/4), r = 2
KAPPA2_MIXED = 0.6242257143009567
#   maps {x/2, x/2 + 1/2}, weights (0.1, 0.9)
D0_SKEWED = 0.46899559358928117


def _mixed():
    return WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.25, 0.0)), probs=(0.25, 0.75))


def _skewed():
    return WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.5, 0.5)), probs=(0.1, 0.9))


# ---------------------------------------------------------------------------
# frozen and closed-form values
# ---------------------------------------------------------------------------


def test_frozen_kappa_reference():
    res = solve_kappa(_mixed(), 2.0)
    assert res.kappa_r == pytest.approx(KAPPA2_MIXED, abs=2e-11)


def test_frozen_d0_reference():
    assert d0_dimension(_skewed()) == pytest.approx(D0_SKEWED, abs=1e-15)


@pytest.mark.parametrize("n,s", [(2, 1.0 / 3.0), (3, 0.2), (5, 0.15)])
@pytest.mark.parametrize("r", [0.1, 1.0, 2.0, 10.0, 1e-12, 1e5])
def test_equal_ratio_closed_form(n, s, r):
    # log n / log(1/s) is the root for every r, down to 1e-12 and up to 1e5
    maps = tuple(similitude_1d(s, float(k)) for k in range(n))
    w = WIFS(maps=maps, probs=tuple([1.0 / n] * n))
    assert solve_kappa(w, r).kappa_r == pytest.approx(math.log(n) / math.log(1.0 / s), abs=1e-9)


def test_d0_closed_form_components():
    # d0 = sum(p log p) / sum(p log s)
    w = WIFS(maps=(similitude_1d(0.2, 0.0), similitude_1d(0.4, 0.5)), probs=(0.3, 0.7))
    num = 0.3 * math.log(0.3) + 0.7 * math.log(0.7)
    den = 0.3 * math.log(0.2) + 0.7 * math.log(0.4)
    assert d0_dimension(w) == pytest.approx(num / den, rel=1e-14)


def test_uniform_halves_kappa_is_one():
    assert solve_kappa(uniform_halves(), 2.0).kappa_r == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# solver invariants
# ---------------------------------------------------------------------------


def test_theta_and_residual_are_consistent():
    w = _mixed()
    for r in (0.1, 1.0, 2.0, 7.5):
        res = solve_kappa(w, r)
        # theta = kappa / (r + kappa)
        assert res.theta == pytest.approx(res.kappa_r / (r + res.kappa_r), rel=1e-12)
        # residual is the defining-equation mismatch at the returned root
        bases = np.asarray(w.probs) * w.scales ** r
        g = float(np.sum(bases ** res.theta))
        assert abs(g - 1.0) == pytest.approx(res.residual, abs=1e-15)
        assert res.residual < 1e-9
        assert 0 < res.iterations <= 200


def test_root_is_unique_on_a_fine_grid():
    # g(theta) = sum (p s^r)^theta is strictly decreasing, so the defining
    # equation has exactly one sign change in (0, 1)
    w = _mixed()
    bases = np.asarray(w.probs) * w.scales ** 2.0
    thetas = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
    g = np.sum(bases[None, :] ** thetas[:, None], axis=1) - 1.0
    signs = np.sign(g)
    assert np.all(np.diff(g) < 0.0)
    assert np.count_nonzero(np.diff(signs)) == 1


def test_kappa_monotone_in_r():
    rng = np.random.default_rng(99)
    grid = np.linspace(0.1, 10.0, 30)
    for _ in range(10):
        curve = kappa_curve(random_wifs(rng), grid)
        ks = [res.kappa_r for res in curve.results]
        assert curve.monotone
        assert all(b >= a - MONOTONE_SLACK for a, b in zip(ks, ks[1:]))


def test_kappa_curve_validates_grid():
    w = cantor()
    with pytest.raises(ValueError):
        kappa_curve(w, [1.0, 1.0])
    with pytest.raises(ValueError):
        kappa_curve(w, [-1.0, 2.0])


def test_r_nonpositive_is_routed_to_d0():
    with pytest.raises(UseD0Path):
        solve_kappa(cantor(), 0.0)
    with pytest.raises(UseD0Path):
        solve_kappa(cantor(), -1.0)


def test_single_map_degenerates_to_zero():
    w = WIFS(maps=(similitude_1d(0.5, 0.0),), probs=(1.0,))
    assert solve_kappa(w, 2.0).kappa_r == 0.0
    assert d0_dimension(w) == 0.0


# ---------------------------------------------------------------------------
# derived dimensions
# ---------------------------------------------------------------------------


def test_quantization_dimension_clamps_at_ambient():
    # four maps of ratio 0.4: kappa_r = log4/log2.5 > 1 in every order r,
    # but the quantization dimension cannot exceed the ambient dimension
    maps = tuple(similitude_1d(0.4, float(k)) for k in range(4))
    w = WIFS(maps=maps, probs=(0.25,) * 4)
    kappa = solve_kappa(w, 2.0).kappa_r
    assert kappa > 1.0
    assert quantization_dimension(w, 2.0) == 1.0


def test_similarity_dimension_closed_form():
    assert similarity_dimension(cantor()) == pytest.approx(math.log(2) / math.log(3), abs=1e-10)
    maps = tuple(similitude_1d(0.4, float(k)) for k in range(4))
    w = WIFS(maps=maps, probs=(0.25,) * 4)
    assert similarity_dimension(w) == pytest.approx(math.log(4) / math.log(2.5), abs=1e-10)


def test_kappa_approaches_d0_for_small_r():
    w = _skewed()
    assert solve_kappa(w, 1e-5).kappa_r == pytest.approx(d0_dimension(w), abs=1e-4)


def test_kappa_rises_toward_similarity_dimension_for_large_r():
    # as r grows the root climbs toward the similarity dimension
    w = _skewed()
    sim = similarity_dimension(w)
    k_small, k_big = solve_kappa(w, 0.5).kappa_r, solve_kappa(w, 50.0).kappa_r
    assert k_small < k_big <= sim + 1e-9
    assert k_big == pytest.approx(sim, abs=0.05)


def test_sub_system_dimension_can_exceed_parent():
    # Dropping a map does NOT always lower kappa_r.  When almost all weight
    # sits on a tiny map, removing it and renormalising spreads the weight
    # across the large maps and the root jumps up.  Here the parent puts
    # 90% of the mass on a ratio-0.05 map; keeping only the two ratio-0.45
    # maps lifts kappa_1 by more than 0.4.
    parent = WIFS(
        maps=(similitude_1d(0.45, 0.0),
              similitude_1d(0.45, 1.0),
              similitude_1d(0.05, 2.0)),
        probs=(0.05, 0.05, 0.9),
    )
    sub = build_sub_wifs(parent, 1, Word(()), [Word.parse("1"), Word.parse("2")])
    k_parent = solve_kappa(parent, 1.0).kappa_r
    k_sub = solve_kappa(sub.to_wifs(), 1.0).kappa_r
    assert k_sub > k_parent + 0.4


# ---------------------------------------------------------------------------
# both ends of the range of r
# ---------------------------------------------------------------------------


def test_cantor_kappa_is_exact_at_extreme_orders():
    target = math.log(2) / math.log(3)
    for r in (1e-12, 1e5):
        assert solve_kappa(cantor(), r).kappa_r == pytest.approx(target, rel=1e-12)


def test_non_finite_orders_are_refused():
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            solve_kappa(cantor(), r)
        with pytest.raises(ValueError):
            kappa_curve(cantor(), [1.0, r])


def test_residual_above_tolerance_is_refused(monkeypatch):
    # |F| at the returned root of this system is a few 1e-17, never 0; with
    # a zero tolerance every such root must be refused, not returned.
    res = solve_kappa(_mixed(), 2.0)
    assert 0.0 < res.residual <= dimension.RESIDUAL_TOL
    monkeypatch.setattr(dimension, "RESIDUAL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="residual"):
        solve_kappa(_mixed(), 2.0)
    with pytest.raises(RuntimeError, match="residual"):
        kappa_curve(_mixed(), [1.0, 2.0])


@st.composite
def _systems(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    scales = draw(st.lists(st.floats(0.05, 0.9), min_size=n, max_size=n))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    maps = tuple(similitude_1d(s, float(k)) for k, s in enumerate(scales))
    return WIFS(maps=maps, probs=tuple(raw / raw.sum()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems())
def test_kappa_tends_to_d0_as_r_vanishes(w):
    assert abs(solve_kappa(w, 1e-12).kappa_r - d0_dimension(w)) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems())
def test_kappa_tends_to_similarity_dimension_as_r_grows(w):
    sim = similarity_dimension(w)
    ks = [res.kappa_r for res in kappa_curve(w, [1e2, 1e4, 1e6, 1e12]).results]
    assert ks[-1] <= sim + 1e-12
    assert abs(ks[-1] - sim) <= 1e-6
    gaps = [sim - k for k in ks]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_systems(), st.lists(st.floats(1e-12, 1e5), min_size=2, max_size=20, unique=True))
def test_kappa_is_nondecreasing_in_r(w, rs):
    curve = kappa_curve(w, sorted(rs))
    ks = [res.kappa_r for res in curve.results]
    assert curve.monotone
    assert all(b >= a - MONOTONE_SLACK for a, b in zip(ks, ks[1:]))
