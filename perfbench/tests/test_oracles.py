"""The oracles on closed-form cases."""

import math

import numpy as np
import pytest

import checks
import oracles

EYE1 = np.eye(1)


def _maps_1d(*pairs):
    return [(s, EYE1, np.array([t])) for s, t in pairs]


@pytest.mark.parametrize("n_maps,scale", [(2, 1 / 3), (3, 0.25), (5, 0.1)])
@pytest.mark.parametrize("r", [1e-12, 1e-5, 1.0, 2.0, 1e3, 1e5])
def test_equal_ratio_kappa_is_log_n_over_log_inverse_scale(n_maps, scale, r):
    want = math.log(n_maps) / math.log(1 / scale)
    got = oracles.kappa([1 / n_maps] * n_maps, [scale] * n_maps, r)
    assert got == pytest.approx(want, rel=1e-14)


def test_equal_ratio_d0_and_cantor_dimension():
    assert oracles.d0([0.5, 0.5], [1 / 3, 1 / 3]) == pytest.approx(oracles.cantor_dimension(), rel=1e-15)


def test_kappa_renormalises_the_weights():
    probs, scales = [0.2, 0.3, 0.5], [0.5, 0.25, 0.1]
    assert oracles.kappa([2 * p for p in probs], scales, 1e-12) == oracles.kappa(probs, scales, 1e-12)


def test_graf_luschgy_optimum():
    assert oracles.graf_luschgy_v2(1) == 0.125
    assert oracles.graf_luschgy_v2(4) == pytest.approx(0.125 / 81, rel=1e-15)
    with pytest.raises(ValueError):
        oracles.graf_luschgy_v2(24)


def test_dl_of_two_diracs_is_their_distance():
    assert oracles.dl_1d([[0.0]], [1.0], [[0.3]], [1.0]) == pytest.approx(0.3, abs=1e-15)
    assert oracles.dl_lp([[0.0, 0.0]], [1.0], [[3.0, 4.0]], [1.0]) == pytest.approx(5.0, abs=1e-12)


def test_dl_lp_matches_the_cdf_integral_on_the_line():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = rng.uniform(0, 1, (6, 1)), rng.uniform(0, 1, (4, 1))
        wa, wb = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(4))
        assert oracles.dl_lp(a, wa, b, wb) == pytest.approx(oracles.dl_1d(a, wa, b, wb), abs=1e-9)


def test_tv_on_shared_and_disjoint_atoms():
    assert oracles.tv([[0.0]], [1.0], [[1.0]], [1.0]) == 1.0
    assert oracles.tv([[0.0], [1.0]], [0.25, 0.75], [[0.0], [1.0]], [0.5, 0.5]) == 0.25


def test_word_composition_acts_rightmost_first():
    maps = _maps_1d((0.25, 0.0), (0.25, 0.2))
    s, _, t = oracles.compose(maps, "21")
    assert (s, float(t[0])) == (1 / 16, 0.2)


def test_separation_of_the_quarter_maps():
    maps = _maps_1d((0.25, 0.0), (0.25, 0.2), (0.25, 0.75))
    lo, hi = oracles.fixed_point_hull(maps)
    assert (lo.tolist(), hi.tolist()) == ([0.0], [1.0])
    status, gap = oracles.separation(maps, ["11", "21", "31"], lo, hi, "ssc")
    assert status == "Satisfied" and gap == pytest.approx(0.1375, abs=1e-15)
    assert oracles.separation(maps, ["1", "2", "3"], lo, hi, "osc")[0] == "Unknown"


def test_cantor_centroid_codebook_is_the_interval_midpoints():
    maps = _maps_1d((1 / 3, 0.0), (1 / 3, 2 / 3))
    code = oracles.centroid_codebook(maps, [0.5, 0.5], 2)
    assert np.sort(code[:, 0]) == pytest.approx([1 / 18, 5 / 18, 13 / 18, 17 / 18], abs=1e-15)


def test_non_standard_json_parses_but_is_flagged():
    assert checks._json('{"min_gap": 0.5}') == ({"min_gap": 0.5}, True)
    obj, standard = checks._json('{"min_gap": Infinity}')
    assert obj["min_gap"] == math.inf and not standard
    with pytest.raises(checks.ParseError):
        checks._json("not json")
