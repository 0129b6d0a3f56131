"""Discrete measures: construction, arithmetic, metrics, serialization.

The transport metric is checked against independent oracles: the
production code (sorted-CDF formula in 1-d, a certified HiGHS transport LP
otherwise) against a brute-force linear program assembled here from
scratch, and in R^2 against an optimal assignment, which solves the
transport problem between equal-weight clouds of the same size.  Total
variation is checked against full subset enumeration with dyadic weights
so the agreement is exact, not approximate.
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

from qdim import measures
from qdim.errors import DimensionError, EmptySet, NotNormalized
from qdim.geometry import Box
from qdim.measures import (
    DiscreteMeasure,
    box_mass,
    convolve,
    dirac,
    dl,
    measure_from_csv,
    measure_from_json_obj,
    measure_to_csv,
    measure_to_json_obj,
    mix,
    translate,
    tv,
)


def _measure(atoms, weights):
    return DiscreteMeasure(atoms=np.asarray(atoms, dtype=float), weights=np.asarray(weights, dtype=float))


def _random_prob(rng, k_max=8, dim=1):
    k = int(rng.integers(1, k_max + 1))
    w = rng.uniform(0.1, 1.0, size=k)
    return DiscreteMeasure(atoms=rng.uniform(-1.0, 1.0, size=(k, dim)), weights=w / w.sum())


def _lp_transport(mu, nu):
    """Transport LP solved directly; independent of the package's solvers."""
    ka, kb = mu.size, nu.size
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2).ravel()
    rows = []
    for i in range(ka):
        g = np.zeros((ka, kb))
        g[i, :] = 1.0
        rows.append(g.ravel())
    for j in range(kb):
        g = np.zeros((ka, kb))
        g[:, j] = 1.0
        rows.append(g.ravel())
    res = linprog(cost, A_eq=np.array(rows), b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


# ---------------------------------------------------------------------------
# construction and canonicalization
# ---------------------------------------------------------------------------


def test_flat_atoms_become_column():
    mu = DiscreteMeasure(atoms=np.array([0.0, 1.0, 2.0]), weights=np.array([0.2, 0.3, 0.5]))
    assert mu.atoms.shape == (3, 1)
    assert mu.dim == 1


def test_duplicate_atoms_merge_and_sort():
    mu = _measure([[1.0], [0.0], [1.0]], [0.2, 0.5, 0.3])
    assert mu.size == 2
    np.testing.assert_array_equal(mu.atoms.ravel(), [0.0, 1.0])
    assert mu.weights[1] == 0.5  # 0.2 + 0.3 exactly


def test_negative_zero_is_canonicalized():
    mu = _measure([[-0.0], [0.0]], [0.5, 0.5])
    assert mu.size == 1
    assert mu.weights[0] == 1.0


@pytest.mark.parametrize("weights", [[0.0, 1.0], [-0.1, 1.1], [np.nan, 1.0]])
def test_bad_weights_rejected(weights):
    with pytest.raises(ValueError):
        _measure([[0.0], [1.0]], weights)


def test_empty_measure_rejected():
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=np.zeros((0, 1)), weights=np.zeros(0))


def test_total_and_normalized():
    mu = _measure([[0.0], [1.0]], [1.0, 3.0])
    assert mu.total == 4.0
    assert not mu.is_probability()
    nu = mu.normalized()
    assert nu.is_probability()
    np.testing.assert_allclose(nu.weights, [0.25, 0.75])


def test_atoms_are_read_only():
    mu = _measure([[0.0]], [1.0])
    with pytest.raises(ValueError):
        mu.atoms[0, 0] = 5.0


# ---------------------------------------------------------------------------
# convolve / translate / mix
# ---------------------------------------------------------------------------


def test_convolve_two_coins():
    # (d0 + d1)/2 * (d0 + d1)/2 = binomial(2, 1/2) on {0, 1, 2}
    coin = _measure([[0.0], [1.0]], [0.5, 0.5])
    out = convolve(coin, coin)
    np.testing.assert_array_equal(out.atoms.ravel(), [0.0, 1.0, 2.0])
    np.testing.assert_allclose(out.weights, [0.25, 0.5, 0.25])


def test_convolve_with_dirac_translates():
    mu = _measure([[0.0], [0.25]], [0.4, 0.6])
    out = convolve(mu, dirac([5.0]))
    np.testing.assert_array_equal(out.atoms.ravel(), [5.0, 5.25])
    np.testing.assert_allclose(out.weights, mu.weights)


def test_translate_follows_defining_identity():
    # (mu + x)(E) = mu(E + x): the atom of a point mass at 0 moves to -x.
    out = translate(dirac([0.0]), np.array([2.0]))
    np.testing.assert_array_equal(out.atoms.ravel(), [-2.0])


def test_translate_round_trip():
    rng = np.random.default_rng(5)
    mu = _random_prob(rng, dim=2)
    x = np.array([0.5, -1.5])
    back = translate(translate(mu, x), -x)
    # (a - x) + x is not bitwise a in floats, so allow half-ulp dust
    np.testing.assert_allclose(back.atoms, mu.atoms, atol=1e-15)
    np.testing.assert_allclose(back.weights, mu.weights)


def test_mix_totals_and_edges():
    mu = _measure([[0.0]], [1.0])
    nu = _measure([[1.0]], [1.0])
    half = mix(mu, nu, 0.5)
    np.testing.assert_allclose(half.weights, [0.5, 0.5])
    np.testing.assert_array_equal(mix(mu, nu, 1.0).atoms, mu.atoms)
    np.testing.assert_array_equal(mix(mu, nu, 0.0).atoms, nu.atoms)
    with pytest.raises(ValueError):
        mix(mu, nu, 1.5)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        convolve(dirac([0.0]), dirac([0.0, 0.0]))


# ---------------------------------------------------------------------------
# transport metric
# ---------------------------------------------------------------------------


def test_dl_known_values():
    assert dl(dirac([0.0]), dirac([1.0])) == 1.0
    mu = _measure([[0.0], [1.0]], [0.5, 0.5])
    nu = _measure([[0.5]], [1.0])
    assert dl(mu, nu) == 0.5
    assert dl(mu, mu) == 0.0


def test_dl_requires_probability():
    mu = _measure([[0.0]], [2.0])
    with pytest.raises(NotNormalized):
        dl(mu, dirac([0.0]))


def test_dl_matches_lp_oracle_1d():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(60):
        mu, nu = _random_prob(rng), _random_prob(rng)
        worst = max(worst, abs(dl(mu, nu) - _lp_transport(mu, nu)))
    assert worst < 1e-9, worst


def test_dl_matches_lp_oracle_2d():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(40):
        mu, nu = _random_prob(rng, k_max=6, dim=2), _random_prob(rng, k_max=6, dim=2)
        worst = max(worst, abs(dl(mu, nu) - _lp_transport(mu, nu)))
    assert worst < 1e-9, worst


def test_dl_matches_assignment_oracle_2d():
    # Between equal-weight k-atom clouds some optimal coupling is a
    # permutation (Birkhoff), so W1 is the assignment cost divided by k.
    rng = np.random.default_rng(909)
    for k in (1, 2, 5, 12, 30):
        a, b = rng.uniform(-1.0, 1.0, size=(2, k, 2))
        mu, nu = _measure(a, np.full(k, 1.0 / k)), _measure(b, np.full(k, 1.0 / k))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        assert abs(dl(mu, nu) - cost[rows, cols].sum() / k) < 1e-12


def test_dl_network_agrees_with_cdf_route_in_1d():
    # Both internal routes must agree on 1-d inputs; exercises the R^m
    # transport LP on problems where the CDF formula is exact.
    from qdim.measures import _dl_sorted_cdf, _dl_transport_lp

    rng = np.random.default_rng(303)
    for _ in range(40):
        mu, nu = _random_prob(rng), _random_prob(rng)
        assert abs(_dl_transport_lp(mu, nu) - _dl_sorted_cdf(mu, nu)) < 1e-12


def test_dl_refuses_a_broken_certificate(monkeypatch):
    # Duals shifted up by 1 violate u_i + v_j <= C_ij: the value must be
    # refused, not returned.
    solve = measures.linprog

    def shifted_duals(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.eqlin.marginals = res.eqlin.marginals + 1.0
        return res

    monkeypatch.setattr(measures, "linprog", shifted_duals)
    rng = np.random.default_rng(111)
    with pytest.raises(RuntimeError, match="certificate"):
        dl(_random_prob(rng, dim=2), _random_prob(rng, dim=2))


def test_dl_symmetry_and_triangle():
    rng = np.random.default_rng(404)
    for _ in range(20):
        a, b, c = (_random_prob(rng, dim=2) for _ in range(3))
        assert abs(dl(a, b) - dl(b, a)) < 1e-12
        assert dl(a, c) <= dl(a, b) + dl(b, c) + 1e-9


def test_dl_translation_invariance():
    rng = np.random.default_rng(505)
    mu, nu = _random_prob(rng), _random_prob(rng)
    x = np.array([3.25])
    assert abs(dl(translate(mu, x), translate(nu, x)) - dl(mu, nu)) < 1e-9


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------


def test_tv_known_values():
    mu = _measure([[0.0], [1.0]], [0.5, 0.5])
    nu = _measure([[0.5]], [1.0])
    assert tv(mu, nu) == 1.0  # disjoint supports
    assert tv(mu, mu) == 0.0
    third = _measure([[0.0], [1.0]], [0.25, 0.75])
    assert tv(mu, third) == 0.25


def test_tv_matches_subset_enumeration_exactly():
    rng = np.random.default_rng(606)
    for _ in range(10):
        support = np.sort(rng.choice(40, size=10, replace=False)).astype(float)
        a = rng.multinomial(4096, np.full(10, 0.1)) / 4096.0
        b = rng.multinomial(4096, np.full(10, 0.1)) / 4096.0
        mu = DiscreteMeasure(atoms=support[a > 0, None], weights=a[a > 0])
        nu = DiscreteMeasure(atoms=support[b > 0, None], weights=b[b > 0])
        diffs = a - b
        best = 0.0
        for k in range(1, 11):
            for sel in combinations(range(10), k):
                best = max(best, abs(math.fsum(diffs[list(sel)])))
        assert tv(mu, nu) == best


# ---------------------------------------------------------------------------
# box mass
# ---------------------------------------------------------------------------


def test_box_mass_half_open_convention():
    mu = _measure([[0.0], [0.5], [1.0]], [0.2, 0.3, 0.5])
    box = Box(np.array([0.0]), np.array([1.0]))
    # atoms on the upper face are excluded, lower face included
    assert box_mass(mu, box) == 0.5
    assert box_mass(mu, Box(np.array([0.0]), np.array([1.5]))) == 1.0


def test_box_mass_on_point_clouds():
    pts = np.array([[0.1], [0.2], [0.9]])
    box = Box(np.array([0.0]), np.array([0.5]))
    assert box_mass(pts, box) == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(707)
    mu = _random_prob(rng, dim=3)
    back = measure_from_csv(measure_to_csv(mu))
    np.testing.assert_array_equal(back.atoms, mu.atoms)
    np.testing.assert_array_equal(back.weights, mu.weights)


def test_csv_header_names_coordinates():
    mu = _measure([[0.0, 1.0]], [1.0])
    assert measure_to_csv(mu).splitlines()[0] == "x1,x2,weight"


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(808)
    mu = _random_prob(rng, dim=2)
    obj = json.loads(json.dumps(measure_to_json_obj(mu)))
    back = measure_from_json_obj(obj)
    np.testing.assert_array_equal(back.atoms, mu.atoms)
    np.testing.assert_array_equal(back.weights, mu.weights)


def test_hausdorff_distance_empty_input():
    from qdim.geometry import hausdorff_distance

    with pytest.raises(EmptySet):
        hausdorff_distance(np.zeros((0, 1)), np.array([[0.0]]))
