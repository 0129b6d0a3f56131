"""Discrete measures: construction, arithmetic, metrics, serialization.

The transport metric is checked against independent oracles: the
production code (sorted-CDF formula in 1-d, a certified HiGHS transport LP
otherwise) against a brute-force linear program assembled here from
scratch, and in R^2 against an optimal assignment, which solves the
transport problem between equal-weight clouds of the same size.  Total
variation is checked against full subset enumeration with dyadic weights
so the agreement is exact, not approximate, and against the per-atom dict
form it replaced.
"""

import json
import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from qdim import measures
from qdim.cli import main
from qdim.errors import DimensionError, NotNormalized
from qdim.geometry import Box
from qdim.ifs import WIFS, Similitude, hutchinson_push
from qdim.measures import (
    DiscreteMeasure,
    box_mass,
    convolve,
    dl,
    measure_from_csv,
    measure_from_json_obj,
    measure_to_csv,
    measure_to_json_obj,
    mix,
    translate,
    tv,
)

import per_word


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


def test_merged_weights_that_overflow_are_refused():
    with pytest.raises(ValueError, match="overflow"):
        DiscreteMeasure([[0.0], [0.0]], [1.7976931348623157e308, 1.7976931348623157e308])


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
    nu = _measure([[0.0], [1.0]], mu.weights / mu.total)
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
    out = convolve(mu, DiscreteMeasure([[5.0]], [1.0]))
    np.testing.assert_array_equal(out.atoms.ravel(), [5.0, 5.25])
    np.testing.assert_allclose(out.weights, mu.weights)


def test_translate_follows_defining_identity():
    # (mu + x)(E) = mu(E + x): the atom of a point mass at 0 moves to -x.
    out = translate(DiscreteMeasure([[0.0]], [1.0]), np.array([2.0]))
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
        convolve(DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[0.0, 0.0]], [1.0]))


# ---------------------------------------------------------------------------
# transport metric
# ---------------------------------------------------------------------------


def test_dl_known_values():
    assert dl(DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[1.0]], [1.0])) == 1.0
    mu = _measure([[0.0], [1.0]], [0.5, 0.5])
    nu = _measure([[0.5]], [1.0])
    assert dl(mu, nu) == 0.5
    assert dl(mu, mu) == 0.0


def test_dl_of_one_shared_atom_is_zero():
    # the merged grid holds one point, so there is no interval to integrate
    assert dl(DiscreteMeasure([[0.25]], [1.0]), DiscreteMeasure([[0.25]], [1.0])) == 0.0


def test_dl_requires_probability():
    mu = _measure([[0.0]], [2.0])
    with pytest.raises(NotNormalized):
        dl(mu, DiscreteMeasure([[0.0]], [1.0]))


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


def test_dl_certifies_a_plan_whose_solver_duals_miss_feasibility():
    # Level-3 iterates of the rotated dust from two nearby start points: the
    # interior-point column duals break u_i + v_j <= C_ij by 4.2e-9 while the
    # gap is 2e-17.  Their c-transform certifies the plan.
    eye, rot = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    dust = WIFS(maps=tuple(Similitude(1 / 3, iso, np.array(t)) for iso, t in
                           [(eye, [0.0, 0.0]), (eye, [2 / 3, 0.0]), (rot, [1 / 3, 2 / 3]),
                            (eye, [2 / 3, 2 / 3])]),
                probs=(0.4, 0.3, 0.2, 0.1))
    mu, nu = (_measure(np.array([start]), np.array([1.0]))
              for start in ([0.3134813224891122, 0.02952447893215915],
                            [0.3131252626823864, 0.4699384817174732]))
    for _ in range(3):
        mu, nu = hutchinson_push(mu, dust), hutchinson_push(nu, dust)
    assert mu.atoms.shape == nu.atoms.shape == (64, 2)
    assert abs(dl(mu, nu) - _lp_transport(mu, nu)) < 1e-9


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


def test_tv_matches_the_per_atom_dict_form():
    rng = np.random.default_rng(909)
    pool = np.array([-0.0, 0.0, 0.5, -1.0, 1 / 3, 1e-300])
    for k in range(300):
        dim = 1 + k % 3
        mu, nu = (DiscreteMeasure(rng.choice(pool, size=(n, dim)), rng.uniform(0.01, 1.0, size=n))
                  for n in rng.integers(1, 16, size=2))
        assert tv(mu, nu) == per_word.tv(mu, nu) and tv(nu, mu) == per_word.tv(nu, mu)
        assert tv(mu, mu) == 0.0
    mu, nu = per_word.cantor_iterate(0.37, 12), per_word.cantor_iterate(0.61, 12)
    assert tv(mu, nu) == per_word.tv(mu, nu) > 0.0


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
    # a flat array is a cloud of points on the line
    assert box_mass(pts[:, 0], box) == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_EDGE_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1, 1 / 3, -2.5e-300]
_EDGE_WEIGHTS = [5e-324, 1e-5, 1e16, 0.1, 1 / 3]


def _edge_measure(rng, dim: int) -> DiscreteMeasure:
    vals = np.array(_EDGE_FLOATS)
    atoms = np.concatenate([np.tile(vals[:, None], (1, dim)), rng.choice(vals, size=(12, dim)),
                            rng.normal(size=(12, dim))])
    weights = rng.choice(np.array(_EDGE_WEIGHTS), size=atoms.shape[0])
    weights[0] = 1.7976931348623157e308  # merged duplicates still sum below the overflow
    return DiscreteMeasure(atoms, weights)


def _same_bits(a: DiscreteMeasure, b: DiscreteMeasure) -> bool:
    return (a.atoms.shape == b.atoms.shape and a.atoms.tobytes() == b.atoms.tobytes()
            and a.weights.tobytes() == b.weights.tobytes())


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(707)
    for mu in [_random_prob(rng, dim=3)] + [_edge_measure(rng, dim) for dim in (1, 2, 3)]:
        assert _same_bits(measure_from_csv(measure_to_csv(mu)), mu)


def test_csv_header_names_coordinates():
    mu = _measure([[0.0, 1.0]], [1.0])
    assert measure_to_csv(mu).splitlines()[0] == "x1,x2,weight"


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(808)
    for mu in [_random_prob(rng, dim=2)] + [_edge_measure(rng, dim) for dim in (1, 2, 3)]:
        obj = json.loads(json.dumps(measure_to_json_obj(mu)))
        assert _same_bits(measure_from_json_obj(obj), mu)


def _distinct_2d() -> DiscreteMeasure:
    rng = np.random.default_rng(2)
    return DiscreteMeasure(rng.normal(size=(20_000, 2)), rng.uniform(0.1, 1.0, size=20_000))


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda dim=dim: _edge_measure(np.random.default_rng(dim), dim), id=str(dim))
      for dim in (1, 2, 3)),
    pytest.param(lambda: per_word.cantor_iterate(0.37, 16), id="cantor-level-16"),
    pytest.param(_distinct_2d, id="all-distinct-2d"),
])
def test_csv_writer_matches_a_per_row_formatter(make):
    mu = make()
    # as lists of lines, so a failure names the first differing row instead of diffing 2^16 lines
    assert measure_to_csv(mu).split("\n") == per_word.csv_per_row(mu).split("\n")


def test_csv_writer_formats_the_edge_floats_at_shortest_length():
    text = measure_to_csv(_edge_measure(np.random.default_rng(1), 1))
    assert "5e-324" in text and "1.7976931348623157e+308" in text and "1e-05" in text
    assert "-0.0" not in text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(st.lists(st.sampled_from(_EDGE_FLOATS), min_size=dim, max_size=dim),
              st.sampled_from(_EDGE_WEIGHTS)), min_size=1, max_size=12)))
def test_csv_writer_on_repeated_edge_floats(rows):
    mu = DiscreteMeasure([atom for atom, _ in rows], [w for _, w in rows])
    text = measure_to_csv(mu)
    assert text == per_word.csv_per_row(mu)
    assert _same_bits(measure_from_csv(text), mu)


def test_json_writer_matches_a_per_row_formatter():
    mu = _edge_measure(np.random.default_rng(4), 2)
    ref = {"atoms": [{"location": [float(c) for c in row], "weight": float(w)}
                     for row, w in zip(mu.atoms, mu.weights)]}
    assert json.dumps(measure_to_json_obj(mu)) == json.dumps(ref)


_MALFORMED_CSV = [
    ("", "header"),
    ("x1,mass\n0.5,1.0\n", "header"),
    ("x1,weight\n", "no atom rows"),
    ("x1,weight\n0.5,0.5\n0.25,0.25,1\n", "columns"),
    ("x1,weight\n0.5,abc\n", "abc"),
    ("x1,weight\n0.5,\n", "convert"),
    ("weight\n0.5\n", "coordinate column"),
    # by their rows alone, a 1-d and a 2-d atom
    ("x1,x2,weight\n0.5,1.0\n", "header has 3 columns, its rows 2"),
    ("x1,weight\n0.5,1.0,2.0\n", "header has 2 columns, its rows 3"),
    ("x1,weight\nnan,1.0\n", "finite"),
    ("x1,weight\n0.5,inf\n", "finite"),
]


@pytest.mark.parametrize("text,match", _MALFORMED_CSV)
def test_csv_reader_refuses_malformed_text(text, match):
    with pytest.raises(ValueError, match=match):
        measure_from_csv(text)


@pytest.mark.parametrize("text,match", _MALFORMED_CSV)
def test_csv_file_reader_refuses_malformed_text_as_the_text_reader_does(tmp_path, capsys,
                                                                        text, match):
    # An open file is parsed line by line, with the text reader's message,
    # and the CLI refuses it as invalid input in the option that named it.
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text(text)
    good.write_text("x1,weight\n0.5,1.0\n")
    with pytest.raises(ValueError, match=match) as want:
        measure_from_csv(text)
    with bad.open(encoding="utf-8") as f, pytest.raises(ValueError) as got:
        measure_from_csv(f)
    assert str(got.value) == str(want.value)
    for field, a, b in (("a", bad, good), ("b", good, bad)):
        assert main(["measure", "--op", "tv", "--a", str(a), "--b", str(b)]) == 2
        assert capsys.readouterr().err == f"error: {field}: {str(bad)!r}: {want.value}\n"


@pytest.mark.parametrize("text", ["x1,weight\n", "x1,x2,weight\r\n\r\n  \n", "\n\n x1,weight \n\t\n"])
def test_csv_reader_of_a_header_alone_has_no_atom_rows_and_no_warning(tmp_path, text):
    path = tmp_path / "mu.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on input without data
        with pytest.raises(ValueError, match="no atom rows"):
            measure_from_csv(text)
        with path.open(encoding="utf-8") as f, pytest.raises(ValueError, match="no atom rows"):
            measure_from_csv(f)


def test_csv_reader_takes_crlf_and_padded_fields():
    mu = measure_from_csv("x1,x2,weight\r\n 0.5 , 1.5,0.25\r\n0.0,1.0, 0.75\r\n")
    assert mu.atoms.tolist() == [[0.0, 1.0], [0.5, 1.5]]
    assert mu.weights.tolist() == [0.75, 0.25]


@pytest.mark.parametrize("text", [
    "x1,x2,weight\r\n 0.5 , 1.5,0.25\r\n0.0,1.0, 0.75\r\n",
    "\n\n  \n x1,x2,weight\n\n0.0,1.0,0.75\n0.5, 1.5 ,0.25   \n  \n\n",
])
def test_csv_file_reader_takes_crlf_padded_fields_and_blank_lines(tmp_path, text):
    path = tmp_path / "mu.csv"
    path.write_bytes(text.encode())
    with path.open(encoding="utf-8") as f:
        read = measure_from_csv(f)
    for mu in (measure_from_csv(text), read):
        assert mu.atoms.tolist() == [[0.0, 1.0], [0.5, 1.5]]
        assert mu.weights.tolist() == [0.75, 0.25]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rows", [-1, 0, 1, "2B+1"], ids=["B-1", "B", "B+1", "2B+1"])
def test_csv_writer_blocks_match_a_per_row_formatter(dim, rows):
    # Coordinates and weights repeat across block boundaries, and each
    # block formats its own distinct values.
    block = measures._CSV_BLOCK_ROWS
    k = 2 * block + 1 if rows == "2B+1" else block + rows
    rng = np.random.default_rng(k + dim)
    atoms = rng.choice(rng.normal(size=5), size=(k, dim))
    atoms[:, 0] = np.arange(k) / 3.0  # distinct rows, so none merge
    mu = DiscreteMeasure(atoms, rng.choice([0.1, 1 / 3, 1e-5, 2.5], size=k))
    pieces = list(measures._csv_blocks(mu))
    assert [piece.count("\n") for piece in pieces[1:]] == [
        min(block, k - lo) for lo in range(0, k, block)]
    assert "".join(pieces) == measure_to_csv(mu)
    assert measure_to_csv(mu).split("\n") == per_word.csv_per_row(mu).split("\n")


def test_csv_writer_peaks_below_two_and_a_half_times_its_text():
    # Row blocks keep the writer's transient small: the text, and the
    # blocks it is joined from, dominate.
    mu = per_word.cantor_iterate(0.37, 16)
    tracemalloc.start()
    try:
        text = measure_to_csv(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize("obj", [
    [], {}, {"atoms": []}, {"atoms": [1.0]}, {"atoms": [{"location": [0.5]}]},
    {"atoms": [{"location": None, "weight": 1.0}]},
    {"atoms": [{"location": [0.5], "weight": 1.0}, {"location": [0.5, 1.0], "weight": 1.0}]},
    {"atoms": [{"location": [float("nan")], "weight": 1.0}]},
])
def test_json_reader_refuses_malformed_objects(obj):
    with pytest.raises(ValueError):
        measure_from_json_obj(obj)


def _dl_on_columns(mu, nu):
    """The 1-d ``dl`` as it was written before it worked in place: each CDF,
    the steps and every intermediate in a buffer of its own."""
    grid = np.unique(np.concatenate([mu.atoms[:, 0], nu.atoms[:, 0]]))
    if grid.shape[0] == 1:
        return 0.0
    cdfs = []
    for m in (mu, nu):
        masses = np.zeros(grid.shape[0])
        np.add.at(masses, np.searchsorted(grid, m.atoms[:, 0]), m.weights)
        cdfs.append(np.cumsum(masses))
    return float(np.sum(np.abs(cdfs[0][:-1] - cdfs[1][:-1]) * np.diff(grid)))


def test_line_dl_equals_its_column_form_bit_for_bit():
    rng = np.random.default_rng(2026)
    for _ in range(50):
        pool = rng.normal(size=int(rng.integers(1, 400)))
        mu, nu = (DiscreteMeasure(rng.choice(pool, size=k), rng.uniform(0.1, 1.0, size=k))
                  for k in rng.integers(1, 300, size=2))
        mu, nu = (DiscreteMeasure(m.atoms, m.weights / m.total) for m in (mu, nu))
        assert dl(mu, nu) == _dl_on_columns(mu, nu)
    mu, nu = per_word.cantor_iterate(0.37, 14), per_word.cantor_iterate(0.61, 14, x=0.7)
    assert dl(mu, nu) == _dl_on_columns(mu, nu)
