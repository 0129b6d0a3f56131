"""Similitudes, word composition, sub-systems, hulls, and serialization.

The composition convention is the load-bearing contract here: a word acts
with its rightmost symbol first, so the word "21" composes to f2 o f1.
Several tests pin that down with hand-computed images before the property
tests take over.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdim.errors import EmptySelection, InvalidWord, NotStrictSubset, QdimError
from qdim.ifs import (
    WIFS,
    Similitude,
    Word,
    _word_weights,
    attractor_hull,
    box_images,
    build_sub_wifs,
    compose_words,
    hutchinson_push,
    point_images,
    similitude_1d,
    stack_maps,
    wifs_from_json_obj,
    wifs_to_json_obj,
)
from qdim.instances import cantor, four_fifths_shifted, quarter_maps
from qdim.measures import DiscreteMeasure

import per_word


# ---------------------------------------------------------------------------
# similitudes
# ---------------------------------------------------------------------------


def _image(f, points):
    """One map's image of points (n, m), through a one-row point_images call."""
    return point_images(*stack_maps([f]), points)[0]


def test_apply_is_affine_with_ratio():
    f = similitude_1d(0.25, 0.75)
    x = np.array([[0.0], [1.0], [-2.0]])
    np.testing.assert_allclose(_image(f, x), [[0.75], [1.0], [0.25]])


def test_similarity_ratio_holds_in_2d():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    f = Similitude(scale=0.6, isometry=rot, translation=np.array([1.0, -1.0]))
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 2))
    lhs = np.linalg.norm(_image(f, x[None])[0] - _image(f, y[None])[0])
    assert lhs == pytest.approx(0.6 * np.linalg.norm(x - y), rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1.5, 0.0, -0.5, math.nan])
def test_similitude_requires_a_scale_in_the_open_unit_interval(scale):
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\)"):
        Similitude(scale, np.eye(1), np.zeros(1))


def test_non_orthogonal_isometry_rejected():
    with pytest.raises(ValueError):
        Similitude(scale=0.5, isometry=np.array([[1.0, 0.5], [0.0, 1.0]]),
                   translation=np.zeros(2))


def test_orientation_flag():
    # orientation -1 reverses the line: f(x) = -0.5 x + 1 sends 0 to 1 and 1 to 1/2
    assert similitude_1d(0.5, 0.0).isometry.tolist() == [[1.0]]
    f = similitude_1d(0.5, 1.0, orientation=-1)
    assert f.isometry.tolist() == [[-1.0]]
    np.testing.assert_array_equal(_image(f, np.array([[0.0], [1.0]])), [[1.0], [0.5]])
    with pytest.raises(ValueError):
        similitude_1d(0.5, 0.0, orientation=0)


def test_compose_scales_multiply():
    f = similitude_1d(0.5, 1.0)
    g = similitude_1d(0.25, -1.0)
    scale, lin, tr = compose_words(WIFS(maps=(f, g), probs=(0.5, 0.5)), [[1, 2]])  # f o g
    assert scale[0] == 0.125
    x = np.array([[0.3]])
    np.testing.assert_allclose(point_images(scale, lin, tr, x)[0], _image(f, _image(g, x)))


# ---------------------------------------------------------------------------
# words and the composition convention
# ---------------------------------------------------------------------------


def test_word_parse_forms():
    assert Word.parse("213").symbols == (2, 1, 3)
    assert Word.parse("2,1,3").symbols == (2, 1, 3)
    assert str(Word.parse("213")) == "213"
    assert len(Word.parse("11") + Word.parse("2")) == 3
    assert Word.parse("").symbols == ()  # empty text is the empty word
    # a symbol above 9 switches to dots; one symbol alone takes a trailing dot
    assert str(Word((12,))) == "12." and Word.parse("12.").symbols == (12,)
    assert str(Word((1, 12))) == "1.12" and Word.parse("1.12").symbols == (1, 12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 99), max_size=6))
def test_word_text_round_trips(symbols):
    text = str(Word(tuple(symbols)))
    assert "," not in text  # check-sep --words splits its list on commas
    assert Word.parse(text).symbols == tuple(symbols)


@pytest.mark.parametrize("bad", ["0", "a", "1,0", "-2"])
def test_word_parse_rejects(bad):
    with pytest.raises((InvalidWord, ValueError)):
        Word.parse(bad)


def test_compose_word_cantor_12():
    # "12" = f1 o f2: x -> (x/3 + 2/3)/3 = x/9 + 2/9
    scale, _, tr = compose_words(cantor(), [Word.parse("12").symbols])
    assert scale[0] == pytest.approx(1.0 / 9.0, rel=1e-15)
    assert tr[0, 0] == pytest.approx(2.0 / 9.0, rel=1e-15)


def test_compose_word_quarter_21():
    # "21" = f2 o f1: x -> (x/4)/4 + 0.2 = x/16 + 0.2 -- rightmost acts first
    scale, _, tr = compose_words(quarter_maps(0.2), [Word.parse("21").symbols])
    assert scale[0] == 0.0625
    assert tr[0, 0] == 0.2


def test_compose_word_matches_sequential_application():
    rng = np.random.default_rng(7)
    w = quarter_maps(0.3)
    pts = rng.uniform(size=(5, 1))
    for _ in range(20):
        length = int(rng.integers(1, 5))
        syms = tuple(int(s) for s in rng.integers(1, 4, size=length))
        expected = pts
        for s in reversed(syms):  # rightmost symbol acts first
            f = w.maps[s - 1]
            expected = per_word.apply(f.scale, f.isometry, f.translation, expected)
        np.testing.assert_allclose(point_images(*compose_words(w, [syms]), pts)[0], expected, atol=1e-14)


def test_empty_word_is_identity():
    # the empty word composes to scale 1: a row of compose_words, not a Similitude
    scale, lin, tr = compose_words(cantor(), np.zeros((1, 0), dtype=int))
    assert scale.tolist() == [1.0]
    np.testing.assert_array_equal(point_images(scale, lin, tr, np.array([[0.37]]))[0], [[0.37]])


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _orthogonal_3d(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _batch_systems():
    rng = np.random.default_rng(2024)
    yield "1-d reflections", WIFS(
        maps=(similitude_1d(0.4, 0.1), similitude_1d(0.3, 0.9, -1), similitude_1d(0.35, 0.55, -1)),
        probs=(0.2, 0.3, 0.5))
    for name, isos in (("90-degree rotation", [np.eye(2), np.eye(2), _rotation(np.pi / 2), np.eye(2)]),
                       ("0.7 rad rotation", [_rotation(0.7), np.eye(2), _rotation(-0.7)])):
        maps = tuple(Similitude(0.3 + 0.05 * k, iso, rng.uniform(0.0, 1.0, size=2))
                     for k, iso in enumerate(isos))
        yield name, WIFS(maps=maps, probs=np.full(len(maps), 1.0 / len(maps)))
    maps = tuple(Similitude(0.2 + 0.05 * k, _orthogonal_3d(rng), rng.uniform(-1.0, 1.0, size=3))
                 for k in range(3))
    yield "R^3 orthogonal maps", WIFS(maps=maps, probs=(0.2, 0.3, 0.5))


@pytest.mark.parametrize("name", ["1-d reflections", "90-degree rotation", "0.7 rad rotation",
                                  "R^3 orthogonal maps"])
def test_compose_words_equals_the_per_word_fold_bit_for_bit(name):
    # tobytes compares bit patterns, so signed zeros must match as well
    w = dict(_batch_systems())[name]
    hull = attractor_hull(w)
    for suffix in ((), (2, 1)):
        for level in range(4):
            words = [p + suffix for p in itertools.product(range(1, w.n_maps + 1), repeat=level)]
            scale, lin, tr = compose_words(w, np.array(words, dtype=int).reshape(len(words), -1))
            lo, hi = box_images(scale, lin, tr, hull)
            for k, word in enumerate(words):
                ref = per_word.fold_word(w, word)
                ref_lo, ref_hi = per_word.box_image(*ref, hull)
                assert np.float64(ref[0]).tobytes() == scale[k].tobytes(), word
                assert ref[1].tobytes() == lin[k].tobytes(), word
                assert ref[2].tobytes() == tr[k].tobytes(), word
                assert ref_lo.tobytes() == lo[k].tobytes() and ref_hi.tobytes() == hi[k].tobytes(), word
                one = compose_words(w, np.reshape(word, (1, len(word))))
                assert one[1].tobytes() == lin[k:k + 1].tobytes() and one[2].tobytes() == tr[k:k + 1].tobytes()
                one_lo, one_hi = box_images(*one, hull)
                assert one_lo.tobytes() == lo[k].tobytes() and one_hi.tobytes() == hi[k].tobytes()


@pytest.mark.parametrize("name", ["1-d reflections", "90-degree rotation", "0.7 rad rotation",
                                  "R^3 orthogonal maps"])
def test_right_padded_words_equal_their_unpadded_rows_bit_for_bit(name):
    # a ragged list of words, right-padded with 0, composes in one call
    w = dict(_batch_systems())[name]
    words = [p for level in range(5) for p in itertools.product(range(1, w.n_maps + 1), repeat=level)]
    symbols = np.array([word + (0,) * (5 - len(word)) for word in words])
    scale, lin, tr = compose_words(w, symbols)
    weights = _word_weights(w, symbols)
    for level in range(5):
        same = [k for k, word in enumerate(words) if len(word) == level]
        ref = compose_words(w, symbols[same, :level])
        assert scale[same].tobytes() == ref[0].tobytes(), level
        assert lin[same].tobytes() == ref[1].tobytes(), level
        assert tr[same].tobytes() == ref[2].tobytes(), level
        # padding weighs 1: each weight is the unpadded word's product
        ref_weights = np.array([per_word.word_weight(w, words[k]) for k in same])
        assert weights[same].tobytes() == ref_weights.tobytes(), level


def test_compose_words_refuses_symbols_outside_the_maps():
    w = cantor()
    for bad in ([[1, 3]], [[0, 1]], [[2], [-1]], [[1, 0, 2]]):
        with pytest.raises(InvalidWord):
            compose_words(w, bad)


def test_word_weight():
    # the sub-system's weights column holds the parent word weights p_w
    w = WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.25, 0.5)), probs=(0.3, 0.7))
    sub = build_sub_wifs(w, 1, Word.parse("1"), [Word.parse("2")])
    assert sub.weights.tolist() == [0.21] and sub.probs.tolist() == [1.0]
    with pytest.raises(InvalidWord):
        build_sub_wifs(w, 1, Word(), [Word.parse("3")])


@pytest.mark.parametrize("name", ["1-d reflections", "90-degree rotation", "0.7 rad rotation",
                                  "R^3 orthogonal maps"])
def test_weights_equal_the_left_to_right_product_bit_for_bit(name):
    w = dict(_batch_systems())[name]
    for suffix in (Word(), Word.parse("21")):
        for level in (1, 2, 3):
            words = [Word(p) for p in itertools.product(range(1, w.n_maps + 1), repeat=level)][1:]
            sub = build_sub_wifs(w, level, suffix, words)
            ref = np.array([per_word.word_weight(w, (word + suffix).symbols) for word in words])
            assert sub.weights.tobytes() == ref.tobytes(), (level, str(suffix))
            assert sub.probs.tobytes() == (ref / math.fsum(ref.tolist())).tobytes()


@pytest.mark.parametrize("name", ["1-d reflections", "90-degree rotation", "0.7 rad rotation",
                                  "R^3 orthogonal maps"])
def test_one_image_call_equals_the_per_map_images_bit_for_bit(name):
    # the hull's invariance check and the separation checks image a whole
    # family in one box_images call
    w = dict(_batch_systems())[name]
    hull = attractor_hull(w)
    level2 = list(itertools.product(range(1, w.n_maps + 1), repeat=2))
    for maps in (w.maps, list(map(Similitude, *compose_words(w, level2)))):
        lo, hi = box_images(*stack_maps(maps), hull)
        for k, (ref_lo, ref_hi) in enumerate(per_word.map_images(maps, hull)):
            assert ref_lo.tobytes() == lo[k].tobytes() and ref_hi.tobytes() == hi[k].tobytes(), k


@pytest.mark.parametrize("name", ["1-d reflections", "90-degree rotation", "0.7 rad rotation",
                                  "R^3 orthogonal maps"])
@pytest.mark.parametrize("n", [1, 2 ** 16])
def test_point_images_equal_the_per_map_images_bit_for_bit(name, n):
    w = dict(_batch_systems())[name]
    points = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, w.dim))
    images = point_images(*stack_maps(w.maps), points)
    assert images.shape == (w.n_maps, n, w.dim)
    for k, f in enumerate(w.maps):
        assert per_word.apply(f.scale, f.isometry, f.translation, points).tobytes() == images[k].tobytes(), k
    # one point as a (1, m) row, as the box centre and a* are mapped
    one = point_images(*stack_maps(w.maps), points[0][None])[:, 0]
    for k, f in enumerate(w.maps):
        assert per_word.apply(f.scale, f.isometry, f.translation, points[0]).tobytes() == one[k].tobytes(), k


# ---------------------------------------------------------------------------
# WIFS validation
# ---------------------------------------------------------------------------


def test_wifs_requires_probability_vector():
    with pytest.raises(ValueError):
        WIFS(maps=(similitude_1d(0.5, 0.0),), probs=(0.9,))


def test_wifs_rejects_expansive_map():
    with pytest.raises(ValueError):
        WIFS(maps=(Similitude(scale=1.0, isometry=np.eye(1), translation=np.zeros(1)),),
             probs=(1.0,))


@pytest.mark.parametrize("probs", [(math.nan, 0.5), (math.nan, math.nan), (0.5, math.nan)])
def test_wifs_rejects_nan_probabilities(probs):
    with pytest.raises(ValueError, match="sum to nan"):
        WIFS(maps=cantor().maps, probs=probs)


def test_wifs_rejects_mixed_dimensions():
    f1 = similitude_1d(0.5, 0.0)
    f2 = Similitude(scale=0.5, isometry=np.eye(2), translation=np.zeros(2))
    with pytest.raises(ValueError):
        WIFS(maps=(f1, f2), probs=(0.5, 0.5))


# ---------------------------------------------------------------------------
# attractor hull
# ---------------------------------------------------------------------------


def test_hull_cantor_is_unit_interval_exactly():
    h = attractor_hull(cantor())
    assert float(h.lo[0]) == 0.0
    assert float(h.hi[0]) == 1.0


def test_hull_shifted_system():
    h = attractor_hull(four_fifths_shifted())
    assert float(h.lo[0]) == pytest.approx(2.0, abs=1e-12)
    assert float(h.hi[0]) == pytest.approx(3.0, abs=1e-12)


def test_hull_equals_extreme_fixed_points_in_1d():
    # For orientation-preserving 1-d maps the attractor's endpoints are the
    # extreme fixed points: min A solves x = min_i f_i(x).
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        maps = tuple(similitude_1d(float(s), float(t))
                     for s, t in zip(rng.uniform(0.1, 0.6, n), rng.uniform(-1.0, 1.0, n)))
        w = WIFS(maps=maps, probs=tuple([1.0 / n] * n))
        fixes = [float(f.translation[0]) / (1.0 - f.scale) for f in maps]  # x = s x + t
        h = attractor_hull(w)
        assert float(h.lo[0]) == pytest.approx(min(fixes), abs=1e-10)
        assert float(h.hi[0]) == pytest.approx(max(fixes), abs=1e-10)


def test_hull_is_invariant_in_2d():
    th = np.pi / 3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    w = WIFS(maps=(Similitude(scale=0.5, isometry=rot, translation=np.zeros(2)),
                   Similitude(scale=0.3, isometry=np.eye(2), translation=np.array([1.0, 0.5]))),
             probs=(0.5, 0.5))
    h = attractor_hull(w)
    lo, hi = box_images(*stack_maps(w.maps), h)
    assert np.all(lo >= h.lo - 1e-9) and np.all(hi <= h.hi + 1e-9)


def _signed_permutations(m):
    out = []
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1.0, -1.0), repeat=m):
            iso = np.zeros((m, m))
            iso[range(m), perm] = signs
            out.append(iso)
    return out


@st.composite
def _signed_permutation_systems(draw):
    """Reflections and 90-degree rotations in R^1 and R^2, scales up to 0.9999."""
    m = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 5))
    maps = tuple(
        Similitude(draw(st.floats(0.01, 0.9999)),
                   draw(st.sampled_from(_signed_permutations(m))),
                   np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))))
        for _ in range(n))
    return WIFS(maps=maps, probs=np.full(n, 1.0 / n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_signed_permutation_systems())
def test_hull_is_an_exact_float_fixed_point(w):
    h = attractor_hull(w)
    lo, hi = box_images(*stack_maps(w.maps), h)
    assert np.all(lo >= h.lo) and np.all(hi <= h.hi)  # zero slack
    # Hulls reach 1e4 at scale 0.9999, where one ulp is 1.8e-12: the
    # tolerance is relative to the hull's size.
    lo, hi = lo.min(axis=0), hi.max(axis=0)
    size = max(1.0, float(np.max(np.abs([h.lo, h.hi]))))
    assert np.max(np.abs(lo - h.lo)) <= 1e-12 * size
    assert np.max(np.abs(hi - h.hi)) <= 1e-12 * size


def test_hull_of_slow_pair_is_exact():
    # The big map fixes 0 and contracts at 0.9999, the tiny one fixes 1.
    eps = 3e-5
    w = WIFS(maps=(similitude_1d(0.9999, 0.0), similitude_1d(eps, 1.0 - eps)), probs=(0.5, 0.5))
    h = attractor_hull(w)
    assert (float(h.lo[0]), float(h.hi[0])) == (0.0, 1.0)


def test_hull_refuses_a_map_that_expands_boxes():
    # A 45-degree rotation at scale 0.8 contracts points, but it sends the
    # box [-1, 1]^2 onto one of half-width 0.8 * sqrt(2) > 1.
    c = np.cos(np.pi / 4)
    rot = Similitude(scale=0.8, isometry=np.array([[c, -c], [c, c]]), translation=np.array([1.0, 0.0]))
    with pytest.raises(RuntimeError, match="spectral radius"):
        attractor_hull(WIFS(maps=(rot,), probs=(1.0,)))


# ---------------------------------------------------------------------------
# sub-systems
# ---------------------------------------------------------------------------


def test_build_sub_wifs_renormalizes_weights():
    w = WIFS(maps=cantor().maps, probs=(0.3, 0.7))
    sub = build_sub_wifs(w, level=2, suffix=Word(()),
                         selection=[Word.parse("11"), Word.parse("21")])
    # raw weights 0.09 and 0.21 renormalize to 0.3 / 0.7
    np.testing.assert_allclose(sub.probs, [0.3, 0.7], rtol=1e-12)
    assert sub.maps[0].scale == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_build_sub_wifs_glues_suffix():
    w = quarter_maps(0.2)
    sub = build_sub_wifs(w, level=1, suffix=Word.parse("1"),
                         selection=[Word.parse("2")])
    # f_{21} = f2 o f1: x/16 + 0.2
    assert sub.maps[0].scale == 0.0625
    assert sub.maps[0].translation[0] == 0.2


def test_build_sub_wifs_rejects_bad_selections():
    w = cantor()
    with pytest.raises(EmptySelection):
        build_sub_wifs(w, level=1, suffix=Word(()), selection=[])
    with pytest.raises(NotStrictSubset):
        build_sub_wifs(w, level=1, suffix=Word(()),
                       selection=[Word.parse("1"), Word.parse("2")])
    with pytest.raises(InvalidWord):
        build_sub_wifs(w, level=2, suffix=Word(()), selection=[Word.parse("1")])


def test_sub_wifs_duplicate_selection_collapses():
    w = cantor()
    sub = build_sub_wifs(w, level=1, suffix=Word(()),
                         selection=[Word.parse("1"), Word.parse("1")])
    assert len(sub.selection) == 1
    assert sub.probs[0] == 1.0


# ---------------------------------------------------------------------------
# transfer operator on discrete measures
# ---------------------------------------------------------------------------


def test_push_splits_a_point_mass():
    out = hutchinson_push(DiscreteMeasure([[0.0]], [1.0]), cantor())
    np.testing.assert_allclose(out.atoms.ravel(), [0.0, 2.0 / 3.0])
    np.testing.assert_allclose(out.weights, [0.5, 0.5])
    assert out.total == pytest.approx(1.0, abs=1e-15)


def test_push_merges_coincident_images():
    # both maps send their fixed point 0 to 0 when translations vanish
    w = WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.25, 0.0)), probs=(0.4, 0.6))
    out = hutchinson_push(DiscreteMeasure([[0.0]], [1.0]), w)
    assert out.size == 1
    assert out.weights[0] == pytest.approx(1.0, abs=1e-15)


def _corner_dust(isometry):
    """Four corner maps of ratio 1/3, the third with the given isometry."""
    eye = np.eye(2)
    maps = tuple(Similitude(1 / 3, iso, np.array(t)) for iso, t in
                 [(eye, [0.0, 0.0]), (eye, [2 / 3, 0.0]), (isometry, [1 / 3, 2 / 3]), (eye, [2 / 3, 2 / 3])])
    return WIFS(maps=maps, probs=(0.4, 0.3, 0.2, 0.1))


@pytest.mark.parametrize("system,start,pushes", [
    (cantor(probs=(0.3, 0.7)), [[0.37]], 16),
    (_corner_dust(np.array([[0.0, -1.0], [1.0, 0.0]])), [[0.21, 0.64]], 3),
    (_corner_dust(np.eye(2)), [[0.21, 0.64]], 3),
], ids=["cantor-16", "rotated-dust-3", "dust-3"])
def test_push_equals_the_per_map_push_bit_for_bit(system, start, pushes):
    mu = ref = DiscreteMeasure(start, [1.0])
    for step in range(pushes):
        mu, ref = hutchinson_push(mu, system), per_word.push(ref, system)
        assert mu.atoms.tobytes() == ref.atoms.tobytes(), step
        assert mu.weights.tobytes() == ref.weights.tobytes(), step
    assert mu.size == system.n_maps ** pushes


def test_push_iterates_toward_invariant_measure():
    from qdim.measures import dl

    w = cantor()
    mu = DiscreteMeasure([[0.3]], [1.0])
    prev = None
    for _ in range(8):
        nxt = hutchinson_push(mu, w)
        if prev is not None:
            # consecutive gaps shrink at least at rate max scale
            assert dl(nxt, mu) <= w.max_scale * dl(mu, prev) + 1e-12
        mu, prev = nxt, mu


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_bitwise():
    w = quarter_maps(0.2)
    back = wifs_from_json_obj(wifs_to_json_obj(w))
    assert back.n_maps == w.n_maps
    for f, g in zip(back.maps, w.maps):
        assert f.scale == g.scale
        np.testing.assert_array_equal(f.translation, g.translation)
        np.testing.assert_array_equal(f.isometry, g.isometry)
    np.testing.assert_array_equal(back.probs, w.probs)


def test_json_isometry_defaults_to_identity():
    obj = {"ambient_dim": 1,
           "maps": [{"scale": 0.5, "translation": [0.0]},
                    {"scale": 0.5, "translation": [0.5]}],
           "probs": [0.5, 0.5]}
    w = wifs_from_json_obj(obj)
    np.testing.assert_array_equal(w.maps[0].isometry, np.eye(1))


@pytest.mark.parametrize("mutate,field", [
    (lambda o: o.pop("maps"), "maps"),
    (lambda o: o["maps"][0].pop("scale"), "scale"),
    (lambda o: o.__setitem__("probs", [0.5]), "probs"),
    (lambda o: o["maps"][0].__setitem__("scale", 1.5), "scale"),
    # a map that does not contract is blamed on its own entry, not on probs
    (lambda o: o["maps"][0].__setitem__("scale", 1.0), r"field 'maps\[0\]' is invalid: scale must lie in \(0, 1\)"),
    (lambda o: o["maps"][1].__setitem__("scale", 1.0), r"field 'maps\[1\]' is invalid: scale must lie in \(0, 1\)"),
    (lambda o: o.__setitem__("probs", [math.nan, 0.5]), r"field 'probs' is invalid: probabilities sum to nan"),
])
def test_json_errors_name_the_field(mutate, field):
    obj = wifs_to_json_obj(cantor())
    mutate(obj)
    with pytest.raises(QdimError, match=field):
        wifs_from_json_obj(obj)
