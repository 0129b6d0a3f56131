"""Similitudes, word composition, sub-systems, hulls, and serialization.

The composition convention is the load-bearing contract here: a word acts
with its rightmost symbol first, so ``compose_word(w, "21") = f2 o f1``.
Several tests pin that down with hand-computed images before the property
tests take over.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdim.errors import EmptySelection, InvalidWord, NotStrictSubset, QdimError
from qdim.geometry import Box
from qdim.ifs import (
    WIFS,
    Similitude,
    Word,
    attractor_hull,
    build_sub_wifs,
    compose_word,
    hutchinson_push,
    similitude_1d,
    wifs_fingerprint,
    wifs_from_json_obj,
    wifs_to_json_obj,
)
from qdim.instances import cantor, four_fifths_shifted, quarter_maps
from qdim.measures import dirac


# ---------------------------------------------------------------------------
# similitudes
# ---------------------------------------------------------------------------


def test_apply_is_affine_with_ratio():
    f = similitude_1d(0.25, 0.75)
    x = np.array([[0.0], [1.0], [-2.0]])
    np.testing.assert_allclose(f.apply(x), [[0.75], [1.0], [0.25]])


def test_similarity_ratio_holds_in_2d():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    f = Similitude(scale=0.6, isometry=rot, translation=np.array([1.0, -1.0]))
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 2))
    lhs = np.linalg.norm(f.apply(x[None])[0] - f.apply(y[None])[0])
    assert lhs == pytest.approx(0.6 * np.linalg.norm(x - y), rel=1e-12)


def test_non_orthogonal_isometry_rejected():
    with pytest.raises(ValueError):
        Similitude(scale=0.5, isometry=np.array([[1.0, 0.5], [0.0, 1.0]]),
                   translation=np.zeros(2))


def test_fixed_point():
    f = similitude_1d(0.25, 0.2)
    assert f.fixed_point()[0] == pytest.approx(0.2 / 0.75, rel=1e-14)


def test_orientation_flag():
    assert similitude_1d(0.5, 0.0).is_orientation_preserving
    assert not similitude_1d(0.5, 1.0, orientation=-1).is_orientation_preserving


def test_compose_scales_multiply():
    f = similitude_1d(0.5, 1.0)
    g = similitude_1d(0.25, -1.0)
    h = f.compose(g)  # f o g
    assert h.scale == 0.125
    x = np.array([[0.3]])
    np.testing.assert_allclose(h.apply(x), f.apply(g.apply(x)))


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
    f = compose_word(cantor(), Word.parse("12"))
    assert f.scale == pytest.approx(1.0 / 9.0, rel=1e-15)
    assert f.translation[0] == pytest.approx(2.0 / 9.0, rel=1e-15)


def test_compose_word_quarter_21():
    # "21" = f2 o f1: x -> (x/4)/4 + 0.2 = x/16 + 0.2 -- rightmost acts first
    f = compose_word(quarter_maps(0.2), Word.parse("21"))
    assert f.scale == 0.0625
    assert f.translation[0] == 0.2


def test_compose_word_matches_sequential_application():
    rng = np.random.default_rng(7)
    w = quarter_maps(0.3)
    pts = rng.uniform(size=(5, 1))
    for _ in range(20):
        length = int(rng.integers(1, 5))
        syms = tuple(int(s) for s in rng.integers(1, 4, size=length))
        word = Word(syms)
        expected = pts
        for s in reversed(syms):  # rightmost symbol acts first
            expected = w.maps[s - 1].apply(expected)
        np.testing.assert_allclose(compose_word(w, word).apply(pts), expected, atol=1e-14)


def test_empty_word_is_identity():
    f = compose_word(cantor(), Word(()))
    assert f.scale == 1.0
    np.testing.assert_array_equal(f.apply(np.array([[0.37]])), [[0.37]])


def test_word_ratio_and_weight():
    w = WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.25, 0.5)), probs=(0.3, 0.7))
    word = Word.parse("21")
    assert word.ratio(w) == 0.125
    assert word.weight(w) == pytest.approx(0.21, rel=1e-15)
    with pytest.raises(InvalidWord):
        Word.parse("3").ratio(w)


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
        fixes = [f.fixed_point()[0] for f in maps]
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
    for f in w.maps:
        img = f.box_image(h)
        assert h.contains_box(img, slack=1e-9)


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
    images = [f.box_image(h) for f in w.maps]
    assert all(h.contains_box(img) for img in images)  # zero slack
    # Hulls reach 1e4 at scale 0.9999, where one ulp is 1.8e-12: the
    # tolerance is relative to the hull's size.
    tight = Box.hull_of(images)
    size = max(1.0, float(np.max(np.abs([h.lo, h.hi]))))
    assert np.max(np.abs(tight.lo - h.lo)) <= 1e-12 * size
    assert np.max(np.abs(tight.hi - h.hi)) <= 1e-12 * size


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
    out = hutchinson_push(dirac([0.0]), cantor())
    np.testing.assert_allclose(out.atoms.ravel(), [0.0, 2.0 / 3.0])
    np.testing.assert_allclose(out.weights, [0.5, 0.5])
    assert out.total == pytest.approx(1.0, abs=1e-15)


def test_push_merges_coincident_images():
    # both maps send their fixed point 0 to 0 when translations vanish
    w = WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.25, 0.0)), probs=(0.4, 0.6))
    out = hutchinson_push(dirac([0.0]), w)
    assert out.size == 1
    assert out.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_push_iterates_toward_invariant_measure():
    from qdim.measures import dl

    w = cantor()
    mu = dirac([0.3])
    prev = None
    for _ in range(8):
        nxt = hutchinson_push(mu, w)
        if prev is not None:
            # consecutive gaps shrink at least at rate max scale
            assert dl(nxt, mu) <= w.max_scale * dl(mu, prev) + 1e-12
        mu, prev = nxt, mu


# ---------------------------------------------------------------------------
# serialization and fingerprints
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
])
def test_json_errors_name_the_field(mutate, field):
    obj = wifs_to_json_obj(cantor())
    mutate(obj)
    with pytest.raises(QdimError, match=field):
        wifs_from_json_obj(obj)


def test_fingerprint_is_stable_and_discriminates():
    a = wifs_fingerprint(cantor())
    assert a == wifs_fingerprint(cantor())
    assert a != wifs_fingerprint(quarter_maps(0.2))
    assert a != wifs_fingerprint(WIFS(maps=cantor().maps, probs=(0.4, 0.6)))
