"""Separation certificates and the separated sub-system search.

The three-map quarter-scale family with translation t = 0.2 is the main
fixture: its level-1 images overlap, yet the level-2 words 11, 21, 31 are
pairwise separated with gap 0.1375.
"""

import itertools

import numpy as np
import pytest

from qdim import separation
from qdim.errors import InvalidInvariantSet
from qdim.geometry import Box
from qdim.ifs import WIFS, Similitude, Word, attractor_hull, compose_words, similitude_1d
from qdim.instances import cantor, quarter_maps, random_ssc_wifs, uniform_halves
from qdim.separation import (
    GUARD,
    Condition,
    SeparationReport,
    Status,
    check_osc_sufficient,
    check_ssc,
    search_separated_sub_ifs,
)

import per_word


@pytest.fixture(scope="module")
def t02():
    w = quarter_maps(0.2)
    return w, attractor_hull(w)


# ---------------------------------------------------------------------------
# strong separation
# ---------------------------------------------------------------------------


def _level2_family(w):
    """The maps of the words 11, 21 and 31, from one compose_words call."""
    return list(map(Similitude, *compose_words(w, [Word.parse(s).symbols for s in ("11", "21", "31")])))


def test_level2_words_strongly_separated(t02):
    w, hull = t02
    fams = _level2_family(w)
    rep = check_ssc(fams, hull)
    assert rep.condition is Condition.SSC
    assert rep.status is Status.SATISFIED
    assert rep.min_gap == 0.1375  # 0.2 - 0.0625, endpoints exact
    assert len(rep.witness) == 3  # the verified image boxes


def test_level1_overlap_is_unknown_by_default(t02):
    w, hull = t02
    rep = check_ssc(list(w.maps), hull)
    assert rep.status is Status.UNKNOWN
    assert rep.witness == (0, 1)  # first overlapping pair as diagnostic
    assert rep.min_gap <= 0.0


def _one_d(*maps):
    w = WIFS(maps=tuple(similitude_1d(*f) for f in maps), probs=np.full(len(maps), 1.0 / len(maps)))
    return w, attractor_hull(w)


def test_tight_hull_upgrades_overlap_to_violation():
    # images of [0,1] under {0.6x, 0.6x+0.4} are [0,0.6] and [0.4,1]: they
    # cover the hull, so it is the attractor and the overlap is genuine,
    # for a reversing map as well
    for maps in ([(0.6, 0.0), (0.6, 0.4)], [(0.6, 0.6, -1), (0.6, 0.4)]):
        w, hull = _one_d(*maps)
        rep = check_ssc(list(w.maps), hull)
        assert rep.status is Status.VIOLATED
        assert rep.witness == (0, 1) and rep.min_gap == 0.0


def test_generator_family_gets_the_same_verdict_as_a_list():
    w, hull = _one_d((0.6, 0.0), (0.6, 0.4))
    rep = check_ssc((f for f in w.maps), hull)
    assert rep.status is Status.VIOLATED and rep.witness == (0, 1)
    assert check_osc_sufficient((f for f in w.maps), hull).status is Status.UNKNOWN


def test_overlap_without_a_cover_stays_unknown():
    # K = [0, 1] but the attractor lies in [0, .15] u [.9, 1]: f1(K) and f3(K)
    # overlap while f1(A) and f3(A) are 0.025 apart, and the images leave
    # (.15, .9) uncovered, so nothing is proved
    w, hull = _one_d((0.1, 0.0), (0.1, 0.9), (0.1, 0.05))
    rep = check_ssc(list(w.maps), hull)
    assert rep.status is Status.UNKNOWN and rep.witness == (0, 2)


def test_cover_needs_both_ends_and_more_than_the_guard():
    w, hull = _one_d((0.6, 0.0), (0.6, 0.4))
    # a box wider than the images' span: they miss its ends
    wide = Box(np.array([-0.5]), np.array([1.5]))
    assert check_ssc(list(w.maps), wide).status is Status.UNKNOWN
    # images [0, .5] and [.5 - GUARD, 1] overlap by GUARD only
    w, hull = _one_d((0.5, 0.0), (0.5, 0.5 - GUARD))
    assert check_ssc(list(w.maps), hull).status is Status.UNKNOWN
    # a third tiny image inside another keeps the cover
    w, hull = _one_d((0.6, 0.0), (0.6, 0.4), (1e-3, 0.3))
    assert check_ssc(list(w.maps), hull).status is Status.VIOLATED


def test_cover_is_refused_where_rounding_could_outgrow_the_guard():
    # An end error of 16 ulps of 1 (3.6e-15) can grow by 1 / (1 - s) in the
    # attractor's ends: past GUARD for s = 0.999, not for s = 0.99.
    w, hull = _one_d((0.999, 0.0), (0.5, 0.5))
    assert float(hull.lo[0]) == 0.0 and float(hull.hi[0]) == 1.0
    assert check_ssc(list(w.maps), hull).status is Status.UNKNOWN
    w, hull = _one_d((0.99, 0.0), (0.5, 0.5))
    assert check_ssc(list(w.maps), hull).status is Status.VIOLATED


def test_containment_and_slack():
    # the family's images must lie in K, up to a slack of 1e-9
    unit = Box(np.array([0.0]), np.array([1.0]))
    assert check_ssc([similitude_1d(0.6, 0.2)], unit).status is Status.SATISFIED
    nudged = [similitude_1d(0.5, -1e-12), similitude_1d(0.5, 0.5)]
    assert check_ssc(nudged, unit).status is Status.UNKNOWN
    with pytest.raises(InvalidInvariantSet, match="image of map 1 leaves K"):
        check_ssc([similitude_1d(0.5, 0.0), similitude_1d(0.5, 0.5 + 1e-8)], unit)


def test_images_leaving_k_within_the_slack_need_a_wider_gap():
    # Both images leave [0, 1] by less than the slack and sit 3e-10 apart,
    # yet on the family's own hull [-1e-9, 1 - 4e-10] they touch: K grown
    # by delta / (1 - s) = 1e-9 is invariant, and the gap must beat
    # 2 GUARD + 2 s 1e-9.  The reported gap stays the raw one.
    unit = Box(np.array([0.0]), np.array([1.0]))
    family = [similitude_1d(0.5, -5e-10), similitude_1d(0.5, 0.5 - 2e-10)]
    rep = check_ssc(family, unit)
    assert rep.status is Status.UNKNOWN and rep.witness == (0, 1)
    assert rep.min_gap == pytest.approx(3e-10, rel=1e-6)
    hull = attractor_hull(WIFS(maps=tuple(family), probs=(0.5, 0.5)))
    assert check_ssc(family, hull).status is Status.UNKNOWN
    # Far enough apart, the same slack still certifies.  In R^2 a scale of
    # 1/sqrt(2) or more certifies nothing with a slack, and does without.
    wide = [similitude_1d(0.4, -5e-10), similitude_1d(0.4, 0.6 - 2e-10)]
    assert check_ssc(wide, unit).status is Status.SATISFIED
    square = Box(np.zeros(2), np.ones(2))
    big = [Similitude(0.75, np.eye(2), np.full(2, -1e-10)), Similitude(0.1, np.eye(2), np.full(2, 0.9))]
    assert check_ssc(big, square).status is Status.UNKNOWN
    assert check_ssc(big, Box(np.full(2, -1e-9), np.ones(2))).status is Status.SATISFIED


@pytest.mark.parametrize("check", [check_ssc, check_osc_sufficient])
def test_satisfied_witness_holds_the_per_map_images_bit_for_bit(check):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = WIFS(maps=(Similitude(0.3, np.eye(2), np.zeros(2)), Similitude(0.3, rot, np.array([1.0, 0.0])),
                   Similitude(0.25, np.eye(2), np.array([0.7, 0.7]))), probs=(0.3, 0.3, 0.4))
    hull = attractor_hull(w)
    rep = check(list(w.maps), hull)
    assert rep.status is Status.SATISFIED
    for box, (lo, hi) in zip(rep.witness, per_word.map_images(w.maps, hull), strict=True):
        assert box.lo.tobytes() == lo.tobytes() and box.hi.tobytes() == hi.tobytes()


def test_single_map_is_trivially_separated():
    w = cantor()
    rep = check_ssc([w.maps[0]], attractor_hull(w))
    assert rep.status is Status.SATISFIED
    assert rep.min_gap == np.inf


def test_touching_images_are_not_certified():
    w = uniform_halves()  # images [0, 1/2] and [1/2, 1] share a point
    rep = check_ssc(list(w.maps), attractor_hull(w))
    assert rep.status is Status.UNKNOWN


def test_family_must_map_box_into_itself():
    w = cantor()
    small = Box(np.array([0.0]), np.array([0.1]))  # not invariant
    with pytest.raises(InvalidInvariantSet):
        check_ssc(list(w.maps), small)


# ---------------------------------------------------------------------------
# open set condition (sufficient checks only)
# ---------------------------------------------------------------------------


def test_osc_from_ssc(t02):
    w, hull = t02
    fams = _level2_family(w)
    rep = check_osc_sufficient(fams, hull)
    assert rep.condition is Condition.OSC
    assert rep.status is Status.SATISFIED


def test_osc_accepts_touching_intervals():
    w = uniform_halves()
    rep = check_osc_sufficient(list(w.maps), attractor_hull(w))
    assert rep.status is Status.SATISFIED  # interiors disjoint suffices


def test_osc_never_claims_violation(t02):
    w, hull = t02
    rep = check_osc_sufficient(list(w.maps), hull)
    assert rep.status is Status.UNKNOWN  # overlapping level-1 images


# ---------------------------------------------------------------------------
# sub-system search
# ---------------------------------------------------------------------------


def test_search_finds_separated_pair_at_level_one(t02):
    w, _ = t02
    sub, _ = search_separated_sub_ifs(w)  # empty suffix
    assert sub is not None
    assert sub.level == 1
    assert [str(word) for word in sub.selection] == ["1", "3"]


def test_search_with_suffix_uses_glued_images(t02):
    w, _ = t02
    sub, _ = search_separated_sub_ifs(w, suffix=Word.parse("1"))
    assert sub is not None
    assert sub.level == 1
    # gluing "1" shrinks every image by 1/4, so even overlapping level-1
    # maps become separated: the maximal strict subset {1, 2} wins
    assert [str(word) for word in sub.selection] == ["1", "2"]
    assert sub.maps[0].scale == 0.0625


def test_search_prefers_largest_selection():
    rng = np.random.default_rng(42)
    w = random_ssc_wifs(rng, n_min=4, n_max=4)
    sub, _ = search_separated_sub_ifs(w)
    assert sub is not None
    # parent satisfies SSC already, so the maximal strict subset has N-1 maps
    assert sub.level == 1
    assert len(sub.selection) == 3


def test_search_drops_the_last_word_when_all_are_separated():
    # images [3/4, 1], [0, 1/4], [2/5, 13/20]: all separated, and the word
    # dropped for strictness is the last in word order, not the rightmost
    w = WIFS(maps=(similitude_1d(0.25, 0.75), similitude_1d(0.25, 0.0), similitude_1d(0.25, 0.4)),
             probs=(1 / 3, 1 / 3, 1 / 3))
    sub, _ = search_separated_sub_ifs(w)
    assert sub.level == 1
    assert [str(word) for word in sub.selection] == ["1", "2"]


def test_search_raises_when_its_recheck_fails(t02, monkeypatch):
    w, _ = t02
    unknown = SeparationReport(Condition.SSC, Status.UNKNOWN, (0, 1), 0.0)
    monkeypatch.setattr(separation, "check_ssc", lambda maps, box: unknown)
    with pytest.raises(RuntimeError, match="re-check"):
        search_separated_sub_ifs(w)


def _level_images(w, level):
    hull = attractor_hull(w)
    words = [Word(p) for p in itertools.product(range(1, w.n_maps + 1), repeat=level)]
    return words, [per_word.box_image(*per_word.fold_word(w, word.symbols), hull) for word in words]


def _largest_strict_separated(images) -> int:
    """Size of the largest strict subset of pairwise separated images, by
    enumerating subsets largest first."""
    count = len(images)
    separated = [[per_word.gap(*a, *b) > 2.0 * GUARD for b in images] for a in images]
    for size in range(count - 1, 0, -1):
        for combo in itertools.combinations(range(count), size):
            if all(separated[i][j] for i, j in itertools.combinations(combo, 2)):
                return size
    return 0


def test_search_keeps_a_largest_selection_in_1d():
    # Random overlapping systems, some maps reversing orientation, with at
    # most 4**2 = 16 words per level so every subset can be enumerated.
    for seed in range(40):
        rng = np.random.default_rng([13, seed])
        n = 2 + seed % 3
        scales = rng.uniform(0.3, 0.9, size=n)
        maps = tuple(similitude_1d(float(s), float(t), int(o)) for s, t, o in
                     zip(scales, rng.uniform(0.0, 1.0, size=n), rng.choice([1, 1, -1], size=n)))
        w = WIFS(maps=maps, probs=tuple(np.full(n, 1.0 / n)))
        sub, _ = search_separated_sub_ifs(w, n_max=2)
        for level in range(1, sub.level):
            assert _largest_strict_separated(_level_images(w, level)[1]) <= 1, seed
        best = _largest_strict_separated(_level_images(w, sub.level)[1])
        assert len(sub.selection) == max(best, 1), seed
        if best <= 1:
            assert sub.level == 1


def test_search_keeps_a_maximal_selection_in_2d():
    # Four overlapping corner maps: every word left out lies within the
    # guard band of a kept word, except the one dropped for strictness.
    eye = np.eye(2)
    for seed in range(20):
        rng = np.random.default_rng([14, seed])
        maps = []
        for corner in ([0, 0], [1, 0], [0, 1], [1, 1]):
            s = float(rng.uniform(0.3, 0.7))
            maps.append(Similitude(s, eye, (1.0 - s) * np.array(corner, float)))
        w = WIFS(maps=tuple(maps), probs=(0.25,) * 4)
        sub, _ = search_separated_sub_ifs(w, n_max=2)
        words, images = _level_images(w, sub.level)
        kept = [words.index(word) for word in sub.selection]
        left_out = [k for k in range(len(words)) if k not in kept]
        far = [k for k in left_out if all(per_word.gap(*images[k], *images[j]) > 2.0 * GUARD for j in kept)]
        assert far == [] or far == left_out == [len(words) - 1], seed


def test_search_finds_level2_pairs_among_25_words():
    # Five overlapping maps: no level-1 pair is separated, but level 2
    # (25 words) holds the separated selection {11, 22, 32}.
    scales, offsets = (0.45, 0.41, 0.68, 0.51, 0.59), (0.16, 0.26, 0.28, 0.13, 0.19)
    w = WIFS(maps=tuple(similitude_1d(s, t) for s, t in zip(scales, offsets)),
             probs=(0.116, 0.221, 0.186, 0.234, 0.243))
    sub, _ = search_separated_sub_ifs(w, n_max=2)
    assert sub is not None
    assert sub.level == 2 and len(sub.selection) >= 2
    assert check_ssc(list(sub.maps), attractor_hull(w)).status is Status.SATISFIED


def test_search_falls_back_to_singleton_when_pairs_overlap():
    # images [0, 0.9] and [0.05, 0.95] of the hull intersect, so no pair
    # can be certified -- but a single branch is vacuously separated
    w = WIFS(maps=(similitude_1d(0.9, 0.0), similitude_1d(0.9, 0.05)), probs=(0.5, 0.5))
    sub, _ = search_separated_sub_ifs(w, n_max=1)
    assert sub is not None
    assert len(sub.selection) == 1


def test_search_refuses_the_first_level_past_the_word_cap(t02, monkeypatch):
    # Refused at the level, not up front: t02 answers at level 1 whatever
    # n_max is, while coincident maps search on until a level passes the cap.
    monkeypatch.setattr(separation, "MAX_SEARCH_WORDS", 64)
    w, _ = t02
    sub, _ = search_separated_sub_ifs(w, n_max=40)
    assert sub.level == 1
    coincident = WIFS(maps=(similitude_1d(0.5, 0.0),) * 4, probs=(0.25,) * 4)
    assert search_separated_sub_ifs(coincident, n_max=3) is not None
    with pytest.raises(ValueError, match="level 4 has more than 64 words"):
        search_separated_sub_ifs(coincident, n_max=4)


def test_search_result_is_certified(t02):
    w, hull = t02
    sub, rep = search_separated_sub_ifs(w, n_max=2)
    assert rep.status is Status.SATISFIED
    assert rep.min_gap == check_ssc(list(sub.maps), hull).min_gap
    # certified gap: sampled points from distinct branches stay that far apart
    pts = {}
    rng = np.random.default_rng(3)
    for word, f in zip(sub.selection, sub.maps):
        base = rng.uniform(0.0, 1.0, size=(64, 1))
        pts[str(word)] = per_word.apply(f.scale, f.isometry, f.translation, base)
    keys = list(pts)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            gap = np.min(np.abs(pts[keys[i]][:, None, 0] - pts[keys[j]][None, :, 0]))
            assert gap >= rep.min_gap - 1e-9


def _assert_same_search(found, ref, label):
    assert (found is None) == (ref is None), label
    if found is None:
        return
    (sub, rep), (ref_sub, ref_rep) = found, ref
    assert sub.level == ref_sub.level and sub.selection == ref_sub.selection, label
    assert rep.min_gap == ref_rep.min_gap and sub.probs.tobytes() == ref_sub.probs.tobytes(), label
    for f, g in zip(sub.maps, ref_sub.maps):
        assert f.translation.tobytes() == g.translation.tobytes(), label


def test_search_equals_the_per_word_search():
    for seed in range(40):
        rng = np.random.default_rng([16, seed])
        m, n = 1 + seed % 2, 2 + seed % 3
        maps = []
        for _ in range(n):
            if m == 1:
                iso = np.array([[float(rng.choice([1.0, 1.0, -1.0]))]])
            else:
                a = float(rng.choice([0.0, np.pi / 2, 0.7]))
                iso = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            maps.append(Similitude(float(rng.uniform(0.2, 0.65)), iso, rng.uniform(0.0, 1.0, size=m)))
        w = WIFS(maps=tuple(maps), probs=rng.dirichlet(np.ones(n)))
        for suffix in (Word(), Word.parse("21")):
            _assert_same_search(search_separated_sub_ifs(w, suffix, n_max=3),
                                per_word.search(w, suffix, n_max=3), (seed, str(suffix)))


def test_search_equals_the_per_word_search_at_a_4096_word_level():
    # Images of level-n words of two maps of ratio 0.942 can only be disjoint
    # once 0.942**n < 1/2, which first holds at n = 12: 2**12 = 4096 words.
    w = WIFS(maps=(similitude_1d(0.942, 0.0), similitude_1d(0.942, 0.05)), probs=(0.4, 0.6))
    found = search_separated_sub_ifs(w, n_max=12)
    assert found[0].level == 12 and 2 ** 12 == separation.MAX_SEARCH_WORDS
    _assert_same_search(found, per_word.search(w, n_max=12), "level 12")

