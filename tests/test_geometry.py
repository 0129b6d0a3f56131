"""Axis-aligned boxes."""

import numpy as np
import pytest

from qdim.geometry import Box, box_gaps

import per_word


def test_box_validates_orientation():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


def test_box_center_halfwidth_diameter():
    b = Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    np.testing.assert_array_equal(b.center, [1.0, 0.0])
    np.testing.assert_array_equal(b.halfwidth, [1.0, 1.0])
    # the diameter, |hi - lo|, is twice the halfwidth vector's length
    assert 2.0 * np.linalg.norm(b.halfwidth) == pytest.approx(np.sqrt(8.0))


def test_containment_and_slack():
    outer = Box(np.array([0.0]), np.array([1.0]))
    inner = Box(np.array([0.2]), np.array([0.8]))
    assert outer.contains_box(inner)
    nudged = Box(np.array([-1e-12]), np.array([1.0]))
    assert not outer.contains_box(nudged)
    assert outer.contains_box(nudged, slack=1e-9)


def test_gap_between_boxes():
    a = Box(np.array([0.0]), np.array([1.0]))
    b = Box(np.array([1.5]), np.array([2.0]))
    assert a.gap_to(b) == 0.5
    assert a.gap_to(a) == 0.0
    c = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    d = Box(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
    assert c.gap_to(d) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_box_gaps_equal_the_norm_formula_bit_for_bit(m):
    rng = np.random.default_rng([7, m])
    for scale in (1e-13, 1e-9, 1e-3, 1.0, 1e3):
        lo = rng.uniform(-1.0, 1.0, size=(500, m)) * scale
        hi = lo + rng.uniform(0.0, 1.0, size=(500, m)) * scale
        lo2 = rng.uniform(-1.0, 1.0, size=(500, m)) * scale
        hi2 = lo2 + rng.uniform(0.0, 1.0, size=(500, m)) * scale
        lo2[:100], hi2[:100] = hi[:100], hi[:100] + 0.5 * scale  # touching: gap 0
        lo2[100:200], hi2[100:200] = lo[100:200] + 1e-3 * scale, hi[100:200]  # overlapping
        gaps = box_gaps(lo, hi, lo2, hi2)
        assert gaps.shape == (500,)
        assert not gaps[:200].any()
        ref = [per_word.gap(lo[k], hi[k], lo2[k], hi2[k]) for k in range(500)]
        assert np.asarray(ref).tobytes() == gaps.tobytes()
        # one call over all pairs matches Box.gap_to pair by pair
        table = box_gaps(lo[:20, None], hi[:20, None], lo2[:20], hi2[:20])
        assert [[Box(lo[i], hi[i]).gap_to(Box(lo2[j], hi2[j])) for j in range(20)]
                for i in range(20)] == table.tolist()
