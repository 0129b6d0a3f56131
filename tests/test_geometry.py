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


def test_gap_between_boxes():
    assert box_gaps(np.array([0.0]), np.array([1.0]), np.array([1.5]), np.array([2.0])) == 0.5
    assert box_gaps(np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([1.0])) == 0.0
    c_lo, c_hi, d_lo, d_hi = np.zeros(2), np.ones(2), np.full(2, 2.0), np.full(2, 3.0)
    assert box_gaps(c_lo, c_hi, d_lo, d_hi) == pytest.approx(np.sqrt(2.0))


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
        # one call over all pairs matches the norm formula pair by pair
        table = box_gaps(lo[:20, None], hi[:20, None], lo2[:20], hi2[:20])
        assert [[per_word.gap(lo[i], hi[i], lo2[j], hi2[j]) for j in range(20)]
                for i in range(20)] == table.tolist()
