"""Axis-aligned boxes."""

import numpy as np
import pytest

from qdim.geometry import Box


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
