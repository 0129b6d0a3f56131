"""Axis-aligned boxes and point-set Hausdorff distance."""

import numpy as np
import pytest

from qdim.errors import DimensionError, EmptySet
from qdim.geometry import Box, hausdorff_distance


def test_box_validates_orientation():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


def test_box_center_halfwidth_diameter():
    b = Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    np.testing.assert_array_equal(b.center, [1.0, 0.0])
    np.testing.assert_array_equal(b.halfwidth, [1.0, 1.0])
    assert b.diameter == pytest.approx(np.sqrt(8.0))


def test_hull_of_boxes():
    a = Box(np.array([0.0]), np.array([1.0]))
    b = Box(np.array([2.0]), np.array([3.0]))
    h = Box.hull_of([a, b])
    assert float(h.lo[0]) == 0.0 and float(h.hi[0]) == 3.0


def test_containment_and_slack():
    outer = Box(np.array([0.0]), np.array([1.0]))
    inner = Box(np.array([0.2]), np.array([0.8]))
    assert outer.contains_box(inner)
    nudged = Box(np.array([-1e-12]), np.array([1.0]))
    assert not outer.contains_box(nudged)
    assert outer.contains_box(nudged, slack=1e-9)


def test_contains_points_half_open_mask():
    b = Box(np.array([0.0]), np.array([1.0]))
    mask = b.contains_points(np.array([[0.0], [0.5], [1.0], [1.5]]))
    assert mask.tolist() == [True, True, True, False]


def test_gap_between_boxes():
    a = Box(np.array([0.0]), np.array([1.0]))
    b = Box(np.array([1.5]), np.array([2.0]))
    assert a.gap_to(b) == 0.5
    assert a.gap_to(a) == 0.0
    c = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    d = Box(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
    assert c.gap_to(d) == pytest.approx(np.sqrt(2.0))


def test_hausdorff_distance_point_sets():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [3.0]])
    assert hausdorff_distance(a, b) == 2.0
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_distance_validates():
    with pytest.raises(EmptySet):
        hausdorff_distance(np.zeros((0, 2)), np.zeros((1, 2)))
    with pytest.raises(DimensionError):
        hausdorff_distance(np.zeros((1, 2)), np.zeros((1, 3)))
