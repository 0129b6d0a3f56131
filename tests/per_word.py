"""Per-word references for the batched word kernels.

These are the one-word-at-a-time forms that ``qdim.ifs.compose_words``,
``qdim.ifs.point_images``, ``qdim.ifs.box_images``,
``qdim.geometry.box_gaps``, the sub-IFS search, the hull's and the
separation checks' per-map images, the Hutchinson push and the word
weight replaced, and the one-row and one-atom forms that the CSV writer
and ``qdim.measures.tv`` replaced.  They stay here as oracles: the batched
results must equal them bit for bit.  ``cantor_iterate`` builds the
Hutchinson iterates that the writer and ``tv`` checks run on.
"""

import itertools
import math

import numpy as np

from qdim.ifs import Word, attractor_hull, build_sub_wifs, hutchinson_push
from qdim.instances import cantor
from qdim.measures import DiscreteMeasure
from qdim.separation import GUARD, check_ssc


def fold_word(wifs, symbols):
    """(scale, isometry, translation) of the word's map, folded from the
    identity one symbol at a time as ``f o g = (s s', R R', s R t' + t)``."""
    scale, iso, tr = 1.0, np.eye(wifs.dim), np.zeros(wifs.dim)
    for s in symbols:
        f = wifs.maps[s - 1]
        scale, iso, tr = scale * f.scale, iso @ f.isometry, scale * iso @ f.translation + tr
    return scale, iso, tr


def apply(scale, iso, tr, points):
    """One map's image of a point (m,) or of points (n, m), as
    ``p @ (s R^T) + t``."""
    return points @ (scale * iso.T) + tr


def push(mu, wifs):
    """The Hutchinson push of a discrete measure, one map at a time: each
    map's image block in map order, weighted by its probability."""
    locs = np.vstack([apply(f.scale, f.isometry, f.translation, mu.atoms) for f in wifs.maps])
    return DiscreteMeasure(locs, np.concatenate([p * mu.weights for p in wifs.probs]))


def box_image(scale, iso, tr, box):
    """Corners of the axis-aligned enclosure of one map's image of ``box``."""
    c = apply(scale, iso, tr, box.center)
    h = scale * (np.abs(iso) @ box.halfwidth)
    return c - h, c + h


def map_images(maps, box):
    """Corners of each map's image of ``box``, one map at a time, as
    ``attractor_hull``'s invariance loop and the separation checks took them."""
    return [box_image(f.scale, f.isometry, f.translation, box) for f in maps]


def word_weight(wifs, symbols):
    """Product of the probabilities along the word, from the left (1.0 for
    the empty word)."""
    out = 1.0
    for s in symbols:
        out *= float(wifs.probs[s - 1])
    return out


def gap(lo, hi, lo2, hi2):
    """Euclidean gap between two boxes, as ``np.linalg.norm`` of the gap vector."""
    return float(np.linalg.norm(np.maximum(0.0, np.maximum(lo2 - hi, lo - hi2))))


def search(wifs, suffix=Word(), n_max=2):
    """The earliest-end search with each word composed and imaged on its own
    and tested against each kept word one pair at a time."""
    hull = attractor_hull(wifs)
    fallback = None
    for level in range(1, n_max + 1):
        words = [Word(p) for p in itertools.product(range(1, wifs.n_maps + 1), repeat=level)]
        images = [box_image(*fold_word(wifs, (w + suffix).symbols), hull) for w in words]
        kept = []
        for k in sorted(range(len(words)), key=lambda k: float(images[k][1][0])):
            if all(gap(*images[k], *images[j]) > 2.0 * GUARD for j in kept):
                kept.append(k)
        if len(kept) == len(words):
            kept.remove(len(words) - 1)
        if not kept or (len(kept) == 1 and fallback is not None):
            continue
        sub = build_sub_wifs(wifs, level, suffix, [words[k] for k in kept])
        found = sub, check_ssc(sub.maps, hull)
        if len(kept) > 1:
            return found
        fallback = found
    return fallback


def csv_per_row(mu):
    """Measure CSV text written one row at a time, each number through ``float``."""
    header = ",".join(f"x{i + 1}" for i in range(mu.dim)) + ",weight"
    lines = [header]
    for row, w in zip(mu.atoms, mu.weights):
        lines.append(",".join(repr(float(c)) for c in row) + f",{float(w)!r}")
    return "\n".join(lines) + "\n"


def tv(mu, nu):
    """``sum_x max(mu{x} - nu{x}, 0)`` with the differences kept in a dict
    keyed by each atom's bytes."""
    diffs = {}
    for row, w in zip(mu.atoms, mu.weights):
        diffs[row.tobytes()] = diffs.get(row.tobytes(), 0.0) + float(w)
    for row, w in zip(nu.atoms, nu.weights):
        diffs[row.tobytes()] = diffs.get(row.tobytes(), 0.0) - float(w)
    return math.fsum(d for d in diffs.values() if d > 0.0)


def cantor_iterate(p, level, x=0.3):
    """Hutchinson iterate of delta_x under ``cantor(probs=(p, 1 - p))``: 2^level
    atoms whose weights take only level + 1 exact values."""
    mu = DiscreteMeasure([[x]], [1.0])
    for _ in range(level):
        mu = hutchinson_push(mu, cantor(probs=(p, 1.0 - p)))
    return mu
