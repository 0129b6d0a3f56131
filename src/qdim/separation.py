"""Separation certificates for families of contracting similitudes.

The checks here are deliberately one-sided.  Working on axis-aligned
enclosures in floating point, we can *certify* strong separation (disjoint
image boxes with a positive gap) and a sufficient open-set arrangement, but
an overlap of enclosures proves nothing in general - so the default answer
on overlap is ``UNKNOWN``.  The single exception is the 1-d
orientation-preserving case where the caller vouches that the supplied
interval is the exact attractor hull (``hull_is_tight=True``); there an
overlap of positive length is a genuine violation.

Decisions use an outward guard band of 1e-12, so a certificate is only
issued when it survives the floating-point dust.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInvariantSet
from .geometry import Box
from .ifs import SubWIFS, WIFS, Word, attractor_hull, build_sub_wifs, compose_word, Similitude

__all__ = [
    "Condition",
    "Status",
    "SeparationReport",
    "check_ssc",
    "check_osc_sufficient",
    "search_separated_sub_ifs",
]

#: Outward rounding slack for all disjointness decisions.
GUARD = 1e-12

#: Slack for the "K is invariant" precondition.
_INVARIANCE_SLACK = 1e-9

#: Most words a sub-IFS search level may hold (levels grow by the map count).
MAX_SEARCH_WORDS = 4096


class Condition(Enum):
    SSC = "SSC"
    OSC = "OSC"


class Status(Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of a separation check.

    ``witness`` is the tuple of verified image boxes when the condition is
    satisfied, the offending pair of map indices (0-based) when violated,
    and the first guard-close pair as a diagnostic when unknown.
    ``min_gap`` is the smallest pairwise Euclidean gap between image boxes
    (infinity for a single map); it is positive exactly when the hull-based
    strong-separation certificate holds.
    """

    condition: Condition
    status: Status
    witness: tuple
    min_gap: float


def _validate_family(maps, box: Box) -> tuple[list, list[Box]]:
    """The family as a list and its image boxes, after checking that every
    image stays in K."""
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one map")
    for k, f in enumerate(maps):
        if f.dim != box.dim:
            raise InvalidInvariantSet(f"map {k} lives in R^{f.dim}, K in R^{box.dim}")
    images = [f.box_image(box) for f in maps]
    for k, img in enumerate(images):
        if not box.contains_box(img, slack=_INVARIANCE_SLACK):
            raise InvalidInvariantSet(
                f"K is not invariant: image of map {k} leaves K "
                f"(image [{img.lo}, {img.hi}] vs K [{box.lo}, {box.hi}])"
            )
    return maps, images


def _pairwise_gaps(images: list[Box]) -> tuple[float, list[tuple[int, int]]]:
    """Smallest pairwise Euclidean gap between the image boxes (infinite for
    one box) and the guard-close pairs i < j, in lexicographic order."""
    gap = np.full((len(images), len(images)), np.inf)
    for i, j in itertools.combinations(range(len(images)), 2):
        gap[i, j] = gap[j, i] = images[i].gap_to(images[j])
    return float(gap.min()), [(int(i), int(j)) for i, j in np.argwhere(np.triu(gap <= 2.0 * GUARD))]


def _overlap_length_1d(a: Box, b: Box) -> float:
    return float(min(a.hi[0], b.hi[0]) - max(a.lo[0], b.lo[0]))


def check_ssc(maps, box: Box, hull_is_tight: bool = False) -> SeparationReport:
    """Strong-separation check for a family of maps on an invariant set K.

    Satisfied when all pairwise image boxes are disjoint beyond the guard
    band; the reported ``min_gap`` is the raw smallest gap.  On overlap the
    verdict is UNKNOWN, except in the 1-d orientation-preserving case with
    ``hull_is_tight=True`` and an overlap of positive length, which is a
    certified violation.

    Raises
    ------
    InvalidInvariantSet
        when some image leaves K (beyond a 1e-9 slack).
    """
    maps, images = _validate_family(maps, box)
    min_gap, close_pairs = _pairwise_gaps(images)
    if not close_pairs:
        return SeparationReport(Condition.SSC, Status.SATISFIED, tuple(images), min_gap)

    if box.dim == 1 and hull_is_tight:
        for i, j in close_pairs:
            if (
                maps[i].is_orientation_preserving
                and maps[j].is_orientation_preserving
                and _overlap_length_1d(images[i], images[j]) > 2.0 * GUARD
            ):
                return SeparationReport(Condition.SSC, Status.VIOLATED, (i, j), min(min_gap, 0.0))
    return SeparationReport(Condition.SSC, Status.UNKNOWN, close_pairs[0], min_gap)


def check_osc_sufficient(maps, box: Box) -> SeparationReport:
    """Sufficient open-set check; never reports a violation.

    Satisfied when the strong separation holds, or (1-d only) when the open
    interiors of the image intervals are pairwise disjoint - touching
    endpoints allowed - and stay inside K.  Everything else is UNKNOWN:
    failing this sufficient test proves nothing.
    """
    _, images = _validate_family(maps, box)
    min_gap, close_pairs = _pairwise_gaps(images)
    if not close_pairs:
        return SeparationReport(Condition.OSC, Status.SATISFIED, tuple(images), min_gap)

    if box.dim == 1:
        order = sorted(range(len(images)), key=lambda k: (float(images[k].lo[0]), float(images[k].hi[0])))
        interiors_disjoint = all(
            float(images[order[k + 1]].lo[0]) >= float(images[order[k]].hi[0]) - GUARD
            for k in range(len(order) - 1)
        )
        if interiors_disjoint:
            return SeparationReport(Condition.OSC, Status.SATISFIED, tuple(images), max(min_gap, 0.0))

    return SeparationReport(Condition.OSC, Status.UNKNOWN, close_pairs[0], min_gap)


# ---------------------------------------------------------------------------
# search for separated sub-systems
# ---------------------------------------------------------------------------


def _all_words(n_maps: int, length: int) -> list[Word]:
    return [Word(p) for p in itertools.product(range(1, n_maps + 1), repeat=length)]


def search_separated_sub_ifs(wifs: WIFS, suffix: Word = Word(), n_max: int = 2
                             ) -> tuple[SubWIFS, SeparationReport] | None:
    """Look for a strict level-n selection whose glued maps satisfy SSC.

    For each level ``n = 1 .. n_max`` the level-n words, each glued to the
    common ``suffix``, are taken in order of the right end of their image
    box along the first coordinate (ties in word order), and a word is kept
    when its image lies more than ``2 * GUARD`` from every image already
    kept.  If every word is kept, the last word in word order is dropped so
    the selection stays strict.  In 1-d the images are intervals and this
    earliest-end pass keeps a largest separated selection; in R^m it keeps
    a maximal one.

    Returns the first level's selection of two or more words; a single word
    is vacuously separated (its gap is infinite), so the first one is
    returned only when no level up to ``n_max`` keeps more, and ``None``
    when no level keeps any word.  Each selection is re-verified through
    :func:`check_ssc` and returned with that report (its ``min_gap`` is the
    certified gap); a selection that fails it raises ``RuntimeError``, and
    reaching a level of more than :data:`MAX_SEARCH_WORDS` words ``ValueError``.
    """
    hull = attractor_hull(wifs)
    fallback = None
    for level in range(1, n_max + 1):
        if wifs.n_maps ** level > MAX_SEARCH_WORDS:
            raise ValueError(f"level {level} has more than {MAX_SEARCH_WORDS} words")
        words = _all_words(wifs.n_maps, level)
        images = [compose_word(wifs, w + suffix).box_image(hull) for w in words]
        kept: list[int] = []
        for k in sorted(range(len(words)), key=lambda k: float(images[k].hi[0])):
            if all(images[k].gap_to(images[j]) > 2.0 * GUARD for j in kept):
                kept.append(k)
        if len(kept) == len(words):
            kept.remove(len(words) - 1)  # strictness: drop the last word in word order
        if not kept or (len(kept) == 1 and fallback is not None):
            continue
        sub = build_sub_wifs(wifs, level, suffix, [words[k] for k in kept])
        report = check_ssc(sub.maps, hull)
        if report.status is not Status.SATISFIED:
            raise RuntimeError(f"{sub!r} fails its SSC re-check")
        if len(kept) > 1:
            return sub, report
        fallback = sub, report
    return fallback
