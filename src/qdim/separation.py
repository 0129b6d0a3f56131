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
    and the first overlapping pair (if any) as a diagnostic when unknown.
    ``min_gap`` is the smallest pairwise Euclidean gap between image boxes
    (infinity for a single map); it is positive exactly when the hull-based
    strong-separation certificate holds.
    """

    condition: Condition
    status: Status
    witness: object
    min_gap: float


def _validate_family(maps, box: Box) -> list[Box]:
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
    return images


def _pairwise_gaps(images: list[Box]) -> tuple[float, list[tuple[int, int]]]:
    """Smallest pairwise gap and the list of overlapping (guard-close) pairs."""
    min_gap = float("inf")
    touching: list[tuple[int, int]] = []
    for i, j in itertools.combinations(range(len(images)), 2):
        g = images[i].gap_to(images[j])
        min_gap = min(min_gap, g)
        if g <= 2.0 * GUARD:
            touching.append((i, j))
    return min_gap, touching


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
    images = _validate_family(maps, box)
    maps = list(maps)
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
    images = _validate_family(maps, box)
    ssc = check_ssc(maps, box)
    if ssc.status is Status.SATISFIED:
        return SeparationReport(Condition.OSC, Status.SATISFIED, ssc.witness, ssc.min_gap)

    if box.dim == 1:
        order = sorted(range(len(images)), key=lambda k: (float(images[k].lo[0]), float(images[k].hi[0])))
        interiors_disjoint = all(
            float(images[order[k + 1]].lo[0]) >= float(images[order[k]].hi[0]) - GUARD
            for k in range(len(order) - 1)
        )
        if interiors_disjoint:
            return SeparationReport(Condition.OSC, Status.SATISFIED, tuple(images), max(ssc.min_gap, 0.0))

    witness = ssc.witness if ssc.status is not Status.SATISFIED else None
    return SeparationReport(Condition.OSC, Status.UNKNOWN, witness, ssc.min_gap)


# ---------------------------------------------------------------------------
# search for separated sub-systems
# ---------------------------------------------------------------------------


def _all_words(n_maps: int, length: int) -> list[Word]:
    return [Word(p) for p in itertools.product(range(1, n_maps + 1), repeat=length)]


def search_separated_sub_ifs(
    wifs: WIFS,
    suffix: Word = Word(),
    n_max: int = 2,
    budget: int = 65536,
) -> SubWIFS | None:
    """Look for a strict level-n selection whose glued maps satisfy SSC.

    For each level ``n = 1 .. n_max`` the candidate selections are strict
    non-empty subsets of the ``N**n`` level-n words, each word glued to the
    common ``suffix``.  When ``N**n <= 16`` the subsets are enumerated
    largest-first (ties broken by lexicographically smallest index set) so
    the first hit is a maximal selection; beyond that scale a single greedy
    pass adds words in decreasing parent weight, keeping a word whenever its
    image box stays disjoint from the images already kept.

    ``budget`` caps the total number of candidate selections examined across
    all levels.  Returns the first certified sub-system of two or more words;
    a single word is vacuously separated (its gap is infinite), so the first
    one is returned only when no level up to ``n_max`` certifies more, and
    ``None`` when the budget runs out first.  The returned sub-system is
    always re-verified through :func:`check_ssc`.
    """
    hull = attractor_hull(wifs)
    examined = 0
    fallback = None

    for level in range(1, n_max + 1):
        words = _all_words(wifs.n_maps, level)
        count = len(words)
        images = [compose_word(wifs, w + suffix).box_image(hull) for w in words]
        gap = np.full((count, count), np.inf)
        for i, j in itertools.combinations(range(count), 2):
            gap[i, j] = gap[j, i] = images[i].gap_to(images[j])
        separated = gap > 2.0 * GUARD

        candidates: list[tuple[int, ...]] = []
        if count <= 16:
            for size in range(count - 1, 0, -1):
                for combo in itertools.combinations(range(count), size):
                    candidates.append(combo)
        else:
            weights = [(w + suffix).weight(wifs) for w in words]
            order = sorted(range(count), key=lambda k: (-weights[k], words[k].symbols))
            picked: list[int] = []
            for k in order:
                if all(separated[k, j] for j in picked):
                    picked.append(k)
            if len(picked) == count:
                picked.pop()  # strictness: drop the lightest word added last
            if picked:
                candidates.append(tuple(sorted(picked)))

        for combo in candidates:
            if len(combo) == 1 and fallback is not None:
                continue
            examined += 1
            if examined > budget:
                return fallback
            if all(separated[i, j] for i, j in itertools.combinations(combo, 2)):
                sub = build_sub_wifs(wifs, level, suffix, [words[k] for k in combo])
                if check_ssc(sub.maps, hull).status is Status.SATISFIED:
                    if len(combo) > 1:
                        return sub
                    fallback = sub
    return fallback
