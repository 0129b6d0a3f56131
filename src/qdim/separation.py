"""Separation certificates for families of contracting similitudes.

The checks here are deliberately one-sided.  Working on axis-aligned
enclosures in floating point, we can *certify* strong separation (disjoint
image boxes with a positive gap) and a sufficient open-set arrangement, but
an overlap of enclosures proves nothing in general - so the default answer
on overlap is ``UNKNOWN``.  The single exception is 1-d, where images that
chain across the whole of K prove that K is the family's attractor
(:func:`check_ssc`); there an overlap of positive length is a genuine
violation.

Decisions use an outward guard band of 1e-12, so a certificate is only
issued when it survives the floating-point dust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInvariantSet
from .geometry import Box, box_gaps
from .ifs import SubWIFS, WIFS, Word, attractor_hull, box_images, build_sub_wifs, compose_words, stack_maps

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

#: Most words a sub-IFS search level may hold; it bounds a level's arrays.
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
    and the first pair too close to certify as a diagnostic when unknown.
    ``min_gap`` is the raw smallest pairwise Euclidean gap between image
    boxes (infinity for a single map); the strong-separation certificate
    needs more than ``2 * GUARD`` (see :func:`_family_gaps`).
    """

    condition: Condition
    status: Status
    witness: tuple
    min_gap: float


def _family_gaps(maps, box: Box) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, list[tuple[int, int]]]:
    """Scales (k,) and image corners (k, m) of the family, the smallest
    pairwise Euclidean gap between the images (infinite for one map) and
    the pairs i < j too close to certify apart, in lexicographic order.

    An image may leave K by up to the slack.  If delta is the most any
    does and s the largest scale, K grown by eps = delta / (1 - sqrt(m) s)
    on every side is invariant: a map grows its image enclosure by
    s |R| 1 eps <= sqrt(m) s eps per coordinate (a row of |R| sums to at
    most sqrt(m)), so the images of the grown K stay within
    delta + sqrt(m) s eps = eps of K.  The attractor lies in the grown K,
    so a pair's images of it are at least the gap less 2 sqrt(m) s eps per
    coordinate apart, the gap less 2 m s eps in all.  A pair is certified
    apart when its gap exceeds ``2 * GUARD`` plus that; none is when
    delta > 0 and sqrt(m) s >= 1.
    """
    maps = tuple(maps)
    if not maps:
        raise ValueError("need at least one map")
    for k, f in enumerate(maps):
        if f.dim != box.dim:
            raise InvalidInvariantSet(f"map {k} lives in R^{f.dim}, K in R^{box.dim}")
    scale, lin, tr = stack_maps(maps)
    lo, hi = box_images(scale, lin, tr, box)
    leaves = np.any((lo < box.lo - _INVARIANCE_SLACK) | (hi > box.hi + _INVARIANCE_SLACK), axis=1)
    if leaves.any():
        k = int(leaves.argmax())
        raise InvalidInvariantSet(f"K is not invariant: image of map {k} leaves K "
                                  f"(image [{lo[k]}, {hi[k]}] vs K [{box.lo}, {box.hi}])")
    delta = float(np.max(np.maximum(box.lo - lo, hi - box.hi), initial=0.0))
    grow, need = math.sqrt(box.dim) * float(scale.max()), 2.0 * GUARD
    if delta > 0.0:
        need += 2.0 * math.sqrt(box.dim) * grow * delta / (1.0 - grow) if grow < 1.0 else math.inf
    gap = box_gaps(lo[:, None], hi[:, None], lo, hi)
    np.fill_diagonal(gap, np.inf)
    close = [(int(i), int(j)) for i, j in np.argwhere(np.triu(gap <= need, 1))]
    return scale, lo, hi, float(gap.min()), close


def check_ssc(maps, box: Box) -> SeparationReport:
    """Strong-separation check for a family of maps on an invariant set K.

    Satisfied when all pairwise image boxes are disjoint beyond the guard
    band, grown by the allowance for images that leave K within the slack
    (:func:`_family_gaps`); the reported ``min_gap`` is the raw smallest
    gap.  Violated, in 1-d only, when the images cover K: the witness is
    the first pair whose images overlap by more than ``2 * GUARD``.
    Unknown otherwise.

    The cover rule: sorted by left end, each image interval overlaps the
    reach of the earlier ones by more than ``2 * GUARD``, and together they
    span K exactly.  In exact arithmetic F(K) = K then, so K is the
    attractor A (the only non-empty compact set with F(A) = A; Hutchinson,
    Indiana Univ. Math. J. 30, 1981), and images of K that overlap are
    images of A that meet, whatever the orientation of the maps.  Rounding,
    at the ends too: each computed end is within rho < 16 ulps of
    M = max |corner of K| of the true one (a handful of roundings of
    operands at most 2 M).  H(L), the hull of the f_i(L) for intervals L,
    moves ends at most s times as far as L's (s the largest scale) and
    fixes J = conv A, as f_i(J) = conv f_i(A).  True H(K) is within rho of
    K, so J is within rho / (1 - s) of K and each f_i(J) within that of its
    computed image.  The rule asks rho < ``GUARD`` (1 - s): the f_i(J) still
    chain and the witness pair still overlaps, so the union of the f_i(J)
    is an interval with hull J, F(J) = J, A = J and f_i(A) = f_i(J).  Some
    pair overlaps: the image reaching K's right end meets the reach before it.

    Raises
    ------
    InvalidInvariantSet
        when some image leaves K (beyond a 1e-9 slack).
    """
    scale, lo, hi, min_gap, close_pairs = _family_gaps(maps, box)
    if not close_pairs:
        return SeparationReport(Condition.SSC, Status.SATISFIED, tuple(map(Box, lo, hi)), min_gap)
    if box.dim == 1:
        order = np.argsort(lo[:, 0])
        left, right = lo[order, 0], hi[order, 0]
        reach = np.maximum.accumulate(right)
        rho = 16.0 * np.spacing(np.max(np.abs([box.lo, box.hi])))
        if (left[0] == box.lo[0] and reach[-1] == box.hi[0] and rho < GUARD * (1.0 - scale.max())
                and np.all(np.minimum(right[1:], reach[:-1]) - left[1:] > 2.0 * GUARD)):
            overlap = np.minimum(hi, hi.T) - np.maximum(lo, lo.T)
            i, j = np.argwhere(np.triu(overlap > 2.0 * GUARD, 1))[0]
            return SeparationReport(Condition.SSC, Status.VIOLATED, (int(i), int(j)), min_gap)
    return SeparationReport(Condition.SSC, Status.UNKNOWN, close_pairs[0], min_gap)


def check_osc_sufficient(maps, box: Box) -> SeparationReport:
    """Sufficient open-set check; never reports a violation.

    Satisfied when the strong separation holds, or (1-d only) when the open
    interiors of the image intervals are pairwise disjoint - touching
    endpoints allowed - and stay inside K.  Everything else is UNKNOWN:
    failing this sufficient test proves nothing.
    """
    _, lo, hi, min_gap, close_pairs = _family_gaps(maps, box)
    if not close_pairs:
        return SeparationReport(Condition.OSC, Status.SATISFIED, tuple(map(Box, lo, hi)), min_gap)

    if box.dim == 1:
        order = np.lexsort((hi[:, 0], lo[:, 0]))
        if np.all(lo[order[1:], 0] >= hi[order[:-1], 0] - GUARD):  # interiors disjoint
            return SeparationReport(Condition.OSC, Status.SATISFIED, tuple(map(Box, lo, hi)), max(min_gap, 0.0))

    return SeparationReport(Condition.OSC, Status.UNKNOWN, close_pairs[0], min_gap)


# ---------------------------------------------------------------------------
# search for separated sub-systems
# ---------------------------------------------------------------------------


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
    when no level keeps any word (at once for a one-map system, whose only
    word per level is dropped for strictness).  Each selection is re-verified through
    :func:`check_ssc` and returned with that report (its ``min_gap`` is the
    certified gap); a selection that fails it raises ``RuntimeError``, and
    reaching a level of more than :data:`MAX_SEARCH_WORDS` words ``ValueError``.
    """
    suffix._check_against(wifs)
    if wifs.n_maps == 1:
        return None
    hull = attractor_hull(wifs)
    fallback = None
    for level in range(1, n_max + 1):
        if wifs.n_maps ** level > MAX_SEARCH_WORDS:
            raise ValueError(f"level {level} has more than {MAX_SEARCH_WORDS} words")
        words = np.indices((wifs.n_maps,) * level).reshape(level, -1).T + 1  # in word order
        symbols = np.hstack([words, np.tile(np.array(suffix.symbols, dtype=int), (len(words), 1))])
        lo, hi = box_images(*compose_words(wifs, symbols), hull)
        kept: list[int] = []
        for k in np.argsort(hi[:, 0], kind="stable"):
            if np.all(box_gaps(lo[k], hi[k], lo[kept], hi[kept]) > 2.0 * GUARD):
                kept.append(int(k))
        if len(kept) == len(words):
            kept.remove(len(words) - 1)  # strictness: drop the last word in word order
        if not kept or (len(kept) == 1 and fallback is not None):
            continue
        sub = build_sub_wifs(wifs, level, suffix, [Word(words[k]) for k in kept])
        report = check_ssc(sub.maps, hull)
        if report.status is not Status.SATISFIED:
            raise RuntimeError(f"{sub!r} fails its SSC re-check")
        if len(kept) > 1:
            return sub, report
        fallback = sub, report
    return fallback
