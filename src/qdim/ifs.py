"""Weighted iterated function systems of similitudes.

The objects here are deliberately plain: a :class:`Similitude` is
``x -> scale * R x + t`` with ``R`` orthogonal, a :class:`WIFS` bundles
finitely many contracting similitudes with a strictly positive probability
vector, a :class:`Word` is a finite string of map indices, and a
:class:`SubWIFS` is the system obtained by keeping only a strict subset of
the level-n words (optionally glued to a common suffix word) with weights
renormalised from the parent.

Composition convention: for a word ``w = w1 w2 ... wk`` the composed map is

    f_w = f_{w1} o f_{w2} o ... o f_{wk}

i.e. the *rightmost* symbol acts first.  The convention is observable:
with maps ``f1(x) = x/4`` and ``f2(x) = x/4 + t`` the word "21" composes to
``x/16 + t``, sending [0, 1] onto [t, t + 1/16].

Everything is immutable; randomness never enters this module.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    DimensionError,
    EmptySelection,
    InvalidWord,
    NotStrictSubset,
    QdimError,
)
from .geometry import Box
from .measures import DiscreteMeasure

__all__ = [
    "Similitude",
    "similitude_1d",
    "WIFS",
    "Word",
    "SubWIFS",
    "compose_words",
    "antichain_words",
    "antichain_index",
    "stack_maps",
    "point_images",
    "box_images",
    "build_sub_wifs",
    "attractor_hull",
    "hutchinson_push",
    "wifs_to_json_obj",
    "wifs_from_json_obj",
]

_ORTHO_TOL = 1e-12
_PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# similitudes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Similitude:
    """Contracting similarity ``f(x) = scale * isometry @ x + translation``.

    ``scale`` must lie in (0, 1) and ``isometry`` must be orthogonal within
    1e-12.
    """

    scale: float
    isometry: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        scale = float(self.scale)
        iso = np.atleast_2d(np.asarray(self.isometry, dtype=float)).copy()
        tr = np.atleast_1d(np.asarray(self.translation, dtype=float)).copy()
        if not 0.0 < scale < 1.0:
            raise ValueError(f"scale must lie in (0, 1), got {scale!r}")
        m = tr.shape[0]
        if iso.shape != (m, m):
            raise DimensionError(f"isometry shape {iso.shape} does not match translation in R^{m}")
        if not np.all(np.isfinite(iso)) or not np.all(np.isfinite(tr)):
            raise ValueError("isometry and translation must be finite")
        defect = np.max(np.abs(iso.T @ iso - np.eye(m)))
        if defect > _ORTHO_TOL:
            raise ValueError(f"isometry is not orthogonal (defect {defect:.3e} > {_ORTHO_TOL})")
        iso.flags.writeable = False
        tr.flags.writeable = False
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "isometry", iso)
        object.__setattr__(self, "translation", tr)

    # ---- behaviour -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.translation.shape[0]


def similitude_1d(scale: float, offset: float, orientation: int = 1) -> Similitude:
    """Convenience constructor for ``f(x) = orientation * scale * x + offset``."""
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    return Similitude(scale, np.array([[float(orientation)]]), np.array([offset]))


# ---------------------------------------------------------------------------
# weighted systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WIFS:
    """Weighted IFS: contracting similitudes plus a probability vector.

    Invariants enforced at construction: at least one map (each contracts,
    as every :class:`Similitude` does), all probabilities strictly positive
    and summing to 1 within 1e-12, and a common ambient dimension.
    """

    maps: tuple[Similitude, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float)).copy()
        if len(maps) == 0:
            raise ValueError("a WIFS needs at least one map")
        if probs.shape != (len(maps),):
            raise ValueError(f"probs shape {probs.shape} does not match {len(maps)} maps")
        dims = {f.dim for f in maps}
        if len(dims) != 1:
            raise DimensionError(f"maps live in different ambient dimensions: {sorted(dims)}")
        if np.any(probs <= 0.0):
            raise ValueError("probabilities must be strictly positive")
        total = math.fsum(probs.tolist())
        if not abs(total - 1.0) <= _PROB_TOL:  # written so that a NaN fails
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "probs", probs)

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    @property
    def scales(self) -> np.ndarray:
        return np.array([f.scale for f in self.maps])

    @property
    def max_scale(self) -> float:
        return max(f.scale for f in self.maps)

    def __repr__(self) -> str:
        return f"WIFS(n_maps={self.n_maps}, dim={self.dim})"


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Finite word of 1-based map indices; the empty word is the identity."""

    symbols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        syms = tuple(int(s) for s in self.symbols)
        if any(s < 1 for s in syms):
            raise InvalidWord(f"symbols must be >= 1, got {syms}")
        object.__setattr__(self, "symbols", syms)

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse "213" (single digits), "2,1,3" or "1.12" (separated; a
        trailing dot marks a one-symbol word, as in "12.")."""
        text = text.strip()
        if not text:
            return Word(())
        if "," in text or "." in text:
            return Word(tuple(int(p) for p in re.split("[,.]", text.removesuffix("."))))
        if not text.isdigit():
            raise InvalidWord(f"cannot parse word {text!r}")
        return Word(tuple(int(ch) for ch in text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols)

    def __str__(self) -> str:
        if all(s <= 9 for s in self.symbols):
            return "".join(str(s) for s in self.symbols)
        text = ".".join(str(s) for s in self.symbols)
        return text + "." if len(self.symbols) == 1 else text

    def _check_against(self, wifs: WIFS) -> None:
        for s in self.symbols:
            if s > wifs.n_maps:
                raise InvalidWord(f"symbol {s} lies outside the maps 1..{wifs.n_maps}")


def stack_maps(maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales (k,), isometries (k, m, m) and translations (k, m) of k maps."""
    return (np.array([f.scale for f in maps]), np.array([f.isometry for f in maps]),
            np.array([f.translation for f in maps]))


def compose_words(wifs: WIFS, symbols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales (k,), isometries (k, m, m) and translations (k, m) of the maps
    along the rows of a (k, L) matrix of 1-based symbols, rightmost acting
    first; symbol 0 pads a shorter word on the right and composes the
    identity exactly (scale 1, ``R @ I``, a zero translation).  The fold runs
    from the identity one column at a time in the one-word order
    ``f o g = (s s', R R', s R t' + t)``, so each row equals that fold of its
    unpadded word bit for bit.  Raises InvalidWord on a symbol outside 0..N
    or a 0 before a map symbol."""
    symbols = np.asarray(symbols, dtype=int)
    bad = (symbols < 0) | (symbols > wifs.n_maps)
    bad[:, :-1] |= (symbols[:, :-1] == 0) & (symbols[:, 1:] != 0)
    if bad.any():
        raise InvalidWord(f"symbol {symbols[bad][0]} lies outside the maps 1..{wifs.n_maps} "
                          "(0 pads a word on the right only)")
    k, m = symbols.shape[0], wifs.dim
    scales, isos, trs = (np.concatenate([[pad], table])
                         for pad, table in zip((1.0, np.eye(m), np.zeros(m)), stack_maps(wifs.maps)))
    scale, lin, tr = np.ones(k), np.tile(np.eye(m), (k, 1, 1)), np.zeros((k, m))
    for col in symbols.T:
        tr = ((scale[:, None, None] * lin) @ trs[col][:, :, None])[:, :, 0] + tr
        scale, lin = scale * scales[col], lin @ isos[col]
    return scale, lin, tr


def antichain_words(wifs: WIFS, sizes, r: float) -> dict[int, list[tuple[int, ...]]]:
    """Graf & Luschgy's antichains Gamma_n (LNM 1730, ch. 14) for every n
    in ``sizes``, from one priority walk in increasing n.

    Starting from the empty word, the word of largest p_w s_w^r (p_w at
    r = 0; ties go to the smaller word) is replaced by its children, as a
    heap pops it, while the antichain stays within n words.  Gamma_n is
    that antichain with its top word giving way to only its n - |Gamma| + 1
    highest-priority children, and the walk goes on from the antichain
    before that partial split.  Priorities are products taken from the
    left, children of equal priority in symbol order.  Returns each
    Gamma_n as 1-based words in word order.

    Raises
    ------
    DegenerateFit
        for n > 1 on a one-map system, whose words never split.
    """
    k = wifs.n_maps
    q = [float(p) * f.scale ** r for p, f in zip(wifs.probs, wifs.maps)]
    children = sorted(range(1, k + 1), key=lambda i: (-q[i - 1], i))
    heap: list[tuple[float, tuple[int, ...]]] = [(-1.0, ())]
    gammas = {}
    for n in sorted(sizes):
        if k == 1 and n > 1:
            raise DegenerateFit(f"a one-map system has no antichain of {n} words")
        while len(heap) < n and len(heap) + k - 1 <= n:
            neg, word = heapq.heappop(heap)
            for i in children:
                heapq.heappush(heap, (neg * q[i - 1], word + (i,)))
        words = [word for _, word in heap]
        if len(heap) < n:  # heap[0] is the top word
            words[0:1] = [words[0] + (i,) for i in children[:n - len(heap) + 1]]
        gammas[n] = sorted(words)
    return gammas


def antichain_index(words, picks: np.ndarray, count: int) -> np.ndarray:
    """For each of the last ``count`` steps of a chaos-game orbit, the index
    in ``words`` (an antichain of 1-based words) of the word its address
    starts with.

    ``picks`` holds the orbit's 0-based map indices in draw order, so step
    t lies in f_w(conv K) for w = (picks[t], picks[t - 1], ...) + 1.  The
    words' trie is held as two tables with one row per proper prefix (a
    split word: for n words over k maps at most (n - 1)/(k - 1) + 1 rows of
    k entries, so about 2n + 2k entries for any k) plus a sink row: the
    child's row (the sink where a word ends) and the index of the word that
    ends there (else 0).  All samples walk it together, one symbol per pass,
    reading at most ``burn_in + 1 = len(picks) - count + 1`` symbols, and
    keep the largest word index met, the one word they end in.  The result
    is a guess: a sample whose address leaves the trie (an omitted child of
    a partial split) or runs out of symbols gets index 0.
    """
    burn_in = picks.size - count
    base = max(max((s for word in words for s in word), default=0), int(picks.max(initial=0)) + 1)
    rows: dict[tuple[int, ...], int] = {}
    for word in words:
        for depth in range(len(word)):
            rows.setdefault(word[:depth], len(rows))
    sink = len(rows)
    child = np.full((sink + 1, base), sink, dtype=np.intp)
    ends = np.zeros((sink + 1, base), dtype=np.intp)
    for prefix, row in rows.items():
        if prefix:
            child[rows[prefix[:-1]], prefix[-1] - 1] = row
    for i, word in enumerate(words):
        if word:
            ends[rows[word[:-1]], word[-1] - 1] = i
    child, ends = child.ravel(), ends.ravel()
    out = np.zeros(count, dtype=np.intp)
    node = np.zeros(count, dtype=np.intp)
    for j in range(min(max(map(len, words), default=0), burn_in + 1)):
        node *= base
        node += picks[burn_in - j:burn_in - j + count]
        np.maximum(out, ends[node], out=out)
        node = child[node]
    return out


def _word_weights(wifs: WIFS, symbols: np.ndarray) -> np.ndarray:
    """Word weights p_w (k,) along the rows of a (k, L) matrix of symbols
    that :func:`compose_words` accepted: the probabilities multiplied from
    the left, one column at a time, from 1.0; a padding 0 weighs 1."""
    probs = np.concatenate([[1.0], wifs.probs])
    weight = np.ones(len(symbols))
    for col in symbols.T:
        weight = weight * probs[col]
    return weight


def point_images(scale: np.ndarray, lin: np.ndarray, tr: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Images (k, n, m) of n points (n, m) under each of the k maps
    ``x -> scale R x + t``, taken on row vectors as ``p @ (scale R^T) + t``."""
    return points @ (scale[:, None, None] * lin.transpose(0, 2, 1)) + tr[:, None, :]


def box_images(scale: np.ndarray, lin: np.ndarray, tr: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Corners (k, m) of the axis-aligned enclosures of the images of ``box``
    under the maps ``x -> scale R x + t``: exact when R is a signed
    permutation (always in 1-d), else the smallest box around the image."""
    c = point_images(scale, lin, tr, box.center[None])[:, 0]
    h = scale[:, None] * (np.abs(lin) @ box.halfwidth)
    return c - h, c + h


# ---------------------------------------------------------------------------
# sub-systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubWIFS:
    """Strict level-n sub-system of a parent WIFS.

    Keeps the words ``eta`` in ``selection`` (all of length ``level``), each
    glued to the common ``suffix`` word, with maps ``f_{eta suffix}``, the
    parent word weights ``weights`` (p_w for w = eta suffix) and those
    weights renormalised:

        varsigma_eta = p_{eta suffix} / sum_{theta in selection} p_{theta suffix}.

    Build through :func:`build_sub_wifs`, which validates everything.
    """

    level: int
    suffix: Word
    selection: tuple[Word, ...]
    maps: tuple[Similitude, ...]
    weights: np.ndarray
    probs: np.ndarray

    def to_wifs(self) -> WIFS:
        """The sub-system as a standalone WIFS."""
        return WIFS(self.maps, self.probs)

    def __repr__(self) -> str:
        sel = ",".join(str(w) for w in self.selection)
        return f"SubWIFS(level={self.level}, suffix='{self.suffix}', selection=[{sel}])"


def build_sub_wifs(wifs: WIFS, level: int, suffix: Word, selection) -> SubWIFS:
    """Construct the sub-system for a strict selection of level-n words.

    Raises
    ------
    EmptySelection
        if no word is selected.
    NotStrictSubset
        if the selection covers all ``N**level`` words.
    InvalidWord
        if a selected word has the wrong length or bad symbols.
    """
    if level < 1:
        raise QdimError(f"level must be >= 1, got {level}")
    words = sorted(set(selection), key=lambda w: w.symbols)
    if not words:
        raise EmptySelection("sub-system selection is empty")
    for w in words:
        if len(w) != level:
            raise InvalidWord(f"selected word '{w}' does not have length {level}")
    symbols = np.array([(w + suffix).symbols for w in words], dtype=int)
    maps = tuple(map(Similitude, *compose_words(wifs, symbols)))
    if len(words) >= wifs.n_maps ** level:
        raise NotStrictSubset(
            f"selection of {len(words)} words covers all level-{level} words; "
            "a strict subset is required"
        )
    weights = _word_weights(wifs, symbols)
    return SubWIFS(level=level, suffix=suffix, selection=tuple(words), maps=maps,
                   weights=weights, probs=weights / math.fsum(weights.tolist()))


# ---------------------------------------------------------------------------
# attractor hull
# ---------------------------------------------------------------------------


def attractor_hull(wifs: WIFS) -> Box:
    """Smallest axis-aligned box that every map sends into itself.

    In coordinates ``y = (-lo, hi)`` the map ``x -> s R x + t`` sends a box
    to ``A y + b`` with ``A = s [[R+, R-], [R-, R+]] >= 0`` (``R+``, ``R-``
    the positive and negative parts of ``R``) and ``b = (-t, t)``, so the
    hull is the fixed point of ``y -> max_i (A_i y + b_i)``.  Policy
    iteration (Howard, 1960) finds it exactly: fix one map per row, solve
    ``(I - A_pi) y = b_pi``, and switch a row only where another map
    reaches strictly further.  Each switch raises ``y``, so no policy
    repeats and at most ``N**(2m)`` solves are needed.  Raises RuntimeError
    when a policy matrix has spectral radius >= 1 (a map expands boxes, so
    no invariant box exists) or a cap is hit.
    """
    m, cap = wifs.dim, wifs.n_maps ** (2 * wifs.dim)
    scale, lin, tr = stack_maps(wifs.maps)
    pos, neg = np.maximum(lin, 0.0), np.maximum(-lin, 0.0)
    a = scale[:, None, None] * np.block([[pos, neg], [neg, pos]])
    b = np.hstack([-tr, tr])
    rows = np.arange(2 * m)
    policy = np.zeros(2 * m, dtype=int)
    for _ in range(cap):
        # Solve for the box and for push = (I - A_pi)^-1 1.  As A_pi >= 0,
        # its spectral radius is below 1 exactly when push > 0.
        i_a = np.eye(2 * m) - a[policy, rows]
        try:
            y, push = np.linalg.solve(i_a, b[policy, rows]), np.linalg.solve(i_a, np.ones(2 * m))
        except np.linalg.LinAlgError:  # singular: spectral radius 1
            push = np.zeros(2 * m)
        if not np.all(push > 0.0):
            raise RuntimeError("a map expands boxes (spectral radius >= 1): no invariant box exists")
        reach = a @ y + b
        best = reach.argmax(axis=0)
        switch = reach[best, rows] > reach[policy, rows]
        if not switch.any():
            break
        policy = np.where(switch, best, policy)
    else:
        raise RuntimeError(f"attractor hull: no stable policy within {cap} solves")
    y = np.maximum(y, -np.roll(y, m))  # a point hull can cross by rounding

    # The solve is exact up to rounding, but callers use the rounded
    # box_images: grow the box until every one fits.  Along push each policy
    # row gains one unit of margin per unit of step; the step starts at the
    # largest overshoot and doubles until it beats rounding.
    step = 0.0
    for _ in range(64):
        lo, hi = box_images(scale, lin, tr, Box(-y[:m], y[m:]))
        over = float(np.max(np.hstack([-lo, hi]) - y))
        if over <= 0.0:
            break
        step = max(2.0 * step, over)
        y = y + step * push
    else:
        raise RuntimeError("attractor hull: the rounded map images never fit inside the box")
    return Box(0.0 - y[:m], y[m:] + 0.0)  # adding to 0.0 turns -0.0 into 0.0


# ---------------------------------------------------------------------------
# Hutchinson pushforward
# ---------------------------------------------------------------------------


def hutchinson_push(mu: DiscreteMeasure, wifs: WIFS) -> DiscreteMeasure:
    """One step of the Markov transfer operator on discrete measures.

    Sends ``mu`` to ``sum_i probs[i] * (mu o f_i^{-1})``: every atom is
    pushed through every map, with weights multiplied by the map
    probability.  Atoms landing on exactly equal locations merge; no
    tolerance-based merging is performed.
    """
    if mu.dim != wifs.dim:
        raise DimensionError(f"measure in R^{mu.dim}, system in R^{wifs.dim}")
    locs = point_images(*stack_maps(wifs.maps), mu.atoms).reshape(-1, wifs.dim)
    return DiscreteMeasure(locs, (wifs.probs[:, None] * mu.weights).ravel())


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def wifs_to_json_obj(wifs: WIFS) -> dict:
    """Plain-dict form: {"ambient_dim", "maps": [...], "probs": [...]}."""
    return {
        "ambient_dim": wifs.dim,
        "maps": [
            {
                "scale": float(f.scale),
                "translation": [float(c) for c in f.translation],
                "isometry": [[float(c) for c in row] for row in f.isometry],
            }
            for f in wifs.maps
        ],
        "probs": [float(p) for p in wifs.probs],
    }


def wifs_from_json_obj(obj: dict) -> WIFS:
    """Validate and build a WIFS from its dict form.

    The "isometry" entry of each map is optional and defaults to the
    identity.  Error messages name the offending field so command-line
    validation can surface them directly.
    """
    if not isinstance(obj, dict):
        raise QdimError("wifs config must be a JSON object")
    ambient = obj.get("ambient_dim")
    if isinstance(ambient, bool) or not isinstance(ambient, int) or ambient < 1:
        raise QdimError(f"field 'ambient_dim' must be a positive integer, got {ambient!r}")
    maps_raw = obj.get("maps")
    if not isinstance(maps_raw, list) or not maps_raw:
        raise QdimError("field 'maps' must be a non-empty list")
    probs_raw = obj.get("probs")
    if not isinstance(probs_raw, list):
        raise QdimError("field 'probs' must be a list")
    maps = []
    for k, entry in enumerate(maps_raw):
        if not isinstance(entry, dict) or "scale" not in entry or "translation" not in entry:
            raise QdimError(f"field 'maps[{k}]' needs 'scale' and 'translation'")
        iso = entry.get("isometry")
        iso_arr = np.eye(ambient) if iso is None else np.asarray(iso, dtype=float)
        try:
            f = Similitude(float(entry["scale"]), iso_arr, np.asarray(entry["translation"], dtype=float))
        except (ValueError, TypeError) as exc:
            raise QdimError(f"field 'maps[{k}]' is invalid: {exc}") from None
        if f.dim != ambient:
            raise QdimError(f"field 'maps[{k}].translation' has dimension {f.dim}, expected {ambient}")
        maps.append(f)
    try:
        return WIFS(tuple(maps), np.asarray(probs_raw, dtype=float))
    except (ValueError, TypeError) as exc:
        raise QdimError(f"field 'probs' is invalid: {exc}") from None
