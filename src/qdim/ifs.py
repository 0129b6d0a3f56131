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

import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    EmptySelection,
    InvalidWord,
    NotStrictSubset,
    QdimError,
)
from .geometry import Box, hausdorff_distance  # re-exported: hull users need both
from .measures import DiscreteMeasure

__all__ = [
    "Similitude",
    "similitude_1d",
    "WIFS",
    "Word",
    "SubWIFS",
    "compose_word",
    "build_sub_wifs",
    "attractor_hull",
    "hutchinson_push",
    "hausdorff_distance",
    "wifs_to_json_obj",
    "wifs_from_json_obj",
    "wifs_fingerprint",
]

_ORTHO_TOL = 1e-12
_PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# similitudes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Similitude:
    """Contracting similarity ``f(x) = scale * isometry @ x + translation``.

    ``scale`` must lie in (0, 1]; the value 1 is permitted only so that the
    empty word can compose to the identity, and is rejected by :class:`WIFS`
    membership.  ``isometry`` must be orthogonal within 1e-12.
    """

    scale: float
    isometry: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        scale = float(self.scale)
        iso = np.atleast_2d(np.asarray(self.isometry, dtype=float)).copy()
        tr = np.atleast_1d(np.asarray(self.translation, dtype=float)).copy()
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {scale!r}")
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

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def identity(dim: int) -> "Similitude":
        """Neutral element for composition (scale 1, not WIFS-admissible)."""
        return Similitude(1.0, np.eye(dim), np.zeros(dim))

    # ---- behaviour -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to one point (m,) or a batch (k, m)."""
        p = np.asarray(points, dtype=float)
        return p @ (self.scale * self.isometry.T) + self.translation

    def compose(self, other: "Similitude") -> "Similitude":
        """``self o other`` (other acts first)."""
        if self.dim != other.dim:
            raise DimensionError(f"cannot compose maps in R^{self.dim} and R^{other.dim}")
        return Similitude(
            self.scale * other.scale,
            self.isometry @ other.isometry,
            self.scale * self.isometry @ other.translation + self.translation,
        )

    def fixed_point(self) -> np.ndarray:
        """The unique fixed point (requires scale < 1)."""
        if self.scale >= 1.0:
            raise ValueError("identity-scale map has no unique fixed point")
        m = self.dim
        return np.linalg.solve(np.eye(m) - self.scale * self.isometry, self.translation)

    def box_image(self, box: Box) -> Box:
        """Tight axis-aligned enclosure of the image of an axis-aligned box.

        Exact when the isometry is a signed permutation (in particular
        always in 1-d); otherwise the smallest axis-aligned box around the
        rotated image.
        """
        c = self.apply(box.center)
        h = self.scale * (np.abs(self.isometry) @ box.halfwidth)
        return Box(c - h, c + h)

    @property
    def is_orientation_preserving(self) -> bool:
        """True when det(isometry) > 0 (in 1-d: the sign is +1)."""
        return bool(np.linalg.det(self.isometry) > 0.0)


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

    Invariants enforced at construction: at least one map, every scale
    strictly below 1, all probabilities strictly positive and summing to 1
    within 1e-12, and a common ambient dimension.
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
        for k, f in enumerate(maps):
            if f.scale >= 1.0:
                raise ValueError(f"map {k + 1} has scale {f.scale!r}; WIFS maps must contract")
        if np.any(probs <= 0.0):
            raise ValueError("probabilities must be strictly positive")
        if abs(math.fsum(probs.tolist()) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {math.fsum(probs.tolist())!r}, not 1")
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
                raise InvalidWord(f"symbol {s} exceeds the {wifs.n_maps} available maps")

    def ratio(self, wifs: WIFS) -> float:
        """Product of the scales along the word (1.0 for the empty word)."""
        self._check_against(wifs)
        out = 1.0
        for s in self.symbols:
            out *= wifs.maps[s - 1].scale
        return out

    def weight(self, wifs: WIFS) -> float:
        """Product of the probabilities along the word (1.0 for the empty word)."""
        self._check_against(wifs)
        out = 1.0
        for s in self.symbols:
            out *= float(wifs.probs[s - 1])
        return out


def compose_word(wifs: WIFS, word: Word) -> Similitude:
    """Compose the maps along a word, rightmost symbol acting first.

    The empty word yields the identity (scale 1), which is a valid result
    of composition but not a valid WIFS member.
    """
    word._check_against(wifs)
    out = Similitude.identity(wifs.dim)
    for s in word.symbols:
        out = out.compose(wifs.maps[s - 1])
    return out


# ---------------------------------------------------------------------------
# sub-systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubWIFS:
    """Strict level-n sub-system of a parent WIFS.

    Keeps the words ``eta`` in ``selection`` (all of length ``level``), each
    glued to the common ``suffix`` word, with maps ``f_{eta suffix}`` and
    weights renormalised from the parent word weights:

        varsigma_eta = w(eta suffix) / sum_{theta in selection} w(theta suffix).

    Build through :func:`build_sub_wifs`, which validates everything.
    """

    parent: WIFS
    level: int
    suffix: Word
    selection: tuple[Word, ...]
    maps: tuple[Similitude, ...]
    probs: np.ndarray

    def to_wifs(self) -> WIFS:
        """Forget the parent: the sub-system as a standalone WIFS."""
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
        w._check_against(wifs)
    suffix._check_against(wifs)
    if len(words) >= wifs.n_maps ** level:
        raise NotStrictSubset(
            f"selection of {len(words)} words covers all level-{level} words; "
            "a strict subset is required"
        )
    maps = tuple(compose_word(wifs, w + suffix) for w in words)
    raw = np.array([(w + suffix).weight(wifs) for w in words])
    probs = raw / math.fsum(raw.tolist())
    return SubWIFS(
        parent=wifs,
        level=level,
        suffix=suffix,
        selection=tuple(words),
        maps=maps,
        probs=probs,
    )


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
    a = np.array([f.scale * np.block([[np.maximum(f.isometry, 0.0), np.maximum(-f.isometry, 0.0)],
                                      [np.maximum(-f.isometry, 0.0), np.maximum(f.isometry, 0.0)]])
                  for f in wifs.maps])
    b = np.array([np.concatenate([-f.translation, f.translation]) for f in wifs.maps])
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
    # box_image: grow the box until every one fits.  Along push each policy
    # row gains one unit of margin per unit of step; the step starts at the
    # largest overshoot and doubles until it beats rounding.
    step = 0.0
    for _ in range(64):
        box = Box(-y[:m], y[m:])
        images = [f.box_image(box) for f in wifs.maps]
        over = float(np.max([np.concatenate([-img.lo, img.hi]) - y for img in images]))
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
    locs = np.vstack([f.apply(mu.atoms) for f in wifs.maps])
    wts = np.concatenate([p * mu.weights for p in wifs.probs])
    return DiscreteMeasure(locs, wts)


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
    try:
        ambient = int(obj["ambient_dim"])
    except (KeyError, TypeError, ValueError):
        raise QdimError("field 'ambient_dim' missing or not an integer") from None
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


def wifs_fingerprint(wifs: WIFS) -> str:
    """Stable hex digest of the exact float content of the system."""
    payload = {
        "ambient_dim": wifs.dim,
        "maps": [
            {
                "scale": float(f.scale).hex(),
                "translation": [float(c).hex() for c in f.translation],
                "isometry": [[float(c).hex() for c in row] for row in f.isometry],
            }
            for f in wifs.maps
        ],
        "probs": [float(p).hex() for p in wifs.probs],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
