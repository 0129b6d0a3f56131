"""Finite discrete measures (Dirac mixtures) and the calculus used on them.

A :class:`DiscreteMeasure` is a finite positive combination of point masses
``sum_i w_i * delta_{x_i}`` with atoms ``x_i`` in R^m.  The module provides
the operations needed downstream:

* ``convolve`` -- Minkowski sum of atom sets with product weights,
* ``translate`` -- with the convention ``(mu + x)(E) = mu(E + x)``, so the
  atom locations move by ``-x``,
* ``mix`` -- convex combination ``alpha*mu + (1-alpha)*nu``,
* ``dl`` -- the bounded-Lipschitz / Wasserstein-1 transport distance,
  computed exactly (sorted-CDF integral in 1-d, a HiGHS transport LP with a
  checked duality certificate in R^m),
* ``tv`` -- total-variation-style distance on atoms,
* ``box_mass`` -- mass of a half-open box, for measures or sample clouds,
* CSV and JSON readers and writers, which write each number as its
  shortest round-trip decimal.  The CSV writer formats blocks of rows, each
  distinct value of a block's column once, and the reader parses a stream
  of lines, so neither holds a Python object per row of a whole file.

Only the R^m route of ``dl`` needs scipy (``scipy.optimize.linprog`` and
``scipy.sparse``); it imports them on its first call, so importing this
module loads no scipy.

Atoms that coincide *exactly* (bit-for-bit after normalising signed zeros)
are merged at construction time; no tolerance-based snapping is ever done,
because approximate merging would silently change masses.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DimensionError, NotNormalized
from .geometry import Box

__all__ = [
    "DiscreteMeasure",
    "convolve",
    "translate",
    "mix",
    "dl",
    "tv",
    "box_mass",
    "measure_to_csv",
    "measure_from_csv",
    "measure_to_json_obj",
    "measure_from_json_obj",
]

#: Tolerance on each part of the transport LP's duality certificate.
TRANSPORT_CERT_TOL = 1e-9

#: HiGHS settings for the transport LP.  At the default tolerances (1e-7) one
#: of 160 sample 2-d problems had duals off by 6e-8, which the certificate
#: refuses; 1e-10 is the tightest HiGHS accepts.  Presolve finds nothing to
#: remove from a transport LP and costs time and memory.  The interior-point
#: method (whose crossover ends on a vertex) is used over dual simplex, which
#: is ~2x faster on 64 atoms but left 1.7 MB more resident in the benchmark.
_HIGHS_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}

_NORMALIZATION_TOL = 1e-9

#: Rows per block of the CSV writer: a block's field strings are the only
#: per-row Python objects the writer holds at a time.
_CSV_BLOCK_ROWS = 4096


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


# ---------------------------------------------------------------------------
# the measure type
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite discrete measure ``sum_i weights[i] * delta_{atoms[i]}``.

    Parameters
    ----------
    atoms : ndarray, shape (k, m) or (k,)
        Atom locations; 1-d input is interpreted as k atoms in R^1.
    weights : ndarray, shape (k,)
        Strictly positive masses.  Exact duplicate locations are merged by
        summing their weights, and atoms are stored in lexicographic order,
        so equal measures built in different atom orders have identical
        internal representations.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2:
            raise DimensionError(f"atoms must be a (k, m) array, got shape {atoms.shape}")
        if weights.ndim != 1 or weights.shape[0] != atoms.shape[0]:
            raise ValueError(f"weights shape {weights.shape} does not match {atoms.shape[0]} atoms")
        if atoms.shape[0] == 0:
            raise ValueError("a measure needs at least one atom")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
            raise ValueError("atoms and weights must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")

        # Canonicalise -0.0 to +0.0 so that bitwise comparisons agree with
        # numeric equality, then merge exact duplicates.
        atoms, weights = _merge_equal_rows(atoms + 0.0, weights)
        if not np.all(np.isfinite(weights)):
            raise ValueError("merged weights of duplicate atoms overflow")

        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    # ---- descriptors ---------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.atoms.shape[1])

    @property
    def size(self) -> int:
        """Number of (distinct) atoms."""
        return int(self.atoms.shape[0])

    @property
    def total(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    def is_probability(self, tol: float = _NORMALIZATION_TOL) -> bool:
        return abs(self.total - 1.0) <= tol

    def __repr__(self) -> str:  # keep reprs short; atoms can be huge
        return f"DiscreteMeasure(size={self.size}, dim={self.dim}, total={self.total:.6g})"


def _merge_equal_rows(atoms: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows in lexicographic order, each once, with the weights of equal rows
    summed in their input order (the sort is stable)."""
    order = np.lexsort(atoms.T[::-1])
    atoms, weights = atoms[order], weights[order]
    new = np.ones(atoms.shape[0], dtype=bool)
    new[1:] = np.any(atoms[1:] != atoms[:-1], axis=1)
    if new.all():  # nothing to merge: skip the regrouping's extra n-length buffers
        return atoms, weights
    return atoms[new], np.bincount(np.cumsum(new) - 1, weights=weights)


def _check_same_dim(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.dim != nu.dim:
        raise DimensionError(f"measures live in R^{mu.dim} and R^{nu.dim}")


# ---------------------------------------------------------------------------
# algebra: convolution, translation, mixture
# ---------------------------------------------------------------------------


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution ``mu * nu``: atoms x_i + y_j with weights w_i * v_j.

    The total mass multiplies, so the convolution of two probability
    measures is again a probability measure.
    """
    _check_same_dim(mu, nu)
    if mu.size * nu.size > 4_000_000:
        raise ValueError(f"convolution support too large ({mu.size} x {nu.size} atoms)")
    with np.errstate(over="ignore"):  # the constructor refuses infinite atoms
        locs = (mu.atoms[:, None, :] + nu.atoms[None, :, :]).reshape(-1, mu.dim)
    wts = (mu.weights[:, None] * nu.weights[None, :]).reshape(-1)
    return DiscreteMeasure(locs, wts)


def translate(mu: DiscreteMeasure, x) -> DiscreteMeasure:
    """Translate of ``mu`` by ``x`` under the convention (mu+x)(E) = mu(E+x).

    Unwinding the convention: the translated measure puts the mass of the
    atom at location ``a`` onto ``a - x``.
    """
    shift = np.atleast_1d(np.asarray(x, dtype=float))
    if shift.shape[0] != mu.dim:
        raise DimensionError(f"shift lives in R^{shift.shape[0]}, measure in R^{mu.dim}")
    with np.errstate(over="ignore"):  # the constructor refuses infinite atoms
        return DiscreteMeasure(mu.atoms - shift, mu.weights)


def mix(mu: DiscreteMeasure, nu: DiscreteMeasure, alpha: float) -> DiscreteMeasure:
    """Convex combination ``alpha*mu + (1-alpha)*nu`` for alpha in [0, 1]."""
    _check_same_dim(mu, nu)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return DiscreteMeasure(nu.atoms, nu.weights)
    if alpha == 1.0:
        return DiscreteMeasure(mu.atoms, mu.weights)
    locs = np.vstack([mu.atoms, nu.atoms])
    wts = np.concatenate([alpha * mu.weights, (1.0 - alpha) * nu.weights])
    return DiscreteMeasure(locs, wts)


# ---------------------------------------------------------------------------
# transport distance dl
# ---------------------------------------------------------------------------


def dl(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Transport distance between two discrete *probability* measures.

    This is the Kantorovich / Wasserstein-1 distance
    ``inf { E|X - Y| : X ~ mu, Y ~ nu }``, which on probability measures
    coincides with the bounded-Lipschitz metric
    ``sup { |int f dmu - int f dnu| : Lip(f) <= 1 }``.

    In R^1 the distance is the integral of the absolute CDF difference,
    computed exactly on the merged sorted atom grid.  In R^m it is the value
    of the transport linear program, accepted only with a duality
    certificate.

    Raises
    ------
    NotNormalized
        if either measure does not have total mass 1 (within 1e-9).
    RuntimeError
        if the R^m transport LP fails or its certificate does not hold.
    """
    _check_same_dim(mu, nu)
    for name, m in (("mu", mu), ("nu", nu)):
        if not m.is_probability():
            raise NotNormalized(f"dl requires probability measures; {name} has total {m.total!r}")
    if mu.dim == 1:
        return _dl_sorted_cdf(mu, nu)
    return _dl_transport_lp(mu, nu)


def _dl_sorted_cdf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """1-d exact distance: integral of |F_mu - F_nu| over the real line.

    The CDF difference is made absolute and weighted by the grid steps in
    place, one grid-length buffer for each CDF and one for the steps.
    """
    grid = np.unique(np.concatenate([mu.atoms[:, 0], nu.atoms[:, 0]]))
    if grid.shape[0] == 1:
        return 0.0
    gap = _cdf_on_grid(mu, grid)
    gap -= _cdf_on_grid(nu, grid)
    gap = np.abs(gap[:-1], out=gap[:-1])
    gap *= np.diff(grid)
    return float(np.sum(gap))


def _cdf_on_grid(mu: DiscreteMeasure, grid: np.ndarray) -> np.ndarray:
    """CDF of mu evaluated at each grid point (grid contains all atoms)."""
    idx = np.searchsorted(grid, mu.atoms[:, 0])
    masses = np.zeros(grid.shape[0])
    np.add.at(masses, idx, mu.weights)
    return np.cumsum(masses, out=masses)


def _dl_transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact transport cost between atom clouds in R^m.

    HiGHS solves the Kantorovich LP ``min <C, P>`` over couplings ``P >= 0``
    with marginals ``a, b`` (renormalised to mass 1).  Its value is accepted
    only with a certificate (Peyre & Cuturi, *Computational Optimal
    Transport*, 2019, section 3): the duals satisfy ``u_i + v_j <= C_ij`` and
    match the value, ``<a, u> + <b, v> = <C, P>``, and ``P`` meets its
    marginals, each within ``TRANSPORT_CERT_TOL``.  The duals checked are
    the solver's row duals ``u`` and the c-transform ``v_j = min_i (C_ij -
    u_i)``, dual feasible by construction: the interior-point solver's own
    column duals can miss feasibility by a few 1e-9 at a gap of 1e-17.
    Its own duals must still match its value (the solver gap).
    """
    from scipy import sparse

    a = mu.weights / mu.total
    b = nu.weights / nu.total
    ka, kb = a.shape[0], b.shape[0]
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
    # Variable i*kb + j is the mass P_ij: it enters row sum i and column sum ka + j.
    i, j = np.divmod(np.arange(ka * kb), kb)
    a_eq = sparse.csc_matrix((np.ones(2 * ka * kb), np.stack([i, ka + j], axis=1).ravel(),
                              np.arange(0, 2 * ka * kb + 1, 2)), shape=(ka + kb, ka * kb))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs-ipm", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(ka, kb)
    u, v_lp = res.eqlin.marginals[:ka], res.eqlin.marginals[ka:]
    v = np.min(cost - u[:, None], axis=0)
    violations = {
        "dual infeasibility": float(np.max(u[:, None] + v[None, :] - cost)),
        "duality gap": abs(res.fun - (float(a @ u) + float(b @ v))),
        "solver gap": abs(res.fun - (float(a @ u) + float(b @ v_lp))),
        "marginal error": max(float(np.max(np.abs(plan.sum(axis=1) - a))),
                              float(np.max(np.abs(plan.sum(axis=0) - b)))),
        "negative mass": -float(np.min(plan)),
    }
    if not all(value <= TRANSPORT_CERT_TOL for value in violations.values()):
        found = ", ".join(f"{name} {value:.3e}" for name, value in violations.items())
        raise RuntimeError(f"transport LP certificate failed (tol {TRANSPORT_CERT_TOL:g}): {found}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# total variation on atoms
# ---------------------------------------------------------------------------


def tv(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Total-variation distance on atoms: ``sum_x max(mu{x} - nu{x}, 0)``.

    For measures of equal total mass this equals the supremum of
    ``|mu(A) - nu(A)|`` over all sets of atoms (the supremum is attained on
    the set where mu out-weighs nu).  Sums are accumulated with
    ``math.fsum`` so the result is the correctly rounded value of the exact
    real sum.  Both atom tables are merged in one sort, with nu's weights
    negated, so each atom's difference is ``w_mu - w_nu`` rounded once.
    """
    _check_same_dim(mu, nu)
    _, diffs = _merge_equal_rows(np.vstack([mu.atoms, nu.atoms]),
                                 np.concatenate([mu.weights, -nu.weights]))
    return math.fsum(diffs[diffs > 0.0].tolist())


# ---------------------------------------------------------------------------
# box masses
# ---------------------------------------------------------------------------


def box_mass(obj, box: Box) -> float:
    """Mass of the half-open box ``[lo, hi)`` under a measure or point cloud.

    ``obj`` may be a :class:`DiscreteMeasure` (weights are summed), any
    object with a ``points`` attribute such as a chaos-game sample set
    (the fraction of points inside is returned), or a bare (k, m) array
    of points (also the fraction).
    """
    if isinstance(obj, DiscreteMeasure):
        pts, wts = obj.atoms, obj.weights
        if pts.shape[1] != box.dim:
            raise DimensionError(f"measure in R^{pts.shape[1]}, box in R^{box.dim}")
        inside = np.all((pts >= box.lo) & (pts < box.hi), axis=1)
        return float(np.sum(wts[inside]))
    pts = np.asarray(getattr(obj, "points", obj), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != box.dim:
        raise DimensionError(f"points in R^{pts.shape[1]}, box in R^{box.dim}")
    inside = np.all((pts >= box.lo) & (pts < box.hi), axis=1)
    return float(np.mean(inside)) if pts.shape[0] else 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def measure_to_csv(mu: DiscreteMeasure) -> str:
    """CSV text with header ``x1,...,xm,weight`` and shortest-roundtrip floats:
    the blocks of :func:`_csv_blocks`, joined."""
    return "".join(_csv_blocks(mu))


def _csv_blocks(mu: DiscreteMeasure) -> Iterator[str]:
    """The CSV text of :func:`measure_to_csv` in pieces: the header line, then
    the rows in blocks of ``_CSV_BLOCK_ROWS``.

    Within a block each distinct value of a column is formatted once, by
    ``repr`` (the shortest round-trip decimal of a Python float), and its
    string is gathered back to every row that holds it; one ``join`` builds
    the block from fields at the even places and separators at the odd
    ones.  Values that ``np.unique`` counts equal have equal ``repr``
    because a :class:`DiscreteMeasure` holds no -0.0 and no NaN.
    """
    yield ",".join(f"x{i + 1}" for i in range(mu.dim)) + ",weight\n"
    cols = [*mu.atoms.T, mu.weights]
    step = 2 * len(cols)
    for lo in range(0, mu.size, _CSV_BLOCK_ROWS):
        rows = min(_CSV_BLOCK_ROWS, mu.size - lo)
        parts = [","] * (step * rows)
        parts[step - 1::step] = ["\n"] * rows
        for j, col in enumerate(cols):
            values, inverse = np.unique(col[lo:lo + rows], return_inverse=True)
            strings = np.array(list(map(repr, values.tolist())), dtype=object)
            parts[2 * j::step] = strings[inverse].tolist()
        yield "".join(parts)


def measure_from_csv(text: str | Iterable[str]) -> DiscreteMeasure:
    """Measure from :func:`measure_to_csv` text, or from an iterable of its
    lines such as an open file, which is parsed as it is read.

    Raises ``ValueError`` for a missing header, no atom rows, rows of unequal
    length or of another length than the header, non-numeric fields and
    non-finite values.  Lines are stripped, and blank ones skipped, before
    ``np.loadtxt`` parses the rows after the header.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    rows = filter(None, map(str.strip, lines))
    header = next(rows, "")
    if not header.endswith("weight"):
        raise ValueError("measure CSV needs a header ending in 'weight'")
    first = next(rows, None)
    if first is None:
        raise ValueError("measure CSV has no atom rows")
    data = np.loadtxt(itertools.chain((first,), rows), delimiter=",", comments=None, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("measure CSV needs at least one coordinate column plus weight")
    width = header.count(",") + 1
    if data.shape[1] != width:
        raise ValueError(f"measure CSV header has {width} columns, its rows {data.shape[1]}")
    return DiscreteMeasure(data[:, :-1], data[:, -1])


def measure_to_json_obj(mu: DiscreteMeasure) -> dict:
    return {"atoms": [{"location": row, "weight": w}
                      for row, w in zip(mu.atoms.tolist(), mu.weights.tolist())]}


def measure_from_json_obj(obj: dict) -> DiscreteMeasure:
    """Measure from :func:`measure_to_json_obj` output; raises ``ValueError``
    when the object is not of that shape or holds non-finite values."""
    atoms = obj.get("atoms") if isinstance(obj, dict) else None
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("measure JSON needs a non-empty 'atoms' list")
    try:
        locs = np.array(list(map(itemgetter("location"), atoms)), dtype=float)
        wts = np.array(list(map(itemgetter("weight"), atoms)), dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"each measure JSON atom needs a numeric 'location' and 'weight': {exc!r}"
                         ) from exc
    return DiscreteMeasure(locs, wts)
