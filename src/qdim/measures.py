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
* ``box_mass`` -- mass of a half-open box, for measures or sample clouds.

Atoms that coincide *exactly* (bit-for-bit after normalising signed zeros)
are merged at construction time; no tolerance-based snapping is ever done,
because approximate merging would silently change masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import DimensionError, NotNormalized
from .geometry import Box

__all__ = [
    "DiscreteMeasure",
    "dirac",
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

        # Canonicalise -0.0 to +0.0 so that bitwise comparisons below agree
        # with numeric equality, then merge exact duplicates.
        atoms = atoms + 0.0
        order = np.lexsort(atoms.T[::-1])
        atoms = atoms[order]
        weights = weights[order]
        if atoms.shape[0] > 1:
            same = np.all(atoms[1:] == atoms[:-1], axis=1)
            if np.any(same):
                # group id increases whenever a row differs from its predecessor
                group = np.concatenate([[0], np.cumsum(~same)])
                atoms = atoms[np.concatenate([[True], ~same])]
                weights = np.bincount(group, weights=weights)

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

    def normalized(self) -> "DiscreteMeasure":
        """Rescale mass to 1."""
        return DiscreteMeasure(self.atoms, self.weights / self.total)

    def __repr__(self) -> str:  # keep reprs short; atoms can be huge
        return f"DiscreteMeasure(size={self.size}, dim={self.dim}, total={self.total:.6g})"


def dirac(location, weight: float = 1.0) -> DiscreteMeasure:
    """Point mass ``weight * delta_location``."""
    loc = np.atleast_1d(np.asarray(location, dtype=float))
    return DiscreteMeasure(loc[None, :], np.array([weight], dtype=float))


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
    """1-d exact distance: integral of |F_mu - F_nu| over the real line."""
    grid = np.unique(np.concatenate([mu.atoms[:, 0], nu.atoms[:, 0]]))
    if grid.shape[0] == 1:
        return 0.0
    f_mu = _cdf_on_grid(mu, grid)
    f_nu = _cdf_on_grid(nu, grid)
    dx = np.diff(grid)
    return float(np.sum(np.abs(f_mu[:-1] - f_nu[:-1]) * dx))


def _cdf_on_grid(mu: DiscreteMeasure, grid: np.ndarray) -> np.ndarray:
    """CDF of mu evaluated at each grid point (grid contains all atoms)."""
    idx = np.searchsorted(grid, mu.atoms[:, 0])
    masses = np.zeros(grid.shape[0])
    np.add.at(masses, idx, mu.weights)
    return np.cumsum(masses)


def _dl_transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact transport cost between atom clouds in R^m.

    HiGHS solves the Kantorovich LP ``min <C, P>`` over couplings ``P >= 0``
    with marginals ``a, b`` (renormalised to mass 1).  Its value is accepted
    only with a certificate (Peyre & Cuturi, *Computational Optimal
    Transport*, 2019, section 3): the duals satisfy ``u_i + v_j <= C_ij`` and
    match the value, ``<a, u> + <b, v> = <C, P>``, and ``P`` meets its
    marginals, each within ``TRANSPORT_CERT_TOL``.
    """
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
    u, v = res.eqlin.marginals[:ka], res.eqlin.marginals[ka:]
    violations = {
        "dual infeasibility": float(np.max(u[:, None] + v[None, :] - cost)),
        "duality gap": abs(res.fun - (float(a @ u) + float(b @ v))),
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
    real sum.
    """
    _check_same_dim(mu, nu)
    diffs: dict[bytes, float] = {}
    for row, w in zip(mu.atoms, mu.weights):
        diffs[row.tobytes()] = diffs.get(row.tobytes(), 0.0) + float(w)
    for row, w in zip(nu.atoms, nu.weights):
        diffs[row.tobytes()] = diffs.get(row.tobytes(), 0.0) - float(w)
    return math.fsum(d for d in diffs.values() if d > 0.0)


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
    """CSV text with header ``x1,...,xm,weight`` and shortest-roundtrip floats."""
    header = ",".join(f"x{i + 1}" for i in range(mu.dim)) + ",weight"
    lines = [header]
    for row, w in zip(mu.atoms, mu.weights):
        lines.append(",".join(repr(float(c)) for c in row) + f",{float(w)!r}")
    return "\n".join(lines) + "\n"


def measure_from_csv(text: str) -> DiscreteMeasure:
    rows = [line.strip() for line in text.strip().splitlines()]
    if not rows or not rows[0].endswith("weight"):
        raise ValueError("measure CSV needs a header ending in 'weight'")
    data = np.array([[float(c) for c in line.split(",")] for line in rows[1:]], dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("measure CSV needs at least one coordinate column plus weight")
    return DiscreteMeasure(data[:, :-1], data[:, -1])


def measure_to_json_obj(mu: DiscreteMeasure) -> dict:
    return {
        "atoms": [{"location": [float(c) for c in row], "weight": float(w)}
                  for row, w in zip(mu.atoms, mu.weights)],
    }


def measure_from_json_obj(obj: dict) -> DiscreteMeasure:
    atoms = obj.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("measure JSON needs a non-empty 'atoms' list")
    locs = np.array([a["location"] for a in atoms], dtype=float)
    wts = np.array([a["weight"] for a in atoms], dtype=float)
    return DiscreteMeasure(locs, wts)
