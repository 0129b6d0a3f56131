"""Self-contained acceptance suite: eleven checks with stated tolerances.

Each criterion pins down one contract of the package - closed-form solver
agreement, monotonicity, separation certificates on the movable-translation
example, empirical dimension recovery, sub-system comparisons, convolution
and mixture behaviour of the r = 0 estimate, exact metric agreement against
brute-force oracles, and the transfer-operator contraction bound.

Every randomised criterion draws from a fixed, documented seed so the suite
is bit-reproducible.  ``run_all`` returns structured results; the CLI
``verify --criteria`` command and the test-suite both consume it and print
one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import Box
from .ifs import (WIFS, Similitude, Word, attractor_hull, box_images, build_sub_wifs, compose_words,
                  hutchinson_push, point_images, similitude_1d, stack_maps)
from .instances import (
    cantor,
    four_fifths_shifted,
    quarter_maps,
    random_measure,
    random_ssc_wifs,
    random_wifs,
    uniform_halves,
)
from .measures import DiscreteMeasure, box_mass, dl, tv
from .quantize import SampleSet, chaos_game, fit_dimension, fit_dimension_from_samples
from .separation import SeparationReport, Status, check_osc_sufficient, check_ssc, search_separated_sub_ifs
from .dimension import d0_dimension, kappa_curve, solve_kappa

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all", "format_result",
           "run_quick"]

#: Base seed for every randomised criterion (offsets keep streams disjoint).
SUITE_SEED = 20260815

_LADDER = (16, 32, 64, 128, 256, 512)
_SAMPLES = 100_000


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def ok(self) -> bool:
        return self.passed and self.elapsed <= self.budget


def format_result(res: CriterionResult) -> str:
    flag = "PASS" if res.ok else "FAIL"
    extra = "" if res.passed else f" [{res.detail}]"
    if res.passed and res.elapsed > res.budget:
        extra = f" [over budget {res.budget:.0f}s]"
    return f"{flag}  criterion {res.cid:2d}  {res.name}  ({res.elapsed:.2f}s){extra}"


# ---------------------------------------------------------------------------
# 1-3: spectral solver
# ---------------------------------------------------------------------------


def _crit_closed_form() -> tuple[bool, str]:
    """Equal-weight equal-ratio systems: kappa_r = log N / log(1/s) for all r."""
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for s in (0.1, 0.2, 0.3, 0.4):
            maps = tuple(similitude_1d(s, float(k)) for k in range(n))
            w = WIFS(maps=maps, probs=tuple([1.0 / n] * n))
            target = math.log(n) / math.log(1.0 / s)
            for r in (0.1, 1.0, 2.0, 10.0):
                worst = max(worst, abs(solve_kappa(w, r).kappa_r - target))
    return worst < 1e-9, f"max |kappa - logN/log(1/s)| = {worst:.3e} (tol 1e-9)"


def _random_suite() -> list:
    rng = np.random.default_rng(SUITE_SEED + 2)
    return [random_wifs(rng) for _ in range(100)]


def _crit_monotone() -> tuple[bool, str]:
    """kappa_r is non-decreasing in r for 100 random systems (slack 1e-10)."""
    grid = np.linspace(0.1, 10.0, 50)
    bad = 0
    worst = 0.0
    for w in _random_suite():
        curve = kappa_curve(w, grid)
        ks = np.array([res.kappa_r for res in curve.results])
        drop = float(np.min(np.diff(ks)))
        worst = min(worst, drop)
        if not curve.monotone:
            bad += 1
    return bad == 0, f"{bad}/100 violations, worst step {worst:.3e} (slack -1e-10)"


def _crit_r_to_zero() -> tuple[bool, str]:
    """kappa at r = 1e-5 approaches the entropy/log-ratio dimension."""
    worst = 0.0
    for w in _random_suite():
        worst = max(worst, abs(solve_kappa(w, 1e-5).kappa_r - d0_dimension(w)))
    return worst < 1e-3, f"max |kappa(1e-5) - d0| = {worst:.3e} (tol 1e-3)"


# ---------------------------------------------------------------------------
# 4: separation certificates on the movable-translation example
# ---------------------------------------------------------------------------


def _example_separation() -> tuple[float, SeparationReport, SeparationReport]:
    """Movable-translation example at t = 0.2: the level-2 word images
    11, 21, 31 against their exact intervals, then the level-2 SSC and
    level-1 OSC reports.  Returns (max endpoint error, SSC report, OSC report).
    """
    w = quarter_maps(0.2)
    hull = attractor_hull(w)
    maps = compose_words(w, [[1, 1], [2, 1], [3, 1]])
    lo, hi = box_images(*maps, hull)
    exact = np.array([[0.0, 0.0625], [0.2, 0.2625], [0.75, 0.8125]])
    worst = float(np.max(np.abs(np.hstack([lo, hi]) - exact)))
    return worst, check_ssc(map(Similitude, *maps), hull), check_osc_sufficient(w.maps, hull)


def _crit_example_separation() -> tuple[bool, str]:
    """t = 0.2: exact level-2 interval images, SSC satisfied, level-1 OSC unknown."""
    worst, rep2, rep1 = _example_separation()
    if worst >= 1e-14:
        return False, f"image endpoint error {worst:.3e} (tol 1e-14)"
    ok = rep2.status is Status.SATISFIED and rep1.status is Status.UNKNOWN
    return ok, (f"endpoint err {worst:.1e}, level-2 SSC {rep2.status.value} "
                f"(min gap {rep2.min_gap:.4f}), level-1 OSC {rep1.status.value}")


# ---------------------------------------------------------------------------
# 5, 8, 9: empirical dimension pipeline
# ---------------------------------------------------------------------------


def _crit_empirical_r2() -> tuple[bool, str]:
    """Cantor and uniform measures recover their r = 2 dimensions within 0.08."""
    fit_c = fit_dimension(cantor(), 2.0, _LADDER, _SAMPLES, seed=SUITE_SEED + 5)
    err_c = abs(fit_c.estimate - math.log(2) / math.log(3))
    fit_u = fit_dimension(uniform_halves(), 2.0, _LADDER, _SAMPLES, seed=SUITE_SEED + 5)
    err_u = abs(fit_u.estimate - 1.0)
    ok = err_c <= 0.08 and err_u <= 0.08
    return ok, (f"Cantor D2_hat = {fit_c.estimate:.4f} (err {err_c:.4f}), "
                f"uniform D2_hat = {fit_u.estimate:.4f} (err {err_u:.4f}), tol 0.08")


def _sub_domination(parent: WIFS, renormalised: bool = False) -> tuple[int, float]:
    """Violations of mu(B) >= sum_{w in S} p_w mu(f_w^-1 B) over 200 random
    boxes B, and the worst margin.

    S is the separated selection :func:`search_separated_sub_ifs` finds and
    p_w the parent's word weight (the sub-system's renormalised weight when
    ``renormalised``).  Both sides are read off the parent's own samples x:
    mu(f_w^-1 B) is the share of f_w(x) in B.  A box counts as a violation
    when the right side passes the left by more than 3 sigma, sigma being
    the sum of the two sides' binomial standard deviations.  The worst
    margin is taken over the boxes where either side has mass.
    """
    sub, _ = search_separated_sub_ifs(parent)
    p_w = sub.probs if renormalised else sub.weights
    points = chaos_game(parent, _SAMPLES, seed=SUITE_SEED + 6).points
    images = point_images(*stack_maps(sub.maps), points)
    rng = np.random.default_rng(SUITE_SEED + 62)
    violations = 0
    worst = -math.inf
    for _ in range(200):
        lo = rng.uniform(0.0, 1.0)
        hi = rng.uniform(lo, 1.0)
        box = Box(np.array([lo]), np.array([hi]))
        p = box_mass(points, box)
        q = np.array([box_mass(img, box) for img in images])
        sigma = math.sqrt(p * (1.0 - p) / _SAMPLES) + float(p_w @ np.sqrt(q * (1.0 - q) / _SAMPLES))
        margin = float(p_w @ q) - (p + 3.0 * sigma)
        if p > 0.0 or q.any():  # a box with mass on neither side has margin 0
            worst = max(worst, margin)
        if margin > 0.0:
            violations += 1
    return violations, worst


def _crit_sub_domination() -> tuple[bool, str]:
    """The Cantor measure dominates its separated sub-IFS's word-weighted images."""
    violations, worst = _sub_domination(cantor())
    return violations == 0, f"{violations}/200 violations, worst margin {worst:.3e}"


def _convolved_with_two_point(samples: SampleSet, shift: float, seed: int) -> SampleSet:
    """Samples of mu * (delta_0 + delta_shift)/2: add an independent fair coin."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=samples.count).astype(float) * shift
    return SampleSet(points=samples.points + bits[:, None])


def _crit_convolution() -> tuple[bool, str]:
    """Convolving with (delta_0 + delta_5)/2 leaves the r = 0 estimate unchanged."""
    base = chaos_game(cantor(), _SAMPLES, seed=SUITE_SEED + 8)
    conv = _convolved_with_two_point(base, 5.0, seed=SUITE_SEED + 81)
    fit_base = fit_dimension_from_samples(base, 0.0, _LADDER)
    fit_conv = fit_dimension_from_samples(conv, 0.0, _LADDER)
    gap = abs(fit_conv.estimate - fit_base.estimate)
    return gap <= 0.1, (f"D0_hat base = {fit_base.estimate:.4f}, convolved = "
                        f"{fit_conv.estimate:.4f}, |gap| = {gap:.4f} (tol 0.1)")


def _mixture_samples() -> SampleSet:
    """Samples of (cantor + four_fifths_shifted)/2: supports [0, 1] and [2, 3]."""
    a = chaos_game(cantor(), _SAMPLES, seed=SUITE_SEED + 9)
    b = chaos_game(four_fifths_shifted(), _SAMPLES, seed=SUITE_SEED + 91)
    coin = np.random.default_rng(SUITE_SEED + 92).integers(0, 2, size=_SAMPLES).astype(bool)
    pts = np.where(coin[:, None], a.points, b.points)
    return SampleSet(points=pts)


def _crit_mixture_harmonic_blend() -> tuple[bool, str]:
    """At r = 0, D0 of the half-mixture is the harmonic blend, not the max rule.

    The component dimensions are log2/log3 = 0.6309 and log4/log5 = 0.8614.
    The supports lie apart, so with n = n_A + n_B points the geometric-mean
    error factorises, e_{n,0}(mix) = e_{n_A,0}(A)^(1/2) e_{n_B,0}(B)^(1/2),
    and every split n_A proportional to n gives 1/D0 = (1/2)(1/D_A + 1/D_B)
    = 1/0.7284.  The max rule, max(D_A, D_B) = 0.8614, holds only for r > 0,
    where the errors add; the estimate is held to the blend that replaces it.
    """
    d_a = math.log(2) / math.log(3)
    d_b = math.log(4) / math.log(5)
    target = 1.0 / (0.5 / d_a + 0.5 / d_b)
    max_rule = max(d_a, d_b)
    fit = fit_dimension_from_samples(_mixture_samples(), 0.0, _LADDER)
    err = abs(fit.estimate - target)
    return err <= 0.1, (f"D0_hat mixture = {fit.estimate:.4f}, harmonic target {target:.4f}, "
                        f"|err| = {err:.4f} (tol 0.1); max-rule value {max_rule:.4f} is "
                        f"{abs(fit.estimate - max_rule):.4f} away")


# ---------------------------------------------------------------------------
# 7: sub-system dimension comparison
# ---------------------------------------------------------------------------


def _crit_sub_dimension() -> tuple[bool, str]:
    """kappa of a renormalised strict sub-system vs the parent (r = 1)."""
    rng = np.random.default_rng(SUITE_SEED + 7)
    violations = 0
    worst = -math.inf
    worst_case = ""
    for _ in range(50):
        parent = random_ssc_wifs(rng)
        n = parent.n_maps
        size = int(rng.integers(1, n))
        members = np.sort(rng.choice(n, size=size, replace=False)) + 1
        sub = build_sub_wifs(parent, level=1, suffix=Word(()),
                             selection=[Word((int(i),)) for i in members])
        k_parent = solve_kappa(parent, 1.0).kappa_r
        k_sub = solve_kappa(sub.to_wifs(), 1.0).kappa_r
        excess = k_sub - k_parent
        if excess > worst:
            worst = excess
            worst_case = (f"scales={np.round(parent.scales, 3).tolist()}, "
                          f"probs={np.round(parent.probs, 3).tolist()}, keep={members.tolist()}")
        if excess > 1e-9:
            violations += 1
    return violations == 0, (f"{violations}/50 violations, worst excess {worst:.4f} "
                             f"({worst_case})")


# ---------------------------------------------------------------------------
# 10-11: metric exactness and contraction
# ---------------------------------------------------------------------------


def _lp_transport(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Brute-force LP value of the transport problem (oracle only)."""
    from scipy.optimize import linprog

    ka, kb = mu.size, nu.size
    cost = np.abs(mu.atoms[:, None, 0] - nu.atoms[None, :, 0]).ravel()
    a_eq = []
    for i in range(ka):
        row = np.zeros((ka, kb))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(kb):
        row = np.zeros((ka, kb))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def _crit_metric_exactness() -> tuple[bool, str]:
    """dl against a brute-force LP; tv against full subset enumeration."""
    rng = np.random.default_rng(SUITE_SEED + 10)
    worst_dl = 0.0
    for _ in range(100):
        mu = random_measure(rng, max_atoms=8, dim=1)
        nu = random_measure(rng, max_atoms=8, dim=1)
        worst_dl = max(worst_dl, abs(dl(mu, nu) - _lp_transport(mu, nu)))
    if worst_dl >= 1e-9:
        return False, f"max |dl - LP| = {worst_dl:.3e} (tol 1e-9)"

    tv_exact = True
    for _ in range(20):
        support = np.sort(rng.choice(30, size=12, replace=False)).astype(float)
        masses_a = rng.multinomial(4096, np.full(12, 1.0 / 12.0)) / 4096.0
        masses_b = rng.multinomial(4096, np.full(12, 1.0 / 12.0)) / 4096.0
        keep_a, keep_b = masses_a > 0, masses_b > 0
        mu = DiscreteMeasure(atoms=support[keep_a, None], weights=masses_a[keep_a])
        nu = DiscreteMeasure(atoms=support[keep_b, None], weights=masses_b[keep_b])
        diffs = masses_a - masses_b
        enum = 0.0
        for k in range(1, 13):
            for sel in combinations(range(12), k):
                enum = max(enum, abs(math.fsum(diffs[list(sel)])))
        if tv(mu, nu) != enum:
            tv_exact = False
            break
    return tv_exact, f"max |dl - LP| = {worst_dl:.3e}; tv == enumeration: {tv_exact}"


def _crit_contraction() -> tuple[bool, str]:
    """Transfer operator contracts transport distance at rate max(s_i)."""
    rng = np.random.default_rng(SUITE_SEED + 11)
    worst = 0.0
    for _ in range(20):
        w = random_ssc_wifs(rng)
        for _ in range(5):
            mu = random_measure(rng, max_atoms=6, dim=1)
            nu = random_measure(rng, max_atoms=6, dim=1)
            before = dl(mu, nu)
            if before == 0.0:
                continue
            after = dl(hutchinson_push(mu, w), hutchinson_push(nu, w))
            worst = max(worst, after / (w.max_scale * before))
    return worst <= 1.0 + 1e-9, f"max ratio d(Pmu,Pnu)/(smax d(mu,nu)) = {worst:.12f}"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


CRITERIA: tuple[tuple[int, str, float, object], ...] = (
    (1, "closed-form kappa on equal-ratio systems", 1.0, _crit_closed_form),
    (2, "kappa monotone in r", 10.0, _crit_monotone),
    (3, "kappa(r -> 0+) matches d0", 5.0, _crit_r_to_zero),
    (4, "movable-translation example separation", 0.1, _crit_example_separation),
    (5, "empirical r = 2 dimension recovery", 120.0, _crit_empirical_r2),
    (6, "sub-system mass domination", 30.0, _crit_sub_domination),
    (7, "sub-system dimension comparison", 5.0, _crit_sub_dimension),
    (8, "convolution leaves D0 unchanged", 120.0, _crit_convolution),
    (9, "mixture harmonic blend for D0", 120.0, _crit_mixture_harmonic_blend),
    (10, "transport and variation metric exactness", 10.0, _crit_metric_exactness),
    (11, "transfer-operator contraction", 10.0, _crit_contraction),
)


def run_criterion(cid: int) -> CriterionResult:
    for num, name, budget, fn in CRITERIA:
        if num == cid:
            start = time.perf_counter()
            passed, detail = fn()
            elapsed = time.perf_counter() - start
            return CriterionResult(cid=num, name=name, passed=bool(passed),
                                   detail=detail, elapsed=elapsed, budget=budget)
    raise ValueError(f"unknown criterion id {cid}")


def run_all(only=None) -> list[CriterionResult]:
    ids = [cid for cid, *_ in CRITERIA] if only is None else list(only)
    return [run_criterion(cid) for cid in ids]


# ---------------------------------------------------------------------------
# quick built-in example suite (sub-second; the default `verify` command)
# ---------------------------------------------------------------------------


def run_quick() -> list[tuple[str, bool, str]]:
    """Fast sanity checks against hand-derived values.

    Returns (name, passed, detail) triples; all checks use fixed inputs and
    closed-form or frozen reference values, no sampling.
    """
    checks: list[tuple[str, bool, str]] = []

    worst, rep2, rep1 = _example_separation()
    checks.append(("word images [0,1/16] [0.2,0.2625] [0.75,0.8125]",
                   worst < 1e-14, f"max endpoint error {worst:.2e}"))
    checks.append(("level-2 selection strongly separated",
                   rep2.status is Status.SATISFIED and abs(rep2.min_gap - 0.1375) < 1e-12,
                   f"status {rep2.status.value}, min gap {rep2.min_gap!r}"))
    checks.append(("level-1 open-set check inconclusive",
                   rep1.status is Status.UNKNOWN, f"status {rep1.status.value}"))

    c = cantor()
    target = math.log(2) / math.log(3)
    worst = max(abs(solve_kappa(c, r).kappa_r - target) for r in (0.5, 1.0, 2.0))
    checks.append(("Cantor kappa_r = log2/log3 for all r",
                   worst < 1e-10, f"max error {worst:.2e}"))
    checks.append(("Cantor d0 = log2/log3",
                   abs(d0_dimension(c) - target) < 1e-14,
                   f"d0 = {d0_dimension(c)!r}"))
    ch = attractor_hull(c)
    checks.append(("Cantor attractor hull is exactly [0,1]",
                   float(ch.lo[0]) == 0.0 and float(ch.hi[0]) == 1.0,
                   f"hull [{float(ch.lo[0])!r}, {float(ch.hi[0])!r}]"))
    ku = solve_kappa(uniform_halves(), 2.0).kappa_r
    checks.append(("uniform-halves kappa_2 = 1", abs(ku - 1.0) < 1e-10, f"kappa_2 = {ku!r}"))

    skew = WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.25, 0.0)), probs=(0.25, 0.75))
    k2 = solve_kappa(skew, 2.0).kappa_r
    checks.append(("frozen reference kappa_2 (mixed ratios)",
                   abs(k2 - 0.6242257143009567) < 1e-11, f"kappa_2 = {k2!r}"))
    d0ref = d0_dimension(WIFS(maps=(similitude_1d(0.5, 0.0), similitude_1d(0.5, 0.5)),
                              probs=(0.1, 0.9)))
    checks.append(("frozen reference d0 (skewed weights)",
                   d0ref == 0.46899559358928117, f"d0 = {d0ref!r}"))

    m1 = DiscreteMeasure(atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    m2 = DiscreteMeasure(atoms=[[0.5]], weights=[1.0])
    checks.append(("transport distance on two-point vs one-point",
                   dl(m1, m2) == 0.5 and tv(m1, m2) == 1.0,
                   f"dl = {dl(m1, m2)!r}, tv = {tv(m1, m2)!r}"))
    pushed = hutchinson_push(m2, c)
    checks.append(("transfer operator splits mass along the maps",
                   pushed.size == 2 and abs(pushed.total - 1.0) < 1e-12,
                   f"atoms {pushed.atoms.ravel().tolist()}"))
    return checks
