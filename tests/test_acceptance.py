"""The acceptance gate: eleven go/no-go checks, one test per criterion.

Every criterion prints a single ``PASS``/``FAIL`` line (with the measured
detail and runtime against its budget) so the overall verdict is readable
straight off the pytest output.  Criteria are cached at module level, so
each one runs exactly once even under ``-k`` reruns within a session.

Criterion 9 tests the harmonic blend at order zero, where the max rule
fails.  For r > 0 the dimension of an equal mixture is the larger
component dimension, because the errors add.  At r = 0 they multiply:
the Cantor measure A lies in [0, 1] and the ``four_fifths_shifted``
measure B in [2, 3], so a codebook of n = n_A + n_B points has
geometric-mean error

    e_{n,0}((A + B)/2) = e_{n_A,0}(A)^(1/2) * e_{n_B,0}(B)^(1/2).

With e_{m,0} ~ m^(-1/D), every split n_A proportional to n (the best one
included) gives the harmonic blend

    1 / D0(mix) = (1/2) (1/D0(A) + 1/D0(B)),

which is log 4 / (log 3 + (1/2) log 5) = 0.72835 for D0(A) = log2/log3 and
D0(B) = log4/log5, not the max 0.86135.  The criterion holds the Lloyd
estimate to the blend; ``test_mixture_d0_explicit_codebooks`` reaches it
without Lloyd, on the criterion's own samples.
"""

import math

import numpy as np
import pytest

from qdim.acceptance import CRITERIA, _mixture_samples, _sub_domination, format_result, run_criterion
from qdim.ifs import hutchinson_push
from qdim.instances import cantor, four_fifths_shifted, quarter_maps
from qdim.measures import DiscreteMeasure
from qdim.quantize import estimate_vnr

_RESULTS: dict[int, object] = {}


def _cached(cid):
    if cid not in _RESULTS:
        _RESULTS[cid] = run_criterion(cid)
    return _RESULTS[cid]


@pytest.mark.parametrize(
    "cid",
    [cid for cid, *_ in CRITERIA],
    ids=[f"c{cid:02d}-{name.replace(' ', '-')}" for cid, name, *_ in CRITERIA],
)
def test_criterion(cid):
    res = _cached(cid)
    print()
    print(format_result(res))
    assert res.passed, format_result(res)
    assert res.elapsed <= res.budget, (
        f"criterion {cid} exceeded its {res.budget:.0f}s budget: {res.elapsed:.1f}s"
    )


@pytest.mark.parametrize("parent", [cantor, lambda: quarter_maps(0.2)], ids=["cantor", "quarter-0.2"])
def test_sub_domination_fails_with_renormalised_weights(parent):
    # Criterion 6 can fail: the renormalised sub-measure (S = {11, 12, 21} on
    # the Cantor, {1, 3} on quarter_maps(0.2)) puts more mass on its words'
    # cylinders than mu does, and about half the boxes catch it.
    violations, worst = _sub_domination(parent())
    assert violations == 0 and worst < 0.0  # margin over boxes with mass, not an empty box's 0
    assert _sub_domination(parent(), renormalised=True)[0] >= 90


def _cylinder_images(wifs, x, level):
    """Images of x under every word of the given length, as an (N^level, 1) array."""
    mu = DiscreteMeasure(atoms=[[x]], weights=[1.0])
    for _ in range(level):
        mu = hutchinson_push(mu, wifs)
    return mu.atoms


def test_mixture_d0_explicit_codebooks():
    # Cantor level-2j interval midpoints plus the level-j images of 2.5 under
    # four_fifths_shifted: 4^j points on each component, n = 2 * 4^j.
    samples = _mixture_samples()
    log_n, neg_log_e = [], []
    for j in range(1, 5):
        code = np.vstack([_cylinder_images(cantor(), 0.5, 2 * j),
                          _cylinder_images(four_fifths_shifted(), 2.5, j)])
        assert len(code) == 2 * 4 ** j
        log_n.append(math.log(len(code)))
        neg_log_e.append(-math.log(estimate_vnr(samples, code, 0.0)))
    dim = 1.0 / np.polyfit(log_n, neg_log_e, 1)[0]
    exact = math.log(4) / (math.log(3) + 0.5 * math.log(5))
    assert abs(exact - 0.72835) < 5e-6
    assert abs(dim - exact) <= 0.005, f"explicit-codebook D0 = {dim:.5f}"
    assert math.log(4) / math.log(5) - dim > 0.1
