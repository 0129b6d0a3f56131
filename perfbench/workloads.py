"""Inputs and CLI call lists of the two workloads, generated from a seed.

Each workload is one user's session in R^m, run as a closed loop from a
single client: the ``qdim estimate`` ladder at r = 0, 1, 2, 3 plus ``dim``,
``check-sep``, ``subifs-search`` and ``measure`` calls on systems and
measures of the same dimension.  A run's operations are a fixed set: the
ladder under ``LADDER_SEEDS`` sampling seeds, which the rounds cycle
through, and the exact-side calls.  So the operations a run attempts, and
those that fail, do not depend on how many rounds fit in its time.

The ``dim`` systems are drawn from ``DIM_KEY``, not from the run's seed:
every run solves the same 20 systems on the same order grid, so the
solver's misses against the oracle count the same in every run.

``ladder_1d``: the uniform Cantor ladder runs the 1-d Lloyd path; the exact
side uses 1-d systems, a hard hull with s_max = 0.999 and ~6.5e4-atom
measures on the CDF route of ``dl``.
``ladder_2d``: a four-corner Cantor dust (third map rotated by 90 degrees,
weights 0.4/0.3/0.2/0.1) runs the generic quantizer path; the exact side
uses 2-d systems and 64-atom measures on the network route of ``dl``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qdim import ifs
from qdim.instances import cantor, quarter_maps, random_ssc_wifs, random_wifs
from qdim.measures import DiscreteMeasure, measure_to_csv

ORDERS = (0.0, 1.0, 2.0, 3.0)
#: One order per decade from 1e-12 to 1e5.
R_GRID = tuple(10.0 ** e for e in range(-12, 6))
DIM_SYSTEMS = 20
DIM_KEY = 20_240_601
#: Distinct ladder sampling seeds per run; round k samples with seed k mod this.
LADDER_SEEDS = 4

ESTIMATE = {
    1: {"samples": 30_000, "n_list": (16, 32, 64, 128, 256), "restarts": 3},
    2: {"samples": 15_000, "n_list": (16, 32, 64, 128), "restarts": 2},
}

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass
class Call:
    """One CLI invocation; ``expect`` holds what its oracle check needs."""

    kind: str
    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    dim: int
    seed: int
    system: dict            # the estimated system as (scale, isometry, translation) maps + probs
    system_path: str
    exact_calls: list[Call]

    def estimate_calls(self, round_index: int) -> list[Call]:
        """The ladder at every order, sampled with this round's seed."""
        cfg = ESTIMATE[self.dim]
        seed = round_seed(self.seed, round_index % LADDER_SEEDS)
        return [Call("estimate", f"estimate.r{r:g}",
                     ["estimate", "--wifs", self.system_path, "--r", repr(r),
                      "--n-list", ",".join(map(str, cfg["n_list"])),
                      "--samples", str(cfg["samples"]), "--seed", str(seed),
                      "--restarts", str(cfg["restarts"])],
                     {"r": r, "seed": seed, "n_list": cfg["n_list"], "samples": cfg["samples"]})
                for r in ORDERS]

    def calls(self, round_index: int) -> list[Call]:
        """One round: each ladder call followed by a quarter of the exact-side
        calls, so both kinds are sampled across the whole round."""
        estimates = self.estimate_calls(round_index)
        step = -(-len(self.exact_calls) // len(estimates))
        out = []
        for k, est in enumerate(estimates):
            out += [est] + self.exact_calls[k * step:(k + 1) * step]
        return out


def round_seed(seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# systems as plain (scale, isometry, translation) triples
# ---------------------------------------------------------------------------


def _maps_of(w: ifs.WIFS) -> list[tuple[float, np.ndarray, np.ndarray]]:
    return [(float(f.scale), np.array(f.isometry), np.array(f.translation)) for f in w.maps]


def _system(maps, probs) -> dict:
    return {"maps": [(float(s), np.asarray(rot, float), np.asarray(t, float)) for s, rot, t in maps],
            "probs": [float(p) for p in probs]}


def to_wifs(system: dict) -> ifs.WIFS:
    return ifs.WIFS(tuple(ifs.Similitude(s, rot, t) for s, rot, t in system["maps"]),
                    tuple(system["probs"]))


def write_system(workdir: Path, name: str, system: dict) -> str:
    m = len(system["maps"][0][2])
    obj = {"ambient_dim": m, "probs": system["probs"],
           "maps": [{"scale": s, "translation": t.tolist(), "isometry": rot.tolist()}
                    for s, rot, t in system["maps"]]}
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _write_measure(workdir: Path, name: str, mu: DiscreteMeasure) -> str:
    path = workdir / f"{name}.csv"
    path.write_text(measure_to_csv(mu), encoding="utf-8")
    return str(path)


def _iterate(mu: DiscreteMeasure, w: ifs.WIFS, times: int) -> DiscreteMeasure:
    for _ in range(times):
        mu = ifs.hutchinson_push(mu, w)
    return mu


def _random_probs(rng, n: int) -> list[float]:
    p = rng.uniform(0.1, 1.0, size=n)
    return (p / p.sum()).tolist()


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def cantor_system() -> dict:
    return _system(_maps_of(cantor()), cantor().probs)


def dust(rotated: bool = True) -> dict:
    """Four corner maps of ratio 1/3; the third is rotated by 90 degrees."""
    eye = np.eye(2)
    return _system([(1 / 3, eye, [0.0, 0.0]), (1 / 3, eye, [2 / 3, 0.0]),
                    (1 / 3, ROT90 if rotated else eye, [1 / 3, 2 / 3]),
                    (1 / 3, eye, [2 / 3, 2 / 3])], (0.4, 0.3, 0.2, 0.1))


def _hard(rng, s_max: float, m: int) -> dict:
    """A big map fixing 0 next to a tiny one fixing (1, .., 1): hull [0, 1]^m,
    which the program's hull iteration reaches only at rate s_max."""
    tiny = float(rng.uniform(0.1, 0.5)) * (1.0 - s_max)
    eye = np.eye(m)
    return _system([(s_max, eye, np.zeros(m)), (tiny, eye, np.full(m, 1.0 - tiny))],
                   _random_probs(rng, 2))


def _corners(rng) -> dict:
    """Four corner maps with random ratios below 1/2: strongly separated."""
    eye = np.eye(2)
    maps = []
    for corner in ([0, 0], [1, 0], [0, 1], [1, 1]):
        s = float(rng.uniform(0.1, 0.45))
        maps.append((s, eye, (1.0 - s) * np.array(corner, float)))
    return _system(maps, _random_probs(rng, 4))


# ---------------------------------------------------------------------------
# the call lists
# ---------------------------------------------------------------------------


def _dim_calls(workdir: Path, m: int) -> list[Call]:
    rng = np.random.default_rng([DIM_KEY, m])
    calls = []
    grid = ",".join(repr(r) for r in R_GRID)
    for k in range(DIM_SYSTEMS):
        # Map counts cycle through 2..6 so every seed solves the same mix of sizes.
        n_maps = 2 + k % 5
        base = random_wifs(rng, n_min=n_maps, n_max=n_maps)
        maps = [(float(f.scale), _rotation(float(rng.uniform(0, 2 * math.pi))) if m == 2 else np.eye(1),
                 np.zeros(m)) for f in base.maps]
        system = _system(maps, base.probs)
        path = write_system(workdir, f"dim_{k:02d}", system)
        calls.append(Call("dim", f"dim.{k:02d}",
                          ["dim", "--wifs", path, "--r-grid", grid, "--with-d0"],
                          {"system": system, "m": m}))
    return calls


def _sep_call(workdir: Path, name: str, system: dict, hull=None, words=None, condition="ssc") -> Call:
    path = write_system(workdir, name, system)
    argv = ["check-sep", "--wifs", path, "--condition", condition]
    label = f"check-sep.{name}.{condition}"
    if words is not None:
        argv += ["--words", ",".join(words)]
        label += ".words"
    else:
        words = [str(i + 1) for i in range(len(system["maps"]))]
    return Call("check-sep", label, argv,
                {"system": system, "hull": hull, "words": words, "condition": condition})


def _search_call(workdir: Path, name: str, system: dict, hull=None) -> Call:
    path = write_system(workdir, name, system)
    return Call("subifs-search", f"subifs-search.{name}",
                ["subifs-search", "--wifs", path, "--n-max", "2"],
                {"system": system, "hull": hull})


def _measure_calls(workdir: Path, measures: dict, pairs) -> list[Call]:
    """``measure`` calls for (op, name_a, name_b) triples; each measure is written once."""
    paths = {name: _write_measure(workdir, name, mu) for name, mu in measures.items()}
    calls = []
    for op, a, b in pairs:
        mu, nu = measures[a], measures[b]
        calls.append(Call("measure", f"measure.{op}.{a}.{b}",
                          ["measure", "--op", op, "--a", paths[a], "--b", paths[b]],
                          {"op": op, "a": (mu.atoms, mu.weights), "b": (nu.atoms, nu.weights)}))
    return calls


def ladder_1d(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    system = cantor_system()
    system_path = write_system(workdir, "cantor", system)
    calls = _dim_calls(workdir, 1)

    quarter = _system(_maps_of(quarter_maps(0.2)), quarter_maps(0.2).probs)
    # Fixed map counts, so every seed checks the same mix of sizes: the count
    # decides, for one, whether the search can answer with a single map.
    ssc = [_system(_maps_of(w), w.probs)
           for w in (random_ssc_wifs(rng, n_min=n, n_max=n) for n in (4, 2, 6))]
    hard = {s: _hard(rng, s, 1) for s in (0.9, 0.99, 0.999)}
    calls.append(_sep_call(workdir, "cantor", system))
    calls.append(_sep_call(workdir, "quarter", quarter, words=["11", "21", "31"]))
    calls.append(_sep_call(workdir, "quarter", quarter, condition="osc"))
    for k, sys_k in enumerate(ssc):
        calls.append(_sep_call(workdir, f"ssc{k}", sys_k))
    for s, sys_s in hard.items():
        calls.append(_sep_call(workdir, f"hard{s:g}", sys_s))
    calls.append(_search_call(workdir, "quarter", quarter))
    calls.append(_search_call(workdir, "ssc0", ssc[0]))
    calls.append(_search_call(workdir, "hard0.99", hard[0.99]))

    # Transfer-operator iterates: 2^16 atoms each.
    p, q = (float(v) for v in rng.uniform(0.2, 0.8, size=2))
    x, y = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
    mu = _iterate(DiscreteMeasure([[x]], [1.0]), cantor(probs=(p, 1 - p)), 16)
    mu_q = _iterate(DiscreteMeasure([[x]], [1.0]), cantor(probs=(q, 1 - q)), 16)
    nu = _iterate(DiscreteMeasure([[y]], [1.0]), cantor(probs=(p, 1 - p)), 16)
    calls += _measure_calls(workdir, {"mu": mu, "mu_q": mu_q, "nu": nu},
                            [("dl", "mu", "nu"), ("dl", "mu", "mu_q"), ("tv", "mu", "mu_q")])
    return Workload("ladder_1d", 1, seed, system, system_path, calls)


def ladder_2d(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    system = dust()
    system_path = write_system(workdir, "dust", system)
    calls = _dim_calls(workdir, 2)

    # The dust's hull is [0, 1]^2: [0, 1]^2 is invariant, and the attractor
    # holds the fixed points (0, 0), (1, 0) and (1, 1) of maps 1, 2 and 4.
    unit = (np.zeros(2), np.ones(2))
    level2 = [f"{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    corners = [_corners(rng) for _ in range(3)]
    hard = {s: _hard(rng, s, 2) for s in (0.9, 0.99)}
    calls.append(_sep_call(workdir, "dust", system, unit))
    calls.append(_sep_call(workdir, "dust", system, unit, words=level2))
    calls.append(_sep_call(workdir, "dust", system, unit, condition="osc"))
    for k, sys_k in enumerate(corners):
        calls.append(_sep_call(workdir, f"corners{k}", sys_k))
    for s, sys_s in hard.items():
        calls.append(_sep_call(workdir, f"hard{s:g}", sys_s))
    calls.append(_search_call(workdir, "dust", system, unit))
    calls.append(_search_call(workdir, "corners0", corners[0]))
    calls.append(_search_call(workdir, "hard0.99", hard[0.99]))

    # Level-3 iterates (64 atoms) of the dust with and without its rotation,
    # from two start points.  Level 4 (256 atoms, ~3 s per dl) fits one
    # sample per round, and its spread across seeds exceeded every bound.
    x, y = (DiscreteMeasure(rng.uniform(0.0, 1.0, size=(1, 2)), [1.0]) for _ in range(2))
    mu = _iterate(x, to_wifs(system), 3)
    nu = _iterate(x, to_wifs(dust(rotated=False)), 3)
    mu_y = _iterate(y, to_wifs(system), 3)
    calls += _measure_calls(workdir, {"mu": mu, "nu": nu, "mu_y": mu_y},
                            [("dl", "mu", "nu"), ("dl", "mu", "mu_y"), ("tv", "mu", "nu")])
    return Workload("ladder_2d", 2, seed, system, system_path, calls)


WORKLOADS = {"ladder_1d": ladder_1d, "ladder_2d": ladder_2d}
