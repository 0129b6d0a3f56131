"""Parse each CLI output and check it against the oracles.

An output that does not parse raises :class:`ParseError`, which the
benchmark treats as a failed correctness gate.  Everything else becomes a
:class:`Verdict`: how many operations the call stands for (one per kappa
row, per dl / tv value, or per other call) and how many of them failed by
exiting non-zero or by missing their oracle.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles
from workloads import R_GRID


class ParseError(Exception):
    pass


@dataclass
class Verdict:
    ops: int
    failed: int
    notes: dict = field(default_factory=dict)


def _rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def _float(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not a number: {text!r}") from exc


def _json(text: str) -> tuple[dict, bool]:
    """The parsed object, and whether the text is standard JSON.

    Python's reader accepts the non-standard tokens Infinity and NaN; an
    output that needs them still parses but fails its operation.
    """
    tokens = []
    try:
        obj = json.loads(text, parse_constant=lambda tok: tokens.append(tok) or float(tok))
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    return obj, not tokens


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _hull(expect: dict):
    if expect["hull"] is not None:
        return expect["hull"]
    return oracles.fixed_point_hull(expect["system"]["maps"])


def check(call, rc: int, out: bytes) -> Verdict:
    """The verdict on one call's exit code and output."""
    return _CHECKS[call.kind](call, rc, out.decode())


def _estimate(call, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(1, 1)
    rows = _rows(text)
    if len(rows) < 3 or rows[0][0] != "n" or rows[-1][0] != "estimate":
        raise ParseError(f"{call.label}: malformed ladder CSV")
    exp = call.expect
    ladder = {int(row[0]): _float(row[2]) for row in rows[1:-1]}
    est = _float(rows[-1][2])
    ok = (tuple(ladder) == tuple(exp["n_list"]) and _float(rows[-1][1]) == exp["r"]
          and math.isfinite(est) and est > 0.0)
    return Verdict(1, 0 if ok else 1, {"estimate": est, "distortion": ladder})


def _dim(call, rc: int, text: str) -> Verdict:
    rs = (0.0,) + R_GRID
    if rc != 0:
        return Verdict(len(rs), len(rs), {"bad": len(rs)})
    rows = _rows(text)
    if rows[0][:3] != ["r", "kappa_r", "d_r"] or len(rows) != len(rs) + 1:
        raise ParseError(f"{call.label}: malformed dimension CSV")
    system, m = call.expect["system"], call.expect["m"]
    probs, scales = system["probs"], [s for s, _, _ in system["maps"]]
    bad = 0
    for r, row in zip(rs, rows[1:]):
        kappa, d_r = _float(row[1]), _float(row[2])
        want = oracles.d0(probs, scales) if r == 0.0 else oracles.kappa(probs, scales, r)
        if not (_float(row[0]) == r and _close(kappa, want, oracles.KAPPA_RTOL)
                and _close(d_r, min(want, m), oracles.KAPPA_RTOL)):
            bad += 1
    return Verdict(len(rs), bad, {"bad": bad})


def _check_sep(call, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(1, 1)
    obj, standard = _json(text)
    exp = call.expect
    lo, hi = _hull(exp)
    status, gap = oracles.separation(exp["system"]["maps"], exp["words"], lo, hi, exp["condition"])
    try:
        got_lo, got_hi = np.array(obj["hull"]["lo"], float), np.array(obj["hull"]["hi"], float)
        got_gap = math.inf if obj["min_gap"] is None else _float(obj["min_gap"])
        got_status = obj["status"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{call.label}: {exc!r}") from exc
    ok = (standard and got_status == status and abs(got_gap - gap) <= oracles.ABS_TOL
          and np.all(np.abs(got_lo - lo) <= oracles.ABS_TOL)
          and np.all(np.abs(got_hi - hi) <= oracles.ABS_TOL))
    return Verdict(1, 0 if ok else 1)


def _subifs_search(call, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(1, 1)
    obj, standard = _json(text)
    maps = call.expect["system"]["maps"]
    lo, hi = _hull(call.expect)
    try:
        found, level, selection = obj["found"], obj["level"], obj["selection"]
        probs, got_gap, status = obj["probs"], _float(obj["min_gap"]), obj["status"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{call.label}: {exc!r}") from exc
    _, gap = oracles.separation(maps, selection, lo, hi, "ssc")
    ok = (standard and found is True and status == "Satisfied" and gap > 2.0 * oracles.GUARD
          and abs(got_gap - gap) <= oracles.ABS_TOL
          and len(set(selection)) == len(selection) < len(maps) ** level
          and abs(math.fsum(probs) - 1.0) <= 1e-12)
    return Verdict(1, 0 if ok else 1)


def _measure(call, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(1, 1)
    lines = text.split()
    if len(lines) != 1:
        raise ParseError(f"{call.label}: expected one number, got {text[:80]!r}")
    got = _float(lines[0])
    (atoms_a, w_a), (atoms_b, w_b) = call.expect["a"], call.expect["b"]
    if call.expect["op"] == "tv":
        want = oracles.tv(atoms_a, w_a, atoms_b, w_b)
    elif atoms_a.shape[1] == 1:
        want = oracles.dl_1d(atoms_a, w_a, atoms_b, w_b)
    else:
        want = oracles.dl_lp(atoms_a, w_a, atoms_b, w_b)
    err = abs(got - want)
    return Verdict(1, 0 if err <= oracles.ABS_TOL else 1, {"op": call.expect["op"], "err": err})


_CHECKS = {"estimate": _estimate, "dim": _dim, "check-sep": _check_sep,
           "subifs-search": _subifs_search, "measure": _measure}
