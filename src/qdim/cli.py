"""Command-line front end: one binary, seven subcommands.

    qdim dim           kappa_r / D_r table as CSV
    qdim check-sep     separation certificate as JSON
    qdim subifs-search strongly separated sub-system search as JSON
    qdim quantize      optimised codebook as JSON
    qdim estimate      dimension-fit ladder as CSV
    qdim measure       discrete-measure operations (convolve/translate/mix/dl/tv/box-mass)
    qdim verify        built-in example suite, or the full acceptance run

Exit codes: 0 on success, 2 when the inputs fail validation (the diagnostic
names the offending field), 1 when a computation fails at runtime.  All
randomised commands require an explicit --seed; identical invocations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .dimension import _solve, d0_dimension
from .dimension import solve_kappa  # noqa: F401  (perfbench's trace wraps qdim.cli.solve_kappa)
from .errors import QdimError
from .geometry import Box
from .ifs import WIFS, Word, attractor_hull, compose_word, wifs_from_json_obj
from .measures import (
    DiscreteMeasure,
    box_mass,
    convolve,
    dl,
    measure_from_csv,
    measure_from_json_obj,
    measure_to_csv,
    measure_to_json_obj,
    mix,
    translate,
    tv,
)
from .quantize import _ladder, antichain_codebook, chaos_game, fit_dimension, optimize_codebook
from .separation import Status, check_osc_sufficient, check_ssc, search_separated_sub_ifs

__all__ = ["main"]


class _Invalid(Exception):
    """Input validation failure; carries the offending field name."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", out_path)


def _load_wifs(path: str) -> WIFS:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Invalid("wifs", f"cannot read WIFS file {path!r}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _Invalid("wifs", f"malformed JSON in {path!r}: {exc}") from exc
    try:
        return wifs_from_json_obj(obj)
    except QdimError as exc:
        raise _Invalid("wifs", f"{path!r}: {exc}") from exc


def _load_measure(field: str, path: str) -> DiscreteMeasure:
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise _Invalid(field, f"cannot read measure file {path!r}: {exc}") from exc
    try:
        if p.suffix.lower() == ".json":
            return measure_from_json_obj(json.loads(raw))
        return measure_from_csv(raw)
    except (QdimError, ValueError, json.JSONDecodeError) as exc:
        raise _Invalid(field, f"{path!r}: {exc}") from exc


def _parse_floats(field: str, text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _Invalid(field, f"expected comma-separated numbers, got {text!r}") from exc
    if not vals:
        raise _Invalid(field, "expected at least one number")
    if not all(math.isfinite(v) for v in vals):
        raise _Invalid(field, f"expected finite numbers, got {text!r}")
    return vals


def _parse_ints(field: str, text: str) -> list[int]:
    vals = _parse_floats(field, text)
    out = []
    for v in vals:
        if v != int(v):
            raise _Invalid(field, f"expected integers, got {text!r}")
        out.append(int(v))
    return out


def _parse_word(field: str, text: str) -> Word:
    try:
        return Word.parse(text)
    except (QdimError, ValueError) as exc:
        raise _Invalid(field, f"bad word {text!r}: {exc}") from exc


def _finite_or_none(x: float) -> float | None:
    """JSON has no infinities: an infinite value is written as null."""
    return float(x) if math.isfinite(x) else None


def _require_positive(field: str, value, strict: bool = True) -> None:
    if not math.isfinite(value):
        raise _Invalid(field, f"must be finite, got {value}")
    if (value <= 0) if strict else (value < 0):
        bound = "positive" if strict else "non-negative"
        raise _Invalid(field, f"must be {bound}, got {value}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dim(args) -> int:
    w = _load_wifs(args.wifs)
    if args.r is None and args.r_grid is None:
        raise _Invalid("r", "one of --r or --r-grid is required")
    rs = [args.r] if args.r is not None else _parse_floats("r-grid", args.r_grid)
    for r in rs:
        _require_positive("r", r)
    lines = ["r,kappa_r,d_r,theta,residual,iterations"]
    if args.with_d0:
        d0 = d0_dimension(w)
        lines.append(f"0.0,{_fmt(d0)},{_fmt(min(d0, w.dim))},0.0,0.0,0")
    for r, res in zip(rs, _solve(w, tuple(rs), "solve_kappa")):
        lines.append(f"{_fmt(r)},{_fmt(res.kappa_r)},{_fmt(res.d_r)},"
                     f"{_fmt(res.theta)},{_fmt(res.residual)},{res.iterations}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _box_to_obj(box: Box) -> dict:
    return {"lo": [float(v) for v in box.lo], "hi": [float(v) for v in box.hi]}


def _cmd_check_sep(args) -> int:
    w = _load_wifs(args.wifs)
    hull = attractor_hull(w)
    if args.words:
        words = [_parse_word("words", tok) for tok in args.words.split(",")]
        try:
            family = [compose_word(w, word) for word in words]
        except QdimError as exc:
            raise _Invalid("words", str(exc)) from exc
        labels = [str(word) for word in words]
    else:
        family = list(w.maps)
        labels = [str(i + 1) for i in range(w.n_maps)]
    if args.condition == "ssc":
        report = check_ssc(family, hull, hull_is_tight=args.hull_is_tight)
    else:
        report = check_osc_sufficient(family, hull)
    obj = {
        "condition": report.condition.value,
        "status": report.status.value,
        "min_gap": _finite_or_none(report.min_gap),
        "members": labels,
        "hull": _box_to_obj(hull),
    }
    if report.status is Status.SATISFIED:
        obj["images"] = [_box_to_obj(b) for b in report.witness]
    else:
        obj["overlapping_pair"] = [labels[k] for k in report.witness]
    _emit_json(obj, args.out)
    return 0


def _cmd_subifs_search(args) -> int:
    w = _load_wifs(args.wifs)
    suffix = _parse_word("suffix", args.suffix) if args.suffix else Word(())
    _require_positive("n-max", args.n_max)
    try:
        found = search_separated_sub_ifs(w, suffix=suffix, n_max=args.n_max)
    except QdimError as exc:
        raise _Invalid("suffix", str(exc)) from exc
    except ValueError as exc:  # a level past the search's word cap
        raise _Invalid("n-max", str(exc)) from exc
    if found is None:
        _emit_json({"found": False, "n_max": args.n_max, "suffix": str(suffix)}, args.out)
        return 0
    sub, report = found
    _emit_json({
        "found": True,
        "level": sub.level,
        "suffix": str(sub.suffix),
        "selection": [str(word) for word in sub.selection],
        "scales": [float(f.scale) for f in sub.maps],
        "probs": [float(p) for p in sub.probs],
        "min_gap": _finite_or_none(report.min_gap),
        "status": report.status.value,
    }, args.out)
    return 0


def _check_sampling(args) -> None:
    """The options that ``quantize`` and ``estimate`` share."""
    _require_positive("samples", args.samples)
    _require_positive("restarts", args.restarts)
    _require_positive("burn-in", args.burn_in, strict=False)
    _require_positive("r", args.r, strict=False)


def _cmd_quantize(args) -> int:
    w = _load_wifs(args.wifs)
    _require_positive("n", args.n)
    _check_sampling(args)
    samples = chaos_game(w, args.samples, seed=args.seed, burn_in=args.burn_in)
    start = antichain_codebook(w, args.n, args.r) if args.n < args.samples else None
    book = optimize_codebook(samples, args.n, args.r, start=start)
    _emit_json({
        "n": args.n,
        "r": args.r,
        "seed": args.seed,
        "samples": args.samples,
        "distortion": _finite_or_none(book.distortion),
        "points": [[float(v) for v in row] for row in book.points],
    }, args.out)
    return 0


def _cmd_estimate(args) -> int:
    w = _load_wifs(args.wifs)
    ns = _parse_ints("n-list", args.n_list)
    _check_sampling(args)
    try:
        _ladder(ns, args.r, args.samples)
    except ValueError as exc:
        raise _Invalid("n-list", str(exc)) from exc
    fit = fit_dimension(w, args.r, ns, args.samples, seed=args.seed, burn_in=args.burn_in)
    lines = ["n,r,distortion,log_n,neg_log_V,seed"]
    for n, value in fit.pairs:
        neg_log = -np.log(value) if args.r > 0 else -value
        lines.append(f"{n},{_fmt(args.r)},{_fmt(value)},{_fmt(np.log(n))},"
                     f"{_fmt(neg_log)},{args.seed}")
    lines.append(f"estimate,{_fmt(args.r)},{_fmt(fit.estimate)},{_fmt(fit.slope)},"
                 f"{_fmt(fit.ci_halfwidth)},{args.seed}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _result(field: str, op, *operands) -> DiscreteMeasure:
    """``op(*operands)``, refusing a result that is no valid measure (a
    convolution past its size cap, atoms that overflow to infinity, weights
    that underflow to zero) as invalid input in ``field``."""
    try:
        return op(*operands)
    except ValueError as exc:
        raise _Invalid(field, str(exc)) from exc


def _write_measure(measure: DiscreteMeasure, out_path: str | None) -> None:
    if out_path and out_path.lower().endswith(".json"):
        _emit_json(measure_to_json_obj(measure), out_path)
    else:
        _emit(measure_to_csv(measure), out_path)


def _cmd_measure(args) -> int:
    mu = _load_measure("a", args.a)

    def need_b() -> DiscreteMeasure:
        if args.b is None:
            raise _Invalid("b", f"--b is required for op {args.op!r}")
        nu = _load_measure("b", args.b)
        if nu.dim != mu.dim:
            raise _Invalid("b", f"measure lives in R^{nu.dim}, --a in R^{mu.dim}")
        return nu

    if args.op == "convolve":
        _write_measure(_result("b", convolve, mu, need_b()), args.out)
    elif args.op == "translate":
        if args.x is None:
            raise _Invalid("x", "--x is required for op 'translate'")
        vec = np.array(_parse_floats("x", args.x))
        if vec.size != mu.dim:
            raise _Invalid("x", f"expected {mu.dim} coordinates, got {vec.size}")
        _write_measure(_result("x", translate, mu, vec), args.out)
    elif args.op == "mix":
        if args.alpha is None:
            raise _Invalid("alpha", "--alpha is required for op 'mix'")
        if not 0.0 <= args.alpha <= 1.0:
            raise _Invalid("alpha", f"must lie in [0, 1], got {args.alpha}")
        _write_measure(_result("alpha", mix, mu, need_b(), args.alpha), args.out)
    elif args.op == "dl":
        _emit(_fmt(dl(mu, need_b())) + "\n", args.out)
    elif args.op == "tv":
        _emit(_fmt(tv(mu, need_b())) + "\n", args.out)
    elif args.op == "box-mass":
        if args.box_lo is None or args.box_hi is None:
            raise _Invalid("box-lo", "--box-lo and --box-hi are required for op 'box-mass'")
        lo = np.array(_parse_floats("box-lo", args.box_lo))
        hi = np.array(_parse_floats("box-hi", args.box_hi))
        if lo.size != mu.dim or hi.size != mu.dim:
            raise _Invalid("box-lo", f"expected {mu.dim} coordinates per corner")
        try:
            box = Box(lo, hi)
        except (QdimError, ValueError) as exc:
            raise _Invalid("box-hi", str(exc)) from exc
        _emit(_fmt(box_mass(mu, box)) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    if args.criteria:
        only = _parse_ints("only", args.only) if args.only else None
        if only is not None:
            known = {cid for cid, *_ in acceptance.CRITERIA}
            bad = sorted(set(only) - known)
            if bad:
                raise _Invalid("only", f"unknown criterion ids {bad}")
        for res in acceptance.run_all(only=only):
            print(acceptance.format_result(res))
            failures += 0 if res.ok else 1
    else:
        for name, passed, detail in acceptance.run_quick():
            print(f"{'PASS' if passed else 'FAIL'}  {name}  [{detail}]")
            failures += 0 if passed else 1
    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each ``add_argument``
    sizes a help formatter to the terminal, so a build costs about 1 ms."""
    parser = argparse.ArgumentParser(
        prog="qdim",
        description="Quantization dimensions of self-similar measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="solve the spectral dimension equation over r values")
    p.add_argument("--wifs", required=True, help="WIFS JSON file")
    p.add_argument("--r", type=float, help="single order r > 0")
    p.add_argument("--r-grid", help="comma-separated orders, e.g. 0.5,1,2")
    p.add_argument("--with-d0", action="store_true", help="prepend the closed-form r = 0 row")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("check-sep", help="separation certificate for maps or word families")
    p.add_argument("--wifs", required=True)
    p.add_argument("--words", help="comma-separated words, e.g. 11,21,31 or 1.12,12. "
                   "for symbols >= 10 (default: level 1)")
    p.add_argument("--condition", choices=["ssc", "osc"], default="ssc")
    p.add_argument("--hull-is-tight", action="store_true",
                   help="allow 1-d violation verdicts (hull known to equal the attractor box)")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_check_sep)

    p = sub.add_parser("subifs-search", help="search for a strongly separated sub-system")
    p.add_argument("--wifs", required=True)
    p.add_argument("--suffix", help="gluing word, e.g. 1 (default: empty)")
    p.add_argument("--n-max", type=int, default=2, help="maximum level to try (default 2)")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_subifs_search)

    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--wifs", required=True, help="WIFS JSON file")
    sampled.add_argument("--r", type=float, required=True,
                         help="error order (0 for geometric mean)")
    sampled.add_argument("--samples", type=int, required=True, help="chaos-game sample count")
    sampled.add_argument("--seed", type=int, required=True,
                         help="RNG seed (explicit, no default)")
    sampled.add_argument("--restarts", type=int, default=5,
                         help="accepted and validated for older scripts; no effect: each "
                              "codebook is one Lloyd run from the system's antichain codebook")
    sampled.add_argument("--burn-in", type=int, default=100)
    sampled.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("quantize", parents=[sampled],
                       help="chaos-game samples + optimised codebook (JSON)")
    p.add_argument("--n", type=int, required=True, help="codebook size")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("estimate", parents=[sampled],
                       help="dimension estimate over a codebook-size ladder (CSV)")
    p.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 16,32,64")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("measure", help="operations on discrete measures")
    p.add_argument("--op", required=True,
                   choices=["convolve", "translate", "mix", "dl", "tv", "box-mass"])
    p.add_argument("--a", required=True, help="first measure (.csv or .json)")
    p.add_argument("--b", help="second measure, for two-measure ops")
    p.add_argument("--x", help="translation vector, comma-separated")
    p.add_argument("--alpha", type=float, help="mixture weight on --a")
    p.add_argument("--box-lo", help="box lower corner, comma-separated")
    p.add_argument("--box-hi", help="box upper corner, comma-separated")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("verify", help="run the built-in example suite (or full acceptance)")
    p.add_argument("--criteria", action="store_true", help="run the full acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion ids (with --criteria)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Invalid as exc:
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 2
    except QdimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
