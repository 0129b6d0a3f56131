"""qdim benchmark: drive the CLI in-process and print its metrics.

    python3 perfbench/run.py --workload ladder_1d --seed 1 --seconds 50 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  One client calls ``qdim.cli.main`` in a closed loop, writing
each output to a temp file, with ``QDIM_THREADS`` pinned to the CPUs this
process may use.  A round is the ladder under one of ``LADDER_SEEDS`` (four)
sampling seeds, in turn (see ``workloads.py``); the first ``EXACT_ROUNDS``
(two) also run every exact-side call, those shorter than ``MIN_CALL_S`` up
to ``MAX_REPEATS`` times so that their medians rest on enough samples.
Rounds repeat, at least one per ladder seed, while the next one is expected
to end within ``--seconds``.  Every repeat of a call must give the same
bytes, so each distinct call is checked against its oracle, and counted in
``attempted``, once: a run's counts do not depend on how many rounds fit in
its time.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: after the untraced rounds it re-runs round 0 with spans around the
calls into qdim's public functions (``spans.py``) and once more with
``QDIM_THREADS=1``.  Oracle values are computed after timing.  A run record
(versions, git sha, thread count, failed_frac, phase timings) is printed
before the result; the last line of stdout is one JSON object.  A failed
correctness gate exits 1 without it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

if not (SRC / "qdim" / "__init__.py").is_file():
    sys.exit(f"error: no qdim package under {SRC}; run from the repository root")
sys.path[:0] = [str(HERE), str(SRC)]

import numpy  # noqa: E402
import scipy  # noqa: E402

import qdim.cli  # noqa: E402
import qdim.ifs  # noqa: E402
import qdim.quantize  # noqa: E402
import qdim.separation  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import LADDER_SEEDS, ORDERS  # noqa: E402

SETUP_REPEATS = 5
MIN_CALL_S = 0.5
MAX_REPEATS = 3
EXACT_ROUNDS = 2

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]


class GateFailed(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


SETUP_SCRIPT = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5]))
"""


def time_setups(args, workdir: Path) -> list[float]:
    """Wall time of import plus input generation, each in a fresh interpreter."""
    times = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        target.mkdir()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(HERE), str(SRC), args.workload,
                        str(args.seed), str(target)], check=True, timeout=170, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(target)
    return times


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workdir: Path) -> None:
        self.out = workdir / "out"
        self.out.mkdir()
        self.tracer = None

    def call(self, call) -> tuple[int, float, bytes]:
        """Run one CLI call; return (exit code, wall seconds, output bytes)."""
        path = self.out / f"{call.label}.out"
        path.unlink(missing_ok=True)
        argv = call.argv + ["--out", str(path)]
        span = self.tracer.span("cli.main", {"label": call.label}) if self.tracer else None
        start = time.perf_counter()
        try:
            rc = qdim.cli.main(argv)
        except Exception:  # an unhandled error is a failed operation, not the end of the run
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        out = path.read_bytes() if rc == 0 and path.exists() else b""
        return rc, wall, out

    def round(self, calls, repeat: bool = True) -> dict:
        """Every call once; with ``repeat``, short exact-side calls again."""
        start = time.perf_counter()
        results = []
        for c in calls:
            spent = 0.0
            for k in range(MAX_REPEATS if repeat and c.kind != "estimate" else 1):
                rc, wall, out = self.call(c)
                results.append((c, rc, wall, out))
                spent += wall
                if spent >= MIN_CALL_S:
                    break
        return {"wall": time.perf_counter() - start, "results": results}


def same_bytes(reference: dict, *later: dict, what: str) -> None:
    first = {}
    for rnd in (reference, *later):
        for c, rc, _, out in rnd["results"]:
            if first.setdefault((c.label, tuple(c.argv)), (rc, out)) != (rc, out):
                raise GateFailed(f"{what}: rerun of {c.label} is not byte-identical")


def median_walls(rounds, pred) -> dict[str, float]:
    """Each matching call's median wall over all its runs in ``rounds``."""
    walls: dict[str, list[float]] = {}
    for rnd in rounds:
        for c, _, w, _ in rnd["results"]:
            if pred(c):
                walls.setdefault(c.label, []).append(w)
    return {label: statistics.median(ws) for label, ws in walls.items()}


def kind_s(rounds, pred) -> float:
    """Wall seconds of one round of the matching calls: their medians summed."""
    return sum(median_walls(rounds, pred).values())


def gates_before(runner: Runner, wl, workdir: Path) -> None:
    """The quick verify suite passes and Cantor's hull is exactly [0, 1]."""
    rc = qdim.cli.main(["verify"])
    if rc != 0:
        raise GateFailed(f"qdim verify exited {rc}")
    cantor = workloads.Call("check-sep", "gate.cantor",
                            ["check-sep", "--wifs", workloads.write_system(
                                workdir, "gate_cantor", workloads.cantor_system())])
    rc, _, out = runner.call(cantor)
    hull = json.loads(out)["hull"] if rc == 0 else None
    if hull != {"lo": [0.0], "hi": [1.0]}:
        raise GateFailed(f"check-sep hull of Cantor is {hull}, not exactly [0, 1]")
    for r in ORDERS:  # warm lazy imports and caches before timing
        runner.call(workloads.Call("estimate", f"warmup.r{r:g}",
                                   ["estimate", "--wifs", wl.system_path, "--r", repr(r),
                                    "--n-list", "4,8", "--samples", "2000", "--seed", "0",
                                    "--restarts", "1"]))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def install_spans(tracer) -> None:
    """Wrap qdim's public functions at every name the CLI's call paths look up."""
    cli, quantize, separation = qdim.cli, qdim.quantize, qdim.separation

    def order(args, kwargs, result):
        return {"n": args[1], "r": float(args[2] if len(args) > 2 else kwargs["r"])}

    tracer.patch([cli, quantize], "quantize.fit_dimension", "fit_dimension")
    tracer.patch([quantize], "quantize.fit_dimension_from_samples", "fit_dimension_from_samples")
    tracer.patch([cli, quantize], "quantize.chaos_game", "chaos_game",
                 lambda a, k, res: {"samples": res.count})
    tracer.patch([cli, quantize], "quantize.optimize_codebook", "optimize_codebook", order)
    tracer.patch([quantize], "util.parallel_map", "parallel_map")
    tracer.patch([cli], "dimension.solve_kappa", "solve_kappa",
                 lambda a, k, res: {"iterations": res.iterations})
    tracer.patch([cli], "dimension.d0_dimension", "d0_dimension")
    tracer.patch([cli, quantize, separation], "ifs.attractor_hull", "attractor_hull")
    tracer.patch([cli], "ifs.wifs_from_json_obj", "wifs_from_json_obj")
    tracer.patch([cli, separation], "separation.check_ssc", "check_ssc")
    tracer.patch([cli], "separation.check_osc_sufficient", "check_osc_sufficient")
    tracer.patch([cli], "separation.search", "search_separated_sub_ifs")
    tracer.patch([cli], "measures.dl", "dl")
    tracer.patch([cli], "measures.tv", "tv")
    tracer.patch([cli], "measures.measure_from_csv", "measure_from_csv")


def layer_metrics(tracer) -> dict:
    """Per-layer figures from one traced round; ``.s`` are summed span seconds."""
    sps = tracer.spans
    spans.attach_orphans(sps, threading.main_thread().ident)
    selfs = spans.self_times(sps)

    def total(name, pred=lambda sp: True):
        return sum(sp.end - sp.start for sp in sps if sp.name == name and pred(sp))

    def self_total(*names):
        return sum(selfs[sp.sid] for sp in sps if sp.name in names)

    def count(name):
        return sum(sp.name == name for sp in sps)

    chaos_s = total("quantize.chaos_game")
    out = {f"quantize.optimize_codebook.s.r{r:g}":
           total("quantize.optimize_codebook", lambda sp, r=r: sp.fields["r"] == r) for r in ORDERS}
    out.update({
        "quantize.chaos_game.s": chaos_s,
        "quantize.chaos_game.samples_per_s":
            sum(sp.fields["samples"] for sp in sps if sp.name == "quantize.chaos_game") / chaos_s,
        "quantize.fit.self_s": self_total("quantize.fit_dimension", "quantize.fit_dimension_from_samples"),
        "dimension.solve_kappa.s": total("dimension.solve_kappa"),
        "dimension.solve_kappa.calls": count("dimension.solve_kappa"),
        "dimension.solve_kappa.iterations": sum(sp.fields.get("iterations", 0) for sp in sps),
        "ifs.attractor_hull.s": total("ifs.attractor_hull"),
        "ifs.attractor_hull.calls": count("ifs.attractor_hull"),
        "separation.check_ssc.s": total("separation.check_ssc"),
        "separation.check_osc_sufficient.s": total("separation.check_osc_sufficient"),
        "separation.search.s": total("separation.search"),
        "measures.dl.s": total("measures.dl"),
        "measures.tv.s": total("measures.tv"),
        "cli.self_s": self_total("cli.main"),
    })
    return out


# ---------------------------------------------------------------------------
# oracle-side figures
# ---------------------------------------------------------------------------


def true_dimensions(wl) -> dict:
    if wl.name == "ladder_1d":
        return {r: oracles.cantor_dimension() for r in ORDERS}
    probs, scales = wl.system["probs"], [s for s, _, _ in wl.system["maps"]]
    out = {0.0: min(oracles.d0(probs, scales), wl.dim)}
    out.update({r: min(oracles.kappa(probs, scales, r), wl.dim) for r in ORDERS[1:]})
    return out


def lloyd_gaps(wl, estimates) -> list[float]:
    """Lloyd r = 2 distortion over a reference at every rung n = N^k.

    R^1: the Graf-Luschgy optimum (1/8) 9^-k.  R^2: the level-k
    cylinder-centroid codebook on the same chaos-game samples.
    """
    n_maps = len(wl.system["maps"])
    system = workloads.to_wifs(wl.system)
    gaps = []
    for call, verdict in estimates:
        for n, v in verdict.notes["distortion"].items():
            k = round(math.log(n, n_maps))
            if n_maps ** k != n:
                continue
            if wl.dim == 1:
                gaps.append(v / oracles.graf_luschgy_v2(n))
                continue
            samples = qdim.quantize.chaos_game(system, call.expect["samples"], call.expect["seed"])
            code = oracles.centroid_codebook(wl.system["maps"], wl.system["probs"], k)
            gaps.append(v / oracles.distortion_r2(samples.points, code))
    return gaps


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(args, workdir: Path) -> dict:
    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = round(now - clock, 3)
        clock = now

    setup_times = time_setups(args, workdir)
    phase("setups")

    nproc = len(os.sched_getaffinity(0))
    os.environ["QDIM_THREADS"] = str(nproc)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.patch([qdim.ifs], "ifs.hutchinson_push", "hutchinson_push")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if tracer:
        hutchinson_s = sum(sp.end - sp.start for sp in tracer.spans)
        tracer.unpatch()
        tracer.spans.clear()
    phase("inputs")

    runner = Runner(workdir)
    gates_before(runner, wl, workdir)
    phase("gates")

    rounds = []
    start = time.perf_counter()
    ladder_s = 0.0  # the last ladder's wall: how long the next round is expected to take
    while len(rounds) < LADDER_SEEDS or time.perf_counter() - start + ladder_s <= args.seconds:
        k = len(rounds)
        rounds.append(runner.round(wl.calls(k) if k < EXACT_ROUNDS else wl.estimate_calls(k)))
        ladder_s = sum(w for c, _, w, _ in rounds[-1]["results"] if c.kind == "estimate")
    rerun = runner.round([c for c in wl.estimate_calls(0) if c.expect["r"] == 1.0])
    same_bytes(rounds[0], *rounds[1:], rerun, what="untraced rounds")
    phase("rounds")

    layers = {}
    if tracer:
        runner.tracer = tracer
        install_spans(tracer)
        traced = runner.round(wl.calls(0), repeat=False)
        tracer.unpatch()
        runner.tracer = None
        os.environ["QDIM_THREADS"] = "1"
        single = runner.round(wl.estimate_calls(0))
        os.environ["QDIM_THREADS"] = str(nproc)
        same_bytes(rounds[0], traced, single, what="traced and QDIM_THREADS=1 rounds")
        est0 = sum(w for c, _, w, _ in rounds[0]["results"] if c.kind == "estimate")
        layers = layer_metrics(tracer)
        layers["ifs.hutchinson_push.s"] = hutchinson_s
        layers["util.thread_speedup"] = single["wall"] / est0
        # Untraced reference for the same calls: round 0's ladder plus each
        # exact-side call's median wall over the untraced rounds.
        untraced = est0 + kind_s(rounds, lambda c: c.kind != "estimate")
        layers["trace.overhead_frac"] = traced["wall"] / untraced - 1.0
        for r in ORDERS:
            layers[f"cli.estimate_s.r{r:g}"] = kind_s(
                rounds, lambda c, r=r: c.kind == "estimate" and c.expect["r"] == r)
        for name, kinds in (("dim", ("dim",)), ("check_sep", ("check-sep", "subifs-search")),
                            ("measure", ("measure",))):
            layers[f"cli.{name}_s"] = kind_s(rounds, lambda c, kinds=kinds: c.kind in kinds)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    phase("traced")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the timed regions.  Repeats of a call gave
    # the same bytes (gated above), so each distinct call is checked once.
    distinct = {}
    for rnd in rounds:
        for call, rc, _, out in rnd["results"]:
            distinct.setdefault((call.label, tuple(call.argv)), (call, rc, out))
    attempted = failed = 0
    verdicts = []
    for call, rc, out in distinct.values():
        try:
            v = checks.check(call, rc, out)
        except checks.ParseError as exc:
            raise GateFailed(f"output does not parse: {exc}") from exc
        attempted += v.ops
        failed += v.failed
        verdicts.append((call, v))

    truth = true_dimensions(wl)
    estimates = {}
    for r in ORDERS:
        got = [v.notes["estimate"] for c, v in verdicts
               if c.kind == "estimate" and c.expect["r"] == r and "estimate" in v.notes]
        if not got:
            raise GateFailed(f"no estimate at r = {r:g} succeeded")
        estimates[r] = statistics.fmean(got)
    dim_abs_err = max(abs(estimates[r] - truth[r]) for r in ORDERS)
    gaps = lloyd_gaps(wl, [(c, v) for c, v in verdicts if c.kind == "estimate"
                           and c.expect["r"] == 2.0 and "distortion" in v.notes])

    if tracer:
        layers.update({
            "quantize.lloyd_gap_r2.max": max(gaps),
            "quantize.dim_abs_err": dim_abs_err,
            "dimension.solve_kappa.bad": sum(v.notes["bad"] for c, v in verdicts if c.kind == "dim"),
            "measures.dl.max_err": max(v.notes["err"] for c, v in verdicts
                                       if c.kind == "measure" and v.notes["op"] == "dl"),
        })
        metrics = {name: layers[name] for name in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "estimate_s": kind_s(rounds, lambda c: c.kind == "estimate"),
            "lloyd_gap_r2": statistics.median(gaps),
            "peak_rss_mb": peak_rss_mb,
        }
    phase("oracles")

    record = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "qdim_threads": nproc, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "failed_frac": failed / attempted, "dim_abs_err": dim_abs_err,
        "mean_estimates": {f"r{r:g}": v for r, v in estimates.items()},
        "phases_s": phases, "round_walls_s": [round(rnd["wall"], 3) for rnd in rounds],
    }
    return {"record": record, "result": {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        with contextlib.redirect_stdout(sys.stderr):
            outcome = run(args, workdir)
    except GateFailed as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"run": outcome["record"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
