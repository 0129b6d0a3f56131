"""End-to-end command-line checks, run in process through ``main(argv)``.

Exit-code contract: 0 on success, 2 for invalid input (with the offending
field named on stderr), 1 for runtime failures.  Outputs written twice with
the same arguments must be byte-identical.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qdim
from qdim import cli
from qdim.cli import main
from qdim.ifs import WIFS, Similitude, compose_words, similitude_1d, wifs_to_json_obj
from qdim.instances import cantor, quarter_maps, uniform_halves
from qdim.measures import DiscreteMeasure, convolve, measure_to_csv, mix, translate
from qdim.quantize import chaos_game

import per_word

SEPARATED_WORDS = "11,21,31"  # level-2 family glued by suffix 1


@pytest.fixture(scope="module")
def wifs_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("wifs")
    paths = {}
    for name, w in [("cantor", cantor()), ("t02", quarter_maps(0.2)),
                    ("uniform", uniform_halves()),
                    ("single", WIFS(maps=(similitude_1d(1 / 3, 0.0),), probs=(1.0,))),
                    ("tiny", WIFS(maps=(similitude_1d(1e-30, 0.0), similitude_1d(1e-30, 0.5)),
                                  probs=(0.5, 0.5)))]:
        p = root / f"{name}.json"
        p.write_text(json.dumps(wifs_to_json_obj(w)))
        paths[name] = str(p)
    return paths


def _dust_file(path: Path) -> str:
    """Four corner maps of ratio 1/3, the third turned by 90 degrees."""
    eye, rot90 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    maps = tuple(Similitude(1 / 3, iso, np.array(t)) for iso, t in
                 [(eye, [0.0, 0.0]), (eye, [2 / 3, 0.0]), (rot90, [1 / 3, 2 / 3]), (eye, [2 / 3, 2 / 3])])
    path.write_text(json.dumps(wifs_to_json_obj(WIFS(maps=maps, probs=(0.4, 0.3, 0.2, 0.1)))))
    return str(path)


def _fresh_python(code: str, *args: str, threads: int = 1) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this ``qdim``."""
    src = str(Path(qdim.__file__).resolve().parents[1])
    env = dict(os.environ, QDIM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          check=True, timeout=120)


@pytest.fixture(scope="module")
def measure_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("measures")
    mu = root / "mu.csv"   # (delta_0 + delta_1) / 2
    nu = root / "nu.csv"   # delta_{1/2}
    mu.write_text(measure_to_csv(DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])))
    nu.write_text(measure_to_csv(DiscreteMeasure([[0.5]], [1.0])))
    return str(mu), str(nu)


# ---------------------------------------------------------------------------
# dim
# ---------------------------------------------------------------------------


def test_dim_single_r(wifs_files, capsys):
    assert main(["dim", "--wifs", wifs_files["cantor"], "--r", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,kappa_r,d_r,theta,residual,iterations"
    fields = lines[1].split(",")
    assert len(lines) == 2 and len(fields) == 6
    assert float(fields[0]) == 2.0
    # uniform weights on equal ratios: kappa_r = log 2 / log 3 for every r
    assert float(fields[1]) == pytest.approx(math.log(2) / math.log(3), abs=1e-8)
    assert float(fields[4]) < 1e-9 and int(fields[5]) > 0


def test_dim_grid_with_d0(wifs_files, capsys):
    assert main(["dim", "--wifs", wifs_files["cantor"],
                 "--r-grid", "0.5,1,2", "--with-d0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    # the whole spectrum is flat at log2/log3 for this measure
    for ln in lines[1:]:
        assert float(ln.split(",")[1]) == pytest.approx(math.log(2) / math.log(3), abs=1e-8)


def test_dim_requires_some_r(wifs_files, capsys):
    assert main(["dim", "--wifs", wifs_files["cantor"]]) == 2
    assert "error: r:" in capsys.readouterr().err


def test_dim_rejects_nonpositive_r(wifs_files, capsys):
    assert main(["dim", "--wifs", wifs_files["cantor"], "--r", "-1"]) == 2
    assert "error: r" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--r", "nan"], ["--r", "inf"], ["--r-grid", "1,nan"]])
def test_dim_rejects_non_finite_r(wifs_files, capsys, flags):
    assert main(["dim", "--wifs", wifs_files["cantor"]] + flags) == 2
    assert "error: r" in capsys.readouterr().err


def test_dim_extreme_orders_are_exact(wifs_files, capsys):
    assert main(["dim", "--wifs", wifs_files["cantor"], "--r-grid", "1e-12,1e5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    for row in rows:
        assert float(row.split(",")[1]) == pytest.approx(math.log(2) / math.log(3), rel=1e-12)


def test_dim_missing_wifs_file(tmp_path, capsys):
    assert main(["dim", "--wifs", str(tmp_path / "nope.json"), "--r", "2"]) == 2
    assert "error: wifs" in capsys.readouterr().err


def test_dim_malformed_wifs_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dim", "--wifs", str(bad), "--r", "2"]) == 2
    assert "error: wifs" in capsys.readouterr().err


@pytest.mark.parametrize("ambient", [-1, 0, 1.7, True, "1"])
def test_wifs_file_needs_a_positive_integer_ambient_dim(tmp_path, capsys, ambient):
    obj = wifs_to_json_obj(cantor())
    obj["ambient_dim"] = ambient
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps(obj))
    assert main(["dim", "--wifs", str(path), "--r", "2"]) == 2
    err = capsys.readouterr().err
    assert "error: wifs" in err and "'ambient_dim' must be a positive integer" in err


_COMMANDS = [["dim", "--r", "2"], ["check-sep"], ["subifs-search"],
             ["quantize", "--r", "2", "--samples", "1000", "--seed", "1", "--n", "4"],
             ["estimate", "--r", "2", "--samples", "1000", "--seed", "1", "--n-list", "2,4"]]


@pytest.mark.parametrize("command", _COMMANDS, ids=[c[0] for c in _COMMANDS])
@pytest.mark.parametrize("mutate,field", [
    (lambda o: o.__setitem__("probs", [math.nan, 0.5]), "probs"),
    (lambda o: o["maps"][0].__setitem__("scale", 1.0), "maps[0]"),
], ids=["nan-prob", "scale-1"])
def test_invalid_wifs_file_exits_2_naming_the_field(tmp_path, capsys, command, mutate, field):
    obj = wifs_to_json_obj(cantor())
    mutate(obj)
    path = tmp_path / "cantor.json"
    path.write_text(json.dumps(obj))  # json writes NaN, and reads it back
    assert main([command[0], "--wifs", str(path)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: wifs: ") and f"field '{field}' is invalid" in err


@pytest.mark.parametrize("command", [c for c in _COMMANDS if c[0] in ("dim", "check-sep", "estimate")],
                         ids=["dim", "check-sep", "estimate"])
def test_wifs_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff" + json.dumps(wifs_to_json_obj(cantor())).encode())
    assert main([command[0], "--wifs", str(path)] + command[1:]) == 2
    assert capsys.readouterr().err.startswith("error: wifs: ")


def test_argparse_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# check-sep / subifs-search
# ---------------------------------------------------------------------------


def test_check_sep_level2_certificate(wifs_files, capsys):
    assert main(["check-sep", "--wifs", wifs_files["t02"],
                 "--words", SEPARATED_WORDS]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["condition"] == "SSC" and obj["status"] == "Satisfied"
    assert obj["min_gap"] == 0.1375
    assert obj["members"] == ["11", "21", "31"] and len(obj["images"]) == 3
    assert obj["hull"] == {"lo": [0.0], "hi": [1.0]}


def test_check_sep_level1_is_unknown(wifs_files, capsys):
    assert main(["check-sep", "--wifs", wifs_files["t02"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "Unknown"
    assert obj["overlapping_pair"] == ["1", "2"]


def _check_sep_json(tmp_path, capsys, *maps) -> dict:
    w = WIFS(maps=tuple(similitude_1d(*f) for f in maps), probs=np.full(len(maps), 1.0 / len(maps)))
    path = tmp_path / "system.json"
    path.write_text(json.dumps(wifs_to_json_obj(w)))
    assert main(["check-sep", "--wifs", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_check_sep_proves_a_violation_when_the_images_cover_the_hull(tmp_path, capsys):
    for maps in ([(0.6, 0.0), (0.6, 0.4)], [(0.6, 0.6, -1), (0.6, 0.4)]):
        obj = _check_sep_json(tmp_path, capsys, *maps)
        assert obj["status"] == "Violated" and obj["overlapping_pair"] == ["1", "2"]
        assert obj["min_gap"] == 0.0


def test_check_sep_overlap_without_a_cover_is_unknown(tmp_path, capsys):
    # f1(K) and f3(K) overlap, yet f1(A) and f3(A) lie 0.025 apart
    obj = _check_sep_json(tmp_path, capsys, (0.1, 0.0), (0.1, 0.9), (0.1, 0.05))
    assert obj["status"] == "Unknown" and obj["overlapping_pair"] == ["1", "3"]


def test_check_sep_has_no_hull_is_tight_flag(wifs_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-sep", "--wifs", wifs_files["t02"], "--hull-is-tight"])
    assert exc.value.code == 2
    assert "--hull-is-tight" in capsys.readouterr().err


def test_check_sep_osc_accepts_touching(wifs_files, capsys):
    assert main(["check-sep", "--wifs", wifs_files["uniform"], "--condition", "osc"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["condition"] == "OSC" and obj["status"] == "Satisfied"


def test_check_sep_rejects_bad_word(wifs_files, capsys):
    assert main(["check-sep", "--wifs", wifs_files["cantor"], "--words", "1,4"]) == 2
    assert "error: words" in capsys.readouterr().err


def test_check_sep_words_with_symbols_above_nine(tmp_path, capsys):
    # Twelve maps f_k(x) = x/24 + (k - 1)/12: "12." is f12 alone, "1.12" is
    # f1 o f12 and "11" is f1 o f1.  The hull is [0, 22/23].
    w = WIFS(maps=tuple(similitude_1d(1 / 24, k / 12) for k in range(12)),
             probs=np.full(12, 1 / 12))
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(wifs_to_json_obj(w)))
    assert main(["check-sep", "--wifs", str(path), "--words", "12.,1.12,11"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["members"] == ["12.", "1.12", "11"] and obj["status"] == "Satisfied"
    assert obj["images"][0]["lo"] == [11 / 12]
    assert obj["images"][1]["lo"] == [(11 / 12) / 24]


def test_check_sep_composes_ragged_words_in_one_call(tmp_path, monkeypatch, capsys):
    # words of lengths 1, 2 and 3, right-padded with 0, in one compose_words call
    w = quarter_maps(0.2)
    path = tmp_path / "t02.json"
    path.write_text(json.dumps(wifs_to_json_obj(w)))
    calls = []

    def counted(wifs, symbols):
        calls.append(np.asarray(symbols).tolist())
        return compose_words(wifs, symbols)

    monkeypatch.setattr(qdim.cli, "compose_words", counted)
    assert main(["check-sep", "--wifs", str(path), "--words", "3,21,111"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert calls == [[[3, 0, 0], [2, 1, 0], [1, 1, 1]]]
    assert obj["members"] == ["3", "21", "111"] and obj["status"] == "Satisfied"
    assert obj["images"][2]["hi"] == [1 / 64]


def test_check_sep_refuses_a_map_that_expands_boxes(tmp_path, capsys):
    c = math.cos(math.pi / 4)
    rot = Similitude(scale=0.8, isometry=np.array([[c, -c], [c, c]]), translation=np.array([1.0, 0.0]))
    path = tmp_path / "rot45.json"
    path.write_text(json.dumps(wifs_to_json_obj(WIFS(maps=(rot,), probs=(1.0,)))))
    assert main(["check-sep", "--wifs", str(path)]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_check_sep_writes_no_negative_zero(tmp_path, capsys):
    # The dust's hull's lower corner is 0, which the solve returns as -0.0
    # in lo = -y.
    assert main(["check-sep", "--wifs", _dust_file(tmp_path / "dust.json")]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["hull"]["lo"] == [0.0, 0.0]
    assert "-0.0" not in text


def test_subifs_search_empty_suffix(wifs_files, capsys):
    assert main(["subifs-search", "--wifs", wifs_files["t02"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["found"] is True
    assert obj["level"] == 1 and obj["suffix"] == ""
    assert obj["selection"] == ["1", "3"]
    assert obj["status"] == "Satisfied" and obj["min_gap"] > 0


def test_subifs_search_prefers_pairs_at_a_deeper_level(tmp_path, capsys):
    # Level 1 has only two overlapping maps, so the only level-1 selection is
    # a single word with an infinite gap; level 2 separates three words.
    w = WIFS(maps=(similitude_1d(0.55, 0.0), similitude_1d(0.55, 0.45)), probs=(0.5, 0.5))
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(wifs_to_json_obj(w)))
    assert main(["subifs-search", "--wifs", str(path)]) == 0
    text = capsys.readouterr().out
    obj = json.loads(text)
    assert obj["level"] == 2 and len(obj["selection"]) >= 2
    assert obj["status"] == "Satisfied" and 0 < obj["min_gap"] < math.inf
    assert main(["subifs-search", "--wifs", str(path), "--n-max", "1"]) == 0
    text = capsys.readouterr().out
    assert "Infinity" not in text and json.loads(text)["min_gap"] is None


def test_subifs_search_with_suffix(wifs_files, capsys):
    assert main(["subifs-search", "--wifs", wifs_files["t02"], "--suffix", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["selection"] == ["1", "2"]
    assert obj["scales"] == [0.0625, 0.0625]
    assert sum(obj["probs"]) == pytest.approx(1.0, abs=1e-12)


def test_subifs_search_one_map_system_finds_nothing(wifs_files, capsys):
    # every level has a single word, and a strict selection must leave it out
    assert main(["subifs-search", "--wifs", wifs_files["single"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False, "n_max": 2, "suffix": ""}


def test_subifs_search_one_map_system_answers_before_composing(wifs_files, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-map search composed a word")

    monkeypatch.setattr(qdim.separation, "compose_words", refuse)
    assert main(["subifs-search", "--wifs", wifs_files["single"], "--n-max", "1000000"]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False, "n_max": 1000000, "suffix": ""}


def test_subifs_search_refuses_a_suffix_symbol_out_of_range(wifs_files, capsys):
    for system in ("t02", "single"):  # a one-map system checks its suffix too
        assert main(["subifs-search", "--wifs", wifs_files[system], "--suffix", "9"]) == 2
        assert "error: suffix" in capsys.readouterr().err


def test_subifs_search_refuses_a_level_past_the_word_cap(tmp_path, capsys):
    # Eight coincident maps keep one word per level, so the search goes on
    # until level 5 (32768 words) passes the cap.
    w = WIFS(maps=(similitude_1d(0.5, 0.0),) * 8, probs=(0.125,) * 8)
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(wifs_to_json_obj(w)))
    assert main(["subifs-search", "--wifs", str(path), "--n-max", "40"]) == 2
    assert capsys.readouterr().err.startswith("error: n-max:")


def test_subifs_search_answering_early_ignores_a_large_n_max(wifs_files, capsys):
    outs = []
    for n_max in ("2", "40"):
        assert main(["subifs-search", "--wifs", wifs_files["t02"], "--n-max", n_max]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_subifs_search_has_no_budget_option(wifs_files):
    with pytest.raises(SystemExit) as exc:
        main(["subifs-search", "--wifs", wifs_files["t02"], "--budget", "5"])
    assert exc.value.code == 2


def test_subifs_search_solves_the_hull_once_and_certifies_once(wifs_files, monkeypatch, capsys):
    calls = {"attractor_hull": 0, "check_ssc": 0}
    for name in calls:
        real = getattr(qdim.separation, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in (qdim.cli, qdim.separation):
            monkeypatch.setattr(module, name, counted)
    assert main(["subifs-search", "--wifs", wifs_files["t02"]]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Satisfied"
    assert calls == {"attractor_hull": 1, "check_ssc": 1}


def _benchmark_calls(monkeypatch, tmp_path, kind):
    """The benchmark's exact calls of one kind at workload seeds 1-3, with
    the benchmark's ``checks`` module that judges them."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "path", [str(perfbench)] + sys.path)
    modules = {}
    for name in ("workloads", "checks"):  # checks imports workloads by name
        spec = importlib.util.spec_from_file_location(name, perfbench / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    calls = []
    for make in modules["workloads"].WORKLOADS.values():
        for seed in (1, 2, 3):
            workdir = tmp_path / f"{make.__name__}_{seed}"
            workdir.mkdir()
            calls += [call for call in make(seed, workdir).exact_calls if call.kind == kind]
    return calls, modules["checks"]


def test_every_benchmark_search_passes_its_check(monkeypatch, tmp_path, capsys):
    # perfbench/checks.py reads min_gap as a number, so a singleton answer
    # (min_gap null) would make a benchmark run malformed.
    calls, checks = _benchmark_calls(monkeypatch, tmp_path, "subifs-search")
    for call in calls:
        rc = main(call.argv)
        out = capsys.readouterr().out
        assert rc == 0, call.label
        assert len(json.loads(out)["selection"]) >= 2, call.label
        assert checks.check(call, rc, out.encode()).failed == 0, call.label
    assert len(calls) == 18


def test_every_benchmark_separation_check_passes_its_check(monkeypatch, tmp_path, capsys):
    calls, checks = _benchmark_calls(monkeypatch, tmp_path, "check-sep")
    for call in calls:
        rc = main(call.argv)
        out = capsys.readouterr().out
        assert rc == 0, call.label
        assert checks.check(call, rc, out.encode()).failed == 0, call.label
    assert len(calls) == 51


# ---------------------------------------------------------------------------
# quantize / estimate
# ---------------------------------------------------------------------------


def test_quantize_output_and_rerun_bytes(wifs_files, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["quantize", "--wifs", wifs_files["cantor"], "--n", "4", "--r", "2",
            "--samples", "2000", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["n"] == 4 and obj["seed"] == 5
    assert obj["distortion"] > 0
    xs = [row[0] for row in obj["points"]]
    assert xs == sorted(xs)


def test_quantize_rejects_bad_n(wifs_files, capsys):
    assert main(["quantize", "--wifs", wifs_files["cantor"], "--n", "0", "--r", "2",
                 "--samples", "100", "--seed", "1"]) == 2
    assert "error: n" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_quantize_and_estimate_reject_non_finite_r(wifs_files, capsys, r):
    assert main(["quantize", "--wifs", wifs_files["cantor"], "--n", "4", "--r", r,
                 "--samples", "1000", "--seed", "1"]) == 2
    assert main(["estimate", "--wifs", wifs_files["cantor"], "--r", r, "--n-list", "2,4",
                 "--samples", "1000", "--seed", "1"]) == 2
    assert capsys.readouterr().err.count("error: r") == 2


def test_quantize_log_distortion_of_exact_codebook_is_null(wifs_files, tmp_path):
    out = tmp_path / "q.json"
    assert main(["quantize", "--wifs", wifs_files["cantor"], "--n", "50", "--r", "0",
                 "--samples", "20", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert "Infinity" not in text and json.loads(text)["distortion"] is None


def test_estimate_csv_layout(wifs_files, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["estimate", "--wifs", wifs_files["cantor"], "--r", "2",
            "--n-list", "4,8", "--samples", "1000", "--seed", "7", "--restarts", "2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "n,r,distortion,log_n,neg_log_V,seed"
    assert len(lines) == 4
    row4 = lines[1].split(",")
    assert int(row4[0]) == 4
    assert int(row4[5]) == 7
    assert float(row4[4]) == pytest.approx(-math.log(float(row4[2])), rel=1e-12)
    final = lines[3].split(",")
    assert final[0] == "estimate" and float(final[1]) == 2.0
    assert float(final[2]) > 0  # the dimension estimate itself
    assert int(final[5]) == 7


@pytest.mark.parametrize("r", ["0", "2"])
def test_estimate_ignores_restarts_and_thread_count(wifs_files, tmp_path, monkeypatch, r):
    # Each rung is one Lloyd run from the system's antichain codebook: no
    # draw, so neither --restarts nor QDIM_THREADS can move a byte.
    dust = _dust_file(tmp_path / "dust.json")
    for name, wifs, ladder in (("cantor", wifs_files["cantor"], "8,16,32"), ("dust", dust, "4,16,20")):
        outs = set()
        for restarts in ("1", "3"):
            for threads in ("1", "2"):
                monkeypatch.setenv("QDIM_THREADS", threads)
                out = tmp_path / f"{name}.{restarts}.{threads}.csv"
                assert main(["estimate", "--wifs", wifs, "--r", r, "--n-list", ladder,
                             "--samples", "4000", "--seed", "11", "--restarts", restarts,
                             "--out", str(out)]) == 0
                outs.add(out.read_bytes())
        assert len(outs) == 1
    assert main(["estimate", "--wifs", dust, "--r", r, "--n-list", ladder, "--samples", "3000",
                 "--seed", "11", "--restarts", "0"]) == 2


@pytest.mark.parametrize("r", ["0", "2"])
def test_quantize_codebook_is_the_estimate_rung(wifs_files, tmp_path, r):
    # Both seed from the system's antichain codebook and run Lloyd once on
    # the same chaos-game samples, so the distortions agree bit for bit.
    dust = _dust_file(tmp_path / "dust.json")
    for wifs, n in ((wifs_files["cantor"], "16"), (dust, "20")):
        common = ["--wifs", wifs, "--r", r, "--samples", "4000", "--seed", "11"]
        q, e = tmp_path / "q.json", tmp_path / "e.csv"
        assert main(["quantize", "--n", n, "--restarts", "2", "--out", str(q)] + common) == 0
        assert main(["estimate", "--n-list", f"4,{n},32", "--out", str(e)] + common) == 0
        obj = json.loads(q.read_text())
        assert "restarts_used" not in obj and len(obj["points"]) == int(n)
        rung = e.read_text().splitlines()[2].split(",")
        assert rung[0] == n and float(rung[2]) == obj["distortion"]


def test_estimate_rejects_bad_ladder(wifs_files, capsys):
    base = ["estimate", "--wifs", wifs_files["cantor"], "--r", "2",
            "--samples", "2000", "--seed", "1"]
    assert main(base + ["--n-list", "8,4"]) == 2
    assert main(base + ["--n-list", "8,1600"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: n-list") == 2


def test_every_name_the_benchmark_trace_wraps_resolves(monkeypatch):
    # perfbench/run.py's install_spans wraps qdim functions at the module
    # names the CLI looks them up by (qdim.cli.solve_kappa among them), and
    # fails on any name that a refactor drops.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its own dirs
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    fit = qdim.cli.fit_dimension
    tracer = run.spans.Tracer()
    run.install_spans(tracer)
    assert qdim.cli.fit_dimension is not fit
    tracer.unpatch()
    assert qdim.cli.fit_dimension is fit


def test_estimate_degenerate_system_is_runtime_error(wifs_files, capsys):
    # one map: every sample collapses onto the fixed point, all distortions
    # vanish, and no slope can be fitted
    assert main(["estimate", "--wifs", wifs_files["single"], "--r", "2",
                 "--n-list", "2,4", "--samples", "500", "--seed", "3"]) == 1
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["0", "2"])
def test_quantize_past_the_sample_count_builds_no_start(wifs_files, monkeypatch, capsys, r):
    # n >= samples returns the distinct samples, which read no start codebook
    def refuse(*args, **kwargs):
        raise AssertionError("_antichain_starts built a start that is never read")

    monkeypatch.setattr(qdim.cli, "_antichain_starts", refuse)
    distinct = np.unique(chaos_game(cantor(), 1000, seed=5).points, axis=0)
    for n in ("1000", "100000"):
        assert main(["quantize", "--wifs", wifs_files["cantor"], "--r", r, "--samples", "1000",
                     "--seed", "5", "--n", n]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["points"] == distinct.tolist()
        assert obj["distortion"] == (0.0 if r == "2" else None)


def test_quantize_one_map_system_is_runtime_error(wifs_files, capsys):
    # a one-map system has no antichain of two or more words to seed from
    argv = ["quantize", "--wifs", wifs_files["single"], "--r", "2", "--samples", "500",
            "--seed", "3"]
    assert main(argv + ["--n", "2"]) == 1
    assert "runtime error" in capsys.readouterr().err
    assert main(argv + ["--n", "1"]) == 0


def test_runs_stopped_at_the_round_cap_warn_on_stderr(wifs_files, monkeypatch, capsys):
    # One stderr line per Lloyd run that the round cap stopped, naming n and
    # r; a default ladder writes none, and stdout carries the output alone.
    common = ["--wifs", wifs_files["cantor"], "--samples", "4000", "--seed", "11"]
    argvs = [["estimate", "--r", r, "--n-list", "6,12,24"] + common for r in ("0", "2")]
    argvs.append(["quantize", "--r", "2", "--n", "12"] + common)

    def run_all():
        for argv in argvs:
            assert main(argv) == 0
            yield capsys.readouterr()

    default = list(run_all())
    assert [err for _, err in default] == ["", "", ""]
    monkeypatch.setattr(qdim.quantize, "MAX_ROUNDS", 2)
    capped = list(run_all())
    assert [err for _, err in capped] == [
        "".join(f"warning: the Lloyd run at n = {n}, r = {r} stopped at the round cap "
                "(2 rounds) before converging\n" for n in sizes)
        for r, sizes in (("0.0", (6, 12, 24)), ("2.0", (6, 12, 24)), ("2.0", (12,)))]
    for (out, _), (capped_out, _) in zip(default, capped):
        assert [line.split(",")[0] for line in out.splitlines()] == \
            [line.split(",")[0] for line in capped_out.splitlines()]


_ESTIMATE_SPYING_ON_KDTREE_IMPORT = """
import sys, threading
from qdim.cli import main

in_main = []


class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.spatial":
            in_main.append(threading.current_thread() is threading.main_thread())


sys.meta_path.insert(0, Spy())
code = main(["estimate", "--wifs", sys.argv[1], "--r", "2", "--n-list", "4,8,16",
             "--samples", "3000", "--seed", "5", "--restarts", "2"])
print(in_main, file=sys.stderr)
sys.exit(code)
"""


def test_estimate_in_two_dimensions_is_thread_count_invariant_from_a_cold_start(tmp_path):
    # A fresh interpreter imports scipy's KD-tree on its first R^m
    # assignment.  Every ladder runs on the calling thread, so that is the
    # main thread at any thread count, and the CSV must not depend on it.
    wifs = _dust_file(tmp_path / "dust.json")
    one = _fresh_python(_ESTIMATE_SPYING_ON_KDTREE_IMPORT, wifs, threads=1)
    two = _fresh_python(_ESTIMATE_SPYING_ON_KDTREE_IMPORT, wifs, threads=2)
    assert one.stderr.decode().strip() == "[True]"
    assert two.stderr.decode().strip() == "[True]"
    assert two.stdout == one.stdout
    assert one.stdout.decode().splitlines()[-1].startswith("estimate,2.0,")


def test_cli_start_up_loads_no_scipy_solvers():
    # The R^m transport LP, the KD-tree and the oracle LP import scipy on
    # first use; a command that needs none of them never loads it.
    code = ("import sys, qdim, qdim.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.spatial') "
            "if m in sys.modules])")
    assert _fresh_python(code).stdout.decode().strip() == "[]"


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags,field", [
    (["measure", "--op", "translate", "--x", "nan"], "x"),
    (["measure", "--op", "box-mass", "--box-lo", "nan", "--box-hi", "1"], "box-lo"),
    (["measure", "--op", "box-mass", "--box-lo", "0", "--box-hi", "inf"], "box-hi"),
    (["estimate", "--n-list", "nan,32"], "n-list"),
    (["estimate", "--n-list", "16,inf"], "n-list"),
])
def test_non_finite_numbers_are_refused(wifs_files, measure_files, capsys, flags, field):
    mu, _ = measure_files
    if flags[0] == "measure":
        argv = flags + ["--a", mu]
    else:
        argv = flags + ["--wifs", wifs_files["cantor"], "--r", "2", "--samples", "4000", "--seed", "1"]
    assert main(argv) == 2
    assert f"error: {field}: expected finite numbers" in capsys.readouterr().err


_SAMPLED = ["--wifs", "{cantor}", "--r", "2", "--samples", "1000"]


@pytest.mark.parametrize("argv,field", [
    (["measure", "--op", "translate", "--a", "{mu}"], "x"),
    (["measure", "--op", "mix", "--a", "{mu}", "--b", "{mu}"], "alpha"),
    (["measure", "--op", "box-mass", "--a", "{mu}"], "box-lo"),
    (["measure", "--op", "box-mass", "--a", "{mu}", "--box-lo", "0,0", "--box-hi", "1,1"], "box-lo"),
    (["dim", "--wifs", "{cantor}", "--r-grid", ""], "r-grid"),
    (["dim", "--wifs", "{cantor}", "--r-grid", "1,two"], "r-grid"),
    (["estimate", *_SAMPLED, "--seed", "1", "--n-list", "2.5"], "n-list"),
    (["check-sep", "--wifs", "{cantor}", "--words", "1x"], "words"),
    (["check-sep", "--wifs", "{cantor}", "--words", "1.x"], "words"),
    (["check-sep", "--wifs", "{cantor}", "--words", "11,"], "words"),
    (["check-sep", "--wifs", "{cantor}", "--words", ","], "words"),
    # twelve scales of 1e-30 multiply to 0.0 in floating point
    (["check-sep", "--wifs", "{tiny}", "--words", "1111111111112,2"], "words"),
    (["quantize", *_SAMPLED, "--seed", "-1", "--n", "4"], "seed"),
    (["estimate", *_SAMPLED, "--seed", "-1", "--n-list", "2,4"], "seed"),
], ids=["translate-without-x", "mix-without-alpha", "box-mass-without-corners",
        "box-mass-corner-length", "empty-r-grid", "non-numeric-r-grid", "fractional-n-list",
        "unparsable-word", "unparsable-dotted-word", "trailing-empty-word", "only-empty-words",
        "underflowing-word",
        "quantize-negative-seed", "estimate-negative-seed"])
def test_invalid_input_exits_2_naming_the_field(wifs_files, measure_files, capsys, argv, field):
    paths = {"cantor": wifs_files["cantor"], "tiny": wifs_files["tiny"], "mu": measure_files[0]}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err


def test_failed_allocation_is_a_runtime_error(wifs_files, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(qdim.cli, "chaos_game", refuse)
    assert main(["quantize", "--wifs", wifs_files["cantor"], "--n", "4", "--r", "2",
                 "--samples", "100000000000", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "runtime error: Unable to allocate 745. GiB\n"


def test_measure_convolve(measure_files, capsys):
    mu, _ = measure_files
    assert main(["measure", "--op", "convolve", "--a", mu, "--b", mu]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(a) for a, _ in rows] == [0.0, 1.0, 2.0]
    assert [float(w) for _, w in rows] == [0.25, 0.5, 0.25]


def test_measure_translate_convention(measure_files, capsys):
    # (mu + x)(E) = mu(E + x): atoms shift by -x
    mu, _ = measure_files
    assert main(["measure", "--op", "translate", "--a", mu, "--x", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == [-0.5, 0.5]


def test_measure_translate_needs_matching_x(measure_files, capsys):
    mu, _ = measure_files
    assert main(["measure", "--op", "translate", "--a", mu, "--x", "1,2"]) == 2
    assert "error: x" in capsys.readouterr().err


def test_measure_dl_value(measure_files, capsys):
    mu, nu = measure_files
    assert main(["measure", "--op", "dl", "--a", mu, "--b", nu]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-12)


def test_measure_tv_value(measure_files, capsys):
    mu, nu = measure_files
    assert main(["measure", "--op", "tv", "--a", mu, "--b", nu]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-12)


def test_measure_box_mass_half_open(measure_files, capsys):
    mu, _ = measure_files
    assert main(["measure", "--op", "box-mass", "--a", mu,
                 "--box-lo", "0", "--box-hi", "0.75"]) == 0
    assert float(capsys.readouterr().out) == 0.5


def test_measure_mix_validates_alpha(measure_files, capsys):
    mu, nu = measure_files
    assert main(["measure", "--op", "mix", "--a", mu, "--b", nu, "--alpha", "1.5"]) == 2
    assert "error: alpha" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["x1,x2,weight\n0.5,1.0\n", "x1,weight\n0.5,1.0,2.0\n"])
def test_measure_csv_of_other_width_than_its_header_exits_2(tmp_path, capsys, text):
    path = tmp_path / "mu.csv"
    path.write_text(text)
    assert main(["measure", "--op", "tv", "--a", str(path), "--b", str(path)]) == 2
    assert "error: a: " in capsys.readouterr().err


def test_measure_requires_b(measure_files, capsys):
    mu, _ = measure_files
    assert main(["measure", "--op", "dl", "--a", mu]) == 2
    assert "error: b" in capsys.readouterr().err


@pytest.mark.parametrize("a,flags,error", [
    # 2001 x 2001 atom pairs pass convolve's cap of 4e6.
    ("wide", ["--op", "convolve", "--b", "wide"],
     "b: convolution support too large (2001 x 2001 atoms)"),
    ("big", ["--op", "convolve", "--b", "big"], "b: atoms and weights must be finite"),
    ("big", ["--op", "translate", "--x=-1e308"], "x: atoms and weights must be finite"),
    ("tiny", ["--op", "mix", "--b", "tiny", "--alpha", "1e-300"],
     "alpha: weights must be strictly positive"),
])
def test_measure_results_outside_range_are_refused(tmp_path, capsys, a, flags, error):
    # Too many atoms, atoms overflowing to infinity, weights underflowing to zero.
    texts = {"wide": measure_to_csv(DiscreteMeasure(np.arange(2001.0), np.full(2001, 1 / 2001))),
             "big": "x1,weight\n1e308,1.0\n", "tiny": "x1,weight\n0.0,1e-300\n"}
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        Path(paths[name]).write_text(text)
    assert main(["measure", "--a", paths[a], *[paths.get(f, f) for f in flags]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}")
    assert "Traceback" not in err


def test_measure_refuses_operands_of_different_dimension(measure_files, tmp_path, capsys):
    mu, _ = measure_files
    plane = tmp_path / "plane.csv"
    plane.write_text(measure_to_csv(DiscreteMeasure([[0.0, 1.0]], [1.0])))
    assert main(["measure", "--op", "dl", "--a", mu, "--b", str(plane)]) == 2
    assert capsys.readouterr().err.startswith("error: b: measure lives in R^2, --a in R^1")


@pytest.mark.parametrize("text", ['[1]', '{"atoms": [{"location": [1.0]}]}',
                                  '{"atoms": [{"location": [1.0], "weight": null}]}'])
def test_measure_refuses_malformed_json_measures(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["measure", "--op", "tv", "--a", str(path), "--b", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: a: ")


@pytest.mark.parametrize("op,flags", [("mix", ["--alpha", "0.3"]), ("convolve", [])])
def test_measure_csv_output_is_the_per_row_text(tmp_path, op, flags):
    # Hutchinson iterates of two Cantor measures, written and read back
    # exactly; the CLI's file holds the library result, one row at a time.
    mu, nu = per_word.cantor_iterate(0.37, 10), per_word.cantor_iterate(0.61, 6, x=0.8)
    paths = []
    for name, m in (("mu", mu), ("nu", nu)):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(measure_to_csv(m))
    out = tmp_path / "x.csv"
    assert main(["measure", "--op", op, "--a", str(paths[0]), "--b", str(paths[1]),
                 *flags, "--out", str(out)]) == 0
    want = mix(mu, nu, 0.3) if op == "mix" else convolve(mu, nu)
    assert out.read_bytes().split(b"\n") == per_word.csv_per_row(want).encode().split(b"\n")


@pytest.mark.parametrize("op,flags", [("convolve", []), ("translate", ["--x", "0.25"]),
                                      ("mix", ["--alpha", "0.3"])])
def test_measure_csv_output_to_a_file_and_to_stdout_is_measure_to_csv(tmp_path, capsys, op, flags):
    # The CLI writes its row blocks as they are formatted; a convolution of
    # 8192 by 8 atoms spans many of them.
    mu, nu = per_word.cantor_iterate(0.37, 13), per_word.cantor_iterate(0.61, 3, x=0.8)
    paths = []
    for name, m in (("mu", mu), ("nu", nu)):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(measure_to_csv(m))
    want = measure_to_csv({"convolve": lambda: convolve(mu, nu), "translate": lambda: translate(mu, 0.25),
                           "mix": lambda: mix(mu, nu, 0.3)}[op]())
    argv = ["measure", "--op", op, "--a", str(paths[0]), "--b", str(paths[1]), *flags]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_measure_load_of_a_2_16_row_csv_peaks_below_4_mb(tmp_path):
    # np.loadtxt reads the open file line by line: no whole-file string,
    # stripped copy or list of lines.
    path = tmp_path / "mu.csv"
    path.write_text(measure_to_csv(per_word.cantor_iterate(0.37, 16)))
    tracemalloc.start()
    try:
        mu = cli._load_measure("a", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu.size == 2 ** 16
    assert peak <= 4e6


def test_measure_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    path.write_bytes(b"x1,weight\n0.5,\xff1\n")
    assert main(["measure", "--op", "tv", "--a", str(path), "--b", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a: ") and "utf-8" in err


def test_measure_json_output(measure_files, tmp_path):
    mu, nu = measure_files
    out = tmp_path / "mixed.json"
    assert main(["measure", "--op", "mix", "--a", mu, "--b", nu,
                 "--alpha", "0.5", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert [a["weight"] for a in obj["atoms"]] == [0.25, 0.5, 0.25]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_quick_suite_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_single_criterion(capsys):
    assert main(["verify", "--criteria", "--only", "1,4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "all checks passed" in out


def test_verify_only_needs_criteria(capsys):
    assert main(["verify", "--only", "3"]) == 2
    captured = capsys.readouterr()
    assert "error: only" in captured.err and captured.out == ""


def test_verify_rejects_unknown_id(capsys):
    assert main(["verify", "--criteria", "--only", "99"]) == 2
    assert "error: only" in capsys.readouterr().err
