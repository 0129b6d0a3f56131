"""End-to-end command-line checks, run in process through ``main(argv)``.

Exit-code contract: 0 on success, 2 for invalid input (with the offending
field named on stderr), 1 for runtime failures.  Outputs written twice with
the same arguments must be byte-identical.
"""

import json
import math

import numpy as np
import pytest

from qdim.cli import main
from qdim.ifs import WIFS, Similitude, similitude_1d, wifs_to_json_obj
from qdim.instances import cantor, quarter_maps, uniform_halves
from qdim.measures import DiscreteMeasure, measure_to_csv
from qdim.quantize import ladder_seed

SEPARATED_WORDS = "11,21,31"  # level-2 family glued by suffix 1


@pytest.fixture(scope="module")
def wifs_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("wifs")
    paths = {}
    for name, w in [("cantor", cantor()), ("t02", quarter_maps(0.2)),
                    ("uniform", uniform_halves()),
                    ("single", WIFS(maps=(similitude_1d(1 / 3, 0.0),), probs=(1.0,)))]:
        p = root / f"{name}.json"
        p.write_text(json.dumps(wifs_to_json_obj(w)))
        paths[name] = str(p)
    return paths


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


def test_check_sep_refuses_a_map_that_expands_boxes(tmp_path, capsys):
    c = math.cos(math.pi / 4)
    rot = Similitude(scale=0.8, isometry=np.array([[c, -c], [c, c]]), translation=np.array([1.0, 0.0]))
    path = tmp_path / "rot45.json"
    path.write_text(json.dumps(wifs_to_json_obj(WIFS(maps=(rot,), probs=(1.0,)))))
    assert main(["check-sep", "--wifs", str(path)]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_check_sep_writes_no_negative_zero(tmp_path, capsys):
    # Four corner maps of ratio 1/3, the third turned by 90 degrees.  The
    # hull's lower corner is 0, which the solve returns as -0.0 in lo = -y.
    eye, rot90 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    maps = tuple(Similitude(1 / 3, iso, np.array(t)) for iso, t in
                 [(eye, [0.0, 0.0]), (eye, [2 / 3, 0.0]), (rot90, [1 / 3, 2 / 3]), (eye, [2 / 3, 2 / 3])])
    path = tmp_path / "dust.json"
    path.write_text(json.dumps(wifs_to_json_obj(WIFS(maps=maps, probs=(0.4, 0.3, 0.2, 0.1)))))
    assert main(["check-sep", "--wifs", str(path)]) == 0
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
    assert int(row4[5]) == ladder_seed(7, 4)
    assert float(row4[4]) == pytest.approx(-math.log(float(row4[2])), rel=1e-12)
    final = lines[3].split(",")
    assert final[0] == "estimate" and float(final[1]) == 2.0
    assert float(final[2]) > 0  # the dimension estimate itself
    assert int(final[5]) == 7


def test_estimate_rejects_bad_ladder(wifs_files, capsys):
    base = ["estimate", "--wifs", wifs_files["cantor"], "--r", "2",
            "--samples", "2000", "--seed", "1"]
    assert main(base + ["--n-list", "8,4"]) == 2
    assert main(base + ["--n-list", "8,1600"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: n-list") == 2


def test_estimate_degenerate_system_is_runtime_error(wifs_files, capsys):
    # one map: every sample collapses onto the fixed point, all distortions
    # vanish, and no slope can be fitted
    assert main(["estimate", "--wifs", wifs_files["single"], "--r", "2",
                 "--n-list", "2,4", "--samples", "500", "--seed", "3"]) == 1
    assert "runtime error" in capsys.readouterr().err


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


def test_measure_requires_b(measure_files, capsys):
    mu, _ = measure_files
    assert main(["measure", "--op", "dl", "--a", mu]) == 2
    assert "error: b" in capsys.readouterr().err


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


def test_verify_rejects_unknown_id(capsys):
    assert main(["verify", "--criteria", "--only", "99"]) == 2
    assert "error: only" in capsys.readouterr().err
