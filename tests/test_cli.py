"""Command-line surface: exit codes, deterministic JSON reports, the
human table (timing lives only there), budget-skipped rows, and algebra
input from expressions and JSON files."""

import json
import os
import re
import subprocess
import sys

import pytest

import modlie
from modlie import cli
from modlie.cli import main
from modlie.claims import CLAIMS
from modlie.commalg import make_divided_powers, partial_derivation
from modlie.liealg import (current_algebra, make_deformed, make_sl2,
                           make_w1, semidirect_current)


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_no_command_prints_help(capsys):
    rc, out, err = run(capsys, [])
    assert rc == 2
    assert "verify" in out and "cohomology" in out and "cache" not in out


def test_verify_list_names_every_claim(capsys):
    rc, out, err = run(capsys, ["verify", "--list"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(CLAIMS) == 15
    for cid in CLAIMS:
        assert any(line.startswith(cid) for line in lines)


def test_verify_requires_a_claim(capsys):
    rc, out, err = run(capsys, ["verify"])
    assert rc == 2
    assert "claim id or 'all' required" in err


def test_verify_unknown_claim(capsys):
    rc, out, err = run(capsys, ["verify", "no-such-claim"])
    assert rc == 2
    assert "unknown claim id" in err


def test_verify_bad_override(capsys):
    rc, out, err = run(capsys, ["verify", "h2-w1-basic", "--p", "4"])
    assert rc == 2
    assert "not prime" in err


def test_verify_single_claim_table(capsys):
    rc, out, err = run(capsys, ["verify", "h2-w1-basic"])
    assert rc == 0
    # two instances (p = 5, 7), both pass
    assert out.strip().splitlines()[-1] == "2/2 rows pass"


def test_verify_named_claim_refuses_an_override_it_does_not_take(capsys):
    rc, out, err = run(capsys, ["verify", "h2-w1-basic", "--m", "3"])
    assert rc == 2
    assert "claim h2-w1-basic does not take --m" in err
    assert "rows pass" not in out


def test_verify_all_names_the_overrides_each_claim_ignores(capsys,
                                                          monkeypatch):
    # two cheap claims stand in for the registry: one takes --n
    monkeypatch.setattr(cli, "CLAIMS", {cid: CLAIMS[cid] for cid in
                                        ("h2-w1-basic", "dimh1-w1n")})
    rc, out, err = run(capsys, ["verify", "all", "--n", "1",
                                "--output", "json"])
    assert rc == 0
    assert err.splitlines() == ["verify: h2-w1-basic ignores --n"]
    rows = json.loads(out)["claims"]
    assert [(r["claim"], r["instance"]) for r in rows] == [
        ("h2-w1-basic", {"p": 5}), ("h2-w1-basic", {"p": 7}),
        ("dimh1-w1n", {"p": 5, "n": 1})]


def test_h2plus_w1_takes_no_m(capsys, monkeypatch):
    # the paper states the positive part of H^2 for O_1 = O1(1) only
    rc, out, err = run(capsys, ["verify", "h2plus-w1", "--m", "2"])
    assert rc == 2
    assert "claim h2plus-w1 does not take --m" in err
    assert "rows pass" not in out
    monkeypatch.setattr(cli, "CLAIMS", {"h2plus-w1": CLAIMS["h2plus-w1"]})
    rc, out, err = run(capsys, ["verify", "all", "--m", "2",
                                "--output", "json"])
    assert rc == 0
    assert err.splitlines() == ["verify: h2plus-w1 ignores --m"]
    rows = json.loads(out)["claims"]
    assert [(r["instance"], r["expected"], r["computed"]) for r in rows] == [
        ({"p": 5, "m": 1}, 1, 1)]


def test_verify_table_shows_claim_time_once(capsys):
    rc, out, err = run(capsys, ["verify", "h2-w1-basic"])
    assert rc == 0
    header, first, second = out.splitlines()[:3]
    assert header.split()[-2:] == ["claim", "time"]
    # one claim call produced both rows: its time is on the first only
    assert re.search(r"\d+\.\d\ds$", first)
    assert second.rstrip().endswith("pass")


GOLDEN_VERIFY_ALL = os.path.join(os.path.dirname(__file__), "data",
                                 "verify_all.json")


def test_verify_all_report_matches_the_golden_file(capsys):
    # every claim's report, byte for byte, less the "git" line: exact
    # rewrites of the engine may change its speed, never one byte here
    rc, out, err = run(capsys, ["verify", "all", "--output", "json"])
    assert rc == 0
    with open(GOLDEN_VERIFY_ALL) as f:
        assert re.sub(r'(?m)^  "git": .*\n', "", out) == f.read()


def test_verify_json_report_is_deterministic(capsys):
    argv = ["verify", "h2-w1-basic", "--output", "json"]
    rc1, first, _ = run(capsys, argv)
    rc2, again, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    # byte-identical across runs: the JSON document carries no wall times
    assert first == again
    doc = json.loads(first)
    assert doc["schema"] == 1 and doc["tool"] == "modlie"
    assert doc["status"] == "pass"
    assert all(r["status"] == "pass" for r in doc["claims"])


def test_verify_budget_skip_and_force(capsys):
    rc, out, err = run(capsys, ["verify", "h2-w1-basic", "--budget", "10"])
    assert rc == 1
    assert "skipped-budget" in out
    assert "rerun with --force or a higher --budget" in out
    assert out.strip().splitlines()[-1] == "0/2 rows pass"
    rc, out, err = run(capsys, ["verify", "h2-w1-basic", "--budget", "10",
                                "--force"])
    assert rc == 0
    assert out.strip().splitlines()[-1] == "2/2 rows pass"


def test_verify_budget_skip_and_force_on_the_bar_complex(capsys):
    # the Hochschild bar complex of O1(1) at p = 5 has 5^3 = 125 cochains
    argv = ["verify", "hochschild-harrison", "--budget", "100"]
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert "skipped-budget" in out
    assert "bar complex size 125 exceeds budget 100" in out
    rc, out, err = run(capsys, argv + ["--force"])
    assert rc == 0
    assert "skipped-budget" not in out


def test_budget_skips_each_instance_on_its_own_row(capsys):
    # every skipped instance keeps its instance and note, and a skipped
    # row is not a pass although its expected and computed are both null
    rc, out, err = run(capsys, ["verify", "h2-w1-basic", "--budget", "1",
                                "--output", "json"])
    assert rc == 1
    rows = json.loads(out)["claims"]
    assert [(r["instance"], r["status"]) for r in rows] == [
        ({"p": 5}, "skipped-budget"), ({"p": 7}, "skipped-budget")]
    assert all(r["note"].startswith("C^2 has over 1 tuples") for r in rows)
    # W1(1) fits in 100 entries, the weight-zero slice of W1(2) does not:
    # the row that fits is the one an unbudgeted run reports
    rc, out, err = run(capsys, ["verify", "dimh1-w1n", "--budget", "100",
                                "--output", "json"])
    assert rc == 1
    first, second = json.loads(out)["claims"]
    rc, plain, err = run(capsys, ["verify", "dimh1-w1n", "--output", "json"])
    assert first == json.loads(plain)["claims"][0]
    assert first["status"] == "pass"
    assert second["instance"] == {"p": 5, "n": 2}
    assert second["status"] == "skipped-budget"
    assert second["note"].startswith(
        "differential on the slice weight=0 exceeds the 100-entry budget")


def test_budget_advice_is_given_once_in_the_words_of_the_command(capsys):
    # the library says what exceeded which budget; each command adds one
    # piece of advice, in its own options
    argv = ["cohomology", "W1(2)", "--budget", "500"]
    rc, out, err = run(capsys, argv + ["--weight-reduction", "off"])
    assert rc == 1
    assert err == ("cohomology: differential exceeds the 500-entry budget; "
                   "raise --budget or drop --weight-reduction off\n")
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert err == ("cohomology: differential on the slice weight=0 exceeds "
                   "the 500-entry budget; raise --budget\n")
    rc, out, err = run(capsys, ["verify", "dimh1-w1n", "--budget", "50",
                                "--output", "json"])
    assert [r["note"] for r in json.loads(out)["claims"]] == [
        "differential%s exceeds the 50-entry budget; rerun with --force or "
        "a higher --budget" % where for where in ("", " on the slice weight=0")]


def test_commands_write_no_file_of_their_own(capsys, tmp_path, monkeypatch):
    # every number is computed by the run that reports it: nothing is
    # stored under the home, the user cache or the working directory
    for name, var in (("home", "HOME"), ("xdg", "XDG_CACHE_HOME")):
        (tmp_path / name).mkdir()
        monkeypatch.setenv(var, str(tmp_path / name))
    monkeypatch.chdir(tmp_path)
    for argv in (["verify", "h2-w1-basic"], ["cohomology", "W1(1)"],
                 ["cohomology", "W1(1)", "--output", "json"]):
        assert run(capsys, argv)[0] == 0
    assert [f for f in tmp_path.rglob("*") if not f.is_dir()] == []
    # --json-out is the one file a command writes
    run(capsys, ["verify", "h2-w1-basic", "--json-out", "report.json"])
    assert [f.name for f in tmp_path.rglob("*") if not f.is_dir()] == [
        "report.json"]


def test_python_m_modlie_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(modlie.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "modlie", "verify", "--list"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert [line.split()[0] for line in out.stdout.splitlines()] == list(
        CLAIMS)


def test_verify_json_out_writes_the_report_file(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    rc, out, err = run(capsys, ["verify", "lambda-identities",
                                "--json-out", path])
    assert rc == 0
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == 1 and doc["status"] == "pass"
    # table on stdout, report in the file
    assert "rows pass" in out


def test_cohomology_builtin_table_line(capsys):
    rc, out, err = run(capsys, ["cohomology", "W1(1)"])
    assert rc == 0
    # weight reduction kicks in by default: 10 weight-zero columns
    assert out.startswith("H^2(W1(1); adjoint) on ")
    assert " = 1   (columns 10, rank d 5, rank prev 4)" in out


def test_cohomology_current_algebra_json(capsys):
    rc, out, err = run(capsys, ["cohomology", "sl2(x)O1(1)",
                                "--output", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 5
    assert doc["query"]["slice"]["weight"] == 0


def test_cohomology_trivial_coefficients(capsys):
    rc, out, err = run(capsys, ["cohomology", "W1(1)", "--module", "trivial",
                                "--weight-reduction", "off",
                                "--output", "json"])
    assert json.loads(out)["dim"] == 1
    rc, out, err = run(capsys, ["cohomology", "W1(1)(x)O1(1)",
                                "--module", "trivial",
                                "--weight-reduction", "off",
                                "--output", "json"])
    assert json.loads(out)["dim"] == 5


def test_cohomology_dump_reps(capsys):
    argv = ["cohomology", "W1(1)", "--dump-reps"]
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert "rep 0: (e_1;e_3)->0:1 (e_2;e_3)->1:1" in out
    rc, out, err = run(capsys, argv + ["--output", "json"])
    assert json.loads(out)["representatives"] == [
        [[[2, 4], 0, 1], [[3, 4], 1, 1]]]


def test_cohomology_stats_leave_the_report_alone(capsys):
    argv = ["cohomology", "W1(1)(x)O1(1)", "--dump-reps",
            "--output", "json"]
    rc, plain, err = run(capsys, argv)
    assert rc == 0 and err == ""
    rc, out, err = run(capsys, argv + ["--stats"])
    assert rc == 0 and out == plain
    assert err.startswith("stats: ") and err.count("\n") == 1
    stats = json.loads(err[len("stats: "):])
    doc = json.loads(out)
    assert stats["ncols"] == doc["ncols"] == 1500
    assert 0 < stats["nnz"] < stats["budget_used"] <= stats["budget"]
    assert 0 < stats["rows"] <= stats["nnz"]
    # with --dump-reps only the dim H kept kernel vectors are computed
    assert (stats["kernel_vectors"] == doc["dim"]
            == len(doc["representatives"]))
    for stage in ("enumerate", "assemble", "rank_d", "rank_prev", "reps"):
        assert stats[stage + "_s"] >= 0


@pytest.mark.parametrize("extra, dim", [
    (["W1(2)", "--deg", "1"], 1),
    (["W1(1)", "--deg", "3"], 2),
])
def test_cohomology_dump_reps_table_names_every_argument(capsys, extra, dim):
    # the table lists each term as (labels of all arguments)->target:value
    argv = ["cohomology", "--dump-reps"] + extra
    rc, out, err = run(capsys, argv + ["--output", "json"])
    assert rc == 0
    reps = json.loads(out)["representatives"]
    assert len(reps) == dim
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    for i, rep in enumerate(reps):
        terms = ["(%s)->%d:%d" % (";".join("e_%d" % (x - 1) for x in T), t, v)
                 for T, t, v in rep]
        line = "  rep %d: %s" % (i, " ".join(terms[:8])) + (
            " ..." if len(terms) > 8 else "")
        assert line in out.splitlines()


def test_cohomology_from_algebra_file(capsys, tmp_path):
    path = str(tmp_path / "alg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make_sl2(5).to_json(), fh)
    rc, out, err = run(capsys, ["cohomology", path, "--output", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 0
    assert doc["query"]["algebra"] == "alg.json"


def test_cohomology_bad_inputs(capsys, tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("{nope")
    rc, out, err = run(capsys, ["cohomology", bad])
    assert rc == 2 and "malformed JSON" in err
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump({"dim": 3}, fh)
    rc, out, err = run(capsys, ["cohomology", bad])
    assert rc == 2 and "malformed algebra file" in err
    rc, out, err = run(capsys, ["cohomology", str(tmp_path / "none.json")])
    assert rc == 2 and "cannot read" in err
    rc, out, err = run(capsys, ["cohomology", "not-an-algebra"])
    assert (rc, out) == (2, "")
    assert err == ("cohomology: malformed algebra 'not-an-algebra': "
                   "expected %s\n" % cli.GRAMMAR)


@pytest.mark.parametrize("doc, message", [
    ({"p": 5, "basis": ["a", "b"], "bracket": [], "toral": 9},
     "toral 9 is not a basis index"),
    ({"p": 5, "basis": ["a", "b"], "bracket": [5]}, "bad bracket entry 5"),
    ({"p": 5, "basis": ["x%d" % i for i in range(33)],
      "bracket": [[0, 1, 0, 1], [0, 2, 2, 1]]}, "Jacobi fails on (x0, x1, x2)"),
    ({"p": 5, "basis": ["a", "b"], "bracket": [[0, 1, 1, 1]],
      "grading": [-1, 1], "filtration": "false"},
     "filtration must be true or false, not 'false'"),
    ({"p": "5", "basis": ["a", "b"], "bracket": [[0, 1, 1, 1]]},
     "p must be an integer, not '5'"),
    ({"p": 5.0, "basis": ["a", "b"], "bracket": [[0, 1, 1, 1]]},
     "p must be an integer, not 5.0"),
    ({"p": 0, "basis": ["a", "b"], "bracket": [[0, 1, 1, 1]]},
     "p = 0 is not prime"),
    ({"p": 5, "basis": ["a", "b", "c"], "bracket": [[0, 1, 0, 1],
                                                     [0, 2, 2, 1]]},
     "Jacobi fails on (a, b, c)"),
], ids=["toral-outside-basis", "entry-not-a-list", "non-lie-dim-33",
        "filtration-not-a-boolean", "p-a-string", "p-a-float", "p-zero",
        "non-lie-dim-3"])
def test_cohomology_rejects_invalid_algebra_file(capsys, tmp_path, doc,
                                                 message):
    path = str(tmp_path / "alg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rc, out, err = run(capsys, ["cohomology", path])
    assert rc == 2
    assert "malformed algebra file" in err and message in err
    assert out == ""


def test_cohomology_p_zero_is_rejected(capsys):
    # --p 0 must not fall back to the default p = 5
    rc, out, err = run(capsys, ["cohomology", "W1(1)", "--p", "0",
                                "--deg", "2"])
    assert rc == 2
    assert "p = 0 is not prime" in err
    assert out == ""


def _round_trip_points():
    # two points of each production, one at p = 7 or with n or m = 2
    O = make_divided_powers

    def d(m, p):
        return partial_derivation(O(m, p))
    return [
        (lambda: make_w1(1, 5), 5), (lambda: make_w1(2, 5), 5),
        (lambda: make_sl2(5), 5), (lambda: make_sl2(7), 7),
        (lambda: current_algebra(make_w1(1, 7), O(1, 7)), 7),
        (lambda: current_algebra(make_sl2(5), O(2, 5)), 5),
        (lambda: semidirect_current(make_w1(2, 5), O(1, 5), [d(1, 5)]), 5),
        (lambda: semidirect_current(make_sl2(5), O(1, 5), [d(1, 5)]), 5),
        (lambda: make_deformed(O(1, 5), d(1, 5)), 5),
        (lambda: make_deformed(O(2, 5), d(2, 5)), 5),
    ]


@pytest.mark.parametrize("build, p", _round_trip_points(), ids=[
    "W1(1)", "W1(2)", "sl2", "sl2-p7", "W1(1)(x)O1(1)-p7", "sl2(x)O1(2)",
    "W1(2)(x)O1(1)+d", "sl2(x)O1(1)+d", "L(O1(1),d)", "L(O1(2),d)"])
def test_every_printed_name_rebuilds_its_algebra(capsys, build, p):
    L = build()
    M = cli._build_algebra(L.name, p)
    assert M.name == L.name
    assert (M.p, M.labels, M.bracket) == (L.p, L.labels, L.bracket)
    assert (M.grading, M.toral, M.filtration) == (L.grading, L.toral,
                                                  L.filtration)
    assert M.meta["kind"] == L.meta["kind"]
    # and a report names its algebra by the expression that asked for it
    rc, out, err = run(capsys, ["cohomology", L.name, "--p", str(p),
                                "--deg", "1", "--output", "json"])
    assert rc == 0, err
    assert json.loads(out)["query"]["algebra"] == L.name


@pytest.mark.parametrize("expr", [
    "W1(0)", "L(O1(0),d)", "W1(01)", "w1n", "sl2+d", "W1(1)(x)",
    "L(O1(1),x)"])
def test_malformed_algebra_names_the_grammar(capsys, expr):
    rc, out, err = run(capsys, ["cohomology", expr])
    assert (rc, out) == (2, "")
    assert err == "cohomology: malformed algebra %r: expected %s\n" % (
        expr, cli.GRAMMAR)


@pytest.mark.parametrize("option", ["--n", "--m"])
def test_cohomology_takes_no_height_option(capsys, option):
    # heights are written into the expression, W1(n) and O1(m)
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "W1(1)", option, "2"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: %s 2" % option
            in capsys.readouterr().err)


def test_algebra_file_takes_no_builtin_option(capsys, tmp_path):
    # a file carries its own p, so --p is refused, not ignored
    path = str(tmp_path / "alg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make_sl2(5).to_json(), fh)
    rc, out, err = run(capsys, ["cohomology", path, "--p", "5"])
    assert (rc, out) == (2, "")
    assert err == "cohomology: %s does not take --p\n" % path


@pytest.mark.parametrize("option, claim", [
    ("--n", "dimh1-w1n"), ("--m", "lifted-h2")])
def test_height_below_one_names_its_option(capsys, option, claim):
    with pytest.raises(SystemExit) as exc:
        main(["verify", claim, option, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: must be >= 1, got 0" % option in err


@pytest.mark.parametrize("argv", [
    ["cohomology", "W1(1)", "--budget", "-5"],
    ["verify", "h2-w1-basic", "--budget", "0"]])
def test_budget_below_one_is_refused(capsys, argv):
    # -5 used to reach the enumeration ("C^2 has over -5 tuples") and 0
    # to skip every claim row as over budget, both with exit code 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --budget: must be >= 1, got %s" % argv[-1] in err


def test_cohomology_takes_no_seed(capsys):
    # only verify has randomized probes; cohomology would ignore a seed
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "W1(1)", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["cohomology", "W1(1)", "--degree", "2"], "--degree"),
    (["cohomology", "W1(1)", "--weight", "off"], "--weight"),
    (["verify", "h2-w1-basic", "--json", "report.json"], "--json")])
def test_abbreviated_options_are_refused(capsys, argv, option):
    # read as a prefix, --degree 2 was --degree-slice 2: the empty degree-2
    # slice printed 0 with exit code 0, where H^2 (--deg 2) is 1
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--p", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % option in capsys.readouterr().err


def test_degree_slice_refused_on_filtered_builtin(capsys):
    rc, out, err = run(capsys, ["cohomology", "L(O1(1),d)",
                                "--degree-slice", "5"])
    assert rc == 2
    assert "degree slices are invalid on a filtered algebra" in err
