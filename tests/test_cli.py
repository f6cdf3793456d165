"""End-to-end CLI tests through a real subprocess.

Exit-code contract: 0 success, 1 runtime/verification failure, 2 flag
errors (argparse), with the offending flag named on stderr.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np

import pytest

from subpar import dump_instance, generate_random_instance
from subpar.instances import CutInstance, MultilinearQuadraticInstance


def run_cli(*argv, optimize=False):
    """Run the CLI in a fresh interpreter; optimize=True runs it under
    `python -O`, where `assert` statements are stripped."""
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-m", "subpar.cli", *argv],
                          capture_output=True, text=True, env=dict(os.environ),
                          timeout=300)


@pytest.fixture
def k2_path(k2, write_instance):
    return write_instance(k2, name="k2.json")


@pytest.fixture
def cut6_path(tmp_path):
    p = tmp_path / "cut6.json"
    dump_instance(generate_random_instance("cut", 6, 35), p)
    return str(p)


@pytest.fixture
def quad_path(frozen_quad, write_instance):
    return write_instance(frozen_quad, name="quad.json",
                          extra={"lower": [0.0, 0.0], "upper": [1.0, 1.0]})


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == "subpar 0.1.0"


def test_run_delegates_tiny_instances(k2_path, tmp_path):
    out = str(tmp_path / "rep.json")
    r = run_cli("run", "--instance", k2_path, "--algorithm", "continuous",
                "--epsilon", "0.1", "--out", out)
    assert r.returncode == 0, r.stderr
    rep = json.loads(open(out).read())
    assert rep["schema"] == 1
    assert rep["algorithm"] == "brute-force"
    assert rep["delegated"] == "continuous"
    assert rep["epsilon"] == 0.1           # requested epsilon is retained
    assert rep["value"] == 1.0 and rep["ratio"] == 1.0
    assert "k2" in r.stdout


def test_run_continuous_report(cut6_path, tmp_path):
    out = str(tmp_path / "rep.json")
    r = run_cli("run", "--instance", cut6_path, "--algorithm", "continuous",
                "--epsilon", "0.1", "--seed", "3", "--out", out)
    assert r.returncode == 0, r.stderr
    rep = json.loads(open(out).read())
    assert rep["algorithm"] == "continuous"
    assert rep["n"] == 6 and rep["oracle"] == "exact"
    assert rep["opt_value"] is not None
    assert rep["value"] >= 0.45 * rep["opt_value"]
    assert rep["adaptive_rounds"] >= 3
    assert rep["iterations"] == len(rep["trace"])
    assert set(rep["solution"]) == {"fractional", "rounded", "rounded_value"}


def test_run_reports_are_reproducible(cut6_path, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        r = run_cli("run", "--instance", cut6_path, "--algorithm", "discrete",
                    "--epsilon", "0.2", "--sample-override", "60",
                    "--seed", "9", "--out", out)
        assert r.returncode == 0, r.stderr
        outs.append(json.loads(open(out).read()))
    for rep in outs:
        rep.pop("wall_time_ms")
    assert outs[0] == outs[1]


def test_run_discrete_iteration_count(cut6_path, tmp_path):
    out = str(tmp_path / "rep.json")
    r = run_cli("run", "--instance", cut6_path, "--algorithm", "discrete",
                "--epsilon", "0.2", "--sample-override", "50", "--out", out)
    assert r.returncode == 0, r.stderr
    rep = json.loads(open(out).read())
    assert rep["iterations"] == 9          # ceil(ln(5)/0.2)
    assert rep["oracle"] == "set" and rep["F_queries"] is None


def test_run_csv_format(k2_path, tmp_path):
    out = str(tmp_path / "rep.csv")
    r = run_cli("run", "--instance", k2_path, "--algorithm", "brute-force",
                "--out", out, "--format", "csv")
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["n", "epsilon", "seed", "algorithm", "value", "opt",
                       "ratio", "rounds", "f_queries", "F_queries",
                       "iterations", "wall_ms"]
    assert len(rows) == 2
    assert rows[1][3] == "brute-force" and rows[1][4] == "1.0"


def test_run_sampled_oracle(cut6_path):
    r = run_cli("run", "--instance", cut6_path, "--algorithm", "continuous",
                "--oracle", "sampled:500")
    assert r.returncode == 0, r.stderr


def test_run_dr_on_quadratic(quad_path, tmp_path):
    out = str(tmp_path / "rep.json")
    r = run_cli("run", "--instance", quad_path, "--algorithm", "dr",
                "--epsilon", "0.05", "--out", out)
    assert r.returncode == 0, r.stderr
    rep = json.loads(open(out).read())
    assert rep["oracle"] == "direct"
    assert rep["f_queries"] == 0
    assert rep["value"] >= 0.45 * rep["opt_value"]
    assert "fractional" in rep["solution"]


def test_run_dr_on_fully_pinned_box(frozen_quad, write_instance, tmp_path):
    # nothing to optimize: the pinned point, and the oracle reads 0 everywhere
    path = write_instance(frozen_quad, name="pinned.json",
                          extra={"lower": [0.5, 0.5], "upper": [0.5, 0.5]})
    out = str(tmp_path / "rep.json")
    r = run_cli("run", "--instance", path, "--algorithm", "dr", "--out", out)
    assert r.returncode == 0, r.stderr
    rep = json.loads(open(out).read())
    assert [rep[k] for k in ("adaptive_rounds", "f_queries", "F_queries",
                             "grad_queries", "iterations")] == [0, 0, 0, 0, 0]
    assert rep["solution"]["fractional"] == [0.5, 0.5]


# -- flag errors (exit 2, message names the flag) -----------------------------------

def test_bad_epsilon_names_flag(k2_path):
    r = run_cli("run", "--instance", k2_path, "--algorithm", "continuous",
                "--epsilon", "0.5")
    assert r.returncode == 2
    assert "--epsilon" in r.stderr and "(0, 1/3)" in r.stderr


def test_theorem_epsilon_window(cut6_path):
    r = run_cli("run", "--instance", cut6_path, "--algorithm", "discrete",
                "--mode", "theorem", "--epsilon", "0.01")
    assert r.returncode == 2
    assert "--epsilon" in r.stderr and "1/208" in r.stderr


def test_missing_instance_names_flag(tmp_path):
    r = run_cli("run", "--instance", str(tmp_path / "nope.json"),
                "--algorithm", "brute-force")
    assert r.returncode == 2
    assert "--instance" in r.stderr and "not found" in r.stderr


def test_unparseable_instance_names_flag(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("this is not json\n")
    r = run_cli("run", "--instance", str(p), "--algorithm", "brute-force")
    assert r.returncode == 2
    assert "--instance" in r.stderr and "cannot parse" in r.stderr


def test_dr_rejects_set_instances(k2_path):
    r = run_cli("run", "--instance", k2_path, "--algorithm", "dr")
    assert r.returncode == 2
    assert "--algorithm" in r.stderr and "quadratic" in r.stderr


def test_bad_oracle_spec_names_flag(k2_path):
    r = run_cli("run", "--instance", k2_path, "--algorithm", "continuous",
                "--oracle", "sampled:zero")
    assert r.returncode == 2
    assert "--oracle" in r.stderr


@pytest.mark.parametrize("optimize", [False, True])
def test_flag_checks_survive_optimize(k2_path, optimize):
    r = run_cli("run", "--instance", k2_path, "--algorithm", "continuous",
                "--oracle", "sampled:0", optimize=optimize)
    assert r.returncode == 2
    assert "--oracle" in r.stderr
    r = run_cli("sweep", "--algorithm", "random-half", "--n-values", "0",
                optimize=optimize)
    assert r.returncode == 2
    assert "--n-values" in r.stderr
    r = run_cli("sweep", "--algorithm", "random-half", "--epsilon-values", ",",
                optimize=optimize)
    assert r.returncode == 2
    assert "--epsilon-values" in r.stderr


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("command,flag", [
    ("run", "--sample-override"), ("sweep", "--sample-override"),
    ("sweep", "--seeds-per-cell")])
def test_positive_int_flags(k2_path, command, flag, optimize):
    argv = (("run", "--instance", k2_path, "--algorithm", "discrete")
            if command == "run" else ("sweep", "--algorithm", "discrete"))
    for bad in ("0", "-3"):
        r = run_cli(*argv, flag, bad, optimize=optimize)
        assert r.returncode == 2, r.stderr
        assert flag in r.stderr and "positive integer" in r.stderr


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_threads_flag_is_gone(k2_path, command):
    argv = (("run", "--instance", k2_path, "--algorithm", "discrete")
            if command == "run" else ("sweep", "--algorithm", "discrete"))
    r = run_cli(*argv, "--threads", "1")
    assert r.returncode == 2
    assert "unrecognized arguments: --threads" in r.stderr


def test_sweep_checks_every_epsilon_before_the_first_cell():
    r = run_cli("sweep", "--algorithm", "continuous", "--n-values", "8",
                "--epsilon-values", "0.1,0.4", "--oracle", "exact")
    assert r.returncode == 2
    assert "--epsilon-values" in r.stderr and "(0, 1/3)" in r.stderr
    assert "--epsilon:" not in r.stderr
    r = run_cli("sweep", "--algorithm", "discrete", "--mode", "theorem",
                "--epsilon-values", "0.1")
    assert r.returncode == 2
    assert "--epsilon-values" in r.stderr and "1/208" in r.stderr


@pytest.mark.parametrize("optimize", [False, True])
def test_negative_weight_instance_names_flag(tmp_path, optimize):
    p = tmp_path / "neg.json"
    p.write_text(json.dumps({"kind": "cut", "n": 2, "edges": [[0, 1, -0.5]]}) + "\n")
    r = run_cli("run", "--instance", str(p), "--algorithm", "brute-force",
                optimize=optimize)
    assert r.returncode == 2
    assert "--instance" in r.stderr and "negative edge weight" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("box, message", [
    ({"lower": [0.0, 0.0, 0.0]}, "lower must have length 2"),
    ({"upper": [1.0, float("nan")]}, "upper must be finite"),
    ({"lower": [0.6, 0.0], "upper": [0.4, 1.0]}, "lower <= upper"),
])
def test_bad_box_names_instance_flag(frozen_quad, write_instance, box, message, optimize):
    path = write_instance(frozen_quad, extra=box)
    r = run_cli("run", "--instance", path, "--algorithm", "dr", optimize=optimize)
    assert r.returncode == 2
    assert "--instance" in r.stderr and message in r.stderr
    assert "Traceback" not in r.stderr


def test_negative_seed_rejected(k2_path):
    r = run_cli("run", "--instance", k2_path, "--algorithm", "brute-force",
                "--seed", "-1")
    assert r.returncode == 2
    assert "--seed" in r.stderr


def test_sweep_rejects_dr():
    r = run_cli("sweep", "--algorithm", "dr")
    assert r.returncode == 2
    assert "--algorithm" in r.stderr


def test_run_rejects_oversized_brute(tmp_path):
    p = tmp_path / "big.json"
    dump_instance(CutInstance(25, []), p)
    r = run_cli("run", "--instance", str(p), "--algorithm", "brute-force")
    assert r.returncode == 1               # runtime refusal, not a flag error
    assert "error:" in r.stderr


# -- sweep --------------------------------------------------------------------------

def test_sweep_layout(tmp_path):
    out = str(tmp_path / "sweep.csv")
    r = run_cli("sweep", "--algorithm", "double-greedy-det",
                "--n-values", "4,6", "--epsilon-values", "0.2",
                "--seeds-per-cell", "2", "--oracle", "exact", "--out", out)
    assert r.returncode == 0, r.stderr
    assert "8 rows" in r.stdout
    rows = list(csv.reader(open(out)))
    assert len(rows) == 9                  # header + 2 cells x (2 seeds + 2 agg)
    seeds = [row[2] for row in rows[1:]]
    assert seeds == ["0", "1", "mean", "stddev"] * 2
    # double greedy's adaptivity is one round per element plus the final
    # value read
    by_seed = [row for row in rows[1:] if row[2] in ("0", "1")]
    assert [row[7] for row in by_seed] == ["5", "5", "7", "7"]


def test_sweep_continuous_small(tmp_path):
    out = str(tmp_path / "sweep.csv")
    r = run_cli("sweep", "--algorithm", "continuous", "--n-values", "4",
                "--epsilon-values", "0.2", "--seeds-per-cell", "2",
                "--oracle", "auto:100", "--out", out)
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader(open(out)))
    mean = next(row for row in rows[1:] if row[2] == "mean")
    assert float(mean[6]) >= 0.45          # mean ratio on brute-forceable cells


def test_sweep_bad_n_values(tmp_path):
    r = run_cli("sweep", "--algorithm", "random-half", "--n-values", "4,x")
    assert r.returncode == 2
    assert "--n-values" in r.stderr


# -- verify -------------------------------------------------------------------------

def test_verify_all_suites_ok():
    r = run_cli("verify")
    assert r.returncode == 0, r.stderr
    assert "verify: all invariants hold" in r.stdout
    for name in ("submodularity", "non-negativity", "chain", "potential",
                 "tau", "lovasz", "feige", "estimator", "truncation", "dr"):
        assert f"{name:15s} ok" in r.stdout


def test_verify_single_suite():
    r = run_cli("verify", "--suite", "lovasz")
    assert r.returncode == 0, r.stderr
    assert r.stdout.count(" ok") == 1


def test_verify_unknown_suite():
    r = run_cli("verify", "--suite", "bogus")
    assert r.returncode == 2
    assert "--suite" in r.stderr


def test_verify_flags_bad_instance(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "kind": "coverage", "n": 2, "universe": 1,
        "covers": {"0": [0], "1": [0]},
        "weights": [1.0], "costs": [5.0, 5.0],
    }) + "\n")
    r = run_cli("verify", "--suite", "non-negativity", "--instance", str(p))
    assert r.returncode == 1
    assert "non-negativity" in r.stdout    # suite line flips to FAIL
    assert "FAIL" in r.stdout
    assert "violation" in r.stderr


def test_verify_instance_error_fails_the_suite_that_reads_it(tmp_path):
    p = tmp_path / "neg_cut.json"
    p.write_text(json.dumps({"kind": "cut", "n": 2, "edges": [[0, 1, -0.5]]}) + "\n")
    r = run_cli("verify", "--suite", "submodularity", "--instance", str(p))
    assert r.returncode == 1
    assert "submodularity   FAIL" in r.stdout
    assert "[submodularity]" in r.stderr and "[non-negativity]" not in r.stderr


def test_verify_instance_needs_a_suite_that_reads_it(cut6_path):
    r = run_cli("verify", "--suite", "lovasz", "--instance", cut6_path)
    assert r.returncode == 2
    assert "--instance" in r.stderr


def test_verify_reports_an_instance_too_large_to_check(write_instance):
    # f(empty) = -1, but n = 21 is beyond the exhaustive check: a skip, not "ok"
    q = MultilinearQuadraticInstance(n=21, c=-1.0, h=np.zeros(21), H=np.zeros((21, 21)))
    p = write_instance(q, name="q21.json")
    r = run_cli("verify", "--suite", "non-negativity", "--instance", p)
    assert r.returncode == 1
    assert "non-negativity  SKIP" in r.stdout and " ok" not in r.stdout
    assert f"[non-negativity] {p}: skipped: n=21" in r.stderr
    assert "0 violation(s), 1 check(s) skipped" in r.stderr


def test_verify_unparseable_instance_names_flag(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("this is not json\n")
    r = run_cli("verify", "--suite", "non-negativity", "--instance", str(p))
    assert r.returncode == 2
    assert "--instance" in r.stderr and "cannot parse" in r.stderr


def test_verify_bad_epsilon_names_flag():
    r = run_cli("verify", "--suite", "chain", "--epsilon", "0.5")
    assert r.returncode == 2
    assert "--epsilon" in r.stderr and "(0, 1/3)" in r.stderr


@pytest.mark.parametrize("optimize", [False, True])
def test_verify_flags_negative_weight_instance(tmp_path, optimize):
    # a schema error in the file is a finding of the suite, not a crash
    p = tmp_path / "neg_cut.json"
    p.write_text(json.dumps({"kind": "cut", "n": 2, "edges": [[0, 1, -0.5]]}) + "\n")
    r = run_cli("verify", "--suite", "non-negativity", "--instance", str(p),
                optimize=optimize)
    assert r.returncode == 1
    assert "non-negativity  FAIL" in r.stdout
    assert f"[non-negativity] {p}: negative edge weight" in r.stderr
    assert "error:" not in r.stderr and "Traceback" not in r.stderr
