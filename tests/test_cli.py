"""End-to-end CLI tests, through a real subprocess except where a test
needs to patch the module (then through cli.main in process).

Exit-code contract: 0 success, 1 runtime/verification failure, 2 flag
errors (argparse), with the offending flag named on stderr.
"""

import csv
import json
import os
import subprocess
import sys
import time

import numpy as np

import pytest

from subpar import cli, dump_instance, generate_random_instance
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
    assert rep["schema"] == 2 and "mode" not in rep
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


def test_run_dr_checks_a_boxed_file_once(monkeypatch, tmp_path):
    # the box's vertex check runs once, before the clock; the run and its
    # OPT take the checked cube from it
    from subpar import instances
    inst = generate_random_instance("quadratic", 8, 2)
    path = tmp_path / "boxed.json"
    path.write_text(json.dumps({**inst.to_json_dict(), "lower": [0.1] * 8,
                                "upper": [0.9] * 8}))
    check, calls = instances.all_subsets_matrix, []
    monkeypatch.setattr(instances, "all_subsets_matrix",
                        lambda n: calls.append(n) or check(n))
    out = tmp_path / "rep.json"
    assert cli.main(["run", "--instance", str(path), "--algorithm", "dr",
                     "--out", str(out)]) == 0
    assert calls == [8]
    rep = json.loads(out.read_text())
    assert 0.0 < rep["value"] <= rep["opt_value"]


def test_run_dr_checks_an_unboxed_file_once(monkeypatch, tmp_path):
    # the loader's construction check is the unit cube's vertex check;
    # dr runs on the loaded instance without checking it again
    from subpar import instances
    path = tmp_path / "quad12.json"
    dump_instance(generate_random_instance("quadratic", 12, 4), path)
    check, calls = instances.all_subsets_matrix, []
    monkeypatch.setattr(instances, "all_subsets_matrix",
                        lambda n: calls.append(n) or check(n))
    out = tmp_path / "rep.json"
    assert cli.main(["run", "--instance", str(path), "--algorithm", "dr",
                     "--out", str(out)]) == 0
    assert calls == [12]
    rep = json.loads(out.read_text())
    assert 0.0 < rep["value"] <= rep["opt_value"]


def test_run_dr_refuses_a_non_finite_value(tmp_path):
    # F(x) = 1e308 (x0 + x1) overflows once x0 + x1 > 1.8; n = 25 is past
    # BRUTE_LIMIT, so the gateway's finite check is the one that sees it
    n = 25
    h = [0.0] * n
    h[0] = h[1] = 1e308
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps({"kind": "quadratic", "n": n, "c": 0.0, "h": h,
                             "H": [[0.0] * n] * n}) + "\n")
    r = run_cli("run", "--instance", str(p), "--algorithm", "dr")
    assert r.returncode == 1, r.stdout
    assert "non-finite value" in r.stderr and "Traceback" not in r.stderr


# -- in process: every branch's report fields, and what the clock covers ----------

SUBSET = {"subset"}
OPTIONAL = {"F_queries", "grad_queries", "iterations", "delegated"}

# path fixture, --algorithm, report algorithm, epsilon, oracle, fields that are
# None, solution keys
BRANCHES = [
    ("cut6_path", "continuous", "continuous", 0.2, "exact",
     {"grad_queries", "delegated"}, {"fractional", "rounded", "rounded_value"}),
    ("cut6_path", "discrete", "discrete", 0.2, "set",
     {"F_queries", "grad_queries", "delegated"}, SUBSET),
    ("cut6_path", "double-greedy", "double-greedy", None, "set", OPTIONAL, SUBSET),
    ("cut6_path", "double-greedy-det", "double-greedy-det", None, "set", OPTIONAL, SUBSET),
    ("cut6_path", "random-half", "random-half", None, "set", OPTIONAL, SUBSET),
    ("cut6_path", "brute-force", "brute-force", None, "set", OPTIONAL, SUBSET),
    ("k2_path", "discrete", "brute-force", 0.2, "set",
     {"F_queries", "grad_queries", "iterations"}, SUBSET),
    ("quad_path", "dr", "dr", 0.2, "direct", {"delegated"}, {"fractional"}),
]


@pytest.mark.parametrize("path_fixture, algorithm, reported, epsilon, oracle, nones, keys",
                         BRANCHES, ids=[f"{b[0][:-5]}-{b[1]}" for b in BRANCHES])
def test_run_report_fields_per_branch(request, tmp_path, path_fixture, algorithm,
                                      reported, epsilon, oracle, nones, keys):
    out = tmp_path / "rep.json"
    assert cli.main(["run", "--instance", request.getfixturevalue(path_fixture),
                     "--algorithm", algorithm, "--epsilon", "0.2", "--seed", "3",
                     "--sample-override", "30", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["algorithm"] == reported and rep["seed"] == 3
    assert rep["epsilon"] == epsilon and rep["oracle"] == oracle
    assert {k for k in OPTIONAL if rep[k] is None} == nones
    assert set(rep["solution"]) == keys
    assert rep["opt_value"] > 0 and rep["ratio"] == rep["value"] / rep["opt_value"]
    if reported == "brute-force":
        assert rep["opt_value"] == rep["value"]
    if algorithm == "dr":
        assert rep["f_queries"] == 0
    if reported != algorithm:
        assert rep["delegated"] == algorithm


def slow_opt_check(monkeypatch):
    """Make the ground-truth check take 0.5 s more, answering as before."""
    real = cli._opt_for

    def slow(*args, **kwargs):
        time.sleep(0.5)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "_opt_for", slow)


def test_run_clock_leaves_out_the_opt_check(cut6_path, tmp_path, monkeypatch):
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    argv = ["run", "--instance", cut6_path, "--algorithm", "double-greedy", "--out"]
    assert cli.main(argv + [str(fast)]) == 0
    slow_opt_check(monkeypatch)
    assert cli.main(argv + [str(slow)]) == 0
    fast, slow = json.loads(fast.read_text()), json.loads(slow.read_text())
    assert slow["opt_value"] == fast["opt_value"]
    assert slow["wall_time_ms"] < 500


def test_sweep_clock_leaves_out_the_opt_check(tmp_path, monkeypatch):
    slow_opt_check(monkeypatch)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--algorithm", "double-greedy", "--n-values", "6",
                     "--seeds-per-cell", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["seed"] for r in rows] == ["0", "mean", "stddev"]
    assert all(float(r["wall_ms"]) < 500 for r in rows)


# -- flag errors (exit 2, message names the flag) -----------------------------------

def test_bad_epsilon_names_flag(k2_path):
    r = run_cli("run", "--instance", k2_path, "--algorithm", "continuous",
                "--epsilon", "0.5")
    assert r.returncode == 2
    assert "--epsilon" in r.stderr and "(0, 1/3)" in r.stderr


def test_discrete_shares_the_epsilon_window(k2_path):
    r = run_cli("run", "--instance", k2_path, "--algorithm", "discrete",
                "--epsilon", "0.34")
    assert r.returncode == 2
    assert "--epsilon: discrete: epsilon must be in (0, 1/3)" in r.stderr


def test_discrete_round_over_the_budget_names_flags(tmp_path, capsys):
    # epsilon 0.01 on a cut n = 10 would need 33.9 GiB of pre-processing bases
    p = tmp_path / "cut10.json"
    dump_instance(generate_random_instance("cut", 10, 0), p)
    r = run_cli("run", "--instance", str(p), "--algorithm", "discrete", "--epsilon", "0.01")
    assert r.returncode == 2
    assert "--epsilon or --sample-override: the pre-processing round needs" in r.stderr
    assert "Traceback" not in r.stderr
    with pytest.raises(SystemExit) as exit_:
        cli.main(["sweep", "--kind", "cut", "--n-values", "10", "--algorithm", "discrete",
                  "--epsilon-values", "0.01", "--seeds-per-cell", "1",
                  "--out", str(tmp_path / "s.csv")])
    assert exit_.value.code == 2
    assert "--epsilon-values or --sample-override:" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_exact_oracle_beyond_limit_names_flag(tmp_path):
    p = tmp_path / "cut24.json"
    dump_instance(generate_random_instance("cut", 24, 0), p)
    r = run_cli("run", "--instance", str(p), "--algorithm", "continuous")
    assert r.returncode == 2
    assert "--oracle: exact needs n <= 20, got n=24" in r.stderr


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


@pytest.mark.parametrize("algorithm", ["brute-force", "dr"])
def test_boxed_set_instance_names_instance_flag(k2, write_instance, algorithm):
    # only a quadratic takes a box; a set function's box is refused, not dropped
    path = write_instance(k2, extra={"lower": [0.0, 0.0], "upper": [1.0, 1.0]})
    r = run_cli("run", "--instance", path, "--algorithm", algorithm)
    assert r.returncode == 2
    assert "--instance" in r.stderr and "takes no box" in r.stderr


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


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_mode_flag_is_gone(k2_path, command):
    argv = (("run", "--instance", k2_path, "--algorithm", "discrete")
            if command == "run" else ("sweep", "--algorithm", "discrete"))
    r = run_cli(*argv, "--mode", "theorem")
    assert r.returncode == 2
    assert "unrecognized arguments: --mode" in r.stderr


def test_sweep_checks_every_epsilon_before_the_first_cell():
    r = run_cli("sweep", "--algorithm", "continuous", "--n-values", "8",
                "--epsilon-values", "0.1,0.4", "--oracle", "exact")
    assert r.returncode == 2
    assert "--epsilon-values" in r.stderr and "(0, 1/3)" in r.stderr
    assert "--epsilon:" not in r.stderr


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
@pytest.mark.parametrize("doc, message", [
    ({"kind": "cut", "n": 3, "edges": [[0, 1, float("inf")]]},
     "edge weight on (0, 1) must be finite"),
    ({"kind": "coverage", "n": 2, "universe": 2, "covers": {"0": [0]},
      "weights": [float("nan"), 1.0], "costs": [0.0, 0.0]}, "weights must be finite"),
    ({"kind": "quadratic", "n": 2, "c": 0.0, "h": [1.0, float("nan")],
      "H": [[0.0, -1.0], [-1.0, 0.0]]}, "h must be finite"),
    # documents that construction refuses for other reasons take the same path
    ({"kind": "quadratic", "n": 21, "c": -1.0, "h": [0.0] * 21, "H": [[0.0] * 21] * 21},
     "quadratic with n=21 > 20 requires c + sum_u min(0, "),
    ({"kind": "cut", "n": 10 ** 6, "edges": []}, "n=1000000 needs"),
    ({"kind": "coverage", "n": 10 ** 6, "universe": 10 ** 6, "covers": {},
      "weights": [], "costs": []}, "n=1000000, universe=1000000 needs"),
    # a weight beyond the float64 range is read as an infinity
    ({"kind": "cut", "n": 3, "edges": [[0, 1, 10 ** 400]]},
     "edge weight on (0, 1) must be finite"),
    # validating every subset of n=20 would need 781 GiB at this universe
    ({"kind": "coverage", "n": 20, "universe": 10 ** 5, "covers": {"0": [0]},
      "weights": [1.0] * 10 ** 5, "costs": [0.0] * 20},
     "validating all 2^20 subsets at universe=100000 needs"),
    # a JSON true is not a count or an id
    ({"kind": "cut", "n": True, "edges": []}, "n must be an integer >= 1, got True"),
    ({"kind": "cut", "n": 3, "edges": [[0, True, 1.0]]}, "edge endpoint True out of range"),
], ids=["cut", "coverage", "quadratic", "negative-quadratic-n21", "huge-cut", "huge-coverage",
        "huge-int-weight", "coverage-validation", "bool-n", "bool-endpoint"])
def test_non_finite_instance_names_flag(tmp_path, doc, message, optimize):
    p = tmp_path / "nonfinite.json"
    p.write_text(json.dumps(doc) + "\n")              # NaN and Infinity are JSON to Python
    r = run_cli("run", "--instance", str(p), "--algorithm", "brute-force",
                optimize=optimize)
    assert r.returncode == 2
    assert "--instance" in r.stderr and message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("box, message", [
    ({"lower": [0.0, 0.0, 0.0]}, "lower must have length 2"),
    ({"upper": [1.0, float("nan")]}, "upper must be finite"),
    ({"lower": [0.6, 0.0], "upper": [0.4, 1.0]}, "lower <= upper"),
    # with H = -3, f({0,1}) = -1 lies in the box: dr checks the box at load
    ({"H": [[0, -3], [-3, 0]], "lower": [0, 0], "upper": [1, 1]},
     "invalid instance: quadratic is negative on a vertex"),
    ({"H": [[0, -3], [-3, 0]], "lower": [1, 1], "upper": [1, 1]},
     "invalid instance: quadratic is negative at the pinned point"),
])
def test_bad_box_names_instance_flag(frozen_quad, write_instance, box, message, optimize):
    path = write_instance(frozen_quad, extra=box)
    r = run_cli("run", "--instance", path, "--algorithm", "dr", optimize=optimize)
    assert r.returncode == 2
    assert "--instance" in r.stderr and message in r.stderr
    assert "Traceback" not in r.stderr


def test_set_algorithms_check_a_boxed_quadratic(write_instance, tmp_path, capsys):
    # f({0,1}) = -1: fine on the box, negative as a set function
    path = write_instance({"kind": "quadratic", "n": 2, "c": 0, "h": [1, 1],
                           "H": [[0, -3], [-3, 0]], "lower": [0, 0],
                           "upper": [0.5, 0.5]}, name="boxed.json")
    for algorithm in (a for a in cli.ALGORITHMS if a != "dr"):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", "--instance", path, "--algorithm", algorithm])
        assert exit_.value.code == 2, algorithm
        err = capsys.readouterr().err
        assert "--instance: invalid instance: quadratic is negative on a vertex" in err
    out = tmp_path / "dr.json"
    assert cli.main(["run", "--instance", path, "--algorithm", "dr",
                     "--out", str(out)]) == 0
    x = json.loads(out.read_text())["solution"]["fractional"]
    assert all(0.0 <= v <= 0.5 for v in x)


def test_a_file_negative_on_its_box_is_invalid_for_every_algorithm(write_instance, capsys):
    # x0 + x1 - x0*x1 is fine on the unit cube but -3 at (3, 3): the box is
    # checked as the file is read, whatever runs on it
    path = write_instance({"kind": "quadratic", "n": 2, "c": 0, "h": [1, 1],
                           "H": [[0, -1], [-1, 0]], "lower": [0, 0], "upper": [3, 3]})
    for algorithm in cli.ALGORITHMS:
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", "--instance", path, "--algorithm", algorithm])
        assert exit_.value.code == 2, algorithm
        err = capsys.readouterr().err
        assert "--instance: invalid instance: quadratic is negative on a vertex" in err


def test_set_algorithms_take_opt_from_brute_force(tmp_path):
    # brute force covers n <= 24, over the subsets or over dr's box vertices
    p = tmp_path / "quad8.json"
    dump_instance(generate_random_instance("quadratic", 8, 1), p)
    reps = {}
    for algorithm in ("brute-force", "double-greedy", "dr"):
        out = tmp_path / f"{algorithm}.json"
        assert cli.main(["run", "--instance", str(p), "--algorithm", algorithm,
                         "--out", str(out)]) == 0
        reps[algorithm] = json.loads(out.read_text())
    opt = reps["brute-force"]["value"]
    assert reps["double-greedy"]["opt_value"] == opt
    assert reps["double-greedy"]["ratio"] == reps["double-greedy"]["value"] / opt
    # a zero-diagonal quadratic peaks on a vertex of the unit box: a subset
    assert reps["dr"]["opt_value"] == opt
    assert reps["dr"]["ratio"] == reps["dr"]["value"] / opt


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


def test_sweep_checks_every_n_against_the_exact_oracle(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run_cli("sweep", "--algorithm", "continuous", "--oracle", "exact",
                "--n-values", "8,24", "--out", str(out))
    assert r.returncode == 2
    assert "--oracle: exact needs n <= 20, got n=24" in r.stderr
    assert not out.exists()
    # only the continuous driver reads the oracle
    r = run_cli("sweep", "--algorithm", "double-greedy-det", "--oracle", "exact",
                "--n-values", "21", "--seeds-per-cell", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr


def test_sweep_coverage_beyond_exhaustive_check(tmp_path):
    out = str(tmp_path / "sweep.csv")
    r = run_cli("sweep", "--algorithm", "double-greedy", "--kind", "coverage",
                "--n-values", "21", "--seeds-per-cell", "1", "--out", out)
    assert r.returncode == 0, r.stderr
    assert len(list(csv.reader(open(out)))) == 4     # header, one seed, mean, stddev


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
    # n = 21 is beyond the exhaustive check: a skip, not "ok"
    q = MultilinearQuadraticInstance(n=21, c=0.0, h=np.zeros(21), H=np.zeros((21, 21)))
    p = write_instance(q, name="q21.json")
    r = run_cli("verify", "--suite", "non-negativity", "--instance", p)
    assert r.returncode == 1
    assert "non-negativity  SKIP" in r.stdout and " ok" not in r.stdout
    assert f"[non-negativity] {p}: skipped: n=21" in r.stderr
    assert "0 violation(s), 1 check(s) skipped" in r.stderr
    # f(empty) = -1 at n = 21 no longer loads, so the suite fails on it
    p = write_instance({**q.to_json_dict(), "c": -1.0}, name="q21neg.json")
    r = run_cli("verify", "--suite", "non-negativity", "--instance", p)
    assert r.returncode == 1
    assert "non-negativity  FAIL" in r.stdout
    assert f"[non-negativity] {p}: quadratic with n=21 > 20 requires c + sum_u" in r.stderr


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
