"""Library-level checks of the invariant-suite runner."""

import json
from dataclasses import replace

import pytest

from subpar import generate_random_instance, verify
from subpar.instances import UnreadableInstance, dump_instance
from subpar.verify import INSTANCE_SUITES, SUITES, Finding, run_verify

ALL_SUITES = ["submodularity", "non-negativity", "chain", "potential", "tau",
              "lovasz", "feige", "estimator", "truncation", "dr"]


def test_suite_registry():
    assert list(SUITES) == ALL_SUITES


def test_all_suites_clean():
    names, findings = run_verify()
    assert names == ALL_SUITES
    assert findings == []


def test_suite_filter():
    names, findings = run_verify(suites=["feige", "tau"])
    assert names == ["feige", "tau"]
    assert findings == []


def test_chain_and_potential_check_dr_runs(monkeypatch):
    # a dr run whose pair walks backwards and whose potential climbs
    real = verify.run_dr

    def broken(inst, epsilon):
        res = real(inst, epsilon)
        start = res.core.traces[0].potential
        traces = [replace(t, potential=start + j) for j, t in enumerate(res.core.traces)]
        return replace(res, core=replace(res.core, states=res.core.states[::-1],
                                         traces=traces))

    monkeypatch.setattr(verify, "run_dr", broken)
    names, findings = run_verify(suites=["chain", "potential", "dr"])
    named = {(f.suite, f.instance) for f in findings}
    for suite in ("chain", "potential"):
        assert (suite, "quadratic-n4-s0") in named
    assert not [f for f in findings if f.suite == "dr" or not f.instance.startswith("quad")]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_verify(suites=["bogus"])


def test_bad_instance_becomes_finding(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "kind": "coverage", "n": 2, "universe": 1,
        "covers": {"0": [0], "1": [0]},
        "weights": [1.0], "costs": [5.0, 5.0],
    }) + "\n")
    names, findings = run_verify(suites=["non-negativity"],
                                 instance_path=str(p))
    assert len(findings) == 1
    f = findings[0]
    assert f.suite == "non-negativity"
    assert str(p) in f.instance or "bad" in f.instance
    assert str(f).startswith("[non-negativity]")


def test_invalid_instance_becomes_finding(tmp_path):
    p = tmp_path / "neg_cut.json"
    p.write_text(json.dumps({"kind": "cut", "n": 2, "edges": [[0, 1, -0.5]]}) + "\n")
    names, findings = run_verify(suites=["non-negativity"], instance_path=str(p))
    assert [(f.suite, f.instance) for f in findings] == [("non-negativity", str(p))]
    assert "negative edge weight" in findings[0].detail


def test_number_beyond_float64_becomes_finding(tmp_path):
    p = tmp_path / "huge_cut.json"
    p.write_text(json.dumps({"kind": "cut", "n": 2, "edges": [[0, 1, 10 ** 400]]}) + "\n")
    names, findings = run_verify(suites=["non-negativity"], instance_path=str(p))
    assert [(f.suite, f.instance) for f in findings] == [("non-negativity", str(p))]
    assert "edge weight on (0, 1) must be finite" in findings[0].detail


def test_instance_error_is_a_finding_of_each_suite_that_reads_it(tmp_path):
    p = tmp_path / "neg_cut.json"
    p.write_text(json.dumps({"kind": "cut", "n": 2, "edges": [[0, 1, -0.5]]}) + "\n")
    names, findings = run_verify(suites=["submodularity", "lovasz"], instance_path=str(p))
    assert [f.suite for f in findings] == ["submodularity"]
    names, findings = run_verify(suites=INSTANCE_SUITES, instance_path=str(p))
    assert [f.suite for f in findings] == list(INSTANCE_SUITES)


def test_unparseable_instance_raises(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("this is not json\n")
    with pytest.raises(UnreadableInstance, match="cannot parse"):
        run_verify(suites=["non-negativity"], instance_path=str(p))


def test_extra_instance_joins_pool(tmp_path):
    p = tmp_path / "extra.json"
    dump_instance(generate_random_instance("cut", 5, 36), p)
    names, findings = run_verify(suites=["submodularity", "non-negativity"],
                                 instance_path=str(p))
    assert findings == []


def test_instance_beyond_the_exhaustive_limit_is_a_skip(tmp_path):
    p = tmp_path / "cut13.json"
    dump_instance(generate_random_instance("cut", 13, 0), p)
    names, findings = run_verify(suites=list(INSTANCE_SUITES), instance_path=str(p))
    assert [(f.suite, f.instance, f.skipped) for f in findings] == [
        (nm, str(p), True) for nm in INSTANCE_SUITES]
    assert "n=13 is above the exhaustive limit" in findings[0].detail


def test_finding_formatting():
    f = Finding("tau", "cut-n8-s0", "estimate out of band")
    assert str(f) == "[tau] cut-n8-s0: estimate out of band"
