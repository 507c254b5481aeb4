"""One report shape for one graph or many: ``check_static`` and
``check_switching`` build the same checks and witness from one builder,
every report has the same keys apart from those of a supplied gain, and
every field that ``synthesize`` and the benchmark's checks read is there."""

import json
import random

import pytest

from ffconsensus import LeaderFollowerNetwork, LinearSystemFF, analyze, check_static, check_switching
from ffconsensus.cli import main

from conftest import CONFIGS, F2, F3, F5, random_dag_graph, random_matrix, random_nilpotent, random_scc_graph

GAIN_ONLY = {"supplied_gain_mu", "supplied_gain_nilpotent"}


def test_check_static_refuses_several_graphs(ref_network):
    with pytest.raises(ValueError, match="static analysis needs one graph, not 2; use check_switching"):
        check_static(ref_network)


def test_static_and_switching_agree_on_one_graph():
    """On one graph the two entry points differ only in ``mode`` and in
    which bound they fill: verdict, reason, checks and witness are equal."""
    rng = random.Random(3101)
    seen = set()
    for _ in range(300):
        field = (F2, F3, F5)[rng.randrange(3)]
        n, N = rng.randint(1, 3), rng.randint(1, 5)
        a = random_nilpotent(rng, field, n) if rng.random() < 0.2 else random_matrix(rng, field, n, n)
        graph = (random_dag_graph, random_scc_graph)[rng.randrange(2)](rng, field, N)
        gain = random_matrix(rng, field, 1, n) if rng.random() < 0.5 else None
        net = LeaderFollowerNetwork(sys=LinearSystemFF(a, random_matrix(rng, field, n, 1)), graphs=(graph,), gain=gain)
        static, switching = check_static(net), check_switching(net)
        assert (static.mode, switching.mode) == ("static", "switching")
        for name in ("verdict", "reason", "checks", "witness"):
            assert getattr(static, name) == getattr(switching, name), name
        assert static.bounds == {"static": switching.bounds["switching"], "switching": None}
        assert analyze(net).to_dict() == static.to_dict()
        seen.add((static.verdict, gain is None))
    # one graph under a supplied gain is never inconclusive
    assert seen == {(v, g) for v in ("guaranteed", "impossible", "inconclusive") for g in (False, True)} - {
        ("inconclusive", False)}, seen


def _reports(tmp_path, capsys):
    reports = {}
    for name, doc in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        main(["analyze", str(path)])
        reports[name] = json.loads(capsys.readouterr().out)
    return reports


def _keys(obj):
    return [k for k in obj if k not in GAIN_ONLY]


def test_every_report_has_one_key_set(tmp_path, capsys):
    """CI's configs and the first config of each sweep kind, static and
    switching, with and without gains: the same keys, in the same order,
    at the top, in ``checks``, in each ``checks.graphs`` entry and in
    ``bounds``, apart from the gain-only keys, which a report has exactly
    when its config has a gain."""
    reports = _reports(tmp_path, capsys)
    first = next(iter(reports.values()))
    kinds = set()
    for name, report in reports.items():
        assert list(report) == list(first), name
        checks = report["checks"]
        assert _keys(checks) == _keys(first["checks"]) == ["a_nilpotent", "stabilizable", "union_shape", "graphs"]
        assert list(report["bounds"]) == ["static", "switching"]
        gain = "K" in CONFIGS[name]
        assert ("supplied_gain_mu" in checks) == gain
        assert len(checks["graphs"]) == len(CONFIGS[name]["graphs"]) or report["mode"] == "static"
        for entry in checks["graphs"]:
            assert _keys(entry) == ["shape", "eigenvalue", "failing_scc"]
            assert ("supplied_gain_nilpotent" in entry) == gain
        assert set(report["witness"]) <= {"supplied_gain", "synthesized_gain", "gain_certificate_degree"}
        assert ("supplied_gain" in report["witness"]) == gain
        kinds.add((report["mode"], gain, report["verdict"]))
    assert {(mode, gain) for mode, gain, _ in kinds} == {(m, g) for m in ("static", "switching") for g in (False, True)}
    assert {verdict for *_, verdict in kinds} >= {"guaranteed", "impossible"}, kinds


def test_reports_carry_what_synthesize_and_the_benchmark_read(tmp_path, capsys):
    """``synthesize`` reads the verdict, reason and a guaranteed report's
    witness gain and degree; the benchmark's checks read the mode, both
    bounds, the diagnostics and the witness gain."""
    for name, report in _reports(tmp_path, capsys).items():
        assert report["verdict"] in ("guaranteed", "impossible", "inconclusive") and report["reason"], name
        assert report["mode"] in ("static", "switching") and isinstance(report["diagnostics"], dict)
        static, switching = report["bounds"]["static"], report["bounds"]["switching"]
        if report["verdict"] == "guaranteed":
            assert isinstance(report["bounds"][report["mode"]], int)
            if "K" not in CONFIGS[name]:
                assert {"synthesized_gain", "gain_certificate_degree"} <= set(report["witness"]), name
        else:
            assert static is switching is None
        if "synthesized_gain" in report["witness"]:
            assert len(report["witness"]["synthesized_gain"]) == CONFIGS[name]["n"]
