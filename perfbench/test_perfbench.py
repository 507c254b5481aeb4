"""Tests of the benchmark itself: determinism, the output checks, tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from ffconsensus import cli  # noqa: E402

GRAPH1 = gen.REFERENCE_CONFIG["graphs"][0]
BAD_K = [1, 0, 0, 0, 0]


def _write(tmp_path, name, doc) -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _op(item, cmd, stdout="", exit=0, exc=None, argv=None):
    return {"pass": 0, "item": item["name"], "cmd": cmd, "stdout": stdout,
            "exit": exit, "exc": exc, "argv": argv or []}


def _item(path, plan="synth-simulate", achievable=None):
    return {"pass": 0, "name": "planted", "plan": plan, "config": str(path),
            "expect": {"achievable": achievable}}


def _report(verdict, mode="static", bound=None):
    return json.dumps({
        "verdict": verdict, "mode": mode, "reason": "", "checks": {},
        "bounds": {"static": bound if mode == "static" else None,
                   "switching": bound if mode == "switching" else None},
        "witness": {}, "diagnostics": {},
    })


# -- determinism ----------------------------------------------------------


@pytest.mark.parametrize("workload", gen.PASS_BUILDERS)
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    build = gen.PASS_BUILDERS[workload]
    first = json.dumps(build(5, 0))
    assert json.dumps(build(5, 0)) == first
    assert json.dumps(build(6, 0)) != first
    # no config repeats within a run
    configs = [json.dumps(i["config"]) for k in range(3) for i in build(5, k)]
    assert len(set(configs)) == len(configs)


def test_reference_config_matches_shipped_example():
    assert json.loads((ROOT / "configs" / "leader_f3.json").read_text()) == gen.REFERENCE_CONFIG


def test_generated_cycles_matrices_have_the_stratum_size():
    for item, (_, p, n, _, _) in zip(gen.cycles_pass(1, 0), gen.CYCLES_STRATA):
        a = item["config"]["A"]
        assert len(a) == n and all(len(row) == n and all(0 <= v < p for v in row) for row in a)


def test_sweep_constructions_hold():
    """Achievable sweep configs have uniform nonzero degrees on every graph,
    a supplied K makes every closed loop nilpotent, and an explicit
    sequence covers the horizon."""
    kinds = set()
    for item in gen.sweep_pass(2, 0):
        cfg, kind = item["config"], item["expect"]["kind"]
        kinds.add(kind)
        degs = [d for g in cfg["graphs"] for d in checks.in_degrees(cfg, g)]
        if kind in ("achievable", "supplied_k", "explicit"):
            assert len(set(degs)) == 1 and 0 not in degs
        if kind == "supplied_k":
            assert checks.closed_loops_nilpotent(cfg, cfg["K"], degs)
        if kind == "explicit":
            assert len(cfg["switching"]["sequence"]) >= cfg["steps"]
    assert {"supplied_k", "explicit"} <= kinds


def test_measured_workloads_leave_known_defects_out():
    """Random gains on achievable configs, short explicit sequences and
    --poly on non-cyclic matrices run only in the known-defects workload."""
    for workload in gen.WORKLOADS:
        for item in gen.PASS_BUILDERS[workload](3, 0):
            assert item["expect"].get("kind") not in ("random_k", "explicit_short")
            if item["plan"] in ("cycles", "poly"):
                assert item["expect"]["kind"] == "cyclic"
    plans = {(i["expect"]["kind"], i["plan"]) for i in gen.known_defects_pass(3, 0)}
    assert {("random_k", "synth-simulate"), ("explicit_short", "synth-simulate"),
            ("repeated", "cycles"), ("identity", "cycles"), ("zero", "cycles")} <= plans


# -- the reference config through the CLI --------------------------------


def test_reference_config_analyze_and_cycles(tmp_path):
    path = _write(tmp_path, "ref", gen.REFERENCE_CONFIG)
    assert worker._call(cli.main, ["analyze", str(path)])["exit"] == 0
    for extra in ([], ["--poly"]):
        rec = worker._call(cli.main, ["cycles", str(path)] + extra)
        assert rec["exit"] == 0
        assert checks.parse_cycles(rec["stdout"])["cycles"] == {1: 1, 20: 4}


def test_checks_accept_correct_reference_outputs(tmp_path):
    path = _write(tmp_path, "ref", gen.REFERENCE_CONFIG)
    item = _item(path, achievable=True)
    ops = [
        {**_op(item, cmd), **rec}
        for cmd, rec in worker.run_item({**item, "config": gen.REFERENCE_CONFIG}, path,
                                        lambda argv: worker._call(cli.main, argv))
    ]
    assert [op["cmd"] for op in ops] == ["analyze", "synthesize", "simulate"]
    checker = checks.check_all([item], ops)
    assert not checker.failed, checker.details


# -- every check flags a planted wrong output ------------------------------


def test_uncaught_exception_is_a_failure(tmp_path):
    path = _write(tmp_path, "ref", gen.REFERENCE_CONFIG)
    item = _item(path)
    checker = checks.check_all([item], [_op(item, "simulate", exc="ValueError: boom", exit=None)])
    assert checker.refuted["uncaught_exception"] == 1 and len(checker.failed) == 1


def test_unreadable_output_is_a_failure(tmp_path):
    path = _write(tmp_path, "ref", gen.REFERENCE_CONFIG)
    item = _item(path)
    checker = checks.check_all([item], [_op(item, "analyze", "Traceback (most recent call last)")])
    assert checker.refuted["malformed_output"] == 1 and checker.failed == {0}


def test_clean_exit_one_is_a_refusal_not_a_failure(tmp_path):
    path = _write(tmp_path, "ref", gen.REFERENCE_CONFIG)
    item = _item(path)
    checker = checks.check_all([item], [_op(item, "simulate", exit=1)])
    assert checker.refusals == 1 and not checker.failed


def test_verdict_vs_construction_flags_both_directions(tmp_path):
    path = _write(tmp_path, "ref", gen.REFERENCE_CONFIG)
    for achievable, verdict in ((True, "impossible"), (False, "guaranteed")):
        item = _item(path, achievable=achievable)
        checker = checks.check_all([item], [_op(item, "analyze", _report(verdict, "switching"))])
        assert checker.refuted["verdict_vs_construction"] == 1


def test_gain_certificate_flags_bad_synthesized_gain(tmp_path):
    cfg = {**gen.REFERENCE_CONFIG, "graphs": [GRAPH1]}
    path = _write(tmp_path, "g1", cfg)
    out = _write(tmp_path, "g1.syn", {**cfg, "K": BAD_K})
    item = _item(path)
    checker = checks.check_all([item], [_op(item, "synthesize", argv=["synthesize", str(path), "--out", str(out)])])
    assert checker.refuted["gain_certificate"] == 1
    good = _write(tmp_path, "g1.good", {**cfg, "K": [2, 1, 2, 0, 1]})
    checker = checks.check_all([item], [_op(item, "synthesize", argv=["synthesize", str(path), "--out", str(good)])])
    assert not checker.failed


def test_sim_at_bound_flags_reference_graph1_with_bad_gain(tmp_path):
    """The reference system on graph 1 with K = [1,0,0,0,0]: a guaranteed
    verdict with bound 20 is refuted by a trial still nonzero at step 20."""
    cfg = {**gen.REFERENCE_CONFIG, "K": BAD_K, "graphs": [GRAPH1], "switching": None}
    path = _write(tmp_path, "g1k", cfg)
    item = _item(path)
    sim = worker._call(cli.main, ["simulate", str(path), "--trials", "2", "--horizon", "25"])
    assert sim["exc"] is None
    ops = [_op(item, "analyze", _report("guaranteed", bound=20)), _op(item, "simulate", sim["stdout"])]
    checker = checks.check_all([item], ops)
    assert checker.refuted["sim_at_bound"] == 1
    assert checker.failed == {0}  # the refuted output is the analyze verdict


def _small_network(K=None):
    # p=2, n=2, N=2 chain with degree 1: p^(nN) = 16 states
    cfg = {"p": 2, "n": 2, "N": 2, "A": [[0, 1], [1, 1]], "b": [0, 1],
           "graphs": [[[0, 1, 1], [1, 2, 1]]]}
    if K is not None:
        cfg["K"] = K
    return cfg


def test_oracle_flags_wrong_guaranteed_and_wrong_impossible(tmp_path):
    # K = [1, 1] closes A - bK = [[0,1],[0,0]] (nilpotent); K = [0, 0] does not
    path = _write(tmp_path, "bad", _small_network(K=[0, 0]))
    item = _item(path)
    checker = checks.check_all([item], [_op(item, "analyze", _report("guaranteed", bound=4))])
    assert checker.refuted["oracle"] == 1

    path = _write(tmp_path, "good", _small_network(K=[1, 1]))
    item = _item(path)
    checker = checks.check_all([item], [_op(item, "analyze", _report("guaranteed", bound=4))])
    assert not checker.failed
    checker = checks.check_all([item], [_op(item, "analyze", _report("impossible"))])
    assert checker.refuted["oracle"] == 1

    # impossible without a gain is refuted by any gain that works
    path = _write(tmp_path, "nok", _small_network())
    item = _item(path)
    checker = checks.check_all([item], [_op(item, "analyze", _report("impossible"))])
    assert checker.refuted["oracle"] == 1


CYCLES_OUT = "method: {m}\nstates: 243\ntree depth: {d}\ntransient states: {t}\ncycles (length x count): {c}"


def test_poly_must_match_enumeration_and_states_must_add_up(tmp_path):
    path = _write(tmp_path, "ref", gen.REFERENCE_CONFIG)
    item = _item(path, plan="cycles")
    enum = _op(item, "cycles_enum", CYCLES_OUT.format(m="enumeration", d=1, t=162, c="1x1, 20x4"))
    poly = _op(item, "cycles_poly", CYCLES_OUT.format(m="polynomial", d=1, t=162, c="1x1, 20x4"))
    assert not checks.check_all([item], [enum, poly]).failed

    wrong = _op(item, "cycles_poly", CYCLES_OUT.format(m="polynomial", d=2, t=162, c="1x1, 20x4"))
    checker = checks.check_all([item], [enum, wrong])
    assert checker.refuted["poly_matches_enum"] == 1 and checker.failed == {1}

    short = _op(item, "cycles_enum", CYCLES_OUT.format(m="enumeration", d=1, t=162, c="1x1, 20x3"))
    checker = checks.check_all([item], [short])
    assert checker.refuted["state_count"] == 1


# -- tracing and the metric list --------------------------------------------


def test_tracer_wraps_callers_names_and_restores(tmp_path):
    from ffconsensus import consensus, matrix

    orig_kron, orig_matmul = consensus.kron, matrix.MatrixFF.__matmul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert consensus.kron is matrix.kron is not orig_kron
        path = _write(tmp_path, "g1k", {**gen.REFERENCE_CONFIG, "K": [2, 1, 2, 0, 1], "graphs": [GRAPH1]})
        assert worker._call(cli.main, ["analyze", str(path)])["exit"] == 0
        tracer.end_command()
    finally:
        tracer.uninstall()
    assert consensus.kron is orig_kron and matrix.MatrixFF.__matmul__ is orig_matmul
    assert not tracer.missing
    m = tracing.layer_metrics(tracer.stats, 1)
    assert m["cli.main.self_ms"] > 0 and m["consensus.analyze.calls"] == 1
    assert m["matrix.kron.calls"] == 2 and m["matrix.kron.max_dim"] == 20
    assert m["matrix.matmul.madds"] > 0 and all(v >= 0 for v in m.values())


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = set(tracing.layer_metrics({}, 1)) | {"cli.output_bytes", "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
