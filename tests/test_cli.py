import copy
import json
import os
import random
import re
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from ffconsensus import (
    LeaderFollowerNetwork,
    LinearSystemFF,
    MatrixFF,
    NetworkState,
    PolyFF,
    PrimeField,
    SwitchingSignal,
    WeightedDigraphFF,
    consensus,
    is_irreducible,
    is_prime,
    poly,
    random_state,
    simulate,
)
from ffconsensus.poly import _group_order_primes, pow_x_mod
from ffconsensus.cli import ConfigError, ScenarioConfig, _dumps, _traj_csv, load_config, main

from conftest import (
    M7,
    M7_MINUS_ONE,
    P7_PRIMES,
    REF_A_ROWS,
    REF_B,
    REF_GAIN,
    REF_GRAPH1_EDGES,
    REF_GRAPH2_EDGES,
    naive_cycle_structure,
    naive_x_power_mod,
    per_entry_config,
    pocklington_holds,
    successors_by_matmul,
)


def ref_config_dict(**overrides):
    doc = {
        "p": 3,
        "n": 5,
        "N": 4,
        "A": [row[:] for row in REF_A_ROWS],
        "b": REF_B[:],
        "graphs": [
            [[s, t, w] for (s, t, w) in REF_GRAPH1_EDGES],
            [[s, t, w] for (s, t, w) in REF_GRAPH2_EDGES],
        ],
        "switching": {"kind": "random", "seed": 7},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def ref_config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ref_config_dict()))
    return str(path)


# ---------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------

def test_missing_field_named():
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict({"p": 3, "n": 1, "N": 1, "A": [[1]], "b": [1]})
    assert exc.value.field_path == "graphs"


def test_bad_matrix_shape_named():
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(ref_config_dict(A=[[1, 2], [3, 4]]))
    assert exc.value.field_path == "A"


def test_bad_switching_kind():
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(ref_config_dict(switching={"kind": "sometimes"}))
    assert exc.value.field_path == "switching.kind"


def test_init_requires_states_or_seed():
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(ref_config_dict(init={}))
    assert exc.value.field_path == "init"


def test_entries_reduced_with_warning(capfd):
    doc = ref_config_dict()
    doc["A"][0][0] = 4
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.doc["A"][0][0] == 1
    assert "reduced 4 to 1" in capfd.readouterr().err


def test_config_roundtrip_identity():
    doc = ref_config_dict(
        K=[2, 1, 2, 0, 1],
        steps=30,
        init={"seed": 5},
    )
    cfg = ScenarioConfig.from_dict(doc)
    again = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.doc)))
    assert again.doc == cfg.doc
    assert again.config_hash() == cfg.config_hash()


STATES = {"leader": [4, 0, -1, 2, 1], "followers": [[1, 2, 3, 4, 5]] * 4}


@pytest.mark.parametrize("optional", [(), ("K",), ("switching", "init"), ("K", "switching", "steps", "init")],
                         ids=lambda keys: "+".join(keys) or "required-only")
def test_doc_keys_follow_the_schema_order(optional):
    given = {"K": REF_GAIN, "switching": {"kind": "periodic", "sequence": [1, 0]}, "steps": 9,
             "init": {"states": STATES}}
    raw = ref_config_dict(**{key: given[key] if key in optional else None for key in given}, extra=1)
    cfg = ScenarioConfig.from_dict(dict(reversed(raw.items())))  # keys in no schema order
    schema = ("p", "n", "N", "A", "b", "K", "graphs", "switching", "steps", "init")
    assert list(cfg.doc) == [key for key in schema if key in ("p", "n", "N", "A", "b", "graphs") + optional]


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/scenario.json")


def _write(tmp_path, doc):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _write_bytes(tmp_path, data):
    path = tmp_path / "case.json"
    path.write_bytes(data)
    return str(path)


def _with_edge_entry(ei, position, value):
    doc = ref_config_dict()
    doc["graphs"][0][ei][position] = value
    return doc


# each bad input, the command it is given to, and the field path that the
# one `config error:` line names; rules enforced by the library (primality,
# edges, switching sequences) keep the paths the config loader gave them
CONFIG_ERRORS = [
    pytest.param(lambda t: ["analyze", _write(t, ref_config_dict(p=9))], "p", id="composite_p"),
    pytest.param(lambda t: ["analyze", _write(t, ref_config_dict(p=1))], "p", id="p_one"),
    pytest.param(lambda t: ["analyze", _write(t, _with_edge_entry(1, 0, 7))], "graphs[0][1]",
                 id="source_out_of_range"),
    pytest.param(lambda t: ["analyze", _write(t, _with_edge_entry(2, 1, 0))], "graphs[0][2]",
                 id="edge_into_leader"),
    pytest.param(lambda t: ["analyze", _write(t, ref_config_dict(graphs=[
        [list(e) for e in REF_GRAPH1_EDGES + REF_GRAPH1_EDGES[:1]],
        [list(e) for e in REF_GRAPH2_EDGES],
    ]))], "graphs[0][5]", id="duplicate_edge"),
    pytest.param(lambda t: ["analyze", _write(t, _with_edge_entry(0, 2, 3))], "graphs[0][0]",
                 id="zero_weight"),  # 3 = 0 mod 3
    pytest.param(lambda t: ["analyze", _write(t, ref_config_dict(
        switching={"kind": "explicit", "sequence": [0, 2]}))], "switching.sequence",
        id="switching_index_out_of_range"),
    pytest.param(lambda t: ["simulate", _write(t, ref_config_dict(
        K=REF_GAIN, steps=25, switching={"kind": "explicit", "sequence": [0, 1, 0]}))],
        "switching.sequence", id="explicit_sequence_shorter_than_horizon"),
    pytest.param(lambda t: ["analyze", str(t / "absent.json")], "<file>", id="missing_file"),
    pytest.param(lambda t: ["analyze", str(t)], "<file>", id="directory"),
    pytest.param(lambda t: ["analyze", _write_bytes(t, b'{"p": 3, "\xff\xfe": 1}')], "<file>",
                 id="non_utf8"),
    pytest.param(lambda t: ["analyze", _write_bytes(t, b"{not json")], "<file>", id="invalid_json"),
    pytest.param(lambda t: ["analyze", _write(t, ref_config_dict()), "--out", str(t / "absent" / "r.json")],
                 "--out", id="unwritable_out"),
]


@pytest.mark.parametrize("argv, field_path", CONFIG_ERRORS)
def test_bad_input_exits_one_naming_the_field(argv, field_path, tmp_path, capsys):
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if not line.startswith("warning: ")]
    prefix = "error: --out: " if field_path == "--out" else f"config error: {field_path}: "
    assert len(errors) == 1 and errors[0].startswith(prefix), captured.err


# a field path as ``ScenarioConfig.from_dict`` and ``load_config`` name it
FIELD_PATH = re.compile(r"config error: (<root>|<file>|[A-Za-z]+(\.[a-z]+|\[\d+\])*): ")


def _fuzz_slots(node, out):
    """Every (container, key) pair below ``node``."""
    for key in list(node.keys() if isinstance(node, dict) else range(len(node))):
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            _fuzz_slots(node[key], out)
    return out


def _mutate(doc, rng):
    """One type swap, out-of-range integer, dropped key or wrong length."""
    slots = _fuzz_slots(doc, [])
    kind = rng.choice(("type", "int", "drop", "length"))
    if kind == "drop":
        node, key = rng.choice([s for s in slots if isinstance(s[0], dict)])
        del node[key]
        return
    if kind == "length":
        lists = [node[key] for node, key in slots if isinstance(node[key], list) and node[key]]
        target = rng.choice(lists)
        rng.choice((target.pop, lambda: target.append(target[-1]), target.clear))()
        return
    if kind == "int":
        ints = [(n, k) for n, k in slots if type(n[k]) is int]
        node, key = rng.choice(ints)
        v = node[key]
        # small magnitudes only: a large N, n or horizon is valid but slow
        node[key] = rng.choice((-1, 0, -v - 1, v + rng.randint(1, 5)))
        return
    node, key = rng.choice(slots)
    node[key] = rng.choice(("5", 1.5, None, True, [], {}, [[1]]))


def test_mutated_configs_never_escape(tmp_path, capsys):
    base = json.loads((Path(__file__).resolve().parents[1] / "configs" / "leader_f3.json").read_text())
    bases = [
        base,
        {**base, "K": REF_GAIN},
        {**base, "K": REF_GAIN, "switching": {"kind": "explicit", "sequence": [0, 1] * 15}},
        {**base, "K": REF_GAIN, "switching": {"kind": "periodic", "sequence": [1]}},
    ]
    rng = random.Random(20261018)
    path = tmp_path / "case.json"
    exits = {}
    for _ in range(1000):
        doc = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        for command in ("analyze", "synthesize", "simulate", "cycles"):
            try:
                code = main([command, str(path)])
            except Exception as exc:  # reported with the config that raised it
                pytest.fail(f"{command} raised {exc!r} on {json.dumps(doc)}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (command, doc)
            assert "Traceback" not in err, (command, doc)
            for line in err.splitlines():
                if line.startswith("config error:"):
                    assert FIELD_PATH.match(line), line
            exits[code] = exits.get(code, 0) + 1
    # the mutations reach both the validator and the commands
    assert exits.get(0, 0) > 200 and exits.get(1, 0) > 200, exits


def _load_outcome(load, doc, capsys):
    """What loading ``doc`` gives: the canonical dict or the error's type,
    field path and message, with the warnings written on the way."""
    try:
        result = ("ok", load(copy.deepcopy(doc)))
    except Exception as exc:
        result = (type(exc).__name__, getattr(exc, "field_path", None), str(exc))
    return result, capsys.readouterr().err


def assert_loads_like_per_entry_reference(doc, capsys):
    got = _load_outcome(lambda d: ScenarioConfig.from_dict(d).doc, doc, capsys)
    assert got == _load_outcome(per_entry_config, doc, capsys), doc
    return got[0][0]


def test_whole_list_loader_matches_per_entry_reference_on_mutated_configs(capsys):
    base = json.loads((Path(__file__).resolve().parents[1] / "configs" / "leader_f3.json").read_text())
    states = {"leader": [4, 0, -1, 2, 1], "followers": [[1, 2, 3, 4, 5]] * 4}
    bases = [
        base,
        {**base, "K": REF_GAIN},
        {**base, "K": REF_GAIN, "switching": {"kind": "explicit", "sequence": [0, 1] * 15}},
        {**base, "K": [5, -1, 2, 0, 1], "init": {"states": states}},
    ]
    rng = random.Random(20261018)
    outcomes = {}
    for _ in range(1000):
        doc = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(doc, rng)
        kind = assert_loads_like_per_entry_reference(doc, capsys)
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes.get("ok", 0) > 100 and outcomes.get("ConfigError", 0) > 500, outcomes


# an edge entry the loader must reject or warn about, at N = 4 and p = 3
BAD_EDGES = [
    [0, 1, True], [0, 1, False], [0, 1, 1.0], [0, 1, 2.5], [0, 1, "1"], [True, 1, 1], [0, 1.0, 1],
    [-1, 1, 1], [0, 5, 1], [2, 0, 1], [0, 1, 3], [0, 1, -3], [0, 1, 4], [0, 1, -1],
    [1, 2], [1, 2, 1, 1], [], "edge", 5, None, {"source": 0},
]


@pytest.mark.parametrize("bad", BAD_EDGES, ids=json.dumps)
def test_whole_list_loader_matches_per_entry_reference_on_bad_edges(bad, capsys):
    kinds = set()
    for gi in (0, 1):
        for position in (0, 2, 4, 5):  # first, middle, last, appended
            for warned in (False, True):  # an earlier weight reduced with a warning
                doc = ref_config_dict()
                edges = doc["graphs"][gi]
                if warned:
                    edges[0][2] += 3
                if position == len(edges):
                    edges.append(copy.deepcopy(bad))
                else:
                    edges[position] = copy.deepcopy(bad)
                kinds.add(assert_loads_like_per_entry_reference(doc, capsys))
    # a duplicate of an existing edge, at each position
    for position in range(5):
        doc = ref_config_dict()
        doc["graphs"][0].insert(position, list(REF_GRAPH1_EDGES[position - 1]))
        kinds.add(assert_loads_like_per_entry_reference(doc, capsys))
    assert "ConfigError" in kinds, kinds


# ---------------------------------------------------------
# analyze
# ---------------------------------------------------------

def test_analyze_guaranteed_exit_zero(ref_config_path, capsys):
    rc = main(["analyze", ref_config_path])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"] == "guaranteed"
    assert out["checks"]["union_shape"] == "dag"
    assert out["bounds"]["switching"] is not None


def test_analyze_impossible_exit_two(tmp_path, capsys):
    doc = ref_config_dict()
    # bump one weight so follower 2's in-degree becomes 2 in graph 0
    doc["graphs"] = [[[0, 1, 1], [0, 2, 2]]]
    doc["N"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert out["verdict"] == "impossible"


def test_analyze_one_degree_changed(tmp_path, capsys):
    # bumping a single weight breaks the uniform degree of an acyclic
    # graph: it fails on its own, so the switching view is impossible too
    doc = ref_config_dict()
    doc["graphs"][1][1][2] = 2  # leader->2 weight 1 -> 2 in the second graph
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and out["verdict"] == "impossible"
    assert out["reason"].startswith("graph 1 fails on its own: ")

    static_doc = ref_config_dict()
    static_doc["graphs"] = [doc["graphs"][1]]
    del static_doc["switching"]
    static_path = tmp_path / "bumped_static.json"
    static_path.write_text(json.dumps(static_doc))
    rc = main(["analyze", str(static_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and out["verdict"] == "impossible"


def test_analyze_inconclusive_exit_three(tmp_path, capsys):
    # a 2-cycle whose H = Dbar - Abar = [[0, 1], [2, 1]] has the one
    # eigenvalue d = 2: no gain is synthesized over a cyclic graph yet;
    # the leaderless 2-cycle H = [[1, 2], [2, 1]] has eigenvalues 0 and 2,
    # so no gain works (exit 2)
    doc = ref_config_dict()
    doc["N"] = 2
    path = tmp_path / "cyc.json"
    for graph, rc, verdict, d in (([[0, 1, 1], [1, 2, 1], [2, 1, 2]], 3, "inconclusive", 2),
                                  ([[1, 2, 1], [2, 1, 1]], 2, "impossible", None)):
        doc["graphs"] = [graph]
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == rc
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["checks"]["graphs"][0]["eigenvalue"]) == (verdict, d)
        assert ("the one eigenvalue d = 2" in report["reason"]) == (rc == 3)


def test_analyze_supplied_gain_that_fails_exits_two(tmp_path, capsys):
    # graph 0 of the reference config admits a gain, but not this one:
    # its error matrix is not nilpotent, so simulate never agrees
    doc = ref_config_dict(graphs=[ref_config_dict()["graphs"][0]], switching=None, K=[1, 0, 0, 0, 0])
    path = tmp_path / "bad_k.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and out["verdict"] == "impossible"
    assert out["bounds"] == {"static": None, "switching": None}
    assert out["checks"]["graphs"][0]["supplied_gain_nilpotent"] is False
    assert "supplied gain" in out["reason"] and "witness.synthesized_gain" in out["reason"]
    assert "synthesized_gain" in out["witness"]


def test_analyze_malformed_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_analyze_out_file(ref_config_path, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", ref_config_path, "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["verdict"] == "guaranteed"


def _constant_signal_configs():
    """The reference dynamics and gain under a signal that only ever selects
    graph 1: once with graph 0 replaced by a graph with a 1 <-> 2 cycle
    (periodic), once over the reference graphs (explicit, 30 steps)."""
    cyclic = [[0, 1, 1], [1, 2, 1], [2, 1, 1], [0, 3, 1], [3, 4, 1]]
    return {
        "cyclic_graph_0": ref_config_dict(K=REF_GAIN, graphs=[cyclic, ref_config_dict()["graphs"][1]],
                                          switching={"kind": "periodic", "sequence": [1]}),
        "reference_graphs": ref_config_dict(K=REF_GAIN, switching={"kind": "explicit", "sequence": [1] * 30}),
    }


@pytest.mark.parametrize("case", sorted(_constant_signal_configs()))
def test_constant_signal_analysed_alike_by_every_command(case, tmp_path, capsys):
    doc = _constant_signal_configs()[case]
    with_gain = _write(tmp_path, doc)
    assert main(["analyze", with_gain]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "static" and report["diagnostics"]["constant_signal_graph"] == 1

    # synthesize: the constant graph's witness
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({k: v for k, v in doc.items() if k != "K"}))
    assert main(["synthesize", str(bare)]) == 0
    synthesized = json.loads(capsys.readouterr().out)
    assert sorted(synthesized["certificate"]["closed_loop_nilpotent_degrees"]) == [
        f"graph1.follower{i}" for i in range(1, 5)]
    net = ScenarioConfig.from_dict(synthesized).network()
    assert consensus.error_dynamics_matrix(net, 1).is_nilpotent()

    # simulate: analyze's static bound N*f, f = 4 the degree of A - mu* bK
    assert main(["simulate", with_gain, "--format", "json"]) == 0
    sim = json.loads(capsys.readouterr().out)
    assert sim["bound"] == report["bounds"]["static"] == 16
    assert sim["horizon"] == sim["bound"] + 5
    assert all(t["metadata"]["consensus_detection"] == "bounded-exact" for t in sim["trials"])


def test_analyze_constant_signal_treated_as_static(tmp_path, capsys):
    doc = ref_config_dict(switching={"kind": "explicit", "sequence": [1, 1, 1]})
    path = tmp_path / "const.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["mode"] == "static"
    assert out["diagnostics"]["constant_signal_graph"] == 1


# analyze reports of the reference config (with and without a gain)
# and of chains with a self-loop or a two-cycle, recorded before the
# error matrix was tested one strongly connected block at a time; the
# switching_* and static_* cases (a cyclic union with per-graph static
# verdicts, nilpotent A under switching, unequal and zero in-degrees)
# were recorded before one decision replaced the separate static,
# switching and synthesis statements of the consensus rule; the
# witness of switching_nilpotent_a gained gain_certificate_degree when the
# report came to record the zero gain's closed-loop degree (A's).  When one
# rule and one bound came to serve any number of graphs,
# switching_cyclic_union_per_graph_static became impossible (graph 2 fails
# on its own), the static bound of leader_f3_with_gain_constant_signal went
# 20 -> 16 (N*f) and the switching bound of switching_nilpotent_a 6 -> 2
# (deg A); switching_shared_degree_cyclic_union (two acyclic graphs sharing
# d = 1 over a cyclic union) keeps per_graph_static covered.  When every
# graph came to be decided by the one eigenvalue d of its SCC blocks, the
# impossible reasons of the static_* and chain_* cases and of
# switching_cyclic_union_per_graph_static (whose cyclic graph 1 now fails
# first) came to name the failing SCC.  When a graph whose SCCs are single
# followers with self-loops came to be decided like an acyclic one,
# chain_self_loop_guaranteed gained the witness gain (its K) and the reason
# of that rule in place of "decided directly".  When one report shape came
# to serve one graph or many, every case's checks were re-recorded as
# union_shape and one entry per graph (shape, eigenvalue, failing_scc and,
# with a gain, supplied_gain_nilpotent, beside supplied_gain_mu), and the
# in-degrees, leader reachability and topological order left the witness;
# every verdict, reason, bound, gain and diagnostic stayed as it was
GOLDEN = json.loads((Path(__file__).parent / "data" / "analyze_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_analyze_report_fields_unchanged(case, tmp_path, capsys):
    expected = GOLDEN[case]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(expected["config"]))
    assert main(["analyze", str(path)]) == expected["exit"]
    report = json.loads(capsys.readouterr().out)
    blocks = report["diagnostics"].pop("error_matrix_blocks", None)
    assert json.dumps(report) == json.dumps(expected["report"])
    assert (blocks is None) == (expected["config"].get("K") is None)


@pytest.mark.parametrize("case, expected", [
    ("chain_two_cycle", {"count": 3, "max_dim": 4}),  # blocks {1}, {2, 3}, {4}; n = 2
    ("chain_self_loop_guaranteed", {"count": 4, "max_dim": 2}),
    ("leader_f3_with_gain", {"count": 8, "max_dim": 5}),  # two acyclic graphs, N = 4
])
def test_analyze_reports_error_matrix_blocks(case, expected, tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(GOLDEN[case]["config"]))
    main(["analyze", str(path)])
    assert json.loads(capsys.readouterr().out)["diagnostics"]["error_matrix_blocks"] == expected


# ---------------------------------------------------------
# synthesize
# ---------------------------------------------------------

def test_synthesize_adds_gain_and_certificate(ref_config_path, capsys):
    rc = main(["synthesize", ref_config_path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["K"]) == 5
    cert = doc["certificate"]
    assert cert["degree_bound"] == 5
    assert all(1 <= v <= 5 for v in cert["closed_loop_nilpotent_degrees"].values())
    # the augmented config is immediately usable
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.doc["K"] == doc["K"]


def test_synthesize_refuses_existing_gain(tmp_path, capsys):
    path = tmp_path / "with_k.json"
    path.write_text(json.dumps(ref_config_dict(K=[2, 1, 2, 0, 1])))
    assert main(["synthesize", str(path)]) == 1
    assert "already contains a gain" in capsys.readouterr().err


def test_synthesize_refuses_unstabilizable(tmp_path, capsys):
    doc = {
        "p": 3, "n": 2, "N": 1,
        "A": [[1, 0], [0, 1]], "b": [0, 0],
        "graphs": [[[0, 1, 1]]],
    }
    path = tmp_path / "unstab.json"
    path.write_text(json.dumps(doc))
    assert main(["synthesize", str(path)]) == 2
    assert "not stabilizable" in capsys.readouterr().err


def test_synthesize_nilpotent_a_zero_gain(tmp_path, capsys, monkeypatch):
    doc = {
        "p": 3, "n": 2, "N": 1,
        "A": [[0, 1], [0, 0]], "b": [1, 0],
        "graphs": [[[0, 1, 1]]],
    }
    path = tmp_path / "nil.json"
    path.write_text(json.dumps(doc))
    # A's degree is computed once, by the analysis, and the certificate reads it
    seen = []
    real = MatrixFF.nilpotent_degree
    monkeypatch.setattr(MatrixFF, "nilpotent_degree", lambda m: seen.append(m.to_rows()) or real(m))
    assert main(["synthesize", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["K"] == [0, 0]
    assert out["certificate"]["closed_loop_nilpotent_degrees"] == {"graph0.follower1": 2}
    assert seen.count(doc["A"]) == 1, seen


# synthesize output (stdout, stderr, exit code, and the --out file) of the
# reference config, its one-graph static form, a nilpotent A under
# switching over cyclic graphs, and an unstabilizable and a cyclic
# refusal, recorded before synthesize took its gain and certificate from
# the analysis report; the cyclic refusal exits 2 (impossible) since its
# three-follower cycle has no single eigenvalue (it exited 3 before)
SYNTH_GOLDEN = json.loads((Path(__file__).parent / "data" / "synthesize_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(SYNTH_GOLDEN))
def test_synthesize_output_unchanged(case, tmp_path, capsys):
    expected = SYNTH_GOLDEN[case]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(expected["config"]))
    assert main(["synthesize", str(path)]) == expected["stdout"]["exit"]
    captured = capsys.readouterr()
    assert captured.out == expected["stdout"]["stdout"]
    assert captured.err == expected["stdout"]["stderr"]

    out = tmp_path / "out.json"
    assert main(["synthesize", str(path), "--out", str(out)]) == expected["out"]["exit"]
    captured = capsys.readouterr()
    assert captured.out == expected["out"]["stdout"]
    assert captured.err == expected["out"]["stderr"]
    assert (out.read_text() if out.exists() else None) == expected["out"]["file"]


# ---------------------------------------------------------
# simulate
# ---------------------------------------------------------

def synthesized_config(tmp_path, ref_config_path):
    out = tmp_path / "with_gain.json"
    assert main(["synthesize", ref_config_path, "--out", str(out)]) == 0
    return str(out)


def test_simulate_requires_gain(ref_config_path, capsys):
    assert main(["simulate", ref_config_path]) == 1
    assert "synthesize" in capsys.readouterr().err


def test_simulate_csv_schema(tmp_path, ref_config_path, capsys):
    cfg = synthesized_config(tmp_path, ref_config_path)
    out = tmp_path / "traj.csv"
    rc = main(["simulate", cfg, "--out", str(out), "--seed", "3"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,agent,error"
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    assert {r[1] for r in rows} == {1, 2, 3, 4}
    summary = capsys.readouterr().out
    assert "trial 0" in summary and "bound=" in summary


def test_simulate_trials_write_separate_files(tmp_path, ref_config_path):
    cfg = synthesized_config(tmp_path, ref_config_path)
    out = tmp_path / "runs.csv"
    rc = main(["simulate", cfg, "--trials", "3", "--out", str(out), "--seed", "1"])
    assert rc == 0
    for t in range(3):
        assert (tmp_path / f"runs_trial{t}.csv").exists()


def test_simulate_json_metadata(tmp_path, ref_config_path):
    cfg = synthesized_config(tmp_path, ref_config_path)
    out = tmp_path / "traj.json"
    rc = main(["simulate", cfg, "--format", "json", "--out", str(out), "--seed", "11"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["bound"] is not None
    trial = doc["trials"][0]
    assert trial["consensus_step"] is not None
    assert trial["consensus_step"] <= doc["bound"]
    assert trial["metadata"]["init_seed"] == 11
    assert len(trial["errors"]) == doc["horizon"] + 1
    assert len(trial["states"]) == doc["horizon"] + 1


def test_simulate_explicit_zero_error_init(tmp_path, ref_config_path):
    cfg = synthesized_config(tmp_path, ref_config_path)
    cfg_doc = json.loads((tmp_path / "with_gain.json").read_text())
    state = [1, 2, 0, 1, 2]
    cfg_doc["init"] = {"states": {"leader": state, "followers": [state] * 4}}
    path = tmp_path / "zeroerr.json"
    path.write_text(json.dumps(cfg_doc))
    out = tmp_path / "zeroerr.json.out"
    assert main(["simulate", str(path), "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["trials"][0]["consensus_step"] == 0


def test_simulate_explicit_switching_shorter_than_horizon(tmp_path, ref_config_path, capsys):
    synthesized_config(tmp_path, ref_config_path)
    doc = json.loads((tmp_path / "with_gain.json").read_text())
    doc["switching"] = {"kind": "explicit", "sequence": [0, 1, 0]}
    doc["steps"] = 25
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "switching.sequence" in err and "3 entries" in err and "25" in err
    # the same sequence covers a horizon of 3
    assert main(["simulate", str(path), "--horizon", "3"]) == 0


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_simulate_rejects_nonpositive_trials(tmp_path, ref_config_path, capsys, trials):
    cfg = synthesized_config(tmp_path, ref_config_path)
    capsys.readouterr()
    assert main(["simulate", cfg, "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_simulate_rejects_nonpositive_horizon(tmp_path, ref_config_path, capsys, horizon):
    cfg = synthesized_config(tmp_path, ref_config_path)
    capsys.readouterr()
    assert main(["simulate", cfg, "--horizon", horizon]) == 1
    captured = capsys.readouterr()
    assert "--horizon" in captured.err
    assert captured.out == ""


def test_simulate_analyses_the_network_once(tmp_path, ref_config_path, monkeypatch, capsys):
    # no `steps` and no --horizon: the horizon comes from the bound, read off
    # one pass of facts without building an analyze report
    cfg = synthesized_config(tmp_path, ref_config_path)
    calls = {"_facts": [], "analyze": []}
    for name, found in calls.items():
        def counting(net, _real=getattr(consensus, name), _found=found):
            _found.append(net)
            return _real(net)

        monkeypatch.setattr(consensus, name, counting)
    capsys.readouterr()
    assert main(["simulate", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(calls["_facts"]) == 1 and calls["analyze"] == []
    assert doc["horizon"] == doc["bound"] + 5


# the reference config, its one-graph static form, a switching config
# whose union of follower supports has a cycle (analyze is inconclusive),
# and a constant signal over a cyclic and an acyclic graph
ANALYSED_ONCE = {
    "reference": ref_config_dict(),
    "reference_static": ref_config_dict(graphs=[ref_config_dict()["graphs"][0]], switching=None),
    "cyclic_union": ref_config_dict(graphs=[
        [[s, t, w] for (s, t, w) in REF_GRAPH1_EDGES],
        [[s, t, w] for (s, t, w) in REF_GRAPH2_EDGES] + [[4, 1, 1]],
    ]),
    # a cyclic graph 0 that the periodic signal never selects
    "constant_signal": {k: v for k, v in _constant_signal_configs()["cyclic_graph_0"].items() if k != "K"},
}


@pytest.mark.parametrize("command", ["analyze", "synthesize", "simulate"])
@pytest.mark.parametrize("case", sorted(ANALYSED_ONCE))
def test_each_command_decomposes_and_analyses_once(case, command, tmp_path, monkeypatch, capsys):
    doc = ANALYSED_ONCE[case]
    if command == "simulate":
        doc = {**doc, "K": REF_GAIN}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    calls = {"_krylov": 0, "_facts": 0, "check_static": 0, "check_switching": 0}
    for name in calls:
        def counting(*args, _real=getattr(consensus, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(consensus, name, counting)
    main([command, str(path), "--out", str(tmp_path / "out")])
    assert calls["_krylov"] == calls["_facts"] == 1, calls
    # simulate's bound comes from the facts alone, without a report
    assert calls["check_static"] + calls["check_switching"] == (command != "simulate"), calls


@pytest.mark.parametrize("command", ["analyze", "synthesize", "simulate", "cycles"])
def test_validation_builds_field_graphs_and_signal_once(command, tmp_path, monkeypatch, capsys):
    # a constant signal: every command analyses one graph, so no union is built;
    # every graph object, however built, passes WeightedDigraphFF._hold once
    doc = _constant_signal_configs()["cyclic_graph_0"]
    if command == "synthesize":
        doc = {k: v for k, v in doc.items() if k != "K"}
    built = {PrimeField: 0, WeightedDigraphFF: 0, SwitchingSignal: 0}
    for cls in built:
        attr = "_hold" if cls is WeightedDigraphFF else "__init__"

        def counting(self, *args, _real=getattr(cls, attr), _cls=cls, **kwargs):
            built[_cls] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, counting)
    assert main([command, _write(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0
    assert built == {PrimeField: 1, WeightedDigraphFF: 2, SwitchingSignal: 1}


# simulate output (stdout and stderr, CSV and JSON) recorded before the
# update rule was merged into one integer stepper: the reference config
# with a gain under periodic (no `steps`: horizon = bound + 5), random and
# explicit switching (explicit initial states), and a cyclic follower
# graph with self-loops, once with consensus and once without (horizon
# 4 N n)
SIM_GOLDEN = json.loads((Path(__file__).parent / "data" / "simulate_golden.json").read_text())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(SIM_GOLDEN))
def test_simulate_output_unchanged(case, fmt, tmp_path, capsys):
    expected = SIM_GOLDEN[case]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(expected["config"]))
    assert main(["simulate", str(path), *expected["args"], "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected[fmt]["stdout"]
    assert captured.err == expected[fmt]["stderr"]


def test_simulate_closed_pipe_exits_without_traceback(tmp_path):
    path = tmp_path / "with_k.json"
    path.write_text(json.dumps(ref_config_dict(K=[2, 1, 2, 0, 1], steps=25)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # about 0.8 MB of JSON, far beyond a pipe's buffer, so the writer
    # is still writing when the reader goes away
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err_file:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ffconsensus.cli", "simulate", str(path),
             "--trials", "50", "--format", "json"],
            stdout=subprocess.PIPE, stderr=err_file, env=env,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    err = err_path.read_text()
    assert "trial 49" in err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_importing_cli_does_not_load_hashlib():
    # only simulate hashes a config; every other command skips OpenSSL
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ffconsensus.cli; sys.exit('hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "importing ffconsensus.cli loaded hashlib"


def test_importing_cli_loads_no_dataclasses_inspect_or_typing():
    # the records are plain classes, annotations stay strings and files are
    # opened with open(), so startup pays for none of these modules (nor for
    # inspect, which dataclasses loads, or for pathlib's urllib and fnmatch)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, ffconsensus.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'typing', 'pathlib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_simulate_does_not_load_hashlib(tmp_path):
    # the config hash comes from the interpreter's built-in SHA-256, not OpenSSL
    path = tmp_path / "with_k.json"
    path.write_text(json.dumps(ref_config_dict(K=[2, 1, 2, 0, 1], steps=4)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from ffconsensus import cli; rc = cli.main(['simulate', sys.argv[1], '--format', 'json']); "
            "sys.exit(rc or '_hashlib' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "simulate loaded _hashlib"
    assert json.loads(proc.stdout)["config_hash"] == load_config(path).config_hash()


def test_config_hash_is_sha256_of_the_canonical_config():
    import hashlib

    rng = random.Random(43)
    p, n, N = 101, 3, 5
    generated = {
        "p": p, "n": n, "N": N,
        "A": [[rng.randrange(p) for _ in range(n)] for _ in range(n)],
        "b": [rng.randrange(p) for _ in range(n)],
        "K": [rng.randrange(p) for _ in range(n)],
        "graphs": [[[0, t, rng.randrange(1, p)] for t in range(1, N + 1)]],
        "steps": 9,
        "init": {"seed": 12},
    }
    for doc in (ref_config_dict(), generated):
        cfg = ScenarioConfig.from_dict(doc)
        blob = json.dumps(cfg.doc, sort_keys=True, separators=(",", ":")).encode()
        assert cfg.config_hash() == hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 24])
def test_simulate_csv_matches_naive_formatting(N, trials, tmp_path, capsys):
    """The CSV stream, per-trial headers included, against row-by-row
    formatting of the errors that the JSON output of the same run holds."""
    edges = [[0, 1, 1]] + [[i - 1, i, 1] for i in range(2, N + 1)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(ref_config_dict(N=N, graphs=[edges], switching=None, K=REF_GAIN)))
    argv = ["simulate", str(path), "--trials", str(trials), "--seed", "5", "--horizon", "12"]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    naive = ""
    for trial in doc["trials"]:
        lines = ["step,agent,error"]
        for k, errs in enumerate(trial["errors"]):
            lines.extend(f"{k},{a},{e}" for a, e in enumerate(errs, start=1))
        naive += "\n".join(lines) + "\n"
    assert capsys.readouterr().out == naive
    assert any(any(errs) for trial in doc["trials"] for errs in trial["errors"])


def naive_csv(errors) -> str:
    return "step,agent,error\n" + "".join(
        f"{k},{a},{e}\n" for k, errs in enumerate(errors) for a, e in enumerate(errs, start=1))


@pytest.mark.parametrize("agreement", ["initially", "mid_horizon", "never"])
def test_traj_csv_matches_a_per_row_writer(agreement):
    """The CSV writer, which formats the agreed tail in bulk, against one
    row at a time, for agreement at step 0, within the horizon and never."""
    rng = random.Random(61)
    gain = [0] * 5 if agreement == "never" else REF_GAIN  # K = 0: every agent runs A alone, A not nilpotent
    one_graph = [[[s, t, w] for (s, t, w) in REF_GRAPH1_EDGES]]
    net = ScenarioConfig.from_dict(ref_config_dict(K=gain, graphs=one_graph, switching=None)).network()
    for _ in range(5):
        init = random_state(net.field, 5, 4, rng)
        if agreement == "initially":
            init = NetworkState(0, init.leader, (init.leader,) * 4)
        traj = simulate(net, init, horizon=30)
        assert {"initially": 0, "never": None}.get(agreement, traj.consensus_step) == traj.consensus_step
        assert agreement != "mid_horizon" or 0 < traj.consensus_step < traj.horizon
        assert _traj_csv(traj) == naive_csv(traj.errors)


def format_block_csv(traj) -> str:
    """The CSV writer that formatted the agreed tail with one ``str.format``
    of a preformatted zero block per step."""
    agents = range(1, len(traj.errors[0]) + 1)
    row = "".join(f"%d,{a},%d\n" for a in agents)
    agreed = "".join(f"{{0}},{a},0\n" for a in agents)
    last = traj.horizon if traj.consensus_step is None else traj.consensus_step
    return "step,agent,error\n" + "".join(
        row % tuple(v for e in errs for v in (k, e)) for k, errs in enumerate(traj.errors[: last + 1])
    ) + "".join(map(agreed.format, range(last + 1, traj.horizon + 1)))


def test_traj_csv_matches_the_format_block_writer():
    """The agreed tail joined by ``str(k).join`` against the format-block
    writer on the same trajectories: N up to 30, p from 2 to 1000003 and
    agreement at step 0, within the horizon and never."""
    rng = random.Random(67)
    seen = set()
    for case in range(60):
        field = PrimeField((2, 3, 101, 65537, 1000003)[case % 5])
        n, N = rng.randint(1, 4), rng.choice((1, 2, rng.randint(3, 30)))
        g = WeightedDigraphFF(field, N, [(i, i + 1, 1) for i in range(N)])
        a = MatrixFF(field, [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])  # nilpotent
        if case % 3 == 2:
            a = MatrixFF.identity(field, n)  # with K = 0, errors never vanish
        net = LeaderFollowerNetwork(LinearSystemFF(a, MatrixFF.from_flat(field, n, 1, [1] * n)), (g,),
                                    MatrixFF.zeros(field, 1, n))
        init = random_state(field, n, N, rng)
        if case % 3 == 0:
            init = NetworkState(0, init.leader, (init.leader,) * N)
        traj = simulate(net, init, horizon=rng.randint(1, 3 * n))
        seen.add("initially" if traj.consensus_step == 0 else "never" if traj.consensus_step is None else "later")
        assert _traj_csv(traj) == format_block_csv(traj)
    assert seen == {"initially", "later", "never"}


def test_simulate_builds_one_packing_and_realizes_each_signal_once(tmp_path, ref_config_path, monkeypatch, capsys):
    # three trials: one packing of the network, one realized signal per trial
    # (the explicit sequence's length is checked without realizing it)
    from ffconsensus import sim

    cfg = synthesized_config(tmp_path, ref_config_path)
    built, realized = [], []
    real_init, real_realize = sim._Packing.__init__, SwitchingSignal.realize
    monkeypatch.setattr(sim._Packing, "__init__", lambda self, net: built.append(net) or real_init(self, net))
    monkeypatch.setattr(SwitchingSignal, "realize", lambda self, h: realized.append(h) or real_realize(self, h))
    assert main(["simulate", cfg, "--trials", "3"]) == 0
    assert len(built) == 1 and len(realized) == 3


def test_simulate_per_trial_csv_files_match_a_per_row_writer(tmp_path, capsys):
    """Each file of ``simulate --trials 3 --out x.csv`` against one row at
    a time over the errors the JSON output of the same run holds."""
    path = tmp_path / "gain.json"
    path.write_text(json.dumps(ref_config_dict(K=REF_GAIN)))
    argv = ["simulate", str(path), "--trials", "3", "--seed", "8", "--horizon", "15"]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
    for t, trial in enumerate(doc["trials"]):
        assert trial["consensus_step"] < doc["horizon"]
        assert (tmp_path / f"x_trial{t}.csv").read_text() == naive_csv(trial["errors"])


# ---------------------------------------------------------
# cycles
# ---------------------------------------------------------

def test_cycles_enumeration_output(ref_config_path, capsys):
    rc = main(["cycles", ref_config_path])
    assert rc == 0
    assert capsys.readouterr().out == (
        "states: 243\n"
        "tree depth: 1\n"
        "transient states: 162\n"
        "cycles (length x count): 1x1, 20x4\n"
        "bijective-part factors (factor | ascending coeffs | multiplicity | order of x):\n"
        "  λ^4+λ^3+2λ+1 | [1, 2, 0, 1, 1] | 1 | 20\n"
    )


def _cycles_lines(a_rows, p):
    """The structure lines ``cycles`` prints for A, from the naive walk."""
    depth, cycles, transient = naive_cycle_structure(successors_by_matmul(MatrixFF(PrimeField(p), a_rows)))
    return [
        f"states: {p ** len(a_rows)}",
        f"tree depth: {depth}",
        f"transient states: {transient}",
        "cycles (length x count): " + ", ".join(f"{l}x{cycles[l]}" for l in sorted(cycles)),
    ]


def _deep_f3_rows():
    """A size-4 shift beside the companion of the irreducible x^5 + 2x^4 + 1
    over F_3: tree depth 4 on 3^9 states."""
    shift = [[int(j == i + 1) for j in range(4)] + [0] * 5 for i in range(4)]
    comp = [[0] * 4 + [int(j == i + 1) for j in range(5)] for i in range(4)] + [[0] * 4 + [2, 0, 0, 0, 1]]
    return shift + comp


@pytest.mark.parametrize("p,a_rows", [(257, [[1, 1], [1, 1]]), (3, _deep_f3_rows())], ids=["p257", "deep"])
def test_cycles_matches_the_naive_walk_with_and_without_poly(tmp_path, capsys, p, a_rows):
    # 66,049 and 19,683 states
    path = _write(tmp_path, _cycles_config(p, a_rows))
    assert main(["cycles", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:4] == _cycles_lines(a_rows, p)
    assert main(["cycles", path, "--poly"]) == 0
    assert capsys.readouterr().out == out


def test_cycles_polynomial_table(ref_config_path, capsys):
    rc = main(["cycles", ref_config_path, "--poly"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "λ^4+λ^3+2λ+1 | [1, 2, 0, 1, 1] | 1 | 20" in out
    assert "note:" not in out  # polynomial mode is exact: no caveat


def test_cycles_polynomial_non_cyclic(tmp_path, capsys):
    # the identity on F_3^2 has nine fixed points, not 1x3 + 3x2
    doc = {"p": 3, "n": 2, "N": 1, "A": [[1, 0], [0, 1]], "b": [1, 0], "graphs": [[[0, 1, 1]]]}
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(doc))
    assert main(["cycles", str(path), "--poly"]) == 0
    assert "cycles (length x count): 1x9" in capsys.readouterr().out


def _cycles_config(p, a_rows):
    n = len(a_rows)
    return {"p": p, "n": n, "N": 1, "A": a_rows, "b": [1] + [0] * (n - 1), "graphs": [[[0, 1, 1]]]}


def test_cycles_polynomial_large_prime_orders_minimal(tmp_path, capsys):
    """A seeded random 8 x 8 matrix over F_1000003 (10^48 states): every
    order in the table satisfies x^t = 1 and x^(t/q) != 1 modulo its
    factor for each prime q | t."""
    p, n = 1000003, 8
    rng = random.Random(108)
    path = _write(tmp_path, _cycles_config(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)]))
    assert main(["cycles", path, "--poly"]) == 0
    out = capsys.readouterr().out
    assert f"states: {p**n}" in out
    field = PrimeField(p)
    one = PolyFF(field, [1])
    rows = [line.split(" | ") for line in out.splitlines() if line.startswith("  ")]
    assert sum(len(json.loads(coeffs)) - 1 for _, coeffs, _, _ in rows) == n  # no root 0, no repeated factor
    for _, coeffs, mult, order in rows:
        g, t = PolyFF(field, json.loads(coeffs)), int(order)
        assert mult == "1" and pow_x_mod(t, g) == one
        primes = _group_order_primes(p, g.degree)
        assert all(is_prime(q) for q in primes) and (p**g.degree - 1) % t == 0
        for q in primes:
            if t % q == 0:
                assert pow_x_mod(t // q, g) != one


def test_cycles_polynomial_unfactorable_order_exits_one(tmp_path, ref_config_path, monkeypatch, capsys):
    # an irreducible of degree 7 over F_1000003: Phi_7(p), a factor of
    # p^7 - 1, leaves a cofactor of 30 digits, above the proven primality
    # bound, which Pocklington's criterion certifies; the order is checked
    # by schoolbook arithmetic over the primes of p^7 - 1, checked apart
    p, field, rng = 1000003, PrimeField(1000003), random.Random(7)
    while not is_irreducible(f := PolyFF(field, [rng.randrange(p) for _ in range(7)] + [1])):
        pass
    companion = [[int(j == i + 1) for j in range(7)] for i in range(6)] + [[-c % p for c in f.coeffs[:7]]]
    path = _write(tmp_path, _cycles_config(p, companion))
    assert main(["cycles", path, "--poly"]) == 0
    [row] = [line.split(" | ") for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    g, mult, t = json.loads(row[1]), row[2], int(row[3])
    assert g == list(f.coeffs) and mult == "1" and (p**7 - 1) % t == 0
    assert prod(q**e for q, e in P7_PRIMES.items()) == p**7 - 1 and pocklington_holds(M7, M7_MINUS_ONE, 2)
    one = [1] + [0] * 6
    assert naive_x_power_mod(t, g, p) == one
    assert all(naive_x_power_mod(t // q, g, p) != one for q in P7_PRIMES if t % q == 0)
    # the reference A at p = 1000003 needs rho to split 250001 = 53^2 * 89, a factor of p^2 - 1
    doc = json.loads(Path(ref_config_path).read_text())
    path = _write(tmp_path, {**doc, "p": p})
    assert main(["cycles", path, "--poly"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(poly, "RHO_BUDGET", 0)
    assert main(["cycles", path, "--poly"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot factor the group order 1000003^4 - 1: Pollard-Brent rho found no factor")


def test_large_prime_modulus(tmp_path, ref_config_path, capsys):
    doc = json.loads(Path(ref_config_path).read_text())
    doc["p"] = 2**61 - 1  # trial division up to its square root did not finish
    path = tmp_path / "p61.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) in (0, 2, 3)
    doc["p"] = 2**89 - 1  # prime, but above the proven bound of the test
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert "config error: p: " in capsys.readouterr().err


def test_cycles_past_a_million_states_runs_with_and_without_poly(tmp_path, capsys):
    # p = 101, n = 3: 1,030,301 states, answered as any other size
    path = _write(tmp_path, _cycles_config(101, [[1, 2, 0], [0, 1, 3], [4, 0, 1]]))
    assert main(["cycles", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "states: 1030301\n" in captured.out
    assert main(["cycles", path, "--poly"]) == 0
    assert capsys.readouterr().out == captured.out


# cycles output (exit code, stdout, stderr) recorded while factoring, orders
# and the characteristic polynomial ran on the list core, before they moved
# to packed polynomials: seeded matrices at p in {2, 3, 5, 7, 11, 101, 65537,
# 1000003} with n <= 16, each a random matrix (two of them), a conjugated
# companion, diag(B, B), powers of one irreducible g, nilpotent Jordan
# blocks and a random nilpotent matrix (``conftest.structured_matrix`` and
# ``random_nilpotent``), the identity and zero; CI's two 3^6 maps; and the
# companions of x^4 + x^2 + 1 over F_2 (f' = 0) and of (x^3 + 1)(x^2 + 1)
# over F_3 (a square-free part and a p-th power)
CYCLES_GOLDEN = json.loads((Path(__file__).parent / "data" / "cycles_golden.json").read_text())


def test_cycles_output_unchanged(tmp_path, capsys):
    for case, expected in CYCLES_GOLDEN.items():
        path = _write(tmp_path, expected["config"])
        assert main(["cycles", path]) == expected["exit"], case
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected["stdout"], expected["stderr"]), case


# ---------------------------------------------------------
# JSON output: byte-identical to json.dumps(indent=2)
# ---------------------------------------------------------

def _random_document(rng, depth=0):
    """A random value of the shapes ``json.dumps`` meets, nested a few deep."""
    kind = rng.randrange(12 if depth < 4 else 7)
    if kind == 0:
        return rng.choice((0, -1, 7, -(10 ** 30), 2 ** 64 + 1))
    if kind == 1:
        return rng.choice((None, True, False))
    if kind == 2:
        return rng.choice((0.0, -0.0, 1.5, -2.25e-8, 1e300, float("inf"), float("-inf"), float("nan")))
    if kind == 3:
        return rng.choice(("", "plain", 'quote " and \\ slash', "tab\t\nnewline", "\x00\x1f\x7f", "é", "λ", "\U0001F600"))
    if kind == 4:  # an int list, possibly empty
        return [rng.randrange(-10 ** 20, 10 ** 20) for _ in range(rng.randrange(6))]
    if kind == 5:  # bools among ints
        return [rng.choice((0, 1, True, False, -3)) for _ in range(rng.randrange(1, 5))]
    if kind == 6:  # equal-length int rows, as lists or tuples
        width = rng.randrange(4)
        return [rng.choice((list, tuple))(rng.randrange(-99, 99) for _ in range(width)) for _ in range(rng.randrange(1, 4))]
    if kind == 7:  # ragged int rows
        return [[rng.randrange(9) for _ in range(rng.randrange(4))] for _ in range(rng.randrange(2, 5))]
    if kind == 8:
        return {rng.choice(("a", "é", "k\n", "")) + str(i): _random_document(rng, depth + 1) for i in range(rng.randrange(4))}
    if kind == 9:  # keys that json.dumps turns into strings
        keys = (1, -2, 2.5, None, True, False, "s", float("inf"))
        return {rng.choice(keys): _random_document(rng, depth + 1) for _ in range(rng.randrange(4))}
    if kind == 10:
        return {str(i): rng.randrange(-5, 50) for i in range(rng.randrange(5))}
    return rng.choice((list, tuple))(_random_document(rng, depth + 1) for _ in range(rng.randrange(4)))


def test_json_writer_matches_json_dumps():
    rng = random.Random(20261019)
    for _ in range(4000):
        doc = _random_document(rng)
        assert _dumps(doc) == json.dumps(doc, indent=2), doc


def _dump_outcome(dump, doc):
    try:
        return "ok", dump(doc)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# keys and values JSON cannot hold; an int past the interpreter's digit
# limit for str(), where it has one
@pytest.mark.parametrize("doc", [
    {(1, 2): 0}, {"a": {b"k": 1}}, [set()], {"a": [1, object()]}, [10 ** 5000], [[1, 10 ** 5000]], {"a": 10 ** 5000},
], ids=["tuple_key", "bytes_key", "set", "object", "int_list", "int_rows", "int_values"])
def test_json_writer_fails_as_json_dumps(doc):
    assert _dump_outcome(_dumps, doc) == _dump_outcome(lambda d: json.dumps(d, indent=2), doc)


def _generated_config(seed):
    """A seeded random scenario: acyclic graphs over a leader edge into
    every follower, with or without a gain, steps and initial states."""
    rng = random.Random(seed)
    p, n, N = rng.choice((2, 3, 5, 7, 101)), rng.randint(1, 4), rng.randint(1, 6)
    graphs = []
    for _ in range(rng.randint(1, 2)):
        edges = [[0, t, rng.randrange(1, p)] for t in range(1, N + 1)]
        edges += [[s, t, rng.randrange(1, p)] for s in range(1, N + 1) for t in range(s + 1, N + 1) if rng.random() < 0.4]
        graphs.append(edges)
    doc = {"p": p, "n": n, "N": N, "A": [[rng.randrange(p) for _ in range(n)] for _ in range(n)],
           "b": [rng.randrange(p) for _ in range(n)], "graphs": graphs, "steps": rng.randint(1, 12)}
    if rng.random() < 0.5:
        doc["K"] = [rng.randrange(p) for _ in range(n)]
    if rng.random() < 0.5:
        doc["init"] = {"states": {"leader": [rng.randrange(p) for _ in range(n)],
                                  "followers": [[rng.randrange(p) for _ in range(n)] for _ in range(N)]}}
    return doc


LAYOUT_CASES = (
    [pytest.param(GOLDEN[c]["config"], [], id=f"analyze_golden-{c}") for c in sorted(GOLDEN)]
    + [pytest.param(SYNTH_GOLDEN[c]["config"], [], id=f"synthesize_golden-{c}") for c in sorted(SYNTH_GOLDEN)]
    + [pytest.param(SIM_GOLDEN[c]["config"], SIM_GOLDEN[c]["args"], id=f"simulate_golden-{c}") for c in sorted(SIM_GOLDEN)]
    + [pytest.param(_generated_config(seed), ["--trials", "2"], id=f"generated-{seed}") for seed in range(12)]
)


@pytest.mark.parametrize("doc, sim_args", LAYOUT_CASES)
def test_json_outputs_have_the_stdlib_layout(doc, sim_args, tmp_path, capsys):
    """Each JSON text a command writes equals the standard library's
    ``json.dumps(..., indent=2)`` of the value it holds."""
    def assert_stdlib_layout(text):
        assert text == json.dumps(json.loads(text), indent=2)

    path = _write(tmp_path, doc)
    out = tmp_path / "out.json"
    main(["analyze", path])
    assert_stdlib_layout(capsys.readouterr().out.removesuffix("\n"))
    main(["analyze", path, "--out", str(out)])
    assert_stdlib_layout(out.read_text())
    with_gain = path
    if "K" not in doc:
        with_gain = str(tmp_path / "with_gain.json")
        if main(["synthesize", path, "--out", with_gain]) != 0:
            return
        assert_stdlib_layout(Path(with_gain).read_text())
    capsys.readouterr()
    if main(["simulate", with_gain, *sim_args, "--format", "json"]) != 0:  # a sequence shorter than the horizon
        assert "switching.sequence" in capsys.readouterr().err
        return
    assert_stdlib_layout(capsys.readouterr().out.removesuffix("\n"))
    assert main(["simulate", with_gain, *sim_args, "--format", "json", "--out", str(out)]) == 0
    assert_stdlib_layout(out.read_text())
