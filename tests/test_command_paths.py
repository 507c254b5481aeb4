"""No CLI command runs the dense library code: matrix products, Kronecker
products, inverse, rank, columns, the public graph constructor, the
adjacency matrices or the dense error matrix.  Those serve the library
API and the tests' oracle; the commands read packed rows, Krylov vectors
and checked edge maps instead."""

import importlib.util
import json
from pathlib import Path

from ffconsensus import MatrixFF, WeightedDigraphFF, consensus, matrix
from ffconsensus.cli import main

from conftest import REF_A_ROWS, REF_B

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

RING = 400
CONFIGS = {
    "leader_f3": json.loads((ROOT / "configs" / "leader_f3.json").read_text()),
    "p2_chain": {"p": 2, "n": 3, "N": 6, "A": [[1, 1, 0], [0, 1, 1], [0, 0, 1]], "b": [0, 0, 1],
                 "graphs": [[[i, i + 1, 1] for i in range(6)]]},
    "p1000003": {"p": 1000003, "n": 2, "N": 30, "A": [[1, 1], [0, 1]], "b": [0, 1], "K": [1, 2],
                 "graphs": [[[i, i + 1, 1] for i in range(30)]]},
    "uncontrollable": {"p": 5, "n": 4, "N": 3, "A": [[2, 0, 0, 2], [1, 4, 4, 0], [3, 2, 2, 0], [2, 1, 1, 3]],
                       "b": [2, 2, 1, 1], "graphs": [[[0, 1, 2], [1, 2, 2], [2, 3, 2]]]},
    "ring400": {"p": 3, "n": 5, "N": RING, "A": REF_A_ROWS, "b": REF_B, "K": [2, 1, 2, 0, 1],
                "graphs": [[[0, 1, 1], [RING, 1, 1]] + [[i, i + 1, 2] for i in range(1, RING)]]},
    # nilpotent A and K b = 0, so r = 0: the bound's kappa, the first j with K A^j = 0, is 2
    "r0_gain": {"p": 3, "n": 3, "N": 2, "A": [[0, 1, 0], [0, 0, 1], [0, 0, 0]], "b": [1, 0, 0], "K": [0, 1, 2],
                "graphs": [[[0, 1, 1], [1, 2, 2]]]},
}
for _item in gen.sweep_pass(1, 0):
    CONFIGS.setdefault(f"sweep_{_item['expect']['kind']}", _item["config"])

WRAPPED = [
    (MatrixFF, "__matmul__"), (MatrixFF, "inverse"), (MatrixFF, "rank"), (MatrixFF, "col"),
    (matrix, "kron"), (consensus, "kron"), (WeightedDigraphFF, "__init__"),
    (WeightedDigraphFF, "adjacency_matrices"), (consensus, "error_dynamics_matrix"),
]


def test_no_command_calls_the_dense_library_code(tmp_path, monkeypatch, capsys):
    assert {f"sweep_{kind}" for kind in gen.SWEEP_KINDS} <= set(CONFIGS)
    calls = []
    for owner, name in WRAPPED:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name, **kwargs: (
            calls.append(_name) or _real(*args, **kwargs)))
    codes = {}
    for name, doc in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        codes[name] = main(["analyze", str(path)])
        assert main(["cycles", str(path)]) == 0
        target = path
        if "K" not in doc and main(["synthesize", str(path), "--out", str(tmp_path / f"{name}.K.json")]) == 0:
            target = tmp_path / f"{name}.K.json"
        horizon = ["--horizon", "6"] if name == "ring400" else []
        for fmt in ("csv", "json"):
            main(["simulate", str(target), "--format", fmt, *horizon])
    capsys.readouterr()
    assert calls == [], sorted(set(calls))
    assert codes["r0_gain"] == 0 and codes["ring400"] == 2
