"""No CLI command runs the dense library code: matrix products, Kronecker
products, inverse, rank, columns, the public graph constructor, the
adjacency matrices or the dense error matrix.  Those serve the library
API and the tests' oracle; the commands read packed rows, Krylov vectors
and checked edge maps instead."""

import json

from ffconsensus import MatrixFF, WeightedDigraphFF, consensus, matrix
from ffconsensus.cli import main

from conftest import CONFIGS, gen

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
