"""No CLI command runs the dense library code: the validating matrix
constructor, matrix products, Kronecker products, inverse, rank, columns,
the public graph constructor, the adjacency matrices or the dense error
matrix.  Those serve the library
API and the tests' oracle; the commands read packed rows, Krylov vectors
and checked edge maps instead.  ``cycles`` builds A alone, and no
command reduces the loader's residues a second time."""

import json
import random
from itertools import chain
from operator import is_

from ffconsensus import LeaderFollowerNetwork, LinearSystemFF, MatrixFF, WeightedDigraphFF, cli, consensus, matrix
from ffconsensus.cli import main

from conftest import CONFIGS, gen

WRAPPED = [
    (MatrixFF, "__init__"), (MatrixFF, "__matmul__"), (MatrixFF, "inverse"), (MatrixFF, "rank"), (MatrixFF, "col"),
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


def test_cycles_builds_no_network_and_no_system(tmp_path, monkeypatch, capsys):
    built = []
    for cls in (LeaderFollowerNetwork, LinearSystemFF):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _real=real, **kwargs: (
            built.append(type(self).__name__) or _real(self, *args, **kwargs)))
    for name, doc in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["cycles", str(path)]) == 0
    assert built == []
    assert main(["analyze", str(path)]) in (0, 2, 3) and built  # the wrappers do see a network
    capsys.readouterr()


def test_no_command_reduces_canonical_residues_again(tmp_path, monkeypatch, capsys):
    """Every entry of A, b and K above 256: reducing one makes a new int
    object (CPython caches only small ints), so a matrix whose entries are
    the very objects of the loaded config was not reduced entry by entry."""
    rng = random.Random(34)
    p, n = 1000003, 3
    doc = {"p": p, "n": n, "N": 2, "A": [[rng.randrange(257, p) for _ in range(n)] for _ in range(n)],
           "b": [rng.randrange(257, p) for _ in range(n)], "graphs": [[[0, 1, 1], [1, 2, 1]]]}
    plain, with_gain = tmp_path / "plain.json", tmp_path / "gain.json"
    plain.write_text(json.dumps(doc))
    with_gain.write_text(json.dumps({**doc, "K": [rng.randrange(257, p) for _ in range(n)]}))
    seen = {"cfg": [], "matrices": []}
    wraps = {
        "load_config": lambda real: lambda path: seen["cfg"].append(real(path)) or seen["cfg"][-1],
        "LinearSystemFF": lambda real: lambda A, b: seen["matrices"].extend((("A", A), ("b", b))) or real(A, b),
        "LeaderFollowerNetwork": lambda real: lambda sys, graphs, gain=None: (
            seen["matrices"].append(("K", gain)) or real(sys, graphs, gain)),
        "autonomous_cycle_structure": lambda real: lambda A: seen["matrices"].append(("A", A)) or real(A),
    }
    for name, wrap in wraps.items():
        monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    for argv in (["analyze", plain], ["synthesize", plain], ["cycles", plain], ["simulate", with_gain]):
        for found in seen.values():
            found.clear()
        main([argv[0], str(argv[1])])
        (cfg,) = seen["cfg"]
        keys = {key for key, m in seen["matrices"] if m is not None}
        assert keys == ({"A"} if argv[0] == "cycles" else {"A", "b", "K"} if argv[0] == "simulate" else {"A", "b"})
        for key, m in seen["matrices"]:
            if m is not None:
                loaded = chain.from_iterable(cfg.doc[key]) if key == "A" else cfg.doc[key]
                assert all(map(is_, m._e, loaded)), (argv[0], key)
    capsys.readouterr()
