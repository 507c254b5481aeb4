"""Command-line front end: analyze | synthesize | simulate | cycles.

Scenario configs are single JSON documents.  Matrix and vector entries
are reduced mod p on load (with a warning to stderr when the reduction
changed a value).  The loader checks only the JSON shape and types; the
modulus, the edges and the switching sequence are validated by the
``PrimeField``, ``WeightedDigraphFF`` and ``SwitchingSignal`` it builds,
and their errors are reported with the config's field path.  Lists are
checked whole (their types as one set, their range by ``min``/``max``),
a matrix as one list after its rows' types and lengths; only a list that
fails is scanned, row by row and entry by entry, to name the first bad
entry.  JSON output is written by ``_dumps``, byte-identical to
``json.dumps(obj, indent=2)`` but without its pure-Python encoder.  Every
command analyses ``ScenarioConfig.analysed_network``: the one graph of a
constant signal, else every graph; ``cycles`` builds A alone.  ``main``
parses with the command's own parser (no command, an unknown one or
``-h``: the top parser).  Exit codes for ``analyze``: 0 consensus
guaranteed, 2 impossible, 3 inconclusive; malformed or unreadable
configs, an unwritable ``--out`` and usage errors (argparse's 2) exit 1
with one line on stderr or argparse's usage text, as does a run whose
reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str

from .consensus import LeaderFollowerNetwork, SwitchingSignal, analyze, convergence_bound
from .field import PrimeField, _Record
from .graphs import EdgeError, WeightedDigraphFF
from .linsys import LinearSystemFF, autonomous_cycle_structure
from .matrix import MatrixFF
from .sim import NetworkState, random_state, simulate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IMPOSSIBLE = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {"guaranteed": EXIT_OK, "impossible": EXIT_IMPOSSIBLE, "inconclusive": EXIT_INCONCLUSIVE}


class ConfigError(ValueError):
    """Malformed scenario config; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _require(cond: bool, field_path: str, message: str) -> None:
    if not cond:
        raise ConfigError(field_path, message)


def _int_at(value, field_path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), field_path, "expected an integer")
    return value


def _int_prefix(values: list) -> int:
    """How many leading entries are integers (a bool is not one).

    The lists of a config are checked with this, so that an entry's field
    path is formatted only for the entry that fails."""
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            return i
    return len(values)


def _residues(values, length: int, field: PrimeField, field_path: str) -> list[int]:
    """``length`` field elements.  A list of ints already in 0..p-1 is
    taken whole; otherwise each entry is kept by ``PrimeField.scalar``
    with a warning if it changed, and ``_int_prefix`` locates the entry
    that is not an integer, for its field path."""
    _require(isinstance(values, list) and len(values) == length, field_path, f"expected {length} entries")
    if set(map(type, values)) == {int} and min(values) >= 0 and max(values) < field.p:
        return values[:]
    good = _int_prefix(values)
    out = list(map(field.scalar, values[:good]))
    if out != values:  # warn in entry order, up to the first entry that is not an integer
        for i, (v, r) in enumerate(zip(values, out)):
            if r != v:
                _warn(f"{field_path}[{i}]: reduced {v} to {r} (mod {field.p})")
        if good < length:
            raise ConfigError(f"{field_path}[{good}]", "expected an integer")
    return out


def _rows(values, count: int, length: int, field: PrimeField, field_path: str) -> list[list[int]]:
    """``count`` rows of ``length`` field elements: lists of ints already
    in 0..p-1 are taken whole (one set of row types, one of lengths, one
    of entry types, one ``min``/``max``), any other rows by ``_residues``."""
    _require(isinstance(values, list) and len(values) == count, field_path, f"expected {count} rows")
    if set(map(type, values)) == {list} and set(map(len, values)) == {length}:
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) == {int} and min(flat) >= 0 and max(flat) < field.p:
            return list(map(list.copy, values))
    return [_residues(row, length, field, f"{field_path}[{i}]") for i, row in enumerate(values)]


def _edge_triples(edges: list, gi: int, field: PrimeField) -> tuple[list[tuple[int, int, int]], tuple | None]:
    """The (source, target, weight) triples of ``graphs[gi]``, type-checked and
    reduced mod p once, here (``WeightedDigraphFF._of_residues`` checks the
    rest), with a warning for each weight that changed: a list of int triples
    whole, any other edge by edge, up to the first malformed edge; and their
    source, target and weight columns when checked whole, else None."""
    p = field.p
    if edges and set(map(type, edges)) == {list} and set(map(len, edges)) == {3}:
        srcs, tgts, raw = zip(*edges)
        if set(map(type, srcs + tgts + raw)) == {int}:
            weights = [w % p for w in raw]
            if weights != list(raw):
                for ei, (w_raw, w) in enumerate(zip(raw, weights)):
                    if w != w_raw:
                        _warn(f"graphs[{gi}][{ei}]: reduced weight {w_raw} to {w} (mod {p})")
            return list(zip(srcs, tgts, weights)), (srcs, tgts, weights)
    out = []
    for ei, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 3):
            raise ConfigError(f"graphs[{gi}][{ei}]", "expected [source, target, weight]")
        good = _int_prefix(e)
        if good < 3:
            raise ConfigError(f"graphs[{gi}][{ei}][{good}]", "expected an integer")
        src, tgt, w_raw = e
        w = field.scalar(w_raw)
        if w != w_raw:
            _warn(f"graphs[{gi}][{ei}]: reduced weight {w_raw} to {w} (mod {p})")
        out.append((src, tgt, w))
    return out, None


class ScenarioConfig(_Record):
    """Canonical, validated scenario.  ``doc`` is the config as validation
    built it: entries reduced mod p, edges as (source, target, weight)
    tuples in input order, and only the schema's keys, in the schema's
    order (p, n, N, A, b, K, graphs, switching, steps, init; the optional
    ones only when given).  Beside it: the field, graphs and signal that
    validation built.

    An edge is a tuple, not a list: small tuples are mostly reused from
    the interpreter's free list, while a new list per edge counts toward
    the cycle collector's threshold; with lists, a large-static pass ran
    about 2.5 times the gen-0 collections and about 7% slower.  JSON
    writes either as an array."""

    __slots__ = ("doc", "field", "graphs", "switching_signal")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
        for key in ("p", "n", "N", "A", "b", "graphs"):
            _require(key in raw, key, "required field is missing")

        p = _int_at(raw["p"], "p")
        try:
            field = PrimeField(p)
        except ValueError as exc:
            raise ConfigError("p", str(exc)) from exc
        n = _int_at(raw["n"], "n")
        _require(n >= 1, "n", "state dimension must be >= 1")
        N = _int_at(raw["N"], "N")
        _require(N >= 1, "N", "follower count must be >= 1")

        doc = {"p": p, "n": n, "N": N, "A": _rows(raw["A"], n, n, field, "A"), "b": _residues(raw["b"], n, field, "b")}
        if raw.get("K") is not None:
            doc["K"] = _residues(raw["K"], n, field, "K")

        graphs_in = raw["graphs"]
        _require(isinstance(graphs_in, list) and len(graphs_in) >= 1, "graphs", "expected a nonempty list")
        doc["graphs"] = []
        graphs = []
        for gi, edges in enumerate(graphs_in):
            _require(isinstance(edges, list), f"graphs[{gi}]", "expected an edge list")
            out, columns = _edge_triples(edges, gi, field)
            try:
                graphs.append(WeightedDigraphFF._of_residues(field, N, out, columns))
            except EdgeError as exc:
                raise ConfigError(f"graphs[{gi}][{exc.index}]", str(exc)) from exc
            doc["graphs"].append(out)

        # without a switching field: the one graph, or random switching with seed 0
        spec = {"kind": "periodic", "sequence": [0]} if len(graphs) == 1 else {"kind": "random", "seed": 0}
        if raw.get("switching") is not None:
            sw = raw["switching"]
            _require(isinstance(sw, dict), "switching", "expected an object")
            kind = sw.get("kind")
            _require(kind in SwitchingSignal.KINDS, "switching.kind",
                     "expected one of " + "|".join(SwitchingSignal.KINDS))
            if kind == "random":
                spec = {"kind": kind, "seed": _int_at(sw.get("seed", 0), "switching.seed")}
            else:
                seq = sw.get("sequence")
                _require(isinstance(seq, list), "switching.sequence", "expected a list")
                good = _int_prefix(seq)
                if good < len(seq):
                    raise ConfigError(f"switching.sequence[{good}]", "expected an integer")
                spec = {"kind": kind, "sequence": list(seq)}
            doc["switching"] = spec
        try:
            signal = SwitchingSignal(kind=spec["kind"], num_graphs=len(graphs),
                                     sequence=tuple(spec.get("sequence", ())), seed=spec.get("seed"))
        except ValueError as exc:
            raise ConfigError("switching.sequence", str(exc)) from exc

        if raw.get("steps") is not None:
            doc["steps"] = _int_at(raw["steps"], "steps")
            _require(doc["steps"] >= 1, "steps", "horizon must be >= 1")

        if raw.get("init") is not None:
            init = raw["init"]
            _require(isinstance(init, dict), "init", "expected an object")
            if "states" in init:
                st = init["states"]
                _require(isinstance(st, dict), "init.states", "expected an object")
                lead = _residues(st.get("leader"), n, field, "init.states.leader")
                fols = _rows(st.get("followers"), N, n, field, "init.states.followers")
                doc["init"] = {"states": {"leader": lead, "followers": fols}}
            elif "seed" in init:
                doc["init"] = {"seed": _int_at(init["seed"], "init.seed")}
            else:
                raise ConfigError("init", "expected either 'states' or 'seed'")

        return cls(doc, field, tuple(graphs), signal)

    # -- canonical form -------------------------------------------------

    def config_hash(self) -> str:
        blob = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        try:  # the built-in SHA-256; hashlib loads OpenSSL, about 3 MB
            sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
        except ImportError:
            from hashlib import sha256
        return sha256(blob.encode()).hexdigest()[:16]

    # -- object construction ---------------------------------------------

    @property
    def A(self) -> MatrixFF:
        """The matrix A alone, from the entries the loader already reduced."""
        n = self.doc["n"]
        return MatrixFF.from_flat(self.field, n, n, tuple(chain.from_iterable(self.doc["A"])))

    def network(self) -> LeaderFollowerNetwork:
        """The scenario over every graph, its matrices built from the
        entries the loader already reduced."""
        field, n, k = self.field, self.doc["n"], self.doc.get("K")
        sys_pair = LinearSystemFF(self.A, MatrixFF.from_flat(field, n, 1, self.doc["b"]))
        gain = MatrixFF.from_flat(field, 1, n, k) if k is not None else None
        return LeaderFollowerNetwork(sys=sys_pair, graphs=self.graphs, gain=gain)

    @property
    def constant_graph(self) -> int | None:
        """The one graph index of an explicit or periodic sequence that
        names no other, when there are several graphs; else None."""
        s = self.switching_signal
        if len(self.graphs) > 1 and s.kind != "random" and len(set(s.sequence)) == 1:
            return s.sequence[0]
        return None

    def analysed_network(self, net: LeaderFollowerNetwork | None = None) -> LeaderFollowerNetwork:
        """What every command analyses: the constant graph alone (the
        conditions are exact for a fixed graph, only sufficient under
        switching), else every graph; ``net``: ``network()`` if built."""
        net = self.network() if net is None else net
        i = self.constant_graph
        return net if i is None else LeaderFollowerNetwork(sys=net.sys, graphs=(net.graphs[i],), gain=net.gain)

    def signal(self, seed_offset: int = 0) -> SwitchingSignal:
        s = self.switching_signal
        if s.kind == "random" and seed_offset:
            return SwitchingSignal(s.kind, s.num_graphs, s.sequence, s.seed + seed_offset)
        return s


def load_config(path: str | os.PathLike) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("<file>", f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(doc)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _dumps(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, nested ``level``
    deep, without the pure-Python encoder that ``indent`` selects: a list
    of ints is one join, a list of equal-length int lists one ``%``
    template per row, keys and strings go through the C string encoder,
    and anything else through ``json.dumps``."""
    if type(obj) is str:
        return _encode_str(obj)
    if type(obj) is int:
        return str(obj)
    if obj is None:
        return "null"
    if type(obj) is bool:
        return "true" if obj else "false"
    pad = "\n" + "  " * level
    sep = "," + pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {int}:
            body = sep.join(map(str, obj))
        elif (types <= {list, tuple} and len(set(map(len, obj))) == 1
              and set(map(type, chain.from_iterable(obj))) == {int}):
            row = "[" + pad + "    " + (sep + "  ").join(["%d"] * len(obj[0])) + pad + "  ]"
            body = sep.join([row % tuple(r) for r in obj])
        else:
            body = sep.join([_dumps(v, level + 1) for v in obj])
        return "[" + pad + "  " + body + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # a key that is not a str: json.dumps turns it into one, or raises
        keys = map(_encode_str, obj) if set(map(type, obj)) == {str} else [json.dumps({k: 0})[1:-4] for k in obj]
        if set(map(type, obj.values())) == {int}:
            body = sep.join(map("%s: %d".__mod__, zip(keys, obj.values())))
        else:
            body = sep.join([k + ": " + _dumps(v, level + 1) for k, v in zip(keys, obj.values())])
        return "{" + pad + "  " + body + pad + "}"
    return json.dumps(obj)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    report = analyze(cfg.analysed_network())
    if cfg.constant_graph is not None:
        report.diagnostics["constant_signal_graph"] = cfg.constant_graph
    _emit(_dumps(report.to_dict()), args.out)
    return _VERDICT_EXIT[report.verdict]


def cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    if "K" in cfg.doc:
        print("error: config already contains a gain K; remove it to re-synthesize",
              file=sys.stderr)
        return EXIT_CONFIG
    net = cfg.analysed_network()
    report = analyze(net)
    if report.verdict != "guaranteed":
        print(f"synthesis refused: {report.reason}", file=sys.stderr)
        return _VERDICT_EXIT[report.verdict]
    k_row = report.witness["synthesized_gain"]
    # every follower of every graph shares the witness closed loop: A - d*bK
    # for the deadbeat gain, A itself for the zero gain
    degree = report.witness["gain_certificate_degree"]
    graph_ids = range(len(net.graphs)) if cfg.constant_graph is None else [cfg.constant_graph]
    closed_degrees = {
        f"graph{gi}.follower{i}": degree for gi in graph_ids for i in range(1, cfg.doc["N"] + 1)
    }
    certificate = {"closed_loop_nilpotent_degrees": closed_degrees, "degree_bound": cfg.doc["n"]}
    _emit(_dumps({**cfg.doc, "K": k_row, "certificate": certificate}), args.out)
    return EXIT_OK


def _traj_csv(traj) -> str:
    """The ``step,agent,error`` rows: one template per step up to agreement,
    then per agreed step k one ``str(k).join`` of the zero rows' tails."""
    agents = range(1, len(traj.errors[0]) + 1)
    row = "".join(f"%d,{a},%d\n" for a in agents)
    agreed = [""] + [f",{a},0\n" for a in agents]
    last = traj.horizon if traj.consensus_step is None else traj.consensus_step
    return "step,agent,error\n" + "".join(
        row % tuple(chain.from_iterable(zip(repeat(k), errs))) for k, errs in enumerate(traj.errors[: last + 1])
    ) + "".join(map(str.join, map(str, range(last + 1, traj.horizon + 1)), repeat(agreed)))


def _traj_json(traj, trial: int, bound: int | None) -> dict:
    return {
        "trial": trial,
        "consensus_step": traj.consensus_step,
        "bound": bound,
        "signal": list(traj.signal_indices),
        "metadata": traj.metadata,
        "errors": [list(e) for e in traj.errors],
        "states": [
            {
                "step": s.step,
                "leader": list(s.leader),
                "followers": [list(f) for f in s.followers],
            }
            for s in traj.states
        ],
    }


def cmd_simulate(args) -> int:
    for flag, value in (("--trials", args.trials), ("--horizon", args.horizon)):
        if value is not None and value < 1:
            print(f"error: {flag} must be >= 1 (got {value})", file=sys.stderr)
            return EXIT_CONFIG
    cfg = load_config(args.config)
    net = cfg.network()
    if net.gain is None:
        print(
            "error: config has no gain K; run `ffconsensus synthesize <config>` "
            "first and use its output",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    try:
        bound = convergence_bound(cfg.analysed_network(net))
    except ValueError:
        bound = None
    n, N, init_doc = cfg.doc["n"], cfg.doc["N"], cfg.doc.get("init")
    horizon = args.horizon if args.horizon is not None else cfg.doc.get("steps")
    if horizon is None:
        horizon = bound + 5 if bound is not None else 4 * N * n
    try:
        cfg.switching_signal._require_horizon(horizon)  # an explicit sequence must cover the horizon
    except ValueError as exc:
        raise ConfigError("switching.sequence", str(exc)) from exc

    summary_stream = sys.stdout if args.out else sys.stderr
    config_hash = cfg.config_hash()
    trials = []
    for t in range(args.trials):
        init_seed = None
        if init_doc is not None and "states" in init_doc:
            st = init_doc["states"]
            init = NetworkState(0, tuple(st["leader"]), tuple(map(tuple, st["followers"])))
        else:
            base = init_doc["seed"] if init_doc is not None else args.seed
            init_seed = base + 1000003 * t
            init = random_state(cfg.field, n, N, random.Random(init_seed))
        signal = cfg.signal(seed_offset=t)
        meta = {"trial": t, "config_hash": config_hash}
        if init_seed is not None:
            meta["init_seed"] = init_seed
        meta["consensus_detection"] = (
            "bounded-exact" if bound is not None and horizon >= bound
            else "empirical within horizon"
        )
        traj = simulate(net, init, signal=signal, horizon=horizon, metadata=meta)
        trials.append(traj)
        reached = traj.consensus_step is not None
        bound_txt = bound if bound is not None else "n/a"
        status = "ok" if (reached and (bound is None or traj.consensus_step <= bound)) else (
            "late" if reached else "not reached"
        )
        print(
            f"trial {t}: consensus_step="
            f"{traj.consensus_step if reached else 'not reached within horizon'} "
            f"bound={bound_txt} [{status}]",
            file=summary_stream,
        )

    if args.format == "csv":
        if args.out and args.trials > 1:
            # one schema-exact file per trial
            root, ext = os.path.splitext(args.out)
            for t, traj in enumerate(trials):
                _emit(_traj_csv(traj), f"{root}_trial{t}{ext}")
        else:
            _emit("".join(_traj_csv(tr) for tr in trials).rstrip("\n"), args.out)
    else:
        doc = {
            "config_hash": config_hash,
            "horizon": horizon,
            "bound": bound,
            "trials": [_traj_json(tr, t, bound) for t, tr in enumerate(trials)],
        }
        _emit(_dumps(doc), args.out)
    return EXIT_OK


def cmd_cycles(args) -> int:
    A = load_config(args.config).A  # ConfigError is a ValueError: not in the try below
    try:
        cs = autonomous_cycle_structure(A)
    except ValueError as exc:  # a p^d - 1 whose primes cannot be found or certified
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    lines = [
        f"states: {cs.total_states}",
        f"tree depth: {cs.tree_depth}",
        f"transient states: {cs.transient_states}",
        "cycles (length x count): "
        + ", ".join(f"{length}x{cs.cycles[length]}" for length in sorted(cs.cycles)),
        "bijective-part factors (factor | ascending coeffs | multiplicity | order of x):",
    ]
    lines += (f"  {g.format()} | {g.coefficient_list()} | {mult} | {order}" for g, mult, order in cs.factor_orders)
    _emit("\n".join(lines), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser and each command's parser by name, built on the first
    call and reused: building them costs about a millisecond, paid once per
    process, not per command."""
    parser = argparse.ArgumentParser(
        prog="ffconsensus",
        description="Leader-follower consensus over prime finite fields: "
        "analysis, gain synthesis, and exact simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="check consensus conditions for a scenario")
    pa.add_argument("config")
    pa.add_argument("--out", help="write the JSON report to this path")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("synthesize", help="emit the config augmented with a synthesized gain")
    ps.add_argument("config")
    ps.add_argument("--out", help="write the augmented config to this path")
    ps.set_defaults(func=cmd_synthesize)

    pm = sub.add_parser("simulate", help="run exact simulations and export trajectories")
    pm.add_argument("config")
    pm.add_argument("--trials", type=int, default=1)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--horizon", type=int, default=None)
    pm.add_argument("--out", help="write trajectory data to this path")
    pm.add_argument("--format", choices=("csv", "json"), default="csv")
    pm.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("cycles", help="cycle/tree structure of the autonomous map x -> Ax")
    pc.add_argument("config")
    pc.add_argument("--poly", action="store_true",
                    help="accepted and ignored: the characteristic-polynomial route is the only one")
    pc.add_argument("--out", help="write the report to this path")
    pc.set_defaults(func=cmd_cycles)
    return parser, {"analyze": pa, "synthesize": ps, "simulate": pm, "cycles": pc}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
            if extra:  # the top parser names them, as in a two-level parse
                parser.error("unrecognized arguments: " + " ".join(extra))
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after -h
        if exc.code != 2:
            raise
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader closed stdout early (`... | head`); send what is still
        # buffered to devnull so the interpreter's final flush does not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    except OSError as exc:  # configs are read in load_config: this is --out
        print(f"error: --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
