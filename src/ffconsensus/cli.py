"""Command-line front end: analyze | synthesize | simulate | cycles.

Scenario configs are single JSON documents.  Matrix and vector entries
are reduced mod p on load (with a warning to stderr when the reduction
changed a value); edge weights that reduce to 0 are rejected, since a
zero weight means "no edge".  Exit codes for ``analyze``: 0 consensus
guaranteed, 2 impossible, 3 inconclusive; malformed configs and usage
errors exit 1, as does a run whose reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .consensus import LeaderFollowerNetwork, SwitchingSignal, analyze, convergence_bound
from .field import PrimeField, is_prime
from .graphs import WeightedDigraphFF
from .linsys import DEFAULT_STATE_BOUND, LinearSystemFF, autonomous_cycle_structure
from .matrix import MatrixFF, VectorFF
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


def _reduced(value: int, p: int, field_path: str) -> int:
    r = value % p
    if r != value:
        _warn(f"{field_path}: reduced {value} to {r} (mod {p})")
    return r


@dataclass
class ScenarioConfig:
    """Canonical, validated scenario: everything already reduced mod p."""

    p: int
    n: int
    num_followers: int
    a_rows: list[list[int]]
    b_entries: list[int]
    k_entries: list[int] | None
    graph_edges: list[list[tuple[int, int, int]]]
    switching: dict | None
    steps: int | None
    init: dict | None

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        _require(isinstance(doc, dict), "<root>", "config must be a JSON object")
        for key in ("p", "n", "N", "A", "b", "graphs"):
            _require(key in doc, key, "required field is missing")

        p = _int_at(doc["p"], "p")
        try:
            prime = is_prime(p)
        except ValueError as exc:
            raise ConfigError("p", str(exc)) from exc
        _require(prime, "p", f"{p} is not prime")
        n = _int_at(doc["n"], "n")
        _require(n >= 1, "n", "state dimension must be >= 1")
        N = _int_at(doc["N"], "N")
        _require(N >= 1, "N", "follower count must be >= 1")

        a_in = doc["A"]
        _require(isinstance(a_in, list) and len(a_in) == n, "A", f"expected {n} rows")
        a_rows = []
        for i, row in enumerate(a_in):
            _require(isinstance(row, list) and len(row) == n, f"A[{i}]", f"expected {n} entries")
            a_rows.append([_reduced(_int_at(v, f"A[{i}][{j}]"), p, f"A[{i}][{j}]") for j, v in enumerate(row)])

        b_in = doc["b"]
        _require(isinstance(b_in, list) and len(b_in) == n, "b", f"expected {n} entries")
        b_entries = [_reduced(_int_at(v, f"b[{i}]"), p, f"b[{i}]") for i, v in enumerate(b_in)]

        k_entries = None
        if doc.get("K") is not None:
            k_in = doc["K"]
            _require(isinstance(k_in, list) and len(k_in) == n, "K", f"expected {n} entries")
            k_entries = [_reduced(_int_at(v, f"K[{i}]"), p, f"K[{i}]") for i, v in enumerate(k_in)]

        graphs_in = doc["graphs"]
        _require(isinstance(graphs_in, list) and len(graphs_in) >= 1, "graphs", "expected a nonempty list")
        graph_edges: list[list[tuple[int, int, int]]] = []
        for gi, edges in enumerate(graphs_in):
            _require(isinstance(edges, list), f"graphs[{gi}]", "expected an edge list")
            seen: set[tuple[int, int]] = set()
            out = []
            for ei, e in enumerate(edges):
                path = f"graphs[{gi}][{ei}]"
                _require(isinstance(e, list) and len(e) == 3, path, "expected [source, target, weight]")
                src = _int_at(e[0], path + "[0]")
                tgt = _int_at(e[1], path + "[1]")
                w_raw = _int_at(e[2], path + "[2]")
                _require(0 <= src <= N, path, f"source {src} out of range 0..{N}")
                _require(1 <= tgt <= N, path, f"target {tgt} must be a follower 1..{N}")
                _require((src, tgt) not in seen, path, f"duplicate edge ({src}->{tgt})")
                w = w_raw % p
                if w != w_raw:
                    _warn(f"{path}: reduced weight {w_raw} to {w} (mod {p})")
                _require(w != 0, path, f"weight {w_raw} is 0 mod {p}: not an edge")
                seen.add((src, tgt))
                out.append((src, tgt, w))
            graph_edges.append(out)

        switching = None
        if doc.get("switching") is not None:
            sw = doc["switching"]
            _require(isinstance(sw, dict), "switching", "expected an object")
            kind = sw.get("kind")
            _require(kind in ("explicit", "periodic", "random"), "switching.kind",
                     "expected one of explicit|periodic|random")
            switching = {"kind": kind}
            if kind in ("explicit", "periodic"):
                seq = sw.get("sequence")
                _require(isinstance(seq, list) and seq, "switching.sequence", "expected a nonempty list")
                idx = [_int_at(v, f"switching.sequence[{i}]") for i, v in enumerate(seq)]
                bad = [v for v in idx if not (0 <= v < len(graph_edges))]
                _require(not bad, "switching.sequence", f"graph indices {bad} out of range")
                switching["sequence"] = idx
            else:
                switching["seed"] = _int_at(sw.get("seed", 0), "switching.seed")

        steps = None
        if doc.get("steps") is not None:
            steps = _int_at(doc["steps"], "steps")
            _require(steps >= 1, "steps", "horizon must be >= 1")

        init = None
        if doc.get("init") is not None:
            raw = doc["init"]
            _require(isinstance(raw, dict), "init", "expected an object")
            if "states" in raw:
                st = raw["states"]
                _require(isinstance(st, dict), "init.states", "expected an object")
                leader = st.get("leader")
                _require(isinstance(leader, list) and len(leader) == n, "init.states.leader",
                         f"expected {n} entries")
                followers = st.get("followers")
                _require(isinstance(followers, list) and len(followers) == N, "init.states.followers",
                         f"expected {N} rows")
                lead = [_reduced(_int_at(v, f"init.states.leader[{i}]"), p, f"init.states.leader[{i}]")
                        for i, v in enumerate(leader)]
                fols = []
                for fi, row in enumerate(followers):
                    path = f"init.states.followers[{fi}]"
                    _require(isinstance(row, list) and len(row) == n, path, f"expected {n} entries")
                    fols.append([_reduced(_int_at(v, f"{path}[{i}]"), p, f"{path}[{i}]")
                                 for i, v in enumerate(row)])
                init = {"states": {"leader": lead, "followers": fols}}
            elif "seed" in raw:
                init = {"seed": _int_at(raw["seed"], "init.seed")}
            else:
                raise ConfigError("init", "expected either 'states' or 'seed'")

        return cls(
            p=p, n=n, num_followers=N, a_rows=a_rows, b_entries=b_entries,
            k_entries=k_entries, graph_edges=graph_edges, switching=switching,
            steps=steps, init=init,
        )

    # -- canonical form -------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {
            "p": self.p,
            "n": self.n,
            "N": self.num_followers,
            "A": [row[:] for row in self.a_rows],
            "b": self.b_entries[:],
        }
        if self.k_entries is not None:
            doc["K"] = self.k_entries[:]
        doc["graphs"] = [[[s, t, w] for (s, t, w) in edges] for edges in self.graph_edges]
        if self.switching is not None:
            doc["switching"] = dict(self.switching)
        if self.steps is not None:
            doc["steps"] = self.steps
        if self.init is not None:
            doc["init"] = json.loads(json.dumps(self.init))
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- object construction ---------------------------------------------

    def field(self) -> PrimeField:
        return PrimeField(self.p)

    def network(self) -> LeaderFollowerNetwork:
        field = self.field()
        sys_pair = LinearSystemFF(
            MatrixFF(field, self.a_rows), MatrixFF.column(field, self.b_entries)
        )
        graphs = tuple(
            WeightedDigraphFF(field, self.num_followers, edges) for edges in self.graph_edges
        )
        gain = MatrixFF.row_vector(field, self.k_entries) if self.k_entries is not None else None
        return LeaderFollowerNetwork(sys=sys_pair, graphs=graphs, gain=gain)

    def signal(self, seed_offset: int = 0) -> SwitchingSignal:
        q = len(self.graph_edges)
        if self.switching is None:
            if q == 1:
                return SwitchingSignal(kind="periodic", num_graphs=1, sequence=(0,))
            return SwitchingSignal(kind="random", num_graphs=q, seed=seed_offset)
        kind = self.switching["kind"]
        if kind == "random":
            return SwitchingSignal(kind="random", num_graphs=q,
                                   seed=self.switching.get("seed", 0) + seed_offset)
        return SwitchingSignal(kind=kind, num_graphs=q,
                               sequence=tuple(self.switching["sequence"]))


def load_config(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError("<file>", f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(doc)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        print(text)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    net = cfg.network()
    # several graphs driven by a constant signal are a static scenario
    constant_index = None
    if len(net.graphs) > 1 and cfg.switching is not None:
        seq = cfg.switching.get("sequence")
        if cfg.switching["kind"] in ("explicit", "periodic") and seq and len(set(seq)) == 1:
            constant_index = seq[0]
    if constant_index is not None:
        from .consensus import check_static

        report = check_static(net, graph_index=constant_index)
        report.diagnostics["constant_signal_graph"] = constant_index
    else:
        report = analyze(net)
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    return _VERDICT_EXIT[report.verdict]


def cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    if cfg.k_entries is not None:
        print("error: config already contains a gain K; remove it to re-synthesize",
              file=sys.stderr)
        return EXIT_CONFIG
    net = cfg.network()
    report = analyze(net)
    if report.verdict != "guaranteed":
        print(f"synthesis refused: {report.reason}", file=sys.stderr)
        return _VERDICT_EXIT[report.verdict]
    k_row = report.witness["synthesized_gain"]
    # every follower of every graph shares the witness closed loop: A - d*bK
    # for the deadbeat gain, A itself for the zero gain
    degree = report.witness.get("gain_certificate_degree")
    if degree is None:
        degree = net.sys.A.nilpotent_degree()
    closed_degrees = {
        f"graph{gi}.follower{i}": degree
        for gi, g in enumerate(net.graphs) for i in range(1, g.num_followers + 1)
    }
    doc = cfg.to_dict()
    doc["K"] = k_row
    doc["certificate"] = {
        "closed_loop_nilpotent_degrees": closed_degrees,
        "degree_bound": cfg.n,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def _trajectory_rows(traj) -> list[tuple[int, int, int]]:
    rows = []
    for k, errs in enumerate(traj.errors):
        for agent, e in enumerate(errs, start=1):
            rows.append((k, agent, e))
    return rows


def _traj_csv(traj) -> str:
    lines = ["step,agent,error"]
    lines.extend(f"{k},{a},{e}" for k, a, e in _trajectory_rows(traj))
    return "\n".join(lines) + "\n"


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
                "leader": s.leader.to_ints(),
                "followers": [f.to_ints() for f in s.followers],
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
        bound = convergence_bound(net)
    except ValueError:
        bound = None
    horizon = args.horizon if args.horizon is not None else cfg.steps
    if horizon is None:
        horizon = bound + 5 if bound is not None else 4 * cfg.num_followers * cfg.n
    if cfg.switching is not None and cfg.switching["kind"] == "explicit":
        length = len(cfg.switching["sequence"])
        _require(length >= horizon, "switching.sequence",
                 f"explicit sequence has {length} entries but the simulation horizon is {horizon}")

    summary_stream = sys.stdout if args.out else sys.stderr
    field = cfg.field()
    config_hash = cfg.config_hash()
    trials = []
    for t in range(args.trials):
        init_seed = None
        if cfg.init is not None and "states" in cfg.init:
            st = cfg.init["states"]
            init = NetworkState(
                step=0,
                leader=VectorFF(field, st["leader"]),
                followers=tuple(VectorFF(field, row) for row in st["followers"]),
            )
        else:
            base = cfg.init["seed"] if cfg.init is not None else args.seed
            init_seed = base + 1000003 * t
            init = random_state(field, cfg.n, cfg.num_followers, random.Random(init_seed))
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
            stem = Path(args.out)
            for t, traj in enumerate(trials):
                path = stem.with_name(f"{stem.stem}_trial{t}{stem.suffix}")
                path.write_text(_traj_csv(traj))
        else:
            _emit("".join(_traj_csv(tr) for tr in trials).rstrip("\n"), args.out)
    else:
        doc = {
            "config_hash": config_hash,
            "horizon": horizon,
            "bound": bound,
            "trials": [_traj_json(tr, t, bound) for t, tr in enumerate(trials)],
        }
        _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_cycles(args) -> int:
    cfg = load_config(args.config)
    field = cfg.field()
    A = MatrixFF(field, cfg.a_rows)
    total = cfg.p**cfg.n
    if args.poly:
        cs = autonomous_cycle_structure(A, mode="polynomial")
    else:
        if total > DEFAULT_STATE_BOUND:
            print(
                f"error: state space size {total} exceeds the enumeration bound "
                f"{DEFAULT_STATE_BOUND}; rerun with --poly",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        cs = autonomous_cycle_structure(A, mode="enumeration")

    lines = [
        f"method: {cs.method}",
        f"states: {cs.total_states}",
        f"tree depth: {cs.tree_depth}",
        f"transient states: {cs.transient_states}",
        "cycles (length x count): "
        + ", ".join(f"{length}x{cs.cycles[length]}" for length in sorted(cs.cycles)),
    ]
    if cs.factor_orders is not None:
        lines.append("bijective-part factors (factor | ascending coeffs | multiplicity | order of x):")
        for g, mult, order in cs.factor_orders:
            lines.append(f"  {g.format()} | {g.coefficient_list()} | {mult} | {order}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
                    help="use the characteristic-polynomial route instead of enumeration")
    pc.add_argument("--out", help="write the report to this path")
    pc.set_defaults(func=cmd_cycles)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused: building
    it costs about a millisecond, paid once per process, not per command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
