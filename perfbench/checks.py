"""Output checks, run after the worker has exited (outside the timed region).

An operation is one CLI command.  It fails when it raised an uncaught
exception or when a check refutes its output; a clean exit 1 is a
refusal, counted apart.  The checks, by name:

- ``uncaught_exception``: the command raised instead of exiting.
- ``verdict_vs_construction``: a config that is achievable by
  construction (acyclic, uniform nonzero degree, controllable pair; or A
  nilpotent) must not be called impossible, and one that is impossible by
  construction (unstabilizable pair, or a graph with unequal or zero
  degrees) must not be called guaranteed.
- ``gain_certificate``: a synthesized K must make every closed loop
  A - d b K nilpotent, for each in-degree d of the config's graphs.
- ``sim_at_bound``: a guaranteed verdict with a bound is refuted when a
  simulated trial still has a nonzero error at that bound.
- ``oracle``: where p^(nN) is small, ``exhaustive_consensus_oracle``
  must confirm a guaranteed or impossible verdict (for the supplied gain
  when there is one, else for the witness gain, or for every gain).
- ``poly_matches_enum``: ``cycles --poly`` must match enumeration.
- ``state_count``: sum of length x count plus transient states is p^n.
- ``malformed_output``: an output the checks above cannot read.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import gen

CHECKS = (
    "uncaught_exception",
    "verdict_vs_construction",
    "gain_certificate",
    "sim_at_bound",
    "oracle",
    "poly_matches_enum",
    "state_count",
    "malformed_output",
)
ORACLE_STATES = 1024  # largest p^(nN) the oracle is run on
ORACLE_GAIN_STATES = 4096  # largest p^n * p^(nN) for "no gain works"

_CYCLES_RE = {
    "states": re.compile(r"^states: (\d+)$", re.M),
    "depth": re.compile(r"^tree depth: (\d+)$", re.M),
    "transient": re.compile(r"^transient states: (\d+)$", re.M),
    "cycles": re.compile(r"^cycles \(length x count\): (.*)$", re.M),
}


def parse_cycles(text: str) -> dict | None:
    found = {k: r.search(text) for k, r in _CYCLES_RE.items()}
    if not all(found.values()):
        return None
    cycles = {}
    for part in found["cycles"].group(1).split(","):
        if part.strip():
            length, count = part.strip().split("x")
            cycles[int(length)] = int(count)
    return {"states": int(found["states"].group(1)), "depth": int(found["depth"].group(1)),
            "transient": int(found["transient"].group(1)), "cycles": cycles}


def errors_at(csv_text: str, step: int) -> list[list[int]]:
    """Per trial, the follower errors at ``step`` (trials are concatenated
    CSV documents, each starting with its header)."""
    trials: list[list[int]] = []
    for line in csv_text.splitlines():
        if line == "step,agent,error":
            trials.append([])
            continue
        k, _, e = line.split(",")
        if int(k) == step and trials:
            trials[-1].append(int(e))
    return trials


def in_degrees(cfg: dict, graph: list) -> list[int]:
    degs = [0] * cfg["N"]
    for _, tgt, w in graph:
        degs[tgt - 1] += w
    return [d % cfg["p"] for d in degs]


def closed_loops_nilpotent(cfg: dict, K: list[int], degrees) -> bool:
    p, n = cfg["p"], cfg["n"]
    for d in set(degrees):
        m = [[(cfg["A"][i][j] - d * cfg["b"][i] * K[j]) % p for j in range(n)] for i in range(n)]
        if not gen.mat_pow_is_zero(m, n, p):
            return False
    return True


class Checker:
    def __init__(self):
        self.ran = {name: 0 for name in CHECKS}
        self.refuted = {name: 0 for name in CHECKS}
        self.failed: set[int] = set()
        self.refusals = 0
        self.details: list[str] = []

    def refute(self, check: str, op: dict, detail: str) -> None:
        self.refuted[check] += 1
        self.failed.add(op["id"])
        if len(self.details) < 20:
            self.details.append(f"{check}: {op['item']} ({op['cmd']}, pass {op['pass']}): {detail}")

    # -- per item -----------------------------------------------------------

    def check_item(self, item: dict, ops: list[dict]) -> None:
        live = []
        for op in ops:
            self.ran["uncaught_exception"] += 1
            if op["exc"] is not None:
                self.refute("uncaught_exception", op, op["exc"])
            elif op["exit"] == 1:
                self.refusals += 1
            else:
                live.append(op)
        cfg = json.loads(Path(item["config"]).read_text())
        self.ran["malformed_output"] += 1
        try:
            if item["plan"] in ("cycles", "poly", "enum"):
                self._check_cycles(cfg, live)
            else:
                self._check_consensus(item, cfg, live)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            if live:
                self.refute("malformed_output", live[-1], f"{type(exc).__name__}: {exc}")

    def _check_cycles(self, cfg: dict, ops: list[dict]) -> None:
        total = cfg["p"] ** cfg["n"]
        parsed = {}
        for op in ops:
            res = parse_cycles(op["stdout"])
            self.ran["state_count"] += 1
            if res is None or res["states"] != total or (
                    sum(l * c for l, c in res["cycles"].items()) + res["transient"] != total):
                self.refute("state_count", op, f"states do not add up to {total}: {res}")
                continue
            parsed[op["cmd"]] = (op, res)
        if "cycles_enum" in parsed and "cycles_poly" in parsed:
            self.ran["poly_matches_enum"] += 1
            enum, poly = parsed["cycles_enum"][1], parsed["cycles_poly"]
            if poly[1] != enum:
                self.refute("poly_matches_enum", poly[0],
                            f"poly {poly[1]['depth']}/{poly[1]['cycles']} vs "
                            f"enumeration {enum['depth']}/{enum['cycles']}")

    def _check_consensus(self, item: dict, cfg: dict, ops: list[dict]) -> None:
        achievable = item["expect"].get("achievable")
        report = None
        for op in ops:
            if op["cmd"] == "analyze":
                rep = json.loads(op["stdout"])
                if report is None:
                    report, report_op = rep, op
                verdict = rep["verdict"]
                self.ran["verdict_vs_construction"] += achievable is not None
                if (achievable is True and verdict == "impossible") or (
                        achievable is False and verdict == "guaranteed"):
                    self.refute("verdict_vs_construction", op,
                                f"verdict {verdict}, achievable by construction: {achievable}")
            elif op["cmd"] == "synthesize":
                syn = json.loads(Path(op["argv"][op["argv"].index("--out") + 1]).read_text())
                degrees = [d for g in cfg["graphs"] for d in in_degrees(cfg, g)]
                self.ran["gain_certificate"] += 1
                if not closed_loops_nilpotent(cfg, syn["K"], degrees):
                    self.refute("gain_certificate", op, f"K={syn['K']} leaves a closed loop non-nilpotent")
            elif op["cmd"] == "simulate" and report is not None:
                bound = _bound(report)
                if bound is not None:
                    self.ran["sim_at_bound"] += 1
                    for trial, errs in enumerate(errors_at(op["stdout"], bound)):
                        if any(errs):
                            self.refute("sim_at_bound", report_op,
                                        f"trial {trial} error {errs} at bound {bound}")
                            break
        if report is not None:
            self._check_oracle(cfg, report, report_op)

    def _check_oracle(self, cfg: dict, report: dict, op: dict) -> None:
        verdict = report["verdict"]
        p, n, N = cfg["p"], cfg["n"], cfg["N"]
        states = p ** (n * N)
        if verdict not in ("guaranteed", "impossible") or states > ORACLE_STATES:
            return
        from ffconsensus.cli import ScenarioConfig
        from ffconsensus.consensus import LeaderFollowerNetwork
        from ffconsensus.matrix import MatrixFF
        from ffconsensus.sim import exhaustive_consensus_oracle

        self.ran["oracle"] += 1
        net = ScenarioConfig.from_dict({**cfg, "K": None}).network()
        graphs = net.graphs
        const = report["diagnostics"].get("constant_signal_graph")
        if const is not None:
            graphs = (graphs[const],)

        def works(K, horizon):
            g = LeaderFollowerNetwork(sys=net.sys, graphs=graphs,
                                      gain=MatrixFF.row_vector(net.field, K))
            return exhaustive_consensus_oracle(g, horizon, all_signals=True, state_bound=states)

        if verdict == "guaranteed":
            K = cfg.get("K") or report["witness"].get("synthesized_gain")
            bound = _bound(report)
            if K is not None and bound is not None and not works(K, bound):
                self.refute("oracle", op, f"K={K} does not reach consensus from every state by {bound}")
            return
        # impossible: no gain (or not the supplied one) converges within N*n
        # steps under every signal
        if cfg.get("K") is not None:
            if works(cfg["K"], N * n):
                self.refute("oracle", op, f"supplied K={cfg['K']} reaches consensus")
        elif p**n * states <= ORACLE_GAIN_STATES:
            for K in itertools.product(range(p), repeat=n):
                if works(list(K), N * n):
                    self.refute("oracle", op, f"K={list(K)} reaches consensus")
                    break


def _bound(report: dict):
    bounds = report.get("bounds") or {}
    if report.get("mode") == "static" or report["diagnostics"].get("constant_signal_graph") is not None:
        return bounds.get("static")
    return bounds.get("switching")


def check_all(items: list[dict], ops: list[dict]) -> Checker:
    checker = Checker()
    by_item: dict[tuple, list[dict]] = {}
    for i, op in enumerate(ops):
        op["id"] = i
        by_item.setdefault((op["pass"], op["item"]), []).append(op)
    for item in items:
        checker.check_item(item, by_item.get((item["pass"], item["name"]), []))
    return checker
