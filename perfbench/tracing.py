"""Per-layer tracing of ffconsensus from outside the package.

The tracer wraps the package's functions and methods where they are
looked up: a module-level function is replaced in every ffconsensus
module that holds it (the package imports with ``from .x import y``, so
``consensus.kron`` and ``cli.simulate`` are separate names for the same
function), a method is replaced on its class.  Timed wrappers keep a
span stack, so each span's self time is its duration minus the time of
the spans it caused.  Very hot functions are only counted; their time
stays in the caller's self time.  ``uninstall`` restores every original.

Which end-to-end figure each layer should move (wall_norm, and the
per-command latencies printed by run.py):
- matrix.matmul/kron/is_nilpotent/nilpotent_degree and
  consensus.error_dynamics_matrix: analyze on large-static; simulate on
  sweep (convergence_bound re-runs analyze); flat on cycles.
- consensus.analyze/convergence_bound/synthesize_gain/
  blockwise_nilpotency_check, linsys.kalman_decompose/deadbeat_gain,
  graphs.*, matrix.rank/inverse, field.scalar: analyze, synthesize and
  simulate on sweep (repeated facts: see the distinct_ratio figures).
- sim.simulate/step, sim.agent_steps, matrix.matvec, graphs.weight:
  simulate on sweep; flat on large-static and cycles.
- linsys.cycles_enum: cycles_enum latency and peak memory on cycles.
- linsys.cycles_poly, matrix.char_poly, poly.*: cycles_poly on cycles.
- cli.load_config, cli.main self time, cli.output_bytes: every latency
  on sweep, where scenarios are smallest.
"""

from __future__ import annotations

import sys
import time


class _Stat:
    __slots__ = ("calls", "self_s", "max_dim", "work", "distinct", "seen")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.max_dim = 0
        self.work = 0  # madds, agent steps or states, per span kind
        self.distinct = 0
        self.seen: set = set()


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, select, note=None):
        """Wrap fn in a span; ``select(args, kwargs)`` names the span's stat."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = select(args, kwargs)
            st.calls += 1
            if note is not None:
                note(st, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur

        return wrapper

    def span(self, name, fn, note=None):
        st = self.stat(name)
        return self._timed(fn, lambda a, k: st, note)

    def counter(self, name, fn):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch_function(self, module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "ffconsensus" and not name.startswith("ffconsensus."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, make):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def install(self):
        from ffconsensus import cli, consensus, field, graphs, linsys, matrix, poly, sim

        M = matrix.MatrixFF
        G = graphs.WeightedDigraphFF

        def max_dim(dim):
            def note(st, args, kwargs):
                st.max_dim = max(st.max_dim, dim(args))
            return note

        def distinct(key):
            def note(st, args, kwargs):
                st.seen.add(key(args))
            return note

        def dim_and_distinct(st, args, kwargs):
            st.max_dim = max(st.max_dim, args[0].rows)
            st.seen.add(hash(args[0]))

        # matrix products: matrix-vector products are only counted
        matmul = self.stat("matrix.matmul")
        matvec = self.stat("matrix.matvec")

        def make_matmul(orig):
            timed = self._timed(orig, lambda a, k: matmul, self._note_matmul)

            def wrapper(a, b):
                if isinstance(b, matrix.VectorFF):
                    matvec.calls += 1
                    return orig(a, b)
                return timed(a, b)

            return wrapper

        self._patch_method(M, "__matmul__", make_matmul)
        self._patch_function(matrix, "kron", lambda f: self.span(
            "matrix.kron", f, max_dim(lambda a: a[0].rows * a[1].rows)))
        self._patch_method(M, "is_nilpotent", lambda f: self.span(
            "matrix.is_nilpotent", f, dim_and_distinct))
        for attr in ("nilpotent_degree", "rank", "inverse", "char_poly"):
            self._patch_method(M, attr, lambda f, attr=attr: self.span(f"matrix.{attr}", f))
        self._patch_method(field.PrimeField, "scalar", lambda f: self.counter("field.scalar", f))

        self._patch_method(poly.PolyFF, "__divmod__", lambda f: self.counter("poly.divmod", f))
        for attr in ("factor", "pow_x_mod"):
            self._patch_function(poly, attr, lambda f, attr=attr: self.span(f"poly.{attr}", f))

        self._patch_function(linsys, "kalman_decompose", lambda f: self.span(
            "linsys.kalman_decompose", f, distinct(lambda a: hash(a[0]))))
        self._patch_function(linsys, "deadbeat_gain", lambda f: self.span("linsys.deadbeat_gain", f))
        enum, polymode = self.stat("linsys.cycles_enum"), self.stat("linsys.cycles_poly")

        def cycles_mode(args, kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "enumeration")
            return polymode if mode == "polynomial" else enum

        def cycles_states(st, args, kwargs):
            if st is enum:
                st.work += args[0].field.p ** args[0].rows

        self._patch_function(linsys, "autonomous_cycle_structure", lambda f: self._timed(
            f, cycles_mode, cycles_states))

        for attr in ("is_dag", "in_degrees"):
            self._patch_method(G, attr, lambda f, attr=attr: self.span(
                f"graphs.{attr}", f, distinct(lambda a: hash(a[0]))))
        self._patch_method(G, "adjacency_matrices", lambda f: self.span("graphs.adjacency_matrices", f))
        self._patch_method(G, "weight", lambda f: self.counter("graphs.weight", f))
        self._patch_function(graphs, "union", lambda f: self.counter("graphs.union", f))

        self._patch_function(consensus, "error_dynamics_matrix", lambda f: self.span(
            "consensus.error_dynamics_matrix", f,
            max_dim(lambda a: a[0].num_followers * a[0].sys.dim)))
        for attr in ("check_static", "check_switching"):
            self._patch_function(consensus, attr, lambda f: self.span("consensus.analyze", f))
        for attr in ("convergence_bound", "synthesize_gain", "blockwise_nilpotency_check"):
            self._patch_function(consensus, attr, lambda f, attr=attr: self.span(f"consensus.{attr}", f))

        self._patch_function(sim, "simulate", lambda f: self.span("sim.simulate", f))

        def agent_steps(st, args, kwargs):
            st.work += args[0].num_followers

        self._patch_function(sim, "step", lambda f: self.span("sim.step", f, agent_steps))

        self._patch_function(cli, "load_config", lambda f: self.span("cli.load_config", f))
        self._patch_function(cli, "main", lambda f: self.span("cli.main", f))

    @staticmethod
    def _note_matmul(st, args, kwargs):
        a, b = args
        st.work += a.rows * a.cols * b.cols
        st.max_dim = max(st.max_dim, a.rows, b.cols)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def end_command(self):
        """Close the per-command distinct-input sets."""
        for st in self.stats.values():
            if st.seen:
                st.distinct += len(st.seen)
                st.seen.clear()


def layer_metrics(stats: dict[str, _Stat], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass (counts and times are averaged
    over passes; max_dim is the maximum; ratios use the totals)."""
    out: dict[str, float] = {}

    def get(name):
        return stats.get(name) or _Stat()

    timed = (
        "matrix.matmul", "matrix.kron", "matrix.is_nilpotent", "matrix.nilpotent_degree",
        "matrix.rank", "matrix.inverse", "matrix.char_poly",
        "consensus.error_dynamics_matrix", "consensus.analyze", "consensus.convergence_bound",
        "consensus.synthesize_gain", "consensus.blockwise_nilpotency_check",
        "linsys.kalman_decompose", "linsys.deadbeat_gain", "linsys.cycles_enum",
        "linsys.cycles_poly", "graphs.is_dag", "graphs.in_degrees", "graphs.adjacency_matrices",
        "sim.simulate", "sim.step", "poly.factor", "poly.pow_x_mod", "cli.load_config",
    )
    for name in timed:
        st = get(name)
        out[f"{name}.calls"] = st.calls / passes
        out[f"{name}.self_ms"] = st.self_s * 1000 / passes
    out["cli.main.self_ms"] = get("cli.main").self_s * 1000 / passes
    for name in ("graphs.weight", "field.scalar", "graphs.union", "poly.divmod", "matrix.matvec"):
        out[f"{name}.calls"] = get(name).calls / passes
    for name in ("matrix.kron", "matrix.is_nilpotent", "consensus.error_dynamics_matrix"):
        out[f"{name}.max_dim"] = get(name).max_dim
    for name in ("matrix.is_nilpotent", "linsys.kalman_decompose", "graphs.is_dag", "graphs.in_degrees"):
        st = get(name)
        out[f"{name}.distinct_ratio"] = st.distinct / st.calls if st.calls else 0.0
    out["matrix.matmul.madds"] = get("matrix.matmul").work / passes
    out["sim.agent_steps"] = get("sim.step").work / passes
    out["linsys.cycles_enum.states"] = get("linsys.cycles_enum").work / passes
    commands = get("cli.main").calls
    out["consensus.analyze_per_command"] = get("consensus.analyze").calls / commands if commands else 0.0
    return out
