"""ffconsensus benchmark: one command, three measured seeded workloads.

Run from the repository root (stdlib only, nothing to build):

    python3 perfbench/run.py --workload large-static --seed 1 --seconds 20 --trace 0

Workloads (see gen.py for the strata):
  large-static  large acyclic networks: analyze, synthesize, analyze with
                the gain (the dense Kronecker nilpotency test dominates)
  sweep         a parameter study of small-to-mid scenarios: analyze, then
                synthesize and simulate when consensus is guaranteed
  cycles        cycle structure of x -> Ax, by enumeration and --poly

and, not in BENCHMARK.json because its outputs fail the checks at this
version of the program (see gen.KNOWN_DEFECTS_SWEEP):
  known-defects supplied gains that do not work, explicit switching
                shorter than the horizon, --poly on non-cyclic matrices

The workload runs in a child process (worker.py) that calls
ffconsensus.cli.main in-process, one command after another.  After it
exits this process reads its peak memory, times fresh interpreters
importing ffconsensus.cli (setup_s), checks every output (checks.py) and
prints a report followed by one JSON line:

  --trace 0: the end-to-end metrics wall_norm, setup_s, peak_rss_mb
             (wall_s, per-command latencies and fail_ratio are printed
             in the report).  wall_norm and setup_s are divided by a
             calibration loop timed beside them (worker.calibrate): the
             speed of a machine with shared cores drifts by tens of
             percent over minutes, the program's work does not;
  --trace 1: the per-layer metrics of tracing.py, plus the tracing
             overhead (traced minus untraced pass time).

Exit status is nonzero, with no JSON line, when the program cannot be
found or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import gen
import worker

END_TO_END_UNITS = {"wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
COMMANDS = ("analyze", "synthesize", "simulate", "cycles_enum", "cycles_poly")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
SETUP_REPS = 21
WORKER_TIMEOUT_S = 170


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("distinct_ratio", "per_command")):
        return "ratio"
    if name.endswith("max_dim"):
        return "rows"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in TAIL_PERCENTILES:
        if len(ordered) - math.ceil(q / 100 * len(ordered)) >= 10:
            return q, percentile(ordered, q)
    return None


def spawn_seconds(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(env: dict) -> tuple[float, float, float]:
    """Wall time of a fresh interpreter importing ffconsensus.cli,
    interleaved with bare interpreter starts.

    Returns the median import time scaled to the calibration loop's
    reference speed (each time multiplied by worker.CALIBRATION_REF_S over
    the mean of the calibrations run just before and after it, as for
    wall_norm), then the measured medians of the import and bare starts.
    """
    imp = [sys.executable, "-c", "import ffconsensus.cli"]
    bare = [sys.executable, "-c", "pass"]
    spawn_seconds(imp, env)  # writes the bytecode cache once
    scaled, imports, bares = [], [], []
    for _ in range(SETUP_REPS):
        before = worker.calibrate()
        t = spawn_seconds(imp, env)
        after = worker.calibrate()
        imports.append(t)
        scaled.append(t * worker.CALIBRATION_REF_S / ((before + after) / 2))
        bares.append(spawn_seconds(bare, env))
    return statistics.median(scaled), statistics.median(imports), statistics.median(bares)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(gen.PASS_BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "ffconsensus" / "cli.py").is_file():
        print(f"error: {src / 'ffconsensus'} not found; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        worker = [sys.executable, str(Path(__file__).with_name("worker.py")),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(work)]
        proc = subprocess.run(worker, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}\n{proc.stderr[-4000:]}", file=sys.stderr)
            return 1
        records = [json.loads(line) for line in (work / "results.jsonl").read_text().splitlines()]
        items = [r for r in records if r["type"] == "item"]
        ops = [r for r in records if r["type"] == "op"]
        passes = [r for r in records if r["type"] == "pass"]
        checker = checks.check_all(items, ops)
        setup = measure_setup(env) if args.trace == 0 else None
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted, failed = len(ops), len(checker.failed)
    untraced = [p for p in passes if not p["traced"]]
    traced_ids = {p["pass"] for p in passes if p["traced"]}
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    wall_norm = statistics.median(p["wall_norm"] for p in untraced)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(traced_ids)} traced)  closed loop, 1 client, in-process cli.main")
    print(f"wall_s {fmt(wall_s)} s  (median over {len(untraced)} untraced passes)")
    print(f"wall_norm {fmt(wall_norm)} ref  (the same, in units of the calibration loop timed beside it)")
    for cmd in COMMANDS:
        ms = [op["ms"] for op in ops if op["cmd"] == cmd and op["pass"] not in traced_ids]
        if not ms:
            continue
        print(f"{cmd}_p50_ms {fmt(statistics.median(ms))} ms  (n={len(ms)})")
        t = tail(ms)
        if t is not None:
            print(f"{cmd}_tail_ms {fmt(t[1])} ms  (p{t[0]:g}, n={len(ms)})")
    if setup is not None:
        print(f"setup_s {fmt(setup[0])} s  (import ffconsensus.cli at the calibration loop's reference "
              f"speed, median of {SETUP_REPS}; measured {fmt(setup[1])} s, bare interpreter {fmt(setup[2])} s)")
    print(f"peak_rss_mb {fmt(peak_rss_mb)} MB  (worker process, RUSAGE_CHILDREN)")
    print(f"fail_ratio {fmt(failed / attempted)} ratio  (failed {failed} / attempted {attempted}; "
          f"refusals {checker.refusals})")
    print("  failures / checks run: " + ", ".join(
        f"{k}={v}/{checker.ran[k]}" for k, v in checker.refuted.items()))
    for line in checker.details:
        print(f"  {line}")

    if args.trace == 0:
        values = {"wall_norm": wall_norm, "setup_s": setup[0], "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        trace = next(r for r in records if r["type"] == "trace")
        if trace["missing"]:
            print(f"  not traced (absent): {', '.join(trace['missing'])}")
        layer = dict(trace["metrics"])
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        layer["cli.output_bytes"] = sum(op["out_bytes"] for op in ops if op["pass"] in traced_ids) / len(traced_ids)
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - wall_s
        print(f"tracing overhead {fmt(traced_wall - wall_s)} s per pass "
              f"(traced {fmt(traced_wall)} s vs untraced {fmt(wall_s)} s)")
        for name, value in layer.items():
            note = "  (computed from shapes)" if name == "matrix.matmul.madds" else ""
            print(f"{name} {fmt(value)} {layer_unit(name)}{note}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
