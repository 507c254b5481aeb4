"""Benchmark worker: runs one workload's passes through ffconsensus.cli.main.

Started by run.py as a child process (so that its peak memory can be
read from RUSAGE_CHILDREN), with ``src`` on PYTHONPATH.  A single caller
issues each command after the previous one returns (closed loop, one
thread, in-process).  Configs for a pass are generated and written
before the pass is timed; results are written after it.  Passes repeat
until the timed total reaches ``--seconds`` (at least two passes).
Each pass also reports its time in units of a calibration loop run
between its commands (see ``calibrate``).

With ``--trace 1`` passes alternate untraced / traced, and the traced
passes also yield the per-layer metrics.

Output: ``results.jsonl`` in ``--dir`` with one line per item, command
and pass, and a final ``trace`` line in trace mode.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

import gen
from tracing import Tracer, layer_metrics

MIN_PASSES = 2
MAX_PASSES = 200
WALL_LIMIT_S = 150.0
CALIBRATE_EVERY_S = 0.25
CALIBRATION_REF_S = 0.015  # reference duration of calibrate() for scaled times


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work (integer matrix
    products mod p).  The machine's speed drifts by tens of percent over
    minutes when its cores are shared; timing this beside the program and
    dividing by it gives a pass time that does not drift with the machine.
    """
    t0 = time.perf_counter()
    p = 101
    a = [[(i * 7 + j * 13) % p for j in range(24)] for i in range(24)]
    for _ in range(12):
        a = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*a)] for row in a]
    return time.perf_counter() - t0


def run_pass(items, paths, call):
    """Run every item; returns (results, wall seconds, normalized wall).

    The normalized wall divides each stretch of about CALIBRATE_EVERY_S of
    program time by the mean of the calibrations taken just before and
    after it; calibration time is not counted in either figure.
    """
    results = []
    wall = norm = stretch = 0.0
    before = calibrate()
    for i, (item, path) in enumerate(zip(items, paths)):
        t0 = time.perf_counter()
        results.append(run_item(item, path, call))
        dt = time.perf_counter() - t0
        wall += dt
        stretch += dt
        if stretch >= CALIBRATE_EVERY_S or i == len(items) - 1:
            after = calibrate()
            norm += stretch / ((before + after) / 2)
            before, stretch = after, 0.0
    return results, wall, norm


def _call(main, argv):
    """Run one CLI command; returns the result record (timing inside)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception as e:  # an uncaught exception is a failed operation
            exc = f"{type(e).__name__}: {e}"
        ms = (time.perf_counter() - t0) * 1000
    return {"argv": argv, "exit": code, "exc": exc, "ms": ms,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_item(item, cfg_path: Path, call) -> list[dict]:
    """The command script a user would run for this item."""
    cfg = str(cfg_path)
    plan = item["plan"]
    if plan == "cycles":
        return [("cycles_enum", call(["cycles", cfg])), ("cycles_poly", call(["cycles", cfg, "--poly"]))]
    if plan == "poly":
        return [("cycles_poly", call(["cycles", cfg, "--poly"]))]
    if plan == "enum":
        return [("cycles_enum", call(["cycles", cfg]))]
    done = [("analyze", call(["analyze", cfg]))]
    if done[-1][1]["exit"] != 0:
        return done
    target = cfg
    if "K" not in item["config"]:
        syn = str(cfg_path.with_suffix(".syn.json"))
        done.append(("synthesize", call(["synthesize", cfg, "--out", syn])))
        if done[-1][1]["exit"] != 0:
            return done
        target = syn
    if plan == "synth-analyze":
        done.append(("analyze", call(["analyze", target])))
    else:
        done.append(("simulate", call(["simulate", target, "--trials", str(gen.SWEEP_TRIALS),
                                       "--seed", str(item["config"]["init"]["seed"])])))
    return done


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(gen.PASS_BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()

    from ffconsensus import cli

    work = Path(args.dir)
    builder = gen.PASS_BUILDERS[args.workload]
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    timed = wall = 0.0
    traced_passes = 0
    with open(work / "results.jsonl", "w") as log:
        k = 0
        while k < MIN_PASSES or (timed < args.seconds and k < MAX_PASSES
                                 and time.perf_counter() - start + wall < WALL_LIMIT_S):
            items = builder(args.seed, k)
            pdir = work / f"pass{k}"
            pdir.mkdir()
            paths = []
            for item in items:
                path = pdir / f"{item['name']}.json"
                path.write_text(json.dumps(item["config"], indent=1))
                paths.append(path)
            traced = bool(tracer) and k % 2 == 1
            if traced:
                tracer.install()

                def call(argv):  # cli.main is looked up per call: the wrapper runs
                    rec = _call(cli.main, argv)
                    tracer.end_command()
                    return rec
            else:
                def call(argv):
                    return _call(cli.main, argv)

            results, wall, norm = run_pass(items, paths, call)
            if traced:
                tracer.uninstall()
                traced_passes += 1
            timed += wall

            for item, path, ops in zip(items, paths, results):
                log.write(json.dumps({"type": "item", "pass": k, "name": item["name"],
                                      "plan": item["plan"], "expect": item["expect"],
                                      "config": str(path)}) + "\n")
                for cmd, rec in ops:
                    out_bytes = len(rec["stdout"].encode()) + len(rec["stderr"].encode())
                    if "--out" in rec["argv"]:
                        out = Path(rec["argv"][rec["argv"].index("--out") + 1])
                        if out.exists():
                            out_bytes += out.stat().st_size
                    log.write(json.dumps({"type": "op", "pass": k, "item": item["name"],
                                          "cmd": cmd, "out_bytes": out_bytes, **rec}) + "\n")
            log.write(json.dumps({"type": "pass", "pass": k, "wall_s": wall, "wall_norm": norm,
                                  "traced": traced}) + "\n")
            log.flush()
            k += 1

        if tracer:
            metrics = layer_metrics(tracer.stats, max(traced_passes, 1))
            log.write(json.dumps({"type": "trace", "metrics": metrics, "passes": traced_passes,
                                  "missing": tracer.missing}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
