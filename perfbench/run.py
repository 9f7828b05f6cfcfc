"""Outside-in benchmark of the qnpflow CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in CHILDREN fresh
single-threaded interpreters (child.py), one after another. Each one imports
qnpflow, makes the workload's inputs from the seed, and then repeats the
workload's pass of `qnpflow.cli.main(argv)` calls for its share of S
seconds. Every call's output is checked, and every pass's artifacts are hashed
and compared byte for byte with the first pass of the same seed.

Workloads and sizes (one pass each):
  dataset-nominal   dataset --n 500 --range 0.8 1.2, 4 times with seeds 4S..4S+3
                    (the paper's 2000 samples, in four calls)
  dataset-stressed  dataset --n 500 --range 1.0 5.5, 4 times with seeds 4S..4S+3
                    (2000 samples near voltage collapse)
  activation        activation simulate --spin 1/2 --points 5, then --spin 5/2
  train             setup: dataset --n 2000; pass: train --preset table3 --beta B
                    then evaluate --split test, for B in 2.22 2.78 3.33 4.1

With --trace 0 the last line holds the end-to-end metrics of BENCHMARK.json.
Both timings are at reference speed (reference.py): each stretch of wall time
is scaled by REF_S over the reference computation's time measured right
before and after it, which cancels the drift of a shared host's CPU speed.
  setup_s          median over the interpreters of spawn-to-inputs-ready time
  items_per_s      work items of all untraced passes over their summed time;
                   an item is a requested sample (dataset-*), a curve point
                   (activation) or one training row for one epoch (train)
  converged_share  samples that Newton-Raphson solved, curve points that
                   reached steady state before the collision cap, or training
                   runs whose MSE fell tenfold, over all of them
  peak_rss_mb      largest peak resident set of the interpreters
With --trace 1 it holds the per-layer metrics, taken from spans around the
public functions of each module (spans.py), and a table of each layer's self
time and share of traced wall is printed above it. `wall.setup_s` and
`wall.items_per_s` are the two timings in plain wall seconds, and
`reference.speed` is REF_S over the median reference time (above 1 when the
machine ran faster than where REF_S was fixed). `attempted` counts CLI
calls; `failed` counts calls that exited non-zero or failed a check.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILDREN = 3
CHILD_GRACE_S = 120.0  # time an interpreter may take beyond its budget before it is killed
WORK_DIR = ROOT / ".perfbench_work"
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def _spawn(workload: str, seed: int, budget: float, trace: int) -> tuple[float, float, dict]:
    """Run one child; return its spawn-to-ready time, the reference time
    measured right before the spawn, and the child's RESULT document."""
    WORK_DIR.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--trace", str(trace)]
    ready = result = None
    ref_before = reference.reference_s()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(budget + CHILD_GRACE_S, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            tag, _, doc = line.partition(" ")
            if tag == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif tag == "RESULT":
                result = json.loads(doc)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(cwd, ignore_errors=True)
    if ready is None or result is None or proc.returncode != 0:
        raise HarnessError(f"{workload} interpreter exited {proc.returncode} without a result")
    return ready, ref_before, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload's interpreters and reduce their results to metrics."""
    setups, norm_setups, results = [], [], []
    timed = 0.0
    for k in range(CHILDREN):
        budget = max(seconds - timed, 0.0) / (CHILDREN - k)
        setup_s, ref_before, res = _spawn(workload, seed, budget, trace)
        setups.append(setup_s)
        norm_setups.append(reference.normalised(setup_s, ref_before, res["refs"][0]))
        results.append(res)
        timed += res["used_s"]

    first = results[0]["digests"]
    differing = [f"{out}: artifacts differ between interpreters of one seed"
                 for res in results[1:] for out in first if res["digests"].get(out) != first[out]]
    items = sum(sum(res["items"]) for res in results)
    e2e = {
        "setup_s": statistics.median(norm_setups),
        "items_per_s": items / sum(sum(res["norm_walls"]) for res in results),
        "converged_share": sum(r["useful"] for r in results) / max(sum(r["units"] for r in results), 1),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
    }
    wall = {
        "wall.setup_s": statistics.median(setups),
        "wall.items_per_s": items / sum(sum(res["raw_walls"]) for res in results),
        "reference.speed": reference.REF_S / statistics.median(r for res in results for r in res["refs"]),
    }
    layers = {}
    if trace:
        layers = {name: statistics.median(res["layers"][name] for res in results)
                  for name in results[0]["layers"]}
        layers.update(wall)
    return {
        "attempted": sum(res["calls"] for res in results),
        "failed": sum(res["failed"] for res in results) + len(differing),
        "errors": [e for res in results for e in res["errors"]] + differing,
        "metrics": layers if trace else e2e,
        "digest": hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest(),
        "passes": sum(len(res["items"]) for res in results),
        "wall": wall,
        "test_mse": results[0]["test_mse"],
        "environment": results[0]["environment"],
    }


def _contract(trace: int) -> list[dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace else "end_to_end"]


def _report(workload: str, run: dict, contract: list[dict], trace: int) -> dict:
    """Print the human-readable lines of one workload; return its metrics."""
    print(f"[{workload}] environment {json.dumps(run['environment'], sort_keys=True)}")
    print(f"[{workload}] artifacts sha256 {run['digest']} over {run['passes']} untraced passes; "
          f"{run['attempted']} calls, {run['failed']} failed")
    for error in run["errors"]:
        print(f"[{workload}] FAILED {error}")
    print(f"[{workload}] plain wall time: " + ", ".join(f"{k} = {v:.6g}" for k, v in run["wall"].items()))
    if run["test_mse"] is not None:
        print(f"[{workload}] median final test MSE over the betas {run['test_mse']!r}")
    metrics = {}
    for spec in contract:
        if spec["name"] not in run["metrics"]:
            raise HarnessError(f"no value for metric {spec['name']}")
        metrics[spec["name"]] = {"value": run["metrics"][spec["name"]], "unit": spec["unit"]}
        if not trace:
            print(f"[{workload}] {spec['name']} = {run['metrics'][spec['name']]:.6g} {spec['unit']}")
    if trace:
        m = run["metrics"]
        wall = m["trace.wall_s"]
        print(f"[{workload}] traced pass {wall:.3f} s, tracing overhead {m['trace.overhead_s']:.3f} s")
        print(f"[{workload}] {'layer':<26} {'calls':>9} {'self_s':>9} {'self%':>6} {'incl%':>6}  predicts")
        for _, _, name in spans.SPANS:
            if m[f"{name}.calls"]:
                print(f"[{workload}] {name:<26} {m[name + '.calls']:>9.0f} {m[name + '.self_s']:>9.4f} "
                      f"{100 * m[name + '.self_s'] / wall:>6.1f} {100 * m[name + '.s'] / wall:>6.1f}  "
                      f"{spans.PREDICTS[name]}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        for needed in ("src/qnpflow/cli.py", "networks/paper4bus", "BENCHMARK.json"):
            if not (ROOT / needed).is_file():
                raise HarnessError(f"{needed} not found under {ROOT}")
        contract = _contract(args.trace)
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for name in names:
            try:
                run = run_workload(name, args.seed, args.seconds, args.trace)
                found = _report(name, run, contract, args.trace)
            except HarnessError as exc:
                if args.workload != "all":
                    raise
                print(f"[{name}] FAILED: {exc}", file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            attempted += run["attempted"]
            failed += run["failed"]
            if args.workload == "all":
                found = {f"{name}.{k}": v for k, v in found.items()}
            metrics.update(found)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
