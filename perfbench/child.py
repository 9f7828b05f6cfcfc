"""One benchmark interpreter: import qnpflow, make the inputs, run timed passes.

Started by run.py with the checkout's `src` on PYTHONPATH, BLAS pinned to one
thread, and a working directory two levels below the checkout root. It talks
to run.py over stdout: a `READY` line once the inputs are made, then a
`RESULT` line with everything it measured. It times the reference
computation (reference.py) right after the `READY` line and after every CLI
call, so that each timed call has a reference time on either side. The CLI's own stdout
goes to /dev/null; its stderr passes through.

    python3 child.py --workload NAME --seed N --budget SECONDS --trace 0|1
"""
from __future__ import annotations

import time

# Everything imported below counts towards setup.import_s.
START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from qnpflow import cli, dataset, neuralnet, powerflow, qsim  # noqa: E402

IMPORT_S = time.perf_counter() - START

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _emit(tag: str, doc: dict) -> None:
    sys.__stdout__.write(f"{tag} {json.dumps(doc)}\n")
    sys.__stdout__.flush()


def _digests(out: str) -> dict[str, str]:
    root = Path(out)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _closed_form(spin: float, u: float) -> float:
    """Criterion 4's closed form for the curve point at u, with the two
    reservoirs `transfer_curve` builds at the CLI's default coupling."""
    g = cli.SIMULATE_DEFAULTS["g"]
    return qsim.steady_state_closed_form([
        qsim.ReservoirSpec(theta=0.0, spin_j=spin, g=g * math.sqrt((1.0 + u) / 2.0)),
        qsim.ReservoirSpec(theta=math.pi, spin_j=spin, g=g * math.sqrt((1.0 - u) / 2.0)),
    ])


class Runner:
    """Runs calls through `cli.main`, checks each call's output, and keeps
    the train report that the check of criterion 7 needs."""

    def __init__(self):
        self.net = cli.load_network(workloads.NETWORK)
        self.tol = powerflow.SolveOptions().tol
        self.train_rows = 0
        self.report = None
        train = cli.train

        def keep_report(*args, **kwargs):
            params, report = train(*args, **kwargs)
            self.report = report
            return params, report

        cli.train = keep_report

    def call(self, call: workloads.Call) -> tuple[int, float]:
        self.report = None
        start = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start

    def check(self, call: workloads.Call) -> workloads.Outcome:
        out = Path(call.out)
        try:
            if call.kind == "dataset":
                return workloads.check_dataset(out, self.net, self.tol)
            if call.kind == "simulate":
                return workloads.check_simulate(out, _closed_form)
            if call.kind == "train":
                return workloads.check_train(self.report, self.train_rows)
            return workloads.check_evaluate(out)
        except (OSError, ValueError, KeyError) as exc:
            return workloads.Outcome(error=f"unreadable output: {exc!r}")


def _train_rows(prefix: str) -> int:
    meta = dataset.read_meta_json(f"{prefix}_meta.json")
    return sum(s.converged for s in dataset.read_dataset_csv(f"{prefix}_train.csv", meta))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed)
    runner = Runner()
    calls = failed = 0
    errors: list[str] = []

    def record(call, code, outcome):
        nonlocal calls, failed
        calls += 1
        if code != 0:
            failed += 1
            errors.append(f"{' '.join(call.argv[:2])}: exit {code}")
        elif outcome.error is not None:
            failed += 1
            errors.append(f"{' '.join(call.argv[:2])}: {outcome.error}")

    setup_codes = [runner.call(call)[0] for call in wl.setup]
    inputs_s = time.perf_counter() - START - IMPORT_S
    _emit("READY", {"import_s": IMPORT_S, "inputs_s": inputs_s})
    ref = reference.reference_s()
    refs = [ref]
    for call, code in zip(wl.setup, setup_codes):
        record(call, code, runner.check(call) if code == 0 else workloads.Outcome())
    if wl.name == "train" and setup_codes == [0]:
        runner.train_rows = _train_rows("data/dataset")

    tracer = Tracer({"cli": cli, "dataset": dataset, "powerflow": powerflow,
                     "qsim": qsim, "neuralnet": neuralnet}) if args.trace else None
    items: list[float] = []
    raw_walls: list[float] = []
    norm_walls: list[float] = []
    walls = {False: [], True: []}
    useful = units = 0
    test_mse: list[float] = []
    digests: dict[str, dict[str, str]] | None = None
    used = 0.0
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        shutil.rmtree("out", ignore_errors=True)
        if traced:
            tracer.install()
        pass_wall = pass_norm = pass_items = 0.0
        results = []
        try:
            for call in wl.passes:
                code, wall = runner.call(call)
                ref_after = reference.reference_s()
                pass_wall += wall
                pass_norm += reference.normalised(wall, ref, ref_after)
                used += wall + ref_after
                ref = ref_after
                refs.append(ref)
                results.append((call, code, runner.check(call) if code == 0 else workloads.Outcome()))
        finally:
            if traced:
                tracer.uninstall()
        pass_digests = {call.out: _digests(call.out) for call in wl.passes}
        for call, code, outcome in results:
            if digests is not None and pass_digests[call.out] != digests[call.out]:
                outcome.error = outcome.error or "artifacts differ from the first pass of this seed"
            record(call, code, outcome)
            pass_items += outcome.items
            useful += outcome.useful
            units += outcome.units
            if outcome.test_mse is not None:
                test_mse.append(outcome.test_mse)
        if digests is None:
            digests = pass_digests
        walls[traced].append(pass_wall)
        if not traced:
            items.append(pass_items)
            raw_walls.append(pass_wall)
            norm_walls.append(pass_norm)
        done = len(walls[False]) + len(walls[True])
        need_more = tracer is not None and not walls[True]
        if not need_more and used + 0.5 * used / done >= args.budget:
            break
    shutil.rmtree("out", ignore_errors=True)

    result = {
        "calls": calls,
        "failed": failed,
        "errors": errors[:20],
        "items": items,
        "raw_walls": raw_walls,
        "norm_walls": norm_walls,
        "refs": refs,
        "used_s": used,
        "useful": useful,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": IMPORT_S,
        "inputs_s": inputs_s,
        "test_mse": statistics.median(test_mse) if test_mse else None,
        "digests": digests,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(walls[True]), sum(walls[True]))
        layers["trace.wall_s"] = statistics.median(walls[True])
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        layers["setup.import_s"] = IMPORT_S
        layers["setup.inputs_s"] = inputs_s
        result["layers"] = layers
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
