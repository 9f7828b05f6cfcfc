"""Spans around the public functions of each qnpflow layer, from outside `src/`.

`Tracer.install()` replaces module attributes with timing wrappers and
`uninstall()` puts the originals back, so traced and untraced passes run in
one interpreter. Spans are kept in memory as (name, start, end, parent) and
reduced to per-layer numbers once, when the run ends.
"""
from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

# (module, attribute, span name). The module is the one whose global the
# caller looks up, so the wrapper is reached on every call.
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "generate", "dataset.generate"),
    ("cli", "write_dataset_csv", "dataset.write"),
    ("cli", "read_dataset_csv", "dataset.read"),
    ("cli", "split", "dataset.split"),
    ("cli", "fit_scaler", "dataset.fit_scaler"),
    ("cli", "transfer_curve", "qsim.transfer_curve"),
    ("cli", "fit_beta", "activation.fit_beta"),
    ("cli", "train", "neuralnet.train"),
    ("cli", "evaluate", "neuralnet.evaluate"),
    ("cli", "save_model", "neuralnet.save_model"),
    ("dataset", "solve", "powerflow.solve"),
    ("dataset", "NetworkModel", "grid.network_build"),
    ("powerflow", "nr_step", "powerflow.nr_step"),
    ("powerflow", "jacobian", "powerflow.jacobian"),
    ("powerflow", "mismatch", "powerflow.mismatch"),
    ("powerflow", "calc_injections", "powerflow.calc_injections"),
    ("qsim", "evolve_collisions", "qsim.evolve"),
    ("neuralnet", "forward", "neuralnet.forward"),
    ("neuralnet", "backward", "neuralnet.backward"),
    ("neuralnet", "optimizer_step", "neuralnet.optimizer_step"),
)

# Which end-to-end metric each layer should move, and on which workload.
PREDICTS = {
    "grid.network_build": "items_per_s on dataset-*",
    "powerflow.solve": "items_per_s on dataset-*; setup_s on train",
    "powerflow.nr_step": "items_per_s on dataset-*; setup_s on train",
    "powerflow.jacobian": "items_per_s on dataset-*; setup_s on train",
    "powerflow.mismatch": "items_per_s on dataset-*; setup_s on train",
    "powerflow.calc_injections": "items_per_s on dataset-*; setup_s on train",
    "dataset.generate": "items_per_s on dataset-*",
    "dataset.write": "items_per_s on dataset-*",
    "dataset.read": "items_per_s on train",
    "dataset.split": "items_per_s on dataset-*",
    "dataset.fit_scaler": "items_per_s on dataset-*, train",
    "qsim.transfer_curve": "items_per_s, converged_share on activation",
    "qsim.evolve": "items_per_s, converged_share on activation",
    "activation.fit_beta": "items_per_s on activation (under 0.1% of wall)",
    "neuralnet.train": "items_per_s on train; test MSE must not move",
    "neuralnet.forward": "items_per_s on train",
    "neuralnet.backward": "items_per_s on train",
    "neuralnet.optimizer_step": "items_per_s on train",
    "neuralnet.evaluate": "items_per_s on train",
    "neuralnet.save_model": "items_per_s on train",
    "cli": "items_per_s on every workload",
}

# Spans whose share of traced wall shows which layer a workload exercises.
SHARES = ("powerflow.solve", "qsim.evolve", "neuralnet.train")


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.iterations: list[int] = []
        self.test_mse: list[float] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr, span in SPANS:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        spans, stack, observe = self.spans, self._open, self._observe

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                observe(name, args, result, error)

        return wrapper

    def _observe(self, name: str, args: tuple, result, error) -> None:
        """Counts taken from return values and exceptions at the span boundary."""
        counts = self.counts
        if name == "powerflow.solve":
            if error is None:
                steps, ok = result.iterations, True
            else:
                steps, ok = len(getattr(error, "history", ())), False
            self.iterations.append(steps)
            counts["powerflow.steps"] += steps
            if ok:
                counts["powerflow.useful_steps"] += steps
            else:
                counts["powerflow.not_converged"] += 1
        elif name == "qsim.evolve" and error is None:
            steady = result[0]
            counts["qsim.collisions"] += steady.collisions_used
            if steady.converged:
                counts["qsim.useful_collisions"] += steady.collisions_used
            else:
                counts["qsim.points_capped"] += 1
        elif name == "neuralnet.train" and error is None and result[1].final_test_mse is not None:
            self.test_mse.append(result[1].final_test_mse)
        elif name in ("dataset.write", "neuralnet.save_model") and error is None:
            counts[f"{name}.bytes"] += os.path.getsize(args[-1])

    def layer_metrics(self, n_passes: int, traced_wall: float) -> dict[str, float]:
        """Per-pass numbers for every layer, from the spans of `n_passes` passes."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        solve_us = []
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[index]
            if name == "powerflow.solve":
                solve_us.append((end - start) * 1e6)

        per = 1.0 / max(n_passes, 1)
        c = self.counts
        m: dict[str, float] = {}
        for _, _, name in SPANS:
            m[f"{name}.calls"] = calls[name] * per
            m[f"{name}.self_s"] = self_s[name] * per
            m[f"{name}.s"] = total[name] * per
        for name in SHARES:
            m[f"{name}.share"] = total[name] / traced_wall if traced_wall > 0 else 0.0
        m["powerflow.solve.p50_us"] = _quantile(solve_us, 0.50)
        m["powerflow.solve.p99_us"] = _quantile(solve_us, 0.99)
        m["powerflow.nr_iterations.mean"] = statistics.fmean(self.iterations) if self.iterations else 0.0
        m["powerflow.nr_iterations.max"] = float(max(self.iterations, default=0))
        m["powerflow.not_converged"] = c["powerflow.not_converged"] * per
        m["powerflow.useful_step_ratio"] = _ratio(c["powerflow.useful_steps"], c["powerflow.steps"])
        m["dataset.write.bytes"] = c["dataset.write.bytes"] * per
        m["qsim.collisions"] = c["qsim.collisions"] * per
        m["qsim.us_per_collision"] = _ratio(total["qsim.evolve"] * 1e6, c["qsim.collisions"])
        m["qsim.points_capped"] = c["qsim.points_capped"] * per
        m["qsim.useful_collision_ratio"] = _ratio(c["qsim.useful_collisions"], c["qsim.collisions"])
        m["neuralnet.save_model.bytes"] = c["neuralnet.save_model.bytes"] * per
        m["neuralnet.test_mse"] = statistics.median(self.test_mse) if self.test_mse else 0.0
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]
