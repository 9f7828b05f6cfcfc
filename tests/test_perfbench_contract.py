"""The names of the package that the benchmark under perfbench/ reaches.

perfbench/spans.py wraps package attributes by name, the activation workload
reads cli.SIMULATE_DEFAULTS["g"], perfbench/child.py reads attributes of the
package modules it imports, and perfbench/workloads.py reads keys of the JSON
artifacts; a renamed or deleted one breaks the benchmark only when it runs.
spans.py imports only the standard library, so it is loaded by path; child.py
and workloads.py are parsed, not run, apart from single functions compiled
from child.py's source.
"""
import ast
import fnmatch
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from conftest import NETWORK_PATH
from qnpflow import cli, dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", load_spans().SPANS)
def test_span_target_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(f"qnpflow.{module}"), attr)), span


def test_simulate_default_coupling_exists():
    assert cli.SIMULATE_DEFAULTS["g"] > 0


def child_reads():
    """Every `<module>.<attr>` that perfbench/child.py reads on a module it
    imports with `from qnpflow import ...`."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "qnpflow"
               for alias in node.names}
    return sorted({f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and isinstance(node.value, ast.Name) and node.value.id in modules})


def test_child_reads_are_found():
    assert child_reads()


@pytest.mark.parametrize("name", child_reads())
def test_child_read_exists(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"qnpflow.{module}"), attr)


def child_function(name):
    """The function `name` of perfbench/child.py, compiled alone with the
    package's `dataset` module as its only global."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    namespace = {"dataset": dataset}
    exec(compile(ast.Module([node], type_ignores=[]), "child.py", "exec"), namespace)
    return namespace[name]


def test_child_train_rows_counts_converged_rows(base_net, tmp_path):
    # child.py iterates over read_dataset_csv's result and sums `.converged`
    samples, meta = dataset.generate(base_net, 300, mult_range=(1.0, 5.5), seed=5)
    prefix = tmp_path / "data"
    dataset.write_dataset_csv(samples, meta, f"{prefix}_train.csv")
    dataset.write_meta_json(meta, f"{prefix}_meta.json")
    rows = child_function("_train_rows")(str(prefix))
    assert rows == samples.converged.sum() < len(samples)


def workload_json_reads():
    """Every (file pattern, key) for which a function of perfbench/workloads.py
    reads `doc["key"]` of a `doc = json.loads(...)`. Each such function names
    one `.json` file, its pattern; a second one fails the unpacking."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    reads = set()
    for func in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
        docs = {node.targets[0].id for node in ast.walk(func)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "json.loads"}
        if not docs:
            continue
        (pattern,) = {node.value for node in ast.walk(func)
                      if isinstance(node, ast.Constant) and str(node.value).endswith(".json")}
        reads |= {(pattern, node.slice.value) for node in ast.walk(func)
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                  and node.value.id in docs and isinstance(node.slice, ast.Constant)}
    return sorted(reads)


def test_workload_json_reads_are_found():
    files = {pattern for pattern, _ in workload_json_reads()}
    assert {"dataset_meta.json", "fit_*.json", "eval_report.json"} <= files


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The files of one run of each command whose JSON the workloads read."""
    out = tmp_path_factory.mktemp("artifacts")
    for argv in (("dataset", str(NETWORK_PATH), "--n", "20"),
                 ("activation", "simulate", "--spin", "5/2", "--points", "5"),
                 ("train", str(out / "dataset"), "--preset", "table3", "--epochs", "1"),
                 ("evaluate", str(out / "model.json"), str(out / "dataset"))):
        assert cli.main([*argv, "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("pattern, key", workload_json_reads())
def test_workload_json_read_exists(artifacts, pattern, key):
    (path,) = (p for p in artifacts.iterdir() if fnmatch.fnmatch(p.name, pattern))
    assert key in json.loads(path.read_text())
