"""The names of the package that the benchmark under perfbench/ reaches.

perfbench/spans.py wraps package attributes by name, the activation workload
reads cli.SIMULATE_DEFAULTS["g"], and perfbench/child.py reads attributes of
the package modules it imports; a renamed or deleted one breaks the benchmark
only when it runs. spans.py imports only the standard library, so it is
loaded by path; child.py is parsed, not run.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
    from qnpflow import cli

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
