"""The names of the package that the benchmark under perfbench/ reaches.

perfbench/spans.py wraps package attributes by name, and the activation
workload reads cli.SIMULATE_DEFAULTS["g"]; a renamed or deleted one breaks the
benchmark only when it runs. spans.py imports only the standard library, so it
is loaded by path.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
