"""The names the traced benchmark (perfbench/launcher.py) wraps still resolve.

A refactor that renames or reshapes one of them breaks the traced benchmark
run; these checks fail first, at tier-1 speed. perfbench is only read here.
"""

import importlib
import inspect
import sys
from pathlib import Path

from lexfuse import postprocess

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench as it is
    return importlib.import_module(name)


def test_every_wrapped_filter_is_a_postprocess_function_taking_runs_first(monkeypatch):
    layers = perfbench_module(monkeypatch, "layers")
    assert set(layers.FILTER_FUNCTIONS) == set(postprocess.FILTERS)
    for fn_name in layers.FILTER_FUNCTIONS.values():
        fn = getattr(postprocess, fn_name, None)
        assert inspect.isfunction(fn) and fn.__module__ == postprocess.__name__, fn_name
        assert next(iter(inspect.signature(fn).parameters)) == "runs", fn_name


def test_every_wrapped_class_method_exists(monkeypatch):
    launcher = perfbench_module(monkeypatch, "launcher")
    for cls, attr in launcher.CLASS_METHODS:
        assert attr in vars(cls), f"{cls.__name__}.{attr}"
    assert callable(postprocess._METRICS["micro_f1"])
