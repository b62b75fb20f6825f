"""The names the traced benchmark (perfbench/launcher.py) wraps still resolve.

A refactor that renames or reshapes one of them breaks the traced benchmark
run; these checks fail first, at tier-1 speed. perfbench is only read here.
"""

import importlib
import inspect
import sys
from pathlib import Path

from lexfuse import features, ltr, postprocess

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
    assert isinstance(vars(features.FeatureTable)["from_tsv"], classmethod)
    assert callable(postprocess._METRICS["micro_f1"])


def test_every_span_name_is_a_lexfuse_function_or_a_wrapped_method(monkeypatch):
    # layers.py reads a span name that never occurs as 0 seconds or 0 calls.
    layers = perfbench_module(monkeypatch, "layers")
    launcher = perfbench_module(monkeypatch, "launcher")
    names = {name for names in layers._SPAN_SECONDS.values() for name in names}
    names |= {*layers._SPAN_CALLS.values(), *layers._METRIC_FNS, *layers._REPORT_FNS}
    wrapped_methods = {(cls.__module__, cls.__name__, attr)
                       for cls, attr in launcher.CLASS_METHODS}
    for name in sorted(names):
        module_name, *path = name.split(".")
        module = importlib.import_module(f"lexfuse.{module_name}")
        if len(path) == 1:  # a public function of the module
            fn = vars(module).get(path[0])
            assert not path[0].startswith("_") and inspect.isfunction(fn), name
            assert fn.__module__ == module.__name__, name
        else:  # a method of one of the module's classes
            cls_name, attr = path
            cls = vars(module).get(cls_name)
            assert inspect.isclass(cls) and cls.__module__ == module.__name__, name
            assert (module.__name__, cls_name, attr) in wrapped_methods, name
            assert callable(getattr(cls, attr)), name


def test_train_takes_the_table_first():
    # launcher._count_train counts the rows of the table it finds at args[0].
    assert next(iter(inspect.signature(ltr.train).parameters)) == "table"
