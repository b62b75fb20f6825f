"""The names the traced benchmark (perfbench/launcher.py) wraps still resolve.

A refactor that renames or reshapes one of them breaks the traced benchmark
run; these checks fail first, at tier-1 speed. perfbench is only read here.
"""

import importlib
import inspect
import sys
from datetime import date
from pathlib import Path

import pytest

from lexfuse import features, ltr, postprocess, scorers
from lexfuse.evaluation import ScoredList
from lexfuse.ingest import CleanDocument

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


def test_assemble_returns_the_table_whose_len_counts_its_rows():
    # launcher counts features.rows as len() of what features.assemble returns.
    docs = {doc_id: CleanDocument(id=doc_id, body="x") for doc_id in ("q", "A", "B")}
    scores = {"BM25": {"q": ScoredList("q", [("A", 1.0), ("B", 0.5)])}}
    table = features.assemble({"q": docs["q"]}, docs, scores, ["BM25"],
                              features.FeatureSchema("one", ("BM25",)), {"q": {"A"}})
    assert isinstance(table, features.FeatureTable) and len(table) == len(table.X) == 2


def test_the_dump_counters_find_top_k_and_write_score_dump(monkeypatch, tmp_path):
    # scorers.dump_use_ratio is top_k's kept entries over the rows of the lists
    # write_score_dump takes first; without either function it reads 0.
    launcher = perfbench_module(monkeypatch, "launcher")
    for name in ("top_k", "write_score_dump"):
        fn = vars(scorers).get(name)
        assert inspect.isfunction(fn) and fn.__module__ == scorers.__name__, name
    assert next(iter(inspect.signature(scorers.write_score_dump).parameters)) == "lists"
    tracer = launcher.Tracer("hooks")
    lists = [ScoredList("q1", [("A", 1.0), ("B", 0.5)]), ScoredList("q2", [("A", 0.25)])]
    args = (lists, tmp_path / "scores.tsv")
    launcher._count_dump_rows(tracer, args, scorers.write_score_dump(*args))
    args = (lists[0], 1)
    top = scorers.top_k(*args)
    assert isinstance(top, ScoredList)
    launcher._count_top_k(tracer, args, top)
    assert tracer.counters == {"scorers.dump_rows": 3, "scorers.top_k_rows": 1}


def test_train_takes_the_table_first():
    # launcher._count_train counts the rows of the table it finds at args[0].
    assert next(iter(inspect.signature(ltr.train).parameters)) == "table"


ORDERS = [("date", "query", "duplicate", "cutoff"), ("date", "query", "cutoff", "duplicate"),
          ("threshold",)]


def recorded_filters(monkeypatch):
    """Patch each function perfbench wraps for a filter label with a recorder; the
    returned list gets the label of every call, in call order."""
    layers = perfbench_module(monkeypatch, "layers")
    calls = []
    for label, fn_name in layers.FILTER_FUNCTIONS.items():
        fn = getattr(postprocess, fn_name)
        monkeypatch.setattr(postprocess, fn_name, lambda *args, label=label, fn=fn:
                            calls.append(label) or fn(*args))
    return calls


def filter_scenario(order):
    runs = {qid: ScoredList.from_scores(qid, {"A": 1.0, "B": 0.6, "q1": 0.5, "C": 0.2})
            for qid in ("q1", "q2")}
    dates = {"q1": date(2005, 1, 1), "q2": date(2010, 1, 1), "B": date(2008, 1, 1)}
    pipeline = postprocess.PostprocessPipeline(dates=dates, query_ids=frozenset(runs),
                                               order=order)
    return pipeline, runs, {"q1": {"A"}, "q2": {"B"}}


@pytest.mark.parametrize("order", ORDERS)
def test_apply_runs_every_filter_through_its_wrapped_name(monkeypatch, order):
    # The traced run counts each filter's drops on these functions only.
    calls = recorded_filters(monkeypatch)
    pipeline, runs, _ = filter_scenario(order)
    pipeline.apply(runs, {"p": 0.5, "h": 3, "l": 1, "t": 1, "s": 1})
    assert calls == list(order)


def test_grid_search_runs_every_filter_through_its_wrapped_name(monkeypatch):
    calls = recorded_filters(monkeypatch)
    order = ORDERS[0]
    pipeline, runs, qrels = filter_scenario(order)
    grid = {"p": [0.3, 0.7], "h": [1, 3], "l": [1], "t": [1, 2], "s": [0, 1]}
    _, table = postprocess.grid_search(pipeline, grid, runs, qrels)
    assert calls[:len(order)] == list(order)  # the first point runs the whole chain
    assert set(calls) == set(order) and calls.count(order[-1]) == len(table)
