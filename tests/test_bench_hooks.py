"""The names the traced benchmark (perfbench/launcher.py) wraps still resolve.

A refactor that renames or reshapes one of them breaks the traced benchmark
run; these checks fail first, at tier-1 speed. perfbench is only read here.
"""

import importlib
import inspect
import json
import math
import sys
from datetime import date
from pathlib import Path

import pytest

from lexfuse import cli, evaluation, features, indexing, ltr, postprocess, scorers
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


def test_index_save_and_load_keep_their_shapes_and_a_loaded_index_is_counted(
        monkeypatch, tmp_path):
    # launcher wraps save as a plain method and load as a classmethod, and counts
    # indexing.terms and indexing.postings with len() and .values() of postings.
    launcher = perfbench_module(monkeypatch, "launcher")
    assert inspect.isfunction(vars(indexing.InvertedIndex)["save"])
    assert isinstance(vars(indexing.InvertedIndex)["load"], classmethod)
    index = indexing.build_index([("d1", "a b b"), ("d2", "b c")])
    index.save(tmp_path / "index_plain.json")
    for counted in (index, indexing.InvertedIndex.load(tmp_path / "index_plain.json")):
        tracer = launcher.Tracer("hooks")
        launcher._count_index(tracer, (), counted)
        assert tracer.counters == {"indexing.terms": 3, "indexing.postings": 4}


def test_assemble_returns_the_table_whose_len_counts_its_rows():
    # launcher counts features.rows as len() of what features.assemble returns.
    docs = {doc_id: CleanDocument(id=doc_id, body="x") for doc_id in ("q", "A", "B")}
    numbering = features.Numbering({"q": docs["q"]}, docs)
    scores = {"BM25": numbering.arrays({"q": ScoredList("q", [("A", 1.0), ("B", 0.5)])})}
    table = features.assemble(numbering, scores, ["BM25"],
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


def tiny_chain(tmp_path, commands, **overrides):
    """Run ``commands`` in-process on a 4-query synthetic chain under ``tmp_path``;
    returns its config file and the settings written there."""
    synth_dir = tmp_path / "synth"
    settings = {
        "synth_dir": str(synth_dir), "synth_num_queries": 4, "synth_num_candidates": 40,
        "corpus_dir": str(synth_dir / "corpus"),
        "queries_file": str(synth_dir / "queries.json"),
        "qrels_file": str(synth_dir / "qrels.json"),
        "external_scores": {name: str(synth_dir / f"external_{name}.tsv")
                            for name in ("SAILER", "DELTA")},
        "work_dir": str(tmp_path / "work"), "rerank_depth": 10, **overrides}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    for command in commands:
        assert cli.main([command, "--config", str(config)]) == 0, command
    return config, settings


def test_features_reads_each_source_through_the_wrapped_names(monkeypatch, tmp_path):
    # features.external_load.s times ExternalScoreFile.load once per external file,
    # and scorers.dump_use_ratio counts what top_k keeps of every lexical list.
    config, _ = tiny_chain(tmp_path, ("synth", "ingest", "index", "score"))
    loads, kept = [], []
    load, top_k = vars(features.ExternalScoreFile)["load"].__func__, scorers.top_k
    monkeypatch.setattr(features.ExternalScoreFile, "load", classmethod(
        lambda cls, name, path: loads.append(name) or load(cls, name, path)))
    monkeypatch.setattr(scorers, "top_k", lambda scored, k: kept.append(scored) or top_k(scored, k))
    assert cli.main(["features", "--config", str(config)]) == 0
    assert sorted(loads) == ["DELTA", "SAILER"]
    lists = 0
    for name in scorers.SCORER_NAMES:
        dump = (tmp_path / "work" / f"scores_{name}.tsv").read_text().splitlines()
        lists += len({line.split("\t")[0] for line in dump})
    assert lists == 3 * 4 and len(kept) == lists


def test_tune_and_eval_call_each_wrapped_evaluation_name(monkeypatch, tmp_path):
    # evaluation.metric.s/.calls time the metric calls of tune and eval, and
    # evaluation.report.s the five calls eval makes: one walk per call, none shared.
    layers = perfbench_module(monkeypatch, "layers")
    grid = {"grid_p": [0.0, 0.5], "grid_h": [4, 6], "grid_l": [0], "grid_t": [1],
            "grid_s": [0, 1]}
    config, settings = tiny_chain(
        tmp_path, ("synth", "ingest", "index", "score", "features", "train", "rerank"),
        ltr_num_trees=3, ltr_max_leaves=2, ltr_min_samples_leaf=1, **grid)
    calls, recorders = [], {}

    def recorder(attr, fn):
        def record(*args, **kwargs):
            calls.append(attr)
            return fn(*args, **kwargs)
        return record

    for name in layers._REPORT_FNS:
        attr = name.split(".")[1]
        fn = getattr(evaluation, attr)
        recorders[fn] = recorder(attr, fn)
        monkeypatch.setattr(evaluation, attr, recorders[fn])
    monkeypatch.setattr(postprocess, "_METRICS", {
        key: recorders[fn] for key, fn in postprocess._METRICS.items()})
    points = math.prod(map(len, grid.values()))  # every l is at most every h
    for metric, fn_name in (("micro_f1", "micro_prf1"), ("macro_f2", "macro_prf2")):
        config.write_text(json.dumps(dict(settings, metric=metric)))
        assert cli.main(["tune", "--config", str(config)]) == 0
        assert calls == [fn_name] * points
        calls.clear()
        assert cli.main(["postprocess", "--config", str(config)]) == 0
        assert cli.main(["eval", "--config", str(config)]) == 0
        assert sorted(calls) == sorted([fn_name, "mean_average_precision", *["recall_at_k"] * 3,
                                        "write_report"])
        calls.clear()


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
