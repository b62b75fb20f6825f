"""Run one lexfuse stage with spans recorded around each layer's functions.

Usage: python3 launcher.py SPANS_JSON RUN_ID <lexfuse arguments...>

The launcher imports lexfuse from the ``src`` directory next to this
benchmark, wraps every public function of the layer modules (and the
class methods and lookup tables listed below) wherever callers look them
up, then calls ``lexfuse.cli.main``. Spans are kept in memory and written
to SPANS_JSON when the stage returns. lexfuse itself is not modified.
"""

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from lexfuse import (cli, evaluation, features, indexing, ingest, ltr,  # noqa: E402
                     postprocess, scorers)

LAYER_MODULES = (ingest, indexing, scorers, features, ltr, postprocess, evaluation)

# Methods looked up through a class or an instance, not a module global.
CLASS_METHODS = (
    (indexing.InvertedIndex, "save"),
    (indexing.InvertedIndex, "load"),
    (features.FeatureTable, "to_tsv"),
    (features.FeatureTable, "from_tsv"),
    (features.ExternalScoreFile, "load"),
    (ltr.RegressionTree, "predict"),
    (ltr.TreeEnsemble, "save"),
    (ltr.TreeEnsemble, "load"),
    (postprocess.PostprocessPipeline, "apply"),
)


class Tracer:
    """In-memory spans: (span id, parent id, name, start, end, tag)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._stack = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_result=None, tag=None):
        """``fn`` recorded as span ``name``; ``tag(args, kwargs)`` labels a call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = tag(args, kwargs) if tag is not None else None
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end, label)
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    def dump(self, path, stage, exit_code):
        payload = {
            "run_id": self.run_id,
            "stage": stage,
            "exit_code": exit_code,
            "spans": [
                {"run": self.run_id, "id": s[0], "parent": s[1], "name": s[2],
                 "start": s[3], "end": s[4], "tag": s[5]}
                for s in self.spans if s is not None
            ],
            "counters": self.counters,
        }
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


# -- counters taken at layer boundaries ----------------------------------------

def _scorer_tag(args, kwargs):
    return args[3] if len(args) > 3 else kwargs.get("scorer", "bm25")


def _count_index(tracer, args, index):
    tracer.count("indexing.terms", len(index.postings))
    tracer.count("indexing.postings", sum(len(p) for p in index.postings.values()))


def _count_dump_rows(tracer, args, result):
    tracer.count("scorers.dump_rows", sum(len(slist.entries) for slist in args[0]))


def _count_top_k(tracer, args, result):
    tracer.count("scorers.top_k_rows", len(result.entries))


def _count_rows(name):
    return lambda tracer, args, result: tracer.count(name, len(result))


def _count_train(tracer, args, model):
    tracer.count("ltr.train_rows", len(args[0]))
    tracer.count("ltr.iterations", len(model.history))
    tracer.count("ltr.trees_kept", len(model.trees))


def _count_grid(tracer, args, result):
    tracer.count("postprocess.grid_points", len(result[1]))


def _count_drops(label, qrels):
    """Entries, and qrel-relevant entries, a filter call removed."""
    def on_result(tracer, args, result):
        before = args[0]
        after = result[0] if label == "duplicate" else result
        dropped = relevant = 0
        for qid, slist in before.items():
            kept = set(after[qid].doc_ids()) if qid in after else set()
            gone = [doc for doc in slist.doc_ids() if doc not in kept]
            dropped += len(gone)
            relevant += sum(1 for doc in gone if doc in qrels.get(qid, ()))
        tracer.count(f"postprocess.{label}.dropped", dropped)
        tracer.count(f"postprocess.{label}.relevant_dropped", relevant)
    return on_result


def install(tracer, stage, qrels):
    """Replace layer functions by traced wrappers wherever they are bound."""
    hooks = {
        "indexing.build_index": _count_index,
        "scorers.write_score_dump": _count_dump_rows,
        "scorers.top_k": _count_top_k,
        "features.assemble": _count_rows("features.rows"),
        "ltr.train": _count_train,
        "postprocess.grid_search": _count_grid,
    }
    if stage == "postprocess":
        for label, fn_name in layers.FILTER_FUNCTIONS.items():
            hooks[f"postprocess.{fn_name}"] = _count_drops(label, qrels)

    bindings = [cli] + list(LAYER_MODULES)
    replaced = {}
    for module in LAYER_MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            tag = _scorer_tag if name == "scorers.score_all" else None
            replaced[fn] = tracer.wrap(name, fn, hooks.get(name), tag)
    for module in bindings:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
    postprocess._METRICS = {
        key: replaced.get(fn, fn) for key, fn in postprocess._METRICS.items()
    }

    for cls, attr in CLASS_METHODS:
        raw = vars(cls)[attr]
        short = cls.__module__.rsplit(".", 1)[1]
        name = f"{short}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))
    cli.main = tracer.wrap("cli.main", cli.main)


def _config_qrels(argv):
    """Qrels named by the stage's ``--config``, for the drop counters."""
    config = json.loads(Path(argv[argv.index("--config") + 1]).read_text(encoding="utf-8"))
    if not config.get("qrels_file"):
        return {}
    data = json.loads(Path(config["qrels_file"]).read_text(encoding="utf-8"))
    return {qid: set(docs) for qid, docs in data.items()}


def main():
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    stage = argv[0]
    tracer = Tracer(run_id)
    install(tracer, stage, _config_qrels(argv) if stage == "postprocess" else {})
    exit_code = 3
    try:
        exit_code = cli.main(argv)
    finally:
        tracer.dump(spans_path, stage, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
