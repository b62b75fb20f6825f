"""Per-layer metrics from the spans of one traced pipeline run.

Layers are the modules of ``src/lexfuse``; a metric is named
``<module>.<thing>.<stat>``. ``s`` is inclusive seconds summed over every
span of that name, ``self_s`` is seconds not covered by child spans, and
``<layer>.share`` is the time of the layer's outermost spans (those called
straight from ``cli.main``) divided by the time of all ``cli.main`` spans.
"""

import json
from pathlib import Path

LAYERS = ("ingest", "indexing", "scorers", "features", "ltr", "postprocess", "evaluation")
SCORERS = ("bm25", "qld", "bm25_ngram")
# The postprocess function behind each filter label.
FILTER_FUNCTIONS = {
    "date": "filter_by_trial_date",
    "query": "filter_query_cases",
    "duplicate": "filter_duplicates",
    "cutoff": "dynamic_cutoff",
    "threshold": "threshold_cutoff",
}
_FILTER_SPANS = {label: f"postprocess.{fn}" for label, fn in FILTER_FUNCTIONS.items()}

# Summed span seconds: metric name -> span names.
_SPAN_SECONDS = {
    "ingest.load_raw_corpus.s": ["ingest.load_raw_corpus"],
    "ingest.clean.s": ["ingest.preprocess_corpus", "ingest.preprocess_article"],
    "ingest.read_clean_jsonl.s": ["ingest.read_clean_jsonl"],
    "indexing.build_index.s": ["indexing.build_index"],
    "indexing.save.s": ["indexing.InvertedIndex.save"],
    "indexing.load.s": ["indexing.InvertedIndex.load"],
    "scorers.score_all.s": ["scorers.score_all"],
    "scorers.write_score_dump.s": ["scorers.write_score_dump"],
    "scorers.read_score_dump.s": ["scorers.read_score_dump"],
    "features.assemble.s": ["features.assemble"],
    "features.external_load.s": ["features.ExternalScoreFile.load"],
    "features.to_tsv.s": ["features.FeatureTable.to_tsv"],
    "features.from_tsv.s": ["features.FeatureTable.from_tsv"],
    "ltr.train.s": ["ltr.train"],
    "ltr.tree_predict.s": ["ltr.RegressionTree.predict"],
    "ltr.predict.s": ["ltr.predict"],
    "postprocess.grid_search.s": ["postprocess.grid_search"],
    "postprocess.apply.s": ["postprocess.PostprocessPipeline.apply"],
    "postprocess.filters.s": list(_FILTER_SPANS.values()),
    "evaluation.read_run_file.s": ["evaluation.read_run_file"],
    "evaluation.write_run_file.s": ["evaluation.write_run_file"],
}
_SPAN_CALLS = {
    "ingest.read_clean_jsonl.calls": "ingest.read_clean_jsonl",
    "indexing.load.calls": "indexing.InvertedIndex.load",
    "features.from_tsv.calls": "features.FeatureTable.from_tsv",
    "ltr.tree_predict.calls": "ltr.RegressionTree.predict",
    "postprocess.apply.calls": "postprocess.PostprocessPipeline.apply",
}
_METRIC_FNS = ("evaluation.micro_prf1", "evaluation.macro_prf2")
_REPORT_FNS = _METRIC_FNS + ("evaluation.mean_average_precision",
                             "evaluation.recall_at_k", "evaluation.write_report")


def _mb(paths):
    return sum(Path(p).stat().st_size for p in paths) / 2**20


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _hashed_mb(work):
    """Bytes the manifest hashes: every artifact plus each recorded input."""
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    total = 0
    for name, entry in manifest["artifacts"].items():
        total += (work / name).stat().st_size
        total += sum(Path(p).stat().st_size for p in entry["inputs"])
    return total / 2**20


def layer_metrics(traces, work, stage_wall, stage_rss, untraced_pipeline_s, traced_pipeline_s):
    """Compute every per-layer metric; returns ({name: value}, {name: value}).

    ``traces`` maps each stage to the launcher's span file contents and
    ``work`` is the traced run's work directory after ``eval``. The second
    dict holds per-filter and threshold-tuning times, which are zero on
    workloads whose filter order skips them.
    """
    durations = {}  # span name -> [seconds]
    main_s = {}
    child_s = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    counters = {}
    metric_in_grid = []
    report_s = 0.0
    score_calls = {scorer: [] for scorer in SCORERS}
    for stage, trace in traces.items():
        spans = {s["id"]: s for s in trace["spans"]}
        for span in spans.values():
            seconds = span["end"] - span["start"]
            durations.setdefault(span["name"], []).append(seconds)
            parent = spans.get(span["parent"])
            if span["name"] == "cli.main":
                main_s[stage] = main_s.get(stage, 0.0) + seconds
            elif parent is not None and parent["name"] == "cli.main":
                child_s[stage] = child_s.get(stage, 0.0) + seconds
                layer = span["name"].split(".", 1)[0]
                layer_s[layer] = layer_s.get(layer, 0.0) + seconds
            if span["name"] in _METRIC_FNS and parent is not None \
                    and parent["name"] == "postprocess.grid_search":
                metric_in_grid.append(seconds)
            if stage == "eval" and span["name"] in _REPORT_FNS:
                report_s += seconds
            if span["name"] == "scorers.score_all":
                score_calls[span["tag"]].append(seconds)
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def total(names):
        return sum(sum(durations.get(n, ())) for n in names)

    out = {}
    for stage in traces:
        out[f"cli.{stage}.wall_s"] = stage_wall[stage]
        out[f"cli.{stage}.rss_mb"] = stage_rss[stage]
        out[f"cli.{stage}.self_s"] = main_s.get(stage, 0.0) - child_s.get(stage, 0.0)
    out["cli.hashed_mb"] = _hashed_mb(work)

    out["ingest.documents"] = json.loads(
        (work / "ingest_stats.json").read_text(encoding="utf-8"))["documents"]
    out["indexing.terms"] = counters.get("indexing.terms", 0)
    out["indexing.postings"] = counters.get("indexing.postings", 0)
    out["indexing.index_mb"] = _mb(sorted(work.glob("index_*.json")))

    calls = durations.get("scorers.score_all", [])
    for scorer in SCORERS:
        out[f"scorers.score_all.{scorer}.s"] = sum(score_calls[scorer])
    out["scorers.score_all.p50_ms"] = 1000 * _percentile(calls, 0.50)
    out["scorers.score_all.p99_ms"] = 1000 * _percentile(calls, 0.99)
    dump_rows = counters.get("scorers.dump_rows", 0)
    out["scorers.dump_rows"] = dump_rows
    out["scorers.dump_use_ratio"] = (
        counters.get("scorers.top_k_rows", 0) / dump_rows if dump_rows else 0.0)
    out["scorers.dump_mb"] = _mb(sorted(work.glob("scores_*.tsv")))

    out["features.rows"] = counters.get("features.rows", 0)
    out["features.table_mb"] = _mb([work / "features.tsv"])

    iterations = counters.get("ltr.iterations", 0)
    out["ltr.iterations"] = iterations
    out["ltr.trees_kept"] = counters.get("ltr.trees_kept", 0)
    out["ltr.kept_ratio"] = out["ltr.trees_kept"] / iterations if iterations else 0.0
    out["ltr.train_rows"] = counters.get("ltr.train_rows", 0)

    out["postprocess.grid_points"] = counters.get("postprocess.grid_points", 0)
    for label in FILTER_FUNCTIONS:
        out[f"postprocess.{label}.dropped"] = counters.get(f"postprocess.{label}.dropped", 0)
        out[f"postprocess.{label}.relevant_dropped"] = counters.get(
            f"postprocess.{label}.relevant_dropped", 0)

    for name, span_names in _SPAN_SECONDS.items():
        out[name] = total(span_names)
    for name, span_name in _SPAN_CALLS.items():
        out[name] = len(durations.get(span_name, ()))
    out["ltr.s_per_iteration"] = out["ltr.train.s"] / iterations if iterations else 0.0
    points = out["postprocess.grid_points"]
    out["postprocess.ms_per_point"] = (
        1000 * out["postprocess.grid_search.s"] / points if points else 0.0)
    out["evaluation.metric.s"] = sum(metric_in_grid)
    out["evaluation.metric.calls"] = len(metric_in_grid)
    out["evaluation.report.s"] = report_s

    main_total = sum(main_s.values())
    out["trace.overhead_s"] = traced_pipeline_s - untraced_pipeline_s
    out["trace.covered_share"] = sum(child_s.values()) / main_total
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_s[layer] / main_total

    detail = {f"postprocess.{label}.s": total([span]) for label, span in _FILTER_SPANS.items()}
    detail["postprocess.tune_threshold_by_proportion.s"] = total(
        ["postprocess.tune_threshold_by_proportion"])
    return out, detail
