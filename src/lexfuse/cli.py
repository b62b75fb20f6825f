"""Batch command-line frontend for the retrieval pipelines.

Subcommands run one stage each (ingest, index, score, features, train,
rerank, tune, postprocess, eval, synth) against a flat JSON config file.
Outputs are written atomically (temp file + rename) and every artifact is
recorded in a manifest with input hashes, so identical config and seed
reproduce byte-identical files.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal.
"""

import argparse
import hashlib
import json
import os
import secrets
import sys
from pathlib import Path

from . import evaluation, features, ingest, ltr, postprocess, scorers, synth
from .indexing import (
    DuplicateDocumentError,
    InvertedIndex,
    TokenizerConfig,
    build_index,
    tokenize,
)


class ConfigError(Exception):
    """Unusable configuration or command line."""


class DataError(Exception):
    """Missing or malformed input data."""


DEFAULTS = {
    "task": "case",  # case | statute
    "corpus_dir": None,
    "queries_file": None,
    "queries_dir": None,  # statute task: directory of question files
    "qrels_file": None,
    "splits_file": None,
    "work_dir": None,
    "seed": 0,
    "threads": 1,
    "run_tag": "lexfuse",
    "lowercase": True,
    "min_token_len": 1,
    "ngram_lo": 1,
    "ngram_hi": 3,
    "bm25_k1": 3.0,
    "bm25_b": 1.0,
    "qld_mu": 2000.0,
    "rerank_depth": 200,
    "schema": "task1_v1",
    "external_scores": {},
    "ltr_num_trees": 300,
    "ltr_max_leaves": 31,
    "ltr_learning_rate": 0.05,
    "ltr_min_samples_leaf": 20,
    "ltr_ndcg_truncation": 10,
    "ltr_validation_fraction": 0.2,
    "ltr_patience": 50,
    "grid_p": None,
    "grid_h": None,
    "grid_l": None,
    "grid_t": None,
    "grid_s": None,
    "filter_order": "date,query,duplicate,cutoff",
    "metric": "micro_f1",
    "eval_split": "all",
    "eval_run": None,
    "post_p": postprocess.TASK1_RUN3_PARAMS["p"],
    "post_h": postprocess.TASK1_RUN3_PARAMS["h"],
    "post_l": postprocess.TASK1_RUN3_PARAMS["l"],
    "post_t": postprocess.TASK1_RUN3_PARAMS["t"],
    "post_s": postprocess.TASK1_RUN3_PARAMS["s"],
    "synth_dir": None,
    "synth_num_queries": 100,
    "synth_num_candidates": 850,
    "synth_relevant_per_query": 4.16,
    "synth_vocab_size": 500,
    "synth_overlap_strength": 3,
    "synth_decoys_per_query": 3,
}


def load_config(path):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(DEFAULTS)
    cfg.update(raw)
    if cfg["task"] not in ("case", "statute"):
        raise ConfigError(f"task must be 'case' or 'statute', got {cfg['task']!r}")
    return cfg


# -- small infrastructure ------------------------------------------------------

def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path, writer):
    """Run ``writer(tmp_path)`` then atomically move the result into place.

    The temp name is unique per call, so concurrent runs do not collide,
    and it is removed if the writer raises.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _require_file(cfg, key):
    value = cfg.get(key)
    if not value:
        raise ConfigError(f"config key {key!r} is required for this command")
    if not Path(value).is_file():
        raise DataError(f"{key}: no such file: {value}")
    return Path(value)


def _require_dir(cfg, key):
    value = cfg.get(key)
    if not value:
        raise ConfigError(f"config key {key!r} is required for this command")
    if not Path(value).is_dir():
        raise DataError(f"{key}: no such directory: {value}")
    return Path(value)


def _work_dir(cfg):
    value = cfg.get("work_dir")
    if not value:
        raise ConfigError("config key 'work_dir' is required")
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _record_artifact(cfg, command, output, inputs):
    work = _work_dir(cfg)
    manifest_path = work / "manifest.json"
    manifest = {"artifacts": {}}
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    config_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()
    manifest["artifacts"][str(Path(output).name)] = {
        "command": command,
        "sha256": _sha256(output),
        "config_sha256": config_hash,
        "inputs": {str(p): _sha256(p) for p in sorted(str(i) for i in inputs)},
    }
    _atomic_write(
        manifest_path,
        lambda tmp: tmp.write_text(
            json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8"
        ),
    )


def _tokenizer_config(cfg, ngram=False):
    return TokenizerConfig(
        lowercase=bool(cfg["lowercase"]),
        min_token_len=int(cfg["min_token_len"]),
        ngram_lo=int(cfg["ngram_lo"]) if ngram else 1,
        ngram_hi=int(cfg["ngram_hi"]) if ngram else 1,
    )


def _load_docs(path):
    return {doc.id: doc for doc in ingest.read_clean_jsonl(path)}


def _load_query_ids(cfg):
    path = _require_file(cfg, "queries_file")
    ids = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(ids, list) or not all(isinstance(q, str) for q in ids):
        raise DataError(f"{path}: queries file must be a JSON list of ids")
    return ids


def _load_splits(cfg):
    if not cfg.get("splits_file"):
        return None
    path = _require_file(cfg, "splits_file")
    splits = json.loads(path.read_text(encoding="utf-8"))
    for name in ("train", "tune", "test"):
        if name not in splits:
            raise DataError(f"{path}: missing split {name!r}")
    return splits


def _query_doc_map(cfg, work):
    """Queries are corpus documents (case task) or separate files (statute)."""
    if cfg["task"] == "statute":
        return _load_docs(work / "queries.jsonl")
    return _load_docs(work / "clean.jsonl")


def _restrict(runs, qids):
    qids = set(qids)
    return {qid: slist for qid, slist in runs.items() if qid in qids}


# -- commands --------------------------------------------------------------------

def cmd_ingest(cfg):
    corpus_dir = _require_dir(cfg, "corpus_dir")
    work = _work_dir(cfg)
    raws = ingest.load_raw_corpus(corpus_dir)
    if not raws:
        raise DataError(f"no .txt documents under {corpus_dir}")
    tokenizer = _tokenizer_config(cfg)

    if cfg["task"] == "statute":
        docs = []
        for raw in raws:
            article = ingest.preprocess_article(raw)
            doc = ingest.CleanDocument(id=article.article_id, body=article.content)
            doc.token_length = len(tokenize(doc.text, tokenizer))
            docs.append(doc)
        stats = ingest.IngestStats(documents=len(docs))
        q_raws = ingest.load_raw_corpus(_require_dir(cfg, "queries_dir"))
        queries = []
        for raw in q_raws:
            doc = ingest.CleanDocument(id=raw.id, body=raw.text.strip())
            doc.token_length = len(tokenize(doc.text, tokenizer))
            queries.append(doc)
        out = _atomic_write(work / "queries.jsonl",
                            lambda tmp: ingest.write_clean_jsonl(queries, tmp))
        _record_artifact(cfg, "ingest", out, [])
    else:
        docs, stats = ingest.preprocess_corpus(raws, tokenizer)

    out = _atomic_write(work / "clean.jsonl",
                        lambda tmp: ingest.write_clean_jsonl(docs, tmp))
    stats_payload = {
        "documents": stats.documents,
        "placeholders_removed": stats.placeholders_removed,
        "paragraphs_dropped": stats.paragraphs_dropped,
        "kept_verbatim_ids": sorted(stats.kept_verbatim_ids),
        "dated_documents": stats.dated_documents,
    }
    _atomic_write(
        work / "ingest_stats.json",
        lambda tmp: tmp.write_text(
            json.dumps(stats_payload, sort_keys=True, indent=1), encoding="utf-8"
        ),
    )
    _record_artifact(cfg, "ingest", out, [])
    print(f"ingest: {stats.documents} documents -> {out}")
    return 0


def cmd_index(cfg):
    work = _work_dir(cfg)
    clean = _require_path(work / "clean.jsonl")
    docs = ingest.read_clean_jsonl(clean)
    pairs = [(d.id, d.text) for d in docs]
    for name, ngram in (("index_plain.json", False), ("index_ngram.json", True)):
        index = build_index(pairs, _tokenizer_config(cfg, ngram=ngram))
        out = _atomic_write(work / name, lambda tmp: index.save(tmp))
        _record_artifact(cfg, "index", out, [clean])
        print(f"index: {index.num_docs} docs, {len(index.postings)} terms -> {out}")
    return 0


def _require_path(path):
    if not Path(path).is_file():
        raise DataError(f"missing artifact: {path} (run the earlier stages first)")
    return Path(path)


_SCORER_INDEX = {"bm25": "index_plain.json", "qld": "index_plain.json",
                 "bm25_ngram": "index_ngram.json"}


def cmd_score(cfg):
    work = _work_dir(cfg)
    query_ids = _load_query_ids(cfg)
    queries = _query_doc_map(cfg, work)
    missing = [q for q in query_ids if q not in queries]
    if missing:
        raise DataError(f"query ids without cleaned documents: {missing[:5]}")
    bm25_params = scorers.Bm25Params(k1=float(cfg["bm25_k1"]), b=float(cfg["bm25_b"]))
    qld_params = scorers.QldParams(mu=float(cfg["qld_mu"]))
    for scorer in scorers.SCORER_NAMES:
        index = InvertedIndex.load(_require_path(work / _SCORER_INDEX[scorer]))
        params = qld_params if scorer == "qld" else bm25_params
        lists = [
            scorers.score_all(index, qid, queries[qid].text, scorer, params)
            for qid in sorted(query_ids)
        ]
        out = _atomic_write(work / f"scores_{scorer}.tsv",
                            lambda tmp: scorers.write_score_dump(lists, tmp))
        _record_artifact(cfg, "score", out, [work / _SCORER_INDEX[scorer]])
        print(f"score: {scorer} over {len(lists)} queries -> {out}")
    return 0


_SCORER_FEATURE = {"bm25": "BM25", "qld": "QLD", "bm25_ngram": "BM25_ngram"}


def cmd_features(cfg):
    work = _work_dir(cfg)
    schema = features.get_schema(cfg["schema"])
    candidates = _load_docs(_require_path(work / "clean.jsonl"))
    queries_all = _query_doc_map(cfg, work)
    query_ids = _load_query_ids(cfg)
    missing = [q for q in query_ids if q not in queries_all]
    if missing:
        raise DataError(f"query ids without cleaned documents: {missing[:5]}")
    queries = {qid: queries_all[qid] for qid in query_ids}

    depth = int(cfg["rerank_depth"])
    internal = {}
    inputs = []
    for scorer in scorers.SCORER_NAMES:
        path = _require_path(work / f"scores_{scorer}.tsv")
        inputs.append(path)
        lists = scorers.read_score_dump(path)
        if depth > 0:
            lists = {qid: scorers.top_k(slist, depth) for qid, slist in lists.items()}
        internal[_SCORER_FEATURE[scorer]] = lists

    externals = []
    for name in sorted(cfg["external_scores"]):
        path = Path(cfg["external_scores"][name])
        if not path.is_file():
            raise DataError(f"external score file not found: {path}")
        inputs.append(path)
        externals.append(features.ExternalScoreFile.load(name, path))

    table = features.assemble(queries, candidates, internal, externals, schema)
    if cfg.get("qrels_file"):
        qrels = evaluation.load_qrels(_require_file(cfg, "qrels_file"))
        table, unseen = features.attach_labels(table, qrels)
        if unseen:
            print(f"features: warning: {unseen} qrel pairs never appear in the table")
    out = _atomic_write(work / "features.tsv", lambda tmp: table.to_tsv(tmp))
    _record_artifact(cfg, "features", out, inputs)
    print(f"features: {len(table)} rows x {len(schema)} features -> {out}")
    return 0


def _train_config(cfg, validation_queries):
    return ltr.TrainConfig(
        num_trees=int(cfg["ltr_num_trees"]),
        max_leaves=int(cfg["ltr_max_leaves"]),
        learning_rate=float(cfg["ltr_learning_rate"]),
        min_samples_leaf=int(cfg["ltr_min_samples_leaf"]),
        ndcg_truncation=int(cfg["ltr_ndcg_truncation"]),
        seed=int(cfg["seed"]),
        validation_fraction=float(cfg["ltr_validation_fraction"]),
        validation_queries=validation_queries,
        patience=int(cfg["ltr_patience"]),
    )


def _subset_table(table, qids):
    qids = set(qids)
    rows = [r for r in table.rows if r.query_id in qids]
    return features.FeatureTable(table.schema, rows)


def cmd_train(cfg):
    work = _work_dir(cfg)
    table_path = _require_path(work / "features.tsv")
    table = features.FeatureTable.from_tsv(table_path)
    splits = _load_splits(cfg)
    if splits:
        # Early stopping uses a slice of the train split; the tune split
        # stays unseen so the post-processing grid search is not biased
        # by model selection.
        table = _subset_table(table, splits["train"])
    train_config = _train_config(cfg, None)
    model = ltr.train(table, train_config)
    out = _atomic_write(work / "model.json", lambda tmp: model.save(tmp))
    _record_artifact(cfg, "train", out, [table_path])
    _atomic_write(work / "train_log.tsv",
                  lambda tmp: ltr.write_training_log(model.history, tmp))
    best = model.config["best_iteration"]
    print(
        f"train: kept {len(model.trees)} trees (best iteration {best}), "
        f"validation P@1 {model.validation_precision_at_1:.4f} -> {out}"
    )
    return 0


_SCORE_FLOOR = 1e-6


def _calibrate_positive(runs):
    """Min-max normalize each query's scores into [1e-6, 1].

    Tree-ensemble outputs can be negative, which breaks the score-ratio
    cutoffs (p * S exceeds S when S < 0). The per-query affine map is
    strictly monotone, so rankings are unchanged, it survives the run
    file's six-decimal quantization, and it pins the top score S at 1.0
    so the p * S rule reads as a normalized-score threshold.
    """
    out = {}
    for qid, slist in runs.items():
        if not slist.entries:
            out[qid] = slist
            continue
        top = slist.entries[0][1]
        bottom = slist.entries[-1][1]
        span = top - bottom
        if span <= 0:
            entries = [(doc_id, 1.0) for doc_id, _ in slist.entries]
        else:
            scale = 1.0 - _SCORE_FLOOR
            entries = [
                (doc_id, _SCORE_FLOOR + scale * (score - bottom) / span)
                for doc_id, score in slist.entries
            ]
        out[qid] = scorers.ScoredList(qid, entries)
    return out


def cmd_rerank(cfg):
    work = _work_dir(cfg)
    table_path = _require_path(work / "features.tsv")
    model_path = _require_path(work / "model.json")
    table = features.FeatureTable.from_tsv(table_path)
    model = ltr.TreeEnsemble.load(model_path)
    runs = _calibrate_positive(ltr.predict(model, table))
    out = _atomic_write(
        work / "run_raw.tsv",
        lambda tmp: evaluation.write_run_file(runs, tmp, tag=cfg["run_tag"]),
    )
    _record_artifact(cfg, "rerank", out, [table_path, model_path])
    print(f"rerank: {len(runs)} queries -> {out}")
    return 0


def _pipeline(cfg, work):
    order = tuple(stage.strip() for stage in cfg["filter_order"].split(",") if stage.strip())
    docs = _load_docs(_require_path(work / "clean.jsonl"))
    dates = {doc_id: doc.trial_date for doc_id, doc in docs.items()}
    if cfg["task"] == "statute":
        queries = _query_doc_map(cfg, work)
        dates.update({qid: doc.trial_date for qid, doc in queries.items()})
    query_ids = frozenset(_load_query_ids(cfg))
    return postprocess.PostprocessPipeline(dates=dates, query_ids=query_ids, order=order)


def _grid(cfg):
    grid = {}
    defaults = postprocess.default_grid()
    for name in ("p", "h", "l", "t", "s"):
        values = cfg.get(f"grid_{name}")
        grid[name] = list(values) if values is not None else defaults[name]
    if "duplicate" not in cfg["filter_order"]:
        grid.pop("t", None)
        grid.pop("s", None)
    if "cutoff" not in cfg["filter_order"]:
        grid.pop("h", None)
        grid.pop("l", None)
    return grid


def cmd_tune(cfg):
    work = _work_dir(cfg)
    run_path = _require_path(work / "run_raw.tsv")
    runs = evaluation.read_run_file(run_path)
    all_qrels = evaluation.load_qrels(_require_file(cfg, "qrels_file"))
    qrels = all_qrels
    splits = _load_splits(cfg)
    if splits:
        runs = _restrict(runs, splits["tune"])
        qrels = {qid: docs for qid, docs in all_qrels.items()
                 if qid in set(splits["tune"])}
    pipeline = _pipeline(cfg, work)
    best, table = postprocess.grid_search(
        pipeline, _grid(cfg), runs, qrels, metric=cfg["metric"]
    )
    if cfg["task"] == "statute" and "threshold" in pipeline.order and splits:
        # Statute tuning picks p so the share of queries answered with two
        # or more articles matches the training split, not the metric argmax.
        train_qrels = [all_qrels[q] for q in splits["train"] if q in all_qrels]
        if train_qrels:
            target = sum(1 for docs in train_qrels if len(docs) >= 2) / len(train_qrels)
            best = {"p": postprocess.tune_threshold_by_proportion(
                runs, _grid(cfg)["p"], target)}
    out = _atomic_write(work / "tuning_report.tsv",
                        lambda tmp: postprocess.write_tuning_report(table, tmp))
    _record_artifact(cfg, "tune", out, [run_path])
    _atomic_write(
        work / "tuned_params.json",
        lambda tmp: tmp.write_text(json.dumps(best, sort_keys=True), encoding="utf-8"),
    )
    print(f"tune: {len(table)} grid points, best {best} -> {out}")
    return 0


def cmd_postprocess(cfg):
    work = _work_dir(cfg)
    run_path = _require_path(work / "run_raw.tsv")
    runs = evaluation.read_run_file(run_path)
    tuned_path = work / "tuned_params.json"
    if tuned_path.is_file():
        params = json.loads(tuned_path.read_text(encoding="utf-8"))
    else:
        params = {name: cfg[f"post_{name}"] for name in ("p", "h", "l", "t", "s")}
    pipeline = _pipeline(cfg, work)
    final = pipeline.apply(runs, params)
    out = _atomic_write(
        work / "run_final.tsv",
        lambda tmp: evaluation.write_run_file(final, tmp, tag=cfg["run_tag"]),
    )
    _record_artifact(cfg, "postprocess", out, [run_path])
    print(f"postprocess: params {params} -> {out}")
    return 0


def cmd_eval(cfg):
    work = _work_dir(cfg)
    run_path = Path(cfg["eval_run"]) if cfg.get("eval_run") else work / "run_final.tsv"
    run_path = _require_path(run_path)
    runs = evaluation.read_run_file(run_path)
    qrels = evaluation.load_qrels(_require_file(cfg, "qrels_file"))
    splits = _load_splits(cfg)
    if splits and cfg["eval_split"] != "all":
        if cfg["eval_split"] not in splits:
            raise ConfigError(f"unknown eval_split: {cfg['eval_split']!r}")
        keep = set(splits[cfg["eval_split"]])
        runs = _restrict(runs, keep)
        qrels = {qid: docs for qid, docs in qrels.items() if qid in keep}
    if cfg["metric"] == "macro_f2":
        report = evaluation.macro_prf2(runs, qrels)
    else:
        report = evaluation.micro_prf1(runs, qrels)
    extra = {
        "metric": cfg["metric"],
        "map": evaluation.mean_average_precision(runs, qrels),
        "recall_at": {str(k): evaluation.recall_at_k(runs, qrels, k) for k in (5, 10, 30)},
        "queries": len(set(runs) | set(qrels)),
    }
    out = _atomic_write(work / "eval_report.json",
                        lambda tmp: evaluation.write_report(report, tmp, extra=extra))
    _record_artifact(cfg, "eval", out, [run_path])
    print(
        f"eval[{cfg['metric']}]: P={report.precision:.4f} R={report.recall:.4f} "
        f"F={report.f_measure:.4f} -> {out}"
    )
    return 0


def cmd_synth(cfg):
    if not cfg.get("synth_dir"):
        raise ConfigError("config key 'synth_dir' is required for synth")
    spec = synth.SyntheticSpec(
        num_queries=int(cfg["synth_num_queries"]),
        num_candidates=int(cfg["synth_num_candidates"]),
        relevant_per_query=float(cfg["synth_relevant_per_query"]),
        vocab_size=int(cfg["synth_vocab_size"]),
        overlap_strength=int(cfg["synth_overlap_strength"]),
        seed=int(cfg["seed"]),
        decoys_per_query=int(cfg["synth_decoys_per_query"]),
    )
    summary = synth.generate(spec, cfg["synth_dir"])
    print(
        f"synth: {summary['documents']} documents, {summary['queries']} queries, "
        f"{summary['relevant_pairs']} relevant pairs -> {cfg['synth_dir']}"
    )
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "index": cmd_index,
    "score": cmd_score,
    "features": cmd_features,
    "train": cmd_train,
    "rerank": cmd_rerank,
    "tune": cmd_tune,
    "postprocess": cmd_postprocess,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="lexfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="flat JSON config file")
        cmd.add_argument("--threads", type=int, default=None,
                         help="cap on worker threads (stages may use fewer)")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        if args.threads is not None:
            cfg["threads"] = args.threads
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"lexfuse: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError, KeyError, DuplicateDocumentError,
            features.ExternalScoreError, ltr.TrainingError) as exc:
        print(f"lexfuse: data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"lexfuse: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
