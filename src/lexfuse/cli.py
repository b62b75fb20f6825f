"""Batch command-line frontend for the retrieval pipelines.

Subcommands run one stage each (ingest, index, score, features, train,
rerank, tune, postprocess, eval, synth) against a flat JSON config file.
Each command reads and writes through one ``Stage``: outputs are written
atomically (temp file + rename) and every artifact is recorded in a
manifest with the hash of every input the command read, so identical
config and seed reproduce byte-identical files and stale artifacts are
refused.

Commands import ``indexing``, ``scorers``, ``features`` and ``ltr`` when
they run, so the stages that need none of them never load numpy.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import secrets
import sys
from pathlib import Path

from . import evaluation, ingest, postprocess, synth


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


def _tree_sha256(path):
    """One digest over the names and contents of a directory's ``*.txt`` files."""
    digest = hashlib.sha256()
    for item in sorted(path.glob("*.txt")):
        digest.update(f"{item.name}\t{_sha256(item)}\n".encode("utf-8"))
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


class Stage:
    """The reads and writes of one command.

    Every input is hashed when it is resolved and every output is written
    atomically; ``record`` then enters each output in ``manifest.json``
    with the full set of inputs the command had read. Reading a work-dir
    artifact fails when an artifact it was built from has since changed.
    """

    def __init__(self, cfg, command):
        self.cfg = cfg
        self.command = command
        self.inputs = {}  # path -> sha256
        self.outputs = []

    @property
    def work(self):
        if not self.cfg.get("work_dir"):
            raise ConfigError("config key 'work_dir' is required")
        return Path(self.cfg["work_dir"])

    def _manifest(self):
        path = self.work / "manifest.json"
        if not path.is_file():
            return {"artifacts": {}}
        return json.loads(path.read_text(encoding="utf-8"))

    def artifact(self, name, required=True):
        """Path of work-dir artifact ``name``; None if absent and not ``required``."""
        path = self.work / name
        if not path.is_file():
            if required:
                raise DataError(f"missing artifact: {path} (run the earlier stages first)")
            return None
        artifacts = self._manifest()["artifacts"]
        current = {str(self.work / n): entry["sha256"] for n, entry in artifacts.items()}
        for source, digest in artifacts.get(name, {}).get("inputs", {}).items():
            if current.get(source, digest) != digest:
                raise DataError(f"stale artifact: {path} was built from an older {source}; "
                                f"rerun the stage that writes {name}")
        self.inputs[str(path)] = _sha256(path)
        return path

    def _config_path(self, key, name):
        value = self.cfg.get(key) if name is None else self.cfg[key].get(name)
        label = key if name is None else f"{key}[{name!r}]"
        if not value:
            raise ConfigError(f"config key {label!r} is required for this command")
        return Path(value), label

    def file(self, key, name=None):
        """Path of the input file config ``key`` names (entry ``name`` of a mapping)."""
        path, label = self._config_path(key, name)
        if not path.is_file():
            raise DataError(f"{label}: no such file: {path}")
        self.inputs[str(path)] = _sha256(path)
        return path

    def directory(self, key):
        """Path of the input directory config ``key`` names."""
        path, label = self._config_path(key, None)
        if not path.is_dir():
            raise DataError(f"{label}: no such directory: {path}")
        self.inputs[str(path)] = _tree_sha256(path)
        return path

    def write(self, name, writer):
        """Write work-dir artifact ``name`` atomically through ``writer(tmp_path)``."""
        self.work.mkdir(parents=True, exist_ok=True)
        path = _atomic_write(self.work / name, writer)
        self.outputs.append(path)
        return path

    def record(self):
        """Enter every output in the manifest, in one write."""
        if not self.outputs:
            return
        manifest = self._manifest()
        config_hash = hashlib.sha256(
            json.dumps(self.cfg, sort_keys=True).encode("utf-8")
        ).hexdigest()
        for path in self.outputs:
            manifest["artifacts"][path.name] = {
                "command": self.command,
                "sha256": _sha256(path),
                "config_sha256": config_hash,
                "inputs": dict(sorted(self.inputs.items())),
            }
        _atomic_write(
            self.work / "manifest.json",
            lambda tmp: tmp.write_text(
                json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8"
            ),
        )


def _settings(cls, cfg, prefix, **fixed):
    """``cls`` from config keys ``<prefix><field>``; a bad value is a usage error."""
    try:
        return cls(**fixed, **{
            f.name: evaluation.setting_number(f.name, cfg[prefix + f.name], f.type)
            for f in dataclasses.fields(cls) if f.name not in fixed})
    except evaluation.SettingError as exc:
        raise ConfigError(f"config key '{prefix}{exc.name}': {exc}") from None


def _tokenizer_config(cfg, ngram=False):
    return ingest.TokenizerConfig(
        lowercase=bool(cfg["lowercase"]),
        min_token_len=int(cfg["min_token_len"]),
        ngram_lo=int(cfg["ngram_lo"]) if ngram else 1,
        ngram_hi=int(cfg["ngram_hi"]) if ngram else 1,
    )


def _load_docs(path):
    return {doc.id: doc for doc in ingest.read_clean_jsonl(path)}


def _load_query_ids(stage):
    path = stage.file("queries_file")
    ids = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(ids, list) or not all(isinstance(q, str) for q in ids):
        raise DataError(f"{path}: queries file must be a JSON list of ids")
    return ids


def _query_docs(stage, corpus=None):
    """Cleaned documents of the configured queries.

    Queries are corpus documents (case task; ``corpus`` is the loaded
    ``clean.jsonl`` when the caller has it) or separate files (statute).
    """
    if stage.cfg["task"] == "statute":
        docs = _load_docs(stage.artifact("queries.jsonl"))
    else:
        docs = corpus if corpus is not None else _load_docs(stage.artifact("clean.jsonl"))
    query_ids = _load_query_ids(stage)
    missing = [q for q in query_ids if q not in docs]
    if missing:
        raise DataError(f"query ids without cleaned documents: {missing[:5]}")
    return {qid: docs[qid] for qid in query_ids}


def _load_splits(stage):
    if not stage.cfg.get("splits_file"):
        return None
    path = stage.file("splits_file")
    splits = evaluation.load_id_lists(path, "splits", "split names to lists of query ids")
    for name in ("train", "tune", "test"):
        if name not in splits:
            raise DataError(f"{path}: missing split {name!r}")
    return splits


def _restrict(runs, qids):
    qids = set(qids)
    return {qid: slist for qid, slist in runs.items() if qid in qids}


# -- commands --------------------------------------------------------------------

def _tokenized_doc(doc_id, body, tokenizer):
    doc = ingest.CleanDocument(id=doc_id, body=body)
    doc.token_length = len(ingest.tokenize(doc.text, tokenizer))
    return doc


def cmd_ingest(stage):
    cfg = stage.cfg
    corpus_dir = stage.directory("corpus_dir")
    raws = ingest.load_raw_corpus(corpus_dir)
    if not raws:
        raise DataError(f"no .txt documents under {corpus_dir}")
    tokenizer = _tokenizer_config(cfg)

    if cfg["task"] == "statute":
        articles = [ingest.preprocess_article(raw) for raw in raws]
        docs = [_tokenized_doc(a.article_id, a.content, tokenizer) for a in articles]
        stats = ingest.IngestStats(documents=len(docs))
        queries = [_tokenized_doc(raw.id, raw.text.strip(), tokenizer)
                   for raw in ingest.load_raw_corpus(stage.directory("queries_dir"))]
        stage.write("queries.jsonl", lambda tmp: ingest.write_clean_jsonl(queries, tmp))
    else:
        docs, stats = ingest.preprocess_corpus(raws, tokenizer)

    out = stage.write("clean.jsonl", lambda tmp: ingest.write_clean_jsonl(docs, tmp))
    stats_payload = dataclasses.asdict(stats)
    stats_payload["kept_verbatim_ids"].sort()
    stage.write("ingest_stats.json", lambda tmp: tmp.write_text(
        json.dumps(stats_payload, sort_keys=True, indent=1), encoding="utf-8"))
    print(f"ingest: {stats.documents} documents -> {out}")


def cmd_index(stage):
    from . import indexing
    docs = ingest.read_clean_jsonl(stage.artifact("clean.jsonl"))
    pairs = [(d.id, d.text) for d in docs]
    for name, ngram in (("index_plain.json", False), ("index_ngram.json", True)):
        index = indexing.build_index(pairs, _tokenizer_config(stage.cfg, ngram=ngram))
        out = stage.write(name, lambda tmp: index.save(tmp))
        print(f"index: {index.num_docs} docs, {len(index.postings)} terms -> {out}")


_INDEX_SCORERS = (("index_plain.json", ("bm25", "qld")),
                  ("index_ngram.json", ("bm25_ngram",)))


def cmd_score(stage):
    from . import indexing, scorers
    bm25_params = _settings(scorers.Bm25Params, stage.cfg, "bm25_")
    qld_params = _settings(scorers.QldParams, stage.cfg, "qld_")
    queries = _query_docs(stage)
    for index_name, names in _INDEX_SCORERS:
        index = indexing.InvertedIndex.load(stage.artifact(index_name))
        for scorer in names:
            params = qld_params if scorer == "qld" else bm25_params
            lists = [
                scorers.score_all(index, qid, queries[qid].text, scorer, params)
                for qid in sorted(queries)
            ]
            out = stage.write(f"scores_{scorer}.tsv",
                              lambda tmp: scorers.write_score_dump(lists, tmp))
            print(f"score: {scorer} over {len(lists)} queries -> {out}")
            del lists  # one scorer's lists at a time bound the stage's peak memory


_SCORER_FEATURE = {"bm25": "BM25", "qld": "QLD", "bm25_ngram": "BM25_ngram"}


def cmd_features(stage):
    from . import features, scorers
    cfg = stage.cfg
    schema = features.get_schema(cfg["schema"])
    candidates = _load_docs(stage.artifact("clean.jsonl"))
    queries = _query_docs(stage, candidates)

    depth = int(cfg["rerank_depth"])
    internal = {}
    for scorer in scorers.SCORER_NAMES:
        lists = scorers.read_score_dump(stage.artifact(f"scores_{scorer}.tsv"))
        if depth > 0:
            lists = {qid: scorers.top_k(slist, depth) for qid, slist in lists.items()}
        internal[_SCORER_FEATURE[scorer]] = lists

    externals = [
        features.ExternalScoreFile.load(name, stage.file("external_scores", name))
        for name in sorted(cfg["external_scores"])
    ]

    table = features.assemble(queries, candidates, internal, externals, schema)
    if cfg.get("qrels_file"):
        qrels = evaluation.load_qrels(stage.file("qrels_file"))
        table, unseen = features.attach_labels(table, qrels)
        if unseen:
            print(f"features: warning: {unseen} qrel pairs never appear in the table")
    out = stage.write("features.tsv", lambda tmp: table.to_tsv(tmp))
    print(f"features: {len(table)} rows x {len(schema)} features -> {out}")


def cmd_train(stage):
    from . import features, ltr
    config = _settings(ltr.TrainConfig, stage.cfg, "ltr_", seed=int(stage.cfg["seed"]))
    table = features.FeatureTable.from_tsv(stage.artifact("features.tsv"))
    splits = _load_splits(stage)
    if splits:
        # Early stopping uses a slice of the train split; the tune split
        # stays unseen so the post-processing grid search is not biased
        # by model selection.
        keep = set(splits["train"])
        rows = [i for i, qid in enumerate(table.query_ids) if qid in keep]
        table = features.FeatureTable(
            table.schema, [table.query_ids[i] for i in rows],
            [table.candidate_ids[i] for i in rows], table.X[rows], table.labels[rows])
    model = ltr.train(table, config)
    out = stage.write("model.json", lambda tmp: model.save(tmp))
    stage.write("train_log.tsv", lambda tmp: ltr.write_training_log(model.history, tmp))
    best = model.config["best_iteration"]
    print(
        f"train: kept {len(model.trees)} trees (best iteration {best}), "
        f"validation P@1 {model.validation_precision_at_1:.4f} -> {out}"
    )


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
        out[qid] = evaluation.ScoredList(qid, entries)
    return out


def cmd_rerank(stage):
    from . import features, ltr
    table = features.FeatureTable.from_tsv(stage.artifact("features.tsv"))
    model = ltr.TreeEnsemble.load(stage.artifact("model.json"))
    runs = _calibrate_positive(ltr.predict(model, table))
    out = stage.write(
        "run_raw.tsv",
        lambda tmp: evaluation.write_run_file(runs, tmp, tag=stage.cfg["run_tag"]),
    )
    print(f"rerank: {len(runs)} queries -> {out}")


def _pipeline(stage):
    cfg = stage.cfg
    order = tuple(name.strip() for name in cfg["filter_order"].split(",") if name.strip())
    # Statute questions carry no trial date, so the corpus dates are all
    # the date filter can use.
    docs = _load_docs(stage.artifact("clean.jsonl"))
    dates = {doc_id: doc.trial_date for doc_id, doc in docs.items()}
    query_ids = frozenset(_load_query_ids(stage))
    return postprocess.PostprocessPipeline(dates=dates, query_ids=query_ids, order=order)


def _grid(cfg):
    grid = {}
    defaults = postprocess.default_grid()
    for name in ("p", "h", "l", "t", "s"):
        values = cfg.get(f"grid_{name}")
        if values is not None and not isinstance(values, list):
            raise ConfigError(f"config key 'grid_{name}' must be a list, got {values!r}")
        grid[name] = list(values) if values is not None else defaults[name]
    if "duplicate" not in cfg["filter_order"]:
        grid.pop("t", None)
        grid.pop("s", None)
    if "cutoff" not in cfg["filter_order"]:
        grid.pop("h", None)
        grid.pop("l", None)
    return grid


def cmd_tune(stage):
    cfg = stage.cfg
    runs = evaluation.read_run_file(stage.artifact("run_raw.tsv"))
    all_qrels = evaluation.load_qrels(stage.file("qrels_file"))
    qrels = all_qrels
    splits = _load_splits(stage)
    if splits:
        runs = _restrict(runs, splits["tune"])
        qrels = _restrict(all_qrels, splits["tune"])
    pipeline = _pipeline(stage)
    try:
        best, table = postprocess.grid_search(
            pipeline, _grid(cfg), runs, qrels, metric=cfg["metric"]
        )
    except evaluation.SettingError as exc:
        raise ConfigError(f"config key 'grid_{exc.name}': {exc}") from None
    if cfg["task"] == "statute" and "threshold" in pipeline.order and splits:
        # Statute tuning picks p so the share of queries answered with two
        # or more articles matches the training split, not the metric argmax.
        # grid_search has already checked every p of the grid.
        train_qrels = [all_qrels[q] for q in splits["train"] if q in all_qrels]
        if train_qrels:
            target = sum(1 for docs in train_qrels if len(docs) >= 2) / len(train_qrels)
            best = {"p": postprocess.tune_threshold_by_proportion(
                runs, _grid(cfg)["p"], target)}
    out = stage.write("tuning_report.tsv",
                      lambda tmp: postprocess.write_tuning_report(table, tmp))
    stage.write("tuned_params.json", lambda tmp: tmp.write_text(
        json.dumps(best, sort_keys=True), encoding="utf-8"))
    print(f"tune: {len(table)} grid points, best {best} -> {out}")


def cmd_postprocess(stage):
    cfg = stage.cfg
    runs = evaluation.read_run_file(stage.artifact("run_raw.tsv"))
    tuned_path = stage.artifact("tuned_params.json", required=False)
    if tuned_path is not None:
        try:
            params = json.loads(tuned_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"{tuned_path}: not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise DataError(f"{tuned_path}: tuned parameters must be a JSON object")
    else:
        params = {name: cfg[f"post_{name}"] for name in ("p", "h", "l", "t", "s")}
    try:
        final = _pipeline(stage).apply(runs, params)
    except evaluation.SettingError as exc:
        if tuned_path is not None:
            raise DataError(f"{tuned_path}: {exc}") from None
        raise ConfigError(f"config key 'post_{exc.name}': {exc}") from None
    out = stage.write(
        "run_final.tsv",
        lambda tmp: evaluation.write_run_file(final, tmp, tag=cfg["run_tag"]),
    )
    print(f"postprocess: params {params} -> {out}")


def cmd_eval(stage):
    cfg = stage.cfg
    run_path = stage.file("eval_run") if cfg.get("eval_run") else stage.artifact("run_final.tsv")
    runs = evaluation.read_run_file(run_path)
    qrels = evaluation.load_qrels(stage.file("qrels_file"))
    splits = _load_splits(stage)
    if splits and cfg["eval_split"] != "all":
        if cfg["eval_split"] not in splits:
            raise ConfigError(f"unknown eval_split: {cfg['eval_split']!r}")
        runs = _restrict(runs, splits[cfg["eval_split"]])
        qrels = _restrict(qrels, splits[cfg["eval_split"]])
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
    out = stage.write("eval_report.json",
                      lambda tmp: evaluation.write_report(report, tmp, extra=extra))
    print(
        f"eval[{cfg['metric']}]: P={report.precision:.4f} R={report.recall:.4f} "
        f"F={report.f_measure:.4f} -> {out}"
    )


def cmd_synth(stage):
    cfg = stage.cfg
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
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        stage = Stage(load_config(args.config), args.command)
        try:
            _COMMANDS[args.command](stage)
        finally:
            # Outputs written before a failure are on disk too; the
            # manifest must describe them.
            stage.record()
        return 0
    except ConfigError as exc:
        print(f"lexfuse: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError, KeyError) as exc:
        print(f"lexfuse: data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"lexfuse: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
