"""Batch command-line frontend for the retrieval pipelines.

Subcommands run one stage each (ingest, index, score, features, train,
rerank, tune, postprocess, eval, synth) against a flat JSON config file.
Each command reads and writes through one ``Stage``: outputs are written
atomically (temp file + rename) and every artifact is recorded in a
manifest with the hash of every input the command read, so identical
config and seed reproduce byte-identical files and stale or edited
artifacts are refused.

Commands import ``indexing``, ``scorers``, ``features`` and ``ltr`` when
they run, so the stages that need none of them never load numpy.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import os
import secrets
import sys
from pathlib import Path

from . import evaluation, ingest, postprocess, synth
from .evaluation import DataError, SettingError

# Every config key: (default, kind, allowed). ``kind`` is int, float, bool,
# str, dict (external_scores: feature name -> path) or list (grid_p, grid_h,
# grid_l, grid_t, grid_s: non-empty, each value checked as the post_* key
# ``allowed`` names). ``allowed`` is the range of a number ('>= 1',
# 'in (0, 1]') or the values a str may take; filter_order takes distinct,
# comma-separated ones. A key whose default is null may also be null.
SETTINGS = {
    "task": ("case", str, ("case", "statute")),
    "corpus_dir": (None, str, None),
    "queries_file": (None, str, None),
    "queries_dir": (None, str, None),  # statute task: directory of question files
    "qrels_file": (None, str, None),
    "splits_file": (None, str, None),
    "work_dir": (None, str, None),
    "seed": (0, int, None),
    "run_tag": ("lexfuse", str, None),  # one run-file field: no tab, newline or CR
    "lowercase": (True, bool, None),
    "min_token_len": (1, int, ">= 1"),
    "ngram_lo": (1, int, ">= 1"),
    "ngram_hi": (3, int, ">= 1"),
    "bm25_k1": (3.0, float, "in [0, 1000]"),
    "bm25_b": (1.0, float, "in [0, 1]"),
    "qld_mu": (2000.0, float, ">= 1"),
    "rerank_depth": (200, int, ">= 0"),  # 0 keeps every scored candidate
    "schema": ("task1_v1", str, None),  # resolved by features.get_schema
    "external_scores": ({}, dict, None),
    "ltr_num_trees": (300, int, ">= 1"),
    "ltr_max_leaves": (31, int, ">= 2"),
    "ltr_learning_rate": (0.05, float, "in (0, 1]"),
    "ltr_min_samples_leaf": (20, int, ">= 1"),
    "ltr_ndcg_truncation": (10, int, ">= 1"),
    "ltr_validation_fraction": (0.2, float, "in (0, 1)"),
    "ltr_patience": (50, int, ">= 1"),
    **{f"grid_{name}": (None, list, f"post_{name}") for name in postprocess.default_grid()},
    "filter_order": ("date,query,duplicate,cutoff", str, postprocess.FILTERS),
    "metric": ("micro_f1", str, tuple(postprocess._METRICS)),
    "eval_split": ("all", str, None),  # other than all: a split of splits_file
    "eval_run": (None, str, None),
    "post_p": (postprocess.TASK1_RUN3_PARAMS["p"], float, "in [0, 1]"),
    "post_h": (postprocess.TASK1_RUN3_PARAMS["h"], int, ">= 1"),
    "post_l": (postprocess.TASK1_RUN3_PARAMS["l"], int, ">= 0"),  # and at most post_h
    "post_t": (postprocess.TASK1_RUN3_PARAMS["t"], int, ">= 1"),
    "post_s": (postprocess.TASK1_RUN3_PARAMS["s"], int, ">= 0"),
    "synth_dir": (None, str, None),
    "synth_num_queries": (100, int, ">= 1"),
    "synth_num_candidates": (850, int, ">= 1"),
    "synth_relevant_per_query": (4.16, float, "> 0"),
    "synth_vocab_size": (500, int, ">= 10"),
    "synth_overlap_strength": (3, int, ">= 1"),
    "synth_decoys_per_query": (3, int, ">= 0"),
}

DEFAULTS = {key: default for key, (default, _, _) in SETTINGS.items()}

_SCORER_FEATURE = {"bm25": "BM25", "qld": "QLD", "bm25_ngram": "BM25_ngram"}
# Features lexfuse computes itself, which no external_scores entry may name.
_NOT_EXTERNAL = (*_SCORER_FEATURE.values(), *ingest.DOCUMENT_FEATURES)


def _within(rule, x):
    """Whether ``x`` meets ``rule``: '>= a', '> a' or 'in [a, b]', with ( or ) for an open end."""
    if rule.startswith(">"):
        return x >= float(rule[3:]) if rule.startswith(">=") else x > float(rule[2:])
    lo, hi = (float(bound) for bound in rule[4:-1].split(","))
    return (lo <= x if rule[3] == "[" else lo < x) and (x <= hi if rule[-1] == "]" else x < hi)


def _number(label, value, kind, rule=None):
    """``value`` as a ``kind`` (int or float) that meets ``rule``, or SettingError ``label: ...``.

    Only finite numbers count and an int takes only integral values: a string, a bool,
    NaN or 2.5 for an int is refused, never converted or truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        problem = "a number"
    else:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            problem = "finite"
        elif kind is int and not number.is_integer():
            problem = "an integer"
        elif rule and not _within(rule, number):
            problem = rule
        else:
            return int(value) if kind is int else number
    raise SettingError(f"{label}: must be {problem}, got {value!r}")


def _value(key, value):
    """``value`` as config key ``key`` takes it; a SettingError names the key otherwise."""
    default, kind, allowed = SETTINGS[key]
    label = f"config key {key!r}"
    if value is None and default is None:
        return None
    if kind in (int, float):
        return _number(label, value, kind, allowed)
    if not isinstance(value, kind):
        raise SettingError(f"{label}: must be a {kind.__name__}, got {value!r}")
    if kind is list:
        if not value:
            raise SettingError(f"{label}: must not be empty")
        _, kind, rule = SETTINGS[allowed]
        return [_number(label, v, kind, rule) for v in value]
    if kind is dict:
        if not all(isinstance(v, str) for v in value.values()) or set(value) & set(_NOT_EXTERNAL):
            raise SettingError(f"{label}: must map feature names other than "
                               f"{', '.join(_NOT_EXTERNAL)} to paths, got {value!r}")
        return dict(value)
    if key == "filter_order":
        names = tuple(name.strip() for name in value.split(",") if name.strip())
        if not set(names) <= set(allowed) or len(set(names)) < len(names):
            raise SettingError(f"{label}: must name distinct filters of {', '.join(allowed)}, "
                               f"got {value!r}")
        return names
    if key == "run_tag" and any(c in value for c in "\t\n\r"):
        raise SettingError(f"{label}: must not hold a tab, newline or carriage return, "
                           f"got {value!r}")
    if allowed and value not in allowed:
        raise SettingError(f"{label}: must be one of {', '.join(allowed)}, got {value!r}")
    return value


def check_config(raw):
    """DEFAULTS overlaid with the JSON object ``raw``, each value checked against SETTINGS
    and given as its key's kind (40.0 for an int key is 40, filter_order a tuple)."""
    if not isinstance(raw, dict):
        raise SettingError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(SETTINGS))
    if unknown:
        raise SettingError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {key: _value(key, raw.get(key, default)) for key, default in DEFAULTS.items()}
    for low, high in (("ngram_lo", "ngram_hi"), ("post_l", "post_h")):
        if cfg[low] > cfg[high]:
            raise SettingError(f"config key {low!r}: {cfg[low]} is above {high} {cfg[high]}")
    grid = _grid(dict(cfg, filter_order=postprocess.FILTERS))
    if min(grid["l"]) > max(grid["h"]):
        raise SettingError("config key 'grid_l': every value is above every grid_h value")
    if cfg["eval_split"] != "all" and not cfg["splits_file"]:
        raise SettingError(f"config key 'eval_split': {cfg['eval_split']!r} needs "
                           f"config key 'splits_file'")
    return cfg


def load_config(path):
    """Checked settings of config file ``path``."""
    return check_config(evaluation._read_json(path, SettingError))


# -- small infrastructure ------------------------------------------------------

def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _tree_sha256(path):
    """One digest over the names and contents of a directory's ``*.txt`` files.

    A name is hashed as its bytes, which need not be UTF-8; ingest refuses such a name."""
    digest = hashlib.sha256()
    for item in sorted(path.glob("*.txt")):
        digest.update(f"{item.name}\t{_sha256(item)}\n".encode("utf-8", "surrogateescape"))
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
    artifact fails when its bytes, or those of an artifact it was built
    from, differ from the manifest; an artifact with no entry is read as is.
    """

    def __init__(self, cfg, command):
        self.cfg = cfg
        self.command = command
        self.inputs = {}  # path -> sha256
        self.verified = set()  # artifact paths whose bytes equal their manifest entry
        self.outputs = []

    @property
    def work(self):
        if not self.cfg.get("work_dir"):
            raise SettingError("config key 'work_dir' is required")
        return Path(self.cfg["work_dir"])

    def _manifest(self):
        path = self.work / "manifest.json"
        if not path.is_file():
            return {"artifacts": {}}
        manifest = evaluation._read_json(path)
        artifacts = manifest.get("artifacts") if isinstance(manifest, dict) else None
        if not isinstance(artifacts, dict) or not all(
                isinstance(entry, dict) and isinstance(entry.get("inputs"), dict)
                and all(isinstance(entry.get(key), str) for key in ("command", "sha256"))
                for entry in artifacts.values()):
            raise DataError(f"{path}: not a lexfuse manifest")
        return manifest

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
                raise DataError(f"stale artifact: {path} was built from an older {source} "
                                f"(per {self.work / 'manifest.json'}); "
                                f"rerun the stage that writes {name}")
        digest = self.inputs[str(path)] = _sha256(path)
        if current.get(str(path), digest) != digest:
            command = artifacts[name]["command"]
            raise DataError(f"{path}: modified since {command} wrote it "
                            f"(per {self.work / 'manifest.json'}); rerun {command}")
        if str(path) in current:
            self.verified.add(path)
        return path

    def _config_path(self, key, name):
        value = self.cfg.get(key) if name is None else self.cfg[key].get(name)
        label = key if name is None else f"{key}[{name!r}]"
        if not value:
            raise SettingError(f"config key {label!r} is required for this command")
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
        for path in self.outputs:
            manifest["artifacts"][path.name] = {
                "command": self.command,
                "sha256": _sha256(path),
                "inputs": dict(sorted(self.inputs.items())),
            }
        _atomic_write(
            self.work / "manifest.json",
            lambda tmp: tmp.write_text(
                json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8"
            ),
        )


def _record(cls, cfg, prefix, **fixed):
    """``cls`` from the checked config keys ``<prefix><field>`` and the ``fixed`` fields."""
    return cls(**fixed, **{f.name: cfg[prefix + f.name]
                           for f in dataclasses.fields(cls) if f.name not in fixed})


def _tokenizer_config(cfg, ngram=False):
    return _record(ingest.TokenizerConfig, cfg, "", **({} if ngram else
                                                      {"ngram_lo": 1, "ngram_hi": 1}))


def _load_query_ids(stage):
    path = stage.file("queries_file")
    ids = evaluation._read_json(path)
    if not isinstance(ids, list) or not all(isinstance(q, str) for q in ids):
        raise DataError(f"{path}: queries file must be a JSON list of ids")
    return ids


def _query_docs(stage, corpus=None):
    """Cleaned documents of the configured queries: corpus documents (case task;
    ``corpus`` is the loaded ``clean.jsonl`` if the caller has it) or question files."""
    name = "queries.jsonl" if stage.cfg["task"] == "statute" else "clean.jsonl"
    if corpus is None or name == "queries.jsonl":
        corpus = ingest.read_clean_jsonl(stage.artifact(name))
    query_ids = _load_query_ids(stage)
    missing = [q for q in query_ids if q not in corpus]
    if missing:
        raise DataError(f"{stage.work / name}: no document for query ids {missing[:5]}")
    return {qid: corpus[qid] for qid in query_ids}


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

def cmd_ingest(stage):
    cfg = stage.cfg
    corpus_dir = stage.directory("corpus_dir")
    raws = ingest.load_raw_corpus(corpus_dir)
    if not raws:
        raise DataError(f"no .txt documents under {corpus_dir}")
    if cfg["task"] == "statute":
        docs = [ingest.preprocess_article(raw) for raw in raws]
        stats = ingest.IngestStats(documents=len(docs))
        queries = [ingest.CleanDocument(id=raw.id, body=raw.text.strip())
                   for raw in ingest.load_raw_corpus(stage.directory("queries_dir"))]
    else:
        (docs, stats), queries = ingest.preprocess_corpus(raws), []
    tokenizer = _tokenizer_config(cfg)
    for doc in docs + queries:  # cases, or articles and statute questions
        doc.token_length = len(ingest.tokenize(doc.text, tokenizer))
    if cfg["task"] == "statute":
        stage.write("queries.jsonl", lambda tmp: ingest.write_clean_jsonl(queries, tmp))

    out = stage.write("clean.jsonl", lambda tmp: ingest.write_clean_jsonl(docs, tmp))
    stats_payload = dataclasses.asdict(stats)
    stats_payload["kept_verbatim_ids"].sort()
    stage.write("ingest_stats.json", lambda tmp: tmp.write_text(
        json.dumps(stats_payload, sort_keys=True, indent=1), encoding="utf-8"))
    print(f"ingest: {stats.documents} documents -> {out}")


def cmd_index(stage):
    from . import indexing
    docs = ingest.read_clean_jsonl(stage.artifact("clean.jsonl"))
    pairs = [(d.id, d.text) for d in docs.values()]
    for name, ngram in (("index_plain.json", False), ("index_ngram.json", True)):
        index = indexing.build_index(pairs, _tokenizer_config(stage.cfg, ngram=ngram))
        out = stage.write(name, lambda tmp: index.save(tmp))
        print(f"index: {index.num_docs} docs, {len(index.postings)} terms -> {out}")


_INDEX_SCORERS = (("index_plain.json", ("bm25", "qld")),
                  ("index_ngram.json", ("bm25_ngram",)))


def cmd_score(stage):
    from . import indexing, scorers
    bm25_params = _record(scorers.Bm25Params, stage.cfg, "bm25_")
    qld_params = _record(scorers.QldParams, stage.cfg, "qld_")
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


def cmd_features(stage):
    from . import features, scorers
    cfg = stage.cfg
    schema = features.get_schema(cfg["schema"])
    features.check_sources(schema, [*_SCORER_FEATURE.values(), *cfg["external_scores"]])
    candidates = ingest.read_clean_jsonl(stage.artifact("clean.jsonl"))
    queries = _query_docs(stage, candidates)

    depth = cfg["rerank_depth"]
    scores = {}  # score source name -> {query_id: ScoredList}
    for scorer in scorers.SCORER_NAMES:
        path = stage.artifact(f"scores_{scorer}.tsv")
        # A dump as score wrote it holds each query's rows in one block of
        # descending scores, so only its top rows need parsing; a dump with
        # no manifest entry is parsed, and checked, in full.
        limited = depth > 0 and path in stage.verified
        lists = scorers.read_score_dump(path, depth if limited else None)
        if depth > 0:
            lists = {qid: scorers.top_k(slist, depth) for qid, slist in lists.items()}
        unknown = next((doc_id for qid in queries if qid in lists
                        for doc_id, _ in lists[qid].entries if doc_id not in candidates), None)
        if unknown is not None:
            raise DataError(f"{path}: candidate {unknown!r} is not in clean.jsonl")
        scores[_SCORER_FEATURE[scorer]] = lists
    for name in sorted(cfg["external_scores"]):
        path = stage.file("external_scores", name)
        scores[name] = features.ExternalScoreFile.load(name, path).lists

    qrels = evaluation.load_qrels(stage.file("qrels_file")) if cfg.get("qrels_file") else None
    table = features.assemble(queries, candidates, scores, _SCORER_FEATURE.values(), schema,
                              qrels)
    # Rows are distinct pairs, so each qrel pair labels at most one row.
    unseen = sum(map(len, qrels.values())) - int((table.labels == 1).sum()) if qrels else 0
    if unseen:
        print(f"features: warning: {unseen} qrel pairs never appear in the table")
    out = stage.write("features.tsv", lambda tmp: table.to_tsv(tmp))
    print(f"features: {len(table)} rows x {len(schema)} features -> {out}")


def cmd_train(stage):
    from . import features, ltr
    config = _record(ltr.TrainConfig, stage.cfg, "ltr_", seed=stage.cfg["seed"])
    path = stage.artifact("features.tsv")
    table = features.FeatureTable.from_tsv(path)
    splits = _load_splits(stage)
    if splits:
        # Early stopping uses a slice of the train split; the tune split
        # stays unseen so the post-processing grid search is not biased
        # by model selection.
        table = table.select(set(splits["train"]))
    try:
        model = ltr.train(table, config)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    out = stage.write("model.json", lambda tmp: model.save(tmp))
    stage.write("train_log.tsv", lambda tmp: ltr.write_training_log(model.history, tmp))
    best = model.config["best_iteration"]
    print(
        f"train: kept {len(model.trees)} trees (best iteration {best}), "
        f"validation P@1 {model.validation_precision_at_1:.4f} -> {out}"
    )


def cmd_rerank(stage):
    from . import features, ltr
    table_path, model_path = stage.artifact("features.tsv"), stage.artifact("model.json")
    table = features.FeatureTable.from_tsv(table_path)
    model = ltr.TreeEnsemble.load(model_path)
    try:
        runs = ltr.predict(model, table)
    except DataError as exc:
        raise DataError(f"{model_path} and {table_path}: {exc}") from None
    out = stage.write(
        "run_raw.tsv",
        lambda tmp: evaluation.write_run_file(runs, tmp, tag=stage.cfg["run_tag"]),
    )
    print(f"rerank: {len(runs)} queries -> {out}")


def _pipeline(stage):
    # Statute questions carry no trial date, so the corpus dates are all
    # the date filter can use.
    docs = ingest.read_clean_jsonl(stage.artifact("clean.jsonl"))
    dates = {doc_id: doc.trial_date for doc_id, doc in docs.items()}
    query_ids = frozenset(_load_query_ids(stage))
    return postprocess.PostprocessPipeline(dates=dates, query_ids=query_ids,
                                           order=stage.cfg["filter_order"])


def _grid(cfg):
    """The grid_* list, or the default grid's, of each parameter filter_order takes."""
    defaults = postprocess.default_grid()
    return {name: cfg[f"grid_{name}"] or defaults[name]
            for name in postprocess.parameters(cfg["filter_order"])}


def cmd_tune(stage):
    cfg = stage.cfg
    run_path = stage.artifact("run_raw.tsv")
    runs = evaluation.read_run_file(run_path)
    all_qrels = evaluation.load_qrels(stage.file("qrels_file"))
    qrels = all_qrels
    splits = _load_splits(stage)
    if splits:
        runs = _restrict(runs, splits["tune"])
        qrels = _restrict(all_qrels, splits["tune"])
    if not runs:
        raise DataError(f"{run_path}: no query to tune on")
    pipeline, grid = _pipeline(stage), _grid(cfg)
    best, table = postprocess.grid_search(pipeline, grid, runs, qrels, metric=cfg["metric"])
    if cfg["task"] == "statute" and "threshold" in pipeline.order and splits:
        # Statute tuning picks p so the share of queries answered with two
        # or more articles matches the training split, not the metric argmax.
        train_qrels = [all_qrels[q] for q in splits["train"] if q in all_qrels]
        if train_qrels:
            target = sum(1 for docs in train_qrels if len(docs) >= 2) / len(train_qrels)
            best = dict(best, p=postprocess.tune_threshold_by_proportion(runs, grid["p"], target))
    out = stage.write("tuning_report.tsv",
                      lambda tmp: postprocess.write_tuning_report(table, tmp))
    stage.write("tuned_params.json", lambda tmp: tmp.write_text(
        json.dumps(best, sort_keys=True), encoding="utf-8"))
    print(f"tune: {len(table)} grid points, best {best} -> {out}")


def _tuned_params(path, order):
    """The parameters ``tune`` wrote to ``path``: exactly those ``order`` takes, checked."""
    params = evaluation._read_json(path)
    names = postprocess.parameters(order)
    if not isinstance(params, dict) or set(params) != set(names):
        raise DataError(f"{path}: filter_order {','.join(order)} needs tuned parameters "
                        f"{{{', '.join(names)}}}, got {params!r}; rerun tune")
    try:
        cfg = check_config({f"post_{name}": value for name, value in params.items()})
    except SettingError as exc:
        raise DataError(f"{path}: {exc}") from None
    return {name: cfg[f"post_{name}"] for name in params}


def cmd_postprocess(stage):
    cfg = stage.cfg
    runs = evaluation.read_run_file(stage.artifact("run_raw.tsv"))
    tuned_path = stage.artifact("tuned_params.json", required=False)
    if tuned_path is not None:
        params = _tuned_params(tuned_path, cfg["filter_order"])
    else:
        params = {name: cfg[f"post_{name}"] for name in postprocess.parameters(cfg["filter_order"])}
    final = _pipeline(stage).apply(runs, params)
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
    if cfg["eval_split"] != "all":
        if cfg["eval_split"] not in splits:
            raise SettingError(f"config key 'eval_split': no split {cfg['eval_split']!r} "
                               f"in {cfg['splits_file']}")
        runs = _restrict(runs, splits[cfg["eval_split"]])
        qrels = _restrict(qrels, splits[cfg["eval_split"]])
    report = postprocess._METRICS[cfg["metric"]](runs, qrels)
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
        raise SettingError("config key 'synth_dir' is required for synth")
    spec = _record(synth.SyntheticSpec, cfg, "synth_", seed=cfg["seed"])
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
        raise SettingError(message)


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
    except SettingError as exc:
        print(f"lexfuse: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"lexfuse: data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a bad input
        import traceback  # loaded only here: every stage would pay for it at start-up
        traceback.print_exc()
        print(f"lexfuse: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
