"""Per-(query, candidate) feature assembly for the learning-to-rank fusion.

Two built-in schemas mirror the feature sets used for case retrieval
(14 features: lengths, placeholder counts, three lexical scores with
ranks, two dense scores with ranks) and statute retrieval (9 features:
lengths, two lexical scores, five reranker scores). External neural
scores are consumed from score-dump TSV files; a missing pair maps to
score 0.0 and rank list_length + 1.
"""

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .evaluation import DataError, SettingError, _text
from .scorers import read_score_dump


class AssemblyError(DataError):
    """Feature assembly could not resolve a value."""


class ExternalScoreError(DataError):
    """An external score file or feature table file is malformed."""


@dataclass(frozen=True)
class FeatureSchema:
    name: str
    feature_names: tuple

    def __post_init__(self):
        if not self.feature_names:
            raise ValueError("schema must have at least one feature")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")

    def __len__(self):
        return len(self.feature_names)


TASK1_SCHEMA = FeatureSchema(
    "task1_v1",
    (
        "query_length", "candidate_length", "query_ref_num", "doc_ref_num",
        "BM25", "BM25_rank", "QLD", "QLD_rank",
        "BM25_ngram", "BM25_ngram_rank",
        "SAILER", "SAILER_rank", "DELTA", "DELTA_rank",
    ),
)

TASK3_SCHEMA = FeatureSchema(
    "task3_v1",
    (
        "query_length", "article_length", "BM25", "QLD",
        "BERT", "RoBERTa", "LEGALBERT", "monoT5_large", "monoT5_3B",
    ),
)

_BUILTIN_SCHEMAS = {s.name: s for s in (TASK1_SCHEMA, TASK3_SCHEMA)}


def get_schema(name):
    """The built-in schema ``name``; another name is a bad value of config key ``schema``."""
    try:
        return _BUILTIN_SCHEMAS[name]
    except KeyError:
        raise SettingError(f"config key 'schema': must be one of "
                           f"{', '.join(_BUILTIN_SCHEMAS)}, got {name!r}") from None


class FeatureTable:
    """Feature columns of (query, candidate) pairs sorted by (query_id, candidate_id).

    ``query_ids`` and ``candidate_ids`` are lists of str; ``X`` is the
    (rows, len(schema)) float64 matrix and ``labels`` the int64 label of
    each row, -1 where a row is unlabeled.
    """

    def __init__(self, schema, query_ids, candidate_ids, X, labels=None):
        X = np.asarray(X, dtype=np.float64)
        if X.shape != (len(query_ids), len(schema)):
            raise AssemblyError(f"feature matrix has shape {X.shape}, schema has "
                                f"{len(schema)} features for {len(query_ids)} rows")
        if labels is None:
            labels = np.full(len(query_ids), -1)
        labels = np.asarray(labels, dtype=np.int64)
        pairs = zip(query_ids, islice(query_ids, 1, None),
                    candidate_ids, islice(candidate_ids, 1, None))
        if not all(q < q2 or (q == q2 and c <= c2) for q, q2, c, c2 in pairs):
            order = sorted(range(len(query_ids)),
                           key=lambda i: (query_ids[i], candidate_ids[i]))
            query_ids = [query_ids[i] for i in order]
            candidate_ids = [candidate_ids[i] for i in order]
            X, labels = X[order], labels[order]
        self.schema = schema
        self.query_ids = query_ids
        self.candidate_ids = candidate_ids
        self.X = X
        self.labels = labels

    def __len__(self):
        return len(self.query_ids)

    def to_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query_id\tcandidate_id\tlabel\t" + "\t".join(self.schema.feature_names) + "\n")
            for qid, cid, label, row in zip(self.query_ids, self.candidate_ids,
                                            self.labels.tolist(), self.X.tolist()):
                values = "\t".join(f"{v:.6f}" for v in row)
                fh.write(f"{qid}\t{cid}\t{label}\t{values}\n")

    @classmethod
    def from_tsv(cls, path):
        path = Path(path)
        with _text(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:3] != ["query_id", "candidate_id", "label"]:
                raise ExternalScoreError(f"{path}:1: bad feature table header")
            names = tuple(header[3:])
            try:
                schema = next(
                    (s for s in _BUILTIN_SCHEMAS.values() if s.feature_names == names),
                    None,
                ) or FeatureSchema("custom", names)
            except ValueError as exc:
                raise ExternalScoreError(f"{path}:1: {exc}") from None
            query_ids, candidate_ids, labels, values = [], [], [], []
            seen = {}  # query_id -> candidate ids read so far
            for lineno, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3 + len(names):
                    raise ExternalScoreError(f"{path}:{lineno}: expected {3 + len(names)} fields")
                qid, cid = parts[0], parts[1]
                try:
                    label = int(parts[2])
                    values.extend(map(float, parts[3:]))
                except ValueError:
                    raise ExternalScoreError(
                        f"{path}:{lineno}: bad label or feature value"
                    ) from None
                if label not in (-1, 0, 1):
                    raise ExternalScoreError(f"{path}:{lineno}: label must be -1, 0 or 1")
                labels.append(label)
                cids = seen.setdefault(qid, set())
                if cid in cids:
                    raise ExternalScoreError(
                        f"{path}:{lineno}: duplicate candidate {cid!r} for query {qid!r}")
                cids.add(cid)
                query_ids.append(qid)
                candidate_ids.append(cid)
        X = np.array(values, dtype=np.float64).reshape(len(query_ids), len(names))
        return cls(schema, query_ids, candidate_ids, X, labels)


@dataclass
class ExternalScoreFile:
    """Precomputed per-query score lists, e.g. dense-model inner products."""

    name: str
    lists: dict  # query_id -> ScoredList

    @classmethod
    def load(cls, name, path):
        try:
            return cls(name, read_score_dump(path))
        except ValueError as exc:
            raise ExternalScoreError(str(exc)) from None


def rank_feature(slist):
    """Map doc_id -> 1-based rank for a sorted ScoredList.

    Callers treat docs absent from the list as rank len(list) + 1.
    """
    return {doc_id: i + 1 for i, (doc_id, _) in enumerate(slist.entries)}


_META_FEATURES = {
    "query_length": lambda q, c: q.token_length,
    "candidate_length": lambda q, c: c.token_length,
    "article_length": lambda q, c: c.token_length,
    "query_ref_num": lambda q, c: q.placeholder_count,
    "doc_ref_num": lambda q, c: c.placeholder_count,
}


def _lookups(slist):
    """(scores, ranks, length) of one query's list; empty if the query has none."""
    if slist is None:
        return {}, {}, 0
    return dict(slist.entries), rank_feature(slist), len(slist)


def check_sources(schema, sources):
    """Refuse a ``schema`` feature that is neither a document feature nor read from
    the score ``sources`` (names): config keys schema and external_scores disagree."""
    bases = dict.fromkeys(n[:-5] if n.endswith("_rank") else n for n in schema.feature_names)
    missing = [name for name in bases if name not in _META_FEATURES and name not in sources]
    if missing:
        raise SettingError(f"config key 'schema': {schema.name} has no source for "
                           f"{', '.join(missing)}; name their score files in "
                           f"config key 'external_scores'")


def assemble(queries, candidates, internal_scores, externals, schema):
    """Build the FeatureTable of every (query, candidate) pair.

    ``queries`` and ``candidates`` map ids to cleaned documents (anything
    with ``token_length`` and ``placeholder_count``). The candidate pool
    for each query is the union of that query's entries across all
    internal scorer lists, so pairs outside any list produce no row.
    Every schema feature must have a source (``check_sources``).
    """
    sources = dict(internal_scores)
    for ext in externals:
        if ext.name in sources:
            raise AssemblyError(f"duplicate feature source: {ext.name!r}")
        sources[ext.name] = ext.lists

    def resolve(name, views, cid, qdoc, cdoc):
        meta = _META_FEATURES.get(name)
        if meta is not None:
            return float(meta(qdoc, cdoc))
        base = name[:-5] if name.endswith("_rank") else name
        scores, ranks, length = views[base]
        return float(scores.get(cid, 0.0) if base == name else ranks.get(cid, length + 1))

    query_ids, candidate_ids, values = [], [], []
    for qid in sorted(queries):
        qdoc = queries[qid]
        views = {name: _lookups(lists.get(qid)) for name, lists in sources.items()}
        for cid in sorted(set().union(*(views[name][0] for name in internal_scores))):
            try:
                cdoc = candidates[cid]
            except KeyError:
                raise AssemblyError(f"candidate {cid!r} has no cleaned document") from None
            row = [resolve(n, views, cid, qdoc, cdoc) for n in schema.feature_names]
            for name, value in zip(schema.feature_names, row):
                if not math.isfinite(value):
                    raise AssemblyError(
                        f"non-finite feature {name!r} for pair ({qid}, {cid})"
                    )
            values.extend(row)
            query_ids.append(qid)
            candidate_ids.append(cid)
    X = np.array(values, dtype=np.float64).reshape(len(query_ids), len(schema))
    return FeatureTable(schema, query_ids, candidate_ids, X)


def attach_labels(table, qrels):
    """Label rows 1/0 from qrels; return (table, count of unseen qrel pairs).

    The labeled table shares the ids and ``X`` of ``table``. Qrel entries
    naming candidates that never appear in the table are ignored; the
    second return value counts them.
    """
    per_query = {}
    for qid, cid in zip(table.query_ids, table.candidate_ids):
        per_query.setdefault(qid, set()).add(cid)
    unseen = sum(1 for qid, docs in qrels.items() for doc_id in docs
                 if doc_id not in per_query.get(qid, ()))
    labels = [1 if cid in qrels.get(qid, ()) else 0
              for qid, cid in zip(table.query_ids, table.candidate_ids)]
    return FeatureTable(table.schema, table.query_ids, table.candidate_ids,
                        table.X, labels), unseen
