"""Per-(query, candidate) feature assembly for the learning-to-rank fusion.

Two built-in schemas mirror the feature sets used for case retrieval
(14 features: lengths, placeholder counts, three lexical scores with
ranks, two dense scores with ranks) and statute retrieval (9 features:
lengths, two lexical scores, five reranker scores). External neural
scores are consumed from score-dump TSV files; a missing pair maps to
score 0.0 and rank list_length + 1. ``assemble`` labels each row from the
qrels as it builds the table, so a table is complete when it is made.
"""

from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path

import numpy as np

from .evaluation import DataError, SettingError, _text
from .ingest import DOCUMENT_FEATURES
from .scorers import read_score_dump


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
            raise ValueError(f"feature matrix has shape {X.shape}, schema has "
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

    def select(self, query_ids):
        """The table of the rows of the queries in the set ``query_ids``, in table order."""
        keep = [qid in query_ids for qid in self.query_ids]
        return FeatureTable(self.schema, list(compress(self.query_ids, keep)),
                            list(compress(self.candidate_ids, keep)), self.X[keep],
                            self.labels[keep])

    def to_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query_id\tcandidate_id\tlabel\t" + "\t".join(self.schema.feature_names) + "\n")
            # One row at a time: X.tolist() would hold a Python float per cell at once.
            for qid, cid, label, row in zip(self.query_ids, self.candidate_ids,
                                            self.labels.tolist(), self.X):
                values = "\t".join(f"{v:.6f}" for v in row.tolist())
                fh.write(f"{qid}\t{cid}\t{label}\t{values}\n")

    @classmethod
    def from_tsv(cls, path):
        path = Path(path)
        with _text(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:3] != ["query_id", "candidate_id", "label"]:
                raise DataError(f"{path}:1: bad feature table header")
            names = tuple(header[3:])
            try:
                schema = next(
                    (s for s in _BUILTIN_SCHEMAS.values() if s.feature_names == names),
                    None,
                ) or FeatureSchema("custom", names)
            except ValueError as exc:
                raise DataError(f"{path}:1: {exc}") from None
            query_ids, candidate_ids, labels, values, linenos = [], [], [], [], []
            seen = {}  # query_id -> candidate ids read so far
            for lineno, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3 + len(names):
                    raise DataError(f"{path}:{lineno}: expected {3 + len(names)} fields")
                qid, cid = parts[0], parts[1]
                try:
                    label = int(parts[2])
                    values.extend(map(float, parts[3:]))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: bad label or feature value"
                    ) from None
                if label not in (-1, 0, 1):
                    raise DataError(f"{path}:{lineno}: label must be -1, 0 or 1")
                labels.append(label)
                cids = seen.setdefault(qid, set())
                if cid in cids:
                    raise DataError(
                        f"{path}:{lineno}: duplicate candidate {cid!r} for query {qid!r}")
                cids.add(cid)
                query_ids.append(qid)
                candidate_ids.append(cid)
                linenos.append(lineno)
        X = np.array(values, dtype=np.float64).reshape(len(query_ids), len(names))
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise DataError(f"{path}:{linenos[bad[0]]}: non-finite feature value")
        return cls(schema, query_ids, candidate_ids, X, labels)


@dataclass
class ExternalScoreFile:
    """Precomputed per-query score lists, e.g. dense-model inner products."""

    name: str
    lists: dict  # query_id -> ScoredList

    @classmethod
    def load(cls, name, path):
        return cls(name, read_score_dump(path))


def check_sources(schema, sources):
    """Refuse a ``schema`` feature that is neither a document feature nor read from
    the score ``sources`` (names): config keys schema and external_scores disagree."""
    bases = dict.fromkeys(n[:-5] if n.endswith("_rank") else n for n in schema.feature_names)
    missing = [name for name in bases if name not in DOCUMENT_FEATURES and name not in sources]
    if missing:
        raise SettingError(f"config key 'schema': {schema.name} has no source for "
                           f"{', '.join(missing)}; name their score files in "
                           f"config key 'external_scores'")


def _score_column(lists, rows, rank):
    """One score (or, if ``rank``, 1-based rank) per row of ``rows``, a list of
    (query_id, candidate ids) in table order. A candidate missing from its query's
    list (or a query with no list) scores 0.0 and ranks the list's length + 1."""
    column = []
    for qid, cids in rows:
        entries = lists[qid].entries if qid in lists else ()
        if rank:
            lookup = {doc_id: i for i, (doc_id, _) in enumerate(entries, 1)}
            missing = len(entries) + 1
        else:
            lookup, missing = dict(entries), 0.0
        column.extend([lookup.get(cid, missing) for cid in cids])
    return column


def assemble(queries, candidates, scores, pool, schema, qrels=None):
    """Build the FeatureTable of every (query, candidate) pair, one column at a time.

    ``queries`` and ``candidates`` map ids to cleaned documents (anything
    with ``token_length`` and ``placeholder_count``); ``scores`` maps the
    name of each score source to its {query_id: ScoredList}. The rows of a
    query are the union of its lists in the ``pool`` sources, so pairs
    outside every pool list produce no row. Every schema feature must have
    a source (``check_sources``). A non-finite value is a DataError
    naming its feature and the first such pair in row order. With
    ``qrels`` ({query_id: set of relevant ids}) each row is labeled 1 or 0;
    without, -1.
    """
    rows = []  # (query_id, sorted candidate ids) of each query with a row
    for qid in sorted(queries):
        pooled = set().union(*(scores[name][qid].doc_ids() for name in pool
                               if qid in scores[name]))
        if pooled:
            rows.append((qid, sorted(pooled)))
    query_ids = [qid for qid, cids in rows for _ in cids]
    candidate_ids = [cid for _, cids in rows for cid in cids]
    documents = {"query": (queries, query_ids), "candidate": (candidates, candidate_ids)}
    X = np.empty((len(query_ids), len(schema)), dtype=np.float64)
    for j, name in enumerate(schema.feature_names):
        if name in DOCUMENT_FEATURES:
            side, attr = DOCUMENT_FEATURES[name]
            docs, ids = documents[side]
            X[:, j] = [getattr(docs[doc_id], attr) for doc_id in ids]
        else:
            base = name[:-5] if name.endswith("_rank") else name
            X[:, j] = _score_column(scores[base], rows, base != name)
    bad = np.flatnonzero(~np.isfinite(X))
    if bad.size:
        i, j = divmod(int(bad[0]), len(schema))
        raise DataError(f"non-finite feature {schema.feature_names[j]!r} for pair "
                        f"({query_ids[i]}, {candidate_ids[i]})")
    labels = None if qrels is None else [
        cid in qrels.get(qid, ()) for qid, cid in zip(query_ids, candidate_ids)]
    return FeatureTable(schema, query_ids, candidate_ids, X, labels)
