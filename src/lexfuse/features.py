"""Per-(query, candidate) feature assembly for the learning-to-rank fusion.

Two built-in schemas mirror the feature sets used for case retrieval
(14 features: lengths, placeholder counts, three lexical scores with
ranks, two dense scores with ranks) and statute retrieval (9 features:
lengths, two lexical scores, five reranker scores). External neural
scores are consumed from score-dump TSV files; a missing pair maps to
score 0.0 and rank list_length + 1. Each score source is held as flat
arrays over the candidates' ordinals (``Numbering``), and ``assemble``
labels each row from the qrels as it builds the table, so a table is
complete when it is made.
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import ge
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


def _first_bad_row(query_ids, candidate_ids, X, labels):
    """(i, problem) of the first row ``i`` that breaks a table rule, or None.

    The rules: rows are distinct pairs in increasing (query_id, candidate_id)
    order, each label is -1, 0 or 1, and each value is finite. A row that
    breaks more than one is named for its label first, then its order.
    """
    pairs = zip(query_ids, candidate_ids)
    following = zip(islice(query_ids, 1, None), islice(candidate_ids, 1, None))
    unordered = next(compress(count(1), map(ge, pairs, following)), len(query_ids))
    bad_label = (labels != -1) & (labels != 0) & (labels != 1)
    bad = np.flatnonzero(bad_label | ~np.isfinite(X).all(axis=1))
    i = min(unordered, int(bad[0])) if bad.size else unordered
    if i == len(query_ids):
        return None
    if bad_label[i]:
        return i, "label must be -1, 0 or 1"
    if i < unordered:
        return i, "non-finite feature value"
    qid, cid = query_ids[i], candidate_ids[i]
    if (qid, cid) == (query_ids[i - 1], candidate_ids[i - 1]):
        return i, f"duplicate candidate {cid!r} for query {qid!r}"
    return i, "out of (query_id, candidate_id) order"


class FeatureTable:
    """Feature columns of distinct (query, candidate) pairs in increasing (query_id,
    candidate_id) order.

    ``query_ids`` and ``candidate_ids`` are lists of str; ``X`` is the
    (rows, len(schema)) float64 matrix of finite values and ``labels`` the
    int64 label of each row, 0 or 1, or -1 where a row is unlabeled. A row
    that breaks these rules is a ValueError naming its pair. ``blocks`` maps
    each query id, in table order, to the (start, end) range of its rows.
    """

    def __init__(self, schema, query_ids, candidate_ids, X, labels=None):
        X = np.asarray(X, dtype=np.float64)
        if X.shape != (len(query_ids), len(schema)):
            raise ValueError(f"feature matrix has shape {X.shape}, schema has "
                             f"{len(schema)} features for {len(query_ids)} rows")
        labels = np.full(len(query_ids), -1) if labels is None else np.asarray(labels)
        for what, given in (("candidate ids", candidate_ids), ("labels", labels)):
            if len(given) != len(query_ids):
                raise ValueError(f"{len(given)} {what} for {len(query_ids)} rows")
        bad = _first_bad_row(query_ids, candidate_ids, X, labels)
        if bad:
            i, problem = bad
            raise ValueError(f"row {i} ({query_ids[i]}, {candidate_ids[i]}): {problem}")
        self.blocks, start = {}, 0
        for qid in dict.fromkeys(query_ids):
            end = bisect_right(query_ids, qid, start)
            self.blocks[qid], start = (start, end), end
        self.schema = schema
        self.query_ids = query_ids
        self.candidate_ids = candidate_ids
        self.X = X
        self.labels = labels.astype(np.int64, copy=False)

    def __len__(self):
        return len(self.query_ids)

    def select(self, query_ids):
        """The table of the rows of the queries in the set ``query_ids``, in table order."""
        keep = np.zeros(len(self), dtype=bool)
        for qid, (start, end) in self.blocks.items():
            keep[start:end] = qid in query_ids
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
            # Values go straight into C doubles, each query id is one str per
            # block of rows and each candidate id one str per table.
            query_ids, candidate_ids, shared, qid = [], [], {}, None
            labels, values, linenos = array("b"), array("d"), array("q")
            for lineno, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3 + len(names):
                    raise DataError(f"{path}:{lineno}: expected {3 + len(names)} fields")
                try:
                    label = int(parts[2])
                    values.extend(map(float, parts[3:]))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: bad label or feature value"
                    ) from None
                labels.append(label if -1 <= label <= 1 else 2)  # refused, as any other label
                if parts[0] != qid:
                    qid = parts[0]
                query_ids.append(qid)
                candidate_ids.append(shared.setdefault(parts[1], parts[1]))
                linenos.append(lineno)
        X = np.frombuffer(values, dtype=np.float64).reshape(len(query_ids), len(names))
        try:
            return cls(schema, query_ids, candidate_ids, X, labels)
        except ValueError:
            i, problem = _first_bad_row(query_ids, candidate_ids, X, np.asarray(labels))
            raise DataError(f"{path}:{linenos[i]}: {problem}") from None


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


class Numbering:
    """The ``queries`` and the ``candidates`` ({id: cleaned document}) of one
    table, each numbered in id order; ``assemble`` takes it with its sources.

    ``arrays`` turns a score source, {query_id: ScoredList}, into flat
    ``ScoreArrays`` over these numbers, so that its lists can be dropped as
    soon as it is read. A list of a query that has no number is left out.
    An entry whose candidate has no ordinal is left out too, after it has
    counted in its list's ranks and length.
    """

    def __init__(self, queries, candidates):
        self.queries = queries
        self.candidates = candidates
        self.query_ids = sorted(queries)
        self.candidate_ids = sorted(candidates)
        self._query_numbers = dict(zip(self.query_ids, count()))
        self._ordinals = dict(zip(self.candidate_ids, count()))

    def arrays(self, lists):
        keys, scores, ranks = array("q"), array("d"), array("i")
        length = np.zeros(len(self.query_ids), dtype=np.int64)
        for qid, slist in lists.items():
            q = self._query_numbers.get(qid)
            if q is None:
                continue
            length[q] = len(slist.entries)
            base = q * len(self.candidate_ids)
            for rank, (cid, score) in enumerate(slist.entries, 1):
                ordinal = self._ordinals.get(cid)
                if ordinal is not None:
                    keys.append(base + ordinal)
                    scores.append(score)
                    ranks.append(rank)
        keys = np.frombuffer(keys, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        return ScoreArrays(keys[order], np.frombuffer(scores, dtype=np.float64)[order],
                           np.asarray(ranks)[order], length)


@dataclass(eq=False)
class ScoreArrays:
    """One score source over a ``Numbering``: the pair ``keys`` (query number *
    candidates + ordinal) in increasing order, each pair's score and 1-based
    rank in its query's list, and each query number's list ``length`` (0 for
    a query with no list)."""

    keys: np.ndarray
    scores: np.ndarray
    ranks: np.ndarray
    length: np.ndarray


def assemble(numbering, scores, pool, schema, qrels=None):
    """Build the FeatureTable of every (query, candidate) pair, one column at a time.

    ``numbering`` holds the queries and the candidates (anything with
    ``token_length`` and ``placeholder_count``); ``scores`` maps the name of
    each score source to its ``ScoreArrays``, made by ``numbering.arrays``.
    The rows of a query are the union of its listed candidates in the
    ``pool`` sources, so pairs outside every pool list produce no row. Every
    schema feature must have a source (``check_sources``). With ``qrels``
    ({query_id: set of relevant ids}) each row is labeled 1 or 0; without, -1.
    """
    keys = np.unique(np.concatenate([np.empty(0, np.int64),
                                     *(scores[name].keys for name in pool)]))
    query_numbers, ordinals = np.divmod(keys, max(len(numbering.candidate_ids), 1))
    query_ids = [numbering.query_ids[i] for i in query_numbers.tolist()]
    candidate_ids = [numbering.candidate_ids[i] for i in ordinals.tolist()]
    documents = {"query": (numbering.queries, numbering.query_ids, query_numbers),
                 "candidate": (numbering.candidates, numbering.candidate_ids, ordinals)}
    X = np.empty((len(keys), len(schema)), dtype=np.float64)
    for j, name in enumerate(schema.feature_names):
        if name in DOCUMENT_FEATURES:
            side, attr = DOCUMENT_FEATURES[name]
            docs, ids, numbers = documents[side]
            X[:, j] = np.array([getattr(docs[i], attr) for i in ids], dtype=np.float64)[numbers]
            continue
        base = name[:-5] if name.endswith("_rank") else name
        source = scores[base]
        # The last of a repeated pair's entries counts, as it does in a dict.
        at = np.searchsorted(source.keys, keys, side="right") - 1
        found = at >= 0
        found[found] = source.keys[at[found]] == keys[found]
        if base == name:
            X[:, j] = 0.0
            X[found, j] = source.scores[at[found]]
        else:
            X[:, j] = source.length[query_numbers] + 1
            X[found, j] = source.ranks[at[found]]
    labels = None if qrels is None else [
        cid in qrels.get(qid, ()) for qid, cid in zip(query_ids, candidate_ids)]
    return FeatureTable(schema, query_ids, candidate_ids, X, labels)
