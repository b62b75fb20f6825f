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
from pathlib import Path

from .scorers import read_score_dump


class AssemblyError(ValueError):
    """Feature assembly could not resolve a value."""


class ExternalScoreError(ValueError):
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
    try:
        return _BUILTIN_SCHEMAS[name]
    except KeyError:
        raise AssemblyError(f"unknown schema: {name!r}") from None


@dataclass
class FeatureRow:
    query_id: str
    candidate_id: str
    values: tuple
    label: int | None = None


class FeatureTable:
    """Rows sorted by (query_id, candidate_id), all matching one schema."""

    def __init__(self, schema, rows):
        for row in rows:
            if len(row.values) != len(schema):
                raise AssemblyError(
                    f"row ({row.query_id}, {row.candidate_id}) has "
                    f"{len(row.values)} values, schema has {len(schema)}"
                )
        self.schema = schema
        self.rows = sorted(rows, key=lambda r: (r.query_id, r.candidate_id))

    def __len__(self):
        return len(self.rows)

    def query_ids(self):
        out = []
        for row in self.rows:
            if not out or out[-1] != row.query_id:
                out.append(row.query_id)
        return out

    def to_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query_id\tcandidate_id\tlabel\t" + "\t".join(self.schema.feature_names) + "\n")
            for row in self.rows:
                label = -1 if row.label is None else row.label
                values = "\t".join(f"{v:.6f}" for v in row.values)
                fh.write(f"{row.query_id}\t{row.candidate_id}\t{label}\t{values}\n")

    @classmethod
    def from_tsv(cls, path):
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:3] != ["query_id", "candidate_id", "label"]:
                raise ExternalScoreError(f"{path}:1: bad feature table header")
            names = tuple(header[3:])
            schema = next(
                (s for s in _BUILTIN_SCHEMAS.values() if s.feature_names == names),
                None,
            ) or FeatureSchema("custom", names)
            rows = []
            for lineno, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3 + len(names):
                    raise ExternalScoreError(f"{path}:{lineno}: expected {3 + len(names)} fields")
                try:
                    label = int(parts[2])
                    values = tuple(float(v) for v in parts[3:])
                except ValueError:
                    raise ExternalScoreError(
                        f"{path}:{lineno}: bad label or feature value"
                    ) from None
                rows.append(FeatureRow(
                    query_id=parts[0],
                    candidate_id=parts[1],
                    values=values,
                    label=None if label < 0 else label,
                ))
        return cls(schema, rows)


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


class _SourceView:
    """Score and rank lookups over one source's per-query lists."""

    def __init__(self, per_query_lists):
        self._lists = per_query_lists
        self._cache = {}

    def _for_query(self, qid):
        if qid not in self._cache:
            slist = self._lists.get(qid)
            if slist is None:
                self._cache[qid] = ({}, {}, 0)
            else:
                scores = dict(slist.entries)
                self._cache[qid] = (scores, rank_feature(slist), len(slist))
        return self._cache[qid]

    def score(self, qid, doc_id):
        scores, _, _ = self._for_query(qid)
        return scores.get(doc_id, 0.0)

    def rank(self, qid, doc_id):
        _, ranks, length = self._for_query(qid)
        return ranks.get(doc_id, length + 1)


def assemble(queries, candidates, internal_scores, externals, schema):
    """Build one FeatureRow per (query, candidate) pair.

    ``queries`` and ``candidates`` map ids to cleaned documents (anything
    with ``token_length`` and ``placeholder_count``). The candidate pool
    for each query is the union of that query's entries across all
    internal scorer lists, so pairs outside any list produce no row.
    """
    sources = {}
    for name in internal_scores:
        sources[name] = _SourceView(internal_scores[name])
    for ext in externals:
        if ext.name in sources:
            raise AssemblyError(f"duplicate feature source: {ext.name!r}")
        sources[ext.name] = _SourceView(ext.lists)

    def resolve(name, qid, cid, qdoc, cdoc):
        meta = _META_FEATURES.get(name)
        if meta is not None:
            return float(meta(qdoc, cdoc))
        if name.endswith("_rank"):
            base = name[:-5]
            if base not in sources:
                raise AssemblyError(f"no source for feature {name!r}")
            return float(sources[base].rank(qid, cid))
        if name not in sources:
            raise AssemblyError(f"no source for feature {name!r}")
        return float(sources[name].score(qid, cid))

    rows = []
    for qid in sorted(queries):
        qdoc = queries[qid]
        pool = set()
        for name in internal_scores:
            slist = internal_scores[name].get(qid)
            if slist is not None:
                pool.update(slist.doc_ids())
        for cid in sorted(pool):
            try:
                cdoc = candidates[cid]
            except KeyError:
                raise AssemblyError(f"candidate {cid!r} has no cleaned document") from None
            values = tuple(resolve(n, qid, cid, qdoc, cdoc) for n in schema.feature_names)
            for name, value in zip(schema.feature_names, values):
                if not math.isfinite(value):
                    raise AssemblyError(
                        f"non-finite feature {name!r} for pair ({qid}, {cid})"
                    )
            rows.append(FeatureRow(query_id=qid, candidate_id=cid, values=values))
    return FeatureTable(schema, rows)


def attach_labels(table, qrels):
    """Label rows 1/0 from qrels; return (table, count of unseen qrel pairs).

    Qrel entries naming candidates that never appear in the table are
    ignored; the second return value counts them.
    """
    pairs = {(r.query_id, r.candidate_id) for r in table.rows}
    unseen = 0
    for qid, docs in qrels.items():
        for doc_id in docs:
            if (qid, doc_id) not in pairs:
                unseen += 1
    rows = [
        FeatureRow(
            query_id=r.query_id,
            candidate_id=r.candidate_id,
            values=r.values,
            label=1 if r.candidate_id in qrels.get(r.query_id, ()) else 0,
        )
        for r in table.rows
    ]
    return FeatureTable(table.schema, rows), unseen
