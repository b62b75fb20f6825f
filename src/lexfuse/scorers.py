"""Lexical relevance scorers over an inverted index.

BM25:
    score(d, q) = sum_i IDF(t_i) * TF(t_i, d) * (k1 + 1)
                        / (TF(t_i, d) + k1 * (1 - b + b * len(d) / avgdl))
    with IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)).

Query likelihood with Dirichlet smoothing:
    score(d, q) = sum_i ln( (tf(q_i, d) + mu * p(q_i|C)) / (len(d) + mu) )
    Query terms with zero collection frequency are dropped first.

"bm25_ngram" is plain BM25 evaluated over an n-gram-expanded index.
Rankings are ``evaluation.ScoredList``s; score dumps use its table reader.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .evaluation import ScoredList, SettingError, _read_scored_table
from .ingest import tokenize


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 3.0
    b: float = 1.0

    def __post_init__(self):
        if self.k1 < 0:
            raise SettingError("k1", f"k1 must be >= 0, got {self.k1!r}")
        if not 0.0 <= self.b <= 1.0:
            raise SettingError("b", f"b must be in [0, 1], got {self.b!r}")


TASK1_BM25 = Bm25Params(k1=3.0, b=1.0)  # case-retrieval feature setting


@dataclass(frozen=True)
class QldParams:
    mu: float = 2000.0

    def __post_init__(self):
        if self.mu <= 0:
            raise SettingError("mu", f"mu must be > 0, got {self.mu!r}")


SCORER_NAMES = ("bm25", "qld", "bm25_ngram")


def _idf(index, term):
    df = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))


def _length_norm(index, ordinal, params):
    ratio = index.doc_len[ordinal] / index.avgdl if index.avgdl > 0 else 0.0
    return params.k1 * (1.0 - params.b + params.b * ratio)


def _logs(values, shift):
    """``math.log(v + shift)`` per int v, called once per distinct v (np.log may differ)."""
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([math.log(v + shift) for v in distinct.tolist()])[where]


def score_all(index, query_id, query_text, scorer="bm25", params=None):
    """Score every document in the index for one query.

    The query is tokenized with the index's own tokenizer config, so the
    n-gram index sees n-gram query terms. Query documents are not
    excluded here; that is the post-processing stage's job.
    """
    if scorer not in SCORER_NAMES:
        raise ValueError(f"unknown scorer: {scorer!r}")
    counts = sorted(Counter(tokenize(query_text, index.config)).items())
    live = [(term, q_count) for term, q_count in counts if term in index.postings]
    if scorer in ("bm25", "bm25_ngram"):
        p = params or TASK1_BM25
        scores = np.zeros(index.num_docs)
        for term, q_count in live:
            docs, tf = index.postings[term].T
            scores[docs] += (q_count * _idf(index, term) * tf * (p.k1 + 1.0)
                             / (tf + _length_norm(index, docs, p)))
    else:
        mu = (params or QldParams()).mu
        smooth = [(term, q_count, mu * index.collection_prob(term)) for term, q_count in live]
        base = sum(q_count * math.log(s) for _, q_count, s in smooth)
        scores = base - sum(q_count for _, q_count in live) * _logs(index.doc_len, mu)
        for term, q_count, s in smooth:
            docs, tf = index.postings[term].T
            scores[docs] += q_count * (_logs(tf, s) - math.log(s))
    return ScoredList.from_scores(query_id, dict(zip(index.doc_ids, scores.tolist())))


def top_k(scored, k):
    """Prefix of length min(k, len); k must be non-negative."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return ScoredList(query_id=scored.query_id, entries=list(scored.entries[:k]))


# -- score dumps -------------------------------------------------------------

def write_score_dump(lists, path):
    """Write ``query_id<TAB>doc_id<TAB>score`` lines, six-decimal scores."""
    with open(path, "w", encoding="utf-8") as fh:
        for slist in sorted(lists, key=lambda s: s.query_id):
            for doc_id, score in slist.entries:
                fh.write(f"{slist.query_id}\t{doc_id}\t{score:.6f}\n")


def read_score_dump(path):
    """Parse a score dump into {query_id: ScoredList}, re-sorted per query."""
    return {qid: ScoredList.from_scores(qid, scores)
            for qid, scores in _read_scored_table(path, 3, 2).items()}
