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
from itertools import chain

import numpy as np

from .evaluation import ScoredList, _read_scored_table
from .ingest import tokenize


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 3.0
    b: float = 1.0


@dataclass(frozen=True)
class QldParams:
    mu: float = 2000.0


SCORER_NAMES = ("bm25", "qld", "bm25_ngram")


def _logs(values, shift):
    """``math.log(v + shift)`` per int v, called once per distinct v (np.log may differ)."""
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([math.log(v + shift) for v in distinct.tolist()])[where]


def _memo(index, key, make, *args):
    """``make(*args)``, computed once per index: the statistics it derives from never change."""
    value = index.memo.get(key)
    if value is None:
        value = index.memo[key] = make(*args)
    return value


def _setting(index, scorer, p):
    """One scorer setting's per-document vector and its memo of term parts.

    The vector is ``k1 * (1 - b + b * len(d) / avgdl)`` for BM25 and
    ``ln(len(d) + mu)`` for QLD.
    """
    if scorer == "qld":
        return _logs(index.doc_len, p.mu), {}
    ratio = index.doc_len / index.avgdl if index.avgdl > 0 else np.zeros(index.num_docs)
    return p.k1 * (1.0 - p.b + p.b * ratio), {}


def _bm25_term(index, p, norms, rows, q_count):
    """(documents, contributions, idf) of one query term's postings, as ``_qld_term`` shapes it."""
    docs, tf = rows.T
    df = len(docs)
    idf = math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
    return docs, q_count * idf * tf * (p.k1 + 1.0) / (tf + norms[docs]), idf


def _qld_term(index, p, doc_len_logs, rows, q_count):
    """(documents, contributions, ln(mu * p(term|C))) of one query term's postings."""
    docs, tf = rows.T
    s = p.mu * (int(tf.sum()) / index.total_coll_tokens)  # mu * p(term|C)
    return docs, q_count * (_logs(tf, s) - math.log(s)), math.log(s)


def score_all(index, query_id, query_text, scorer="bm25", params=None):
    """Score every document in the index for one query.

    The query is tokenized with the index's own tokenizer config, so the
    n-gram index sees n-gram query terms. Query documents are not
    excluded here; that is the post-processing stage's job.

    Each score adds the same float terms, in sorted query-term order, as
    the per-document formulas. The contributions of a term that occurs
    once in the query are kept on the index per (scorer, params), at most
    one entry per index term: there ``1 * x`` is exact, so reusing them
    changes no bit.
    """
    if scorer not in SCORER_NAMES:
        raise ValueError(f"unknown scorer: {scorer!r}")
    if scorer == "qld":
        params, term_part = params or QldParams(), _qld_term
    else:
        params, term_part = params or Bm25Params(), _bm25_term
    per_doc, memo = _memo(index, (scorer, params), _setting, index, scorer, params)
    live = []
    for term, q_count in sorted(Counter(tokenize(query_text, index.config)).items()):
        part = memo.get(term) if q_count == 1 else None
        if part is None:
            rows = index.postings.get(term)
            if rows is None:
                continue
            part = term_part(index, params, per_doc, rows, q_count)
            if q_count == 1:
                memo[term] = part
        live.append((q_count, part))
    if scorer == "qld":
        base = sum(q_count * log_s for q_count, (_, _, log_s) in live)
        scores = base - sum(q_count for q_count, _ in live) * per_doc
    else:
        scores = np.zeros(index.num_docs)
    for _, (docs, contributions, _) in live:
        scores[docs] += contributions
    ids = _memo(index, "ids", np.array, index.doc_ids, object)
    order = np.argsort(-scores, kind="stable")  # documents are numbered in id order
    return ScoredList(query_id, list(zip(ids[order].tolist(), scores[order].tolist())))


def top_k(scored, k):
    """Prefix of length min(k, len); k must be non-negative. A limited read keeps ties past k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return ScoredList(query_id=scored.query_id, entries=scored.entries[:k])


# -- score dumps -------------------------------------------------------------

def write_score_dump(lists, path):
    """Write ``query_id<TAB>doc_id<TAB>score`` lines, six-decimal scores.

    ``lists`` is any iterable of ScoredLists in increasing query id order;
    each is written as it arrives, and one out of order is refused.
    """
    last = None
    with open(path, "w", encoding="utf-8") as fh:
        for slist in lists:
            if last is not None and slist.query_id <= last:
                raise ValueError(f"score dump lists out of query order: "
                                 f"{slist.query_id!r} after {last!r}")
            last = slist.query_id
            row = f"{slist.query_id}".replace("%", "%%") + "\t%s\t%.6f\n"
            fh.write(row * len(slist.entries) % tuple(chain.from_iterable(slist.entries)))


def read_score_dump(path, limit=None):
    """Parse a score dump into {query_id: ScoredList}, re-sorted per query.

    With ``limit``, each query keeps its first ``limit`` rows and their ties
    (see ``_read_scored_table``); on a dump ``write_score_dump`` wrote, that
    gives the same ``top_k(list, limit)`` as a full read.
    """
    return {qid: ScoredList.from_scores(qid, scores)
            for qid, scores in _read_scored_table(path, 3, 2, limit).items()}
