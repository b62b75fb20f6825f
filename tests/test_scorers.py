import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from lexfuse.evaluation import DataError, ScoredList
from lexfuse.indexing import build_index
from lexfuse.ingest import TokenizerConfig, tokenize
from lexfuse.scorers import (
    Bm25Params,
    QldParams,
    read_score_dump,
    score_all,
    top_k,
    write_score_dump,
)
from test_indexing import UnknownDocumentError, term_frequency


# -- single-document scorers over the index: one document ordinal at a time,
# -- term by term, reading each frequency off the postings.

def bm25_score(index, query_terms, doc, params=Bm25Params()):
    """BM25 score of document ordinal ``doc`` for the given query terms.

    Repeated query terms contribute once per occurrence; terms absent
    from the document contribute exactly 0.
    """
    if not 0 <= doc < index.num_docs:
        raise UnknownDocumentError(f"unknown document ordinal: {doc}")
    ratio = index.doc_len[doc] / index.avgdl if index.avgdl > 0 else 0.0
    norm = params.k1 * (1.0 - params.b + params.b * ratio)
    score = 0.0
    for term in query_terms:
        tf = term_frequency(index, term, doc)
        if tf == 0:
            continue
        df = len(index.postings[term])
        idf = math.log(1.0 + (index.num_docs - df + 0.5) / (df + 0.5))
        score += idf * tf * (params.k1 + 1.0) / (tf + norm)
    return score


def qld_score(index, query_terms, doc, params=QldParams()):
    """Dirichlet-smoothed query log-likelihood for document ordinal ``doc``."""
    if not 0 <= doc < index.num_docs:
        raise UnknownDocumentError(f"unknown document ordinal: {doc}")
    mu = params.mu
    denom = index.doc_len[doc] + mu
    score = 0.0
    for term in query_terms:
        p_coll = index.collection_prob(term)
        if p_coll == 0.0:
            continue
        tf = term_frequency(index, term, doc)
        score += math.log((tf + mu * p_coll) / denom)
    return score


def validate(slist):
    """Raise ValueError unless ``slist`` has unique ids sorted by score desc, id asc."""
    seen = set()
    for doc_id, _ in slist.entries:
        if doc_id in seen:
            raise ValueError(f"duplicate doc id in list: {doc_id!r}")
        seen.add(doc_id)
    keys = [(-score, doc_id) for doc_id, score in slist.entries]
    for a, b in zip(keys, keys[1:]):
        if a >= b:
            raise ValueError(f"entries out of order near {b[1]!r}")
    return slist


# -- independent oracles: direct evaluation of the scoring formulas over raw
# -- token lists, never touching the inverted index.

def oracle_bm25(doc_tokens, all_docs_tokens, query_terms, k1, b):
    n = len(all_docs_tokens)
    avgdl = sum(len(d) for d in all_docs_tokens) / n
    tf = Counter(doc_tokens)
    df = Counter()
    for d in all_docs_tokens:
        for term in set(d):
            df[term] += 1
    score = 0.0
    for term in query_terms:
        idf = math.log(1 + (n - df[term] + 0.5) / (df[term] + 0.5))
        denom = tf[term] + k1 * (1 - b + b * len(doc_tokens) / avgdl)
        score += idf * tf[term] * (k1 + 1) / denom
    return score


def oracle_qld_eq8(doc_tokens, all_docs_tokens, query_terms, mu):
    """Verbatim three-term smoothed query-likelihood decomposition.

    log p(q|d) = sum_{tf>0} log(p_s(q_i|d) / (alpha_d * p(q_i|C)))
                 + n * log alpha_d + sum_i log p(q_i|C)
    with the Dirichlet instantiation p_s = (tf + mu*p_C)/(|d| + mu),
    alpha_d = mu/(|d| + mu). Terms unseen in the collection are dropped.
    """
    coll = Counter()
    for d in all_docs_tokens:
        coll.update(d)
    total = sum(coll.values())
    terms = [t for t in query_terms if coll[t] > 0]
    if not terms:
        return 0.0
    tf = Counter(doc_tokens)
    dl = len(doc_tokens)
    alpha_d = mu / (dl + mu)
    seen_part = 0.0
    const_part = 0.0
    for term in terms:
        p_c = coll[term] / total
        const_part += math.log(p_c)
        if tf[term] > 0:
            p_s = (tf[term] + mu * p_c) / (dl + mu)
            seen_part += math.log(p_s / (alpha_d * p_c))
    return seen_part + len(terms) * math.log(alpha_d) + const_part


def loop_scores(index, query_text, scorer, params):
    """Per-posting Python loops over the index, in sorted query-term order.

    The same floating-point operations per document as the array path of
    ``score_all``, so the two must agree to the last bit.
    """
    counts = sorted(Counter(tokenize(query_text, index.config)).items())
    doc_len = index.doc_len.tolist()
    n = index.num_docs
    if scorer == "qld":
        mu = params.mu
        live = [(t, c, index.collection_prob(t)) for t, c in counts
                if index.collection_prob(t) > 0.0]
        base = sum(c * math.log(mu * pc) for _, c, pc in live)
        scores = [base - sum(c for _, c, _ in live) * math.log(doc_len[d] + mu)
                  for d in range(n)]
        for term, c, pc in live:
            for doc, tf in index.postings[term].tolist():
                scores[doc] += c * (math.log(tf + mu * pc) - math.log(mu * pc))
        return scores
    avgdl = index.avgdl
    norms = [params.k1 * (1.0 - params.b + params.b * (dl / avgdl)) for dl in doc_len]
    scores = [0.0] * n
    for term, c in counts:
        if term not in index.postings:
            continue
        df = len(index.postings[term])
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc, tf in index.postings[term].tolist():
            scores[doc] += c * idf * tf * (params.k1 + 1.0) / (tf + norms[doc])
    return scores


def reference_score_all(index, query_id, query_text, scorer, params):
    """The ranking ``score_all`` replaced: per-posting scores into a dict, sorted with a key."""
    scores = loop_scores(index, query_text, scorer, params)
    return ScoredList.from_scores(query_id, dict(zip(index.doc_ids, scores)))


def hex_entries(slist):
    return [(doc_id, score.hex()) for doc_id, score in slist.entries]


# Ids whose string order differs from their numeric order, and non-ASCII ids.
AWKWARD_IDS = ["d9", "d10", "d100", "D1", "10", "9", "-1", "é", "z", "ä", "日本", "%s", "a%%b"]


def awkward_corpus(rng, vocab):
    """(id, text) pairs; about a third repeat an earlier text, so their scores tie."""
    docs = []
    for doc_id in rng.sample(AWKWARD_IDS, rng.randrange(1, len(AWKWARD_IDS) + 1)):
        if docs and rng.random() < 0.35:
            text = rng.choice(docs)[1]
        else:
            text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 30)))
        docs.append((doc_id, text))
    return docs


def toy_index():
    return build_index([("d1", "a b a"), ("d2", "b c")])


class TestBm25:
    def test_absent_term_contributes_zero(self):
        index = toy_index()
        assert bm25_score(index, ["zzz"], 0) == 0.0

    def test_exact_value_against_oracle(self):
        index = toy_index()
        params = Bm25Params(k1=1.2, b=0.75)
        docs = [["a", "b", "a"], ["b", "c"]]
        for ordinal, tokens in enumerate(docs):
            expected = oracle_bm25(tokens, docs, ["a"], 1.2, 0.75)
            assert bm25_score(index, ["a"], ordinal, params) == pytest.approx(
                expected, abs=1e-12)
        assert bm25_score(index, ["a"], 0, params) > 0.0
        assert bm25_score(index, ["a"], 1, params) == 0.0

    def test_b_zero_is_length_independent(self):
        index = build_index([("short", "law"), ("long", "law " + "pad " * 40)])
        params = Bm25Params(k1=1.5, b=0.0)
        assert bm25_score(index, ["law"], 0, params) == pytest.approx(
            bm25_score(index, ["law"], 1, params))

    def test_unknown_ordinal_rejected(self):
        with pytest.raises(UnknownDocumentError):
            bm25_score(toy_index(), ["a"], 5)

    def test_monotone_in_term_frequency(self):
        # Raise tf of the query term while holding length fixed by swapping
        # out filler tokens; the score must never decrease.
        prev = None
        for tf in range(1, 6):
            body = " ".join(["law"] * tf + ["pad"] * (8 - tf))
            index = build_index([("d", body), ("other", "law pad court")])
            score = bm25_score(index, ["law"], 0, Bm25Params(k1=1.2, b=0.75))
            if prev is not None:
                assert score >= prev
            prev = score


class TestQld:
    def test_no_query_terms_in_doc_still_finite(self):
        index = toy_index()
        mu = 10.0
        got = qld_score(index, ["c"], 0, QldParams(mu=mu))
        # Smoothing only: ln(mu * p(c|C) / (|d| + mu))
        expected = math.log(mu * (1 / 5) / (3 + mu))
        assert got == pytest.approx(expected, abs=1e-12)
        assert math.isfinite(got)

    def test_exact_value_against_eq8_oracle(self):
        index = toy_index()
        docs = [["a", "b", "a"], ["b", "c"]]
        for ordinal, tokens in enumerate(docs):
            expected = oracle_qld_eq8(tokens, docs, ["a", "b"], mu=1.0)
            got = qld_score(index, ["a", "b"], ordinal, QldParams(mu=1.0))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_identical_statistics_identical_scores(self):
        index = build_index([("x", "a b"), ("y", "b a"), ("z", "c c")])
        q = ["a", "b", "c"]
        assert qld_score(index, q, 0) == qld_score(index, q, 1)

    def test_zero_collection_terms_dropped(self):
        index = toy_index()
        assert qld_score(index, ["nothere"], 0) == 0.0


class TestScorerOracleProperty:
    def test_random_corpora_match_oracles(self):
        rng = random.Random(42)
        vocab = [f"t{i}" for i in range(15)]
        for _ in range(60):
            n_docs = rng.randrange(1, 21)
            docs_tokens = [
                [rng.choice(vocab) for _ in range(rng.randrange(1, 25))]
                for _ in range(n_docs)
            ]
            index = build_index(
                [(f"d{i:02d}", " ".join(toks)) for i, toks in enumerate(docs_tokens)])
            query = [rng.choice(vocab) for _ in range(rng.randrange(1, 9))]
            k1 = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.0, 1.0)
            mu = rng.uniform(1.0, 3000.0)
            for ordinal in range(n_docs):
                assert bm25_score(index, query, ordinal, Bm25Params(k1, b)) == pytest.approx(
                    oracle_bm25(docs_tokens[ordinal], docs_tokens, query, k1, b), abs=1e-9)
                assert qld_score(index, query, ordinal, QldParams(mu)) == pytest.approx(
                    oracle_qld_eq8(docs_tokens[ordinal], docs_tokens, query, mu), abs=1e-9)

    def test_qld_rank_equivalence_under_dropped_constant(self):
        # Adding the per-query constant sum_i ln p(q_i|C) to every document
        # must not change the induced ranking.
        rng = random.Random(9)
        vocab = [f"t{i}" for i in range(10)]
        for _ in range(30):
            docs_tokens = [
                [rng.choice(vocab) for _ in range(rng.randrange(1, 15))]
                for _ in range(rng.randrange(2, 10))
            ]
            index = build_index(
                [(f"d{i:02d}", " ".join(toks)) for i, toks in enumerate(docs_tokens)])
            query = [rng.choice(vocab) for _ in range(rng.randrange(1, 6))]
            coll = Counter()
            for d in docs_tokens:
                coll.update(d)
            total = sum(coll.values())
            constant = sum(
                math.log(coll[t] / total) for t in query if coll[t] > 0)
            base = [qld_score(index, query, d) for d in range(index.num_docs)]
            shifted = [s + constant for s in base]
            rank = sorted(range(len(base)), key=lambda i: (-base[i], i))
            rank_shifted = sorted(range(len(base)), key=lambda i: (-shifted[i], i))
            assert rank == rank_shifted


class TestScoreAll:
    def test_scores_every_document(self):
        index = build_index([("d1", "a"), ("d2", "b"), ("d3", "a b")])
        result = score_all(index, "q", "a b", "bm25")
        assert len(result) == 3
        validate(result)

    def test_identical_documents_tie_by_id(self):
        index = build_index([("z", "same text"), ("a", "same text")])
        result = score_all(index, "q", "same text", "bm25")
        assert result.entries[0][0] == "a"
        assert result.entries[0][1] == result.entries[1][1]

    def test_matches_single_doc_scorers(self):
        rng = random.Random(21)
        vocab = [f"t{i}" for i in range(12)]
        docs_tokens = [
            [rng.choice(vocab) for _ in range(rng.randrange(1, 20))] for _ in range(8)
        ]
        index = build_index(
            [(f"d{i}", " ".join(toks)) for i, toks in enumerate(docs_tokens)])
        query_text = " ".join(rng.choice(vocab) for _ in range(5))
        query_terms = tokenize(query_text, index.config)
        for scorer, fn, params in (
            ("bm25", bm25_score, Bm25Params(1.4, 0.6)),
            ("qld", qld_score, QldParams(500.0)),
        ):
            result = score_all(index, "q", query_text, scorer, params)
            scores = dict(result.entries)
            for ordinal in range(index.num_docs):
                expected = fn(index, query_terms, ordinal, params)
                assert scores[index.doc_ids[ordinal]] == pytest.approx(expected, abs=1e-9)

    def test_bit_equal_to_per_posting_loops(self):
        rng = random.Random(77)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(60):
            docs = [(f"d{i:02d}", " ".join(rng.choice(vocab)
                                           for _ in range(rng.randrange(1, 60))))
                    for i in range(rng.randrange(1, 25))]
            config = TokenizerConfig(ngram_lo=1, ngram_hi=rng.randrange(1, 4))
            index = build_index(docs, config)
            query = " ".join(rng.choice(vocab + ["unseen"]) for _ in range(rng.randrange(1, 30)))
            for scorer, params in (
                ("bm25", Bm25Params(rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0))),
                ("bm25_ngram", Bm25Params()),
                ("qld", QldParams(rng.uniform(1.0, 3000.0))),
            ):
                got = dict(score_all(index, "q", query, scorer, params).entries)
                want = loop_scores(index, query, scorer, params)
                assert [got[d].hex() for d in index.doc_ids] == [w.hex() for w in want]

    def test_matches_sorted_dict_reference(self):
        rng = random.Random(2024)
        vocab = [f"t{i}" for i in range(10)]
        for _ in range(50):
            index = build_index(awkward_corpus(rng, vocab),
                                TokenizerConfig(ngram_lo=1, ngram_hi=rng.randrange(1, 3)))
            settings = (("bm25", Bm25Params(rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0))),
                        ("bm25_ngram", Bm25Params()),
                        ("qld", QldParams(rng.uniform(1.0, 3000.0))))
            # Several queries on one index object, so later ones read the memo.
            for n in range(6):
                words = vocab[:rng.randrange(1, 6)] + ["unseen"]  # few words: repeats
                query = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 12)))
                for scorer, params in settings:
                    got = score_all(index, f"q{n}", query, scorer, params)
                    want = reference_score_all(index, f"q{n}", query, scorer, params)
                    assert got.query_id == want.query_id
                    assert hex_entries(got) == hex_entries(want)

    def test_memo_keeps_settings_apart(self):
        rng = random.Random(8)
        vocab = [f"t{i}" for i in range(8)]
        docs = awkward_corpus(rng, vocab)
        shared = build_index(docs)
        settings = [("bm25", Bm25Params(1.2, 0.75)), ("qld", QldParams(100.0)),
                    ("bm25", Bm25Params(0.5, 0.2)), ("qld", QldParams(2500.0)),
                    ("bm25_ngram", Bm25Params(1.2, 0.75))]
        queries = ["t1 t2 t3", "t1", "t2 t2 t4", "t3 t5 t6 t7", "t1 t3"]
        for _ in range(2):
            for query in queries:
                for scorer, params in settings:
                    fresh = build_index(docs)  # nothing memoized yet
                    assert hex_entries(score_all(shared, "q", query, scorer, params)) == \
                        hex_entries(score_all(fresh, "q", query, scorer, params))

    def test_ngram_range_1_1_identical_to_plain(self):
        docs = [("d1", "alpha beta gamma"), ("d2", "beta gamma delta"), ("d3", "epsilon")]
        plain = build_index(docs, TokenizerConfig())
        ngram = build_index(docs, TokenizerConfig(ngram_lo=1, ngram_hi=1))
        a = score_all(plain, "q", "alpha beta", "bm25")
        b = score_all(ngram, "q", "alpha beta", "bm25_ngram")
        assert a.entries == b.entries

    def test_deterministic(self):
        index = build_index([("d1", "a b"), ("d2", "c")])
        first = score_all(index, "q", "a c", "qld")
        second = score_all(index, "q", "a c", "qld")
        assert first.entries == second.entries

    def test_unknown_scorer(self):
        with pytest.raises(ValueError, match="unknown scorer"):
            score_all(toy_index(), "q", "a", "tfidf")


class TestTopK:
    def test_statute_retrieval_depth(self):
        entries = [(f"a{i:03d}", float(1000 - i)) for i in range(768)]
        scored = ScoredList("q", entries)
        assert len(top_k(scored, 200)) == 200

    def test_zero(self):
        assert len(top_k(ScoredList("q", [("a", 1.0)]), 0)) == 0

    def test_k_beyond_length(self):
        scored = ScoredList("q", [("a", 1.0), ("b", 0.5)])
        assert top_k(scored, 10).entries == scored.entries

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k(ScoredList("q", []), -1)


def per_row_writer(lists, path):
    """The dump writer ``write_score_dump`` replaced: one f-string and one write per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for slist in sorted(lists, key=lambda s: s.query_id):
            for doc_id, score in slist.entries:
                fh.write(f"{slist.query_id}\t{doc_id}\t{score:.6f}\n")


def always_sort_reader(path):
    """A dump read row by row into one dict per query, each sorted by score desc, id asc."""
    per_query = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, doc_id, raw = line.split("\t")
        per_query.setdefault(qid, {})[doc_id] = float(raw)
    return {qid: ScoredList.from_scores(qid, scores) for qid, scores in per_query.items()}


class TestScoreDump:
    def test_same_bytes_as_per_row_writer(self, tmp_path):
        rng = random.Random(31)
        query_ids = ["q1", "q10", "q9", "%", "q%s", "é", "日本"]
        values = [0.0, -0.0, 1e-7, -5e-7, 0.5, 2.0000005, 123456789.123456789, 3, -2,
                  np.float64(0.1234565), np.float64(-7.25)]
        for _ in range(40):
            lists = []
            for qid in rng.sample(query_ids, rng.randrange(0, len(query_ids))):
                docs = rng.sample(AWKWARD_IDS, rng.randrange(0, len(AWKWARD_IDS)))
                lists.append(ScoredList(qid, [
                    (doc_id, rng.choice(values + [rng.uniform(-100, 100)])) for doc_id in docs]))
            write_score_dump(lists, tmp_path / "got.tsv")
            per_row_writer(lists, tmp_path / "want.tsv")
            assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_matches_always_sort_reader(self, tmp_path):
        rng = random.Random(47)
        # Distinct floats that round to the same six decimals, plus signed zeros; every
        # fourth trial may draw a NaN, which the reader refuses at its first line.
        raw = [1.0000001, 1.0000004, 0.9999996, 2.5, 0.0, -0.0, -3.0000002, -2.9999998]
        for trial in range(80):
            rows = []
            for qid in rng.sample(["q1", "q2", "q10", "é"], rng.randrange(1, 5)):
                docs = rng.sample(AWKWARD_IDS, rng.randrange(1, len(AWKWARD_IDS)))
                pool = raw + [0.25] if trial % 4 else raw + [math.nan]
                scores = {doc_id: rng.choice(pool) for doc_id in docs}
                entries = list(scores.items())
                order = rng.choice(("written", "shuffled", "ids_descending"))
                if order == "written":  # full-precision order, as score_all ranks
                    entries = ScoredList.from_scores(qid, scores).entries
                elif order == "shuffled":
                    rng.shuffle(entries)
                else:
                    entries.sort(key=lambda e: e[0], reverse=True)
                    entries.sort(key=lambda e: e[1], reverse=True)
                rows.extend((qid, doc_id, score) for doc_id, score in entries)
            if rng.random() < 0.3:
                rng.shuffle(rows)  # one query's rows in several blocks
            path = tmp_path / f"dump{trial}.tsv"
            path.write_text("".join(f"{q}\t{d}\t{s:.6f}\n" for q, d, s in rows),
                            encoding="utf-8")
            bad = next((i for i, (_, _, s) in enumerate(rows, 1) if math.isnan(s)), None)
            if bad is not None:
                with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{bad}: "
                                   "non-finite score 'nan'$"):
                    read_score_dump(path)
                continue
            got, want = read_score_dump(path), always_sort_reader(path)
            assert list(got) == list(want)
            for qid in want:
                assert got[qid].query_id == qid
                assert hex_entries(got[qid]) == hex_entries(want[qid])

    def test_score_all_dumps_hold_each_query_in_one_block_of_descending_scores(self, tmp_path):
        # features reads a verified dump only down to rerank_depth, which relies on this.
        rng = random.Random(59)
        near_ties = out_of_id_order = 0
        for trial in range(20):
            docs = [(doc_id, " ".join(["a"] * rng.randrange(0, 3)
                                      + rng.choices("bcdef", k=rng.randrange(0, 20))))
                    for doc_id in AWKWARD_IDS]
            index = build_index(docs)
            queries = {qid: " ".join(rng.choices("abcdefg", k=rng.randrange(1, 4)))
                       for qid in ("q9", "q10", "Q1", "é")}
            # k1 near 0 makes BM25 scores that differ only below the sixth decimal.
            for scorer, params in (("bm25", Bm25Params(k1=1e-5)), ("bm25", Bm25Params()),
                                   ("qld", QldParams())):
                lists = [score_all(index, qid, text, scorer, params)
                         for qid, text in queries.items()]
                write_score_dump(lists, tmp_path / "dump.tsv")
                rows = [line.split("\t") for line in
                        (tmp_path / "dump.tsv").read_text(encoding="utf-8").splitlines()]
                blocks = [q for i, (q, _, _) in enumerate(rows) if i == 0 or rows[i - 1][0] != q]
                assert sorted(blocks) == sorted(queries)  # one block per query
                full = {(slist.query_id, doc_id): score
                        for slist in lists for doc_id, score in slist.entries}
                for (q1, d1, s1), (q2, d2, s2) in zip(rows, rows[1:]):
                    if q1 == q2:
                        assert float(s1) >= float(s2)
                        near_ties += s1 == s2 and full[q1, d1] != full[q2, d2]
                        out_of_id_order += s1 == s2 and d1 > d2
        assert near_ties and out_of_id_order

    def test_limited_read_keeps_the_top_k_of_the_full_read(self, tmp_path):
        rng = random.Random(61)
        ids = AWKWARD_IDS + [f"c{i}" for i in range(20)]
        for trial in range(60):
            lists = []
            for qid in rng.sample(["q1", "q2", "q10", "é", "%s"], rng.randrange(1, 6)):
                # A few six-decimal levels, each spread over distinct full-precision scores.
                levels = [round(rng.uniform(-3, 3), 2) for _ in range(rng.randrange(1, 5))]
                scores = {doc_id: rng.choice(levels) + rng.choice((0.0, 1e-7, -2e-7, 4.9e-7))
                          for doc_id in rng.sample(ids, rng.randrange(1, 30))}
                lists.append(ScoredList.from_scores(qid, scores))  # as score_all ranks
            path = tmp_path / "dump.tsv"
            write_score_dump(lists, path)
            full = read_score_dump(path)
            for k in range(max(map(len, lists)) + 2):
                got = read_score_dump(path, k)
                assert list(got) == list(full)
                for qid in full:
                    assert hex_entries(top_k(got[qid], k)) == hex_entries(top_k(full[qid], k))

    def test_limited_read_checks_every_row_it_parses(self, tmp_path):
        path = tmp_path / "dump.tsv"
        head = "q1\td1\t2.000000\nq1\td2\t1.000000\nq1\td3\t1.000000\n"
        # Rows that tie the k-th score are parsed, and so is the first row below it.
        for row, problem in (("q1\td4\tnan", "non-finite score 'nan'"),
                             ("q1\td4\t1.0x", "bad score '1.0x'"),
                             ("q1\td4", "expected 3 tab-separated fields"),
                             ("q1\td1\t0.500000", "duplicate candidate 'd1' for query 'q1'")):
            path.write_text(head + row + "\nq2\td1\t5.000000\n", encoding="utf-8")
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}:4: {problem}')}"):
                read_score_dump(path, 2)
        # The rest of the block is skipped unparsed.
        path.write_text(head + "q1\td4\t0.500000\nq1\td5\tnan\nq1\td6\n\nq2\td1\t5.0\n",
                        encoding="utf-8")
        assert {qid: slist.entries for qid, slist in read_score_dump(path, 2).items()} == {
            "q1": [("d1", 2.0), ("d2", 1.0), ("d3", 1.0)], "q2": [("d1", 5.0)]}
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:5: non-finite"):
            read_score_dump(path)

    def test_round_trip_and_format(self, tmp_path):
        lists = [
            ScoredList("q2", [("d1", 1.25), ("d2", 0.5)]),
            ScoredList("q1", [("d9", 3.0)]),
        ]
        path = tmp_path / "scores.tsv"
        write_score_dump(lists, path)
        text = path.read_text()
        assert text.splitlines()[0] == "q1\td9\t3.000000"
        loaded = read_score_dump(path)
        assert loaded["q2"].entries == [("d1", 1.25), ("d2", 0.5)]

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\td1\t1.0\nq1\td1\t2.0\n")
        with pytest.raises(ValueError,
                           match=r"bad\.tsv:2: duplicate candidate 'd1' for query 'q1'"):
            read_score_dump(path)

    def test_bad_score_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\td1\t1.0\nq1\td2\tNaN?\n")
        with pytest.raises(ValueError, match=r"bad\.tsv:2: bad score"):
            read_score_dump(path)
