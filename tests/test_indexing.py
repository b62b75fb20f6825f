import hashlib
import json
import random
from array import array
from collections import Counter

import numpy as np
import pytest

from lexfuse import cli
from lexfuse.evaluation import DataError
from lexfuse.indexing import InvertedIndex, Postings, build_index
from lexfuse.ingest import _WORD_RE, TokenizerConfig, tokenize
from lexfuse.scorers import SCORER_NAMES, score_all


class UnknownDocumentError(KeyError):
    """A document ordinal is not present in the index."""


def term_frequency(index, term, ordinal):
    """Frequency of ``term`` in document ``ordinal``, read off the postings."""
    if not 0 <= ordinal < index.num_docs:
        raise UnknownDocumentError(f"unknown document ordinal: {ordinal}")
    rows = index.postings.get(term)
    if rows is None:
        return 0
    return int(rows[rows[:, 0] == ordinal, 1].sum())


def collection_prob(index, term):
    """p(term | collection) read off the postings; 0 for unseen terms."""
    rows = index.postings.get(term)
    return 0.0 if rows is None else int(rows[:, 1].sum()) / index.total_coll_tokens


def contents(index):
    """Everything an index holds, as plain values: equal for equal indexes."""
    return {"config": index.config, "doc_ids": index.doc_ids, "doc_len": index.doc_len.tolist(),
            "words": list(index.postings.words), "terms": index.postings.terms.tolist(),
            "postings": [rows.tolist() for rows in index.postings.values()]}


def sliding_ngrams(words, lo, hi):
    """Independent n-gram oracle."""
    out = []
    for n in range(lo, hi + 1):
        out.extend("_".join(words[i:i + n]) for i in range(len(words) - n + 1))
    return out


class TestTokenize:
    def test_unigram_identity(self):
        assert tokenize("The dog ran") == ["the", "dog", "ran"]

    def test_bigram_window(self):
        assert tokenize("a b c", TokenizerConfig(ngram_lo=2, ngram_hi=2)) == ["a_b", "b_c"]

    def test_empty(self):
        assert tokenize("", TokenizerConfig(ngram_lo=1, ngram_hi=3)) == []

    def test_matches_sliding_window_oracle(self):
        rng = random.Random(5)
        alphabet = ["red", "fox", "jumps", "very", "high", "x9"]
        for _ in range(100):
            words = [rng.choice(alphabet) for _ in range(rng.randrange(0, 12))]
            lo = rng.randrange(1, 4)
            hi = rng.randrange(lo, 5)
            got = tokenize(" ".join(words), TokenizerConfig(ngram_lo=lo, ngram_hi=hi))
            assert sorted(got) == sorted(sliding_ngrams(words, lo, hi))

    def test_min_token_len(self):
        config = TokenizerConfig(min_token_len=3)
        assert tokenize("an axe or saw", config) == ["axe", "saw"]

    def test_splits_on_punctuation_and_underscore(self):
        assert tokenize("semi-final_result: done.") == ["semi", "final", "result", "done"]

    def test_decomposed_accents_do_not_split_words(self):
        for config in (TokenizerConfig(), TokenizerConfig(lowercase=False, ngram_hi=2)):
            assert (tokenize("re\u0301sume\u0301 Cafe\u0301", config)
                    == tokenize("r\u00e9sum\u00e9 Caf\u00e9", config))
        assert tokenize("re\u0301sume\u0301") == ["r\u00e9sum\u00e9"]
        # The documented limit: lowercasing after NFC decomposes a dotted capital I.
        assert tokenize("\u0130stanbul") == ["i", "stanbul"]

    def test_words_hold_no_underscore_so_ngrams_are_joined_words(self):
        # The index stores an n-gram as its word ids and splits a query term on "_".
        rng = random.Random(23)
        alphabet = "ab_Z9 \té日Ωж-ß'İ0\u0301_"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) if rng.random() < 0.9
                           else chr(rng.randrange(0x20, 0x3000)) for _ in range(rng.randrange(60)))
            assert not any("_" in word for word in _WORD_RE.findall(text))
            assert not any("_" in word for word in _WORD_RE.findall(text.lower()))
            for lowercase in (True, False):
                for min_len in (1, 2, 3):
                    words = tokenize(text, TokenizerConfig(lowercase, min_len))
                    for lo, hi in ((1, 1), (1, 2), (2, 3), (1, 4), (3, 3)):
                        config = TokenizerConfig(lowercase, min_len, lo, hi)
                        assert tokenize(text, config) == sliding_ngrams(words, lo, hi)

    def test_config_validation(self):
        # Tokenizer settings are checked where the config loads.
        with pytest.raises(ValueError, match="config key 'ngram_lo'"):
            cli.check_config({"ngram_lo": 0})
        with pytest.raises(ValueError, match="config key 'ngram_lo'"):
            cli.check_config({"ngram_lo": 3, "ngram_hi": 2})


class TestBuildIndex:
    def test_hand_counted_statistics(self):
        index = build_index([("d1", "a b"), ("d2", "b c")])
        assert len(index.postings) == 3
        assert {t: len(index.postings.get(t)) for t in "abc"} == {"a": 1, "b": 2, "c": 1}
        assert index.avgdl == 2
        assert index.doc_len.tolist() == [2, 2]
        assert index.total_coll_tokens == 4

    def test_empty_corpus(self):
        index = build_index([])
        assert index.num_docs == 0
        assert index.avgdl == 0.0

    def test_repeated_term(self):
        index = build_index([("d1", "a a a")])
        assert term_frequency(index, "a", 0) == 3
        assert index.doc_len.tolist() == [3]

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="dup1"):
            build_index([("dup1", "x"), ("dup1", "y")])

    def test_postings_sum_equals_collection_frequency(self):
        rng = random.Random(13)
        vocab = [f"w{i}" for i in range(30)]
        for _ in range(30):
            docs = [
                (f"d{i}", " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 40))))
                for i in range(rng.randrange(1, 12))
            ]
            index = build_index(docs)
            terms = {word for _, text in docs for word in text.split()}
            assert len(index.postings) == len(terms)
            for term in terms:
                postings = index.postings.get(term)
                assert (sum(tf for _, tf in postings) / index.total_coll_tokens
                        == collection_prob(index, term))
                assert postings.shape == (len(postings), 2)
                assert [d for d, _ in postings] == sorted(d for d, _ in postings)
            assert sum(index.doc_len) == index.total_coll_tokens

    def test_statistics_match_counter_oracle(self):
        rng = random.Random(17)
        vocab = [f"w{i}" for i in range(20)]
        configs = (TokenizerConfig(), TokenizerConfig(ngram_lo=1, ngram_hi=3),
                   TokenizerConfig(ngram_lo=2, ngram_hi=2, min_token_len=2))
        for _ in range(40):
            docs = [
                (f"d{i}", " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 30))))
                for i in range(rng.randrange(1, 15))
            ]
            for config in configs:
                index = build_index(docs, config)
                counts = [Counter(tokenize(text, config)) for _, text in sorted(docs)]
                coll = sum(counts, Counter())
                total = sum(coll.values())
                assert index.total_coll_tokens == total
                assert index.doc_len.tolist() == [sum(c.values()) for c in counts]
                assert len(index.postings) == len(coll)
                for term in coll:
                    rows = index.postings.get(term)
                    assert rows is not None, term
                    assert len(rows) == sum(1 for c in counts if term in c)
                    assert int(rows[:, 1].sum()) == coll[term]
                    assert collection_prob(index, term) == coll[term] / total
                    for ordinal, c in enumerate(counts):
                        assert term_frequency(index, term, ordinal) == c[term]
                assert term_frequency(index, "unseen", 0) == 0
                assert collection_prob(index, "unseen") == 0.0

    def test_any_input_order_gives_the_same_index(self):
        rng = random.Random(31)
        vocab = [f"w{i}" for i in range(15)]
        for _ in range(30):
            docs = [(doc_id, " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 20))))
                    for doc_id in rng.sample(["d2", "d10", "a", "Z", "é", "日本", "-1"],
                                             rng.randrange(1, 8))]
            for config in (TokenizerConfig(), TokenizerConfig(ngram_lo=1, ngram_hi=3)):
                want = contents(build_index(docs, config))
                assert want["doc_ids"] == tuple(sorted(doc_id for doc_id, _ in docs))
                for _ in range(3):
                    shuffled = rng.sample(docs, len(docs))
                    assert contents(build_index(shuffled, config)) == want

    def test_ngram_range_1_1_equals_plain(self):
        docs = [("d1", "the cat sat"), ("d2", "the dog ran far")]
        plain = build_index(docs, TokenizerConfig())
        same = build_index(docs, TokenizerConfig(ngram_lo=1, ngram_hi=1))
        assert contents(plain) == contents(same)


BLOCKS = ("words", "terms", "doc_len", "doc_freq", "postings")


def edit_snapshot(path, change):
    """Rewrite snapshot ``path`` after ``change(header, blocks)``.

    ``blocks`` holds the words block as bytes and the others as flat int
    lists. The header's block lengths are recomputed unless ``change`` sets
    them.
    """
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    sizes = header.pop("block_bytes")
    blocks = {}
    for name in BLOCKS:
        blocks[name], body = body[:sizes[name]], body[sizes[name]:]
    for name in BLOCKS[1:]:
        blocks[name] = np.frombuffer(blocks[name], "<i4").tolist()
    change(header, blocks)
    raw = [blocks["words"], *(np.array(blocks[name], "<i4").tobytes() for name in BLOCKS[1:])]
    header.setdefault("block_bytes", dict(zip(BLOCKS, map(len, raw))))
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + b"".join(raw))


def random_corpus(rng):
    """Documents with non-ASCII ids and words, one of them empty, and three queries."""
    vocab = ["straße", "日本", "café", "x9", "law_suit", "ünïcode", "a", "bb", "Ωmega", "LAW"]
    ids = rng.sample(["d2", "d10", "é", "日本", "-1", "Z", "ж", "q 1"], rng.randrange(1, 8))
    docs = [(doc_id, " ".join(rng.choices(vocab, k=rng.randrange(1, 25)))) for doc_id in ids]
    docs.append(("empty", ""))
    queries = [" ".join(rng.choices(vocab + ["zz"], k=rng.randrange(1, 6))) for _ in range(3)]
    return docs, queries


CONFIGS = (TokenizerConfig(), TokenizerConfig(ngram_lo=1, ngram_hi=3))


def string_build_index(docs, config=TokenizerConfig()):
    """``build_index`` over term strings, as it was before the word-id layout: the oracle.

    Terms are numbered in order of first occurrence, and the postings are a
    plain dict of term -> ``(df, 2)`` int64 rows.
    """
    doc_ids, doc_len, distinct = [], [], []  # distinct: terms per document
    slot, term_of, tfs = {}, array("q"), array("q")  # term -> number; each posting's number, tf
    for doc_id, text in sorted(docs, key=lambda pair: pair[0]):
        if doc_ids and doc_id == doc_ids[-1]:
            raise DataError(f"duplicate document id: {doc_id!r}")
        doc_ids.append(doc_id)
        terms = tokenize(text, config)
        doc_len.append(len(terms))
        counts = Counter(terms)
        distinct.append(len(counts))
        term_of.extend(slot.setdefault(term, len(slot)) for term in counts)
        tfs.extend(counts.values())
    ordinals = np.repeat(np.arange(len(doc_ids), dtype=np.int64), distinct)
    order = np.argsort(term_of, kind="stable")  # each term's rows stay in document order
    rows = np.empty((len(order), 2), dtype=np.int64)
    rows[:, 0] = ordinals[order]
    rows[:, 1] = np.frombuffer(tfs, dtype=np.int64)[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(term_of, minlength=len(slot)))))
    postings = {term: rows[bounds[i]:bounds[i + 1]] for term, i in slot.items()}
    return InvertedIndex(config, doc_ids, doc_len, postings)


class TestWordIdLayout:
    CONFIGS = (TokenizerConfig(), TokenizerConfig(ngram_lo=1, ngram_hi=3),
               TokenizerConfig(ngram_lo=2, ngram_hi=3, min_token_len=2),
               TokenizerConfig(lowercase=False, ngram_lo=1, ngram_hi=2),
               TokenizerConfig(lowercase=False, min_token_len=3, ngram_lo=3, ngram_hi=4))

    def test_equals_the_string_index_and_scores_bit_equal(self, tmp_path):
        rng = random.Random(41)
        path = tmp_path / "index.json"
        probe = TokenizerConfig(lowercase=False, ngram_lo=1, ngram_hi=5)
        for _ in range(30):
            docs, queries = random_corpus(rng)
            queries.append(" ".join(text for _, text in docs[:2]))
            for config in self.CONFIGS:
                oracle = string_build_index(docs, config)
                built = build_index(docs, config)
                built.save(path)
                for index in (built, InvertedIndex.load(path)):
                    assert index.doc_ids == oracle.doc_ids
                    assert index.doc_len.tolist() == oracle.doc_len.tolist()
                    assert len(index.postings) == len(oracle.postings)
                    for term, rows in oracle.postings.items():
                        assert index.postings.get(term).tolist() == rows.tolist(), term
                    for query in queries:
                        for term in tokenize(query, probe):  # too short and too long n-grams
                            assert ((index.postings.get(term) is None)
                                    == (term not in oracle.postings)), term
                    for scorer in SCORER_NAMES:
                        for n, query in enumerate(queries):
                            want = score_all(oracle, f"q{n}", query, scorer).entries
                            got = score_all(index, f"q{n}", query, scorer).entries
                            assert ([(d, s.hex()) for d, s in got]
                                    == [(d, s.hex()) for d, s in want])

    def test_malformed_term_strings_are_not_in_the_index(self):
        index = build_index([("d1", "bb x9 bb"), ("d2", "x9")], TokenizerConfig(ngram_hi=3))
        for term in ("bb", "x9", "bb_x9", "x9_bb", "bb_x9_bb"):
            assert index.postings.get(term) is not None, term
        for term in ("bb__x9", "_bb", "bb_", "", "_", "__", "bb_x9_bb_x9", "x9_x9", "zz"):
            assert index.postings.get(term) is None, term


class TestSerialization:
    def test_round_trip(self, tmp_path):
        index = build_index(
            [("d1", "a b b"), ("d2", "c a")],
            TokenizerConfig(ngram_lo=1, ngram_hi=2),
        )
        path = tmp_path / "index.json"
        index.save(path)
        loaded = InvertedIndex.load(path)
        assert contents(loaded) == contents(index)
        assert loaded.avgdl == index.avgdl
        assert loaded.config == index.config
        assert loaded.postings.rows.dtype == loaded.doc_len.dtype == np.int64

    def test_loaded_index_scores_bit_equal(self, tmp_path):
        rng = random.Random(29)
        vocab = [f"t{i}" for i in range(25)]
        docs = [(f"d{i:02d}", " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 40))))
                for i in range(30)]
        queries = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 12)))
                   for _ in range(10)]
        corpora = [(docs, queries)] + [random_corpus(rng) for _ in range(25)]
        path = tmp_path / "index.json"
        for docs, queries in corpora:
            for config in CONFIGS:
                index = build_index(docs, config)
                index.save(path)
                loaded = InvertedIndex.load(path)
                assert contents(loaded) == contents(index)
                for scorer in SCORER_NAMES:
                    for n, query in enumerate(queries):
                        want = score_all(index, f"q{n}", query, scorer).entries
                        got = score_all(loaded, f"q{n}", query, scorer).entries
                        assert [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in want]

    def test_empty_index_round_trips(self, tmp_path):
        path = tmp_path / "index.json"
        build_index([]).save(path)
        loaded = InvertedIndex.load(path)
        assert contents(loaded) == contents(build_index([]))

    def test_rebuild_is_byte_identical(self, tmp_path):
        docs = [("d1", "alpha beta beta"), ("d2", "gamma alpha")]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        build_index(docs).save(p1)
        build_index(docs).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_snapshot_bytes_are_pinned(self, tmp_path):
        # Any change to the snapshot's layout changes these bytes.
        path = tmp_path / "index.json"
        build_index([("d1", "a b b"), ("é", "c ü a"), ("e", "")],
                    TokenizerConfig(ngram_lo=1, ngram_hi=2)).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "790376b6432e52296825a81a2fc098395368b7cd9ef0514a7a79fb996dc4d91b")

    def test_header_line_and_int32_blocks(self, tmp_path):
        path = tmp_path / "index.json"
        build_index([("d1", "x y"), ("d2", "y")]).save(path)
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert header == {"format": "lexfuse-index", "version": 4, "doc_ids": ["d1", "d2"],
                          "config": {"lowercase": True, "min_token_len": 1, "ngram_lo": 1,
                                     "ngram_hi": 1},
                          "block_bytes": {"words": 3, "terms": 8, "doc_len": 8, "doc_freq": 8,
                                          "postings": 24}}
        assert head.decode() == json.dumps(header, sort_keys=True)
        assert body == b"x\ny" + np.array([1, 2, 2, 1, 1, 2, 0, 1, 0, 1, 1, 1], "<i4").tobytes()

    @pytest.mark.parametrize("field", ["doc_len", "tf", "doc_freq"])
    def test_save_refuses_a_count_past_int32(self, tmp_path, field):
        big = 2**31
        doc_len = [big if field == "doc_len" else 1]
        doc_freq = [big if field == "doc_freq" else 1]
        rows = np.array([[0, big if field == "tf" else 1]], dtype=np.int64)
        index = InvertedIndex(TokenizerConfig(), ["d1"], doc_len,
                              Postings(["a"], [[1]], doc_freq, rows))
        path = tmp_path / "index.json"
        with pytest.raises(DataError, match=r"index\.json: .* above 2\*\*31 - 1"):
            index.save(path)
        ok = InvertedIndex(TokenizerConfig(), ["d1"], [big - 1],
                           Postings(["a"], [[1]], [1], np.array([[0, big - 1]])))
        ok.save(path)
        assert InvertedIndex.load(path).doc_len.tolist() == [big - 1]

    @pytest.mark.parametrize("change, problem", [
        (lambda h, b: h.update(format="something-else"), "not an index snapshot"),
        (lambda h, b: h.update(version=3), "unsupported index version: 3"),
        (lambda h, b: h.update(block_bytes=dict(words=4, terms=8, doc_len=8, doc_freq=8,
                                                postings=24)),
         "block lengths disagree with the file size"),
        (lambda h, b: h.update(block_bytes=dict(words=3, terms=8, doc_len=8, doc_freq=8,
                                                postings=20)),
         "block lengths disagree with the file size"),
        (lambda h, b: h.update(block_bytes=dict(words="3", terms=8, doc_len=8, doc_freq=8,
                                                postings=24)),
         "block lengths disagree with the file size"),
        (lambda h, b: h.update(block_bytes=dict(words=3, terms=8, doc_len=7, doc_freq=9,
                                                postings=24)),
         "multiple of element size"),
        (lambda h, b: h.update(block_bytes=dict(words=3, doc_len=8, doc_freq=8, postings=24)),
         "'terms'"),
        (lambda h, b: b.update(words=b"\xff\ny"), "can't decode byte 0xff"),
        (lambda h, b: b.update(words=b"y\ny"), "words must be distinct"),
        (lambda h, b: b.update(words=b"x\n\ny"), "words must be distinct, non-empty"),
        (lambda h, b: b.update(words=b"x\ny_z"), "hold no '_'"),
        (lambda h, b: b["terms"].__setitem__(1, 3), "a word id outside the vocabulary"),
        (lambda h, b: b["terms"].__setitem__(0, -1), "a word id outside the vocabulary"),
        (lambda h, b: b["terms"].__setitem__(0, 0), r"length is outside \[1, 1\] words"),
        (lambda h, b: b.update(terms=[2, 2]), "terms must be distinct"),
        (lambda h, b: b.update(terms=[2, 1]), "terms must be distinct and in increasing order"),
        (lambda h, b: b["terms"].append(2), "disagree"),
        (lambda h, b: h["config"].update(ngram_hi=3), "not a whole number of 3-id rows"),
        (lambda h, b: h["config"].update(ngram_lo=0), "1 <= ngram_lo <= ngram_hi"),
        (lambda h, b: b["postings"].__setitem__(0, 7), "names no document"),
        (lambda h, b: b["postings"].__setitem__(0, -1), "names no document"),
        (lambda h, b: b["doc_len"].append(3), "disagree"),
        (lambda h, b: b["doc_freq"].__setitem__(0, 2), "disagree"),
        (lambda h, b: h.pop("doc_ids"), "'doc_ids'"),
        (lambda h, b: h["config"].update(ngram=2), "ngram"),
        (lambda h, b: h["config"].update(ngram_hi="3"), "settings integers"),
        (lambda h, b: h["config"].update(lowercase=1), "lowercase must be a bool"),
        (lambda h, b: h["doc_ids"].__setitem__(1, "d1"), "doc_ids must be distinct strings"),
        (lambda h, b: h["doc_ids"].reverse(), "doc_ids must be distinct strings in increasing"),
        (lambda h, b: h["doc_ids"].__setitem__(0, 1), "doc_ids must be distinct strings"),
        (lambda h, b: b.update(doc_freq=[-1, 4]), "doc_freq and tf >= 1"),
        (lambda h, b: b["postings"].__setitem__(1, 0), "doc_freq and tf >= 1"),
        (lambda h, b: b["doc_len"].__setitem__(0, -1), "doc_len must be >= 0"),
        (lambda h, b: b["postings"].__setitem__(4, 0), "name each document once, in increasing"),
        (lambda h, b: b.update(postings=[0, 1, 1, 1, 0, 1]), "name each document once"),
    ])
    def test_bad_snapshot_is_a_data_error_naming_the_file(self, tmp_path, change, problem):
        path = tmp_path / "index.json"
        build_index([("d1", "x y"), ("d2", "y")]).save(path)
        edit_snapshot(path, change)
        with pytest.raises(DataError, match=rf"index\.json: malformed index snapshot: .*{problem}"):
            InvertedIndex.load(path)

    @pytest.mark.parametrize("terms, ngram_lo, problem", [
        # The snapshot's rows are x, x_y and y: [1, 0, 1, 2, 2, 0].
        ([0, 1, 1, 2, 2, 0], 1, "a term has a word id after a zero"),
        ([1, 0, 1, 3, 2, 0], 1, "a word id outside the vocabulary"),
        ([1, 0, 1, 0, 2, 0], 1, "terms must be distinct and in increasing order"),
        ([1, 2, 1, 0, 2, 0], 1, "terms must be distinct and in increasing order"),
        ([2, 0, 1, 2, 1, 0], 1, "terms must be distinct and in increasing order"),
        ([1, 0, 1, 2, 2, 0], 2, r"length is outside \[2, 2\] words"),
    ])
    def test_bad_term_rows_are_a_data_error_naming_the_file(self, tmp_path, terms, ngram_lo,
                                                            problem):
        path = tmp_path / "index.json"
        build_index([("d1", "x y"), ("d2", "y")], TokenizerConfig(ngram_hi=2)).save(path)

        def change(header, blocks):
            assert blocks["terms"] == [1, 0, 1, 2, 2, 0]
            blocks["terms"] = terms
            header["config"]["ngram_lo"] = ngram_lo

        edit_snapshot(path, change)
        with pytest.raises(DataError, match=rf"index\.json: malformed index snapshot: .*{problem}"):
            InvertedIndex.load(path)

    def test_unedited_snapshot_passes_the_edit_helper(self, tmp_path):
        path = tmp_path / "index.json"
        build_index([("d1", "x y"), ("d2", "y")]).save(path)
        before = path.read_bytes()
        edit_snapshot(path, lambda h, b: None)
        assert path.read_bytes() == before

