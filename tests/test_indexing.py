import json
import random
from collections import Counter

import pytest

from lexfuse import cli
from lexfuse.evaluation import DataError
from lexfuse.indexing import InvertedIndex, build_index
from lexfuse.ingest import TokenizerConfig, tokenize
from lexfuse.scorers import SCORER_NAMES, score_all


class UnknownDocumentError(KeyError):
    """A document ordinal is not present in the index."""


def term_frequency(index, term, ordinal):
    """Frequency of ``term`` in document ``ordinal``, read off the postings."""
    if not 0 <= ordinal < index.num_docs:
        raise UnknownDocumentError(f"unknown document ordinal: {ordinal}")
    if term not in index.postings:
        return 0
    rows = index.postings[term]
    return int(rows[rows[:, 0] == ordinal, 1].sum())


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

    def test_config_validation(self):
        # Tokenizer settings are checked where the config loads.
        with pytest.raises(ValueError, match="config key 'ngram_lo'"):
            cli.check_config({"ngram_lo": 0})
        with pytest.raises(ValueError, match="config key 'ngram_lo'"):
            cli.check_config({"ngram_lo": 3, "ngram_hi": 2})


class TestBuildIndex:
    def test_hand_counted_statistics(self):
        index = build_index([("d1", "a b"), ("d2", "b c")])
        assert {t: len(rows) for t, rows in index.postings.items()} == {"a": 1, "b": 2, "c": 1}
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
            for term, postings in index.postings.items():
                assert (sum(tf for _, tf in postings) / index.total_coll_tokens
                        == index.collection_prob(term))
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
                assert sorted(index.postings) == sorted(coll)
                for term in coll:
                    rows = index.postings[term]
                    assert len(rows) == sum(1 for c in counts if term in c)
                    assert int(rows[:, 1].sum()) == coll[term]
                    assert index.collection_prob(term) == coll[term] / total
                    for ordinal, c in enumerate(counts):
                        assert term_frequency(index, term, ordinal) == c[term]
                assert term_frequency(index, "unseen", 0) == 0
                assert index.collection_prob("unseen") == 0.0

    def test_any_input_order_gives_the_same_index(self):
        rng = random.Random(31)
        vocab = [f"w{i}" for i in range(15)]
        for _ in range(30):
            docs = [(doc_id, " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 20))))
                    for doc_id in rng.sample(["d2", "d10", "a", "Z", "é", "日本", "-1"],
                                             rng.randrange(1, 8))]
            for config in (TokenizerConfig(), TokenizerConfig(ngram_lo=1, ngram_hi=3)):
                want = build_index(docs, config).to_dict()
                assert want["doc_ids"] == sorted(doc_id for doc_id, _ in docs)
                for _ in range(3):
                    shuffled = rng.sample(docs, len(docs))
                    assert build_index(shuffled, config).to_dict() == want

    def test_ngram_range_1_1_equals_plain(self):
        docs = [("d1", "the cat sat"), ("d2", "the dog ran far")]
        plain = build_index(docs, TokenizerConfig())
        same = build_index(docs, TokenizerConfig(ngram_lo=1, ngram_hi=1))
        assert plain.to_dict() == same.to_dict()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        index = build_index(
            [("d1", "a b b"), ("d2", "c a")],
            TokenizerConfig(ngram_lo=1, ngram_hi=2),
        )
        path = tmp_path / "index.json"
        index.save(path)
        loaded = InvertedIndex.load(path)
        assert loaded.to_dict() == index.to_dict()
        assert loaded.avgdl == index.avgdl
        assert {t: r.tolist() for t, r in loaded.postings.items()} == {
            t: r.tolist() for t, r in index.postings.items()}
        assert loaded.config == index.config

    def test_loaded_index_scores_bit_equal(self, tmp_path):
        rng = random.Random(29)
        vocab = [f"t{i}" for i in range(25)]
        docs = [(f"d{i:02d}", " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 40))))
                for i in range(30)]
        queries = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 12)))
                   for _ in range(10)]
        for config in (TokenizerConfig(), TokenizerConfig(ngram_lo=1, ngram_hi=3)):
            index = build_index(docs, config)
            path = tmp_path / "index.json"
            index.save(path)
            loaded = InvertedIndex.load(path)
            for scorer in SCORER_NAMES:
                for n, query in enumerate(queries):
                    want = score_all(index, f"q{n}", query, scorer).entries
                    got = score_all(loaded, f"q{n}", query, scorer).entries
                    assert [(d, s.hex()) for d, s in got] == [(d, s.hex()) for d, s in want]

    def test_inconsistent_snapshot_rejected(self, tmp_path):
        data = build_index([("d1", "x y"), ("d2", "y")]).to_dict()
        data["doc_freq"][0] += 1
        with pytest.raises(ValueError, match="disagree"):
            InvertedIndex.from_dict(data)

    def test_rebuild_is_byte_identical(self, tmp_path):
        docs = [("d1", "alpha beta beta"), ("d2", "gamma alpha")]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        build_index(docs).save(p1)
        build_index(docs).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_header_present_and_checked(self, tmp_path):
        index = build_index([("d1", "x")])
        path = tmp_path / "index.json"
        index.save(path)
        data = json.loads(path.read_text())
        assert data["format"] == "lexfuse-index"
        assert data["version"] == 2
        data["format"] = "something-else"
        with pytest.raises(ValueError, match="not an index snapshot"):
            InvertedIndex.from_dict(data)

    @pytest.mark.parametrize("change, problem", [
        (lambda d: d["postings"].__setitem__(0, 7), "names no document"),
        (lambda d: d["doc_len"].append(3), "disagree"),
        (lambda d: d.pop("terms"), "'terms'"),
        (lambda d: d["config"].update(ngram=2), "ngram"),
        (lambda d: d["config"].update(ngram_hi="3"), "settings integers"),
        (lambda d: d["config"].update(lowercase=1), "lowercase must be a bool"),
        (lambda d: d["postings"].__setitem__(1, 10**400), "too large"),
        (lambda d: d["postings"].__setitem__(1, 1.7), "postings must hold integers"),
        (lambda d: d["postings"].__setitem__(1, True), "postings must hold integers"),
        (lambda d: d["doc_len"].__setitem__(0, "5"), "postings must hold integers"),
        (lambda d: d["doc_ids"].__setitem__(1, "d1"), "doc_ids must be distinct strings"),
        (lambda d: d["doc_ids"].reverse(), "doc_ids must be distinct strings in increasing"),
        (lambda d: d["doc_ids"].__setitem__(0, 1), "doc_ids must be distinct strings"),
        (lambda d: d.update(doc_freq=[-1, 4]), "doc_freq and tf >= 1"),
        (lambda d: d["doc_freq"].__setitem__(0, 1.0), "doc_freq and postings must hold int"),
        (lambda d: d["postings"].__setitem__(1, 0), "doc_freq and tf >= 1"),
        (lambda d: d["doc_len"].__setitem__(0, -1), "doc_len must be >= 0"),
        (lambda d: d.update(terms=["y", "y"]), "terms must be distinct strings"),
        (lambda d: d["terms"].__setitem__(0, 5), "terms must be distinct strings"),
        (lambda d: d["postings"].__setitem__(4, 0), "name each document once, in increasing"),
        (lambda d: d.update(postings=[0, 1, 1, 1, 0, 1]), "name each document once"),
    ])
    def test_bad_snapshot_is_a_data_error_naming_the_file(self, tmp_path, change, problem):
        path = tmp_path / "index.json"
        data = build_index([("d1", "x y"), ("d2", "y")]).to_dict()
        change(data)
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match=rf"index\.json: malformed index snapshot: .*{problem}"):
            InvertedIndex.load(path)
