"""The immutable inverted index behind the lexical scorers.

Documents are numbered in id order and tokenized with ``ingest.tokenize``.
A term is an n-gram of ``ngram_lo`` to ``ngram_hi`` words, joined by "_"
(a word holds no "_"). The words are numbered from 1 in order of first
occurrence, and each term is stored as a row of ``ngram_hi`` int32 word ids,
zero-padded after its last word; the rows are distinct and in increasing
lexicographic order. The plain index is the ``ngram_hi = 1`` case. Postings
are int64 ``(ordinal, tf)`` rows, one contiguous block per term in row order.

A snapshot file (version 4) is one sorted-keys JSON header line (format,
version, tokenizer config, doc ids and the byte length of each block),
then the blocks: the words joined by ``\\n`` as UTF-8 (a word holds no line
break), then the term rows, ``doc_len``, ``doc_freq`` and the posting rows,
all as little-endian int32.
"""

import json
import os
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import asdict, replace

import numpy as np

from .evaluation import DataError
from .ingest import TokenizerConfig, tokenize

INDEX_FORMAT = "lexfuse-index"
INDEX_VERSION = 4
_BLOCKS = ("words", "terms", "doc_len", "doc_freq", "postings")  # in file order
_INT32 = np.dtype("<i4")


class Postings:
    """Each term's ``(df, 2)`` int64 ``(ordinal, tf)`` rows, sorted by ordinal: views of ``rows``.

    ``terms`` holds each term's word-id row (see the module docstring), in
    the order of the ``doc_freq`` counts and of the row blocks. It answers
    the lookups the pipeline makes: ``get`` a term's rows, ``len`` the
    number of terms and ``values`` every term's rows in row order.
    """

    def __init__(self, words, terms, doc_freq, rows):
        self.words = words
        self.terms = np.asfortranarray(terms, dtype=np.int32)  # contiguous columns to search
        self.rows = rows
        self.bounds = np.zeros(len(doc_freq) + 1, dtype=np.int64)
        np.cumsum(doc_freq, out=self.bounds[1:])
        self._bounds = memoryview(self.bounds)  # Python ints, quicker to slice with
        self._ids = dict(zip(words, range(1, len(words) + 1)))
        self._columns = [memoryview(self.terms[:, k]) for k in range(self.terms.shape[1])]
        # The rows that begin with word id w are starts[w] .. starts[w + 1] - 1. This jump
        # table nearly halves the lookup time against a bisect of the first column.
        self._starts = memoryview(self.terms[:, 0].searchsorted(np.arange(len(words) + 2)))

    def get(self, term):
        """``term``'s rows, or None if it has none.

        The term is split on "_", its words mapped to ids and the rows searched one
        column at a time.
        """
        ids, columns = list(map(self._ids.get, term.split("_"))), self._columns
        n = len(ids)
        if None in ids or n > len(columns):
            return None
        lo, hi = self._starts[ids[0]], self._starts[ids[0] + 1]
        for k in range(1, n):
            column, word_id = columns[k], ids[k]
            lo = bisect_left(column, word_id, lo, hi)
            if lo == hi or column[lo] != word_id:
                return None
            hi = bisect_right(column, word_id, lo, hi)
        # Rows lo..hi-1 begin with ``ids``; the first has the lowest next id, 0 if it is the term.
        if lo == hi or (n < len(columns) and columns[n][lo] != 0):
            return None
        return self.rows[self._bounds[lo]:self._bounds[lo + 1]]

    def __len__(self):
        return len(self.terms)

    def values(self):
        """Each term's rows in row order, without a lookup per term."""
        bounds = self.bounds.tolist()
        return (self.rows[start:end] for start, end in zip(bounds, bounds[1:]))


class InvertedIndex:
    """Immutable term statistics of a fixed corpus; frequencies are read off the postings."""

    def __init__(self, config, doc_ids, doc_len, postings):
        self.config = config
        self.doc_ids = tuple(doc_ids)
        self.doc_len = np.asarray(doc_len, dtype=np.int64)
        self.postings = postings
        self.total_coll_tokens = int(self.doc_len.sum())
        self.avgdl = self.total_coll_tokens / len(self.doc_ids) if self.doc_ids else 0.0
        self.memo = {}  # what scorers derive from these statistics, kept across queries

    @property
    def num_docs(self):
        return len(self.doc_ids)

    # -- serialization -----------------------------------------------------

    def save(self, path):
        """Write the snapshot (see the module docstring); counts must fit in int32.

        Each int32 block is converted as it is written, so one copy at a time is held.
        """
        postings = self.postings
        blocks = {"words": "\n".join(postings.words).encode("utf-8"), "terms": postings.terms,
                  "doc_len": self.doc_len, "doc_freq": np.diff(postings.bounds),
                  "postings": postings.rows}
        for name in _BLOCKS[1:]:
            if blocks[name].max(initial=0) > np.iinfo(_INT32).max:
                raise DataError(f"{path}: {name} holds a value above 2**31 - 1, "
                                "past the snapshot's int32 range")
        sizes = {name: blocks[name].size * _INT32.itemsize for name in _BLOCKS[1:]}
        header = {"format": INDEX_FORMAT, "version": INDEX_VERSION, "config": asdict(self.config),
                  "doc_ids": list(self.doc_ids),
                  "block_bytes": {"words": len(blocks["words"]), **sizes}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8"))
            fh.write(b"\n")
            fh.write(blocks["words"])
            for name in _BLOCKS[1:]:
                fh.write(blocks[name].astype(_INT32, order="C"))

    @classmethod
    def load(cls, path):
        """The index ``save`` wrote to ``path``; a malformed snapshot is a DataError naming it.

        Each block is read and converted on its own, so the whole file is never held at once.
        """
        try:
            with open(path, "rb") as fh:
                return cls._read(fh, os.fstat(fh.fileno()).st_size)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed index snapshot: {exc}") from None

    @classmethod
    def _read(cls, fh, file_size):
        head = fh.readline()  # an older snapshot is one JSON line
        header = json.loads(head.decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
            raise DataError("not an index snapshot")
        if header.get("version") != INDEX_VERSION:
            raise DataError(f"unsupported index version: {header.get('version')!r} "
                            f"(this lexfuse reads version {INDEX_VERSION}); rerun lexfuse index")
        config = TokenizerConfig(**header["config"])
        settings = (config.min_token_len, config.ngram_lo, config.ngram_hi)
        if type(config.lowercase) is not bool or any(type(v) is not int for v in settings):
            raise DataError("index snapshot: lowercase must be a bool, the other settings integers")
        if not 1 <= config.ngram_lo <= config.ngram_hi:
            raise DataError("index snapshot: the config needs 1 <= ngram_lo <= ngram_hi")
        sizes = [header["block_bytes"][name] for name in _BLOCKS]
        if (any(type(size) is not int or size < 0 for size in sizes)
                or len(head) + sum(sizes) != file_size):
            raise DataError("index snapshot: block lengths disagree with the file size")
        text = str(fh.read(sizes[0]), "utf-8")
        words = text.split("\n") if text else []
        if "_" in text or "" in words or len(set(words)) != len(words):
            raise DataError("index snapshot: words must be distinct, non-empty and hold no '_'")
        terms = np.frombuffer(fh.read(sizes[1]), _INT32)
        if len(terms) % config.ngram_hi:
            raise DataError(f"index snapshot: the terms block is not a whole number of "
                            f"{config.ngram_hi}-id rows")
        terms = terms.reshape(-1, config.ngram_hi)
        doc_len, doc_freq, rows = (np.frombuffer(fh.read(size), _INT32).astype(np.int64)
                                   for size in sizes[2:])
        doc_ids = header["doc_ids"]
        if doc_ids != sorted(set(map(str, doc_ids))):
            raise DataError("index snapshot: doc_ids must be distinct strings in increasing order")
        if (len(doc_len) != len(doc_ids) or len(terms) != len(doc_freq)
                or 2 * int(doc_freq.sum()) != len(rows)):
            raise DataError("index snapshot: array lengths disagree")
        _check_terms(terms, len(words), config)
        rows = rows.reshape(-1, 2)
        postings = Postings(words, terms, doc_freq, rows)
        if np.any(doc_len < 0) or np.any(doc_freq < 1) or np.any(rows[:, 1] < 1):
            raise DataError("index snapshot: doc_len must be >= 0, doc_freq and tf >= 1")
        if len(rows) and not 0 <= rows[:, 0].min() <= rows[:, 0].max() < len(doc_ids):
            raise DataError("index snapshot: a posting names no document")
        rising = rows[1:, 0] > rows[:-1, 0]
        rising[postings.bounds[1:-1] - 1] = True  # a term's first row may name any document
        if not rising.all():
            raise DataError("index snapshot: a term's postings must name each document once, "
                            "in increasing order")
        return cls(config, doc_ids, doc_len, postings)


def _check_terms(terms, num_words, config):
    """Refuse term rows that are not distinct, sorted, zero-padded n-grams of known words."""
    if len(terms) and not 0 <= terms.min() <= terms.max() <= num_words:
        raise DataError("index snapshot: a term names a word id outside the vocabulary")
    held = terms != 0
    if np.any(held[:, 1:] & ~held[:, :-1]):
        raise DataError("index snapshot: a term has a word id after a zero")
    if not held[:, config.ngram_lo - 1].all():
        raise DataError(f"index snapshot: a term's length is outside "
                        f"[{config.ngram_lo}, {config.ngram_hi}] words")
    del held
    tied = np.ones(max(len(terms) - 1, 0), dtype=bool)  # neighbours equal in the columns so far
    falls = np.zeros_like(tied)
    for earlier, later in zip(terms[:-1].T, terms[1:].T):
        falls |= tied & (later < earlier)
        tied &= later == earlier
    if falls.any() or tied.any():
        raise DataError("index snapshot: terms must be distinct and in increasing order")


def build_index(docs, config=TokenizerConfig()):
    """Build an InvertedIndex from ``(id, text)`` pairs; duplicate ids are rejected.

    Documents are numbered in id order and words in order of first
    occurrence, so the index depends only on the set of pairs.
    """
    doc_ids, word_id = [], {}
    ids, ends = array("i"), array("i")  # every document's word ids, where each one ends
    words_only = replace(config, ngram_lo=1, ngram_hi=1)
    for doc_id, text in sorted(docs, key=lambda pair: pair[0]):
        if doc_ids and doc_id == doc_ids[-1]:
            raise DataError(f"duplicate document id: {doc_id!r}")
        doc_ids.append(doc_id)
        ids.extend([word_id.setdefault(w, len(word_id) + 1) for w in tokenize(text, words_only)])
        ends.append(len(ids))
    ids, ends = np.frombuffer(ids, np.intc), np.frombuffer(ends, np.intc)
    lengths = np.diff(ends, prepend=0)
    doc_len = sum(np.maximum(lengths - (n - 1), 0)
                  for n in range(config.ngram_lo, config.ngram_hi + 1))
    doc_of = np.repeat(np.arange(len(doc_ids), dtype=np.int32), lengths)
    left = np.repeat(ends, lengths) - np.arange(len(ids), dtype=np.int32)  # words to the doc's end
    del lengths, ends
    # Level n numbers the distinct n-grams: the key of a window is the dense rank of
    # (its (n-1)-word prefix's key, its last word id), which fits in int64 at any ngram_hi.
    starts, key = np.arange(len(ids), dtype=np.int32), np.zeros(len(ids), dtype=np.int32)
    levels = []  # per kept level: the distinct n-grams' word-id rows, window keys and documents
    for n in range(1, config.ngram_hi + 1):
        longer = left[starts] >= n
        starts, key = starts[longer], key[longer]
        del longer
        pairs = key.astype(np.int64) * (len(word_id) + 1) + ids[starts + (n - 1)]
        _, first, key = np.unique(pairs, return_index=True, return_inverse=True)
        del pairs
        key = key.astype(np.int32)
        if n >= config.ngram_lo:
            grams = ids[starts[first][:, None] + np.arange(n, dtype=np.int32)]
            levels.append((grams, key, doc_of[starts]))
        del first
    del ids, doc_of, left, starts, key
    # The term rows in lexicographic order, and each level key's row number.
    terms = np.zeros((sum(len(grams) for grams, _, _ in levels), config.ngram_hi), np.int32,
                     order="F")
    at = 0
    for grams, _, _ in levels:
        terms[at:at + len(grams), :grams.shape[1]] = grams
        at += len(grams)
    order = np.lexsort(terms.T[::-1])
    for k in range(config.ngram_hi):  # a column at a time: Postings searches Fortran-order rows
        terms[:, k] = terms[order, k]
    number = np.empty(len(order), dtype=np.int32)
    number[order] = np.arange(len(order), dtype=np.int32)
    del order
    # One sort of (term, document) codes gives every posting, by term then document; a run
    # of equal codes is one posting, and its length the tf.
    num_docs = max(len(doc_ids), 1)
    fits = len(terms) * num_docs <= np.iinfo(np.int32).max
    codes = np.empty(sum(len(key) for _, key, _ in levels), np.int32 if fits else np.int64)
    at = end = 0
    for grams, key, docs_at in levels:
        np.add(number[at + key].astype(codes.dtype, copy=False) * num_docs, docs_at,
               out=codes[end:end + len(key)])
        at, end = at + len(grams), end + len(key)
    del levels, number
    codes.sort()
    runs = np.ones(len(codes) + 1, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=runs[1:-1])
    runs = np.flatnonzero(runs)  # where each run starts, then the end
    codes = codes[runs[:-1]]
    rows = np.empty((len(codes), 2), dtype=np.int64)
    np.subtract(runs[1:], runs[:-1], out=rows[:, 1])
    del runs
    np.remainder(codes, num_docs, out=rows[:, 0])
    codes //= num_docs  # now each posting's term
    doc_freq = np.bincount(codes, minlength=len(terms))
    del codes
    return InvertedIndex(config, doc_ids, doc_len, Postings(list(word_id), terms, doc_freq, rows))
