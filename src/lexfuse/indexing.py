"""The immutable inverted index behind the lexical scorers.

Documents are numbered in id order and tokenized with ``ingest.tokenize``;
postings are int64 ``(ordinal, tf)`` rows, one contiguous block per term.
"""

import json
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .evaluation import DataError, _read_json_as
from .ingest import TokenizerConfig, tokenize

INDEX_FORMAT = "lexfuse-index"
INDEX_VERSION = 2


class Postings(Mapping):
    """term -> ``(df, 2)`` int64 ``(ordinal, tf)`` rows sorted by ordinal: a view of ``rows``."""

    def __init__(self, terms, doc_freq, rows):
        self.rows = rows
        self.bounds = np.concatenate(([0], np.cumsum(doc_freq, dtype=np.int64)))
        self._slot = dict(zip(terms, range(len(doc_freq))))

    def __getitem__(self, term):
        i = self._slot[term]
        return self.rows[self.bounds[i]:self.bounds[i + 1]]

    def __contains__(self, term):
        return term in self._slot

    def __iter__(self):
        return iter(self._slot)

    def __len__(self):
        return len(self._slot)


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

    def collection_prob(self, term):
        """p(term | collection); 0 for unseen terms."""
        rows = self.postings.get(term)
        return 0.0 if rows is None else int(rows[:, 1].sum()) / self.total_coll_tokens

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "config": asdict(self.config),
            "doc_ids": list(self.doc_ids),
            "doc_len": self.doc_len.tolist(),
            "terms": list(self.postings),
            "doc_freq": np.diff(self.postings.bounds).tolist(),
            "postings": self.postings.rows.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or data.get("format") != INDEX_FORMAT:
            raise DataError("not an index snapshot")
        if data.get("version") != INDEX_VERSION:
            raise DataError(f"unsupported index version: {data.get('version')!r}")
        doc_ids, doc_len, terms, doc_freq, flat = (data[key] for key in (
            "doc_ids", "doc_len", "terms", "doc_freq", "postings"))
        if doc_ids != sorted(set(map(str, doc_ids))):
            raise DataError("index snapshot: doc_ids must be distinct strings in increasing order")
        if (len(doc_len) != len(doc_ids) or len(terms) != len(doc_freq)
                or 2 * sum(doc_freq) != len(flat)):
            raise DataError("index snapshot: array lengths disagree")
        if not {*map(type, flat), *map(type, doc_len), *map(type, doc_freq)} <= {int}:
            raise DataError("index snapshot: doc_len, doc_freq and postings must hold integers")
        rows = np.array(flat, dtype=np.int64).reshape(-1, 2)
        doc_len = np.array(doc_len, dtype=np.int64)
        postings = Postings(terms, doc_freq, rows)
        if np.any(doc_len < 0) or np.any(np.diff(postings.bounds) < 1) or np.any(rows[:, 1] < 1):
            raise DataError("index snapshot: doc_len must be >= 0, doc_freq and tf >= 1")
        if len(postings) != len(terms) or not set(map(type, terms)) <= {str}:
            raise DataError("index snapshot: terms must be distinct strings")
        if len(rows) and not 0 <= rows[:, 0].min() <= rows[:, 0].max() < len(doc_ids):
            raise DataError("index snapshot: a posting names no document")
        rising = np.diff(rows[:, 0]) > 0
        rising[postings.bounds[1:-1] - 1] = True  # a term's first row may name any document
        if not rising.all():
            raise DataError("index snapshot: a term's postings must name each document once, "
                            "in increasing order")
        config = TokenizerConfig(**data["config"])
        settings = (config.min_token_len, config.ngram_lo, config.ngram_hi)
        if type(config.lowercase) is not bool or any(type(v) is not int for v in settings):
            raise DataError("index snapshot: lowercase must be a bool, the other settings integers")
        return cls(config, doc_ids, doc_len, postings)

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False),
                              encoding="utf-8")

    @classmethod
    def load(cls, path):
        return _read_json_as(path, cls.from_dict, "index snapshot")


def build_index(docs, config=TokenizerConfig()):
    """Build an InvertedIndex from ``(id, text)`` pairs; duplicate ids are rejected.

    Documents are numbered in id order and terms in order of first occurrence,
    so the index depends only on the set of pairs.
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
    rows = np.column_stack((ordinals, tfs))[order]
    doc_freq = np.bincount(term_of, minlength=len(slot))
    return InvertedIndex(config, doc_ids, doc_len, Postings(slot, doc_freq, rows))
