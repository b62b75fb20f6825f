"""The immutable inverted index behind the lexical scorers.

Documents are numbered in id order and tokenized with ``ingest.tokenize``;
postings are int64 ``(ordinal, tf)`` rows, one contiguous block per term.

A snapshot file is one sorted-keys JSON header line (format, version,
tokenizer config, doc ids, term count and the byte length of each block),
then the blocks: the terms joined by ``\\n`` as UTF-8 (a token holds no
line break), then ``doc_len``, ``doc_freq`` and the posting rows as
little-endian int32.
"""

import json
import os
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import asdict

import numpy as np

from .evaluation import DataError
from .ingest import TokenizerConfig, tokenize

INDEX_FORMAT = "lexfuse-index"
INDEX_VERSION = 3
_BLOCKS = ("terms", "doc_len", "doc_freq", "postings")  # in file order
_INT32 = np.dtype("<i4")


class Postings(Mapping):
    """term -> ``(df, 2)`` int64 ``(ordinal, tf)`` rows sorted by ordinal: a view of ``rows``.

    ``slot`` numbers the terms 0, 1, ... in its own iteration order, which
    is the order of the ``doc_freq`` counts and of the row blocks.
    """

    def __init__(self, slot, doc_freq, rows):
        self.rows = rows
        self.bounds = np.concatenate(([0], np.cumsum(doc_freq, dtype=np.int64)))
        self._slot = slot

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

    def save(self, path):
        """Write the snapshot (see the module docstring); counts must fit in int32."""
        blocks = {"terms": "\n".join(self.postings).encode("utf-8"), "doc_len": self.doc_len,
                  "doc_freq": np.diff(self.postings.bounds), "postings": self.postings.rows}
        for name in _BLOCKS[1:]:
            if blocks[name].max(initial=0) > np.iinfo(_INT32).max:
                raise DataError(f"{path}: {name} holds a value above 2**31 - 1, "
                                "past the snapshot's int32 range")
            blocks[name] = blocks[name].astype(_INT32)
        header = {"format": INDEX_FORMAT, "version": INDEX_VERSION, "config": asdict(self.config),
                  "doc_ids": list(self.doc_ids), "num_terms": len(self.postings),
                  "block_bytes": {name: memoryview(blocks[name]).nbytes
                                  for name in _BLOCKS}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8"))
            fh.write(b"\n")
            for name in _BLOCKS:
                fh.write(blocks[name])

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
            raise DataError(f"unsupported index version: {header.get('version')!r}")
        sizes = [header["block_bytes"][name] for name in _BLOCKS]
        if (any(type(size) is not int or size < 0 for size in sizes)
                or len(head) + sum(sizes) != file_size):
            raise DataError("index snapshot: block lengths disagree with the file size")
        terms = str(fh.read(sizes[0]), "utf-8").split("\n") if sizes[0] else []
        if len(terms) != header["num_terms"]:
            raise DataError(f"index snapshot: {len(terms)} terms, the header says "
                            f"{header['num_terms']!r}")
        doc_len, doc_freq, rows = (np.frombuffer(fh.read(size), _INT32).astype(np.int64)
                                   for size in sizes[1:])
        doc_ids = header["doc_ids"]
        if doc_ids != sorted(set(map(str, doc_ids))):
            raise DataError("index snapshot: doc_ids must be distinct strings in increasing order")
        if (len(doc_len) != len(doc_ids) or len(terms) != len(doc_freq)
                or 2 * int(doc_freq.sum()) != len(rows)):
            raise DataError("index snapshot: array lengths disagree")
        rows = rows.reshape(-1, 2)
        postings = Postings(dict(zip(terms, range(len(terms)))), doc_freq, rows)
        if np.any(doc_len < 0) or np.any(doc_freq < 1) or np.any(rows[:, 1] < 1):
            raise DataError("index snapshot: doc_len must be >= 0, doc_freq and tf >= 1")
        if len(postings) != len(terms):
            raise DataError("index snapshot: terms must be distinct")
        if len(rows) and not 0 <= rows[:, 0].min() <= rows[:, 0].max() < len(doc_ids):
            raise DataError("index snapshot: a posting names no document")
        rising = rows[1:, 0] > rows[:-1, 0]
        rising[postings.bounds[1:-1] - 1] = True  # a term's first row may name any document
        if not rising.all():
            raise DataError("index snapshot: a term's postings must name each document once, "
                            "in increasing order")
        config = TokenizerConfig(**header["config"])
        settings = (config.min_token_len, config.ngram_lo, config.ngram_hi)
        if type(config.lowercase) is not bool or any(type(v) is not int for v in settings):
            raise DataError("index snapshot: lowercase must be a bool, the other settings integers")
        return cls(config, doc_ids, doc_len, postings)


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
    rows = np.empty((len(order), 2), dtype=np.int64)
    rows[:, 0] = ordinals[order]
    rows[:, 1] = np.frombuffer(tfs, dtype=np.int64)[order]
    doc_freq = np.bincount(term_of, minlength=len(slot))
    return InvertedIndex(config, doc_ids, doc_len, Postings(slot, doc_freq, rows))
