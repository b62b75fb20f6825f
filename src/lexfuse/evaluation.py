"""Ranked lists, their query/doc/score files, and competition-style metrics.

A ``ScoredList`` is one query's ranking. Score dumps and run files are one
query/doc/score table (3 and 5 fields) with one reader that names
``path:line`` for a bad row. The two error kinds of every layer live here:
``SettingError`` for a config value and ``DataError`` for an input file.

Case retrieval pools true/false positives and misses over all queries
before computing precision, recall, and F1 (micro average). Statute
retrieval averages per-query precision and recall first and derives
F2 = 5PR / (4P + R) from the averaged values (macro average, recall
weighted four times precision). A zero denominator yields 0.0; the
report's ``zero_division`` names only the pooled or averaged values so
made, not a query's own precision or recall.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import inf, isfinite
from pathlib import Path


class SettingError(ValueError):
    """A config key or command-line argument that cannot be used (exit 1)."""


class DataError(ValueError):
    """An input that is missing or malformed; the message names its ``path[:line]`` (exit 2)."""


@contextmanager
def _text(path):
    """``path`` opened as UTF-8 text; an undecodable byte is a DataError naming path:line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # text is decoded in chunks: find the line
            lineno = next((i for i, raw in enumerate(fh, 1)
                           if raw.decode("utf-8", "replace").encode("utf-8") != raw), "?")
        raise DataError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _read_json(path, error=DataError):
    """The JSON value in UTF-8 file ``path``; ``error`` names the file if it is not JSON."""
    with _text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise error(f"{path}: not valid JSON: {exc}") from None


def _write_json(path, value, indent=1):
    """Write ``value`` to ``path`` as UTF-8 JSON with sorted keys; ``indent=None`` is compact."""
    Path(path).write_text(json.dumps(value, sort_keys=True, indent=indent), encoding="utf-8")


@dataclass
class ScoredList:
    """Per-query ranking: (doc_id, score) sorted by score desc, id asc."""

    query_id: str
    entries: list

    @classmethod
    def from_scores(cls, query_id, scores):
        """Build from a {doc_id: score} mapping, applying the sort order."""
        items = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(query_id=query_id, entries=items)

    def doc_ids(self):
        return [doc_id for doc_id, _ in self.entries]

    def __len__(self):
        return len(self.entries)


@dataclass
class MetricReport:
    precision: float
    recall: float
    f_measure: float
    per_query: dict = field(default_factory=dict)
    tp: int | None = None
    fp: int | None = None
    fn: int | None = None
    zero_division: tuple = ()

    def to_dict(self):
        out = {
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "per_query": self.per_query,
        }
        if self.tp is not None:
            out["counts"] = {"tp": self.tp, "fp": self.fp, "fn": self.fn}
        if self.zero_division:
            out["zero_division"] = list(self.zero_division)
        return out


def _judged(runs, qrels):
    """(query id, ranked doc ids, relevant ids) of each query of ``runs`` or ``qrels``, in id order.

    A run lists each document at most once per query: every reader refuses a
    repeated pair, and every filter and ``ltr.predict`` keep that. So a
    query's hits are ``len(relevant.intersection(retrieved))``, and its false
    positives and misses are what is left of the two lengths.
    """
    for qid in sorted(runs.keys() | qrels.keys()):
        slist = runs.get(qid)
        yield qid, [] if slist is None else slist.doc_ids(), set(qrels.get(qid, ()))


def micro_prf1(runs, qrels):
    """Pooled precision/recall/F1 over all queries."""
    tp = fp = fn = 0
    per_query = {}
    for qid, retrieved, relevant in _judged(runs, qrels):
        q_tp = len(relevant.intersection(retrieved))
        q_fp = len(retrieved) - q_tp
        q_fn = len(relevant) - q_tp
        tp += q_tp
        fp += q_fp
        fn += q_fn
        per_query[qid] = {"tp": q_tp, "fp": q_fp, "fn": q_fn}
    flags = []
    precision = tp / (tp + fp) if tp + fp else 0.0
    if not tp + fp:
        flags.append("precision")
    recall = tp / (tp + fn) if tp + fn else 0.0
    if not tp + fn:
        flags.append("recall")
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    if not precision + recall:
        flags.append("f_measure")
    return MetricReport(
        precision=precision, recall=recall, f_measure=f1,
        per_query=per_query, tp=tp, fp=fp, fn=fn, zero_division=tuple(flags),
    )


def macro_prf2(runs, qrels):
    """Per-query precision and recall averaged, then F2 from the averages."""
    per_query = {}
    for qid, retrieved, relevant in _judged(runs, qrels):
        correct = len(relevant.intersection(retrieved))
        per_query[qid] = {"precision": correct / len(retrieved) if retrieved else 0.0,
                          "recall": correct / len(relevant) if relevant else 0.0}
    flags = []
    if per_query:
        precision = sum(q["precision"] for q in per_query.values()) / len(per_query)
        recall = sum(q["recall"] for q in per_query.values()) / len(per_query)
    else:
        precision = recall = 0.0
        flags.extend(["precision", "recall"])
    denom = 4 * precision + recall
    f2 = 5 * precision * recall / denom if denom else 0.0
    if not denom:
        flags.append("f_measure")
    return MetricReport(
        precision=precision, recall=recall, f_measure=f2,
        per_query=per_query, zero_division=tuple(flags),
    )


def mean_average_precision(runs, qrels):
    """Mean average precision of the queries with relevant ids; unretrieved relevants add 0."""
    ap_values = []
    for _, retrieved, relevant in _judged(runs, qrels):
        if not relevant:
            continue
        hits = 0
        precision_sum = 0.0
        for rank, doc_id in enumerate(retrieved, 1):
            if doc_id in relevant:
                hits += 1
                precision_sum += hits / rank
        ap_values.append(precision_sum / len(relevant))
    return sum(ap_values) / len(ap_values) if ap_values else 0.0


def recall_at_k(runs, qrels, k):
    """Macro average of |relevant in top-k| / |relevant| over queries with relevant ids."""
    if k < 1:
        raise ValueError("k must be >= 1")
    values = [len(relevant.intersection(retrieved[:k])) / len(relevant)
              for _, retrieved, relevant in _judged(runs, qrels) if relevant]
    return sum(values) / len(values) if values else 0.0


# -- file formats -------------------------------------------------------------

def load_id_lists(path, what, mapping):
    """Read a JSON object of id lists; errors name ``path``, ``what`` and ``mapping``."""
    data = _read_json(path)
    if not isinstance(data, dict) or not all(
            isinstance(ids, list) and all(isinstance(i, str) for i in ids)
            for ids in data.values()):
        raise DataError(f"{path}: {what} must be a JSON object mapping {mapping}")
    return data


def load_qrels(path):
    """Read ``{"query_id": ["doc_id", ...]}`` into {query_id: set}."""
    data = load_id_lists(path, "qrels", "query ids to lists of document ids")
    return {qid: set(docs) for qid, docs in data.items()}


def write_qrels(qrels, path):
    _write_json(path, {qid: sorted(docs) for qid, docs in sorted(qrels.items())})


def write_run_file(runs, path, tag="lexfuse"):
    """``query_id<TAB>doc_id<TAB>rank<TAB>score<TAB>run_tag`` per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(runs):
            for rank, (doc_id, score) in enumerate(runs[qid].entries, 1):
                fh.write(f"{qid}\t{doc_id}\t{rank}\t{score:.6f}\t{tag}\n")


def _read_scored_table(path, width, score_field, limit=None):
    """Rows of a query/doc/score table as {query_id: {doc_id: score}}, in file order.

    Each non-empty line has ``width`` tab-separated fields: the query id,
    the document id, and the score at ``score_field``, a finite number.

    With ``limit``, a query's rows are parsed until ``limit`` of them are
    in, then while they tie the last one's score; the first row below that
    score is checked but not kept, and the rest of the query's block is
    skipped unparsed and unchecked. That keeps each query's top ``limit``
    rows and their ties only in a table that holds each query in one block
    of non-increasing scores, as ``scorers.write_score_dump`` writes it.
    """
    per_query = {}
    qid = scores = floor = skip = None
    cap = inf if limit is None else limit
    with _text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if skip is not None and line.startswith(skip):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != width:
                if parts == [""]:
                    continue
                raise DataError(f"{path}:{lineno}: expected {width} tab-separated fields")
            if parts[0] != qid:
                qid = parts[0]
                scores = per_query.setdefault(qid, {})
                floor = skip = None
            doc_id, raw = parts[1], parts[score_field]
            try:
                score = float(raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score {raw!r}") from None
            if not isfinite(score):
                raise DataError(f"{path}:{lineno}: non-finite score {raw!r}")
            if doc_id in scores:
                raise DataError(
                    f"{path}:{lineno}: duplicate candidate {doc_id!r} for query {qid!r}")
            if len(scores) < cap:
                scores[doc_id] = floor = score
            elif score == floor:
                scores[doc_id] = score
            else:
                skip = qid + "\t"
    return per_query


def read_run_file(path):
    """Parse a run file into {query_id: ScoredList}, keeping file order."""
    return {qid: ScoredList(qid, list(scores.items()))
            for qid, scores in _read_scored_table(path, 5, 3).items()}


def write_report(report, path, extra=None):
    data = report.to_dict()
    if extra:
        data.update(extra)
    _write_json(path, data)
