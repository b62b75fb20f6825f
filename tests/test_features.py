import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from lexfuse import ltr
from lexfuse.evaluation import DataError, ScoredList, SettingError
from lexfuse.features import (
    _BUILTIN_SCHEMAS,
    TASK1_SCHEMA,
    TASK3_SCHEMA,
    ExternalScoreFile,
    FeatureSchema,
    FeatureTable,
    Numbering,
    assemble,
    check_sources,
    get_schema,
)
from lexfuse.ingest import CleanDocument

# -- reference: the row-based table that the columnar FeatureTable replaced ----


@dataclass
class FeatureRow:
    query_id: str
    candidate_id: str
    values: tuple
    label: int | None = None


class RowTable:
    """Rows sorted by (query_id, candidate_id), all matching one schema."""

    def __init__(self, schema, rows):
        for row in rows:
            if len(row.values) != len(schema):
                raise ValueError(
                    f"row ({row.query_id}, {row.candidate_id}) has "
                    f"{len(row.values)} values, schema has {len(schema)}"
                )
        self.schema = schema
        self.rows = sorted(rows, key=lambda r: (r.query_id, r.candidate_id))

    def to_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query_id\tcandidate_id\tlabel\t"
                     + "\t".join(self.schema.feature_names) + "\n")
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
                raise DataError(f"{path}:1: bad feature table header")
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
                    raise DataError(f"{path}:{lineno}: expected {3 + len(names)} fields")
                try:
                    label = int(parts[2])
                    values = tuple(float(v) for v in parts[3:])
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: bad label or feature value"
                    ) from None
                rows.append(FeatureRow(
                    query_id=parts[0],
                    candidate_id=parts[1],
                    values=values,
                    label=None if label < 0 else label,
                ))
        return cls(schema, rows)


def row_table_arrays(table):
    """(X, labels, query row ranges, query ids) of a labeled RowTable, one row at a
    time. The first row with a label other than None, 0 or 1 or with a non-finite
    value is a ValueError, as the table refuses it; then the first row without a
    label is a DataError, as training refuses it."""
    n = len(table.rows)
    X = np.empty((n, len(table.schema)), dtype=np.float64)
    y = np.empty(n, dtype=np.int64)
    for i, row in enumerate(table.rows):
        if row.label not in (None, 0, 1):
            problem = "label must be -1, 0 or 1"
        elif not all(math.isfinite(v) for v in row.values):
            problem = "non-finite feature value"
        else:
            continue
        raise ValueError(f"row {i} ({row.query_id}, {row.candidate_id}): {problem}")
    for i, row in enumerate(table.rows):
        if row.label is None:
            raise DataError(f"row ({row.query_id}, {row.candidate_id}) has no label")
        X[i] = row.values
        y[i] = row.label
    groups = []
    qids = []
    start = 0
    for i in range(1, n + 1):
        if i == n or table.rows[i].query_id != table.rows[start].query_id:
            groups.append((start, i))
            qids.append(table.rows[start].query_id)
            start = i
    return X, y, groups, qids


def row_predict(model, table):
    """``ltr.predict`` over the rows of a RowTable."""
    if not table.rows:
        return {}
    X = np.asarray([row.values for row in table.rows], dtype=np.float64)
    scores = model.predict_matrix(X)
    per_query = {}
    for row, score in zip(table.rows, scores):
        per_query.setdefault(row.query_id, {})[row.candidate_id] = float(score)
    return {qid: ScoredList.from_scores(qid, docs) for qid, docs in per_query.items()}


def reference_normalize(runs):
    """Min-max normalize each query's scores into [1e-6, 1], list by list."""
    out = {}
    for qid, slist in runs.items():
        if not slist.entries:
            out[qid] = slist
            continue
        top = slist.entries[0][1]
        bottom = slist.entries[-1][1]
        span = top - bottom
        if span <= 0:
            entries = [(doc_id, 1.0) for doc_id, _ in slist.entries]
        else:
            scale = 1.0 - 1e-6
            entries = [
                (doc_id, 1e-6 + scale * (score - bottom) / span)
                for doc_id, score in slist.entries
            ]
        out[qid] = ScoredList(qid, entries)
    return out


def table_from_rows(schema, rows):
    """The columnar FeatureTable of reference rows, sorted by (query_id, candidate_id);
    a None label becomes -1."""
    rows = sorted(rows, key=lambda r: (r.query_id, r.candidate_id))
    X = (np.array([r.values for r in rows], dtype=np.float64).reshape(len(rows), -1)
         if rows else np.empty((0, len(schema))))
    return FeatureTable(schema, [r.query_id for r in rows], [r.candidate_id for r in rows],
                        X, [-1 if r.label is None else r.label for r in rows])


def rows_of(table):
    """The reference rows of a columnar FeatureTable, in table order."""
    return [FeatureRow(qid, cid, tuple(values), None if label < 0 else label)
            for qid, cid, values, label in zip(table.query_ids, table.candidate_ids,
                                               table.X.tolist(), table.labels.tolist())]


def whole_matrix_to_tsv(table, path):
    """The writer ``to_tsv`` replaced: the whole matrix converted by one ``X.tolist()``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query_id\tcandidate_id\tlabel\t" + "\t".join(table.schema.feature_names) + "\n")
        for qid, cid, label, row in zip(table.query_ids, table.candidate_ids,
                                        table.labels.tolist(), table.X.tolist()):
            values = "\t".join(f"{v:.6f}" for v in row)
            fh.write(f"{qid}\t{cid}\t{label}\t{values}\n")



# -- reference: the per-cell assembly that the column-by-column build replaced ----


def reference_rank_feature(slist):
    """Map doc_id -> 1-based rank for a sorted ScoredList.

    Callers treat docs absent from the list as rank len(list) + 1.
    """
    return {doc_id: i + 1 for i, (doc_id, _) in enumerate(slist.entries)}


_REFERENCE_META_FEATURES = {
    "query_length": lambda q, c: q.token_length,
    "candidate_length": lambda q, c: c.token_length,
    "article_length": lambda q, c: c.token_length,
    "query_ref_num": lambda q, c: q.placeholder_count,
    "doc_ref_num": lambda q, c: c.placeholder_count,
}


def _reference_lookups(slist):
    """(scores, ranks, length) of one query's list; empty if the query has none."""
    if slist is None:
        return {}, {}, 0
    return dict(slist.entries), reference_rank_feature(slist), len(slist)


def reference_assemble(queries, candidates, internal_scores, externals, schema):
    """Build the FeatureTable of every (query, candidate) pair, one cell at a time.

    The candidate pool for each query is the union of that query's entries
    across all internal scorer lists.
    """
    sources = dict(internal_scores)
    for ext in externals:
        if ext.name in sources:
            raise DataError(f"duplicate feature source: {ext.name!r}")
        sources[ext.name] = ext.lists

    def resolve(name, views, cid, qdoc, cdoc):
        meta = _REFERENCE_META_FEATURES.get(name)
        if meta is not None:
            return float(meta(qdoc, cdoc))
        base = name[:-5] if name.endswith("_rank") else name
        scores, ranks, length = views[base]
        return float(scores.get(cid, 0.0) if base == name else ranks.get(cid, length + 1))

    query_ids, candidate_ids, values = [], [], []
    for qid in sorted(queries):
        qdoc = queries[qid]
        views = {name: _reference_lookups(lists.get(qid)) for name, lists in sources.items()}
        for cid in sorted(set().union(*(views[name][0] for name in internal_scores))):
            try:
                cdoc = candidates[cid]
            except KeyError:
                raise DataError(f"candidate {cid!r} has no cleaned document") from None
            values.extend(resolve(n, views, cid, qdoc, cdoc) for n in schema.feature_names)
            query_ids.append(qid)
            candidate_ids.append(cid)
    X = np.array(values, dtype=np.float64).reshape(len(query_ids), len(schema))
    return FeatureTable(schema, query_ids, candidate_ids, X)


def fused(internal, *externals):
    """The score sources, {name: {query_id: ScoredList}}: the lexical lists and the
    external files."""
    return {**internal, **{ext.name: ext.lists for ext in externals}}


def assemble_lists(queries, candidates, lists, pool, schema, qrels=None):
    """``assemble`` of the score sources ``lists``, {name: {query_id: ScoredList}},
    each turned into arrays by the one ``Numbering`` of ``queries`` and ``candidates``."""
    numbering = Numbering(queries, candidates)
    return assemble(numbering, {name: numbering.arrays(source) for name, source in lists.items()},
                    pool, schema, qrels)


def doc(doc_id, length=10, refs=0):
    return CleanDocument(id=doc_id, body="x", placeholder_count=refs, token_length=length)


class TestSchemas:
    def test_builtin_sizes(self):
        assert len(TASK1_SCHEMA) == 14
        assert len(TASK3_SCHEMA) == 9

    def test_task1_names(self):
        assert TASK1_SCHEMA.feature_names == (
            "query_length", "candidate_length", "query_ref_num", "doc_ref_num",
            "BM25", "BM25_rank", "QLD", "QLD_rank", "BM25_ngram", "BM25_ngram_rank",
            "SAILER", "SAILER_rank", "DELTA", "DELTA_rank",
        )

    def test_lookup(self):
        assert get_schema("task3_v1") is TASK3_SCHEMA
        with pytest.raises(SettingError, match="config key 'schema'"):
            get_schema("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema("bad", ("a", "a"))


RANKED = FeatureSchema("ranked", ("BM25", "BM25_rank"))


def ranks_of(entries, pool=()):
    """{candidate: BM25_rank} that ``assemble`` gives one query's BM25 list
    ``entries``; ``pool`` ids, listed by QLD only, add rows the BM25 list lacks."""
    slist = ScoredList("q", entries)
    scores = {"BM25": {"q": slist}, "QLD": {"q": ScoredList("q", [(c, 0.0) for c in pool])}}
    table = assemble_lists({"q": doc("q")}, {c: doc(c) for c in [*slist.doc_ids(), *pool]},
                           scores, ["BM25", "QLD"], RANKED)
    return dict(zip(table.candidate_ids, table.X[:, 1].tolist()))


class TestRankFeature:
    """The ``<source>_rank`` columns ``assemble`` builds."""

    def test_basic(self):
        assert ranks_of([("A", 0.9), ("B", 0.5)]) == {"A": 1, "B": 2}

    def test_absent_doc_policy(self):
        entries = [(f"d{i:03d}", float(100 - i)) for i in range(100)]
        assert ranks_of(entries, pool=["missing"])["missing"] == 101

    def test_ties_already_broken_by_id(self):
        slist = ScoredList.from_scores("q", {"B": 0.5, "A": 0.5})
        assert ranks_of(slist.entries) == {"A": 1, "B": 2}

    def test_bijection_onto_1_to_n(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(0, 20)
            slist = ScoredList.from_scores(
                "q", {f"d{i}": rng.random() for i in range(n)})
            ranks = ranks_of(slist.entries)
            assert sorted(ranks.values()) == list(range(1, n + 1))


def small_setup():
    queries = {"q1": doc("q1", length=50, refs=2)}
    candidates = {"A": doc("A", length=30, refs=1), "B": doc("B", length=20, refs=0)}
    internal = {
        "BM25": {"q1": ScoredList("q1", [("A", 2.0), ("B", 1.0)])},
        "QLD": {"q1": ScoredList("q1", [("B", -1.0), ("A", -2.0)])},
        "BM25_ngram": {"q1": ScoredList("q1", [("A", 3.0), ("B", 2.5)])},
    }
    return queries, candidates, internal


class TestAssemble:
    def test_full_task1_row(self):
        queries, candidates, internal = small_setup()
        sailer = ExternalScoreFile("SAILER", {"q1": ScoredList("q1", [("A", 0.8), ("B", 0.6)])})
        delta = ExternalScoreFile("DELTA", {"q1": ScoredList("q1", [("A", 0.7)])})
        table = assemble_lists(queries, candidates, fused(internal, sailer, delta), internal,
                               TASK1_SCHEMA)
        assert len(table) == 2
        row_a = rows_of(table)[0]
        assert (row_a.query_id, row_a.candidate_id) == ("q1", "A")
        named = dict(zip(TASK1_SCHEMA.feature_names, row_a.values))
        assert named["query_length"] == 50
        assert named["candidate_length"] == 30
        assert named["query_ref_num"] == 2
        assert named["doc_ref_num"] == 1
        assert named["BM25"] == 2.0
        assert named["BM25_rank"] == 1
        assert named["QLD"] == -2.0
        assert named["QLD_rank"] == 2
        assert named["SAILER"] == 0.8
        assert named["SAILER_rank"] == 1
        assert named["DELTA"] == 0.7
        assert named["DELTA_rank"] == 1

    def test_missing_external_pair_policy(self):
        queries, candidates, internal = small_setup()
        delta = ExternalScoreFile("DELTA", {"q1": ScoredList("q1", [("A", 0.7)])})
        sailer = ExternalScoreFile("SAILER", {"q1": ScoredList("q1", [("A", 0.8)])})
        table = assemble_lists(queries, candidates, fused(internal, sailer, delta), internal,
                               TASK1_SCHEMA)
        row_b = rows_of(table)[1]
        named = dict(zip(TASK1_SCHEMA.feature_names, row_b.values))
        # B is absent from both external files: score 0.0, rank len+1 = 2.
        assert named["SAILER"] == 0.0
        assert named["SAILER_rank"] == 2
        assert named["DELTA"] == 0.0
        assert named["DELTA_rank"] == 2

    def test_query_without_candidates_yields_no_rows(self):
        queries = {"q1": doc("q1"), "q2": doc("q2")}
        candidates = {"A": doc("A")}
        internal = {
            "BM25": {"q1": ScoredList("q1", [("A", 1.0)])},
            "QLD": {"q1": ScoredList("q1", [("A", -1.0)])},
            "BM25_ngram": {"q1": ScoredList("q1", [("A", 1.0)])},
        }
        sailer = ExternalScoreFile("SAILER", {})
        delta = ExternalScoreFile("DELTA", {})
        table = assemble_lists(queries, candidates, fused(internal, sailer, delta), internal,
                               TASK1_SCHEMA)
        assert [r.query_id for r in rows_of(table)] == ["q1"]

    def test_pool_is_union_of_scorer_lists(self):
        queries = {"q1": doc("q1")}
        candidates = {"A": doc("A"), "B": doc("B")}
        internal = {
            "BM25": {"q1": ScoredList("q1", [("A", 1.0)])},
            "QLD": {"q1": ScoredList("q1", [("B", -1.0)])},
            "BM25_ngram": {"q1": ScoredList("q1", [])},
        }
        schema = FeatureSchema("mini", ("BM25", "QLD", "BM25_ngram"))
        table = assemble_lists(queries, candidates, internal, internal, schema)
        assert [r.candidate_id for r in rows_of(table)] == ["A", "B"]
        named = dict(zip(schema.feature_names, rows_of(table)[1].values))
        assert named["BM25"] == 0.0  # B missing from the BM25 list

    def test_unresolvable_feature_name(self):
        _, _, internal = small_setup()
        schema = FeatureSchema("odd", ("BM25", "MYSTERY", "MYSTERY_rank", "query_length"))
        with pytest.raises(SettingError, match="^config key 'schema': odd has no source for "
                           "MYSTERY; .*config key 'external_scores'"):
            check_sources(schema, internal)
        check_sources(schema, [*internal, "MYSTERY"])  # every feature has a source

    def test_candidate_order_permutation_invariant(self):
        queries, candidates, internal = small_setup()
        flipped = {
            name: {"q1": ScoredList("q1", lists["q1"].entries)}
            for name, lists in internal.items()
        }
        schema = FeatureSchema("mini", ("BM25", "QLD", "BM25_ngram"))
        t1 = assemble_lists(queries, candidates, internal, internal, schema)
        t2 = assemble_lists(dict(reversed(list(queries.items()))),
                            dict(reversed(list(candidates.items()))), flipped,
                            list(reversed(flipped)), schema)
        assert [(r.query_id, r.candidate_id, r.values) for r in rows_of(t1)] == \
               [(r.query_id, r.candidate_id, r.values) for r in rows_of(t2)]


class TestExternalScoreFile:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "ext.tsv"
        path.write_text("q1\tA\t0.900000\nq1\tB\t0.100000\n")
        ext = ExternalScoreFile.load("SAILER", path)
        # Lookups go through assemble, the one score/rank path.
        queries = {"q1": doc("q1")}
        candidates = {c: doc(c) for c in ("A", "B", "missing")}
        lexical = {"q1": ScoredList("q1", [("A", 3.0), ("B", 2.0), ("missing", 1.0)])}
        schema = FeatureSchema("mini", ("BM25", "SAILER", "SAILER_rank"))
        table = assemble_lists(queries, candidates, {"BM25": lexical, "SAILER": ext.lists},
                               ["BM25"], schema)
        named = {r.candidate_id: dict(zip(schema.feature_names, r.values)) for r in rows_of(table)}
        assert named["A"]["SAILER"] == 0.9
        assert named["B"]["SAILER_rank"] == 2
        assert named["missing"]["SAILER"] == 0.0
        assert named["missing"]["SAILER_rank"] == 3

    def test_malformed_line_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tA\t0.5\nq1\tB\n")
        with pytest.raises(DataError, match=r"bad\.tsv:2"):
            ExternalScoreFile.load("X", path)

    def test_non_numeric_score(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("q1\tA\tnot-a-number\n")
        with pytest.raises(DataError, match=r"bad2\.tsv:1"):
            ExternalScoreFile.load("X", path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("q1\tA\t0.5\nq1\tA\t0.6\n")
        with pytest.raises(DataError, match="duplicate"):
            ExternalScoreFile.load("X", path)


class TestAssembleLabels:
    def make_table(self, qrels):
        queries, candidates, internal = small_setup()
        return assemble_lists(queries, candidates, internal, internal,
                              FeatureSchema("mini", ("BM25",)), qrels)

    def test_basic_labeling(self):
        assert self.make_table({"q1": {"A"}}).labels.tolist() == [1, 0]

    def test_empty_qrels_all_zero(self):
        assert self.make_table({}).labels.tolist() == [0, 0]

    def test_no_qrels_leaves_rows_unlabeled(self):
        assert self.make_table(None).labels.tolist() == [-1, -1]

    def test_unseen_candidate_labels_no_row(self):
        assert self.make_table({"q1": {"A", "GHOST"}, "q9": {"B"}}).labels.tolist() == [1, 0]


class TestFeatureTableTsv:
    def test_round_trip_builtin_schema(self, tmp_path):
        queries, candidates, internal = small_setup()
        sailer = ExternalScoreFile("SAILER", {"q1": ScoredList("q1", [("A", 0.8)])})
        delta = ExternalScoreFile("DELTA", {})
        table = assemble_lists(queries, candidates, fused(internal, sailer, delta), internal,
                               TASK1_SCHEMA, {"q1": {"A"}})
        path = tmp_path / "features.tsv"
        table.to_tsv(path)
        loaded = FeatureTable.from_tsv(path)
        assert loaded.schema.name == "task1_v1"
        assert [r.label for r in rows_of(loaded)] == [1, 0]
        assert rows_of(loaded)[0].values == pytest.approx(rows_of(table)[0].values)

    def test_dumps_are_byte_identical(self, tmp_path):
        queries, candidates, internal = small_setup()
        schema = FeatureSchema("mini", ("BM25", "QLD", "BM25_ngram"))
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assemble_lists(queries, candidates, internal, internal, schema).to_tsv(p1)
        assemble_lists(queries, candidates, internal, internal, schema).to_tsv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_bytes_as_whole_matrix_writer(self, tmp_path):
        rng = random.Random(53)
        values = [-0.0, 0.0, 5e-7, -5e-7, 1.5e-6, 1e300, -1e300, 2.0000005, 1 / 3, 7.0]
        for trial in range(30):
            rows = [FeatureRow(f"q{rng.randrange(5)}", f"c{i:02d}",
                               tuple(rng.choice(values + [rng.gauss(0, 100)]) for _ in range(3)),
                               rng.choice((None, 0, 1)))
                    for i in range(rng.randrange(0, 40))]
            table = table_from_rows(SCHEMA_MIXED, rows)
            table.to_tsv(tmp_path / "got.tsv")
            whole_matrix_to_tsv(table, tmp_path / "want.tsv")
            assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_bad_label_or_value_names_file_and_lineno(self, tmp_path):
        header = "query_id\tcandidate_id\tlabel\tf\n"
        # A blank line: the line is the file's, not the row's. A later row is
        # non-finite too, so the first bad line is the one named.
        for name, row, problem in (
                ("label.tsv", "q1\tA\tyes\t1.0\n", "bad label or feature value"),
                ("value.tsv", "q1\tA\t1\tmany\n", "bad label or feature value"),
                ("nan.tsv", "q1\tA\t1\tnan\n", "non-finite feature value"),
                ("inf.tsv", "q1\tA\t1\t-Infinity\n", "non-finite feature value"),
                ("overflow.tsv", "q1\tA\t1\t1e999\n", "non-finite feature value")):
            path = tmp_path / name
            path.write_text(header + "q0\tB\t0\t2.0\n\n" + row + "q2\tC\t0\tinf\n")
            with pytest.raises(DataError, match=rf"{name.replace('.', '[.]')}:4: {problem}$"):
                FeatureTable.from_tsv(path)

    def test_schema_length_enforced(self):
        schema = FeatureSchema("mini", ("a", "b"))
        with pytest.raises(ValueError, match="shape"):
            table_from_rows(schema, [FeatureRow("q", "c", (1.0,))])

    def test_candidate_ids_and_labels_must_have_one_per_row(self):
        schema = FeatureSchema("m", ("f",))
        for labels in ([], [0, 1]):
            with pytest.raises(ValueError, match=f"^{len(labels)} labels for 1 rows$"):
                FeatureTable(schema, ["q"], ["c"], [[1.0]], labels=labels)
        with pytest.raises(ValueError, match="^2 candidate ids for 1 rows$"):
            FeatureTable(schema, ["q"], ["c", "d"], [[1.0]])

    def test_labels_past_a_byte_and_shared_ids(self, tmp_path):
        # from_tsv keeps labels in one byte each: a wider one is still refused as
        # a label, and each query's block of rows shares one id string.
        path = tmp_path / "features.tsv"
        for label in ("300", "-129", "1" + "0" * 30):
            path.write_text(f"query_id\tcandidate_id\tlabel\tf\nq1\tA\t{label}\t1.0\n")
            with pytest.raises(DataError, match=rf"features\.tsv:2: label must be -1, 0 or 1$"):
                FeatureTable.from_tsv(path)
        path.write_text("query_id\tcandidate_id\tlabel\tf\n"
                        "q1\tA\t1\t1.0\nq1\tB\t0\t2.0\nq2\tA\t-1\t3.0\n")
        table = FeatureTable.from_tsv(path)
        assert table.query_ids[0] is table.query_ids[1]
        assert table.candidate_ids[0] is table.candidate_ids[2]
        assert table.labels.tolist() == [1, 0, -1] and table.X.tolist() == [[1.0], [2.0], [3.0]]

    def test_rows_out_of_order_or_repeated_are_refused(self):
        schema = FeatureSchema("mini", ("f",))
        unordered = "out of (query_id, candidate_id) order"
        for qids, cids, message in (
                (["q2", "q1"], ["A", "A"], f"row 1 (q1, A): {unordered}"),
                (["q1", "q1"], ["B", "A"], f"row 1 (q1, A): {unordered}"),
                (["q1", "q1"], ["A", "A"], "row 1 (q1, A): duplicate candidate 'A' for query 'q1'"),
                (["q1", "q2", "q1"], ["A", "A", "B"], f"row 2 (q1, B): {unordered}")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                FeatureTable(schema, qids, cids, np.zeros((len(qids), 1)))

    def test_blocks_are_the_row_ranges_of_each_query(self):
        schema = FeatureSchema("mini", ("f",))
        table = FeatureTable(schema, ["q0", "q0", "q1", "q2", "q2"], ["A", "B", "A", "A", "C"],
                             np.zeros((5, 1)))
        assert list(table.blocks.items()) == [("q0", (0, 2)), ("q1", (2, 3)), ("q2", (3, 5))]
        assert FeatureTable(schema, [], [], np.zeros((0, 1))).blocks == {}

    def test_bad_header_names_file_and_line_1(self, tmp_path):
        for name, features in (("repeated.tsv", "\tf\tf"), ("none.tsv", "")):
            path = tmp_path / name
            path.write_text(f"query_id\tcandidate_id\tlabel{features}\nq1\tA\t1{features}\n")
            with pytest.raises(DataError, match=rf"{name.replace('.', '[.]')}:1: "):
                FeatureTable.from_tsv(path)

    def test_repeated_or_unordered_pair_names_file_and_line(self, tmp_path):
        unordered = "out of \\(query_id, candidate_id\\) order"
        for name, rows, problem in (
                ("dup.tsv", "q1\tA\t1\t1.0\nq1\tB\t0\t2.0\n\nq1\tB\t0\t3.0\n",
                 "duplicate candidate 'B' for query 'q1'"),
                ("query.tsv", "q1\tA\t1\t1.0\nq2\tA\t0\t2.0\n\nq1\tB\t0\t3.0\n", unordered),
                ("candidate.tsv", "q1\tA\t1\t1.0\nq1\tC\t0\t2.0\n\nq1\tB\t0\t3.0\n",
                 unordered)):
            path = tmp_path / name
            path.write_text("query_id\tcandidate_id\tlabel\tf\n" + rows)
            with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:5: {problem}$"):
                FeatureTable.from_tsv(path)


SCHEMA_MIXED = FeatureSchema("mixed", ("tied", "wide", "fine"))


def random_rows(rng, labels=(None, 0, 1, 1)):
    """Unsorted reference rows with tied values; ``labels`` are drawn per row."""
    pairs = {(f"q{rng.randrange(6)}", f"c{rng.randrange(15):02d}")
             for _ in range(rng.randrange(0, 60))}
    rows = [
        FeatureRow(qid, cid, (
            float(rng.randrange(3)),
            rng.choice([0.0, -2.25, 1 / 3, 123456.789012345, 0.0000004, rng.gauss(0, 1)]),
            round(rng.random(), 1),
        ), rng.choice(labels))
        for qid, cid in sorted(pairs)
    ]
    rng.shuffle(rows)
    return rows


def random_model(rng):
    """A small ensemble whose thresholds sit on and between the tied values."""
    trees = []
    for _ in range(rng.randrange(0, 4)):
        feature = [rng.randrange(len(SCHEMA_MIXED)), -1, -1]
        threshold = [rng.choice([0.0, 0.5, 1.0, 0.3]), 0.0, 0.0]
        value = [0.0, rng.choice([-1.0, 0.25]), rng.choice([2.0, 0.25])]
        trees.append(ltr.RegressionTree(feature, threshold, [1, -1, -1], [2, -1, -1], value))
    return ltr.TreeEnsemble(trees=trees, base_score=rng.choice([0.0, 0.5]),
                            schema_name=SCHEMA_MIXED.name,
                            feature_names=SCHEMA_MIXED.feature_names)


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of the DataError or ValueError it raises."""
    try:
        return fn(*args)
    except (DataError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestColumnarMatchesRowReference:
    """The columnar FeatureTable and its readers against the row-based reference."""

    def cases(self, **kwargs):
        yield []
        for seed in range(40):
            yield random_rows(random.Random(seed), **kwargs)

    def assert_same(self, table, ref):
        assert table.query_ids == [r.query_id for r in ref.rows]
        assert table.candidate_ids == [r.candidate_id for r in ref.rows]
        assert table.X.shape == (len(ref.rows), len(ref.schema))
        assert table.X.tolist() == [list(r.values) for r in ref.rows]
        assert table.labels.tolist() == [-1 if r.label is None else r.label for r in ref.rows]

    def test_tables_and_tsv_bytes_match(self, tmp_path):
        for i, rows in enumerate(self.cases()):
            table, ref = table_from_rows(SCHEMA_MIXED, rows), RowTable(SCHEMA_MIXED, rows)
            self.assert_same(table, ref)
            got, want = tmp_path / f"got{i}.tsv", tmp_path / f"want{i}.tsv"
            table.to_tsv(got)
            ref.to_tsv(want)
            assert got.read_bytes() == want.read_bytes()
            loaded = FeatureTable.from_tsv(got)
            self.assert_same(loaded, RowTable.from_tsv(want))
            loaded.to_tsv(got)
            assert got.read_bytes() == want.read_bytes()

    def test_blocks_and_training_checks_match(self):
        refused = accepted = 0
        for labels in ((0, 1), (None, 0, 1, 1, 1, 1), (0, 1, 1, 2)):
            for rows in self.cases(labels=labels):
                if rows and random.Random(len(rows)).random() < 0.3:
                    rows[len(rows) // 2].values = (math.nan, 1.0, math.inf)
                want = outcome(row_table_arrays, RowTable(SCHEMA_MIXED, rows))
                table = outcome(table_from_rows, SCHEMA_MIXED, rows)
                if isinstance(table, FeatureTable) and (table.labels < 0).any():
                    table = outcome(ltr.train, table)  # refused before any training
                if isinstance(want, str):
                    assert table == want
                    refused += 1
                    continue
                X, y, groups, qids = want
                assert table.X.shape == X.shape and np.array_equal(table.X, X)
                assert np.array_equal(table.labels, y)
                assert list(table.blocks.items()) == list(zip(qids, groups))
                accepted += 1
        assert refused > 20 and accepted > 20  # both outcomes are exercised

    def test_predict_matches_two_pass_reference_bit_for_bit(self):
        # The reference scores each row, sorts each query's dict of scores
        # and normalizes each list in a second pass.
        rng = random.Random(5)
        tied = constant = 0
        for rows in self.cases():
            model = random_model(rng)
            got = ltr.predict(model, table_from_rows(SCHEMA_MIXED, rows))
            want = reference_normalize(row_predict(model, RowTable(SCHEMA_MIXED, rows)))
            assert list(got) == list(want)
            for qid, slist in want.items():
                hexed = [(doc_id, score.hex()) for doc_id, score in slist.entries]
                assert [(doc_id, score.hex()) for doc_id, score in got[qid].entries] == hexed
                scores = [score for _, score in slist.entries]
                constant += len(scores) > 1 and set(scores) == {1.0}
                tied += 1 < len(set(scores)) < len(scores)
        assert tied > 10 and constant > 10  # both tie cases are exercised

    def test_labels_match_qrels(self):
        for seed in range(40):
            queries, candidates, internal, _, _ = random_assembly(random.Random(seed))
            schema = FeatureSchema("ranks", ("L1_rank", "L2_rank"))  # always finite
            rng = random.Random(seed)
            qrels = {qid: {rng.choice(sorted(candidates)), "ghost"} for qid in queries}
            unlabeled = assemble_lists(queries, candidates, internal, ["L1", "L2"], schema)
            labeled = assemble_lists(queries, candidates, internal, ["L1", "L2"], schema, qrels)
            assert labeled.query_ids == unlabeled.query_ids
            assert labeled.candidate_ids == unlabeled.candidate_ids
            assert labeled.X.tobytes() == unlabeled.X.tobytes()
            assert unlabeled.labels.tolist() == [-1] * len(unlabeled)
            assert labeled.labels.tolist() == [
                1 if cid in qrels.get(qid, ()) else 0
                for qid, cid in zip(labeled.query_ids, labeled.candidate_ids)]


ASSEMBLY_FEATURES = ("query_length", "candidate_length", "article_length", "query_ref_num",
                     "doc_ref_num", "L1", "L1_rank", "L2", "L2_rank", "E1", "E1_rank")


def random_assembly(rng):
    """Random ``reference_assemble`` inputs: two pool sources L1 and L2 and one
    external file E1, with tied scores, missing pairs, empty lists, queries
    without any list and (rarely) NaN or infinite scores and document counts."""
    def count():
        return rng.choice([math.nan, math.inf]) if rng.random() < 0.03 else rng.randrange(5)

    def score():
        if rng.random() < 0.03:
            return rng.choice([math.nan, math.inf, -math.inf])
        return rng.choice([0.0, 0.5, -1.25, 1 / 3, rng.gauss(0, 1)])

    cids = [f"c{i:02d}" for i in range(rng.randrange(1, 12))]
    queries = {f"q{i}": CleanDocument(id=f"q{i}", body="x", placeholder_count=count(),
                                      token_length=count())
               for i in range(rng.randrange(0, 6))}
    candidates = {cid: CleanDocument(id=cid, body="x", placeholder_count=count(),
                                     token_length=count()) for cid in cids}

    def lists():
        out = {}
        for qid in queries:
            if rng.random() < 0.25:
                continue  # no list for this query
            docs = rng.sample(cids, rng.randrange(0, len(cids) + 1))
            out[qid] = ScoredList.from_scores(qid, {d: score() for d in docs})
        return out

    internal = {"L1": lists(), "L2": lists()}
    names = rng.sample(ASSEMBLY_FEATURES, rng.randrange(1, len(ASSEMBLY_FEATURES) + 1))
    return queries, candidates, internal, ExternalScoreFile("E1", lists()), \
        FeatureSchema("random", tuple(names))


def assembled(fn, *args):
    """(ids, X shape, X bytes) of the table ``fn(*args)`` builds, or its error."""
    table = outcome(fn, *args)
    if isinstance(table, str):
        return table
    return table.query_ids, table.candidate_ids, table.X.shape, table.X.tobytes()


def inject_defect(rng, rows, kind):
    """Break one table rule in the sorted, valid ``rows``; return the index of the
    row that breaks it and the problem the table names."""
    i = rng.randrange(1 if kind in ("repeat", "unordered") else 0, len(rows))
    row = rows[i]
    if kind == "repeat":
        before = rows[i - 1]
        rows.insert(i, FeatureRow(before.query_id, before.candidate_id, row.values, row.label))
        return i, f"duplicate candidate {before.candidate_id!r} for query {before.query_id!r}"
    if kind == "unordered":
        rows[i - 1], rows[i] = row, rows[i - 1]
        return i, "out of (query_id, candidate_id) order"
    if kind == "label":
        row.label = rng.choice((2, -2))
        return i, "label must be -1, 0 or 1"
    values = list(row.values)
    values[rng.randrange(len(values))] = rng.choice((math.nan, math.inf, -math.inf))
    row.values = tuple(values)
    return i, "non-finite feature value"


class TestOneRowRule:
    """The constructor and ``from_tsv`` refuse the same row for the same problem."""

    def test_constructor_and_reader_name_the_injected_row(self, tmp_path):
        rng = random.Random(28)
        seen = dict.fromkeys((None, "repeat", "unordered", "label", "value"), 0)
        path = tmp_path / "features.tsv"
        for _ in range(300):
            rows = sorted(random_rows(rng, labels=(None, 0, 1)),
                          key=lambda r: (r.query_id, r.candidate_id))
            kind = rng.choice(list(seen)) if len(rows) > 1 else None
            bad = inject_defect(rng, rows, kind) if kind else None
            seen[kind] += 1
            qids = [r.query_id for r in rows]
            cids = [r.candidate_id for r in rows]
            X = np.array([r.values for r in rows], dtype=np.float64).reshape(len(rows), 3)
            labels = [-1 if r.label is None else r.label for r in rows]
            lines = ["query_id\tcandidate_id\tlabel\t" + "\t".join(SCHEMA_MIXED.feature_names)]
            linenos = []  # the file line of each row; blank lines fall in between
            for qid, cid, label, values in zip(qids, cids, labels, X.tolist()):
                while rng.random() < 0.2:
                    lines.append("")
                lines.append("\t".join([qid, cid, str(label), *map(repr, values)]))
                linenos.append(len(lines))
            path.write_text("\n".join(lines) + "\n")
            if bad is None:
                loaded = FeatureTable.from_tsv(path)
                assert (loaded.query_ids, loaded.candidate_ids) == (qids, cids)
                assert loaded.X.tolist() == X.tolist()
                assert loaded.labels.tolist() == labels
                FeatureTable(SCHEMA_MIXED, qids, cids, X, labels)
                continue
            i, problem = bad
            message = f"row {i} ({qids[i]}, {cids[i]}): {problem}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                FeatureTable(SCHEMA_MIXED, qids, cids, X, labels)
            message = f"{path}:{linenos[i]}: {problem}"
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                FeatureTable.from_tsv(path)
        assert min(seen.values()) > 30, seen  # every defect and the valid tables occur


class TestAssembleMatchesPerCellReference:
    def test_tables_or_errors_match(self):
        errors = 0
        for seed in range(300):
            queries, candidates, internal, external, schema = random_assembly(
                random.Random(seed))
            want = assembled(reference_assemble, queries, candidates, internal, [external],
                             schema)
            got = assembled(assemble_lists, queries, candidates, fused(internal, external),
                            ["L1", "L2"], schema)
            assert got == want, seed
            errors += isinstance(want, str)
        assert 20 < errors < 280  # both outcomes are exercised

    def test_error_names_the_first_pair(self):
        queries, candidates, internal = small_setup()
        # Row A's last cell and row B's first: the first bad row is A's. The table
        # refuses it, as it refuses any non-finite value given in memory.
        internal["BM25"]["q1"] = ScoredList("q1", [("A", 2.0), ("B", math.inf)])
        internal["QLD"]["q1"] = ScoredList("q1", [("B", -1.0), ("A", math.nan)])
        schema = FeatureSchema("mini", ("BM25", "QLD_rank", "QLD"))
        with pytest.raises(ValueError, match=r"^row 0 \(q1, A\): non-finite feature value$"):
            assemble_lists(queries, candidates, internal, internal, schema)


EDGE_SCHEMA = FeatureSchema("edges", ("query_length", "candidate_length", "L1", "L1_rank",
                                       "L2", "L2_rank", "E1", "E1_rank"))


def random_edge_assembly(rng):
    """Random ``reference_assemble`` inputs whose lists reach past the table: every
    source has lists of queries that are not configured, and the external file E1
    lists ids that are not candidates, ranked among the candidates."""
    qids = [f"q{i}" for i in range(rng.randrange(1, 7))]
    cids = [f"c{i:02d}" for i in range(rng.randrange(1, 10))]
    strangers = rng.sample(["a0", "c05x", "d1", "zz"], rng.randrange(1, 5))
    queries = {qid: doc(qid, length=rng.randrange(9), refs=rng.randrange(3))
               for qid in rng.sample(qids, rng.randrange(0, len(qids) + 1))}
    candidates = {cid: doc(cid, length=rng.randrange(9)) for cid in cids}

    def lists(ids):
        out = {}
        for qid in qids:
            if rng.random() < 0.2:
                continue  # no list for this query
            docs = rng.sample(ids, rng.randrange(0, len(ids) + 1))
            out[qid] = ScoredList.from_scores(
                qid, {d: rng.choice([0.0, 0.5, -1.25, rng.gauss(0, 1)]) for d in docs})
        return out

    internal = {"L1": lists(cids), "L2": lists(cids)}
    return queries, candidates, internal, ExternalScoreFile("E1", lists(cids + strangers))


class TestAssembleEdgesMatchPerCellReference:
    def test_unknown_ids_and_unconfigured_queries(self):
        outranked = unconfigured = 0
        for seed in range(200):
            queries, candidates, internal, external = random_edge_assembly(random.Random(seed))
            want = assembled(reference_assemble, queries, candidates, internal, [external],
                             EDGE_SCHEMA)
            got = assembled(assemble_lists, queries, candidates, fused(internal, external),
                            ["L1", "L2"], EDGE_SCHEMA)
            assert got == want, seed
            for qid, slist in external.lists.items():
                ids = slist.doc_ids()
                unconfigured += qid not in queries
                # A stranger listed above a candidate moves that candidate's rank.
                outranked += (qid in queries and bool(ids) and ids[-1] in candidates
                              and any(doc_id not in candidates for doc_id in ids))
        assert outranked > 50 and unconfigured > 50  # both edges are exercised


class TestSelect:
    def test_keeps_the_rows_of_the_chosen_queries_in_table_order(self):
        rows = random_rows(random.Random(3))
        table = table_from_rows(SCHEMA_MIXED, rows)
        for chosen in (set(), {"q1"}, set(table.query_ids), {"q0", "q2", "absent"}):
            got = table.select(chosen)
            want = table_from_rows(SCHEMA_MIXED, [r for r in rows if r.query_id in chosen])
            assert (got.schema, got.query_ids, got.candidate_ids) == (
                want.schema, want.query_ids, want.candidate_ids)
            assert got.X.shape == want.X.shape and got.X.tolist() == want.X.tolist()
            assert got.labels.tolist() == want.labels.tolist()
