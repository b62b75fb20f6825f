import random

import pytest

from lexfuse.evaluation import ScoredList
from lexfuse.features import (
    TASK1_SCHEMA,
    TASK3_SCHEMA,
    AssemblyError,
    ExternalScoreError,
    ExternalScoreFile,
    FeatureRow,
    FeatureSchema,
    FeatureTable,
    assemble,
    attach_labels,
    get_schema,
    rank_feature,
)
from lexfuse.ingest import CleanDocument


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
        with pytest.raises(AssemblyError):
            get_schema("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema("bad", ("a", "a"))


class TestRankFeature:
    def test_basic(self):
        assert rank_feature(ScoredList("q", [("A", 0.9), ("B", 0.5)])) == {"A": 1, "B": 2}

    def test_absent_doc_policy(self):
        entries = [(f"d{i:03d}", float(100 - i)) for i in range(100)]
        ranks = rank_feature(ScoredList("q", entries))
        assert ranks.get("missing", len(entries) + 1) == 101

    def test_ties_already_broken_by_id(self):
        slist = ScoredList.from_scores("q", {"B": 0.5, "A": 0.5})
        assert rank_feature(slist) == {"A": 1, "B": 2}

    def test_bijection_onto_1_to_n(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(0, 20)
            slist = ScoredList.from_scores(
                "q", {f"d{i}": rng.random() for i in range(n)})
            ranks = rank_feature(slist)
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
        table = assemble(queries, candidates, internal, [sailer, delta], TASK1_SCHEMA)
        assert len(table) == 2
        row_a = table.rows[0]
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
        table = assemble(queries, candidates, internal, [sailer, delta], TASK1_SCHEMA)
        row_b = table.rows[1]
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
        table = assemble(queries, candidates, internal, [sailer, delta], TASK1_SCHEMA)
        assert [r.query_id for r in table.rows] == ["q1"]

    def test_pool_is_union_of_scorer_lists(self):
        queries = {"q1": doc("q1")}
        candidates = {"A": doc("A"), "B": doc("B")}
        internal = {
            "BM25": {"q1": ScoredList("q1", [("A", 1.0)])},
            "QLD": {"q1": ScoredList("q1", [("B", -1.0)])},
            "BM25_ngram": {"q1": ScoredList("q1", [])},
        }
        schema = FeatureSchema("mini", ("BM25", "QLD", "BM25_ngram"))
        table = assemble(queries, candidates, internal, [], schema)
        assert [r.candidate_id for r in table.rows] == ["A", "B"]
        named = dict(zip(schema.feature_names, table.rows[1].values))
        assert named["BM25"] == 0.0  # B missing from the BM25 list

    def test_unresolvable_feature_name(self):
        queries, candidates, internal = small_setup()
        schema = FeatureSchema("odd", ("BM25", "MYSTERY"))
        with pytest.raises(AssemblyError, match="MYSTERY"):
            assemble(queries, candidates, internal, [], schema)

    def test_candidate_order_permutation_invariant(self):
        queries, candidates, internal = small_setup()
        flipped = {
            name: {"q1": ScoredList("q1", lists["q1"].entries)}
            for name, lists in internal.items()
        }
        schema = FeatureSchema("mini", ("BM25", "QLD", "BM25_ngram"))
        t1 = assemble(queries, candidates, internal, [], schema)
        t2 = assemble(dict(reversed(list(queries.items()))),
                      dict(reversed(list(candidates.items()))), flipped, [], schema)
        assert [(r.query_id, r.candidate_id, r.values) for r in t1.rows] == \
               [(r.query_id, r.candidate_id, r.values) for r in t2.rows]


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
        table = assemble(queries, candidates, {"BM25": lexical}, [ext], schema)
        named = {r.candidate_id: dict(zip(schema.feature_names, r.values)) for r in table.rows}
        assert named["A"]["SAILER"] == 0.9
        assert named["B"]["SAILER_rank"] == 2
        assert named["missing"]["SAILER"] == 0.0
        assert named["missing"]["SAILER_rank"] == 3

    def test_malformed_line_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tA\t0.5\nq1\tB\n")
        with pytest.raises(ExternalScoreError, match=r"bad\.tsv:2"):
            ExternalScoreFile.load("X", path)

    def test_non_numeric_score(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("q1\tA\tnot-a-number\n")
        with pytest.raises(ExternalScoreError, match=r"bad2\.tsv:1"):
            ExternalScoreFile.load("X", path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("q1\tA\t0.5\nq1\tA\t0.6\n")
        with pytest.raises(ExternalScoreError, match="duplicate"):
            ExternalScoreFile.load("X", path)


class TestAttachLabels:
    def make_table(self):
        schema = FeatureSchema("mini", ("f",))
        rows = [
            FeatureRow("q1", "A", (1.0,)),
            FeatureRow("q1", "B", (2.0,)),
        ]
        return FeatureTable(schema, rows)

    def test_basic_labeling(self):
        table, unseen = attach_labels(self.make_table(), {"q1": {"A"}})
        assert [r.label for r in table.rows] == [1, 0]
        assert unseen == 0

    def test_empty_qrels_all_zero(self):
        table, unseen = attach_labels(self.make_table(), {})
        assert [r.label for r in table.rows] == [0, 0]
        assert unseen == 0

    def test_unseen_candidate_counted(self):
        # Set-difference oracle: {(q1, GHOST)} minus table pairs has size 1.
        table, unseen = attach_labels(self.make_table(), {"q1": {"A", "GHOST"}})
        assert unseen == 1
        assert [r.label for r in table.rows] == [1, 0]


class TestFeatureTableTsv:
    def test_round_trip_builtin_schema(self, tmp_path):
        queries, candidates, internal = small_setup()
        sailer = ExternalScoreFile("SAILER", {"q1": ScoredList("q1", [("A", 0.8)])})
        delta = ExternalScoreFile("DELTA", {})
        table = assemble(queries, candidates, internal, [sailer, delta], TASK1_SCHEMA)
        table, _ = attach_labels(table, {"q1": {"A"}})
        path = tmp_path / "features.tsv"
        table.to_tsv(path)
        loaded = FeatureTable.from_tsv(path)
        assert loaded.schema.name == "task1_v1"
        assert [r.label for r in loaded.rows] == [1, 0]
        assert loaded.rows[0].values == pytest.approx(table.rows[0].values)

    def test_dumps_are_byte_identical(self, tmp_path):
        queries, candidates, internal = small_setup()
        schema = FeatureSchema("mini", ("BM25", "QLD", "BM25_ngram"))
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assemble(queries, candidates, internal, [], schema).to_tsv(p1)
        assemble(queries, candidates, internal, [], schema).to_tsv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_label_or_value_names_file_and_lineno(self, tmp_path):
        header = "query_id\tcandidate_id\tlabel\tf\n"
        for name, row in (("label.tsv", "q1\tA\tyes\t1.0\n"),
                          ("value.tsv", "q1\tA\t1\tmany\n")):
            path = tmp_path / name
            path.write_text(header + "q1\tB\t0\t2.0\n" + row)
            with pytest.raises(ExternalScoreError, match=rf"{name.replace('.', '[.]')}:3"):
                FeatureTable.from_tsv(path)

    def test_schema_length_enforced(self):
        schema = FeatureSchema("mini", ("a", "b"))
        with pytest.raises(AssemblyError):
            FeatureTable(schema, [FeatureRow("q", "c", (1.0,))])
