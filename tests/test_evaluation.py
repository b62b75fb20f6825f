import importlib
import inspect
import json
import pkgutil
import random

import pytest

import lexfuse
from lexfuse import cli
from lexfuse.evaluation import (
    MetricReport,
    ScoredList,
    SettingError,
    load_qrels,
    macro_prf2,
    mean_average_precision,
    micro_prf1,
    read_run_file,
    recall_at_k,
    write_qrels,
    write_report,
    write_run_file,
)


def runs_from(lists):
    return {qid: ScoredList(qid, entries) for qid, entries in lists.items()}


class TestMicroPrf1:
    def test_worked_example(self):
        # q1 retrieved {A,B} vs relevant {A,C}; q2 retrieved {D} vs {D}.
        # Pooled counts: TP=2, FP=1, FN=1.
        runs = runs_from({"q1": [("A", 2.0), ("B", 1.0)], "q2": [("D", 1.0)]})
        qrels = {"q1": {"A", "C"}, "q2": {"D"}}
        report = micro_prf1(runs, qrels)
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert round(report.precision, 4) == 0.6667
        assert round(report.recall, 4) == 0.6667
        assert round(report.f_measure, 4) == 0.6667

    def test_perfect_retrieval(self):
        runs = runs_from({"q1": [("A", 1.0)]})
        report = micro_prf1(runs, {"q1": {"A"}})
        assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)

    def test_empty_run_zero_convention(self):
        report = micro_prf1({}, {"q1": {"A"}})
        assert (report.precision, report.recall, report.f_measure) == (0.0, 0.0, 0.0)
        assert "precision" in report.zero_division

    def test_set_based_order_invariance(self):
        qrels = {"q1": {"A", "B"}}
        fwd = runs_from({"q1": [("A", 2.0), ("B", 1.0), ("C", 0.5)]})
        rev = runs_from({"q1": [("C", 2.0), ("B", 1.0), ("A", 0.5)]})
        assert micro_prf1(fwd, qrels).f_measure == micro_prf1(rev, qrels).f_measure

    def test_partition_additivity(self):
        rng = random.Random(3)
        runs = {}
        qrels = {}
        for i in range(20):
            qid = f"q{i:02d}"
            docs = [f"d{j}" for j in range(rng.randrange(1, 8))]
            runs[qid] = ScoredList(qid, [(d, float(10 - k)) for k, d in enumerate(docs)])
            qrels[qid] = {f"d{j}" for j in range(rng.randrange(0, 6))}
        full = micro_prf1(runs, qrels)
        half_a = {q: runs[q] for q in list(runs)[:10]}
        half_b = {q: runs[q] for q in list(runs)[10:]}
        qrels_a = {q: qrels[q] for q in half_a}
        qrels_b = {q: qrels[q] for q in half_b}
        ra, rb = micro_prf1(half_a, qrels_a), micro_prf1(half_b, qrels_b)
        assert (full.tp, full.fp, full.fn) == (
            ra.tp + rb.tp, ra.fp + rb.fp, ra.fn + rb.fn)


class TestMacroPrf2:
    def test_worked_example_equal_pr(self):
        # q1 perfect; q2 P=R=0.5 -> averages P=R=0.75 -> F2 = 0.75.
        runs = runs_from({
            "q1": [("A", 1.0)],
            "q2": [("B", 2.0), ("X", 1.0)],
        })
        qrels = {"q1": {"A"}, "q2": {"B", "C"}}
        report = macro_prf2(runs, qrels)
        assert round(report.precision, 4) == 0.75
        assert round(report.recall, 4) == 0.75
        assert round(report.f_measure, 4) == 0.75

    def test_worked_example_unequal_pr(self):
        # Construct macro P=0.5, R=1.0: F2 = 5*0.5*1/(4*0.5+1) = 0.8333.
        runs = runs_from({"q1": [("A", 2.0), ("X", 1.0)]})
        qrels = {"q1": {"A"}}
        report = macro_prf2(runs, qrels)
        assert report.precision == 0.5
        assert report.recall == 1.0
        assert round(report.f_measure, 4) == 0.8333

    def test_all_perfect(self):
        runs = runs_from({"q1": [("A", 1.0)], "q2": [("B", 1.0)]})
        report = macro_prf2(runs, {"q1": {"A"}, "q2": {"B"}})
        assert report.f_measure == 1.0

    def test_query_with_empty_retrieval_counts_zero_precision(self):
        runs = runs_from({"q1": [("A", 1.0)], "q2": []})
        report = macro_prf2(runs, {"q1": {"A"}, "q2": {"B"}})
        assert report.precision == 0.5

    def test_f2_favors_recall(self):
        # F2 >= F1 whenever R >= P (holds algebraically; checked on samples).
        rng = random.Random(5)
        for _ in range(200):
            p = rng.uniform(0.01, 1.0)
            r = rng.uniform(p, 1.0)
            f1 = 2 * p * r / (p + r)
            f2 = 5 * p * r / (4 * p + r)
            assert f2 >= f1 - 1e-12


class TestAddingNonRelevant:
    def test_never_raises_precision(self):
        rng = random.Random(6)
        for _ in range(100):
            n_docs = rng.randrange(1, 6)
            entries = [(f"d{i}", float(10 - i)) for i in range(n_docs)]
            qrels = {"q": {f"d{i}" for i in range(n_docs) if rng.random() < 0.5}}
            base = runs_from({"q": entries})
            extended = runs_from({"q": entries + [("junk", 0.1)]})
            for metric in (micro_prf1, macro_prf2):
                before = metric(base, qrels)
                after = metric(extended, qrels)
                assert after.precision <= before.precision + 1e-12
                assert after.recall >= before.recall - 1e-12


class TestMap:
    def test_relevant_at_rank_one(self):
        runs = runs_from({"q": [("A", 1.0)]})
        assert mean_average_precision(runs, {"q": {"A"}}) == 1.0

    def test_relevant_at_rank_two(self):
        runs = runs_from({"q": [("X", 2.0), ("A", 1.0)]})
        assert mean_average_precision(runs, {"q": {"A"}}) == 0.5

    def test_no_relevant_retrieved(self):
        runs = runs_from({"q": [("X", 1.0)]})
        assert mean_average_precision(runs, {"q": {"A"}}) == 0.0

    def test_missing_relevant_contributes_zero(self):
        runs = runs_from({"q": [("A", 2.0)]})
        # AP = (1/1) / 2 relevant docs = 0.5.
        assert mean_average_precision(runs, {"q": {"A", "B"}}) == 0.5


class TestRecallAtK:
    def test_all_in_top_5(self):
        runs = runs_from({"q": [(f"d{i}", float(9 - i)) for i in range(9)]})
        assert recall_at_k(runs, {"q": {"d0", "d1"}}, 5) == 1.0

    def test_half_recalled(self):
        runs = runs_from({"q": [("A", 3.0), ("X", 2.0), ("Y", 1.0)]})
        assert recall_at_k(runs, {"q": {"A", "B"}}, 2) == 0.5

    def test_k_beyond_list(self):
        runs = runs_from({"q": [("A", 1.0)]})
        assert recall_at_k(runs, {"q": {"A"}}, 30) == 1.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            recall_at_k({}, {}, 0)



# -- reference: the four metrics as they were written before they shared one walk --

def reference_universe(runs, qrels):
    return sorted(set(runs) | set(qrels))


def reference_retrieved(runs, qid):
    slist = runs.get(qid)
    return [] if slist is None else slist.doc_ids()


def reference_micro_prf1(runs, qrels):
    tp = fp = fn = 0
    per_query = {}
    for qid in reference_universe(runs, qrels):
        retrieved = set(reference_retrieved(runs, qid))
        relevant = set(qrels.get(qid, ()))
        q_tp = len(retrieved & relevant)
        q_fp = len(retrieved - relevant)
        q_fn = len(relevant - retrieved)
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


def reference_macro_prf2(runs, qrels):
    precisions = []
    recalls = []
    per_query = {}
    for qid in reference_universe(runs, qrels):
        retrieved = reference_retrieved(runs, qid)
        relevant = set(qrels.get(qid, ()))
        correct = len(set(retrieved) & relevant)
        q_p = correct / len(retrieved) if retrieved else 0.0
        q_r = correct / len(relevant) if relevant else 0.0
        precisions.append(q_p)
        recalls.append(q_r)
        per_query[qid] = {"precision": q_p, "recall": q_r}
    flags = []
    if precisions:
        precision = sum(precisions) / len(precisions)
        recall = sum(recalls) / len(recalls)
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


def reference_mean_average_precision(runs, qrels):
    ap_values = []
    for qid in sorted(qrels):
        relevant = set(qrels[qid])
        if not relevant:
            continue
        hits = 0
        precision_sum = 0.0
        for rank, doc_id in enumerate(reference_retrieved(runs, qid), 1):
            if doc_id in relevant:
                hits += 1
                precision_sum += hits / rank
        ap_values.append(precision_sum / len(relevant))
    return sum(ap_values) / len(ap_values) if ap_values else 0.0


def reference_recall_at_k(runs, qrels, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    values = []
    for qid in sorted(qrels):
        relevant = set(qrels[qid])
        if not relevant:
            continue
        top = set(reference_retrieved(runs, qid)[:k])
        values.append(len(top & relevant) / len(relevant))
    return sum(values) / len(values) if values else 0.0


def random_judgements(rng):
    """Seeded runs and qrels: distinct ids per list, empty runs and relevant lists, and
    queries that only the runs or only the qrels hold."""
    docs = [f"d{i:02d}" for i in range(rng.randrange(1, 60))]
    runs, qrels = {}, {}
    for i in range(rng.randrange(0, 12)):
        qid = f"q{rng.randrange(100):02d}"
        where = rng.choice(("both", "both", "runs", "qrels"))
        if where != "qrels":
            ranked = rng.sample(docs, rng.randrange(0, min(len(docs), 45) + 1))
            runs[qid] = ScoredList(qid, [(d, float(len(ranked) - r)) for r, d in enumerate(ranked)])
        if where != "runs":
            qrels[qid] = set(rng.sample(docs, rng.randrange(0, min(len(docs), 8) + 1)))
    return runs, qrels


class TestMetricsMatchReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_field_equals_the_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            runs, qrels = random_judgements(rng)
            assert micro_prf1(runs, qrels) == reference_micro_prf1(runs, qrels)
            assert macro_prf2(runs, qrels) == reference_macro_prf2(runs, qrels)
            assert (mean_average_precision(runs, qrels)
                    == reference_mean_average_precision(runs, qrels))
            for k in range(1, 41):
                assert recall_at_k(runs, qrels, k) == reference_recall_at_k(runs, qrels, k)


def test_only_the_two_error_classes_are_defined():
    # One class per error exit code: SettingError exits 1, DataError 2, anything else 3.
    modules = [lexfuse] + [importlib.import_module(f"lexfuse.{info.name}")
                           for info in pkgutil.iter_modules(lexfuse.__path__)]
    defined = {name for module in modules
               for name, obj in inspect.getmembers(module, inspect.isclass)
               if issubclass(obj, BaseException) and obj.__module__ == module.__name__}
    assert defined == {"SettingError", "DataError"}


class TestSettingNumber:
    """The number check every numeric row of ``cli.SETTINGS`` applies."""

    @pytest.mark.parametrize("value, kind, want", [
        (3, int, 3), (3.0, int, 3), (10**17 + 1, int, 10**17 + 1),
        (2, float, 2.0), (0.75, float, 0.75), (-0.5, float, -0.5),
    ])
    def test_numbers_convert_exactly(self, value, kind, want):
        got = cli._number("config key 'k'", value, kind)
        assert got == want and type(got) is kind

    @pytest.mark.parametrize("value, kind, problem", [
        ("x", float, "a number"), ("0.5", float, "a number"), (None, float, "a number"),
        (True, int, "a number"), ([1], int, "a number"), (float("nan"), float, "finite"),
        (float("inf"), int, "finite"), (10**400, float, "finite"),
        (2.5, int, "an integer"), (1e-9, int, "an integer"),
    ])
    def test_other_values_name_the_setting(self, value, kind, problem):
        with pytest.raises(SettingError, match=f"^config key 'k': must be {problem}, got "):
            cli._number("config key 'k'", value, kind)


class TestFileFormats:
    def test_run_file_round_trip(self, tmp_path):
        runs = runs_from({
            "q1": [("A", 1.5), ("B", 0.25)],
            "q0": [("C", 9.0)],
        })
        path = tmp_path / "run.tsv"
        write_run_file(runs, path, tag="testrun")
        lines = path.read_text().splitlines()
        assert lines[0] == "q0\tC\t1\t9.000000\ttestrun"
        loaded = read_run_file(path)
        assert loaded["q1"].entries == [("A", 1.5), ("B", 0.25)]

    def test_run_file_duplicate_candidate_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tA\t1\t1.000000\tx\nq1\tA\t2\t0.500000\tx\n")
        with pytest.raises(ValueError, match="duplicate candidate"):
            read_run_file(path)

    def test_run_file_duplicate_reports_second_occurrence_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "q1\tA\t1\t1.000000\tx\n"
            "q2\tA\t1\t1.000000\tx\n"
            "q1\tB\t2\t0.700000\tx\n"
            "q1\tA\t3\t0.500000\tx\n"
        )
        with pytest.raises(ValueError, match=r"bad\.tsv:4: duplicate candidate 'A' for query 'q1'"):
            read_run_file(path)

    def test_run_file_bad_score_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tA\t1\t1.000000\tx\nq1\tB\t2\tabc\tx\n")
        with pytest.raises(ValueError, match=r"bad\.tsv:2: bad score 'abc'"):
            read_run_file(path)

    def test_run_file_wrong_field_count_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tA\t1\t1.000000\tx\nq1\tB\t0.5\n")
        with pytest.raises(ValueError, match=r"bad\.tsv:2: expected 5 tab-separated fields"):
            read_run_file(path)

    def test_run_file_keeps_file_order(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1\tB\t1\t0.500000\tx\nq1\tA\t2\t0.900000\tx\n")
        assert read_run_file(path)["q1"].entries == [("B", 0.5), ("A", 0.9)]

    @pytest.mark.parametrize("text", ['{"q1": 5}', '["q1"]', '{"q1": [1]}', '{"q1": ["A",'])
    def test_malformed_qrels_name_the_file(self, tmp_path, text):
        path = tmp_path / "qrels.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"qrels\.json"):
            load_qrels(path)

    def test_qrels_round_trip(self, tmp_path):
        path = tmp_path / "qrels.json"
        write_qrels({"q1": {"B", "A"}}, path)
        assert load_qrels(path) == {"q1": {"A", "B"}}

    def test_report_json(self, tmp_path):
        report = micro_prf1(runs_from({"q": [("A", 1.0)]}), {"q": {"A"}})
        path = tmp_path / "report.json"
        write_report(report, path, extra={"metric": "micro_f1"})
        data = json.loads(path.read_text())
        assert data["f_measure"] == 1.0
        assert data["counts"] == {"tp": 1, "fp": 0, "fn": 0}
        assert data["metric"] == "micro_f1"
        assert data["per_query"]["q"]["tp"] == 1

    def test_f_measure_consistent_with_p_and_r(self):
        rng = random.Random(8)
        for _ in range(50):
            runs = {}
            qrels = {}
            for i in range(rng.randrange(1, 6)):
                qid = f"q{i}"
                docs = [f"d{j}" for j in range(rng.randrange(0, 6))]
                runs[qid] = ScoredList(qid, [(d, float(9 - k)) for k, d in enumerate(docs)])
                qrels[qid] = {f"d{j}" for j in range(rng.randrange(0, 5))}
            micro = micro_prf1(runs, qrels)
            if micro.precision + micro.recall:
                expected = 2 * micro.precision * micro.recall / (micro.precision + micro.recall)
                assert abs(micro.f_measure - expected) < 1e-12
            macro = macro_prf2(runs, qrels)
            denom = 4 * macro.precision + macro.recall
            if denom:
                expected = 5 * macro.precision * macro.recall / denom
                assert abs(macro.f_measure - expected) < 1e-12
