"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The official competition numbers are not reproducible without the
licensed corpus, so acceptance is property-based: scorer/oracle
equivalence, exact metric hand-checks, degeneracy and invariant checks,
a planted tuning optimum, and a synthetic end-to-end pipeline that must
beat a fixed lexical baseline deterministically.
"""

import itertools
import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from lexfuse import cli
from lexfuse.evaluation import ScoredList, load_qrels, macro_prf2, micro_prf1
from lexfuse.features import FeatureSchema
from lexfuse.indexing import build_index
from lexfuse.ingest import TokenizerConfig
from lexfuse.ltr import TrainConfig, train
from lexfuse.postprocess import (
    TASK1_RUN3_PARAMS,
    PostprocessPipeline,
    default_grid,
    dynamic_cutoff,
    filter_by_trial_date,
    filter_duplicates,
    filter_query_cases,
    grid_search,
    threshold_cutoff,
    write_tuning_report,
)
from lexfuse.scorers import Bm25Params, QldParams, read_score_dump, score_all, top_k
from test_features import FeatureRow, table_from_rows
from test_ltr import ndcg_at_k
from test_scorers import bm25_score, qld_score


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


# -- criterion 1 ---------------------------------------------------------------

def direct_bm25(doc_tokens, all_docs, query_terms, k1, b):
    n = len(all_docs)
    avgdl = sum(len(d) for d in all_docs) / n
    tf = Counter(doc_tokens)
    df = Counter()
    for d in all_docs:
        for term in set(d):
            df[term] += 1
    total = 0.0
    for term in query_terms:
        idf = math.log(1 + (n - df[term] + 0.5) / (df[term] + 0.5))
        denom = tf[term] + k1 * (1 - b + b * len(doc_tokens) / avgdl)
        total += idf * tf[term] * (k1 + 1) / denom
    return total


def direct_qld(doc_tokens, all_docs, query_terms, mu):
    """Three-term smoothed likelihood decomposition, Dirichlet instance."""
    coll = Counter()
    for d in all_docs:
        coll.update(d)
    total_tokens = sum(coll.values())
    terms = [t for t in query_terms if coll[t] > 0]
    if not terms:
        return 0.0
    tf = Counter(doc_tokens)
    alpha_d = mu / (len(doc_tokens) + mu)
    seen = 0.0
    const = 0.0
    for term in terms:
        p_c = coll[term] / total_tokens
        const += math.log(p_c)
        if tf[term] > 0:
            p_s = (tf[term] + mu * p_c) / (len(doc_tokens) + mu)
            seen += math.log(p_s / (alpha_d * p_c))
    return seen + len(terms) * math.log(alpha_d) + const


def test_criterion_1_scorer_oracle_equivalence():
    with criterion(1, "scorer oracle equivalence"):
        started = time.monotonic()
        rng = random.Random(101)
        vocab = [f"term{i}" for i in range(18)]
        for _ in range(200):
            n_docs = rng.randrange(1, 21)
            docs_tokens = [
                [rng.choice(vocab) for _ in range(rng.randrange(1, 30))]
                for _ in range(n_docs)
            ]
            index = build_index(
                [(f"d{i:02d}", " ".join(toks)) for i, toks in enumerate(docs_tokens)])
            query = [rng.choice(vocab) for _ in range(rng.randrange(1, 9))]
            k1, b = rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0)
            mu = rng.uniform(1.0, 3000.0)
            for ordinal in range(n_docs):
                got = bm25_score(index, query, ordinal, Bm25Params(k1, b))
                want = direct_bm25(docs_tokens[ordinal], docs_tokens, query, k1, b)
                assert abs(got - want) <= 1e-9
                got = qld_score(index, query, ordinal, QldParams(mu))
                want = direct_qld(docs_tokens[ordinal], docs_tokens, query, mu)
                assert abs(got - want) <= 1e-9
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, limit 10s"


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_2_metric_hand_checks():
    with criterion(2, "metric hand-checks"):
        runs = {
            "q1": ScoredList("q1", [("A", 2.0), ("B", 1.0)]),
            "q2": ScoredList("q2", [("D", 1.0)]),
        }
        report = micro_prf1(runs, {"q1": {"A", "C"}, "q2": {"D"}})
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert round(report.f_measure, 4) == 0.6667

        macro = macro_prf2(
            {"q1": ScoredList("q1", [("A", 1.0)]),
             "q2": ScoredList("q2", [("B", 2.0), ("X", 1.0)])},
            {"q1": {"A"}, "q2": {"B", "C"}},
        )
        assert round(macro.precision, 4) == 0.75
        assert round(macro.recall, 4) == 0.75
        assert round(macro.f_measure, 4) == 0.75

        macro = macro_prf2(
            {"q1": ScoredList("q1", [("A", 2.0), ("X", 1.0)])},
            {"q1": {"A"}},
        )
        assert (macro.precision, macro.recall) == (0.5, 1.0)
        assert round(macro.f_measure, 4) == 0.8333


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_3_ngram_degeneracy():
    with criterion(3, "n-gram range (1,1) degeneracy"):
        rng = random.Random(33)
        vocab = [f"w{i}" for i in range(25)]
        for _ in range(40):
            docs = [
                (f"d{i:02d}", " ".join(rng.choice(vocab)
                                       for _ in range(rng.randrange(1, 40))))
                for i in range(rng.randrange(2, 15))
            ]
            plain = build_index(docs, TokenizerConfig())
            unigram = build_index(docs, TokenizerConfig(ngram_lo=1, ngram_hi=1))
            query = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 8)))
            a = score_all(plain, "q", query, "bm25")
            b = score_all(unigram, "q", query, "bm25_ngram")
            assert a.entries == b.entries  # exact list equality


# -- criterion 4 ---------------------------------------------------------------

SCHEMA3 = FeatureSchema("acceptance3", ("signal", "noise_a", "noise_b"))


def separable_table(n_queries, n_rows, n_pos, rng, shuffle_labels=False):
    rows = []
    for q in range(n_queries):
        labels = [1] * n_pos + [0] * (n_rows - n_pos)
        values = [
            (label + rng.gauss(0.0, 0.01), rng.gauss(0, 1), rng.gauss(0, 1))
            for label in labels
        ]
        if shuffle_labels:
            rng.shuffle(labels)
        for i, (label, vals) in enumerate(zip(labels, values)):
            rows.append(FeatureRow(f"q{q:03d}", f"c{i:03d}", vals, label))
    return table_from_rows(SCHEMA3, rows)


def test_criterion_4_ltr_sanity():
    with criterion(4, "learning-to-rank sanity"):
        started = time.monotonic()
        rng = random.Random(44)
        table = separable_table(30, 20, 4, rng)
        model = train(table, TrainConfig(
            num_trees=300, max_leaves=7, learning_rate=0.2,
            min_samples_leaf=5, ndcg_truncation=10, seed=4))
        assert max(h[2] for h in model.history) >= 0.99

        shuffled = separable_table(80, 20, 4, rng, shuffle_labels=True)
        mc = random.Random(99)
        labels = [1] * 4 + [0] * 16
        samples = []
        for _ in range(3000):
            mc.shuffle(labels)
            samples.append(ndcg_at_k(labels, 10))
        baseline = sum(samples) / len(samples)
        model = train(shuffled, TrainConfig(
            num_trees=300, max_leaves=7, learning_rate=0.2,
            min_samples_leaf=5, ndcg_truncation=10, seed=4,
            validation_fraction=0.3))
        best_valid = max(h[2] for h in model.history)
        assert abs(best_valid - baseline) <= 0.1
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"


# -- criterion 5 ---------------------------------------------------------------

def random_runs(rng, n_queries, max_len):
    runs = {}
    for qi in range(n_queries):
        n = rng.randrange(0, max_len)
        runs[f"q{qi:02d}"] = ScoredList.from_scores(
            f"q{qi:02d}", {f"d{i}": rng.uniform(0.01, 1.0) for i in range(n)})
    return runs


def test_criterion_5_postprocess_invariants():
    with criterion(5, "post-processing invariants"):
        rng = random.Random(55)
        lists_checked = 0
        while lists_checked < 1000:
            runs = random_runs(rng, 10, 12)
            h = rng.randrange(1, 9)
            l = rng.randrange(0, h + 1)
            p = rng.random()
            out = dynamic_cutoff(runs, h=h, l=l, p=p)
            for qid, slist in out.items():
                original = runs[qid].entries
                assert min(l, len(original)) <= len(slist) <= h
                if original:
                    threshold = p * original[0][1]
                    passing = sum(1 for _, sc in original if sc > threshold)
                    for i, (_, score) in enumerate(slist.entries):
                        if i < min(h, passing):  # non-forced entries
                            assert score > threshold
                lists_checked += 1

            params = dict(t=rng.randrange(1, 3), s=rng.randrange(0, 3))
            deduped, refilled = filter_duplicates(runs, **params)
            counts = Counter()
            for qid, slist in deduped.items():
                marks = refilled.get(qid, set())
                counts.update(d for d in slist.doc_ids() if d not in marks)
            assert all(c <= params["t"] for c in counts.values())

            # Idempotence of every filter.
            def entries(r):
                return {q: tuple(s.entries) for q, s in r.items()}

            again, _ = filter_duplicates(deduped, **params)
            assert entries(again) == entries(deduped)
            cut = dynamic_cutoff(runs, h=h, l=l, p=p)
            assert entries(dynamic_cutoff(cut, h=h, l=l, p=p)) == entries(cut)
            dates = {key: None for key in runs}
            dated = filter_by_trial_date(runs, dates)
            assert entries(filter_by_trial_date(dated, dates)) == entries(dated)
            dropped = filter_query_cases(runs, {"d1", "d2"})
            assert entries(filter_query_cases(dropped, {"d1", "d2"})) == entries(dropped)
            thr = threshold_cutoff(runs, p=p)
            assert entries(threshold_cutoff(thr, p=p)) == entries(thr)


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_6_grid_search_planted_optimum(tmp_path):
    with criterion(6, "grid search recovers planted optimum"):
        runs = {
            "q1": ScoredList("q1", [("A", 1.0), ("B", 0.85), ("C", 0.6),
                                    ("D", 0.55), ("E", 0.2)]),
            "q2": ScoredList("q2", [("F", 1.0), ("A", 0.9), ("G", 0.55), ("H", 0.35)]),
            "q3": ScoredList("q3", [("A", 0.9), ("F", 0.7)]),
            "q4": ScoredList("q4", [("I", 1.0), ("J", 0.45), ("K", 0.3)]),
        }
        qrels = {"q1": {"A", "B", "C"}, "q2": {"F", "G"}, "q3": {"A"}, "q4": {"I"}}
        grid = {"p": [0.3, 0.5, 0.7], "h": [2, 3, 4], "l": [1, 2, 3],
                "t": [1, 2], "s": [0, 1, 2]}
        planted = {"p": 0.5, "h": 3, "l": 1, "t": 1, "s": 1}
        pipeline = PostprocessPipeline()
        best, table = grid_search(pipeline, grid, runs, qrels, metric="micro_f1")
        assert best == planted

        # Exhaustive recheck: planted point strictly maximizes micro-F1.
        planted_f = None
        others = []
        for combo in itertools.product(*(grid[k] for k in sorted(grid))):
            params = dict(zip(sorted(grid), combo))
            if params["l"] > params["h"]:
                continue
            f = micro_prf1(pipeline.apply(runs, params), qrels).f_measure
            if params == planted:
                planted_f = f
            else:
                others.append(f)
        assert planted_f is not None and all(planted_f > f for f in others)

        # Published run-3 optimum is the shipped default and is echoed
        # verbatim through the tuning-report round trip.
        assert TASK1_RUN3_PARAMS == {"p": 0.46, "h": 7, "l": 1, "t": 1, "s": 2}
        for key in ("p", "h", "l", "t", "s"):
            assert cli.DEFAULTS[f"post_{key}"] == TASK1_RUN3_PARAMS[key]
        single = {k: [v] for k, v in TASK1_RUN3_PARAMS.items()}
        best, report_rows = grid_search(pipeline, single, runs, qrels)
        assert best == TASK1_RUN3_PARAMS
        report_path = tmp_path / "tuning_report.tsv"
        write_tuning_report(report_rows, report_path)
        lines = report_path.read_text().splitlines()
        assert lines[0].split("\t")[:5] == ["h", "l", "p", "s", "t"]
        assert lines[1].split("\t")[:5] == ["7", "1", "0.460000", "2", "1"]

        # Grid defaults cover the published optima for runs 1 and 2.
        defaults = default_grid()
        for params in ({"p": 0.7, "h": 5, "l": 4, "t": 1, "s": 2},
                       {"p": 0.3, "h": 7, "l": 4, "t": 1, "s": 2}):
            for key, value in params.items():
                assert value in defaults[key]


# -- criteria 7 and 8: synthetic end-to-end pipeline ----------------------------

PIPELINE_COMMANDS = ("ingest", "index", "score", "features", "train",
                     "rerank", "tune", "postprocess", "eval")


def pipeline_config(synth_dir, work_dir):
    return {
        "synth_dir": str(synth_dir),
        "synth_num_queries": 100,
        "synth_num_candidates": 850,
        "corpus_dir": str(synth_dir / "corpus"),
        "queries_file": str(synth_dir / "queries.json"),
        "qrels_file": str(synth_dir / "qrels.json"),
        "splits_file": str(synth_dir / "splits.json"),
        "work_dir": str(work_dir),
        "seed": 7,
        "rerank_depth": 50,
        "ltr_num_trees": 300,
        "ltr_max_leaves": 7,
        "ltr_learning_rate": 0.05,
        "ltr_min_samples_leaf": 20,
        "ltr_ndcg_truncation": 5,
        "ltr_validation_fraction": 0.3,
        "filter_order": "date,query,cutoff,duplicate",
        "external_scores": {
            "SAILER": str(synth_dir / "external_SAILER.tsv"),
            "DELTA": str(synth_dir / "external_DELTA.tsv"),
        },
        "grid_p": [round(0.1 * i, 1) for i in range(10)],
        "grid_h": [3, 4, 5, 6, 7, 8],
        "grid_l": [0, 1, 2],
        "grid_t": [1, 2],
        "grid_s": [0, 1, 2, 3],
        "eval_split": "test",
    }


@pytest.fixture(scope="module")
def synthetic_chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    synth_dir = root / "synth"
    work = root / "work"
    config_path = root / "config.json"
    config_path.write_text(json.dumps(pipeline_config(synth_dir, work)))
    started = time.monotonic()
    assert cli.main(["synth", "--config", str(config_path)]) == 0
    for command in PIPELINE_COMMANDS:
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    elapsed = time.monotonic() - started
    return root, synth_dir, work, elapsed


def test_criterion_7_end_to_end_beats_baseline(synthetic_chain):
    with criterion(7, "synthetic end-to-end beats BM25 top-5"):
        _, synth_dir, work, elapsed = synthetic_chain
        assert elapsed < 300.0, f"chain took {elapsed:.0f}s, limit 300s"

        report = json.loads((work / "eval_report.json").read_text())
        splits = json.loads((synth_dir / "splits.json").read_text())
        qrels = load_qrels(synth_dir / "qrels.json")
        test_queries = set(splits["test"])
        bm25 = read_score_dump(work / "scores_bm25.tsv")
        baseline = micro_prf1(
            {q: top_k(slist, 5) for q, slist in bm25.items() if q in test_queries},
            {q: docs for q, docs in qrels.items() if q in test_queries},
        )
        assert report["f_measure"] > baseline.f_measure, (
            f"fused {report['f_measure']:.4f} vs baseline {baseline.f_measure:.4f}")


def test_criterion_8_determinism(synthetic_chain, tmp_path):
    with criterion(8, "seeded determinism of run and model files"):
        root, synth_dir, work, _ = synthetic_chain
        synth_again = tmp_path / "synth2"
        work_again = tmp_path / "work2"
        config_path = tmp_path / "config2.json"
        config_path.write_text(json.dumps(pipeline_config(synth_again, work_again)))
        assert cli.main(["synth", "--config", str(config_path)]) == 0
        assert (synth_again / "qrels.json").read_bytes() == \
               (synth_dir / "qrels.json").read_bytes()
        for command in PIPELINE_COMMANDS:
            assert cli.main([command, "--config", str(config_path)]) == 0, command
        for name in ("model.json", "run_raw.tsv", "run_final.tsv"):
            assert (work_again / name).read_bytes() == (work / name).read_bytes(), name
