import itertools
import random
from datetime import date

import pytest

from lexfuse import cli, postprocess
from lexfuse.evaluation import ScoredList, SettingError, macro_prf2, micro_prf1
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
    tune_threshold_by_proportion,
    write_tuning_report,
)


def runs_from(lists):
    return {qid: ScoredList(qid, entries) for qid, entries in lists.items()}


class TestFilterByTrialDate:
    def test_later_candidate_removed(self):
        runs = runs_from({"q": [("new", 2.0), ("old", 1.0)]})
        dates = {"q": date(2005, 1, 1), "new": date(2007, 3, 1), "old": date(2001, 1, 1)}
        out = filter_by_trial_date(runs, dates)
        assert out["q"].doc_ids() == ["old"]

    def test_unknown_query_date_keeps_all(self):
        runs = runs_from({"q": [("new", 2.0), ("old", 1.0)]})
        dates = {"new": date(2007, 3, 1)}
        assert filter_by_trial_date(runs, dates)["q"].doc_ids() == ["new", "old"]

    def test_unknown_candidate_date_kept(self):
        runs = runs_from({"q": [("mystery", 1.0)]})
        dates = {"q": date(2005, 1, 1)}
        assert filter_by_trial_date(runs, dates)["q"].doc_ids() == ["mystery"]

    def test_same_day_kept(self):
        runs = runs_from({"q": [("twin", 1.0)]})
        dates = {"q": date(2005, 1, 1), "twin": date(2005, 1, 1)}
        assert filter_by_trial_date(runs, dates)["q"].doc_ids() == ["twin"]


class TestFilterQueryCases:
    def test_query_case_removed_everywhere(self):
        runs = runs_from({"q1": [("B", 1.0), ("X", 0.5)], "q2": [("B", 2.0)]})
        out = filter_query_cases(runs, {"B"})
        assert out["q1"].doc_ids() == ["X"]
        assert out["q2"].doc_ids() == []

    def test_no_overlap_unchanged(self):
        runs = runs_from({"q1": [("X", 1.0)]})
        assert filter_query_cases(runs, {"q1", "q2"})["q1"].doc_ids() == ["X"]


class TestFilterDuplicates:
    def test_first_query_keeps_contested_candidate(self):
        runs = runs_from({"q1": [("X", 1.0)], "q2": [("X", 2.0), ("Y", 1.0)]})
        out, refilled = filter_duplicates(runs, t=1, s=0)
        assert out["q1"].doc_ids() == ["X"]
        assert out["q2"].doc_ids() == ["Y"]
        assert refilled == {}

    def test_emptied_query_refilled_with_top_s(self):
        runs = runs_from({
            "q1": [("X", 1.0), ("Y", 0.9)],
            "q2": [("X", 3.0), ("Y", 2.0)],
        })
        out, refilled = filter_duplicates(runs, t=1, s=2)
        assert out["q2"].doc_ids() == ["X", "Y"]
        assert refilled == {"q2": {"X", "Y"}}

    def test_large_t_is_identity(self):
        runs = runs_from({"q1": [("X", 1.0)], "q2": [("X", 2.0)]})
        out, _ = filter_duplicates(runs, t=50, s=0)
        assert {q: s.entries for q, s in out.items()} == {q: s.entries for q, s in runs.items()}

    def test_cap_invariant_under_random_runs(self):
        rng = random.Random(17)
        for _ in range(50):
            runs = {}
            for qi in range(rng.randrange(2, 8)):
                docs = rng.sample([f"d{i}" for i in range(10)], rng.randrange(0, 6))
                runs[f"q{qi}"] = ScoredList.from_scores(
                    f"q{qi}", {d: rng.random() for d in docs})
            t = rng.randrange(1, 3)
            s = rng.randrange(0, 3)
            out, refilled = filter_duplicates(runs, t=t, s=s)
            counts = {}
            for qid, slist in out.items():
                marks = refilled.get(qid, set())
                for doc_id in slist.doc_ids():
                    if doc_id not in marks:
                        counts[doc_id] = counts.get(doc_id, 0) + 1
            assert all(c <= t for c in counts.values())


class TestDynamicCutoff:
    def test_threshold_arithmetic(self):
        runs = runs_from({"q": [("a", 0.9), ("b", 0.7), ("c", 0.5), ("d", 0.2)]})
        out = dynamic_cutoff(runs, h=3, l=1, p=0.7)
        # Threshold 0.63: only 0.9 and 0.7 qualify.
        assert out["q"].doc_ids() == ["a", "b"]

    def test_run3_default_optimum_applies(self):
        entries = [(f"d{i}", 1.0 - 0.05 * i) for i in range(12)]
        runs = runs_from({"q": entries})
        out = dynamic_cutoff(runs, h=TASK1_RUN3_PARAMS["h"], l=TASK1_RUN3_PARAMS["l"],
                             p=TASK1_RUN3_PARAMS["p"])
        # Threshold 0.46; scores > 0.46 are 1.0 .. 0.50 (11 entries), capped at h=7.
        assert len(out["q"]) == 7

    def test_equal_scores_keep_min_h_len(self):
        runs = runs_from({"q": [("a", 1.0), ("b", 1.0), ("c", 1.0)]})
        assert len(dynamic_cutoff(runs, h=2, l=1, p=0.9)["q"]) == 2
        assert len(dynamic_cutoff(runs, h=9, l=1, p=0.9)["q"]) == 3

    def test_l_forces_minimum(self):
        runs = runs_from({"q": [("a", 1.0), ("b", 0.1), ("c", 0.05)]})
        out = dynamic_cutoff(runs, h=3, l=2, p=0.5)
        assert out["q"].doc_ids() == ["a", "b"]

    def test_param_validation(self):
        # The cutoff parameters are checked where the config loads.
        for params in ({"h": 0, "l": 0, "p": 0.5}, {"h": 3, "l": 4, "p": 0.5},
                       {"h": 3, "l": 1, "p": 1.5}):
            with pytest.raises(ValueError):
                cli.check_config({f"post_{name}": v for name, v in params.items()})


def post_config(**params):
    return {f"post_{name}": value for name, value in params.items()}


@pytest.mark.parametrize("make, field", [
    (lambda: post_config(h=0, l=0, p=0.5), "h"),
    (lambda: post_config(h=3, l=-1, p=0.5), "l"),
    (lambda: post_config(h=3, l=1, p=1.5), "p"),
    (lambda: post_config(t=0, s=0), "t"),
    (lambda: post_config(t=1, s=-2), "s"),
    (lambda: post_config(p=-0.1), "p"),
])
def test_param_errors_name_the_field(make, field):
    with pytest.raises(SettingError, match=f"^config key 'post_{field}': "):
        cli.check_config(make())


@pytest.mark.parametrize("params, field", [
    ({"t": "2"}, "t"), ({"t": 1, "s": 1.5}, "s"), ({"h": 2.5}, "h"),
    ({"h": 3, "l": None}, "l"), ({"h": 3, "p": "high"}, "p"), ({"h": 3, "p": float("nan")}, "p"),
])
def test_pipeline_refuses_non_numeric_params(params, field):
    # The pipeline's parameters come from post_* keys or tuned_params.json,
    # both checked by the post_* rows of cli.SETTINGS.
    with pytest.raises(SettingError, match=f"^config key 'post_{field}': must be "
                       "(a number|an integer|finite), got "):
        cli.check_config(post_config(**params))


class TestThresholdCutoff:
    def test_threshold_arithmetic(self):
        runs = runs_from({"q": [("a", 10.0), ("b", 6.0)]})
        out = threshold_cutoff(runs, p=0.7)
        assert out["q"].doc_ids() == ["a"]  # 6 < 7

    def test_p_zero_keeps_all(self):
        runs = runs_from({"q": [("a", 10.0), ("b", 6.0), ("c", 1.0)]})
        assert len(threshold_cutoff(runs, p=0.0)["q"]) == 3

    def test_singleton_kept_for_any_p(self):
        runs = runs_from({"q": [("a", 4.0)]})
        for p in (0.0, 0.5, 1.0):
            assert threshold_cutoff(runs, p=p)["q"].doc_ids() == ["a"]

    def test_p_one_keeps_exactly_top(self):
        runs = runs_from({"q": [("a", 10.0), ("b", 9.99)]})
        assert threshold_cutoff(runs, p=1.0)["q"].doc_ids() == ["a"]


def random_runs(rng, n_queries=10, max_len=12):
    runs = {}
    for qi in range(n_queries):
        n = rng.randrange(0, max_len)
        runs[f"q{qi:02d}"] = ScoredList.from_scores(
            f"q{qi:02d}", {f"d{i}": rng.uniform(0.01, 1.0) for i in range(n)})
    return runs


class TestInvariants:
    def test_dynamic_cutoff_bounds_and_threshold(self):
        rng = random.Random(23)
        checked = 0
        while checked < 1000:
            runs = random_runs(rng)
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
                    forced_from = min(h, passing)
                    for i, (_, score) in enumerate(slist.entries):
                        if i < forced_from:
                            assert score > threshold
                checked += 1

    def test_dynamic_cutoff_matches_whole_list_count(self):
        # Reference: count every entry above p*S over the whole list.
        def reference(runs, params):
            out = {}
            for qid, slist in runs.items():
                entries = slist.entries
                passing = sum(1 for _, sc in entries
                              if entries and sc > params["p"] * entries[0][1])
                count = min(params["h"], passing)
                if count < params["l"]:
                    count = min(params["l"], len(entries))
                out[qid] = tuple(entries[:count])
            return out

        rng = random.Random(31)
        for _ in range(500):
            runs = random_runs(rng, n_queries=5, max_len=15)
            if rng.random() < 0.5:  # coarse scores give ties at the threshold
                runs = {qid: ScoredList.from_scores(
                            qid, {d: round(sc, 1) for d, sc in slist.entries})
                        for qid, slist in runs.items()}
            h = rng.randrange(1, 12)
            params = dict(h=h, l=rng.randrange(0, h + 1), p=rng.choice([0.0, 1.0, rng.random()]))
            assert _entries(dynamic_cutoff(runs, **params)) == reference(runs, params)

    def test_threshold_cutoff_matches_whole_list_rule(self):
        # Reference: keep every entry above p*S over the whole list, else the top entry.
        def reference(runs, p):
            out = {}
            for qid, slist in runs.items():
                entries = slist.entries
                kept = [(d, sc) for d, sc in entries if sc > p * entries[0][1]] if entries else []
                out[qid] = tuple(kept or entries[:1])
            return out

        rng = random.Random(37)
        for _ in range(500):
            runs = random_runs(rng, n_queries=5, max_len=15)
            if rng.random() < 0.5:  # coarse scores give ties at the threshold
                runs = {qid: ScoredList.from_scores(
                            qid, {d: round(sc, 1) for d, sc in slist.entries})
                        for qid, slist in runs.items()}
            p = rng.choice([0.0, 1.0, rng.random()])
            assert _entries(threshold_cutoff(runs, p)) == reference(runs, p)

    def test_filters_idempotent(self):
        rng = random.Random(29)
        dates = {}
        for i in range(10):
            dates[f"d{i}"] = date(2000 + rng.randrange(0, 20), 1, 1) \
                if rng.random() < 0.8 else None
        for _ in range(50):
            runs = random_runs(rng, n_queries=6, max_len=8)
            for qid in runs:
                dates[qid] = date(2000 + rng.randrange(0, 20), 1, 1) \
                    if rng.random() < 0.8 else None

            once = filter_by_trial_date(runs, dates)
            assert _entries(filter_by_trial_date(once, dates)) == _entries(once)

            qids = set(rng.sample(sorted(runs), 2))
            once = filter_query_cases(runs, qids)
            assert _entries(filter_query_cases(once, qids)) == _entries(once)

            params = dict(t=rng.randrange(1, 3), s=rng.randrange(0, 3))
            once, _ = filter_duplicates(runs, **params)
            twice, _ = filter_duplicates(once, **params)
            assert _entries(twice) == _entries(once)

            cut = dict(h=rng.randrange(1, 8), l=0, p=rng.random())
            once = dynamic_cutoff(runs, **cut)
            assert _entries(dynamic_cutoff(once, **cut)) == _entries(once)

            p = rng.random()
            once = threshold_cutoff(runs, p=p)
            assert _entries(threshold_cutoff(once, p=p)) == _entries(once)


def _entries(runs):
    return {qid: tuple(slist.entries) for qid, slist in runs.items()}


def planted_scenario():
    """Hand-built runs/qrels where exactly (p=0.5, h=3, l=1, t=1, s=1)
    maximizes micro-F1 over the accompanying grid.

    q1 needs p<=0.6 threshold and h=3 (entry 4 passes p=0.5 but is junk);
    q2 needs the duplicate cap t=1 (A already kept by q1) and p=0.5 to shed
    its tail; q3 is emptied by the duplicate cap and needs exactly one
    refill; q4 punishes l=2 (its rank-2 entry is junk).
    """
    runs = runs_from({
        "q1": [("A", 1.0), ("B", 0.85), ("C", 0.6), ("D", 0.55), ("E", 0.2)],
        "q2": [("F", 1.0), ("A", 0.9), ("G", 0.55), ("H", 0.35)],
        "q3": [("A", 0.9), ("F", 0.7)],
        "q4": [("I", 1.0), ("J", 0.45), ("K", 0.3)],
    })
    qrels = {"q1": {"A", "B", "C"}, "q2": {"F", "G"}, "q3": {"A"}, "q4": {"I"}}
    grid = {"p": [0.3, 0.5, 0.7], "h": [2, 3, 4], "l": [1, 2, 3],
            "t": [1, 2], "s": [0, 1, 2]}
    planted = {"p": 0.5, "h": 3, "l": 1, "t": 1, "s": 1}
    return runs, qrels, grid, planted


class TestGridSearch:
    def test_recovers_planted_optimum(self):
        runs, qrels, grid, planted = planted_scenario()
        pipeline = PostprocessPipeline()
        best, table = grid_search(pipeline, grid, runs, qrels, metric="micro_f1")
        assert best == planted
        # Independent exhaustive recomputation: the planted point's F1
        # strictly exceeds every other feasible grid point's.
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
        assert planted_f is not None
        assert all(planted_f > f for f in others)

    def test_single_point_grid(self):
        runs, qrels, _, _ = planted_scenario()
        pipeline = PostprocessPipeline()
        grid = {"p": [0.4], "h": [5], "l": [1], "t": [2], "s": [0]}
        best, table = grid_search(pipeline, grid, runs, qrels)
        assert best == {"p": 0.4, "h": 5, "l": 1, "t": 2, "s": 0}
        assert len(table) == 1

    @pytest.mark.parametrize("change, field", [({"h": []}, "h"), ({"h": [1], "l": [2, 3]}, "l")])
    def test_grid_without_a_feasible_point_names_a_setting(self, change, field):
        # Refused where the config loads, before any grid point runs.
        _, _, grid, _ = planted_scenario()
        with pytest.raises(SettingError, match=f"^config key 'grid_{field}': "):
            cli.check_config({f"grid_{name}": values
                              for name, values in dict(grid, **change).items()})

    def test_enumeration_order_invariance(self):
        runs, qrels, grid, planted = planted_scenario()
        pipeline = PostprocessPipeline()
        reversed_grid = {k: list(reversed(v)) for k, v in grid.items()}
        best_fwd, _ = grid_search(pipeline, grid, runs, qrels)
        best_rev, _ = grid_search(pipeline, reversed_grid, runs, qrels)
        assert best_fwd == best_rev == planted

    def test_tie_break_order(self):
        # All-equal outcomes: prefer smaller h, then larger p, t, s, l.
        runs = runs_from({"q": [("A", 1.0)]})
        qrels = {"q": {"A"}}
        pipeline = PostprocessPipeline(order=("cutoff",))
        grid = {"p": [0.2, 0.8], "h": [2, 3], "l": [0], "t": [1], "s": [0]}
        best, _ = grid_search(pipeline, grid, runs, qrels)
        assert best == {"p": 0.8, "h": 2, "l": 0, "t": 1, "s": 0}

    def test_default_grid_covers_published_optima(self):
        grid = default_grid()
        for params in ({"p": 0.7, "h": 5, "l": 4, "t": 1, "s": 2},
                       {"p": 0.3, "h": 7, "l": 4, "t": 1, "s": 2}):
            for key, value in params.items():
                assert value in grid[key]

    def test_report_echoes_run3_defaults_verbatim(self, tmp_path):
        runs, qrels, _, _ = planted_scenario()
        pipeline = PostprocessPipeline()
        grid = {k: [v] for k, v in TASK1_RUN3_PARAMS.items()}
        best, table = grid_search(pipeline, grid, runs, qrels)
        assert best == TASK1_RUN3_PARAMS
        path = tmp_path / "report.tsv"
        write_tuning_report(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("h\tl\tp\ts\tt")
        assert lines[1].split("\t")[:5] == ["7", "1", "0.460000", "2", "1"]


def staged_scenario(seed):
    """Seeded runs over a small shared doc pool: ties, empty lists, query
    cases among the candidates, and partly known dates."""
    rng = random.Random(seed)
    qids = [f"q{i}" for i in range(6)]
    pool = [f"d{i:02d}" for i in range(14)] + qids[:3]
    dates = {doc: date(2000 + rng.randrange(0, 10), 1, 1)
             for doc in pool + qids if rng.random() < 0.7}
    runs = {}
    for qid in qids:
        docs = rng.sample(pool, rng.choice([0, 1, 4, 8, 12]))
        runs[qid] = ScoredList.from_scores(
            qid, {doc: rng.choice([0.2, 0.4, 0.4, 0.7, 1.0]) for doc in docs})
    qrels = {qid: set(rng.sample(pool, rng.randrange(0, 4))) for qid in qids[:5]}
    grid = {"p": [0.0, 0.3, 0.5, 0.9], "h": [1, 2, 4], "l": [0, 1, 3],
            "t": [1, 2], "s": [0, 1, 2]}
    for values in grid.values():
        rng.shuffle(values)
    return runs, dates, set(qids), qrels, grid


def naive_grid_search(pipeline, grid, runs, qrels, metric_fn):
    """The whole chain per grid point, as the oracle for the staged tuner."""
    names = sorted(grid)
    table = []
    best = None
    for combo in itertools.product(*(grid[name] for name in names)):
        params = dict(zip(names, combo))
        if "h" in params and params["l"] > params["h"]:
            continue
        report = metric_fn(pipeline.apply(runs, params), qrels)
        table.append(dict(params, precision=report.precision, recall=report.recall,
                          f_measure=report.f_measure))
        key = (-report.f_measure, params.get("h", 0), -params.get("p", 0.0),
               params.get("t", 0), params.get("s", 0), params.get("l", 0))
        if best is None or key < best[0]:
            best = (key, params)
    return best[1], table


class TestStagedGridSearch:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("metric,metric_fn", [("micro_f1", micro_prf1),
                                                  ("macro_f2", macro_prf2)])
    @pytest.mark.parametrize("order", [("date", "query", "duplicate", "cutoff"),
                                       ("date", "query", "cutoff", "duplicate"),
                                       ("threshold",)])
    def test_matches_naive_loop(self, tmp_path, seed, metric, metric_fn, order):
        runs, dates, query_ids, qrels, grid = staged_scenario(seed)
        if order == ("threshold",):
            grid = {"p": grid["p"]}
        pipeline = PostprocessPipeline(dates=dates, query_ids=query_ids, order=order)
        best, table = grid_search(pipeline, grid, runs, qrels, metric=metric)
        expected_best, expected_table = naive_grid_search(
            pipeline, grid, runs, qrels, metric_fn)
        assert best == expected_best
        assert table == expected_table
        write_tuning_report(table, tmp_path / "staged.tsv")
        write_tuning_report(expected_table, tmp_path / "naive.tsv")
        assert (tmp_path / "staged.tsv").read_bytes() == \
            (tmp_path / "naive.tsv").read_bytes()

    def test_each_prefix_computed_once(self, monkeypatch):
        runs, dates, query_ids, qrels, grid = staged_scenario(0)
        calls = {"date": 0, "duplicate": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(postprocess, "filter_by_trial_date",
                            counting("date", filter_by_trial_date))
        monkeypatch.setattr(postprocess, "filter_duplicates",
                            counting("duplicate", filter_duplicates))
        pipeline = PostprocessPipeline(dates=dates, query_ids=query_ids)
        _, table = grid_search(pipeline, grid, runs, qrels)
        assert len(table) > len(grid["t"]) * len(grid["s"])
        assert calls == {"date": 1, "duplicate": len(grid["t"]) * len(grid["s"])}

    def test_filters_follow_order_and_params(self, monkeypatch):
        calls = []
        for fn_name in ("dynamic_cutoff", "filter_query_cases", "filter_duplicates"):
            fn = getattr(postprocess, fn_name)
            monkeypatch.setattr(postprocess, fn_name, lambda runs, *args, fn=fn, fn_name=fn_name:
                                calls.append((fn_name, args)) or fn(runs, *args))
        runs = runs_from({"q": [("A", 1.0), ("B", 0.9)]})
        pipeline = PostprocessPipeline(query_ids=frozenset({"B"}),
                                       order=("cutoff", "query", "duplicate"))
        pipeline.apply(runs, {"h": 3, "l": 1, "p": 0.5, "t": 2, "s": 0})
        assert calls == [("dynamic_cutoff", (3, 1, 0.5)),
                         ("filter_query_cases", (frozenset({"B"}),)),
                         ("filter_duplicates", (2, 0))]
        # A filter whose parameter is missing is an error, never a skipped stage.
        with pytest.raises(KeyError, match="'t'"):
            pipeline.run_filter("duplicate", runs, {"h": 3, "l": 1, "p": 0.5})


class TestThresholdProportionTuning:
    def test_matches_target_fraction(self):
        # Two-article queries appear when the runner-up clears p * S.
        runs = runs_from({
            f"q{i}": [("a", 1.0), ("b", 0.9 - 0.15 * i), ("c", 0.1)]
            for i in range(5)
        })
        # Runner-up ratios: 0.9, 0.75, 0.6, 0.45, 0.3.
        p_values = [0.0, 0.2, 0.4, 0.5, 0.7, 0.85, 0.95]
        chosen = tune_threshold_by_proportion(runs, p_values, target_fraction=0.4)
        cut = threshold_cutoff(runs, p=chosen)
        frac = sum(1 for s in cut.values() if len(s) >= 2) / len(cut)
        assert abs(frac - 0.4) <= 0.02
        # p=0.5 keeps runner-ups 0.9/0.75/0.6 (3 of 5); p=0.7 keeps 2 of 5.
        assert chosen == 0.7

    def test_closest_when_no_exact_match(self):
        runs = runs_from({"q": [("a", 1.0), ("b", 0.5)]})
        chosen = tune_threshold_by_proportion(runs, [0.0, 0.9], target_fraction=0.5)
        # Fractions are 1.0 (p=0) and 0.0 (p=0.9): both 0.5 away, prefer larger p.
        assert chosen == 0.9
