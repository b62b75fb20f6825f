import json
import math
import random

import numpy as np
import pytest

from lexfuse import ltr
from lexfuse.evaluation import DataError
from lexfuse.features import FeatureSchema, FeatureTable
from lexfuse.ltr import (
    RegressionTree,
    TrainConfig,
    TreeEnsemble,
    predict,
    train,
    write_training_log,
)
from test_features import FeatureRow, rows_of, table_from_rows

SCHEMA3 = FeatureSchema("synthetic3", ("signal", "noise_a", "noise_b"))


def ndcg_at_k(labels, k):
    """NDCG@k of binary labels in ranked order; 0.0 when nothing is relevant.

    Gains are 2^label - 1 and the discount at 1-based rank r is
    1 / log2(r + 1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = 0.0
    for i, label in enumerate(labels[:k]):
        if label:
            dcg += (2.0 ** label - 1.0) / math.log2(i + 2)
    idcg = 0.0
    for i, label in enumerate(sorted(labels, reverse=True)[:k]):
        if label:
            idcg += (2.0 ** label - 1.0) / math.log2(i + 2)
    return dcg / idcg if idcg > 0 else 0.0


def make_table(n_queries, n_rows, n_pos, rng, signal_noise=0.01, shuffle_labels=False):
    """Separable table: the first feature equals the label plus tiny noise.

    With ``shuffle_labels`` the labels are re-dealt after the features are
    generated, leaving the features uninformative.
    """
    rows = []
    for q in range(n_queries):
        labels = [1] * n_pos + [0] * (n_rows - n_pos)
        values_per_row = [
            (
                label + rng.gauss(0.0, signal_noise),
                rng.gauss(0.0, 1.0),
                rng.gauss(0.0, 1.0),
            )
            for label in labels
        ]
        if shuffle_labels:
            rng.shuffle(labels)
        for i, (label, values) in enumerate(zip(labels, values_per_row)):
            rows.append(FeatureRow(f"q{q:03d}", f"c{i:03d}", values, label))
    return table_from_rows(SCHEMA3, rows)


class TestNdcgAtK:
    def test_ideal_ranking(self):
        assert ndcg_at_k([1, 0, 0], 3) == 1.0

    def test_hand_evaluated_dcg(self):
        # DCG = (2^1-1)/log2(3) at rank 2; IDCG = 1.
        assert ndcg_at_k([0, 1], 2) == pytest.approx(1 / math.log2(3), abs=1e-12)
        assert round(ndcg_at_k([0, 1], 2), 4) == 0.6309

    def test_all_zero_labels(self):
        assert ndcg_at_k([0, 0, 0], 5) == 0.0

    def test_truncation(self):
        # The relevant item beyond rank k contributes nothing.
        assert ndcg_at_k([0, 0, 1], 2) == 0.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], 0)


class TestTrainGuards:
    def test_single_query_rejected(self):
        rng = random.Random(0)
        table = make_table(1, 10, 2, rng)
        with pytest.raises(DataError, match="at least 2 queries"):
            train(table, TrainConfig(num_trees=5, min_samples_leaf=1))

    def test_no_positive_labels_rejected(self):
        rows = [FeatureRow(f"q{q}", f"c{i}", (0.0, 0.0, 0.0), 0)
                for q in range(3) for i in range(4)]
        table = table_from_rows(SCHEMA3, rows)
        with pytest.raises(DataError, match="no positive labels"):
            train(table, TrainConfig(num_trees=5, min_samples_leaf=1))

    def test_non_finite_feature_names_row(self):
        rows = [
            FeatureRow("q0", "c0", (1.0, 0.0, 0.0), 1),
            FeatureRow("q0", "c1", (0.0, 0.0, 0.0), 0),
            FeatureRow("q1", "c0", (float("nan"), 0.0, 0.0), 1),
            FeatureRow("q1", "c1", (0.0, 0.0, 0.0), 0),
        ]
        # The table refuses the row, so training never sees it.
        with pytest.raises(ValueError, match=r"^row 2 \(q1, c0\): non-finite feature value$"):
            table_from_rows(SCHEMA3, rows)

    def test_unlabeled_row_rejected(self):
        rows = [FeatureRow("q0", "c0", (1.0, 0.0, 0.0))]
        table = table_from_rows(SCHEMA3, rows)
        with pytest.raises(DataError, match="no label"):
            train(table, TrainConfig(num_trees=5, min_samples_leaf=1))


def quick_config(**kwargs):
    defaults = dict(num_trees=60, max_leaves=7, learning_rate=0.2,
                    min_samples_leaf=5, ndcg_truncation=10, seed=1)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrainSeparable:
    def test_validation_ndcg_reaches_one_within_50_trees(self):
        rng = random.Random(4)
        table = make_table(30, 20, 4, rng)
        model = train(table, quick_config(num_trees=50))
        best_valid = max(h[2] for h in model.history)
        assert best_valid >= 0.99

    def test_training_ndcg_non_decreasing(self):
        rng = random.Random(5)
        table = make_table(20, 15, 3, rng)
        model = train(table, quick_config(num_trees=25))
        train_curve = [h[1] for h in model.history]
        for earlier, later in zip(train_curve, train_curve[1:]):
            assert later >= earlier - 1e-9

    def test_fusion_at_least_best_single_feature(self):
        rng = random.Random(6)
        table = make_table(25, 16, 3, rng)
        model = train(table, quick_config())
        runs = predict(model, table)
        qrels = {}
        for row in rows_of(table):
            if row.label:
                qrels.setdefault(row.query_id, set()).add(row.candidate_id)

        def mean_ndcg10(per_query_ranked):
            vals = []
            for qid, ranked in per_query_ranked.items():
                labels = [1 if c in qrels.get(qid, ()) else 0 for c in ranked]
                vals.append(ndcg_at_k(labels, 10))
            return sum(vals) / len(vals)

        fused = mean_ndcg10({q: r.doc_ids() for q, r in runs.items()})
        single = []
        for f in range(len(SCHEMA3)):
            ranked = {}
            for row in rows_of(table):
                ranked.setdefault(row.query_id, []).append((row.values[f], row.candidate_id))
            single.append(mean_ndcg10({
                q: [c for _, c in sorted(v, key=lambda t: (-t[0], t[1]))]
                for q, v in ranked.items()
            }))
        assert fused >= max(single) - 1e-9


class TestTrainShuffledLabels:
    def test_validation_ndcg_near_permutation_baseline(self):
        rng = random.Random(7)
        n_rows, n_pos = 20, 4
        table = make_table(80, n_rows, n_pos, rng, shuffle_labels=True)
        # Labels are independent of all features, so validation NDCG should
        # sit near the random-permutation baseline (Monte Carlo oracle).
        mc = random.Random(99)
        baseline_samples = []
        labels = [1] * n_pos + [0] * (n_rows - n_pos)
        for _ in range(3000):
            mc.shuffle(labels)
            baseline_samples.append(ndcg_at_k(labels, 10))
        baseline = sum(baseline_samples) / len(baseline_samples)
        model = train(table, quick_config(num_trees=40, validation_fraction=0.3))
        best_valid = max(h[2] for h in model.history)
        assert abs(best_valid - baseline) <= 0.1


class TestPredict:
    def make_small_table(self, labeled=False):
        rows = [
            FeatureRow("q0", "b", (0.2, 0.0, 0.0), 1 if labeled else None),
            FeatureRow("q0", "a", (0.8, 0.0, 0.0), 0 if labeled else None),
            FeatureRow("q1", "c", (0.5, 0.0, 0.0), 1 if labeled else None),
        ]
        return table_from_rows(SCHEMA3, rows)

    def test_empty_ensemble_equal_scores_and_id_order(self):
        model = TreeEnsemble(trees=[], base_score=0.25, schema_name=SCHEMA3.name,
                             feature_names=SCHEMA3.feature_names)
        runs = predict(model, self.make_small_table())
        assert [d for d, _ in runs["q0"].entries] == ["a", "b"]
        assert all(s == 1.0 for _, s in runs["q0"].entries)

    def test_manual_stump_partitions_scores(self):
        stump = RegressionTree(
            feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
            left=[1, -1, -1], right=[2, -1, -1], value=[0.0, -1.0, 2.0],
        )
        model = TreeEnsemble(trees=[stump], base_score=0.0, schema_name=SCHEMA3.name,
                             feature_names=SCHEMA3.feature_names)
        rng = random.Random(8)
        rows = [
            FeatureRow("q", f"c{i:02d}", (rng.random(), 0.0, 0.0), None)
            for i in range(40)
        ]
        table = table_from_rows(SCHEMA3, rows)
        runs = predict(model, table)
        by_doc = dict(runs["q"].entries)
        for row in rows:  # leaf values -1 and 2 normalized to the floor and to 1
            expected = 1e-6 if row.values[0] <= 0.5 else 1.0
            assert by_doc[row.candidate_id] == expected

    def test_rows_out_of_order_are_refused(self):
        rng = random.Random(9)
        table = make_table(5, 8, 2, rng)
        model = train(table, quick_config(num_trees=10, min_samples_leaf=2))
        shuffled_rows = rows_of(table)
        rng.shuffle(shuffled_rows)
        with pytest.raises(ValueError, match=r"out of \(query_id, candidate_id\) order$"):
            FeatureTable(SCHEMA3, [r.query_id for r in shuffled_rows],
                         [r.candidate_id for r in shuffled_rows],
                         [r.values for r in shuffled_rows], [r.label for r in shuffled_rows])
        # Sorted again, the same rows score as before.
        assert predict(model, table_from_rows(SCHEMA3, shuffled_rows)) == predict(model, table)

    def test_schema_mismatch_rejected(self):
        model = TreeEnsemble(trees=[], base_score=0.0, schema_name="other",
                             feature_names=("x", "y"))
        with pytest.raises(DataError, match="does not match model schema 'other'"):
            predict(model, self.make_small_table())


class TestSerializationAndDeterminism:
    def test_round_trip_bit_identical_predictions(self, tmp_path):
        rng = random.Random(10)
        table = make_table(12, 12, 3, rng)
        model = train(table, quick_config(num_trees=15, min_samples_leaf=2))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = TreeEnsemble.load(path)
        X = np.asarray([r.values for r in rows_of(table)])
        assert np.array_equal(model.predict_matrix(X), loaded.predict_matrix(X))

    @pytest.mark.parametrize("field, index, value", [
        ("left", 0, 0),  # a split whose child is itself would never end
        ("right", 0, 9),
        ("feature", 0, 3),
        ("value", None, [0.0]),
        ("threshold", 0, "x"),  # a field of the wrong type
        ("value", 2, "y"),
        ("threshold", 0, float("nan")),
        pytest.param("value", 1, 10**400, id="value-overflow"),
        ("feature", 0, 0.0),
        ("left", 0, True),
    ])
    def test_malformed_tree_is_a_data_error_naming_the_file(self, tmp_path, field, index,
                                                            value):
        stump = RegressionTree(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
                               left=[1, -1, -1], right=[2, -1, -1], value=[0.0, -1.0, 2.0])
        data = TreeEnsemble(trees=[stump], base_score=0.0, schema_name=SCHEMA3.name,
                            feature_names=SCHEMA3.feature_names).to_dict()
        if index is None:
            data["trees"][0][field] = value
        else:
            data["trees"][0][field][index] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ltr.DataError, match=r"model\.json: malformed model: tree 0"):
            TreeEnsemble.load(path)

    @pytest.mark.parametrize("base_score", ["nan", True, 0, 10**400, float("inf")])
    def test_bad_base_score_is_a_data_error_naming_the_file(self, tmp_path, base_score):
        data = TreeEnsemble(trees=[], base_score=0.0, schema_name=SCHEMA3.name,
                            feature_names=SCHEMA3.feature_names).to_dict()
        data["base_score"] = base_score
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ltr.DataError, match=r"model\.json: malformed model: base_score must "
                                                r"be a finite float"):
            TreeEnsemble.load(path)

    def test_integer_too_long_to_convert_is_a_data_error_naming_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "lexfuse-ltr", "version": ' + "9" * 5000 + "}")
        with pytest.raises(ltr.DataError, match=r"model\.json: not valid JSON: "):
            TreeEnsemble.load(path)

    def test_seed_determinism(self, tmp_path):
        rng_a, rng_b = random.Random(11), random.Random(11)
        table_a = make_table(10, 10, 2, rng_a)
        table_b = make_table(10, 10, 2, rng_b)
        config = quick_config(num_trees=12, min_samples_leaf=2, seed=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        train(table_a, config).save(p1)
        train(table_b, config).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_training_log_format(self, tmp_path):
        history = [(0, 0.5, 0.4), (1, 0.75, 0.6)]
        path = tmp_path / "log.tsv"
        write_training_log(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration\ttrain_ndcg\tvalid_ndcg"
        assert lines[1] == "0\t0.500000\t0.400000"


# -- reference trainer: one argsort per node and feature, one query at a time --

def ref_best_split(X, grad, hess, idx, min_samples_leaf):
    g = grad[idx]
    h = hess[idx]
    total_g = g.sum()
    total_h = h.sum()
    parent = total_g * total_g / (total_h + ltr._EPS)
    n = len(idx)
    best = None
    for f in range(X.shape[1]):
        values = X[idx, f]
        order = np.argsort(values, kind="mergesort")
        sorted_values = values[order]
        if sorted_values[0] == sorted_values[-1]:
            continue
        cum_g = np.cumsum(g[order])
        cum_h = np.cumsum(h[order])
        cuts = np.nonzero(sorted_values[:-1] < sorted_values[1:])[0]
        cuts = cuts[(cuts + 1 >= min_samples_leaf) & (n - cuts - 1 >= min_samples_leaf)]
        if cuts.size == 0:
            continue
        left_g = cum_g[cuts]
        left_h = cum_h[cuts]
        gains = (
            left_g * left_g / (left_h + ltr._EPS)
            + (total_g - left_g) ** 2 / (total_h - left_h + ltr._EPS)
            - parent
        )
        j = int(np.argmax(gains))
        if gains[j] > ltr._MIN_GAIN and (best is None or gains[j] > best[0]):
            thr = (sorted_values[cuts[j]] + sorted_values[cuts[j] + 1]) / 2.0
            best = (float(gains[j]), f, float(thr))
    return best


def ref_leaf_value(grad, hess, idx):
    return float(grad[idx].sum() / (hess[idx].sum() + ltr._EPS))


def ref_fit_tree(X, grad, hess, max_leaves, min_samples_leaf):
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [ref_leaf_value(grad, hess, np.arange(len(X)))]
    members = {0: np.arange(len(X))}
    pending = {0: ref_best_split(X, grad, hess, members[0], min_samples_leaf)}
    n_leaves = 1
    while n_leaves < max_leaves:
        chosen = None
        for node in sorted(pending):
            split = pending[node]
            if split is None:
                continue
            if chosen is None or split[0] > pending[chosen][0]:
                chosen = node
        if chosen is None:
            break
        gain, f, thr = pending.pop(chosen)
        idx = members.pop(chosen)
        mask = X[idx, f] <= thr
        left_idx = idx[mask]
        right_idx = idx[~mask]
        left_id = len(feature)
        right_id = left_id + 1
        for child_idx in (left_idx, right_idx):
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(ref_leaf_value(grad, hess, child_idx))
        feature[chosen] = f
        threshold[chosen] = thr
        left[chosen] = left_id
        right[chosen] = right_id
        value[chosen] = 0.0
        members[left_id] = left_idx
        members[right_id] = right_idx
        pending[left_id] = ref_best_split(X, grad, hess, left_idx, min_samples_leaf)
        pending[right_id] = ref_best_split(X, grad, hess, right_idx, min_samples_leaf)
        n_leaves += 1
    return RegressionTree(feature, threshold, left, right, value)


def ref_ranked_order(scores):
    return np.lexsort((np.arange(len(scores)), -scores))


def ref_query_ndcg(scores, labels, k):
    if labels.sum() == 0:
        return None
    order = ref_ranked_order(scores)
    ranked = labels[order][:k]
    positions = np.arange(1, len(ranked) + 1)
    dcg = float(np.sum(ranked / np.log2(positions + 1)))
    n_ideal = min(k, int(labels.sum()))
    idcg = float(np.sum(1.0 / np.log2(np.arange(1, n_ideal + 1) + 1)))
    return dcg / idcg


def test_rank_discounts_come_from_math_log2():
    # np.log2 rounds some of these differently at some SIMD levels (from 1621 on with AVX512).
    assert ([value.hex() for value in ltr._rank_log2(5000).tolist()]
            == [math.log2(rank + 1).hex() for rank in range(1, 5001)])
    assert ltr._rank_log2(0).shape == (0,)


def ref_mean_ndcg(scores, labels, groups, k):
    values = []
    for start, end in groups:
        v = ref_query_ndcg(scores[start:end], labels[start:end], k)
        if v is not None:
            values.append(v)
    return float(np.mean(values)) if values else 0.0


def ref_precision_at_1(scores, labels, groups):
    hits = []
    for start, end in groups:
        if labels[start:end].sum() == 0:
            continue
        top = ref_ranked_order(scores[start:end])[0]
        hits.append(float(labels[start:end][top]))
    return float(np.mean(hits)) if hits else 0.0


def ref_lambda_gradients(scores, labels, groups, k):
    lam = np.zeros(len(scores), dtype=np.float64)
    hess = np.zeros(len(scores), dtype=np.float64)
    for start, end in groups:
        y = labels[start:end]
        pos = np.nonzero(y == 1)[0]
        neg = np.nonzero(y == 0)[0]
        if pos.size == 0 or neg.size == 0:
            continue
        s = scores[start:end]
        order = ref_ranked_order(s)
        rank = np.empty(len(s), dtype=np.int64)
        rank[order] = np.arange(1, len(s) + 1)
        discount = np.where(rank <= k, 1.0 / np.log2(rank + 1.0), 0.0)
        n_ideal = min(k, pos.size)
        idcg = float(np.sum(1.0 / np.log2(np.arange(1, n_ideal + 1) + 1)))
        diff = np.clip(s[pos][:, None] - s[neg][None, :], -60.0, 60.0)
        rho = 1.0 / (1.0 + np.vectorize(math.exp, otypes=[float])(diff))
        delta = np.abs(discount[pos][:, None] - discount[neg][None, :]) / idcg
        weighted = rho * delta
        lam[start + pos] += weighted.sum(axis=1)
        lam[start + neg] -= weighted.sum(axis=0)
        curvature = rho * (1.0 - rho) * delta
        hess[start + pos] += curvature.sum(axis=1)
        hess[start + neg] += curvature.sum(axis=0)
    return lam, hess


def ref_split(table, config):
    """The (X, labels, groups) of the train and of the validation queries, as
    ``train`` splits them: a seeded shuffle of the sorted query ids, whose first
    ``validation_fraction`` (at least one query, never all) validates."""
    qids = table.query_ids
    starts = [i for i in range(len(qids)) if i == 0 or qids[i] != qids[i - 1]]
    named = [(qids[a], (a, b)) for a, b in zip(starts, starts[1:] + [len(qids)])]
    shuffled = sorted(q for q, _ in named)
    random.Random(config.seed).shuffle(shuffled)
    n_valid = max(1, round(config.validation_fraction * len(shuffled)))
    if n_valid >= len(shuffled):
        raise DataError("no training queries")
    valid = set(shuffled[:n_valid])
    out = []
    for part in ([g for g in named if g[0] not in valid], [g for g in named if g[0] in valid]):
        idx, groups = [], []
        for _, (start, end) in part:
            groups.append((len(idx), len(idx) + (end - start)))
            idx.extend(range(start, end))
        idx = np.asarray(idx, dtype=np.int64)
        out.append((table.X[idx], table.labels[idx], groups))
    return out


def ref_train(table, config):
    """``train`` as it was before the presorted layout: the bit-level oracle."""
    (X_tr, y_tr, groups_tr), (X_va, y_va, groups_va) = ref_split(table, config)
    k = config.ndcg_truncation
    scores_tr = np.zeros(len(X_tr), dtype=np.float64)
    scores_va = np.zeros(len(X_va), dtype=np.float64)
    trees = []
    history = []
    best_iter = -1
    best_valid = -math.inf
    for iteration in range(config.num_trees):
        lam, hess = ref_lambda_gradients(scores_tr, y_tr, groups_tr, k)
        tree = ref_fit_tree(X_tr, lam, hess, config.max_leaves, config.min_samples_leaf)
        trees.append(tree)
        scores_tr += config.learning_rate * tree.predict(X_tr)
        scores_va += config.learning_rate * tree.predict(X_va)
        train_ndcg = ref_mean_ndcg(scores_tr, y_tr, groups_tr, k)
        valid_ndcg = ref_mean_ndcg(scores_va, y_va, groups_va, k)
        history.append((iteration, train_ndcg, valid_ndcg))
        if valid_ndcg > best_valid:
            best_valid = valid_ndcg
            best_iter = iteration
        if iteration - best_iter >= config.patience:
            break
    ensemble = TreeEnsemble(
        trees=trees[:best_iter + 1],
        base_score=0.0,
        schema_name=table.schema.name,
        feature_names=tuple(table.schema.feature_names),
        config={
            "num_trees": config.num_trees,
            "max_leaves": config.max_leaves,
            "learning_rate": config.learning_rate,
            "min_samples_leaf": config.min_samples_leaf,
            "ndcg_truncation": config.ndcg_truncation,
            "seed": config.seed,
            "best_iteration": best_iter,
        },
        history=history,
    )
    ensemble.validation_precision_at_1 = ref_precision_at_1(
        ensemble.predict_matrix(X_va), y_va, groups_va)
    return ensemble


SCHEMA6 = FeatureSchema(
    "synthetic6", ("signal", "coarse", "constant", "noise", "ordinal", "coarse_reversed"))


def awkward_table(rng):
    """Random table with ties, a constant column and degenerate groups.

    Group lengths run from 1 to 150 (some repeat, so queries share a batch;
    150 passes the 128-element block of NumPy's pairwise sums); groups may
    be all relevant, all irrelevant or hold one irrelevant row among many
    relevant ones; feature values are rounded so ties are common. The last
    column is "coarse" reversed: its cuts make the same partitions with the
    sums taken from the other end, so which of the two wins depends on the
    last bits of the gains.
    """
    rows = []
    for q in range(rng.randrange(12, 40)):
        n = rng.choice([1, 2, 3, 5, 8, 8, 9, 12, 12, 20, 40, 150])
        kind = rng.random()
        if kind < 0.1:
            labels = [0] * n
        elif kind < 0.2:
            labels = [1] * n
        elif kind < 0.3:
            labels = [1] * (n - 1) + [0]
        else:
            labels = [1 if rng.random() < 0.3 else 0 for _ in range(n)]
        for i, label in enumerate(labels):
            coarse = float(rng.randrange(3))
            values = (
                round(label * 0.5 + rng.gauss(0.0, 0.5), 1),
                coarse,
                1.0,
                rng.gauss(0.0, 1.0),
                float(i // 3),
                2.0 - coarse,
            )
            rows.append(FeatureRow(f"q{q:03d}", f"c{i:03d}", values, label))
    return table_from_rows(SCHEMA6, rows)


class TestPresortedBitEquality:
    """``train`` on presorted columns and batched queries equals the
    per-node-argsort, per-query reference to the last bit."""

    @pytest.mark.parametrize("min_samples_leaf", [1, 3, 20])
    @pytest.mark.parametrize("max_leaves", [2, 7, 31])
    @pytest.mark.parametrize("ndcg_truncation", [1, 10])
    def test_matches_reference_trainer(self, min_samples_leaf, max_leaves, ndcg_truncation):
        for seed in range(3):
            rng = random.Random(1000 * max_leaves + 10 * min_samples_leaf + seed)
            table = awkward_table(rng)
            config = TrainConfig(
                num_trees=12, max_leaves=max_leaves, learning_rate=rng.choice([0.1, 0.5, 1.0]),
                min_samples_leaf=min_samples_leaf, ndcg_truncation=ndcg_truncation,
                seed=seed, validation_fraction=0.3, patience=6)
            try:
                expected = ref_train(table, config)
            except DataError:
                with pytest.raises(DataError):
                    train(table, config)
                continue
            got = train(table, config)
            assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())
            assert [(i, a.hex(), b.hex()) for i, a, b in got.history] == [
                (i, a.hex(), b.hex()) for i, a, b in expected.history]
            assert got.validation_precision_at_1.hex() == (
                expected.validation_precision_at_1.hex())
