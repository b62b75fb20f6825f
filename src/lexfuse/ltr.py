"""Gradient-boosted regression trees trained with a LambdaRank NDCG objective.

Boosting follows the LambdaMART recipe: per query, every (relevant,
irrelevant) pair contributes a lambda weighted by the NDCG@K change from
swapping the pair in the current ranking; each iteration fits a regression
tree to the lambdas with second-order (Newton) leaf values, and the
returned ensemble is truncated at the iteration with the best validation
NDCG. Split search is exact (no histograms): each feature column is
sorted once per training run and every node keeps its rows in that order
(the presorted layout of XGBoost). The objective runs over batches of
queries with the same number of rows and of relevant rows. Training is
fully deterministic under a fixed seed. Prediction ranks each query's
rows and min-max normalizes their scores into [1e-6, 1] in one pass.
"""

import math
import random
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .evaluation import DataError, ScoredList, _read_json, _write_json

MODEL_FORMAT = "lexfuse-ltr"
MODEL_VERSION = 1

_EPS = 1e-12
_MIN_GAIN = 1e-12
# Most (relevant, irrelevant) pairs one objective batch holds, which bounds
# the memory of its (queries, relevant, irrelevant) arrays.
_BATCH_PAIRS = 1 << 16
# TrainConfig fields that only steer training; model.json's config echo leaves them out.
_NOT_ECHOED = ("validation_fraction", "patience")
# The lowest normalized score ``predict`` gives.
_SCORE_FLOOR = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """Boosting settings; the objective is NDCG@ndcg_truncation.

    Use ``ndcg_truncation=1`` to optimize first-position precision
    (identical argmax behavior for binary labels).
    """

    num_trees: int = 300
    max_leaves: int = 31
    learning_rate: float = 0.05
    min_samples_leaf: int = 20
    ndcg_truncation: int = 10
    seed: int = 0
    validation_fraction: float = 0.2
    patience: int = 50


@dataclass
class RegressionTree:
    """Flat-array binary tree: feature[i] == -1 marks a leaf."""

    feature: list
    threshold: list
    left: list
    right: list
    value: list

    def predict(self, X):
        out = np.empty(len(X), dtype=np.float64)
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            mask = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[mask]))
            stack.append((self.right[node], idx[~mask]))
        return out

    def to_dict(self):
        return {f.name: list(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        return cls(**{f.name: list(data[f.name]) for f in fields(cls)})


@dataclass
class TreeEnsemble:
    trees: list
    base_score: float
    schema_name: str
    feature_names: tuple
    config: dict | None = None
    history: list = field(default_factory=list, repr=False, compare=False)
    validation_precision_at_1: float | None = None

    def predict_matrix(self, X):
        scores = np.full(len(X), self.base_score, dtype=np.float64)
        for tree in self.trees:
            scores += tree.predict(X)
        return scores

    def to_dict(self):
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "schema_name": self.schema_name,
            "feature_names": list(self.feature_names),
            "base_score": self.base_score,
            "config": self.config,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
            raise DataError("not a model file")
        if data.get("version") != MODEL_VERSION:
            raise DataError(f"unsupported model version: {data.get('version')!r}")
        model = cls(
            trees=[RegressionTree.from_dict(t) for t in data["trees"]],
            base_score=data["base_score"],
            schema_name=data["schema_name"],
            feature_names=tuple(data["feature_names"]),
            config=data.get("config"),
        )
        if type(model.base_score) is not float or not math.isfinite(model.base_score):
            raise DataError(f"base_score must be a finite float, got {model.base_score!r}")
        for k, t in enumerate(model.trees):
            n = len(t.feature)
            # A split's children follow it, so walking a tree always ends.
            if not n or {len(t.threshold), len(t.left), len(t.right), len(t.value)} != {n} or any(
                    {type(f), type(a), type(b)} != {int} or f != -1
                    and not (0 <= f < len(model.feature_names) and i < a < n and i < b < n)
                    for i, (f, a, b) in enumerate(zip(t.feature, t.left, t.right))
            ) or not all(type(v) is float and math.isfinite(v) for v in t.threshold + t.value):
                raise DataError(f"tree {k} is not a tree over the model's features")
        # Bounds every partial sum of predict_matrix; twice it bounds the
        # spread that predict's normalization divides by.
        bound = abs(model.base_score)
        for t in model.trees:
            bound += max(map(abs, t.value))
        if not math.isfinite(2 * bound):
            raise DataError("base_score and leaf values can sum beyond the float range")
        return model

    def save(self, path):
        _write_json(path, self.to_dict(), indent=None)

    @classmethod
    def load(cls, path):
        data = _read_json(path)
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed model: {exc}") from None


# -- tree fitting -------------------------------------------------------------

def _best_split(XT, grad, hess, order, g_sum, h_sum, min_samples_leaf):
    """Exact greedy split of one node over every feature at once.

    ``order[f]`` holds the node's rows sorted by feature f, ties by row id,
    so each cumulative sum runs over the rows in the order a stable sort of
    the node's values gives. Returns (gain, feature, threshold) or None.
    """
    n_features, n = order.shape
    # A cut after sorted position i leaves i + 1 rows on the left; both
    # sides need min_samples_leaf rows, so lo <= i < hi.
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    if lo >= hi:
        return None
    values = np.take_along_axis(XT, order, axis=1)
    left_g = np.cumsum(grad[order], axis=1)[:, lo:hi]
    left_h = np.cumsum(hess[order], axis=1)[:, lo:hi]
    parent = g_sum * g_sum / (h_sum + _EPS)
    gains = (
        left_g * left_g / (left_h + _EPS)
        + (g_sum - left_g) ** 2 / (h_sum - left_h + _EPS)
        - parent
    )
    gains = np.where(values[:, lo:hi] < values[:, lo + 1:hi + 1], gains, -np.inf)
    best_cut = np.argmax(gains, axis=1)
    best_gain = gains[np.arange(n_features), best_cut]
    best_gain = np.where(best_gain > _MIN_GAIN, best_gain, -np.inf)
    f = int(np.argmax(best_gain))
    if not best_gain[f] > _MIN_GAIN:
        return None
    j = lo + best_cut[f]
    return float(best_gain[f]), f, float((values[f, j] + values[f, j + 1]) / 2.0)


def _fit_tree(XT, grad, hess, presorted, max_leaves, min_samples_leaf):
    """Grow one tree best-first; returns it and the value it gives each row.

    ``XT`` is the (features, rows) matrix and ``presorted[f]`` every row
    sorted by feature f. A node keeps its rows in row order and in each
    feature's order; a split divides both with one row mask, which keeps
    every order, so no node sorts.
    """
    tree = RegressionTree([], [], [], [], [])
    members = {}
    pending = {}

    def open_leaf(rows, order):
        node = len(tree.feature)
        g_sum = grad[rows].sum()
        h_sum = hess[rows].sum()
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(float(g_sum / (h_sum + _EPS)))
        members[node] = (rows, order)
        pending[node] = _best_split(XT, grad, hess, order, g_sum, h_sum, min_samples_leaf)

    open_leaf(np.arange(XT.shape[1]), presorted)
    goes_left = np.zeros(XT.shape[1], dtype=bool)
    for _ in range(max_leaves - 1):
        splittable = [node for node in sorted(pending) if pending[node] is not None]
        if not splittable:
            break
        chosen = max(splittable, key=lambda node: pending[node][0])
        _, f, thr = pending.pop(chosen)
        rows, order = members.pop(chosen)
        goes_left[rows] = XT[f, rows] <= thr
        in_left = goes_left[order]
        tree.feature[chosen] = f
        tree.threshold[chosen] = thr
        tree.left[chosen] = len(tree.feature)
        tree.right[chosen] = len(tree.feature) + 1
        tree.value[chosen] = 0.0
        open_leaf(rows[goes_left[rows]], order[in_left].reshape(len(order), -1))
        open_leaf(rows[~goes_left[rows]], order[~in_left].reshape(len(order), -1))
    fitted = np.empty(XT.shape[1], dtype=np.float64)
    for node, (rows, _) in members.items():
        fitted[rows] = tree.value[node]
    return tree, fitted


# -- lambda gradients ----------------------------------------------------------

def _batches(labels, groups):
    """The query groups with a relevant row, batched by shape: (rows, relevant rows).

    Returns (queries, rows, relevant, irrelevant) tuples: the index of each
    query in ``groups`` and its row ids, one query per array row, in row
    order. A query with no relevant row has no NDCG and no lambda, so it is
    left out here. Labels never change in a training run, so this runs once.
    """
    shapes = {}
    for q, (start, end) in enumerate(groups):
        n_pos = int(labels[start:end].sum())
        if n_pos:
            shapes.setdefault((end - start, n_pos), []).append(q)
    batches = []
    for (n, n_pos), queries in shapes.items():
        step = max(1, _BATCH_PAIRS // max(n, n_pos * (n - n_pos)))
        for i in range(0, len(queries), step):
            q = np.asarray(queries[i:i + step])
            rows = np.asarray([groups[j][0] for j in q])[:, None] + np.arange(n)
            relevant = labels[rows] == 1
            batches.append((q, rows, rows[relevant].reshape(len(q), n_pos),
                            rows[~relevant].reshape(len(q), n - n_pos)))
    return batches


def _ranked(scores, rows):
    """Each query's rows by score desc, ties by row position (stable)."""
    return np.take_along_axis(rows, np.argsort(-scores[rows], axis=1, kind="stable"), axis=1)


def _rank_log2(n):
    """``math.log2(rank + 1)`` for ranks 1..n: the NDCG rank discounts' denominators.

    ``np.log2`` can differ from it in the last bit, by the CPU's SIMD level.
    """
    return np.array([math.log2(rank + 1) for rank in range(1, n + 1)])


def _mean_ndcg(scores, labels, batches, k):
    """Mean NDCG@k over the batched queries; 0.0 if there are none.

    The per-query values are averaged in ``groups`` order, as one array.
    With binary labels, NDCG@1 is precision at 1.
    """
    if not batches:
        return 0.0
    values = []
    for _, rows, relevant, _ in batches:
        ranked = labels[_ranked(scores, rows)][:, :k]
        logs = _rank_log2(ranked.shape[1])
        dcg = np.sum(ranked / logs, axis=1)
        idcg = float(np.sum(1.0 / logs[:min(k, relevant.shape[1])]))
        values.append(dcg / idcg)
    order = np.argsort(np.concatenate([q for q, _, _, _ in batches]))
    return float(np.mean(np.concatenate(values)[order]))


def _lambda_gradients(scores, batches, k):
    """Per-row lambda and its curvature; a query with no irrelevant row gets zeros."""
    rank = np.full(len(scores), k + 1, dtype=np.int64)
    for _, rows, _, _ in batches:
        rank[_ranked(scores, rows)] = np.arange(1, rows.shape[1] + 1)
    # 1 / log2(rank + 1) up to rank n, then 0: a rank past n is past k (k + 1 if unranked).
    n = min(k, max((rows.shape[1] for _, rows, _, _ in batches), default=0))
    discounts = np.append(1.0 / _rank_log2(n), 0.0)
    discount = discounts[np.minimum(rank, n + 1) - 1]
    lam = np.zeros(len(scores), dtype=np.float64)
    hess = np.zeros(len(scores), dtype=np.float64)
    for _, _, pos, neg in batches:
        idcg = float(np.sum(discounts[:min(k, pos.shape[1])]))
        diff = np.clip(scores[pos][:, :, None] - scores[neg][:, None, :], -60.0, 60.0)
        # math.exp, not np.exp: numpy's exp rounds differently at each SIMD level.
        exp = np.fromiter(map(math.exp, diff.ravel().tolist()), np.float64, diff.size)
        rho = 1.0 / (1.0 + exp.reshape(diff.shape))
        delta = np.abs(discount[pos][:, :, None] - discount[neg][:, None, :]) / idcg
        weighted = rho * delta
        lam[pos] += weighted.sum(axis=2)
        lam[neg] -= weighted.sum(axis=1)
        curvature = rho * (1.0 - rho) * delta
        hess[pos] += curvature.sum(axis=2)
        hess[neg] += curvature.sum(axis=1)
    return lam, hess


# -- training -------------------------------------------------------------------

def _validation_queries(qids, config):
    """The seeded ``validation_fraction`` of ``qids`` that early stopping scores, as a set."""
    shuffled = sorted(qids)
    random.Random(config.seed).shuffle(shuffled)
    n_valid = max(1, round(config.validation_fraction * len(shuffled)))
    if n_valid >= len(shuffled):
        raise DataError(f"ltr_validation_fraction {config.validation_fraction} puts {n_valid} "
                        f"of the {len(shuffled)} queries in validation, leaving none to train")
    return set(shuffled[:n_valid])


def train(table, config=TrainConfig()):
    """Fit a LambdaMART ensemble to a labeled FeatureTable.

    Requires at least two queries carrying both a relevant and an
    irrelevant row. The ensemble is truncated at the iteration with the
    best validation NDCG; training stops early after ``patience``
    iterations without improvement.
    """
    y = table.labels
    if (y < 0).any():
        i = int(np.argmax(y < 0))  # the first unlabeled row
        raise DataError(f"row ({table.query_ids[i]}, {table.candidate_ids[i]}) has no label")
    if int(y.sum()) == 0:
        raise DataError("no positive labels anywhere in the table")
    mixed = sum(
        1 for start, end in table.blocks.values()
        if y[start:end].sum() > 0 and (y[start:end] == 0).sum() > 0
    )
    if mixed < 2:
        raise DataError(
            "need at least 2 queries with both relevant and irrelevant rows, "
            f"got {mixed}"
        )

    valid = _validation_queries(table.blocks, config)
    part_tr, part_va = table.select(table.blocks.keys() - valid), table.select(valid)
    X_tr, y_tr, X_va, y_va = part_tr.X, part_tr.labels, part_va.X, part_va.labels
    batches_tr = _batches(y_tr, list(part_tr.blocks.values()))
    batches_va = _batches(y_va, list(part_va.blocks.values()))
    XT = np.ascontiguousarray(X_tr.T)
    presorted = np.argsort(XT, axis=1, kind="mergesort")

    k = config.ndcg_truncation
    scores_tr = np.zeros(len(X_tr), dtype=np.float64)
    scores_va = np.zeros(len(X_va), dtype=np.float64)
    trees = []
    history = []
    best_iter = -1
    best_valid = -math.inf
    for iteration in range(config.num_trees):
        lam, hess = _lambda_gradients(scores_tr, batches_tr, k)
        tree, fitted = _fit_tree(XT, lam, hess, presorted, config.max_leaves,
                                 config.min_samples_leaf)
        trees.append(tree)
        scores_tr += config.learning_rate * fitted
        scores_va += config.learning_rate * tree.predict(X_va)
        train_ndcg = _mean_ndcg(scores_tr, y_tr, batches_tr, k)
        valid_ndcg = _mean_ndcg(scores_va, y_va, batches_va, k)
        history.append((iteration, train_ndcg, valid_ndcg))
        if valid_ndcg > best_valid:
            best_valid = valid_ndcg
            best_iter = iteration
        if iteration - best_iter >= config.patience:
            break

    kept = trees[:best_iter + 1]
    ensemble = TreeEnsemble(
        trees=kept,
        base_score=0.0,
        schema_name=table.schema.name,
        feature_names=tuple(table.schema.feature_names),
        config={**{key: value for key, value in asdict(config).items() if key not in _NOT_ECHOED},
                "best_iteration": best_iter},
        history=history,
    )
    best_scores = ensemble.predict_matrix(X_va)
    ensemble.validation_precision_at_1 = _mean_ndcg(best_scores, y_va, batches_va, 1)
    return ensemble


def predict(model, table):
    """Score a FeatureTable; returns {query_id: ScoredList}, ties ranked by id.

    Each query's scores are min-max normalized into [1e-6, 1] (all 1.0 when
    equal): tree outputs can be negative, which breaks the score-ratio
    cutoffs (p * S exceeds S when S < 0). The map is strictly monotone, so
    rankings are unchanged, it survives the run file's six-decimal
    quantization, and it pins the top score S at 1.0.
    """
    if tuple(table.schema.feature_names) != tuple(model.feature_names):
        raise DataError(f"table schema {table.schema.name!r} does not match model "
                        f"schema {model.schema_name!r}")
    scores = model.predict_matrix(table.X)
    runs = {}
    for qid, (start, end) in table.blocks.items():
        # Rows run in candidate-id order, so the stable sort keeps tied ids ascending.
        order = np.argsort(-scores[start:end], kind="stable")
        ranked = scores[start:end][order]
        span = ranked[0] - ranked[-1]
        normalized = np.ones(len(ranked)) if span <= 0 else (
            _SCORE_FLOOR + (1.0 - _SCORE_FLOOR) * (ranked - ranked[-1]) / span)
        cids = table.candidate_ids[start:end]
        runs[qid] = ScoredList(qid, list(zip([cids[i] for i in order], normalized.tolist())))
    return runs


def write_training_log(history, path):
    """Per-iteration TSV: iteration, train NDCG, validation NDCG."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration\ttrain_ndcg\tvalid_ndcg\n")
        for iteration, train_ndcg, valid_ndcg in history:
            fh.write(f"{iteration}\t{train_ndcg:.6f}\t{valid_ndcg:.6f}\n")
