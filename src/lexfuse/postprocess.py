"""Heuristic rank post-processing filters and their grid-search tuner.

Case-retrieval chain (default order): drop candidates dated after the
query's trial date, drop candidates that are themselves query cases,
limit how many result lists any candidate may appear in (refilling
emptied lists), then apply the dynamic score cutoff. Statute retrieval
uses the score-ratio threshold: the dynamic cutoff with no cap and
``l = 1``. All thresholds are strict: entries at exactly p*S are
dropped, candidates dated the same day are kept.
"""

import itertools
from dataclasses import dataclass, field

from .evaluation import ScoredList, macro_prf2, micro_prf1

#: Each filter a pipeline ``order`` may name -> the tuned parameters it takes, in
#: call order (t/s: list cap and refill size, h/l: max/min results, p: score ratio).
FILTERS = {"date": (), "query": (), "duplicate": ("t", "s"), "cutoff": ("h", "l", "p"),
           "threshold": ("p",)}


def parameters(order):
    """The parameter names the filters of ``order`` take, each once."""
    return tuple(dict.fromkeys(name for stage in order for name in FILTERS[stage]))


#: Best case-retrieval settings found on the tuning split (run-3 optimum),
#: used as the fallback when no tuned parameters are supplied.
TASK1_RUN3_PARAMS = {"p": 0.46, "h": 7, "l": 1, "t": 1, "s": 2}


def default_grid():
    """Tuning ranges covering the published optima for runs 1 and 2."""
    return {
        "p": [round(i * 0.05, 2) for i in range(21)],
        "h": list(range(1, 11)),
        "l": list(range(0, 5)),
        "t": list(range(1, 4)),
        "s": list(range(0, 4)),
    }


def filter_by_trial_date(runs, dates):
    """Drop candidates dated strictly after their query's trial date.

    Queries without a known date keep their whole list; candidates
    without a known date are kept.
    """
    out = {}
    for qid in sorted(runs):
        q_date = dates.get(qid)
        out[qid] = ScoredList(qid, [(doc_id, score) for doc_id, score in runs[qid].entries
                                    if q_date is None or dates.get(doc_id) is None
                                    or dates[doc_id] <= q_date])
    return out


def filter_query_cases(runs, query_ids):
    """Remove every candidate whose id is itself a query case."""
    query_ids = set(query_ids)
    return {qid: ScoredList(qid, [(d, s) for d, s in runs[qid].entries if d not in query_ids])
            for qid in sorted(runs)}


def filter_duplicates(runs, t, s):
    """Cap how many result lists any candidate appears in.

    Queries are swept in ascending id order and a candidate already kept
    in ``t`` earlier lists is dropped. A query whose list empties is
    refilled with its ``s`` highest-scoring original candidates; those
    refill entries are returned in the second value and do not count
    toward the cap.
    """
    kept_count = {}
    out = {}
    refilled = {}
    for qid in sorted(runs):
        entries = runs[qid].entries
        kept = []
        for doc_id, score in entries:
            if kept_count.get(doc_id, 0) >= t:
                continue
            kept.append((doc_id, score))
        if not kept and entries and s > 0:
            kept = list(entries[:s])
            refilled[qid] = {doc_id for doc_id, _ in kept}
        else:
            for doc_id, _ in kept:
                kept_count[doc_id] = kept_count.get(doc_id, 0) + 1
        out[qid] = ScoredList(qid, kept)
    return out, refilled


def dynamic_cutoff(runs, h, l, p):
    """Keep entries scoring above p*S, bounded to [l, h] results per query.

    S is the query's top score. After the threshold, the list is
    truncated to at most ``h``; if fewer than ``l`` entries survive, the
    next-best original entries are appended up to ``l`` (or the list
    length).
    """
    return _cutoff(runs, h, l, p)


def threshold_cutoff(runs, p):
    """Keep entries scoring above p*S; always return at least the top entry."""
    return _cutoff(runs, None, 1, p)


def _cutoff(runs, h, l, p):
    # The loop of both cutoffs; h None is no cap. Private, so a tracer that
    # wraps the public functions does not count a threshold call as a cutoff.
    out = {}
    for qid in sorted(runs):
        entries = runs[qid].entries
        threshold = p * entries[0][1] if entries else 0.0
        # Entries are sorted by score, so the passing ones form a prefix;
        # counting stops at the first failure or at h.
        count = 0
        for _, score in entries:
            if count == h or not score > threshold:
                break
            count += 1
        if count < l:
            count = min(l, len(entries))
        out[qid] = ScoredList(qid, entries[:count])
    return out


@dataclass
class PostprocessPipeline:
    """Parameterized filter chain applied by the tuner and the final run.

    ``order`` names the stages to apply; ``params`` must hold every
    parameter their filters take (``parameters(order)``).
    """

    dates: dict = field(default_factory=dict)
    query_ids: frozenset = frozenset()
    order: tuple = ("date", "query", "duplicate", "cutoff")

    def run_filter(self, name, runs, params):
        """Filter ``name`` run on ``runs``, given the values of its ``FILTERS[name]``
        parameters from ``params``; a missing one raises KeyError."""
        values = [params[key] for key in FILTERS[name]]
        # Module functions are looked up at each call, so a wrapped one is used.
        if name == "date":
            return filter_by_trial_date(runs, self.dates)
        if name == "query":
            return filter_query_cases(runs, self.query_ids)
        if name == "duplicate":
            return filter_duplicates(runs, *values)[0]
        return (dynamic_cutoff if name == "cutoff" else threshold_cutoff)(runs, *values)

    def apply(self, runs, params):
        for name in self.order:
            runs = self.run_filter(name, runs, params)
        return runs


_METRICS = {"micro_f1": micro_prf1, "macro_f2": macro_prf2}


def _tie_break_key(params):
    # Reproducibility order: smaller h, larger p, smaller t, s, l.
    return (params.get("h", 0), -params.get("p", 0.0), params.get("t", 0), params.get("s", 0),
            params.get("l", 0))


def grid_search(pipeline, grid, validation_runs, qrels, metric="micro_f1"):
    """Exhaustively evaluate every grid point; return (best params, table).

    Each point runs the filters of ``pipeline.order`` on ``validation_runs``.
    A filter's output is memoized by the names and parameter values of the
    filters up to it, so every distinct prefix of the chain is computed once
    per call (with the default order, date and query filters once and the
    duplicate filter once per (t, s)). The argmax is deterministic: ties
    break on (smaller h, larger p, smaller t, smaller s, smaller l), so
    the result does not depend on enumeration order.
    """
    metric_fn = _METRICS[metric]
    names = sorted(grid)
    table = []
    best = None
    memo = {}
    for combo in itertools.product(*(grid[name] for name in names)):
        params = dict(zip(names, combo))
        if "h" in params and "l" in params and params["l"] > params["h"]:
            continue  # infeasible: the cutoff minimum cannot exceed the maximum
        current, prefix = validation_runs, ()
        for name in pipeline.order[:-1]:
            prefix += ((name, *(params[key] for key in FILTERS[name])),)
            if prefix not in memo:
                memo[prefix] = pipeline.run_filter(name, current, params)
            current = memo[prefix]
        for name in pipeline.order[-1:]:  # the full chain is never shared
            current = pipeline.run_filter(name, current, params)
        report = metric_fn(current, qrels)
        table.append(dict(params, precision=report.precision, recall=report.recall,
                          f_measure=report.f_measure))
        key = (-report.f_measure, _tie_break_key(params))
        if best is None or key < best[0]:
            best = (key, params)
    if best is None:
        raise ValueError("no grid point: a grid value list is empty or every l exceeds every h")
    return best[1], table


def write_tuning_report(table, path):
    """One TSV row per grid point: parameters, then precision/recall/F."""
    if not table:
        raise ValueError("empty tuning table")
    params = [k for k in sorted(table[0]) if k not in ("precision", "recall", "f_measure")]
    columns = params + ["precision", "recall", "f_measure"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in table:
            cells = []
            for name in columns:
                value = row[name]
                cells.append(f"{value:.6f}" if isinstance(value, float) else str(value))
            fh.write("\t".join(cells) + "\n")


_RATE_TOLERANCE = 0.02  # how far from the target a multi-answer rate may be and still match


def tune_threshold_by_proportion(runs, p_values, target_fraction):
    """Pick the statute-retrieval threshold p matching a multi-answer rate.

    For each candidate p, measure the fraction of queries returning two
    or more articles after the threshold cutoff. Among values within
    ``_RATE_TOLERANCE`` of ``target_fraction`` the largest p wins; if none
    qualify, the closest (largest on ties) is returned; ``runs`` must not be empty.
    """
    measured = []
    for p in sorted(p_values):
        cut = threshold_cutoff(runs, p)
        frac = sum(1 for s in cut.values() if len(s) >= 2) / len(cut)
        measured.append((p, frac))
    within = [(p, frac) for p, frac in measured if abs(frac - target_fraction) <= _RATE_TOLERANCE]
    if within:
        return max(within)[0]
    return min(measured, key=lambda pf: (abs(pf[1] - target_fraction), -pf[0]))[0]
