"""Synthetic corpus generator with planted relevance.

Each query document shares a set of injected rare terms with its relevant
candidates, so lexical scorers genuinely separate relevant pairs. Decoy
candidates share a weaker subset of those terms but are dated after the
query's trial date, and query cases live in the candidate pool, so the
date and query-case filters have real work to do. The generator also
emits pseudo dense-model score dumps (a noisy oracle over the planted
overlap) usable as external learning-to-rank features.
"""

import random
from dataclasses import dataclass
from pathlib import Path

from .evaluation import SettingError, _write_json, write_qrels
from .ingest import PLACEHOLDERS

_CONSONANTS = "bcdfglmnprstv"
_VOWELS = "aeiou"

_FILLER_GLUE = (
    "the of and to in that for on with as court case appeal claim judge "
    "party motion order evidence costs hearing decision counsel record "
    "finding issue matter application respondent plaintiff"
).split()

_MONTH_NAMES = (
    "January February March April May June July August September "
    "October November December"
).split()

_FRENCH_FILLER = (
    "le la les de des du un une et en que qui dans pour pas sur au aux "
    "avec ce cette il elle ne nous vous se ou mais donc plus par est sont"
).split()

_RARE_TERMS_PER_QUERY = 6
_RELEVANT_SHARED_RANGE = (3, 6)
_DECOY_SHARED_RANGE = (3, 5)  # overlaps the relevant range: hard negatives
_EXTERNAL_NOISE = 0.15


@dataclass(frozen=True)
class SyntheticSpec:
    num_queries: int = 100
    num_candidates: int = 850
    relevant_per_query: float = 4.16
    vocab_size: int = 500
    overlap_strength: int = 3
    seed: int = 0
    decoys_per_query: int = 3


_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_MAX_VOCAB = len(_SYLLABLES) ** 2 + len(_SYLLABLES) ** 3  # every word _make_vocab can draw


def _make_vocab(size, rng):
    words = set()
    while len(words) < size:
        n = rng.choice((2, 3))
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(n)))
    return sorted(words)


def _date_text(rng, year):
    month = rng.randrange(12)
    day = rng.randrange(1, 28)
    return f"{_MONTH_NAMES[month]} {day}, {year}"


def _paragraph(rng, vocab, n_words, planted=()):
    words = []
    for _ in range(n_words):
        roll = rng.random()
        if roll < 0.35:
            words.append(rng.choice(_FILLER_GLUE))
        else:
            words.append(rng.choice(vocab))
    words.extend(planted)
    rng.shuffle(words)
    return " ".join(words)


def _french_paragraph(rng, vocab, n_words):
    # Heavy in French function words, free of English ones, so the
    # stopword-ratio filter classifies it reliably.
    words = [rng.choice(_FRENCH_FILLER) if rng.random() < 0.6 else rng.choice(vocab)
             for _ in range(n_words)]
    return " ".join(words)


def _document_text(rng, vocab, trial_year, planted, with_summary, with_french):
    filed = _date_text(rng, trial_year - rng.randrange(1, 4))
    heard = _date_text(rng, trial_year)
    preamble = (
        f"Court file T-{rng.randrange(100, 9999)}. "
        f"Application filed {filed}. Heard at Ottawa on {heard}."
    )
    # Spread the planted terms over the body paragraphs.
    paragraphs = []
    n_paras = rng.randrange(2, 5)
    chunks = [planted[i::n_paras] for i in range(n_paras)]
    for i in range(n_paras):
        n_words = rng.randrange(30, 60)
        extra = []
        if rng.random() < 0.35:
            extra = [rng.choice(PLACEHOLDERS)]
        paragraphs.append(_paragraph(rng, vocab, n_words, list(chunks[i]) + extra))
    body = "\n\n".join(paragraphs)
    parts = [preamble, f"[1] {body}"]
    if with_summary:
        summary = _paragraph(rng, vocab, 20, list(planted[:2]))
        parts.append(f"Summary:\n{summary}")
    if with_french:
        parts.append(_french_paragraph(rng, vocab, 40))
    return "\n\n".join(parts)


def _sample_relevant_count(rng, mean):
    base = int(mean)
    return base + (1 if rng.random() < mean - base else 0)


def generate(spec, out_dir):
    """Write corpus/, queries.json, qrels.json, splits.json, external dumps.

    Returns a summary dict (counts and paths). Fully deterministic for a
    given spec.
    """
    if spec.vocab_size > _MAX_VOCAB:
        raise SettingError(f"config key 'synth_vocab_size': {spec.vocab_size} is too large; "
                           f"the syllable table makes at most {_MAX_VOCAB} distinct words")
    rng = random.Random(spec.seed)
    vocab = _make_vocab(spec.vocab_size, rng)

    query_ids = [f"q{i:04d}" for i in range(spec.num_queries)]
    rel_counts = {qid: _sample_relevant_count(rng, spec.relevant_per_query)
                  for qid in query_ids}
    needed = sum(rel_counts.values()) + spec.num_queries * spec.decoys_per_query
    if spec.num_candidates < needed + spec.num_queries:
        raise SettingError(
            f"config key 'synth_num_candidates': {spec.num_candidates} is too small; need "
            f"at least {needed + spec.num_queries} for planted docs plus background"
        )
    out = Path(out_dir)
    corpus_dir = out / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)

    next_candidate = 0

    def new_cid():
        nonlocal next_candidate
        cid = f"c{next_candidate:04d}"
        next_candidate += 1
        return cid

    texts = {}
    qrels = {}
    overlap = {}  # (query, doc) -> shared planted-term count

    for qnum, qid in enumerate(query_ids):
        terms = [f"casemark{qnum:03d}v{i}" for i in range(_RARE_TERMS_PER_QUERY)]
        trial_year = rng.randrange(2005, 2016)
        injected = [t for t in terms for _ in range(spec.overlap_strength)]
        texts[qid] = _document_text(
            rng, vocab, trial_year, injected,
            with_summary=rng.random() < 0.3, with_french=rng.random() < 0.1,
        )
        overlap[(qid, qid)] = _RARE_TERMS_PER_QUERY
        # Interleave relevant and decoy id allocation so candidate-id
        # tie-breaks carry no information about the label.
        kinds = ["relevant"] * rel_counts[qid] + ["decoy"] * spec.decoys_per_query
        rng.shuffle(kinds)
        relevant = []
        for kind in kinds:
            cid = new_cid()
            if kind == "relevant":
                relevant.append(cid)
                # Graded lexical overlap keeps relevance separable but not
                # one-split trivial for the fusion trainer.
                n_shared = rng.randrange(_RELEVANT_SHARED_RANGE[0],
                                         _RELEVANT_SHARED_RANGE[1] + 1)
                shared = [t for t in terms[:n_shared]
                          for _ in range(spec.overlap_strength)]
                texts[cid] = _document_text(
                    rng, vocab, trial_year - rng.randrange(1, 6), shared,
                    with_summary=rng.random() < 0.3,
                    with_french=rng.random() < 0.1,
                )
            else:
                n_shared = rng.randrange(_DECOY_SHARED_RANGE[0],
                                         _DECOY_SHARED_RANGE[1] + 1)
                shared = [t for t in terms[:n_shared]
                          for _ in range(spec.overlap_strength)]
                texts[cid] = _document_text(
                    rng, vocab, trial_year + rng.randrange(1, 4), shared,
                    with_summary=False, with_french=rng.random() < 0.1,
                )
            overlap[(qid, cid)] = n_shared
        qrels[qid] = sorted(relevant)

    while next_candidate < spec.num_candidates:
        cid = new_cid()
        texts[cid] = _document_text(
            rng, vocab, rng.randrange(2000, 2021), [],
            with_summary=rng.random() < 0.3, with_french=rng.random() < 0.1,
        )

    for doc_id in sorted(texts):
        (corpus_dir / f"{doc_id}.txt").write_text(texts[doc_id], encoding="utf-8")

    _write_json(out / "queries.json", query_ids)
    write_qrels(qrels, out / "qrels.json")

    shuffled = list(query_ids)
    rng.shuffle(shuffled)
    n_train = int(0.5 * len(shuffled))
    n_tune = int(0.3 * len(shuffled))
    splits = {
        "train": sorted(shuffled[:n_train]),
        "tune": sorted(shuffled[n_train:n_train + n_tune]),
        "test": sorted(shuffled[n_train + n_tune:]),
    }
    _write_json(out / "splits.json", splits)

    # Pseudo dense scores: noisy oracle over the planted overlap.
    for name in ("SAILER", "DELTA"):
        with open(out / f"external_{name}.tsv", "w", encoding="utf-8") as fh:
            for qid, doc_id in sorted(overlap):
                score = overlap[(qid, doc_id)] / _RARE_TERMS_PER_QUERY
                score += rng.gauss(0.0, _EXTERNAL_NOISE)
                fh.write(f"{qid}\t{doc_id}\t{score:.6f}\n")

    return {
        "corpus_dir": str(corpus_dir),
        "documents": len(texts),
        "queries": len(query_ids),
        "relevant_pairs": sum(len(d) for d in qrels.values()),
    }
