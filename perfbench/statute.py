"""Seeded statute-retrieval inputs for the benchmark's ``statute`` workload.

Writes, under one directory:

- ``corpus/<article>.txt``: articles with ``Part ...`` / ``Chapter ...``
  lead-in lines and a ``(...)`` caption line, which lexfuse's article
  cleaner must drop;
- ``questions/<question>.txt``: one question per file, outside the corpus;
- ``queries.json``, ``qrels.json`` and ``splits.json`` (train/tune/test);
- ``rerank_<name>.tsv`` for the five reranker features of the
  ``task3_v1`` schema.

Each article carries a few key terms of its own. A question repeats only
some of its answer's key terms and borrows key terms from a neighbouring
article of the same chapter, so lexical scoring ranks hard negatives high.
About 30% of questions have two relevant articles. Each reranker dump is a
noisy oracle over a question's relevant articles plus sampled non-relevant
ones (mostly same-chapter neighbours); the rerankers differ in noise, so
the learning-to-rank stage has to combine them and keeps many trees.
"""

import json
import random
from pathlib import Path

RERANKER_NOISE = {
    "BERT": 0.8,
    "RoBERTa": 0.75,
    "LEGALBERT": 0.7,
    "monoT5_large": 0.65,
    "monoT5_3B": 0.6,
}

_ARTICLES_PER_CHAPTER = 12
_CHAPTERS_PER_PART = 6
_KEY_TERMS = 6
_TWO_ANSWER_SHARE = 0.3
_NEGATIVES_PER_QUESTION = 20
_ROMAN = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X",
          "XI", "XII", "XIII", "XIV", "XV", "XVI", "XVII", "XVIII", "XIX", "XX")

_GLUE = (
    "the of and to in a person shall may be by any other under this that "
    "such or not with right obligation party if when"
).split()

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _vocab(rng, size):
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(syllables) for _ in range(rng.choice((2, 3, 4)))))
    return sorted(words)


def _sentence(rng, vocab, n_words, planted):
    words = [rng.choice(_GLUE) if rng.random() < 0.45 else rng.choice(vocab)
             for _ in range(n_words)]
    words.extend(planted)
    rng.shuffle(words)
    return " ".join(words)


def _article_text(rng, vocab, number, part, chapter, key_terms):
    lines = [
        f"Part {_ROMAN[part % len(_ROMAN)]} {' '.join(rng.sample(vocab, 2))}",
        f"Chapter {chapter + 1} {' '.join(rng.sample(vocab, 2))}",
        f"({' '.join(rng.sample(vocab, 2))})",
        f"Article {number} (1) " + _sentence(rng, vocab, rng.randrange(18, 30), key_terms[:3]),
        "(2) " + _sentence(rng, vocab, rng.randrange(14, 26), key_terms[3:] + key_terms[:1]),
    ]
    return "\n".join(lines) + "\n"


def generate(out_dir, seed, num_articles, num_questions):
    """Write a statute corpus and its questions; return lexfuse config keys.

    The returned keys point at the written files. The output depends only
    on the arguments.
    """
    if num_articles < 2 * _ARTICLES_PER_CHAPTER or num_questions < 10:
        raise ValueError("need at least 24 articles and 10 questions")
    rng = random.Random(seed)
    out = Path(out_dir)
    corpus = out / "corpus"
    questions_dir = out / "questions"
    corpus.mkdir(parents=True)
    questions_dir.mkdir(parents=True)

    vocab = _vocab(rng, 1200)
    terms = rng.sample(vocab, len(vocab))
    pool = terms[:400]  # key terms; the remainder is background vocabulary
    background = terms[400:]
    article_ids = [f"a{i:04d}" for i in range(num_articles)]
    keys = {}
    chapter_of = {}
    for i, aid in enumerate(article_ids):
        chapter = i // _ARTICLES_PER_CHAPTER
        chapter_of[aid] = chapter
        keys[aid] = rng.sample(pool, _KEY_TERMS)
        text = _article_text(rng, background, i + 1, chapter // _CHAPTERS_PER_PART,
                             chapter, keys[aid])
        (corpus / f"{aid}.txt").write_text(text, encoding="utf-8")

    chapters = {}
    for aid in article_ids:
        chapters.setdefault(chapter_of[aid], []).append(aid)

    question_ids = [f"q{i:04d}" for i in range(num_questions)]
    qrels = {}
    for qid in question_ids:
        answer = rng.choice(article_ids)
        siblings = [a for a in chapters[chapter_of[answer]] if a != answer]
        relevant = [answer]
        if rng.random() < _TWO_ANSWER_SHARE:
            relevant.append(rng.choice(siblings))
        decoy = rng.choice([a for a in siblings if a not in relevant])
        planted = []
        for aid in relevant:
            planted.extend(rng.sample(keys[aid], rng.randrange(1, 4)))
        planted.extend(rng.sample(keys[decoy], rng.randrange(2, 4)))
        text = _sentence(rng, background, rng.randrange(10, 20), planted)
        (questions_dir / f"{qid}.txt").write_text(text + "?\n", encoding="utf-8")
        qrels[qid] = sorted(relevant)

    for name, noise in RERANKER_NOISE.items():
        with open(out / f"rerank_{name}.tsv", "w", encoding="utf-8") as fh:
            for qid in question_ids:
                relevant = set(qrels[qid])
                same_chapter = {a for aid in relevant for a in chapters[chapter_of[aid]]}
                negatives = sorted(same_chapter - relevant)
                others = rng.sample(article_ids, _NEGATIVES_PER_QUESTION)
                negatives += sorted(set(others) - relevant - set(negatives))
                for aid in sorted(relevant) + negatives[:_NEGATIVES_PER_QUESTION]:
                    signal = 1.0 if aid in relevant else (0.5 if aid in same_chapter else 0.0)
                    fh.write(f"{qid}\t{aid}\t{signal + rng.gauss(0.0, noise):.6f}\n")

    shuffled = list(question_ids)
    rng.shuffle(shuffled)
    n_train = num_questions // 2
    n_tune = (3 * num_questions) // 10
    splits = {
        "train": sorted(shuffled[:n_train]),
        "tune": sorted(shuffled[n_train:n_train + n_tune]),
        "test": sorted(shuffled[n_train + n_tune:]),
    }
    (out / "queries.json").write_text(json.dumps(question_ids, indent=1), encoding="utf-8")
    (out / "qrels.json").write_text(json.dumps(qrels, sort_keys=True, indent=1),
                                    encoding="utf-8")
    (out / "splits.json").write_text(json.dumps(splits, sort_keys=True, indent=1),
                                     encoding="utf-8")
    config = {
        "corpus_dir": str(corpus),
        "queries_dir": str(questions_dir),
        "queries_file": str(out / "queries.json"),
        "qrels_file": str(out / "qrels.json"),
        "splits_file": str(out / "splits.json"),
        "external_scores": {name: str(out / f"rerank_{name}.tsv") for name in RERANKER_NOISE},
    }
    return config
