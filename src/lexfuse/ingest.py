"""Heuristic cleaning of raw case documents and statute articles.

Case cleaning: drop the procedural preamble before the "[1]" marker,
strip suppression placeholders, remove French passages, hoist the summary
section to the front, and record the latest date found as the trial date.
Article cleaning: drop structural lead-in lines and parenthesized caption
headings. The tokenizer shared by ingest (token lengths), indexing and
query scoring lives here too.
"""

import json
import os
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .evaluation import DataError, _text

PREAMBLE_MARKER = "[1]"

PLACEHOLDERS = (
    "FRAGMENT_SUPPRESSED",
    "REFERENCE_SUPPRESSED",
    "CITATION_SUPPRESSED",
)

_PLACEHOLDER_RE = re.compile(r"\s*(?:" + "|".join(PLACEHOLDERS) + r")\s*")

# Top-50 function words per language, used by the stopword-ratio language
# heuristic. A paragraph counts as non-English only when English function
# words almost vanish AND French ones are clearly present. "a" is left off
# the English list: it is also the third-person form of French "avoir".
ENGLISH_FUNCTION_WORDS = frozenset(
    """the of and to in is was that it he for on are as with his they at be
    this have from or had by not but what all were we when your can said there
    use an each which she do how their if will up other about would""".split()
)
FRENCH_FUNCTION_WORDS = frozenset(
    """le la les de des du un une et en que qui dans pour pas sur au aux avec
    son sa ses ce cette ces il elle ils elles ne je tu nous vous se ou mais
    donc car ni y à été être avoir est sont fait plus par""".split()
)

_ENGLISH_RATIO_FLOOR = 0.02
_FRENCH_RATIO_FLOOR = 0.05
_MAJORITY_NON_ENGLISH = 0.80

_LANG_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

_MONTHS = {
    name: i + 1
    for i, name in enumerate(
        "january february march april may june july august september "
        "october november december".split()
    )
}
# ASCII-only inside IGNORECASE: Unicode folding would match "İ", "ı" and "ſ" to
# "i" and "s", and lower() does not map them back to a _MONTHS key.
_MONTH_ALT = "(?a:" + "|".join(_MONTHS) + ")"
_DATE_PATTERNS = (
    # Month D, YYYY
    (re.compile(rf"\b({_MONTH_ALT})\s+(\d{{1,2}}),\s*(\d{{4}})\b", re.IGNORECASE),
     lambda m: (int(m.group(3)), _MONTHS[m.group(1).lower()], int(m.group(2)))),
    # D Month YYYY
    (re.compile(rf"\b(\d{{1,2}})\s+({_MONTH_ALT})\s+(\d{{4}})\b", re.IGNORECASE),
     lambda m: (int(m.group(3)), _MONTHS[m.group(2).lower()], int(m.group(1)))),
    # YYYY-MM-DD
    (re.compile(r"\b(\d{4})-(\d{2})-(\d{2})\b"),
     lambda m: (int(m.group(1)), int(m.group(2)), int(m.group(3)))),
    # MM/DD/YYYY
    (re.compile(r"\b(\d{1,2})/(\d{1,2})/(\d{4})\b"),
     lambda m: (int(m.group(3)), int(m.group(1)), int(m.group(2)))),
)


# Letters and digits only; "_" is a boundary, so n-gram joints stay unambiguous.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    min_token_len: int = 1
    ngram_lo: int = 1
    ngram_hi: int = 1


def tokenize(text, config=TokenizerConfig()):
    """Split ``text`` on non-alphanumeric boundaries and expand n-grams.

    The text is put in Unicode NFC first, so a letter written with a
    combining accent is one letter and does not split its word. Lowercasing
    comes after and can still decompose: ``"İ".lower()`` is "i" plus U+0307,
    which splits the word there.

    Tokens shorter than ``min_token_len`` are dropped before expansion.
    Every contiguous n-gram for n in [ngram_lo, ngram_hi] is emitted,
    joined with "_".
    """
    if not text.isascii():  # ASCII text is in NFC: stages on an ASCII corpus never map unicodedata
        from unicodedata import normalize
        text = normalize("NFC", text)
    source = text.lower() if config.lowercase else text
    words = _WORD_RE.findall(source)
    if config.min_token_len > 1:
        words = [w for w in words if len(w) >= config.min_token_len]
    if config.ngram_lo == 1 and config.ngram_hi == 1:
        return words
    out = []
    for n in range(config.ngram_lo, min(config.ngram_hi, len(words)) + 1):
        if n == 1:
            out.extend(words)
        else:
            out.extend("_".join(words[i:i + n]) for i in range(len(words) - n + 1))
    return out


@dataclass(frozen=True)
class RawDocument:
    id: str
    text: str


@dataclass
class CleanDocument:
    id: str
    body: str
    summary: str | None = None
    trial_date: date | None = None
    placeholder_count: int = 0
    token_length: int = 0

    @property
    def text(self):
        """Indexable text with the summary hoisted to the front."""
        if self.summary:
            return self.summary + "\n\n" + self.body if self.body else self.summary
        return self.body


# The feature columns read from a CleanDocument: name -> (the query's or the
# candidate's document, attribute). No score file can supply them.
DOCUMENT_FEATURES = {
    "query_length": ("query", "token_length"),
    "candidate_length": ("candidate", "token_length"),
    "article_length": ("candidate", "token_length"),
    "query_ref_num": ("query", "placeholder_count"),
    "doc_ref_num": ("candidate", "placeholder_count"),
}


@dataclass
class IngestStats:
    documents: int = 0
    placeholders_removed: int = 0
    paragraphs_dropped: int = 0
    kept_verbatim_ids: list = field(default_factory=list)
    dated_documents: int = 0


def strip_preamble(text):
    """Return the text from the first "[1]" marker onward, or all of it."""
    pos = text.find(PREAMBLE_MARKER)
    return text if pos < 0 else text[pos:]


def remove_placeholders(text):
    """Remove suppression placeholders; return (cleaned, count removed).

    Whitespace around each removed placeholder collapses to one space;
    leading/trailing residue is stripped.
    """
    cleaned, count = _PLACEHOLDER_RE.subn(" ", text)
    if count:
        cleaned = cleaned.strip()
    return cleaned, count


def _language_word_ratios(paragraph):
    words = _LANG_WORD_RE.findall(paragraph.lower())
    if not words:
        return 1.0, 0.0  # empty/blank blocks are never "French"
    eng = sum(1 for w in words if w in ENGLISH_FUNCTION_WORDS) / len(words)
    fra = sum(1 for w in words if w in FRENCH_FUNCTION_WORDS) / len(words)
    return eng, fra


def _is_non_english(paragraph):
    eng, fra = _language_word_ratios(paragraph)
    return eng < _ENGLISH_RATIO_FLOOR and fra >= _FRENCH_RATIO_FLOOR


def filter_non_english(text):
    """Drop paragraphs classified as French by the stopword-ratio heuristic.

    Returns ``(text, dropped_count, kept_verbatim)``. Documents that are
    mostly French are returned verbatim with ``kept_verbatim`` set (the
    pipeline records a flag instead of translating them).
    """
    if not text.strip():
        return text, 0, False
    paragraphs = re.split(r"\n\s*\n", text)
    flags = [_is_non_english(p) for p in paragraphs]
    dropped = sum(flags)
    if dropped == 0:
        return text, 0, False
    if dropped / len(paragraphs) > _MAJORITY_NON_ENGLISH:
        # Mostly French: keep the document as-is and let the caller flag it.
        return text, 0, True
    kept = [p for p, bad in zip(paragraphs, flags) if not bad]
    return "\n\n".join(kept), dropped, False


def _looks_like_heading(stripped):
    if not stripped or len(stripped) > 60:
        return False
    if stripped.endswith(":"):
        return True
    if stripped.endswith((".", "!", "?", ",", ";")):
        return False
    words = stripped.split()
    if not 1 <= len(words) <= 6 or not stripped[0].isupper():
        return False
    # Title case: every substantial word capitalized ("Reasons for Judgment").
    return all(w[0].isupper() for w in words if w[0].isalpha() and len(w) > 3)


def extract_summary(text):
    """Locate the summary section; return (heading_line, end_line, body) or None.

    The section runs from the line after a standalone "summary"/"summary:"
    heading to the next blank-line-delimited heading (or end of text).
    """
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip().lower() in ("summary", "summary:"):
            start = i
            break
    if start is None:
        return None
    end = len(lines)
    for j in range(start + 1, len(lines)):
        preceded_by_blank = lines[j - 1].strip() == "" and j - 1 > start
        if preceded_by_blank and _looks_like_heading(lines[j].strip()):
            end = j
            break
    section = "\n".join(lines[start + 1:end]).strip()
    if not section:
        return None
    return start, end, section


def extract_trial_date(text):
    """Latest parseable date in the text, or None.

    Recognized formats: "Month D, YYYY", "D Month YYYY", "YYYY-MM-DD",
    "MM/DD/YYYY". Calendar-invalid matches are skipped; bare years are
    not treated as dates.
    """
    best = None
    for pattern, extract in _DATE_PATTERNS:
        for match in pattern.finditer(text):
            try:
                candidate = date(*extract(match))
            except ValueError:
                continue
            if best is None or candidate > best:
                best = candidate
    return best


def preprocess_case(raw):
    """Run the full case-cleaning pipeline on one raw document.

    Returns ``(doc, (paragraphs_dropped, kept_verbatim))``. The trial
    date and the placeholder count are taken from the original text so
    earlier cleaning steps cannot destroy their evidence. The token
    length is left for the caller to set.
    """
    trial = extract_trial_date(raw.text)
    _, placeholder_count = remove_placeholders(raw.text)

    body = strip_preamble(raw.text)
    body, _ = remove_placeholders(body)
    body, dropped, kept_verbatim = filter_non_english(body)

    summary = None
    found = extract_summary(body)
    if found:
        start, end, summary = found
        lines = body.splitlines()
        body = "\n".join(lines[:start] + lines[end:]).strip()

    doc = CleanDocument(
        id=raw.id,
        body=body,
        summary=summary,
        trial_date=trial,
        placeholder_count=placeholder_count,
    )
    return doc, (dropped, kept_verbatim)


_LEAD_IN_RE = re.compile(r"^(Part|Chapter|Section|Subsection)\s")
_CAPTION_RE = re.compile(r"^\(.*\)$")


def preprocess_article(raw):
    """Clean one statute article: drop lead-in lines and caption headings."""
    kept = []
    for line in raw.text.splitlines():
        stripped = line.strip()
        if _LEAD_IN_RE.match(stripped):
            continue
        if stripped and _CAPTION_RE.match(stripped):
            continue
        kept.append(line)
    return CleanDocument(id=raw.id, body="\n".join(kept).strip())


# -- corpus I/O -------------------------------------------------------------

def load_raw_corpus(corpus_dir):
    """Read ``<id>.txt`` files of a directory, sorted by id; an id is UTF-8 with no tab or
    line break (a file name byte that is not UTF-8 reads as a surrogate U+DC80..U+DCFF)."""
    docs = []
    for path in sorted(Path(corpus_dir).glob("*.txt")):
        if any(c in "\t\n\r" or "\udc80" <= c <= "\udcff" for c in path.stem):
            shown = os.fsencode(path).decode("utf-8", "backslashreplace")  # b"\xff" as \xff
            raise DataError(f"{shown}: an id must be UTF-8 and hold no tab, newline or "
                            f"carriage return")
        with _text(path) as fh:
            docs.append(RawDocument(id=path.stem, text=fh.read()))
    return docs


def preprocess_corpus(raws):
    """Clean every raw case document; return (docs, stats)."""
    stats = IngestStats()
    docs = []
    for raw in raws:
        doc, (dropped, kept_verbatim) = preprocess_case(raw)
        docs.append(doc)
        stats.documents += 1
        stats.placeholders_removed += doc.placeholder_count
        stats.paragraphs_dropped += dropped
        if kept_verbatim:
            stats.kept_verbatim_ids.append(doc.id)
        if doc.trial_date is not None:
            stats.dated_documents += 1
    return docs, stats


def write_clean_jsonl(docs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in sorted(docs, key=lambda d: d.id):
            fh.write(json.dumps(
                {
                    "id": doc.id,
                    "body": doc.body,
                    "summary": doc.summary,
                    "trial_date": doc.trial_date.isoformat() if doc.trial_date else None,
                    "placeholder_count": doc.placeholder_count,
                    "token_length": doc.token_length,
                },
                sort_keys=True,
                ensure_ascii=False,
            ))
            fh.write("\n")


def read_clean_jsonl(path):
    """{id: document} of a ``write_clean_jsonl`` file, in file order; a bad line is a
    DataError naming it."""
    docs = {}
    with _text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                trial = rec["trial_date"]
                if trial is not None:  # Python 3.11 also reads "20100105" and "2010-W01-1"
                    rec["trial_date"] = date.fromisoformat(trial)
                    if rec["trial_date"].isoformat() != trial:
                        raise ValueError(f"trial_date must be YYYY-MM-DD or null, got {trial!r}")
                doc = CleanDocument(**rec)
                if not (isinstance(doc.id, str) and not any(c in doc.id for c in "\t\n\r")
                        and isinstance(doc.body, str) and isinstance(doc.summary, (str, type(None)))
                        and all(type(n) is int and 0 <= n < 2**63
                                for n in (doc.placeholder_count, doc.token_length))):
                    raise TypeError("id and body must be strings, the id without a tab, newline or "
                                    "carriage return, summary a string or null, "
                                    "placeholder_count and token_length integers in [0, 2**63)")
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: not a cleaned document: {exc!r}") from None
            if doc.id in docs:
                raise DataError(f"{path}:{lineno}: duplicate document id {doc.id!r}")
            docs[doc.id] = doc
    return docs
