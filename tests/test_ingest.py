import json
import random
from datetime import date

import pytest

from lexfuse import cli
from lexfuse.evaluation import DataError
from lexfuse.ingest import (
    _MONTHS,
    PLACEHOLDERS,
    CleanDocument,
    RawDocument,
    TokenizerConfig,
    extract_summary,
    extract_trial_date,
    filter_non_english,
    preprocess_article,
    preprocess_case,
    preprocess_corpus,
    read_clean_jsonl,
    remove_placeholders,
    strip_preamble,
    tokenize,
    write_clean_jsonl,
)

FRENCH_PARAGRAPH = (
    "le tribunal a pour les motifs de la cour une question de droit "
    "et il ne se trouve pas dans ce dossier des faits qui sont en cause"
)
ENGLISH_PARAGRAPH = (
    "The plaintiff argued that the agreement was void and the court "
    "accepted this position on all of the issues raised at the hearing."
)


class TestStripPreamble:
    def test_removes_text_before_marker(self):
        assert strip_preamble("2001 FC 123 ... [1] The plaintiff...") == "[1] The plaintiff..."

    def test_idempotent_on_clean_text(self):
        assert strip_preamble("[1] already clean") == "[1] already clean"

    def test_no_marker_returns_input(self):
        assert strip_preamble("no marker at all") == "no marker at all"


class TestRemovePlaceholders:
    def test_single_placeholder(self):
        assert remove_placeholders("see FRAGMENT_SUPPRESSED above") == ("see above", 1)

    def test_clean_text(self):
        assert remove_placeholders("clean text") == ("clean text", 0)

    def test_only_placeholders(self):
        # Direct string-scan oracle: two occurrences, nothing else survives.
        text = "CITATION_SUPPRESSED REFERENCE_SUPPRESSED"
        assert sum(text.count(p) for p in PLACEHOLDERS) == 2
        assert remove_placeholders(text) == ("", 2)

    def test_count_matches_string_scan_on_random_text(self):
        rng = random.Random(7)
        words = ["alpha", "beta", "gamma", "delta"]
        for _ in range(200):
            parts = [
                rng.choice(words + list(PLACEHOLDERS)) for _ in range(rng.randrange(0, 30))
            ]
            text = " ".join(parts)
            expected = sum(text.count(p) for p in PLACEHOLDERS)
            cleaned, count = remove_placeholders(text)
            assert count == expected
            for p in PLACEHOLDERS:
                assert p not in cleaned


class TestFilterNonEnglish:
    def test_french_paragraph_removed(self):
        text = ENGLISH_PARAGRAPH + "\n\n" + FRENCH_PARAGRAPH + "\n\n" + ENGLISH_PARAGRAPH
        filtered, dropped, kept_verbatim = filter_non_english(text)
        assert (dropped, kept_verbatim) == (1, False)
        assert "tribunal" not in filtered
        assert filtered.count(ENGLISH_PARAGRAPH) == 2

    def test_all_english_unchanged(self):
        text = ENGLISH_PARAGRAPH + "\n\n" + ENGLISH_PARAGRAPH
        assert filter_non_english(text) == (text, 0, False)

    def test_empty_string(self):
        assert filter_non_english("") == ("", 0, False)

    def test_majority_french_kept_verbatim(self):
        text = "\n\n".join([FRENCH_PARAGRAPH] * 5)
        assert filter_non_english(text) == (text, 0, True)


class TestExtractSummary:
    def test_two_paragraphs_after_heading(self):
        text = (
            "Decision text first.\n\nSummary:\nFirst summary paragraph.\n\n"
            "Second summary paragraph.\n\nReasons:\nLong reasons follow here."
        )
        assert extract_summary(text)[2] == "First summary paragraph.\n\nSecond summary paragraph."

    def test_absent_heading(self):
        assert extract_summary("No heading here.\n\nJust text.") is None

    def test_heading_at_end_of_file(self):
        assert extract_summary("Body text.\n\nSummary:") is None

    def test_case_insensitive_standalone_line(self):
        assert extract_summary("SUMMARY\nKey facts here.")[2] == "Key facts here."

    def test_title_case_heading_terminates_section(self):
        text = "Summary:\nShort holding text\n\nReasons for Judgment\nLong reasons."
        assert extract_summary(text)[2] == "Short holding text"

    def test_plain_sentence_fragment_does_not_terminate(self):
        # A short capitalized fragment after a blank line is body text,
        # not a heading, when its words are not title-cased.
        text = "Summary:\nFirst part\n\nClaim allowed overall\n\nMore summary text."
        assert extract_summary(text)[2] == (
            "First part\n\nClaim allowed overall\n\nMore summary text.")


class TestExtractTrialDate:
    def test_latest_of_two(self):
        text = "Filed January 5, 1998. Decided March 2, 2001."
        assert extract_trial_date(text) == date(2001, 3, 2)

    def test_no_dates(self):
        assert extract_trial_date("no dates live here, not even 1998") is None

    def test_singleton_iso(self):
        assert extract_trial_date("effective 2020-06-30 onwards") == date(2020, 6, 30)

    def test_all_supported_formats(self):
        assert extract_trial_date("5 January 1998") == date(1998, 1, 5)
        assert extract_trial_date("03/02/2001") == date(2001, 3, 2)

    def test_malformed_dates_skipped(self):
        assert extract_trial_date("February 30, 2010 then June 1, 2009") == date(2009, 6, 1)
        assert extract_trial_date("2010-13-45") is None

    def test_month_spelled_with_a_folding_letter_is_no_date(self):
        # IGNORECASE would fold "İ", "ı" and "ſ" to "i" and "s"; month names match ASCII only.
        for text in ("APRİL 5, 2020", "aprıl 5, 2020", "5 AUGUſT 2020", "ſeptember 3, 2019"):
            assert extract_trial_date(text) is None, text
        assert extract_trial_date("APRIL 5, 2020") == date(2020, 4, 5)
        assert extract_trial_date("April 5, \u0662\u0660\u0662\u0660") == date(2020, 4, 5)


class TestPreprocessCase:
    def test_composed_pipeline(self):
        raw = RawDocument(
            id="case1",
            text=(
                "Court heard this June 5, 2003.\n"
                "[1] The claim FRAGMENT_SUPPRESSED was filed March 1, 2001.\n\n"
                "Summary:\nKey holding stated.\n\n"
                "Reasons:\nFull reasons follow."
            ),
        )
        doc, _ = preprocess_case(raw)
        assert doc.summary == "Key holding stated."
        assert doc.placeholder_count == 1
        assert doc.trial_date == date(2003, 6, 5)
        assert "FRAGMENT_SUPPRESSED" not in doc.body
        assert "Court heard" not in doc.body  # preamble stripped
        assert doc.text.startswith("Key holding stated.")  # summary hoisted
        assert "Key holding stated." not in doc.body  # and removed from body

    def test_empty_document(self):
        doc, _ = preprocess_case(RawDocument(id="e", text=""))
        assert doc.body == ""
        assert doc.placeholder_count == 0
        assert doc.trial_date is None
        assert doc.token_length == 0

    def test_preamble_only_document(self):
        doc, _ = preprocess_case(RawDocument(id="p", text="Nothing but procedure."))
        # Marker absent: text kept, nothing else changes.
        assert doc.body == "Nothing but procedure."
        raw = RawDocument(id="p2", text="Procedural text only, then [1]")
        assert preprocess_case(raw)[0].body == "[1]"

    def test_reprocessing_clean_body_is_stable(self):
        raw = RawDocument(
            id="c",
            text="[1] The appeal CITATION_SUPPRESSED is dismissed.\n\nCosts to the respondent.",
        )
        doc, _ = preprocess_case(raw)
        again, _ = preprocess_case(RawDocument(id="c", text=doc.body))
        assert again.body == doc.body
        assert again.summary == doc.summary

    def test_trial_date_not_below_any_parseable_date(self):
        rng = random.Random(3)
        for _ in range(50):
            dates = [
                date(rng.randrange(1990, 2020), rng.randrange(1, 13), rng.randrange(1, 28))
                for _ in range(rng.randrange(0, 5))
            ]
            body = " and ".join(d.strftime("%B %d, %Y") for d in dates)
            doc, _ = preprocess_case(RawDocument(id="x", text=f"intro {body} [1] tail"))
            if not dates:
                assert doc.trial_date is None
            else:
                assert doc.trial_date == max(dates)


class TestPreprocessArticle:
    def test_part_line_removed(self):
        raw = RawDocument(id="a1", text="Part I General Provisions\nArticle 1 text here")
        assert preprocess_article(raw).body == "Article 1 text here"

    def test_caption_line_removed(self):
        raw = RawDocument(id="a3", text="(Standards for Construction)\nArticle 3 text here")
        assert preprocess_article(raw).body == "Article 3 text here"

    def test_plain_article_unchanged(self):
        raw = RawDocument(id="a2", text="Article 2 applies to all contracts")
        entry = preprocess_article(raw)
        assert entry == CleanDocument(id="a2", body="Article 2 applies to all contracts")

    def test_no_structural_lines_survive(self):
        rng = random.Random(11)
        lead_ins = ["Part I General", "Chapter II Common", "Section 4 Things",
                    "Subsection 2 Extra", "(Some Caption)"]
        for _ in range(50):
            lines = []
            for _ in range(rng.randrange(1, 8)):
                if rng.random() < 0.4:
                    lines.append(rng.choice(lead_ins))
                else:
                    lines.append(f"Article {rng.randrange(100)} body text")
            content = preprocess_article(RawDocument(id="x", text="\n".join(lines))).body
            for line in content.splitlines():
                assert not line.startswith(("Part ", "Chapter "))
                assert not (line.startswith("(") and line.endswith(")"))


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        raws = [
            RawDocument(id="b", text="[1] Some text FRAGMENT_SUPPRESSED June 1, 2010"),
            RawDocument(id="a", text="[1] Other text"),
        ]
        docs, stats = preprocess_corpus(raws)
        assert stats.documents == 2
        assert stats.placeholders_removed == 1
        for length, doc in enumerate(docs, 3):
            doc.token_length = length
        path = tmp_path / "clean.jsonl"
        write_clean_jsonl(docs, path)
        loaded = read_clean_jsonl(path)
        assert list(loaded) == ["a", "b"]
        assert all(doc_id == d.id for doc_id, d in loaded.items())
        for doc in docs:
            other = loaded[doc.id]
            assert (doc.body, doc.summary, doc.trial_date) == (
                other.body, other.summary, other.trial_date)
            assert (doc.placeholder_count, doc.token_length) == (
                other.placeholder_count, other.token_length)

    @pytest.mark.parametrize("line, problem", [
        ('{"id": "a", "body": "x"}', "not a cleaned document"),
        ('{"id": "a", "body": "x", "summary": null, "trial_date": "2010-13-01", '
         '"placeholder_count": 0, "token_length": 1}', "not a cleaned document"),
        *[(f'{{"id": "a", "body": "x", "summary": null, "trial_date": "{trial}", '
           '"placeholder_count": 0, "token_length": 1}', "not a cleaned document")
          for trial in ("20100105", "2010-W01-1", "")],
        ('{"id": "b", "body": "x", "summary": null, "trial_date": null, '
         '"placeholder_count": 0, "token_length": 1}', "duplicate document id 'b'"),
        ('{"id": "b", "bod', "not a cleaned document"),
        ('{"id": "a", "body": "x", "summary": null, "trial_date": null, '
         '"placeholder_count": 0, "token_length": NaN}', "not a cleaned document"),
        ('{"id": "a", "body": "x", "summary": null, "trial_date": null, '
         '"placeholder_count": 1.5, "token_length": 1}', "not a cleaned document"),
        ('{"id": "a", "body": "x", "summary": null, "trial_date": null, '
         '"placeholder_count": 0, "token_length": true}', "not a cleaned document"),
        ('{"id": 7, "body": "x", "summary": null, "trial_date": null, '
         '"placeholder_count": 0, "token_length": 1}', "not a cleaned document"),
        ('{"id": "a", "body": 5, "summary": null, "trial_date": null, '
         '"placeholder_count": 0, "token_length": 1}', "not a cleaned document"),
        ('{"id": "a", "body": "x", "summary": 7, "trial_date": null, '
         '"placeholder_count": 0, "token_length": 1}', "not a cleaned document"),
        ('{"id": "a", "body": "x", "summary": null, "trial_date": null, '
         f'"placeholder_count": 0, "token_length": {10**400}}}', "not a cleaned document"),
        ('{"id": "a", "body": "x", "summary": null, "trial_date": null, '
         '"placeholder_count": -1, "token_length": 1}', "not a cleaned document"),
        *[(f'{{"id": "a{esc}b", "body": "x", "summary": null, "trial_date": null, '
           '"placeholder_count": 0, "token_length": 1}', "not a cleaned document: .*id without")
          for esc in (r"\t", r"\n", r"\r")],
    ])
    def test_bad_line_is_a_data_error_naming_file_and_line(self, tmp_path, line, problem):
        path = tmp_path / "clean.jsonl"
        write_clean_jsonl([CleanDocument(id="b", body="y")], path)
        path.write_text(path.read_text() + "\n" + line + "\n")
        with pytest.raises(DataError, match=rf"clean\.jsonl:3: {problem}"):
            read_clean_jsonl(path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        # Beyond the first block a text reader decodes, so the line is found again.
        path = tmp_path / "clean.jsonl"
        write_clean_jsonl([CleanDocument(id=f"d{i:05d}", body="y" * 40) for i in range(2000)],
                          path)
        data = path.read_bytes()
        at = data.index(b"d01500")
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(DataError, match=r"clean\.jsonl:1501: not UTF-8 text"):
            read_clean_jsonl(path)


# -- user-supplied text: the characters that have broken text readers --------

# Letters that Unicode case folding maps to "i", "s" and "k": İ, ı, ſ and the Kelvin sign.
FOLDS_TO = {"i": "\u0130\u0131", "s": "\u017f", "k": "\u212a"}
ODD_CHARACTERS = ("\u0301", "\u0307", "\u0327", "\x00", "\r", "\r\n", "\u2028", "\ufeff")
DIGIT_SETS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
              "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f")
SEPARATORS = (" ", " ", "\n", "\n\n", "\r\n", "\u2028", "\x00", "")
WORDS = ("the", "court", "appeal", "is", "dismissed", "kelvin", "le", "de", "[1]", "Summary:",
         "Reasons", "Part", "(Caption)", *PLACEHOLDERS)


def respelled(rng, word):
    """``word`` in mixed case, some letters swapped for one that folds to them."""
    letters = [c.upper() if rng.random() < 0.3 else c for c in word]
    return "".join(rng.choice(FOLDS_TO[c.lower()]) if c.lower() in FOLDS_TO and rng.random() < 0.5
                   else c for c in letters)


def numeral(rng, value, width=1):
    digits = rng.choice(DIGIT_SETS)
    return "".join(digits[int(d)] for d in str(value).zfill(width))


def random_date(rng):
    """A date in one of the four recognized forms; its year may be past 9999, its month
    and day out of the calendar, its digits not ASCII and its month name respelled."""
    year = numeral(rng, rng.randrange(1, 10000) if rng.random() < 0.8 else
                   rng.randrange(10000, 10**6), 4)
    month, day = numeral(rng, rng.randrange(14), 2), numeral(rng, rng.randrange(33))
    name = respelled(rng, rng.choice(list(_MONTHS)))
    return rng.choice([f"{name} {day}, {year}", f"{day} {name} {year}",
                       f"{year}-{month}-{numeral(rng, rng.randrange(33), 2)}",
                       f"{month}/{day}/{year}"])


def hard_text(rng):
    """A case or article text, or an empty one, of dates, words and odd characters."""
    if rng.random() < 0.1:
        return ""
    pieces = []
    for _ in range(rng.randrange(1, 30)):
        roll = rng.random()
        if roll < 0.3:
            pieces.append(random_date(rng))
        elif roll < 0.5:
            pieces.append(rng.choice(ODD_CHARACTERS))
        else:
            pieces.append(respelled(rng, rng.choice(WORDS)))
        pieces.append(rng.choice(SEPARATORS))
    return "".join(pieces)


class TestUserTextNeverRaises:
    def test_cleaners_and_tokenizer(self):
        rng = random.Random(16)
        configs = (TokenizerConfig(), TokenizerConfig(lowercase=False, ngram_hi=3),
                   TokenizerConfig(min_token_len=2, ngram_lo=2, ngram_hi=2))
        dated = 0
        for i in range(2000):
            raw = RawDocument(id=f"d{i}", text=hard_text(rng))
            dated += preprocess_case(raw)[0].trial_date is not None
            preprocess_article(raw)
            for config in configs:
                tokenize(raw.text, config)
        assert 300 < dated < 1900  # texts with and without a date are both exercised

    @pytest.mark.parametrize("task", ["case", "statute"])
    def test_ingest_exits_0(self, tmp_path, task):
        rng = random.Random(32)
        corpus, questions = tmp_path / "corpus", tmp_path / "questions"
        for directory in (corpus, questions):
            directory.mkdir()
            for i in range(20):
                (directory / f"d{i}.txt").write_bytes(hard_text(rng).encode("utf-8"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": task, "corpus_dir": str(corpus),
                                   "queries_dir": str(questions),
                                   "work_dir": str(tmp_path / "work")}))
        assert cli.main(["ingest", "--config", str(cfg)]) == 0
        docs = read_clean_jsonl(tmp_path / "work" / "clean.jsonl")
        assert set(docs) == {f"d{i}" for i in range(20)}
