import random
from datetime import date

import pytest

from lexfuse.evaluation import DataError
from lexfuse.ingest import (
    PLACEHOLDERS,
    CleanDocument,
    RawDocument,
    extract_summary,
    extract_trial_date,
    filter_non_english,
    preprocess_article,
    preprocess_case,
    preprocess_corpus,
    read_clean_jsonl,
    remove_placeholders,
    strip_preamble,
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
