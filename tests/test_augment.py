import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwp import augment_text, strip_tags
from lpwp.errors import ValidationError
from lpwp.ingest import LABELS, EntitySpan

from helpers import BERRY_SENTENCE, BERRY_SENTENCE_AUGMENTED, berry_spans

SENTENCE_SPANS = berry_spans(
    BERRY_SENTENCE,
    [("at least", 0, "CONST_DIR"), ("3000", 0, "LIMIT"), ("15000", 0, "LIMIT")],
)


def test_berry_sentence_golden():
    assert augment_text(BERRY_SENTENCE, SENTENCE_SPANS) == BERRY_SENTENCE_AUGMENTED


def test_empty_span_list_is_identity():
    assert augment_text(BERRY_SENTENCE, []) == BERRY_SENTENCE


def test_minimal_insertion():
    assert augment_text("ab", [EntitySpan(0, 1, "VAR")]) == "<VAR> a </VAR>b"


def test_overlap_rejected():
    spans = [EntitySpan(0, 5, "VAR"), EntitySpan(3, 8, "PARAM")]
    with pytest.raises(ValidationError):
        augment_text("abcdefghij", spans)


def test_out_of_bounds_rejected():
    with pytest.raises(ValidationError):
        augment_text("ab", [EntitySpan(0, 9, "VAR")])


def test_touching_spans_emit_end_before_start():
    out = augment_text("abcd", [EntitySpan(0, 2, "VAR"), EntitySpan(2, 4, "PARAM")])
    assert out == "<VAR> ab </VAR><PARAM> cd </PARAM>"


def test_strip_tags_round_trip_golden():
    text, spans = strip_tags(BERRY_SENTENCE_AUGMENTED)
    assert text == BERRY_SENTENCE
    assert spans == SENTENCE_SPANS


def test_strip_tags_no_tags():
    assert strip_tags("plain text") == ("plain text", [])


def test_strip_tags_rejects_nesting():
    with pytest.raises(ValidationError):
        strip_tags("<VAR> a <PARAM> b </PARAM> </VAR>")


def test_strip_tags_rejects_unknown_tag():
    with pytest.raises(ValidationError):
        strip_tags("<WIDGET> a </WIDGET>")


def test_strip_tags_rejects_unbalanced():
    with pytest.raises(ValidationError) as err:
        strip_tags("x <VAR> a")
    assert "position 2" in str(err.value)
    with pytest.raises(ValidationError):
        strip_tags("a </VAR> b")


def test_strip_tags_rejects_a_mismatched_closing_tag():
    with pytest.raises(ValidationError, match="mismatched closing tag </PARAM>"):
        strip_tags("<LIMIT> 3 </PARAM>")


@st.composite
def text_with_spans(draw):
    text = draw(st.text(
        alphabet=st.characters(blacklist_characters="<"), min_size=1, max_size=80,
    ))
    n_cuts = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(text)),
        min_size=2 * n_cuts, max_size=2 * n_cuts,
    )))
    spans = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        if start == end or (spans and start < spans[-1].end):
            continue
        spans.append(EntitySpan(start, end, draw(st.sampled_from(LABELS))))
    return text, spans


@given(text_with_spans())
@settings(max_examples=300)
def test_round_trip_property(case):
    text, spans = case
    recovered_text, recovered_spans = strip_tags(augment_text(text, spans))
    assert recovered_text == text
    assert recovered_spans == spans


@given(text_with_spans())
@settings(max_examples=300)
def test_length_arithmetic(case):
    text, spans = case
    augmented = augment_text(text, spans)
    # Each span adds "<L> " and " </L>": 2*len(label) + 7 characters.
    expected = len(text) + sum(2 * len(s.label) + 7 for s in spans)
    assert len(augmented) == expected


@given(text_with_spans())
@settings(max_examples=200)
def test_non_span_text_untouched(case):
    text, spans = case
    augmented = augment_text(text, spans)
    cursor = 0
    pos = 0
    for span in spans:
        gap = text[cursor:span.start]
        assert augmented[pos:pos + len(gap)] == gap
        pos += len(gap) + 2 * len(span.label) + 7 + (span.end - span.start)
        cursor = span.end
    assert augmented[pos:] == text[cursor:]
