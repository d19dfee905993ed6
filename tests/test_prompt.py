import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrl import orchestrate, prompt
from ctrl.config import PROMPT_VARIANTS, RunConfig, TextConfig
from ctrl.data import FeatureSchema, FieldSpec
from ctrl.exceptions import DataError, UsageError
from ctrl.prompt import PromptTemplate, Tokenizer, build_prompt
from ctrl.synthetic import SyntheticSpec, generate

from helpers import fit_on_prompts
from test_data import movie_schema

MOVIE_ROW = {
    "gender": "female", "age": "18", "occupation": "doctor",
    "history": "Titanic|Avatar",
    "title": "The Terminator", "genre": "Sci-FI", "director": "Camelon",
}

MOVIE_TEMPLATE = PromptTemplate(variant=1, item_prefix="This is a movie")


def test_variant1_exact_rendering():
    text = build_prompt(MOVIE_ROW, movie_schema(), MOVIE_TEMPLATE)
    assert text == ("This is a user, gender is female, age is 18, "
                    "occupation is doctor, who has recently watched "
                    "Titanic|Avatar. This is a movie, title is The Terminator, "
                    "genre is Sci-FI, director is Camelon.")


def test_variant2_exact_rendering():
    text = build_prompt(MOVIE_ROW, movie_schema(), PromptTemplate(variant=2))
    assert text == ("gender-female, age-18, occupation-doctor, "
                    "history-Titanic|Avatar. title-The Terminator, "
                    "genre-Sci-FI, director-Camelon.")


def test_variant3_values_only():
    text = build_prompt(MOVIE_ROW, movie_schema(), PromptTemplate(variant=3))
    assert text == ("female, 18, doctor, Titanic|Avatar. "
                    "The Terminator, Sci-FI, Camelon.")
    tokens = set(text.replace(",", " ").replace(".", " ").split())
    for f in movie_schema().fields:
        assert f.name not in tokens


def test_variant4_masks_every_field_name():
    text = build_prompt(MOVIE_ROW, movie_schema(), PromptTemplate(variant=4))
    assert text == ("Field-female, Field-18, Field-doctor, "
                    "Field-Titanic|Avatar. Field-The Terminator, "
                    "Field-Sci-FI, Field-Camelon.")
    assert text.count("Field") == 7


def test_variant5_colon_connector():
    text = build_prompt(MOVIE_ROW, movie_schema(), PromptTemplate(variant=5))
    assert text == ("gender:female, age:18, occupation:doctor, "
                    "history:Titanic|Avatar. title:The Terminator, "
                    "genre:Sci-FI, director:Camelon.")


def test_variant1_separator_contract():
    text = build_prompt(MOVIE_ROW, movie_schema(), MOVIE_TEMPLATE)
    assert text.count(".") == 2
    assert text.endswith(".")
    assert text.count(",") == 7  # one per rendered feature
    assert "Titanic|Avatar" in text  # no spaces around the bar


def test_empty_values_are_omitted():
    row = dict(MOVIE_ROW, age="", history="")
    text = build_prompt(row, movie_schema(), MOVIE_TEMPLATE)
    assert "age is" not in text
    assert "watched" not in text
    assert text.count(",") == 5


def test_empty_instance_raises():
    row = {k: "" for k in MOVIE_ROW}
    with pytest.raises(DataError):
        build_prompt(row, movie_schema(), MOVIE_TEMPLATE)


def test_context_fields_join_user_sentence():
    schema = FeatureSchema(fields=(
        FieldSpec("gender", "categorical", "user"),
        FieldSpec("title", "categorical", "item"),
        FieldSpec("hour", "categorical", "context"),
    ))
    text = build_prompt({"gender": "f", "title": "T", "hour": "9"},
                        schema, PromptTemplate(variant=1))
    user_sent = text.split(". ")[0]
    assert "hour is 9" in user_sent


def test_invalid_variant_rejected():
    with pytest.raises(UsageError):
        PromptTemplate(variant=6)


def test_determinism():
    a = build_prompt(MOVIE_ROW, movie_schema(), MOVIE_TEMPLATE)
    b = build_prompt(dict(MOVIE_ROW), movie_schema(), MOVIE_TEMPLATE)
    assert a == b


_value_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                    max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(["gender", "age", "occupation", "title",
                                        "genre", "director"]),
                       _value_st, min_size=1),
       st.lists(_value_st, min_size=0, max_size=4))
def test_variant1_invariants_random_instances(values, history):
    row = {k: "" for k in MOVIE_ROW}
    row.update(values)
    row["history"] = "|".join(history)
    schema = movie_schema()
    template = MOVIE_TEMPLATE
    try:
        text = build_prompt(row, schema, template)
    except DataError:
        return  # nothing rendered
    rendered = len(values) + (1 if history else 0)
    assert text.count(",") == rendered
    assert text.count(".") == 2
    assert text.endswith(".")


def test_tokenizer_fit_first_seen():
    tok = Tokenizer.fit(["age is 18,"])
    assert tok.vocab == {"age": 2, "is": 3, "18": 4, ",": 5}
    assert tok.vocab_size == 6


def test_tokenizer_unknown_and_case_folding():
    tok = Tokenizer.fit(["age is 18"])
    assert tok.encode("Age IS 18") == tok.encode("age is 18")
    assert tok.encode("mystery")[0] == 1


def test_tokenizer_empty_corpus():
    with pytest.raises(DataError):
        Tokenizer.fit([])


def test_tokenizer_head_truncation():
    tok = Tokenizer.fit(["a b c d e"], max_tokens=3)
    assert tok.encode("a b c d e") == [2, 3, 4]


def test_encode_batch_pads_and_flags_empty():
    tok = Tokenizer.fit(["a b c"])
    with pytest.warns(UserWarning, match="empty prompt"):
        ids, mask = tok.encode_batch(["a b c", "a", ""])
    assert ids.shape == (3, 3)
    assert np.array_equal(mask, [[1, 1, 1], [1, 0, 0], [0, 0, 0]])
    assert ids[2].sum() == 0


def test_tokenizer_determinism():
    corpus = ["b a c", "c d"]
    assert Tokenizer.fit(corpus).vocab == Tokenizer.fit(corpus).vocab


# Every kind on every side. The context field comes first in schema order but
# renders after the user fields, at the end of the user sentence.
SPAN_SCHEMA = FeatureSchema(fields=(
    FieldSpec("hour", "categorical", "context"),
    FieldSpec("gender", "categorical", "user"),
    FieldSpec("seen", "sequence", "user", seq_phrase="has seen"),
    FieldSpec("title", "categorical", "item"),
    FieldSpec("tags", "sequence", "item"),
))
EMPTY_ROW = {f.name: "" for f in SPAN_SCHEMA.fields}
NO_FEATURES = "instance renders no features; cannot build a prompt"


def span_config(variant=1, max_tokens=128) -> RunConfig:
    return RunConfig(prompt_variant=variant,
                     text=TextConfig(max_tokens=max_tokens))


def fit_train(rows, cfg, schema=SPAN_SCHEMA):
    """`orchestrate.fit_tokenizer` with `rows` as the train split."""
    prepared = SimpleNamespace(schema=schema,
                               train=SimpleNamespace(raw_rows=rows))
    return orchestrate.fit_tokenizer(prepared, cfg)


def assert_same_fit(got, want):
    assert list(got.vocab.items()) == list(want.vocab.items())
    assert got.max_tokens == want.max_tokens


# Letters whose lowercase depends on their neighbours (a word-final sigma),
# or is two code points (dotted capital I), and the punctuation around them:
# "." and ":" are case-ignorable, so a sigma after "name:" can be final.
_CHARS = "ab ΣσİΑ:.'-,"
_cell = st.text(alphabet=_CHARS + "|", max_size=3)
_sequence = st.lists(st.text(alphabet=_CHARS, max_size=2),
                     max_size=3).map("|".join)
_row = st.fixed_dictionaries(
    {"gender": _cell, "seen": _sequence, "title": _cell, "tags": _sequence},
    optional={"hour": _cell})


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=8),
       variant=st.sampled_from(PROMPT_VARIANTS),
       max_tokens=st.integers(1, 6))
@example(rows=[dict(EMPTY_ROW, gender="x", seen="a||b"),
               dict(EMPTY_ROW, hour="9", seen="a|a", tags="|")],
         variant=2, max_tokens=3)
@example(rows=[dict(EMPTY_ROW, title="t", tags="a|a"),
               dict(EMPTY_ROW, tags="b||a")],
         variant=1, max_tokens=2)
@example(rows=[dict(EMPTY_ROW, hour="Σ"), dict(EMPTY_ROW, seen="Σ|a")],
         variant=5, max_tokens=1)
@example(rows=[dict(EMPTY_ROW, title="t"), EMPTY_ROW],
         variant=3, max_tokens=4)
def test_fit_tokenizer_equals_a_fit_on_every_train_prompt(
        rows, variant, max_tokens):
    """Cells that are empty, repeated or missing, sequences with empty or
    repeated elements, context fields, rows that render one side only, and
    prompts longer than max_tokens: the vocabulary keeps every id."""
    cfg = span_config(variant, max_tokens)
    try:
        want = fit_on_prompts(rows, SPAN_SCHEMA, cfg)
    except DataError as e:
        assert str(e) == NO_FEATURES
        with pytest.raises(DataError, match=f"^{re.escape(NO_FEATURES)}$"):
            fit_train(rows, cfg)
        return
    got = fit_train(rows, cfg)
    assert_same_fit(got, want)
    text = build_prompt(rows[0], SPAN_SCHEMA, prompt.template_from(cfg))
    assert got.encode(text) == want.encode(text)


def test_fit_tokenizer_refuses_a_train_row_that_renders_nothing():
    rows = [dict(EMPTY_ROW, title="t", seen="a"), dict(EMPTY_ROW, seen="||")]
    with pytest.raises(DataError, match=f"^{re.escape(NO_FEATURES)}$"):
        fit_train(rows, span_config())


@pytest.mark.parametrize("variant", PROMPT_VARIANTS)
def test_fit_tokenizer_lowercases_sigma_and_dotted_i_as_the_prompt_does(
        variant):
    """A word-final capital sigma lowercases to "ς" and any other to "σ",
    and which one depends on the letters around it. Under variant 5 the
    sequence's first element "Σ" follows "seen:", and ":" is skipped when
    looking for a letter before it, so in the prompt it is final, although
    "Σ".lower() alone is "σ". A dotted capital I lowercases to "i" and a
    combining dot, which is a token of its own."""
    rows = [dict(EMPTY_ROW, gender="ΟΔΟΣ", seen="Σ|ΑΣ|İstanbul", title="İ",
                 tags="ΣΑΣ|Σ")]
    cfg = span_config(variant)
    got = fit_train(rows, cfg)
    assert_same_fit(got, fit_on_prompts(rows, SPAN_SCHEMA, cfg))
    assert {"οδος", "ας", "σας", "i", "\u0307", "stanbul"} <= set(got.vocab)
    assert "Σ".lower() == "σ"
    assert ("ς" in got.vocab) == (variant == 5)
    assert "σ" in got.vocab  # the last "Σ" of "tags" follows "|", not a letter


def test_fit_tokenizer_renders_no_prompt_and_each_clause_once(monkeypatch):
    rows, schema, _ = generate(SyntheticSpec(
        n_rows=60, n_fields=4, vocab_size=3, rule="logistic", flip_noise=0.0,
        seed=1, history_len=2))
    cfg = span_config()
    want = fit_on_prompts(rows, schema, cfg)

    def refuse(*args):
        raise AssertionError("fit_tokenizer rendered a whole prompt")

    clause, calls = prompt._clause, []

    def counted(field, value, variant):
        calls.append((field.name, value))
        return clause(field, value, variant)

    monkeypatch.setattr(prompt, "build_prompt", refuse)
    monkeypatch.setattr(prompt, "_clause", counted)
    got = fit_train(rows, cfg, schema)
    monkeypatch.undo()
    assert_same_fit(got, want)
    assert len(calls) == len(set(calls))  # no clause is rendered twice
    cells = [(f.name, r[f.name]) for r in rows for f in schema.fields]
    assert len(calls) <= len(set(cells)) < len(cells)
