import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrl.data import FeatureSchema, FieldSpec
from ctrl.exceptions import DataError, UsageError
from ctrl.prompt import PromptTemplate, Tokenizer, build_prompt

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
