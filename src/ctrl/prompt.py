"""Prompt construction and tokenization for the text tower.

A tabular row becomes two sentences, user side then item side, joined by ". "
and closed with ".". Five template variants control how each feature clause is
rendered:

  1  natural language: "gender is female", prefixed by "This is a user" /
     "This is a movie"; sequence fields use their configured phrase, e.g.
     "who has recently watched Titanic|Avatar"
  2  compact "name-value" clauses, no prefixes or filler words
  3  values only, field names dropped
  4  like 2 but every field name replaced by the literal word "Field"
  5  like 2 but with ":" joining name and value
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .config import PROMPT_VARIANTS, RunConfig
from .data import SEQ_SEP, FeatureSchema, split_cell
from .exceptions import DataError, UsageError

UNK_ID = 1
DEFAULT_MAX_TOKENS = 128

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


@dataclass(frozen=True)
class PromptTemplate:
    variant: int = 1
    user_prefix: str = "This is a user"
    item_prefix: str = "This is an item"

    def __post_init__(self):
        if self.variant not in PROMPT_VARIANTS:
            raise UsageError(f"prompt variant must be in {PROMPT_VARIANTS}, got {self.variant}")


def template_from(cfg: RunConfig) -> PromptTemplate:
    return PromptTemplate(variant=cfg.prompt_variant,
                          user_prefix=cfg.user_prefix,
                          item_prefix=cfg.item_prefix)


_FORMATS = {2: "{name}-{value}", 3: "{value}", 4: "Field-{value}",
            5: "{name}:{value}"}  # the clause of variants 2 to 5


def _clause(field, value: str, variant: int) -> str:
    if variant != 1:
        return _FORMATS[variant].format(name=field.shown_name, value=value)
    if field.kind == "sequence" and field.seq_phrase is not None:
        return f"{field.seq_phrase} {value}"
    return f"{field.shown_name} is {value}"


def _rendered(rows, schema: FeatureSchema, template: PromptTemplate):
    """Each row's prompt as its sides, user then item, each (lead, values):
    the side prefix in variant 1 (else nothing), and (field, value) for each
    non-empty cell, context fields on the user side. A sequence's value is
    its non-empty elements joined by SEQ_SEP; with none, it is empty."""
    prefixed = template.variant == 1
    sides = [((prefix,) if prefixed else (), fields) for prefix, fields
             in zip((template.user_prefix, template.item_prefix),
                    schema.prompt_sides)]
    for raw in rows:
        out = []
        for lead, fields in sides:
            values = []
            for f in fields:
                value = raw.get(f.name, "")
                if f.kind == "sequence":
                    value = SEQ_SEP.join(split_cell(value))
                if value:
                    values.append((f, value))
            out.append((lead, values))
        if not (out[0][1] or out[1][1]):
            raise DataError("instance renders no features; cannot build a prompt")
        yield out


def build_prompt(raw: dict, schema: FeatureSchema, template: PromptTemplate) -> str:
    """Render one raw row as a prompt string."""
    user, item = [", ".join([*lead, *[_clause(f, v, template.variant)
                                      for f, v in values]])
                  for lead, values in next(_rendered([raw], schema, template))]
    return f"{user}. {item}."


class Tokenizer:
    """Whitespace/punctuation tokenizer with reserved ids 0 (pad) and 1 (unknown).

    Vocabulary ids follow first-seen order over the fitting corpus. This stands
    in for a pretrained subword tokenizer; at desk scale the prompt vocabulary
    is small enough that word-level ids are adequate. It is never stored: a
    run's tokenizer is refit from its train split and config.
    """

    def __init__(self, max_tokens: int = DEFAULT_MAX_TOKENS):
        if max_tokens < 1:
            raise UsageError("max_tokens must be >= 1")
        self.vocab = {}
        self.max_tokens = max_tokens

    @property
    def vocab_size(self) -> int:
        return len(self.vocab) + 2  # reserved pad + unk

    @staticmethod
    def _split(text: str) -> list:
        return _TOKEN_RE.findall(text.lower())

    @staticmethod
    def fit(corpus, max_tokens: int = DEFAULT_MAX_TOKENS) -> "Tokenizer":
        """Lowercased vocabulary of every token in the corpus of texts, each
        id in the order its token is first seen."""
        corpus = list(corpus)
        if not corpus:
            raise DataError("cannot fit a tokenizer on an empty corpus")
        tok = Tokenizer(max_tokens=max_tokens)
        for text in corpus:
            for t in tok._split(text):
                if t not in tok.vocab:
                    tok.vocab[t] = len(tok.vocab) + 2  # ids 0 and 1 are reserved
        return tok

    def encode(self, text: str) -> list:
        ids = [self.vocab.get(t, UNK_ID) for t in self._split(text)]
        return ids[:self.max_tokens]  # head truncation keeps the user sentence

    def encode_batch(self, texts):
        """Encode and pad to the longest row. Returns (ids (N, L) int64,
        mask (N, L) float64). Empty strings yield an all-zero mask row."""
        encoded = [self.encode(t) for t in texts]
        empties = [i for i, ids in enumerate(encoded) if not ids]
        if empties:
            warnings.warn(f"{len(empties)} empty prompt(s) in batch "
                          f"(first at row {empties[0]}); mask is all zero")
        width = max(1, max((len(ids) for ids in encoded), default=1))
        out = np.zeros((len(encoded), width), dtype=np.int64)
        mask = np.zeros((len(encoded), width), dtype=np.float64)
        for i, ids in enumerate(encoded):
            out[i, :len(ids)] = ids
            mask[i, :len(ids)] = 1.0
        return out, mask


def fit_tokenizer(prepared, cfg: RunConfig) -> Tokenizer:
    """The run's tokenizer: a fit on the distinct spans of the train prompts
    of `prepared` in first-seen order, equal to a fit on the prompts. Those
    join leads and clauses by ", " and ".", a clause's elements by SEQ_SEP;
    no token crosses a span, and each lowercases alone as in the prompt (see
    README). A clause holds only its value's first element, and each
    (field, first element) renders one clause."""
    spans, seen = {}, set()  # a dict keeps its keys in first-insertion order
    for sides in _rendered(prepared.train.raw_rows, prepared.schema,
                           template_from(cfg)):
        for lead, values in sides:
            spans.update(dict.fromkeys(lead))
            for i, (f, value) in enumerate(values, len(lead)):
                if i:
                    spans[", "] = None
                first, *rest = value.split(SEQ_SEP)
                if (f.name, first) not in seen:
                    seen.add((f.name, first))
                    spans[_clause(f, first, cfg.prompt_variant)] = None
                for element in rest:
                    spans[SEQ_SEP] = spans[element] = None
            spans["."] = None
    return Tokenizer.fit(spans, max_tokens=cfg.text.max_tokens)
