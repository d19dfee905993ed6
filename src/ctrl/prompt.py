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
from typing import Optional

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


def _clause(field, value: str, variant: int) -> str:
    name = field.shown_name
    if variant == 1:
        if field.kind == "sequence" and field.seq_phrase is not None:
            return f"{field.seq_phrase} {value}"
        return f"{name} is {value}"
    if variant == 2:
        return f"{name}-{value}"
    if variant == 3:
        return value
    if variant == 4:
        return f"Field-{value}"
    return f"{name}:{value}"


def _side_sentence(fields, raw: dict, template: PromptTemplate, prefix: str):
    clauses = []
    for f in fields:
        cell = raw.get(f.name, "")
        if f.kind == "sequence":
            values = split_cell(cell)
            if not values:
                continue
            cell = SEQ_SEP.join(values)
        elif cell == "":
            continue
        clauses.append(_clause(f, cell, template.variant))
    rendered = len(clauses)
    if template.variant == 1:
        clauses = [prefix] + clauses
    return ", ".join(clauses), rendered


def build_prompt(raw: dict, schema: FeatureSchema, template: PromptTemplate) -> str:
    """Render one raw row as a prompt string. Context-side fields are folded
    into the user sentence."""
    user_fields = schema.side_fields("user") + schema.side_fields("context")
    item_fields = schema.side_fields("item")
    user_sent, n_user = _side_sentence(user_fields, raw, template, template.user_prefix)
    item_sent, n_item = _side_sentence(item_fields, raw, template, template.item_prefix)
    if n_user + n_item == 0:
        raise DataError("instance renders no features; cannot build a prompt")
    return f"{user_sent}. {item_sent}."


class Tokenizer:
    """Whitespace/punctuation tokenizer with reserved ids 0 (pad) and 1 (unknown).

    Vocabulary ids follow first-seen order over the fitting corpus. This stands
    in for a pretrained subword tokenizer; at desk scale the prompt vocabulary
    is small enough that word-level ids are adequate.
    """

    def __init__(self, vocab: Optional[dict] = None, lowercase: bool = True,
                 max_tokens: int = DEFAULT_MAX_TOKENS):
        if max_tokens < 1:
            raise UsageError("max_tokens must be >= 1")
        self.vocab = dict(vocab) if vocab else {}
        self.lowercase = lowercase
        self.max_tokens = max_tokens

    @property
    def vocab_size(self) -> int:
        return len(self.vocab) + 2  # reserved pad + unk

    def _split(self, text: str) -> list:
        if self.lowercase:
            text = text.lower()
        return _TOKEN_RE.findall(text)

    @staticmethod
    def fit(corpus, max_tokens: int = DEFAULT_MAX_TOKENS) -> "Tokenizer":
        """Lowercased vocabulary of every token in the corpus."""
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

    def to_dict(self) -> dict:
        return {"vocab": self.vocab, "lowercase": self.lowercase,
                "max_tokens": self.max_tokens}

    @staticmethod
    def from_dict(d: dict) -> "Tokenizer":
        return Tokenizer(vocab=d["vocab"], lowercase=d["lowercase"],
                         max_tokens=d["max_tokens"])
