"""Question-side machinery: typed input extraction from question text, and
the byte-pair-encoded observation representation.

Extraction is rule-based: maximal math fragments are parsed with the value
grammar, then typed.  A bare single letter only counts as a Variable input
if that letter occurs as a variable inside some other fragment of the same
question ("wrt x" after "w(x)", but not the article "a").
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

from .values import (
    EQUATION,
    EXPRESSION,
    FUNCTION,
    NUMBER,
    MathParseError,
    Sym,
    TypedValue,
    _Scanner,
    _parse_expr,
    free_symbols,
    typed,
    variable,
)


class ExtractionError(ValueError):
    """Raised when no typed inputs can be extracted from a question."""

    def __init__(self, message: str, span: str):
        super().__init__(f"{message}: {span!r}")
        self.span = span


@dataclass(frozen=True)
class Problem:
    """One question/answer pair with its ordered typed inputs."""

    question: str
    answer: str
    inputs: tuple
    module: str = ""

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


# ---------------------------------------------------------------------------
# input extraction


def _fragment_variables(v: TypedValue) -> set:
    """Variable names mentioned by a fragment (function names excluded)."""
    if v.kind == FUNCTION:
        name, param, body = v.payload
        return {param} | free_symbols(body)
    if v.kind == EQUATION:
        lhs, rhs = v.payload
        return free_symbols(lhs) | free_symbols(rhs)
    if v.kind == EXPRESSION:
        return free_symbols(v.payload)
    return set()


def _try_fragment(question: str, start: int):
    """Maximal grammar parse from `start`; returns (lhs, rhs, end) or None."""
    sc = _Scanner(question, start)
    try:
        lhs = _parse_expr(sc)
    except MathParseError:
        return None
    end = sc.pos
    rhs = None
    save = sc.pos
    if sc.eat("="):
        try:
            rhs = _parse_expr(sc)
            end = sc.pos
        except MathParseError:
            rhs = None
            sc.pos = save
    return lhs, rhs, end


# an English word, or a variable or call head when it has one letter or a '('
_WORD = re.compile(r"[A-Za-z][A-Za-z_]*")


def _starts_math(question: str, i: int) -> bool:
    """Could a math fragment start at position i?  Digits yes; letters only
    as single-letter variables or call heads, so English words (hyphenated
    ones included) do not become fragments."""
    if NUMBER.match(question, i):
        return True
    word = _WORD.match(question, i)
    return word is not None and (word.end() - i == 1 or question.startswith("(", word.end()))


def extract_inputs(question: str) -> list:
    """Ordered typed inputs appearing in the question text."""
    found = []  # (position, TypedValue)
    pending = []  # (position, letter)
    i = 0
    n = len(question)
    while i < n:
        if _starts_math(question, i) or (question[i] == "-" and _starts_math(question, i + 1)):
            parsed = _try_fragment(question, i)
        else:
            word = _WORD.match(question, i)  # skip an English word whole
            i = i + 1 if word is None else word.end()
            continue
        if parsed is None:
            i += 1
            continue
        lhs, rhs, end = parsed
        text = question[i:end].strip()
        if rhs is None and isinstance(lhs, Sym) and len(text) == 1:
            pending.append((i, text))
        else:
            found.append((i, typed(lhs, rhs, text)))
        i = max(end, i + 1)

    mentioned = set()
    for _, v in found:
        mentioned |= _fragment_variables(v)
    for pos, letter in pending:
        if letter in mentioned:
            found.append((pos, variable(letter)))
    found.sort(key=lambda item: item[0])
    if not found:
        raise ExtractionError("no typed inputs recognized", question)
    return [v for _, v in found]


# ---------------------------------------------------------------------------
# byte pair encoding


class BpeError(ValueError):
    pass


@dataclass
class BpeCodec:
    """Byte-pair codec with a fixed-length padded encoding.

    encode() always returns exactly max_len indices; questions that do not
    fit raise instead of being silently truncated.
    """

    merges: list  # ordered (left, right) pairs
    vocab: dict  # token -> index
    pad_index: int
    max_len: int
    _inverse: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._inverse = {i: t for t, i in self.vocab.items()}

    def tokenize(self, text: str) -> list:
        """The tokens of text after every merge in order.  A merge whose
        joined text does not occur in text is skipped: the tokens always
        concatenate back to text, so an adjacent (left, right) pair implies
        that left + right occurs in it."""
        tokens = list(text)
        for left, right in self.merges:
            if left + right in text:
                tokens = _merge(tokens, left, right)
        return tokens

    def encode(self, text: str) -> list:
        tokens = self.tokenize(text)
        if len(tokens) > self.max_len:
            raise BpeError(
                f"encoded question has {len(tokens)} tokens, max_len is {self.max_len}"
            )
        try:
            ids = [self.vocab[t] for t in tokens]
        except KeyError as exc:
            raise BpeError(f"token not in vocabulary: {exc.args[0]!r}") from None
        return ids + [self.pad_index] * (self.max_len - len(ids))

    def decode(self, ids) -> str:
        return "".join(self._inverse[i] for i in ids if i != self.pad_index)

    # -- serialization ------------------------------------------------------

    def save(self, path):
        state = {
            "max_len": self.max_len,
            "merges": self.merges,
            "vocab": self.vocab,
            "pad_index": self.pad_index,
        }
        with open(path, "w") as fh:
            json.dump(state, fh)

    @classmethod
    def load(cls, path) -> "BpeCodec":
        with open(path) as fh:
            state = json.load(fh)
        return cls(
            merges=[tuple(pair) for pair in state["merges"]],
            vocab=state["vocab"],
            pad_index=state["pad_index"],
            max_len=state["max_len"],
        )


def _merge(tokens, left, right) -> list:
    """tokens with each (left, right) pair, scanned left to right without
    overlap, joined into one token.  The scan jumps from one occurrence of
    left to the next with list.index and copies the runs in between as
    slices, so with the merge ("a", "a") the tokens a, a, a give aa, a."""
    merged = left + right
    out = []
    start = k = 0  # tokens[start:k] are not yet copied
    stop = len(tokens) - 1  # a pair needs a token after its left half
    while True:
        try:
            k = tokens.index(left, k, stop)
        except ValueError:
            break
        if tokens[k + 1] == right:
            out += tokens[start:k]
            out.append(merged)
            start = k = k + 2
        else:
            k += 1
    out += tokens[start:]
    return out


def train_bpe(corpus, vocab_size: int, max_len: int = 128) -> BpeCodec:
    """Greedy highest-frequency pair merging; ties break lexicographically,
    so training is deterministic given the corpus."""
    corpus = list(corpus)
    if not corpus:
        raise BpeError("empty corpus")
    base = sorted({ch for q in corpus for ch in q})
    if vocab_size <= len(base):
        raise BpeError(
            f"vocab_size {vocab_size} must exceed the base character set ({len(base)})"
        )
    sequences = [list(q) for q in corpus]
    merges = []
    for _ in range(vocab_size - len(base)):
        counts = Counter()
        for seq in sequences:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        best_count = max(counts.values())
        pair = min(p for p, c in counts.items() if c == best_count)
        merges.append(pair)
        merged = pair[0] + pair[1]
        for s, seq in enumerate(sequences):
            if merged in corpus[s]:  # the skip rule of BpeCodec.tokenize
                sequences[s] = _merge(seq, *pair)
    vocab = {tok: i for i, tok in enumerate(base + [l + r for l, r in merges])}
    return BpeCodec(merges=merges, vocab=vocab, pad_index=len(vocab), max_len=max_len)


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True)
class Observation:
    """Question representation plus the episode's action-index history."""

    question: object  # tuple of token indices (encoded) or raw text
    history: tuple
    encoded: bool
