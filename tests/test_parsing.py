import hashlib

import pytest

from mathsynth.parsing import (
    BpeCodec,
    BpeError,
    ExtractionError,
    Observation,
    encode_observation,
    extract_inputs,
    train_bpe,
)
from mathsynth.problems import SUPPORTED_MODULES, generate
from mathsynth.values import render


def kinds_and_texts(values):
    return [(v.kind, render(v)) for v in values]


def test_extract_inputs_reads_only_ascii_digits():
    # '²' passes str.isdigit but not int(); it is skipped like other text
    assert kinds_and_texts(extract_inputs("What is 2²?")) == [("Value", "2")]
    with pytest.raises(ExtractionError):
        extract_inputs("What is ²?")


def test_extract_inputs_function_chain():
    q = (
        "Let h(t) = t**3 + t**2 + 1. Let v(d) = 6*d**3 + 24*d**2 + 4. "
        "Let w(j) = 4*h(j) - v(j). What is the third derivative of w(x) wrt x?"
    )
    assert kinds_and_texts(extract_inputs(q)) == [
        ("Function", "h(t) = t**3 + t**2 + 1"),
        ("Function", "v(d) = 6*d**3 + 24*d**2 + 4"),
        ("Function", "w(j) = 4*h(j) - v(j)"),
        ("Expression", "w(x)"),
        ("Variable", "x"),
    ]


def test_extract_inputs_single_expression():
    q = "What is the first derivative of 6*k**2 - 101*k + 2548?"
    assert kinds_and_texts(extract_inputs(q)) == [("Expression", "6*k**2 - 101*k + 2548")]


def test_extract_inputs_two_values():
    assert kinds_and_texts(extract_inputs("Is 5340 a multiple of 10?")) == [
        ("Value", "5340"),
        ("Value", "10"),
    ]


def test_article_a_is_not_a_variable():
    got = extract_inputs("Is 7 a factor of 49?")
    assert kinds_and_texts(got) == [("Value", "7"), ("Value", "49")]


def test_bare_letter_needs_a_witness_fragment():
    got = extract_inputs("Solve 2*x = 4 for x.")
    assert kinds_and_texts(got) == [("Equation", "2*x = 4"), ("Variable", "x")]
    # bare letter first, equation later (two-pass resolution)
    got = extract_inputs("Find s such that s**2 - 1 = 0.")
    assert kinds_and_texts(got) == [("Variable", "s"), ("Equation", "s**2 - 1 = 0")]


def test_rational_inputs():
    got = extract_inputs("Calculate the common denominator of -19/36 and -59/12.")
    assert kinds_and_texts(got) == [("Rational", "-19/36"), ("Rational", "-59/12")]


def test_unrecognized_phrasing_errors_with_span():
    with pytest.raises(ExtractionError) as exc:
        extract_inputs("What is seven halves of a day in minutes?")
    assert "seven halves" in str(exc.value)


def test_generated_questions_parse_exactly():
    for module in SUPPORTED_MODULES:
        for gp in generate(module, 40, seed=3):
            got = extract_inputs(gp.problem.question)
            assert kinds_and_texts(got) == kinds_and_texts(gp.problem.inputs), gp.problem.question


def test_input_render_is_a_question_substring():
    for module in SUPPORTED_MODULES:
        for gp in generate(module, 25, seed=4):
            for v in gp.problem.inputs:
                assert render(v) in gp.problem.question


# ---------------------------------------------------------------------------
# BPE


def test_single_merge_example():
    codec = train_bpe(["aaab", "aaac"], vocab_size=4)  # base {a,b,c} + 1
    assert codec.merges == [("a", "a")]


def test_no_pairs_means_no_merges():
    codec = train_bpe(["x"], vocab_size=2)
    assert codec.merges == []


def test_round_trip_on_corpus():
    corpus = [gp.problem.question for gp in generate("numbers__gcd", 30, 0)]
    codec = train_bpe(corpus, vocab_size=len({c for q in corpus for c in q}) + 24, max_len=128)
    for q in corpus:
        ids = codec.encode(q)
        assert len(ids) == codec.max_len
        assert codec.decode(ids) == q


def test_training_is_deterministic():
    corpus = [gp.problem.question for gp in generate("numbers__is_prime", 40, 1)]
    size = len({c for q in corpus for c in q}) + 16
    a = train_bpe(corpus, vocab_size=size)
    b = train_bpe(corpus, vocab_size=size)
    assert a.merges == b.merges
    assert a.vocab == b.vocab


def test_vocab_size_must_exceed_base():
    with pytest.raises(BpeError):
        train_bpe(["abc"], vocab_size=3)


def test_too_long_is_an_error_not_truncation():
    codec = train_bpe(["ab"], vocab_size=3, max_len=2)
    with pytest.raises(BpeError):
        codec.encode("ababab")  # three "ab" tokens exceed max_len


def test_padding():
    codec = train_bpe(["ab"], vocab_size=3, max_len=6)
    ids = codec.encode("ab")
    assert len(ids) == 6
    assert ids[-1] == codec.pad_index


def test_codec_serialization_reproduces_encodings(tmp_path):
    questions = [gp.problem.question for gp in generate("algebra__linear_1d", 25, 2)]
    # tokens with tabs, newlines and backslashes must survive the file
    escapes = ["a\tb\\n", "a\tb\nc\\", "\\t\\\n\t", "b\\n\tc"] * 3
    for corpus in (questions, escapes):
        codec = train_bpe(corpus, vocab_size=len({c for q in corpus for c in q}) + 12)
        path = tmp_path / "codec.json"
        codec.save(path)
        loaded = BpeCodec.load(path)
        assert loaded.merges == codec.merges and loaded.vocab == codec.vocab
        assert (loaded.pad_index, loaded.max_len) == (codec.pad_index, codec.max_len)
        for q in corpus:
            assert loaded.encode(q) == codec.encode(q)


# ---------------------------------------------------------------------------
# observations


def test_observation_raw_mode():
    obs = encode_observation(None, "What is 1?", [])
    assert obs.question == "What is 1?" and obs.history == () and not obs.encoded


def test_observation_history_suffix():
    obs = encode_observation(None, "q", [5, 14])
    assert obs.history == (5, 14)


def test_observation_encoded_mode():
    codec = train_bpe(["abc def"], vocab_size=8, max_len=10)
    obs = encode_observation(codec, "abc def", [1])
    assert obs.encoded and len(obs.question) == 10 and obs.history == (1,)
    assert obs == Observation(codec.encode("abc def"), (1,), True)


BPE_DIGEST = "13e1307ac8b427f40a1d96b369d0cfc0c0467281b2b967ee5abfd66d3d9182c9"


def test_bpe_training_and_encoding_are_pinned():
    # merges, vocabulary and every encoding over all modules; the digest
    # guards refactors of the merge loop
    questions = [gp.problem.question for m in SUPPORTED_MODULES for gp in generate(m, 100, 41)]
    base = len({c for q in questions for c in q})
    codec = train_bpe(questions, vocab_size=base + 32, max_len=max(map(len, questions)))
    digest = hashlib.sha256(repr((codec.merges, sorted(codec.vocab.items()))).encode())
    for q in questions:
        digest.update(repr(codec.encode(q)).encode())
    assert len(questions) == 1100
    assert len(codec.merges) == 32
    assert digest.hexdigest() == BPE_DIGEST


EXTRACTION_DIGEST = "2ae4b3aeca38a358c41dcfb43467c51c7d37673d3a9476ff0a5ba89f50774cde"


def test_input_extraction_is_pinned():
    # kind and rendering of every extracted input over all modules and three
    # seeds, plus the questions that raise; the digest guards the scanner
    digest = hashlib.sha256()
    n_questions = n_rejected = 0
    for m in SUPPORTED_MODULES:
        for seed in (0, 1, 41):
            for gp in generate(m, 300, seed):
                n_questions += 1
                try:
                    line = repr(kinds_and_texts(extract_inputs(gp.problem.question)))
                except ExtractionError as exc:
                    n_rejected += 1
                    line = f"ExtractionError: {exc}"
                digest.update(line.encode() + b"\n")
    assert (n_questions, n_rejected) == (9900, 6)
    assert digest.hexdigest() == EXTRACTION_DIGEST
